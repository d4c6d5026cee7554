"""URL normalization used by every layer that stores or compares URLs.

One rule covers every URL: a URL that ``_CANONICAL`` matches is in the
form ``_normalize`` gives, so ``normalize_url``, ``resolve_url`` and
``host_of`` use it as written, without a join or ``urlsplit``. Any other
URL is joined to its base by RFC 3986 section 5.2 (``_join``) where it
has one, then normalized by ``_normalize``. Nothing is cached. So on
every path a ``;`` is an ordinary path character (``/G47;`` and ``/G47``
are two URLs), an empty path segment is kept, and an empty query is a
query."""
import re
import string
from urllib.parse import quote, urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": "80", "https": "443"}
# ASCII controls, space and the characters RFC 3986 allows nowhere in a URL
# (``urlsplit`` has already removed tab, LF and CR, as WHATWG parsing does)
_BAD_HOST_CHAR = re.compile(r'[\x00-\x20\x7f<>"{}|\\^`]')
_PERCENT_ENCODED = re.compile(r"%([0-9A-Fa-f]{2})")
_UNRESERVED = string.ascii_letters + string.digits + "-._~"
# the WHATWG path percent-encode set: C0 controls, space, "#<>?`{} and
# every code point past "~"
_PATH_ENCODE = re.compile(r'[\x00-\x20"#<>?`{}\x7f-\U0010ffff]+')
# a URL in canonical form: lowercase http(s), a host of lowercase labels
# with no port or userinfo, then a path of non-empty segments (a final "/"
# aside) of unreserved and sub-delim characters, with no "." or ".."
# segment, and no "%", query or fragment
_SEGMENT = r"(?!\.\.?(?:/|\Z))[A-Za-z0-9\-._~!$&'()*+,;=]+"
_CANONICAL = re.compile(r"(?P<origin>https?://(?P<host>[a-z0-9-]+(?:\.[a-z0-9-]+)*))"
                        rf"/(?:{_SEGMENT}(?:/{_SEGMENT})*/?)?")


def _normal_percent(match) -> str:
    char = chr(int(match.group(1), 16))
    return char if char in _UNRESERVED else "%" + match.group(1).upper()


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4 for a path that starts with "/"."""
    segments = path.split("/")
    kept = []
    for segment in segments[1:]:
        if segment == "..":
            del kept[-1:]
        elif segment != ".":
            kept.append(segment)
    if segments[-1] in (".", ".."):
        kept.append("")
    return "/" + "/".join(kept)


def normalize_url(url: str) -> str:
    """The canonical form of ``url`` (see ``_normalize``): ``url`` itself,
    the same object, when ``_CANONICAL`` matches it."""
    return url if _CANONICAL.fullmatch(url) else _normalize(url)


def _normalize(url: str) -> str:
    """Canonical form: lowercase scheme/host, no fragment, no default port,
    empty path becomes "/", an IPv6 host in brackets. Raises ValueError
    for non-absolute or non-http(s) URLs, and for a host holding an ASCII
    control character, a space or one of ``<>"{}|\\^` ``.

    The path is rewritten in this order, so that the result normalizes to
    itself: (1) percent-encodings get uppercase hex digits, and those of
    unreserved characters (letters, digits, ``-._~``) are decoded; (2) dot
    segments are removed (RFC 3986 section 5.2.4), also those that step 1
    decoded from ``%2E``; (3) the WHATWG path percent-encode set is
    encoded, a non-ASCII character as its UTF-8 bytes. So ``%7e`` becomes
    ``~``, and a raw ``>``, ``%3e`` and ``%3E`` all become ``%3E``. A ``%``
    and the query are kept as written.
    """
    parts = urlsplit(url.strip())
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise ValueError(f"not an absolute http/https URL: {url!r}")
    host = parts.hostname
    if not host:
        raise ValueError(f"URL has no host: {url!r}")
    if _BAD_HOST_CHAR.search(host):
        raise ValueError(f"invalid character in host: {url!r}")
    host = host.lower()
    port = parts.port
    netloc = f"[{host}]" if ":" in host else host
    if port is not None and str(port) != _DEFAULT_PORTS[scheme]:
        netloc = f"{netloc}:{port}"
    path = _remove_dot_segments(_PERCENT_ENCODED.sub(_normal_percent, parts.path or "/"))
    path = _PATH_ENCODE.sub(lambda m: quote(m.group(), safe=""), path)
    return urlunsplit((scheme, netloc, path, parts.query, ""))


def resolve_url(base: str, href: str) -> str:
    """Resolve href against base and normalize; ValueError if the result is
    not fetchable http(s). A canonical href is returned as it is, and a
    root-relative one that is canonical behind a canonical base's origin
    as that origin plus href."""
    if _CANONICAL.fullmatch(href):
        return href
    if href[:1] == "/":
        origin = _CANONICAL.fullmatch(base)
        if origin and _CANONICAL.fullmatch(url := origin["origin"] + href):
            return url
    return _normalize(_join(base, href))


def _join(base: str, href: str) -> str:
    """``href`` resolved against ``base`` by RFC 3986 sections 5.2.2-5.2.4:
    empty path segments, of href and of base's directory, are kept, and a
    bare ``?`` gives base's path with an empty query, not base's query.
    The parts are those ``urlsplit`` reads, so an empty authority counts
    as none, and an href in base's scheme without an authority is
    relative (the RFC's non-strict reading). ValueError if the result has
    no authority."""
    ref, parts = urlsplit(href), urlsplit(base)
    if ref.scheme not in ("", parts.scheme):
        return href
    if ref.netloc:
        return urlunsplit((parts.scheme, ref.netloc, ref.path, ref.query, ""))
    if not parts.netloc:
        raise ValueError(f"URL has no host: {base!r}")
    if not ref.path:
        query = ref.query if "?" in href.partition("#")[0] else parts.query
        return urlunsplit((parts.scheme, parts.netloc, parts.path, query, ""))
    path = ref.path
    if path[:1] != "/":
        directory = parts.path or "/"
        path = directory[:directory.rfind("/") + 1] + path
    return urlunsplit((parts.scheme, parts.netloc, _remove_dot_segments(path), ref.query, ""))


def host_of(url: str) -> str:
    """The lowercase host of ``url``, sliced out of a canonical URL;
    ValueError if it has none."""
    canonical = _CANONICAL.fullmatch(url)
    if canonical:
        return canonical["host"]
    host = urlsplit(url).hostname
    if not host:
        raise ValueError(f"URL has no host: {url!r}")
    return host.lower()
