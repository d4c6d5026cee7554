"""URL normalization used by every layer that stores or compares URLs.

``normalize_url`` caches ``URL_CACHE_SIZE`` URLs at most. ``resolve_url``
passes an ``http://`` or ``https://`` href that normalizes straight to it:
``urljoin`` would only re-assemble it, removing no ``..`` segment."""
import functools
import re
from urllib.parse import urljoin, urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": "80", "https": "443"}
# ASCII controls, space and the characters RFC 3986 allows nowhere in a URL
# (``urlsplit`` has already removed tab, LF and CR, as WHATWG parsing does)
_BAD_HOST_CHAR = re.compile(r'[\x00-\x20\x7f<>"{}|\\^`]')
URL_CACHE_SIZE = 65_536


@functools.lru_cache(maxsize=URL_CACHE_SIZE)
def normalize_url(url: str) -> str:
    """Canonical form: lowercase scheme/host, no fragment, no default port,
    empty path becomes "/", an IPv6 host in brackets. Raises ValueError
    for non-absolute or non-http(s) URLs, and for a host holding an ASCII
    control character, a space or one of ``<>"{}|\\^` ``.
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
    path = parts.path or "/"
    return urlunsplit((scheme, netloc, path, parts.query, ""))


def resolve_url(base: str, href: str) -> str:
    """Resolve href against base and normalize; ValueError if the result is
    not fetchable http(s)."""
    if href.startswith(("http://", "https://")):
        try:
            return normalize_url(href)
        except ValueError:
            pass  # "http:///x", say, which urljoin resolves against base
    return normalize_url(urljoin(base, href))


def host_of(url: str) -> str:
    host = urlsplit(url).hostname
    if not host:
        raise ValueError(f"URL has no host: {url!r}")
    return host.lower()
