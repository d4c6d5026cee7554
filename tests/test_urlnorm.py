"""``normalize_url``, ``resolve_url`` and ``host_of`` use a canonical URL
as written; any other URL is joined by RFC 3986 and normalized by
``urlnorm._normalize``. On the worlds' hrefs and the hand-made ones
``resolve_url`` must give exactly what ``_normalize(urljoin(base, href))``
gives, except where ``urljoin`` departs from RFC 3986: empty path
segments and a bare ``?``. On every input the canonical shortcuts must
give what the general path gives, and ``host_of`` what ``urlsplit``
reads."""
import email.utils
import random
from collections import Counter
from urllib.parse import urljoin, urlsplit

import pytest

from blogwatch import feeds, htmltext, urlnorm
from blogwatch.errors import MalformedFeed
from blogwatch.feeds import decode_feed_bytes, parse_rss
from blogwatch.harness import WorldSpec, generate_world, in_memory_transport, mixed_200_spec
from blogwatch.htmltext import extract_page
from blogwatch.pipeline import run_batch
from blogwatch.urlnorm import host_of, normalize_url, resolve_url

from conftest import write_world_inputs
from test_hostile_inputs import mutate


def plain(base, href):
    """The reference: join by ``urljoin``, then normalize by the general
    path. The result, or the type of the error raised."""
    try:
        return urlnorm._normalize(urljoin(base, href))
    except ValueError:
        return ValueError


def urljoin_departs(base, href) -> bool:
    """Whether ``urljoin`` may resolve ``href`` otherwise than RFC 3986: a
    path holds an empty segment (it drops those from a relative path and
    from base's directory), or ``href`` is a bare ``?`` (it keeps base's
    query)."""
    try:
        paths = [urlsplit(base).path, urlsplit(href).path]
    except ValueError:
        return False
    return any("//" in path for path in paths) or href.strip().partition("#")[0] == "?"


def fast(base, href):
    try:
        return resolve_url(base, href)
    except ValueError:
        return ValueError


def general(base, href):
    """What ``resolve_url`` gives by its general path alone: href joined to
    base by RFC 3986 (``urlnorm._join``), then normalized. The result, or
    ValueError."""
    try:
        return urlnorm._normalize(urlnorm._join(base, href))
    except ValueError:
        return ValueError


def plain_host(url):
    """The reference host: what ``urlsplit`` reads, lowercased, or
    ValueError."""
    try:
        host = urlsplit(url).hostname
    except ValueError:
        return ValueError
    return host.lower() if host else ValueError


def fast_host(url):
    try:
        return host_of(url)
    except ValueError:
        return ValueError


@pytest.fixture(scope="module")
def world_pairs():
    """Every ``(base, href)`` the feed and page parsers resolve over the
    bodies of the mixed-200 worlds of seeds 7 to 11."""
    pairs = []

    def record(base, href):
        pairs.append((base, href))
        return resolve_url(base, href)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(htmltext, "resolve_url", record)
        mp.setattr(feeds, "resolve_url", record)
        for seed in range(7, 12):
            for url, (content_type, body) in generate_world(mixed_200_spec(seed)).sites.items():
                if content_type == "text/html":
                    extract_page(body.decode("utf-8"), url)
                elif content_type == "application/rss+xml":
                    parse_rss(decode_feed_bytes(body), url)
    return pairs


def test_world_hrefs_resolve_as_joined_and_normalized(world_pairs):
    absolute = sum(href.startswith(("http://", "https://")) for _base, href in world_pairs)
    # both paths are exercised: absolute hrefs and relative ones
    assert 0 < absolute < len(world_pairs)
    for base, href in world_pairs:
        assert fast(base, href) == plain(base, href), (base, href)
        assert normalize_url(base) == urlnorm._normalize(base)


BASES = ["http://blog.example/post/1", "https://Blog.Example:8443/a/b/c?q=1#f",
         "http://blog.example", "https://[2001:db8::1]/x/"]

HREFS = [
    # schemes in any case, absolute and scheme-relative
    "http://a.example/p", "HTTP://A.Example/P", "Http://a.example", "https://a.example/",
    "HTTPS://a.example:443/", "//other.example/x", "//other.example", "//",
    # default and odd ports, bad ports
    "http://a.example:80/", "https://a.example:80/", "http://a.example:8080/p",
    "http://a.example:0/", "http://a.example:/p", "http://a.example:99999/",
    "http://a.example:port/",
    # userinfo
    "http://user:pw@a.example/p", "http://user@A.example:81/", "http://user@/p",
    # IPv6 hosts, well formed or not
    "http://[::1]/", "http://[2001:DB8::1]:8080/p", "http://[::1/", "http://::1/",
    # dot segments, absolute and relative
    "http://a.example/a/../b/./c", "http://a.example/..", "../up", "./here",
    "a/../../../b", "..", ".",
    # empty query and fragment, params
    "http://a.example/p?", "http://a.example/p?#", "http://a.example/p#",
    "http://a.example/p;type=a?x=1", "http://a.example/;p", "?", "?q=2", "#frag",
    "p;x", ";x",
    # surrounding and embedded white space
    " http://a.example/p", "  https://a.example/ ", "\thttp://a.example/",
    "http://a.example/p q", "http://a.exa\nmple/p", " /rel", " rel",
    # no host or an empty authority
    "http:///p", "https:///", "http://", "http:", "http:p", "http:/p",
    "http://?q", "http://#f", "http://:80/",
    # other schemes, which never resolve
    "javascript:void(0)", "JavaScript:alert(1)", "mailto:a@b.example",
    "ftp://a.example/", "data:text/html,hi", "file:///etc/hosts", "news:x",
    # relative and odd
    "", "/", "/abs/path", "rel/path", "///triple", "http\\://a.example/",
    "http//a.example", "http:\\\\a.example\\p", "http://a.example\\p",
]


@pytest.mark.parametrize("base", BASES)
def test_hand_made_hrefs_resolve_as_joined_and_normalized(base):
    for href in HREFS:
        if not urljoin_departs(base, href):
            assert fast(base, href) == plain(base, href), (base, href)


@pytest.mark.parametrize("base", BASES)
def test_resolved_urls_are_normal_and_keep_their_host(base):
    """A resolved URL normalizes to itself, and its host is the one
    ``urlsplit`` reads back: an IPv6 host keeps its brackets."""
    for href in HREFS:
        url = fast(base, href)
        if url is ValueError:
            continue
        assert urlnorm._normalize(url) == url, (base, href)
        assert host_of(url) == urlsplit(url).hostname, (base, href)


def test_ipv6_hosts_keep_their_brackets():
    assert urlnorm._normalize("http://[2001:DB8::1]:8080/p") == "http://[2001:db8::1]:8080/p"
    assert resolve_url("http://[::1]/a/", "b") == "http://[::1]/a/b"
    assert host_of("http://[2001:db8::1]:8080/p") == "2001:db8::1"


BAD_HOST_URLS = ["http://bl og002.example/post/1", "http://exa<mple.com/"]


@pytest.mark.parametrize("url", BAD_HOST_URLS)
def test_a_host_with_a_space_or_a_forbidden_character_is_no_url(url):
    """Such a URL would become a frontier node and a politeness host whose
    every fetch fails: normalizing raises, and a link to it is dropped."""
    with pytest.raises(ValueError, match="host"):
        urlnorm._normalize(url)
    with pytest.raises(ValueError):
        resolve_url("http://blog.example/post/1", url)


def test_every_forbidden_host_character_raises_and_letters_and_percent_stay():
    """``urlsplit`` removes tab, LF and CR anywhere in a URL, as the WHATWG
    URL standard does, so those leave a valid host."""
    stripped = "\t\n\r"
    for char in [chr(c) for c in range(0x20)] + ["\x7f", " ", *'<>"{}|\\^`']:
        if char in stripped:
            assert urlnorm._normalize(f"http://a{char}b.example/x") == "http://ab.example/x"
            continue
        with pytest.raises(ValueError):
            urlnorm._normalize(f"http://a{char}b.example/x")
    assert urlnorm._normalize("http://B\u00fccher.example/x") == "http://b\u00fccher.example/x"
    assert urlnorm._normalize("http://a%41b.example/x") == "http://a%41b.example/x"


def test_unresolvable_hrefs_raise_on_both_paths():
    base = "http://blog.example/post/1"
    for href in ["javascript:void(0)", "mailto:a@b.example", "ftp://a.example/",
                 "http://a.example:99999/", "http://[::1/", "http://user@/p",
                 "http://:80/"]:
        with pytest.raises(ValueError):
            resolve_url(base, href)
        with pytest.raises(ValueError):
            urlnorm._normalize(urljoin(base, href))


@pytest.mark.parametrize("url", ["http:///p", "/relative/path", "mailto:a@b.example"])
def test_host_of_a_url_without_a_host_raises(url):
    with pytest.raises(ValueError, match="no host"):
        host_of(url)


# ----------------------------------------------------------------------
# one URL per resource: the path rules of ``normalize_url``

def is_fixed_point(url) -> bool:
    return url is ValueError or urlnorm._normalize(url) == url


def test_world_hrefs_resolve_to_fixed_points(world_pairs):
    for base, href in world_pairs:
        assert is_fixed_point(fast(base, href)), (base, href)


@pytest.mark.parametrize("url, expected", [
    # 1. hex digits in uppercase, unreserved characters decoded
    ("http://a.example/q%3er", "http://a.example/q%3Er"),
    ("http://a.example/%7E/x", "http://a.example/~/x"),
    ("http://a.example/%41%2d%5f%2E%30", "http://a.example/A-_.0"),
    ("http://a.example/a%2fb%25", "http://a.example/a%2Fb%25"),
    ("http://a.example/%2541", "http://a.example/%2541"),
    ("http://a.example/100%/%g1/%", "http://a.example/100%/%g1/%"),
    # 2. dot segments removed, also those decoded in step 1
    ("http://a.example/x/./y", "http://a.example/x/y"),
    ("http://a.example/x/../y", "http://a.example/y"),
    ("http://a.example/../../y", "http://a.example/y"),
    ("http://a.example/x/..", "http://a.example/"),
    ("http://a.example/x/.", "http://a.example/x/"),
    ("http://a.example/x//../y", "http://a.example/x/y"),
    ("http://a.example/%2E%2E/y", "http://a.example/y"),
    ("http://a.example/x/%2e/y", "http://a.example/x/y"),
    ("http://a.example/x/..y/.z", "http://a.example/x/..y/.z"),
    # 3. the WHATWG path percent-encode set encoded, non-ASCII as UTF-8
    ("http://a.example/q>r", "http://a.example/q%3Er"),
    ("http://a.example/a b", "http://a.example/a%20b"),
    ('http://a.example/<"`{}>', "http://a.example/%3C%22%60%7B%7D%3E"),
    ("http://a.example/café", "http://a.example/caf%C3%A9"),
    ("http://a.example/\x01\x7f", "http://a.example/%01%7F"),
    ("http://a.example/a|b^c[d]", "http://a.example/a|b^c[d]"),
    # the query is kept as written
    ("http://a.example/x/../p?q=%7e a>b", "http://a.example/p?q=%7e a>b"),
])
def test_path_rules(url, expected):
    assert urlnorm._normalize(url) == expected
    assert urlnorm._normalize(expected) == expected


def test_spellings_of_one_resource_are_one_url():
    for spellings in (["q>r", "q%3er", "q%3Er"], ["%7Ex", "~x", "%7ex"],
                      ["a b", "a%20b"], ["x/../y", "./y", "%2E/y", "x/%2E%2E/y"]):
        urls = {urlnorm._normalize("http://a.example/" + s) for s in spellings}
        assert len(urls) == 1, spellings


def test_relative_and_absolute_spellings_resolve_to_one_url():
    base = "http://a.example/x/z"
    assert resolve_url(base, "../y") == resolve_url(base, "http://a.example/x/../y") \
        == resolve_url(base, "/./y") == "http://a.example/y"
    assert resolve_url(base, "./%7Ew") == resolve_url(base, "http://a.example/x/~w")


@pytest.mark.parametrize("href", ["https://b-c.example/G47;", "/G47;", "G47;", "./G47;",
                                  "x/../G47;", "HTTPS://B-C.example/G47;", "//b-c.example/G47;",
                                  "https://b-c.example:443/G47;", "/G47;?", "G47;#"])
def test_an_empty_params_is_kept_on_every_path(href):
    """A ``;`` is a path character (RFC 3986), so ``/G47;`` is one URL
    however it is spelled, and not ``/G47``."""
    assert resolve_url("https://b-c.example/x", href) == "https://b-c.example/G47;"


@pytest.mark.parametrize("base, href, url", [
    # empty segments, of a relative href and of base's directory
    ("http://a.example/b/c", "d//e", "http://a.example/b/d//e"),
    ("http://a.example/b/c", "./d//e", "http://a.example/b/d//e"),
    ("http://a.example/b/c", "/b/d//e", "http://a.example/b/d//e"),
    ("http://a.example/b/c", "http://a.example/b/d//e", "http://a.example/b/d//e"),
    ("http://a.example/b//c/x", "e", "http://a.example/b//c/e"),
    ("http://a.example/b//c/x", "../e", "http://a.example/b//e"),
    ("http://a.example/b//c/x", "http://a.example/b//c/e", "http://a.example/b//c/e"),
    # an empty query replaces base's; no query keeps it
    ("http://a.example/p?q", "?", "http://a.example/p"),
    ("http://a.example/p?q", "?#f", "http://a.example/p"),
    ("http://a.example/p?q", "p?", "http://a.example/p"),
    ("http://a.example/p?q", "/p?", "http://a.example/p"),
    ("http://a.example/p?q", "http://a.example/p?", "http://a.example/p"),
    ("http://a.example/p?q", "#f", "http://a.example/p?q"),
    ("http://a.example/p?q", "", "http://a.example/p?q"),
])
def test_empty_segments_and_an_empty_query_resolve_by_rfc_3986(base, href, url):
    """``urljoin`` drops the empty segments of a relative href and of
    base's directory, and reads a bare ``?`` as no query; RFC 3986
    section 5.2 keeps both, so each spelling gives one URL."""
    assert resolve_url(base, href) == url


# segments of normal paths, each ";" form among them, "%" escapes, and
# empty segments
_PATH_SEGMENTS = ["p", "post", "G47", "G47;", ";", ";x", "a;b", "..;x", "x-y", "~u", "a.b",
                  ".x", "..y", "!", "(", "=", "7", "%3B", "a%25;", "", "", ""]


def spellings(rng):
    """``(base, hrefs)``: a normal URL spelled from a base on its origin in
    the ways one page may link another. ``hrefs[0]`` is the URL. Its path
    may hold empty segments, and base may have a query; where base's path
    is the URL's, a bare ``?`` is one more spelling."""
    scheme = rng.choice(["http", "https"])
    host = ".".join(rng.choice(_HOST_LABELS) for _ in range(rng.randint(1, 3)))
    # a first segment that is empty would make "/" + path a network-path
    segments = [rng.choice([s for s in _PATH_SEGMENTS if s])]
    segments += [rng.choice(_PATH_SEGMENTS) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        segments.append("")                    # a final "/"
    depth = rng.randrange(len(segments))       # segments of base's directory
    name = rng.choice(["", "x", "i;v"] + segments[-1:] * (depth == len(segments) - 1))
    base_path = "/" + "".join(f"{s}/" for s in segments[:depth]) + name
    base = f"{scheme}://{host}{base_path}" + rng.choice(["", "?", "?q"])
    path = "/".join(segments)
    # a relative path that starts with an empty segment needs a "./"
    relative = "./" * (segments[depth:][:1] == [""]) + "/".join(segments[depth:]) or "./"
    upper = rng.choice([str.upper, str.lower])
    port = {"http": ":80", "https": ":443"}[scheme]
    hrefs = [f"{scheme}://{host}/{path}", f"/{path}", relative, f"./{relative}",
             f"x/../{relative}", f"{upper(scheme)}://{host.upper()}/{path}",
             f"{scheme.upper()}://{upper(host)}/{path}", f"{scheme}://{host}{port}/{path}",
             f"//{host}/{path}"]
    hrefs += [href + tail for href in hrefs for tail in ("?", "#", "#f")]
    if base_path == f"/{path}":
        hrefs += ["?", "?#", "?#f"]
    return base, hrefs


def test_seeded_spellings_of_a_url_resolve_to_one_fixed_point():
    """Every spelling resolves to one URL, which ``normalize_url`` and
    ``resolve_url`` give back unchanged, from its own base and from a base
    on another origin and scheme."""
    rng = random.Random(23)
    for _ in range(400):
        base, hrefs = spellings(rng)
        urls = {fast(base, href) for href in hrefs}
        assert len(urls) == 1, (base, hrefs, urls)
        url = urls.pop()
        assert url == hrefs[0] and urlnorm._normalize(url) == url, (base, url)
        assert normalize_url(url) == url
        assert resolve_url(base, url) == url
        other = "https://other.example/d/e" if url.startswith("http:") else "http://other.example/"
        assert resolve_url(other, url) == url
        assert {fast(other, href) for href in hrefs if "://" in href} == {url}


def test_random_paths_normalize_to_fixed_points():
    """Seeded paths over the characters the three rules act on."""
    rng = random.Random(10)
    alphabet = ["/", ".", "..", "%", "%2e", "%2E", "%7e", "%3c", "%25", "%2f", "a", "7",
                "e", "~", " ", ">", '"', "`", "{", "é", "€", "\x00", "|"]
    for _ in range(3000):
        url = "http://a.example/" + "".join(rng.choice(alphabet)
                                             for _ in range(rng.randint(0, 12)))
        assert is_fixed_point(urlnorm._normalize(url)), url


def test_mutated_world_hrefs_resolve_to_fixed_points():
    """The hrefs of the hostile worlds of ``test_hostile_inputs``: 20% of
    their bodies mutated, then every href the parsers resolve."""
    hrefs = []

    def record(base, href):
        hrefs.append((base, href))
        return resolve_url(base, href)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(htmltext, "resolve_url", record)
        mp.setattr(feeds, "resolve_url", record)
        for rng_seed in (11, 12, 13):
            rng = random.Random(rng_seed)
            for url, (ctype, body) in generate_world(WorldSpec(rng_seed=rng_seed,
                                                               n_blogs=40)).sites.items():
                if rng.random() >= 0.2:
                    continue
                text = mutate(body, rng).decode("utf-8", errors="replace")
                if ctype == "text/html":
                    extract_page(text, url)
                elif ctype == "application/rss+xml":
                    try:
                        parse_rss(text, url)
                    except MalformedFeed:
                        pass
    assert len(hrefs) > 100
    for base, href in hrefs:
        assert is_fixed_point(fast(base, href)), (base, href)
        assert is_fixed_point(plain(base, href)), (base, href)


# ----------------------------------------------------------------------
# the canonical form: ``resolve_url`` and ``host_of`` use such a URL as written

@pytest.mark.parametrize("base, href", [
    # an empty or a dot-segment ";params", which urljoin alone would drop
    ("https://b-c.example/", "/G47;"),
    ("https://b-c.example/", "/a;b/c"),
    ("https://b-c.example/x", "https://b-c.example/G47;"),
    # a port, userinfo, an uppercase host, a trailing-dot host
    ("http://a.example/", "http://a.example:80/p"),
    ("http://a.example/", "http://a.example:8080/p"),
    ("http://a.example/", "http://u:pw@a.example/p"),
    ("http://a.example/", "http://A.example/p"),
    ("http://a.example/", "http://a.example./p"),
    ("http://a.example:8080/", "/p"),
    ("http://u@a.example/", "/p"),
    ("http://A.example/", "/p"),
    ("http://a.example./", "/p"),
    # a dot segment, "%", an empty path, a query, a fragment
    ("http://a.example/", "http://a.example/x/../p"),
    ("http://a.example/", "http://a.example/x/."),
    ("http://a.example/", "/./p"),
    ("http://a.example/", "/p/.."),
    ("http://a.example/", "http://a.example/%7e"),
    ("http://a.example/", "/%41"),
    ("http://a.example/", "http://a.example"),
    ("http://a.example/", "http://a.example/p?q"),
    ("http://a.example/", "/p?"),
    ("http://a.example/", "http://a.example/p#f"),
    ("http://a.example/", "/p#"),
    ("http://a.example/?q", "/p"),
    # empty segments, and a scheme-relative href
    ("http://a.example/", "/a//b"),
    ("http://a.example/", "//b.example/p"),
    # hosts with non-ASCII digits, letters or white space
    ("http://a.example/", "http://a\u0663.example/p"),
    ("http://a.example/", "http://\uff41.example/p"),
    ("http://a.example/", "http://a\u00a0b.example/p"),
    ("http://a\u0663.example/", "/p"),
    ("http://a.example/", "http://a.example/p\u3000"),
])
def test_non_canonical_spellings_resolve_as_the_general_path(base, href):
    assert fast(base, href) == general(base, href), (base, href)
    for url in (base, href):
        assert fast_host(url) == plain_host(url), url


_HOST_LABELS = ["a", "blog", "b-c", "x9", "example", "0"]
_ODD_LABELS = ["", "A", "Blog", "\u00fc", "\u0663", "\uff41", "\u00a0", "_", "%41", " ", "[::1]"]
_SEGMENTS = ["p", "post", "G47", "x-y", "~u", "a_b", "!", "$", "&", "'", "(", ")", "*", "+",
             ",", "=", ".", "..", "a.b", ".x", "..y"]
_ODD_SEGMENTS = [";", ";x", "%", "%2e", "%7E", "", " ", "\u00e9", ":", "@", "[", "|", "\t",
                 "?", "#", "\\", "\u3000"]
_ODD_SCHEMES = ["HTTP://", "Https://", "ftp://", "http:", "http:/", "//", "", "http:///"]
_ODD_TAILS = [":80", ":8080", ":", "?", "?q=1", "#f", "#", "."]


def random_url(rng, odd=0.05):
    """A URL built of canonical parts, each replaced by an odd one with
    probability ``odd``."""
    def part(common, rare):
        return rng.choice(rare if rng.random() < odd else common)

    host = ".".join(part(_HOST_LABELS, _ODD_LABELS) for _ in range(rng.randint(1, 3)))
    if rng.random() < odd:
        host = rng.choice(["u@", "u:p@", "@"]) + host
    if rng.random() < odd:
        host += rng.choice(_ODD_TAILS)
    return part(["http://", "https://"], _ODD_SCHEMES) + host + random_path(rng, odd)


def random_path(rng, odd):
    segments = []
    for _ in range(rng.randint(0, 4)):
        segment = rng.choice(_SEGMENTS)
        if rng.random() < odd:
            segment = rng.choice([segment, ""]) + rng.choice(_ODD_SEGMENTS)
        segments.append(segment)
    path = "/" + "/".join(segments) + ("/" if segments and rng.random() < 0.3 else "")
    if rng.random() < odd / 2:
        path = rng.choice(["", "//", "/./"]) + path.lstrip("/")
    if rng.random() < odd:
        path += rng.choice(_ODD_TAILS)
    return path


def random_href(rng):
    kind = rng.random()
    if kind < 0.45:
        return random_url(rng)
    if kind < 0.9:
        return random_path(rng, 0.05)
    return random_path(rng, 0.05).lstrip("/")


def test_seeded_urls_resolve_and_split_as_the_general_path(monkeypatch):
    """The differential check of the canonical fast paths, seeded: about
    half of these URLs are canonical, and most of the rest miss the form
    by one part. A call that reaches neither ``urlnorm._normalize`` nor
    ``urlsplit`` took a fast path. ``general`` shares ``urlnorm._join``
    with ``resolve_url``, so ``urljoin`` is the independent reference
    wherever it follows RFC 3986: no empty segment, no bare ``?``, and no
    ``;``, since it drops an empty params."""
    general_calls = []

    def counted(function):
        return lambda url: general_calls.append(url) or function(url)

    monkeypatch.setattr(urlnorm, "_normalize", counted(urlnorm._normalize))
    monkeypatch.setattr(urlnorm, "urlsplit", counted(urlsplit))
    rng = random.Random(30)
    taken = Counter()
    for _ in range(4000):
        base, href = random_url(rng), random_href(rng)
        before = len(general_calls)
        url = fast(base, href)
        taken["resolve_url"] += len(general_calls) == before
        assert url == general(base, href), (base, href)
        if not urljoin_departs(base, href) and ";" not in base + href:
            assert url == plain(base, href), (base, href)
        before = len(general_calls)
        host = fast_host(base)
        taken["host_of"] += len(general_calls) == before
        assert host == plain_host(base), base
    assert all(1000 < n < 3000 for n in taken.values()), taken


def test_normalize_url_returns_a_canonical_url_as_written():
    """On seeded URLs, about half of them canonical, ``normalize_url``
    gives what the general path gives, and a URL that ``_CANONICAL``
    matches as the same object, not an equal copy."""
    rng = random.Random(31)
    canonical = 0
    for _ in range(4000):
        url = random_url(rng)
        try:
            expected = urlnorm._normalize(url)
        except ValueError:
            with pytest.raises(ValueError):
                normalize_url(url)
            continue
        assert normalize_url(url) == expected, url
        if urlnorm._CANONICAL.fullmatch(url):
            canonical += 1
            assert normalize_url(url) is url, url
    assert 1000 < canonical < 3000, canonical


def test_a_mixed_world_run_takes_only_the_fast_paths(mixed_world, tmp_path, monkeypatch):
    """Every URL, href, host and post date of the seed-7 mixed-200 batch
    run is in canonical form, so neither ``urlnorm._join``, ``urlsplit``
    nor ``email.utils`` runs: a pattern that stops matching fails here
    instead of costing time unseen."""
    calls = Counter()

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(urlnorm, "_join", counted("_join", urlnorm._join))
    monkeypatch.setattr(urlnorm, "urlsplit", counted("urlsplit", urlsplit))
    monkeypatch.setattr(email.utils, "parsedate_to_datetime",
                        counted("parsedate_to_datetime", email.utils.parsedate_to_datetime))
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.max_pages = 100
    report = run_batch(cfg, world=mixed_world, transport=in_memory_transport(mixed_world)).report
    assert report.pages_fetched == 100 and report.summaries_ok > 0
    assert calls == {}
    # the counters see the general paths when they run
    resolve_url("http://a.example/x/", "y")
    feeds._parse_pubdate("8 Jun 2049 07:32:03 +0000")
    assert calls["_join"] == 1 and calls["parsedate_to_datetime"] == 1
    before = calls["urlsplit"]
    normalize_url("HTTP://a.example/")
    host_of("http://A.example/")
    assert calls["urlsplit"] == before + 2
