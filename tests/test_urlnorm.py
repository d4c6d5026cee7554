"""``resolve_url`` takes a fast path for absolute http(s) hrefs and a
cached ``normalize_url``. Both must give exactly what the plain
``normalize_url(urljoin(base, href))`` gives, uncached."""
import math
import random
from urllib.parse import urljoin, urlsplit

import pytest

from blogwatch import feeds, htmltext
from blogwatch.errors import NotAFeed
from blogwatch.feeds import decode_feed_bytes, parse_rss
from blogwatch.harness import WorldSpec, generate_world, mixed_200_spec
from blogwatch.htmltext import extract_page
from blogwatch.urlnorm import URL_CACHE_SIZE, host_of, normalize_url, resolve_url

from test_hostile_inputs import mutate


def plain(base, href):
    """The reference: join, then normalize with the cache bypassed. The
    result, or the type of the error raised."""
    try:
        return normalize_url.__wrapped__(urljoin(base, href))
    except ValueError:
        return ValueError


def fast(base, href):
    try:
        return resolve_url(base, href)
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
        assert normalize_url(base) == normalize_url.__wrapped__(base)


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
        assert fast(base, href) == plain(base, href), (base, href)


@pytest.mark.parametrize("base", BASES)
def test_resolved_urls_are_normal_and_keep_their_host(base):
    """A resolved URL normalizes to itself, and its host is the one
    ``urlsplit`` reads back: an IPv6 host keeps its brackets."""
    for href in HREFS:
        url = fast(base, href)
        if url is ValueError:
            continue
        assert normalize_url.__wrapped__(url) == url, (base, href)
        assert host_of(url) == urlsplit(url).hostname, (base, href)


def test_ipv6_hosts_keep_their_brackets():
    assert normalize_url.__wrapped__("http://[2001:DB8::1]:8080/p") == "http://[2001:db8::1]:8080/p"
    assert resolve_url("http://[::1]/a/", "b") == "http://[::1]/a/b"
    assert host_of("http://[2001:db8::1]:8080/p") == "2001:db8::1"


BAD_HOST_URLS = ["http://bl og002.example/post/1", "http://exa<mple.com/"]


@pytest.mark.parametrize("url", BAD_HOST_URLS)
def test_a_host_with_a_space_or_a_forbidden_character_is_no_url(url):
    """Such a URL would become a frontier node and a politeness host whose
    every fetch fails: normalizing raises, and a link to it is dropped."""
    with pytest.raises(ValueError, match="host"):
        normalize_url.__wrapped__(url)
    with pytest.raises(ValueError):
        resolve_url("http://blog.example/post/1", url)


def test_every_forbidden_host_character_raises_and_letters_and_percent_stay():
    """``urlsplit`` removes tab, LF and CR anywhere in a URL, as the WHATWG
    URL standard does, so those leave a valid host."""
    stripped = "\t\n\r"
    for char in [chr(c) for c in range(0x20)] + ["\x7f", " ", *'<>"{}|\\^`']:
        if char in stripped:
            assert normalize_url.__wrapped__(f"http://a{char}b.example/x") == "http://ab.example/x"
            continue
        with pytest.raises(ValueError):
            normalize_url.__wrapped__(f"http://a{char}b.example/x")
    assert normalize_url.__wrapped__("http://B\u00fccher.example/x") == "http://b\u00fccher.example/x"
    assert normalize_url.__wrapped__("http://a%41b.example/x") == "http://a%41b.example/x"


def test_unresolvable_hrefs_raise_on_both_paths():
    base = "http://blog.example/post/1"
    for href in ["javascript:void(0)", "mailto:a@b.example", "ftp://a.example/",
                 "http://a.example:99999/", "http://[::1/", "http://user@/p",
                 "http://:80/"]:
        with pytest.raises(ValueError):
            resolve_url(base, href)
        with pytest.raises(ValueError):
            normalize_url.__wrapped__(urljoin(base, href))


@pytest.mark.parametrize("url", ["http:///p", "/relative/path", "mailto:a@b.example"])
def test_host_of_a_url_without_a_host_raises(url):
    with pytest.raises(ValueError, match="no host"):
        host_of(url)


def test_url_cache_is_bounded():
    """A finite bound keeps an online run's memory flat."""
    maxsize = normalize_url.cache_info().maxsize
    assert maxsize == URL_CACHE_SIZE
    assert maxsize is not None and math.isfinite(maxsize) and maxsize > 0


# ----------------------------------------------------------------------
# one URL per resource: the path rules of ``normalize_url``

def is_fixed_point(url) -> bool:
    return url is ValueError or normalize_url.__wrapped__(url) == url


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
    assert normalize_url.__wrapped__(url) == expected
    assert normalize_url.__wrapped__(expected) == expected


def test_spellings_of_one_resource_are_one_url():
    for spellings in (["q>r", "q%3er", "q%3Er"], ["%7Ex", "~x", "%7ex"],
                      ["a b", "a%20b"], ["x/../y", "./y", "%2E/y", "x/%2E%2E/y"]):
        urls = {normalize_url.__wrapped__("http://a.example/" + s) for s in spellings}
        assert len(urls) == 1, spellings


def test_relative_and_absolute_spellings_resolve_to_one_url():
    base = "http://a.example/x/z"
    assert resolve_url(base, "../y") == resolve_url(base, "http://a.example/x/../y") \
        == resolve_url(base, "/./y") == "http://a.example/y"
    assert resolve_url(base, "./%7Ew") == resolve_url(base, "http://a.example/x/~w")


def test_random_paths_normalize_to_fixed_points():
    """Seeded paths over the characters the three rules act on."""
    rng = random.Random(10)
    alphabet = ["/", ".", "..", "%", "%2e", "%2E", "%7e", "%3c", "%25", "%2f", "a", "7",
                "e", "~", " ", ">", '"', "`", "{", "é", "€", "\x00", "|"]
    for _ in range(3000):
        url = "http://a.example/" + "".join(rng.choice(alphabet)
                                             for _ in range(rng.randint(0, 12)))
        assert is_fixed_point(normalize_url.__wrapped__(url)), url


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
                    except NotAFeed:
                        pass
    assert len(hrefs) > 100
    for base, href in hrefs:
        assert is_fixed_point(fast(base, href)), (base, href)
        assert is_fixed_point(plain(base, href)), (base, href)
