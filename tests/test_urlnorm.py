"""``resolve_url`` takes a fast path for absolute http(s) hrefs and a
cached ``normalize_url``. Both must give exactly what the plain
``normalize_url(urljoin(base, href))`` gives, uncached."""
import math
from urllib.parse import urljoin, urlsplit

import pytest

from blogwatch import feeds, htmltext
from blogwatch.feeds import decode_feed_bytes, parse_rss
from blogwatch.harness import generate_world, mixed_200_spec
from blogwatch.htmltext import extract_page
from blogwatch.urlnorm import URL_CACHE_SIZE, host_of, normalize_url, resolve_url


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


def test_url_cache_is_bounded():
    """A finite bound keeps an online run's memory flat."""
    maxsize = normalize_url.cache_info().maxsize
    assert maxsize == URL_CACHE_SIZE
    assert maxsize is not None and math.isfinite(maxsize) and maxsize > 0
