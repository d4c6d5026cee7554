import email.utils
import random
import time
from email.utils import format_datetime
from datetime import datetime, timedelta, timezone
from html.parser import HTMLParser

import pytest

from blogwatch.errors import FetchFailed, MalformedFeed
from blogwatch.feeds import MAX_POSTS, _parse_pubdate, decode_feed_bytes, fetch_summary, parse_rss
from blogwatch.htmltext import WINDOW, extract_page, find_feed_url
from blogwatch.ping import SeedUrl
from blogwatch.transport import MAX_BYTES
from blogwatch.urlnorm import resolve_url

BASE = "http://blog.example/"


class DictTransport:
    """Minimal transport over a {url: (content_type, body)} mapping."""

    def __init__(self, sites):
        self.sites = {u: (c, b.encode("utf-8") if isinstance(b, str) else b)
                      for u, (c, b) in sites.items()}

    def fetch(self, url, max_bytes, timeout):
        if url not in self.sites:
            return 404, "text/plain", b""
        ctype, body = self.sites[url]
        return 200, ctype, body[:max_bytes + 1]

    def head(self, url, timeout):
        if url not in self.sites:
            return 404, "text/plain", 0
        ctype, body = self.sites[url]
        return 200, ctype, len(body)


def rss(items, title="Test Blog"):
    body = "".join(
        "<item>"
        f"<title>{t}</title><link>{l}</link>"
        + (f"<pubDate>{p}</pubDate>" if p else "")
        + f"<description>{d}</description></item>"
        for t, l, p, d in items
    )
    return ('<?xml version="1.0" encoding="utf-8"?>\n'
            f"<rss version=\"2.0\"><channel><title>{title}</title>"
            f"<link>{BASE}</link>{body}</channel></rss>")


# ----------------------------------------------------------------------
# feed discovery

def discovered_feed(head):
    """The URL of the summary that ``fetch_summary`` reads for a blog whose
    home page has ``head``; every candidate path serves a feed."""
    feed = rss([("p", BASE + "post/1", None, "short")])
    sites = {BASE + path: ("application/rss+xml", feed)
             for path in ("feed.xml", "feed.rss", "atom.xml", "rss")}
    sites[BASE] = ("text/html", f"<html><head>{head}</head><body>home</body></html>")
    return fetch_summary(SeedUrl(url=BASE, discovered_at=0.0), DictTransport(sites)).url


def test_fetch_summary_reads_the_declared_feed():
    head = '<link rel="alternate" type="application/rss+xml" href="/feed.xml">'
    assert discovered_feed(head) == "http://blog.example/feed.xml"


def test_fetch_summary_falls_back_to_the_rss_path():
    assert discovered_feed("<title>no feed declared</title>") == "http://blog.example/rss"


def test_fetch_summary_prefers_rss_over_atom():
    head = ('<link rel="alternate" type="application/atom+xml" href="/atom.xml">'
            '<link rel="alternate" type="application/rss+xml" href="/feed.rss">')
    assert discovered_feed(head) == "http://blog.example/feed.rss"


class _AllLinkTags(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.links = []

    def handle_starttag(self, tag, attrs):
        if tag == "link":
            self.links.append(dict(attrs))


def reference_feed_url(html, base):
    """What ``extract_page(html, base).rss_feed_url`` returned before
    discovery had its own parser: after a full parse, the first ``<link>``
    with "alternate" in its rel, an RSS or RDF type and an href that
    resolves."""
    parser = _AllLinkTags()
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        pass
    for attrs in parser.links:
        rel = (attrs.get("rel") or "").lower()
        ltype = (attrs.get("type") or "").lower()
        href = attrs.get("href")
        if ("alternate" in rel and href
                and ltype in ("application/rss+xml", "application/rdf+xml")):
            try:
                return resolve_url(base, href)
            except ValueError:
                continue
    return None


RSS_LINK = '<link rel="alternate" type="application/rss+xml" href="{}">'

HANDMADE_HEADS = {
    "two-rss": RSS_LINK.format("/first") + RSS_LINK.format("/second"),
    "atom-before-rss": ('<link rel="alternate" type="application/atom+xml" href="/atom">'
                        + RSS_LINK.format("/rss")),
    "rel-alternate-feed": '<link rel="Alternate feed" type="application/rss+xml" href="/f">',
    "unresolvable-then-good": (RSS_LINK.format("ftp://blog.example/feed")
                               + RSS_LINK.format("http://blog.example:99999/feed")
                               + RSS_LINK.format("/good")),
    "link-inside-script": ("<script>document.write('" + RSS_LINK.format("/fake")
                           + "')</script>" + RSS_LINK.format("/real")),
    "link-inside-comment": "<!-- " + RSS_LINK.format("/hidden") + " -->",
    "truncated-in-href": '<head><link rel="alternate" type="application/rss+xml" href="/fe',
    "truncated-after-good": RSS_LINK.format("/one") + '<link rel="alternate" type="appl',
    "unclosed-script": "<script>" + RSS_LINK.format("/never"),
    "unquoted-uppercase": "<LINK REL=ALTERNATE TYPE=APPLICATION/RDF+XML HREF=/up>",
    "self-closing": '<link rel="alternate" type="application/rss+xml" href="/sc"/>',
    "duplicate-href": '<link rel="alternate" href="/a" href="/b" type="application/rss+xml">',
    "entity-in-href": RSS_LINK.format("/feed?a=1&amp;b=2"),
    "empty-href-then-good": RSS_LINK.format("") + RSS_LINK.format("/g"),
    "no-type": '<link rel="alternate" href="/x">',
    "stray-brackets": "<<" + RSS_LINK.format("/br") + ">>",
    "bad-declaration": "<!DOCTYPE html <html><head>" + RSS_LINK.format("/d"),
    "empty": "",
}


def assert_discovery_parity(html, base):
    expected = reference_feed_url(html, base)
    assert find_feed_url(html, base) == expected
    assert extract_page(html, base).has_feed_link == (expected is not None)


def test_feed_discovery_matches_reference_on_world_home_pages(mixed_world):
    found = 0
    for url in mixed_world.site_labels:
        ctype, body = mixed_world.sites[url]
        if ctype.startswith("text/html"):
            html = body.decode("utf-8")
            assert_discovery_parity(html, url)
            found += find_feed_url(html, url) is not None
    assert found > 100


@pytest.mark.parametrize("head", list(HANDMADE_HEADS.values()), ids=list(HANDMADE_HEADS))
def test_feed_discovery_matches_reference_on_handmade_heads(head):
    assert_discovery_parity(head, BASE)


# ----------------------------------------------------------------------
# parse_rss

def test_parse_minimal_feed():
    doc = parse_rss(rss([("Post one", BASE + "post/1", None, "hello world")]), BASE)
    assert doc.url == BASE
    assert doc.text == "Post one\nhello world"
    assert doc.links == ()


def test_link_context_window():
    before = [f"b{i}" for i in range(WINDOW + 3)]
    after = [f"a{i}" for i in range(WINDOW + 3)]
    description = f'{" ".join(before)} &lt;a href="/x"&gt;this report&lt;/a&gt; {" ".join(after)}'
    doc = parse_rss(rss([("p", BASE + "post/1", None, description)]), BASE)
    (link,) = doc.links
    assert link.target == "http://blog.example/x"
    assert link.anchor_text == "this report"
    assert link.context_window.split() == before[-WINDOW:] + after[:WINDOW]


def test_rss_messy_fixture(fixtures_dir):
    text = (fixtures_dir / "rss_messy.xml").read_text(encoding="utf-8")
    doc = parse_rss(text, "http://messy.example/")
    lines = doc.text.split("\n")
    # 10 items, 2 without a usable link; each kept one has a title and a description
    assert len(lines) == 2 * 8
    titles = lines[::2]
    assert "No link at all" not in titles and "Empty link text" not in titles
    # anchors inside descriptions, resolved against their item links, in post order
    assert [l.target for l in doc.links] == [
        "http://messy.example/deep/page", "http://other.example/x",
        "http://a.example/one", "http://messy.example/post/two",
        "http://b.example/menu"]
    # raw markup in a description keeps its text after the first child element
    assert lines[lines.index("Unicode café post") + 1] == \
        "Accented café text with an anchor café inside."
    # markup-stripping totality
    assert "<" not in doc.text
    # newest first; the undated item sorts oldest
    assert titles[0] == "Plain post"
    assert titles[-1] == "Undated post"


@pytest.mark.parametrize("pub_date, published", [
    ("Tue, 10 Jun 2003 04:00:00 GMT", 1055217600.0),
    (None, None),
    ("", None),
    ("not a date", None),
    ("Mon, 01 Jan 99999 00:00:00 +0000", None),
    ("Mon, 07 Mar 2011 12:00:00 -0000", 1299499200.0),
    ("Mon, 07 Mar 2011 12:00:00", 1299499200.0),
], ids=["rfc822", "missing", "empty", "garbage", "year-99999", "minus-zero", "zoneless"])
def test_pubdate_parses_or_sorts_last(pub_date, published):
    """A valid RFC 822 date gives its epoch seconds, a zone-less or
    ``-0000`` one read as UTC; a missing or unreadable one gives None, and
    that post sorts after a dated one."""
    assert _parse_pubdate(pub_date) == published
    element = "" if pub_date is None else f"<pubDate>{pub_date}</pubDate>"
    probe = f"<item><title>probe</title><link>{BASE}post/probe</link>{element}</item>"
    dated = (f"<item><title>dated</title><link>{BASE}post/dated</link>"
             "<pubDate>Mon, 01 Jan 2001 00:00:00 GMT</pubDate></item>")
    doc = parse_rss(f'<rss version="2.0"><channel>{probe}{dated}</channel></rss>', BASE)
    assert doc.text == ("probe\ndated" if published else "dated\nprobe")


def general_pubdate(raw):
    """The reference: ``email.utils`` alone, as ``_parse_pubdate`` reads a
    date its RSS pattern does not match."""
    try:
        published = email.utils.parsedate_to_datetime(raw.strip())
        if published.tzinfo is None:
            published = published.replace(tzinfo=timezone.utc)
        return published.timestamp()
    except (TypeError, ValueError, OverflowError, OSError):
        return None


@pytest.mark.parametrize("raw", [
    # email.utils reads a zero-padded year below 100 as 19xx or 20xx
    "Wed, 08 Jun 0049 07:32:03 -1686", "Wed, 08 Jun 0999 07:32:03 +0000",
    "Mon, 01 Jan 1000 00:00:00 +2359", "Fri, 31 Dec 9999 23:59:59 -2359",
    # zone minutes past 59, a zone of a day or more, -0000
    "Wed, 08 Jun 2049 07:32:03 +0099", "Wed, 08 Jun 2049 07:32:03 +2400",
    "Wed, 08 Jun 2049 07:32:03 -9999", "Wed, 8 Jun 2049 07:32:03 -0000",
    # fields out of range
    "Wed, 31 Feb 2049 07:32:03 +0000", "Wed, 00 Jun 2049 07:32:03 +0000",
    "Wed, 08 Jun 2049 24:00:00 +0000", "Wed, 08 Jun 2049 07:60:03 +0000",
    "Wed, 08 Jun 2049 07:32:61 +0000",
    # non-ASCII digits and white space
    "Wed, \u0660\u0668 Jun 2049 07:32:03 +0000", "Wed, 08 Jun \uff12\uff10\uff14\uff19 07:32:03 +0000",
    "Wed, 08 Jun 2049 07:32:03 +\u0661\u0660\u0660\u0660",
    "Wed,\u00a008 Jun 2049 07:32:03 +0000", "Wed, 08 Jun 2049\u200307:32:03 +0000",
    "\u3000Wed, 08 Jun 2049 07:32:03 +0000\u2028",
    # other spellings email.utils reads
    "wed, 08 jun 2049 07:32:03 +0000", "Xyz, 08 Jun 2049 07:32:03 +0000",
    "Wed, 08 June 2049 07:32:03 +0000", "Wed 08 Jun 2049 07:32:03 +0000",
    "Wed, 08 Jun 2049 07:32 +0000", "Wed, 08 Jun 2049 07:32:03 GMT",
    "Wed,  08 Jun 2049 07:32:03 +0000", "Wed, 08 Jun 2049 07:32:03 +0000 (UTC)",
    "Wed, 08 Jun 49 07:32:03 +0000", "Wed, 08 Jun 02049 07:32:03 +0000",
])
def test_rss_date_fast_path_reads_dates_as_email_utils(raw):
    assert _parse_pubdate(raw) == general_pubdate(raw)


_DATE_FIELDS = [
    ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"],
    [", "], [f"{d:02d}" for d in range(32)] + [str(d) for d in range(1, 10)],
    [" "], ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"],
    [" "], ["1000", "1969", "1970", "2011", "2038", "2049", "9999"], [" "],
    [f"{h:02d}" for h in range(25)], [":"], ["00", "07", "32", "59", "60"], [":"],
    ["00", "03", "59", "60"], [" "], ["+", "-"], ["00", "05", "14", "23", "24", "99"],
    ["00", "30", "45", "59", "60", "99"],
]
_ODD_FIELDS = ["", " ", "  ", ",", "0", "00", "0049", "49", "jun", "June", "GMT", "\u00a0",
               "\u0663", "\uff10", "\u2003", "x", "+", "-", ":", "1"]


def test_seeded_dates_read_as_email_utils(monkeypatch):
    """The differential check of the RSS date fast path, seeded: each
    field of a well-formed date replaced by an odd one now and then. A call
    that does not reach ``email.utils`` took the fast path."""
    general_calls = []
    parse = email.utils.parsedate_to_datetime
    monkeypatch.setattr(email.utils, "parsedate_to_datetime",
                        lambda raw: general_calls.append(raw) or parse(raw))
    rng = random.Random(30)
    taken = 0
    for _ in range(10000):
        raw = "".join(rng.choice(_ODD_FIELDS) if rng.random() < 0.04 else rng.choice(field)
                      for field in _DATE_FIELDS)
        before = len(general_calls)
        published = _parse_pubdate(raw)
        taken += len(general_calls) == before
        assert published == general_pubdate(raw), raw
    assert 2500 < taken < 7500, taken


@pytest.mark.skipif(not hasattr(time, "tzset"), reason="time.tzset is not available")
def test_post_order_does_not_depend_on_the_local_time_zone(monkeypatch):
    """Zone-less and ``-0000`` dates are UTC whatever ``TZ`` says, so the
    newest-first order of a feed mixing them with ``+0000`` dates is the
    same on every machine."""
    feed = rss([("utc ten", f"{BASE}post/1", "Mon, 07 Mar 2011 10:00:00 +0000", "a"),
                ("minus zero noon", f"{BASE}post/2", "Mon, 07 Mar 2011 12:00:00 -0000", "b"),
                ("zoneless eleven", f"{BASE}post/3", "Mon, 07 Mar 2011 11:00:00", "c")])
    try:
        # POSIX zone strings, so no time zone database is needed
        for zone in ("UTC0", "JST-9"):
            monkeypatch.setenv("TZ", zone)
            time.tzset()
            titles = parse_rss(feed, BASE).text.split("\n")[::2]
            assert titles == ["minus zero noon", "zoneless eleven", "utc ten"], zone
    finally:
        monkeypatch.undo()
        time.tzset()


def test_description_nested_past_the_recursion_limit_is_malformed():
    """A description's children are written back by a serializer that
    recurses once per level: 5,000 levels of raw markup make the feed
    malformed, not a ``RecursionError``."""
    deep = "<b>" * 5000 + "deep" + "</b>" * 5000
    with pytest.raises(MalformedFeed, match="nested too deeply"):
        parse_rss(rss([("T", f"{BASE}p", None, deep)]), BASE)


def test_relative_item_link_resolves():
    """Description anchors resolve against the item link, itself
    resolved against the feed URL."""
    doc = parse_rss(rss([("p", "/post/5", None, '&lt;a href="six"&gt;next&lt;/a&gt;')]), BASE)
    assert [l.target for l in doc.links] == ["http://blog.example/post/six"]


def test_not_a_feed_on_structural_failure():
    with pytest.raises(MalformedFeed):
        parse_rss("<html><body>nope</body></html>", BASE)
    with pytest.raises(MalformedFeed):
        parse_rss("definitely not xml <", BASE)


def test_rss_without_a_channel_is_not_a_feed():
    with pytest.raises(MalformedFeed, match="channel"):
        parse_rss('<rss version="2.0"><item><link>/p</link></item></rss>', BASE)


def test_item_whose_link_does_not_resolve_is_dropped():
    doc = parse_rss(rss([("bad", "javascript:void(0)", None, "a"),
                         ("port", "http://a.example:99999/", None, "b"),
                         ("good", "/post/1", None, "c")]), BASE)
    assert doc.text == "good\nc"


def test_post_cap_keeps_newest(monkeypatch):
    base_date = datetime(2011, 3, 7, tzinfo=timezone.utc)
    rng = random.Random(3)
    offsets = list(range(80))
    rng.shuffle(offsets)
    items = [(f"post {i}", f"{BASE}post/{i}",
              format_datetime(base_date - timedelta(hours=offsets[i])), "body")
             for i in range(80)]
    doc = parse_rss(rss(items), BASE)
    # oracle: sort the fixture by pubDate descending and truncate
    oracle = sorted(range(80), key=lambda i: offsets[i])[:MAX_POSTS]
    assert MAX_POSTS < 80
    assert doc.text.split("\n")[::2] == [f"post {i}" for i in oracle]


# ----------------------------------------------------------------------
# encoding

def test_decode_latin1_feed():
    body = '<?xml version="1.0" encoding="iso-8859-1"?><rss/>'.encode("latin-1")
    assert decode_feed_bytes(body).endswith("<rss/>")


def test_decode_rejects_unknown_encoding():
    with pytest.raises(MalformedFeed):
        decode_feed_bytes(b'<?xml version="1.0" encoding="utf-16"?><rss/>')


# ----------------------------------------------------------------------
# fetch_summary

def harness_blog(n_posts):
    feed = rss([(f"post {k}", f"{BASE}post/{k}",
                 format_datetime(datetime(2011, 3, 7, tzinfo=timezone.utc)
                                 - timedelta(hours=k)),
                 f"body &lt;b&gt;bold&lt;/b&gt; {k}") for k in range(n_posts)])
    home = ('<html><head><link rel="alternate" type="application/rss+xml" '
            'href="/rss"></head><body>home</body></html>')
    return DictTransport({
        BASE: ("text/html", home),
        BASE + "rss": ("application/rss+xml", feed),
    })


def seed():
    return SeedUrl(url=BASE, discovered_at=0.0)


def test_fetch_summary_via_autodiscovery():
    doc = fetch_summary(seed(), harness_blog(3))
    assert doc.text == "post 0\nbody bold 0\npost 1\nbody bold 1\npost 2\nbody bold 2"
    assert doc.url == "http://blog.example/rss"


def test_fetch_summary_empty_blog():
    doc = fetch_summary(seed(), harness_blog(0))
    assert (doc.text, doc.links) == ("", ())


def test_fetch_summary_direct_feed_url():
    transport = harness_blog(2)
    doc = fetch_summary(SeedUrl(url=BASE + "rss", discovered_at=0.0), transport)
    assert doc.text.split("\n")[::2] == ["post 0", "post 1"]


def test_fetch_summary_http_error():
    with pytest.raises(FetchFailed):
        fetch_summary(SeedUrl(url="http://missing.example/", discovered_at=0.0),
                      DictTransport({}))


def test_fetch_summary_names_a_discovered_feed_that_answers_404():
    home = '<html><head><link rel="alternate" type="application/rss+xml" href="/feed.xml">'
    with pytest.raises(FetchFailed) as raised:
        fetch_summary(seed(), DictTransport({BASE: ("text/html", home)}))
    assert raised.value.url == BASE + "feed.xml"
    assert raised.value.status == 404


def test_fetch_summary_oversize_unparseable():
    big = rss([("p", BASE + "post/1", None, "x" * MAX_BYTES)])
    transport = DictTransport({BASE + "rss": ("application/rss+xml", big)})
    with pytest.raises(FetchFailed) as raised:
        fetch_summary(SeedUrl(url=BASE + "rss", discovered_at=0.0), transport)
    assert (raised.value.url, raised.value.status) == (BASE + "rss", 200)


def test_fetch_summary_respects_post_cap():
    doc = fetch_summary(seed(), harness_blog(80))
    # newest-first: post 0 has the latest pubDate
    assert MAX_POSTS < 80
    assert doc.text.split("\n")[::2] == [f"post {k}" for k in range(MAX_POSTS)]


def test_oversize_with_salvageable_truncation():
    """Bytes past the cap that are only trailing padding: the truncated
    parse succeeds instead of raising."""
    body = rss([("p", BASE + "post/1", None, "short")])
    padded = body + " " * MAX_BYTES
    transport = DictTransport({BASE + "rss": ("application/rss+xml", padded)})
    doc = fetch_summary(SeedUrl(url=BASE + "rss", discovered_at=0.0), transport)
    assert doc.text == "p\nshort"
