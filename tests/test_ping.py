import random

import pytest

from blogwatch.errors import MalformedFeed
from blogwatch.ping import (BlogRegistry, DedupeWindow, PingEvent, SeedUrl,
                            load_registry, match_registry, parse_changes_feed,
                            serialize_changes_feed)

TWO_ENTRY_DOC = """<weblogUpdates version="2" count="2">
  <weblog name="site a" url="http://a.example/" when="5" />
  <weblog name="site b" url="http://b.example/" when="60" />
</weblogUpdates>"""


def test_parse_two_entries_in_order():
    events = parse_changes_feed(TWO_ENTRY_DOC)
    assert events == [
        PingEvent("site a", "http://a.example/", 5),
        PingEvent("site b", "http://b.example/", 60),
    ]


def test_parse_empty_document():
    assert parse_changes_feed('<weblogUpdates count="0"></weblogUpdates>') == []


def test_parse_rejects_broken_xml_and_wrong_root():
    with pytest.raises(MalformedFeed):
        parse_changes_feed("<weblogUpdates")
    with pytest.raises(MalformedFeed):
        parse_changes_feed("<rss></rss>")


def test_parse_skips_entries_with_missing_attributes(caplog):
    doc = """<weblogUpdates count="2">
      <weblog name="ok" url="http://ok.example/" when="1" />
      <weblog name="broken" when="2" />
    </weblogUpdates>"""
    with caplog.at_level("ERROR", logger="blogwatch.ping"):
        events = parse_changes_feed(doc)
    assert len(events) == 1
    assert len(caplog.records) == 1


def test_changes_100_fixture(fixtures_dir, caplog):
    text = (fixtures_dir / "changes_100.xml").read_text(encoding="utf-8")
    with caplog.at_level("ERROR", logger="blogwatch.ping"):
        events = parse_changes_feed(text)
    # 100 entries, 3 with malformed URLs (hand-built fixture)
    assert len(events) == 97
    assert len(caplog.records) == 3


def test_parse_serialize_identity():
    events = parse_changes_feed(TWO_ENTRY_DOC)
    assert parse_changes_feed(serialize_changes_feed(events)) == events


def test_serialize_count_matches_length():
    events = parse_changes_feed(TWO_ENTRY_DOC)
    assert 'count="2"' in serialize_changes_feed(events)


# ----------------------------------------------------------------------
# registry matching

def test_wildcard_matches_subdomain_only():
    registry = BlogRegistry(frozenset({"*.blogs.example"}))
    events = [
        PingEvent("a", "http://a.blogs.example/", 0),
        PingEvent("n", "http://news.example/", 0),
        PingEvent("bare", "http://blogs.example/", 0),
    ]
    seeds = match_registry(events, registry)
    assert [s.url for s in seeds] == ["http://a.blogs.example/"]


def test_empty_registry_matches_nothing():
    events = parse_changes_feed(TWO_ENTRY_DOC)
    assert match_registry(events, BlogRegistry(frozenset())) == []


def test_match_registry_output_is_projection():
    """Every output's host matches some pattern; outputs are a sub-multiset
    of the inputs (brute-force re-check)."""
    registry = BlogRegistry(frozenset({"a.example", "*.b.example"}))
    rng = random.Random(5)
    hosts = ["a.example", "x.b.example", "b.example", "c.example", "y.x.b.example"]
    events = [PingEvent(f"s{i}", f"http://{rng.choice(hosts)}/", i) for i in range(200)]
    seeds = match_registry(events, registry)

    def brute(host):
        if host == "a.example":
            return True
        return host.endswith(".b.example") and host != "b.example"

    expected = [e.url for e in events if brute(e.url.split("//")[1].rstrip("/"))]
    assert [s.url for s in seeds] == expected


def test_fixture_against_ten_pattern_registry(fixtures_dir):
    """Brute-force set-membership oracle over the hand-built fixture."""
    events = parse_changes_feed((fixtures_dir / "changes_100.xml").read_text(encoding="utf-8"))
    registry = load_registry(fixtures_dir / "registry_10.txt")
    seeds = match_registry(events, registry)
    assert len(seeds) == 23

    def brute(host):
        for p in registry.entries:
            if p.startswith("*."):
                if host.endswith(p[1:]) and host != p[2:]:
                    return True
            elif host == p:
                return True
        return False

    oracle = [e.url for e in events if brute(e.url.split("//")[1].split("/")[0])]
    assert [s.url for s in seeds] == oracle


def test_registry_file_parsing(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text("# comment\n\nAlpha.Example\n*.beta.example\n", encoding="utf-8")
    registry = load_registry(path)
    assert registry.entries == frozenset({"alpha.example", "*.beta.example"})
    assert registry.matches("ALPHA.example".lower())


# ----------------------------------------------------------------------
# dedupe window

def _seed(url, at):
    return SeedUrl(url=url, discovered_at=at)


def test_dedupe_suppresses_within_window():
    seeds = [_seed("http://u1.example/", 0.0), _seed("http://u1.example/", 1.0),
             _seed("http://u2.example/", 2.0)]
    out = DedupeWindow(10.0).filter(seeds)
    assert [s.url for s in out] == ["http://u1.example/", "http://u2.example/"]


def test_dedupe_passes_after_expiry():
    seeds = [_seed("http://u1.example/", 0.0), _seed("http://u1.example/", 11.0)]
    assert len(DedupeWindow(10.0).filter(seeds)) == 2


def test_dedupe_window_measured_from_last_emission():
    w = DedupeWindow(10.0)
    assert w.admit(_seed("http://u.example/", 0.0))
    assert not w.admit(_seed("http://u.example/", 9.0))
    # still within window of the *emitted* occurrence at t=0
    assert w.admit(_seed("http://u.example/", 10.5))


def test_dedupe_idempotent_within_window():
    rng = random.Random(7)
    seeds = [_seed(f"http://u{rng.randint(0, 49)}.example/", float(i))
             for i in range(1000)]
    once = DedupeWindow(10_000.0).filter(seeds)
    twice = DedupeWindow(10_000.0).filter(once)
    assert once == twice


def test_dedupe_full_stream_distinct_count_oracle():
    """Window spanning the whole stream -> exactly one output per URL."""
    rng = random.Random(11)
    seeds = [_seed(f"http://u{rng.randint(0, 49)}.example/", float(i))
             for i in range(1000)]
    out = DedupeWindow(10_000.0).filter(seeds)
    assert len(out) == len({s.url for s in seeds}) == 50


def test_dedupe_memory_holds_one_window():
    """10k distinct URLs, ten per one-second batch, plus re-announcements
    of earlier URLs: decisions match an unbounded oracle, and only URLs
    emitted within the last window stay in memory."""
    rng = random.Random(5)
    window = 50.0
    dedupe = DedupeWindow(window)
    oracle = {}   # url -> last emission time, never pruned
    for t in range(1000):
        urls = [f"http://u{t * 10 + i}.example/" for i in range(10)]
        urls += [f"http://u{rng.randrange(t * 10 + 1)}.example/" for _ in range(2)]
        seeds = [_seed(u, float(t)) for u in urls]
        expected = []
        for s in seeds:
            last = oracle.get(s.url)
            if last is None or s.discovered_at - last >= window:
                oracle[s.url] = s.discovered_at
                expected.append(s)
        assert dedupe.filter(seeds) == expected
        live = sum(1 for last in oracle.values() if t - last < window)
        assert len(dedupe._last_emit) == live <= 12 * window
