import builtins
import errno
import io

import pytest

from blogwatch.clock import SimClock
from blogwatch.crawler import (CrawlResult, FocusedCrawler, PageStore, analyze_page,
                               fetch_page)
from blogwatch.errors import FetchFailed, MediaSkipped
from blogwatch.graph import (Correction, CorrectionKind, FrontierGraph,
                             NodeStatus, PROVENANCE_FULLTEXT)
from blogwatch.htmltext import Document, LinkContext
from blogwatch.relevance import build_topic_profile, vsm_score
from blogwatch.transport import MAX_BYTES, ThrottledTransport

from conftest import graph_state

STOPS = frozenset({"the", "a", "and", "of"})


class FakeTransport:
    """``fail_first`` fetches fail: with HTTP ``fail_status``, or, when that
    is None, with a transport error."""

    def __init__(self, sites, fail_first=0, fail_status=None):
        self.sites = {u: (c, b.encode() if isinstance(b, str) else b)
                      for u, (c, b) in sites.items()}
        self.fail_remaining = fail_first
        self.fail_status = fail_status
        self.fetch_count = 0
        self.head_count = 0

    def head(self, url, timeout):
        self.head_count += 1
        if url not in self.sites:
            return 404, "text/plain", 0
        ctype, body = self.sites[url]
        return 200, ctype, len(body)

    def fetch(self, url, max_bytes, timeout):
        self.fetch_count += 1
        if self.fail_remaining > 0:
            self.fail_remaining -= 1
            if self.fail_status is not None:
                return self.fail_status, "text/plain", b""
            raise FetchFailed(url, "transient")
        if url not in self.sites:
            return 404, "text/plain", b""
        ctype, body = self.sites[url]
        return 200, ctype, body[:max_bytes + 1]


def paced(inner, clock=None):
    """``inner`` paced as a run paces it: one request per host a second,
    no bandwidth limit."""
    return ThrottledTransport(inner, None, clock or SimClock(), host_delay=1.0)


# ----------------------------------------------------------------------
# fetch_page

def test_media_rejected_at_header_no_body_bytes():
    transport = FakeTransport({"http://img.example/x.png": ("image/png", b"\x89PNG")})
    with pytest.raises(MediaSkipped):
        fetch_page("http://img.example/x.png", transport)
    assert transport.fetch_count == 0  # header gate only


def test_fetch_two_link_page():
    html = ('<html><body><p>alpha beta <a href="/one">first link</a> gamma '
            '<a href="http://other.example/two">second link</a> delta</p></body></html>')
    transport = FakeTransport({"http://page.example/": ("text/html", html)})
    page = fetch_page("http://page.example/", transport)
    assert page.url == "http://page.example/"
    assert [l.target for l in page.links] == \
        ["http://page.example/one", "http://other.example/two"]
    assert "<" not in page.text


def test_golden_text_extraction(fixtures_dir):
    html = (fixtures_dir / "page_golden.html").read_text(encoding="utf-8")
    golden = (fixtures_dir / "page_golden.txt").read_text(encoding="utf-8").rstrip("\n")
    transport = FakeTransport({"http://golden.example/": ("text/html", html)})
    page = fetch_page("http://golden.example/", transport)
    assert page.text == golden
    assert page.has_feed_link
    assert "should never appear" not in page.text


def test_oversize_declared_aborts_before_download():
    transport = FakeTransport({"http://big.example/": ("text/html", "x" * (MAX_BYTES + 1))})
    with pytest.raises(FetchFailed) as raised:
        fetch_page("http://big.example/", transport)
    assert raised.value.status == 200
    assert transport.fetch_count == 0


class UnderstatedSize(FakeTransport):
    """Its HEAD declares every body 100 bytes long."""

    def head(self, url, timeout):
        status, ctype, _size = super().head(url, timeout)
        return status, ctype, 100


def test_body_past_the_cap_after_a_small_declared_size_fails_the_node():
    url = "http://big.example/"
    sites = {url: ("text/html", "x" * (MAX_BYTES + 1))}
    with pytest.raises(FetchFailed) as raised:
        fetch_page(url, UnderstatedSize(sites))
    assert raised.value.status == 200
    graph = FrontierGraph()
    transport = UnderstatedSize(sites)
    crawler = FocusedCrawler(graph, topical_profile(), paced(transport), stops=STOPS)
    seed_frontier(graph, url)
    assert crawler.crawl_step(graph.next_frontier()).page is None
    assert graph_state(graph).nodes[url].status is NodeStatus.FAILED
    assert transport.fetch_count == 1  # an oversize body is not retried


def test_http_error_raises_fetch_failed():
    with pytest.raises(FetchFailed):
        fetch_page("http://gone.example/", FakeTransport({}))


# ----------------------------------------------------------------------
# analyze_page

def page_with(links, text, **kwargs):
    return Document(url="http://p.example/", text=text, links=tuple(links), **kwargs)


def lc(target, anchor):
    return LinkContext(target=target, anchor_text=anchor, context_window="")


def test_excessive_out_degree_is_spam():
    links = [lc(f"http://t{i}.example/", f"anchor {i}") for i in range(300)]
    (corr,) = analyze_page(page_with(links, "word " * 5000))
    assert corr.kind is CorrectionKind.EXCLUDE_SPAM
    assert "out-degree" in corr.reason


def test_duplicate_anchor_link_farm():
    """12 distinct targets share one anchor; 20 words of text. The
    duplicate-anchor rule fires first (hand-annotated fixture)."""
    links = [lc(f"http://t{i}.example/", "click here now") for i in range(12)]
    (corr,) = analyze_page(page_with(links, "word " * 20))
    assert corr.kind is CorrectionKind.EXCLUDE_SPAM
    assert "share anchor" in corr.reason


def test_low_text_to_link_ratio():
    links = [lc(f"http://t{i}.example/", f"different {i}") for i in range(10)]
    (corr,) = analyze_page(page_with(links, "only four words here"))
    assert corr.kind is CorrectionKind.EXCLUDE_SPAM
    assert "words for" in corr.reason


def test_ordinary_blog_page_confirmed():
    links = [lc("http://t.example/", "a story")]
    (corr,) = analyze_page(page_with(links, "plenty of words " * 20, has_feed_link=True))
    assert corr.kind is CorrectionKind.CONFIRM_BLOG


def test_dated_headings_confirm_blog():
    (corr,) = analyze_page(page_with([], "text " * 30, dated_headings=3))
    assert corr.kind is CorrectionKind.CONFIRM_BLOG


def test_glossary_term_rescales():
    corrections = analyze_page(page_with([], "contains banned casino words " * 5),
                               glossary=frozenset({"casino"}))
    assert [c.kind for c in corrections] == [CorrectionKind.RESCALE]
    assert corrections[0].factor == 0.5


def test_glossary_term_glued_to_punctuation_rescales():
    """Glossary terms match the tokens every other layer uses, so a term
    followed by a comma or a full stop still counts."""
    corrections = analyze_page(page_with([], "Win at the casino, tonight. Big Casino."),
                               glossary=frozenset({"casino"}))
    assert [c.kind for c in corrections] == [CorrectionKind.RESCALE]


def test_clean_page_no_corrections():
    assert analyze_page(page_with([], "nothing special " * 10)) == ()


# ----------------------------------------------------------------------
# crawl_step

def topical_profile():
    return build_topic_profile(["flood warning river rising flood warning"],
                               ["market song city code"], threshold=0.3)


def crawler_fixture(sites):
    graph = FrontierGraph()
    transport = FakeTransport(sites)
    crawler = FocusedCrawler(graph, topical_profile(), paced(transport), stops=STOPS)
    return graph, transport, crawler


def seed_frontier(graph, url, weight=5.0):
    from blogwatch.graph import PROVENANCE_SUMMARY
    graph.insert_links("http://seed.example/",
                       [LinkContext(target=url, anchor_text="flood warning",
                                    context_window="")],
                       {"flood warning": weight},
                       PROVENANCE_SUMMARY)


def test_relevant_page_expands_links():
    html = ('<html><body><p>flood warning flood warning river rising. '
            'see <a href="http://a.example/">flood warning</a> and '
            '<a href="http://b.example/">river rising</a> and '
            '<a href="http://c.example/">flood news</a></p></body></html>')
    graph, transport, crawler = crawler_fixture({"http://page.example/": ("text/html", html)})
    seed_frontier(graph, "http://page.example/")
    result = crawler.crawl_step(graph.next_frontier())
    assert result.relevant is True
    assert result.new_edges == 3
    state = graph_state(graph)
    assert state.nodes["http://page.example/"].status is NodeStatus.FETCHED
    fulltext = [key for key, (_w, prov) in state.edges.items() if prov == PROVENANCE_FULLTEXT]
    assert len(fulltext) == 3


def test_irrelevant_page_expands_nothing():
    html = ('<html><body><p>market song city code market song. '
            '<a href="http://a.example/">more market</a></p></body></html>')
    graph, transport, crawler = crawler_fixture({"http://page.example/": ("text/html", html)})
    seed_frontier(graph, "http://page.example/")
    result = crawler.crawl_step(graph.next_frontier())
    assert result.relevant is False
    assert result.new_edges == 0
    assert result.phrases is None
    assert result.score == vsm_score(result.page.text, crawler.profile) < 0.3
    nodes = graph_state(graph).nodes
    assert nodes["http://page.example/"].status is NodeStatus.FETCHED
    assert "http://a.example/" not in nodes


def test_media_node_excluded_zero_bytes():
    graph, transport, crawler = crawler_fixture(
        {"http://clip.example/v.mp4": ("video/mp4", b"\x00" * 100)})
    seed_frontier(graph, "http://clip.example/v.mp4")
    result = crawler.crawl_step(graph.next_frontier())
    assert result.page is None
    assert graph_state(graph).nodes["http://clip.example/v.mp4"].status is NodeStatus.EXCLUDED
    assert transport.fetch_count == 0


def test_fetch_retries_once_then_fails():
    html = "<html><body><p>flood warning flood warning</p></body></html>"
    graph = FrontierGraph()
    transport = FakeTransport({"http://page.example/": ("text/html", html)}, fail_first=1)
    crawler = FocusedCrawler(graph, topical_profile(), paced(transport), stops=STOPS)
    seed_frontier(graph, "http://page.example/")
    result = crawler.crawl_step(graph.next_frontier())
    assert result.page is not None  # first attempt failed, retry succeeded

    transport2 = FakeTransport({"http://page2.example/": ("text/html", html)}, fail_first=2)
    crawler2 = FocusedCrawler(graph, topical_profile(), paced(transport2), stops=STOPS)
    seed_frontier(graph, "http://page2.example/")
    result2 = crawler2.crawl_step(graph.next_frontier())
    assert result2.page is None
    assert graph_state(graph).nodes["http://page2.example/"].status is NodeStatus.FAILED


def test_client_error_is_not_retried():
    """A 404 answer would not change on a second request: one probe only."""
    graph, transport, crawler = crawler_fixture({})
    seed_frontier(graph, "http://gone.example/")
    assert crawler.crawl_step(graph.next_frontier()).page is None
    assert transport.head_count == 1
    assert graph_state(graph).nodes["http://gone.example/"].status is NodeStatus.FAILED


def test_server_error_retried_after_politeness_wait():
    clock = SimClock()
    html = "<html><body><p>flood warning flood warning</p></body></html>"
    graph = FrontierGraph()
    transport = FakeTransport({"http://busy.example/": ("text/html", html)},
                              fail_first=1, fail_status=503)
    crawler = FocusedCrawler(graph, topical_profile(), paced(transport, clock), stops=STOPS)
    seed_frontier(graph, "http://busy.example/")
    t0 = clock.now()
    result = crawler.crawl_step(graph.next_frontier())
    assert result.page is not None
    assert transport.fetch_count == 2
    assert clock.now() == t0 + 1.0
    assert result.fetched_at == t0 + 1.0


def test_spam_page_excluded_and_descendants_pruned():
    farm_links = "".join(f'<li><a href="/s/{i}">flood warning</a></li>' for i in range(12))
    html = f"<html><body><p>flood warning flood warning river</p><ul>{farm_links}</ul></body></html>"
    graph, transport, crawler = crawler_fixture({"http://farm.example/": ("text/html", html)})
    seed_frontier(graph, "http://farm.example/")
    result = crawler.crawl_step(graph.next_frontier())
    assert result.relevant is True  # spam stuffed with topic words passes the gate
    assert any(c.kind is CorrectionKind.EXCLUDE_SPAM for c in result.corrections)
    nodes = graph_state(graph).nodes
    assert nodes["http://farm.example/"].status is NodeStatus.EXCLUDED
    # satellites reachable only through the farm are gone
    assert all("/s/" not in url for url in nodes)


def test_spam_page_links_never_reach_the_graph():
    """The analyzer runs before the expansion: a spam page adds no node and
    weighs no edge, not even for a moment, so at ``max_nodes`` it evicts
    nothing. Its phrases and score are still returned for the run to
    keep."""
    farm_links = "".join(f'<li><a href="/s/{i}">flood warning</a></li>' for i in range(12))
    html = f"<html><body><p>flood warning flood warning river</p><ul>{farm_links}</ul></body></html>"
    graph = FrontierGraph(max_nodes=3)
    seed_frontier(graph, "http://farm.example/")
    graph.insert_links("http://seed.example/",
                       [LinkContext(target="http://other.example/", anchor_text="flood",
                                    context_window="")],
                       {"flood warning": 1.0}, PROVENANCE_FULLTEXT)
    before = list(graph_state(graph).nodes)
    assert len(before) == graph.max_nodes
    profile = topical_profile()
    crawler = FocusedCrawler(graph, profile,
                             paced(FakeTransport({"http://farm.example/": ("text/html", html)})),
                             stops=STOPS)
    inserted = []
    original = graph.insert_links
    graph.insert_links = lambda src, *args: inserted.append(src) or original(src, *args)
    result = crawler.crawl_step(graph.next_frontier())
    assert result.relevant is True
    assert result.corrections[0].kind is CorrectionKind.EXCLUDE_SPAM
    assert result.new_edges == 0
    assert inserted == []
    nodes = graph_state(graph).nodes
    assert list(nodes) == before   # no node added or evicted
    assert nodes["http://farm.example/"].status is NodeStatus.EXCLUDED
    assert nodes["http://other.example/"].status is NodeStatus.UNFETCHED
    assert "flood warning" in result.phrases
    assert result.score == vsm_score(result.page.text, profile) >= profile.threshold


def test_crawl_result_invariant():
    result = CrawlResult(page=None, relevant=False, corrections=(), new_edges=0)
    assert not (result.relevant is False and result.new_edges != 0)


# ----------------------------------------------------------------------
# page store

def test_page_store_content_addressed(tmp_path):
    store = PageStore(tmp_path / "reservoir")
    page = page_with([], "stored text body")
    digest = store.add(CrawlResult(page, True, (), 0, fetched_at=2.5, score=0.75))
    content = (tmp_path / "reservoir" / "content" / f"{digest}.txt")
    assert content.read_text(encoding="utf-8") == "stored text body"
    index = (tmp_path / "reservoir" / "index.tsv").read_text(encoding="utf-8")
    assert index == "http://p.example/\t2.5\t0.75\n"
    # same content stored once, indexed twice
    store.add(CrawlResult(page, True, (), 0, fetched_at=3.0, score=0.80))
    assert len(list((tmp_path / "reservoir" / "content").glob("*.txt"))) == 1
    assert len((tmp_path / "reservoir" / "index.tsv").read_text().splitlines()) == 2


def test_page_store_leaves_no_partial_text_when_a_write_fails(tmp_path, monkeypatch):
    """A text write that fails halfway leaves nothing under the digest's
    name, so the next ``add`` of that text writes it whole."""
    store = PageStore(tmp_path / "reservoir")
    page = page_with([], "stored text body " * 64)
    content = tmp_path / "reservoir" / "content"
    real_open = builtins.open

    class HalfWrite:
        """A text file whose ``write`` writes half its text and fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return HalfWrite(fh) if mode == "w" else fh

    with monkeypatch.context() as mp:
        mp.setattr(builtins, "open", failing)
        mp.setattr(io, "open", failing)
        with pytest.raises(OSError):
            store.add(CrawlResult(page, True, (), 0, fetched_at=1.0, score=0.5))
    assert list(content.iterdir()) == []
    digest = store.add(CrawlResult(page, True, (), 0, fetched_at=2.0, score=0.5))
    assert [p.name for p in content.iterdir()] == [f"{digest}.txt"]
    assert (content / f"{digest}.txt").read_text(encoding="utf-8") == page.text


# ----------------------------------------------------------------------
# replay oracle: independent re-implementation of the step logic

def test_fifty_page_run_matches_replay_oracle(small_world, tmp_path):
    """Run the crawler for 50 pages, then replay the same decision rules
    (argmax pick, media gate, relevance gate, expansion, corrections) with
    independent control flow and compare the resulting graphs."""
    from blogwatch.feeds import fetch_summary
    from blogwatch.harness import in_memory_transport
    from blogwatch.phrases import extract_scored_phrases, load_stoplist
    from blogwatch.ping import (DedupeWindow, load_registry, match_registry,
                                parse_changes_feed)
    from blogwatch.relevance import vsm_score

    stops = load_stoplist()
    registry_path = tmp_path / "registry.txt"
    registry_path.write_text("".join(l + "\n" for l in small_world.registry_lines))
    registry = load_registry(registry_path)
    profile = build_topic_profile(small_world.topic_corpus,
                                  small_world.background_corpus, 0.3)

    def layer2(graph, transport):
        seeds = []
        for t, doc_text in small_world.ping_script:
            seeds.extend(match_registry(parse_changes_feed(doc_text), registry, now=t))
        for seed in DedupeWindow(900.0).filter(seeds):
            try:
                doc = fetch_summary(seed, transport)
            except Exception:
                continue
            phrases = extract_scored_phrases(
                doc.text, stops,
                in_degree=graph.in_degree(doc.url),
                out_degree=len({l.target for l in doc.links}))
            graph.insert_summary(doc, phrases)

    # live arm
    live_graph = FrontierGraph()
    live_transport = in_memory_transport(small_world)
    layer2(live_graph, live_transport)
    crawler = FocusedCrawler(live_graph, profile, paced(live_transport), stops=stops)
    live_order = []
    for _ in range(50):
        url = live_graph.next_frontier()
        if url is None:
            break
        result = crawler.crawl_step(url)
        if result.page is not None:
            live_order.append((result.page.url, result.relevant))

    # replay arm: same documented rules, transparent control flow
    replay_graph = FrontierGraph()
    replay_transport = in_memory_transport(small_world)
    layer2(replay_graph, replay_transport)
    replay_order = []
    steps = 0
    while steps < 50:
        candidates = [(url, n.priority) for url, n in graph_state(replay_graph).nodes.items()
                      if n.status is NodeStatus.UNFETCHED]
        if not candidates:
            break
        steps += 1
        best, best_priority = candidates[0]
        for url, priority in candidates[1:]:
            if priority > best_priority:
                best, best_priority = url, priority
        try:
            page = fetch_page(best, replay_transport)
        except MediaSkipped:
            replay_graph.resolve(best, NodeStatus.EXCLUDED)
            continue
        except FetchFailed:
            replay_graph.resolve(best, NodeStatus.FAILED)
            continue
        relevant = vsm_score(page.text, profile) >= profile.threshold
        corrections = analyze_page(page)
        spam = bool(corrections) and corrections[0].kind is CorrectionKind.EXCLUDE_SPAM
        if relevant and not spam:
            phrases = extract_scored_phrases(
                page.text, stops,
                in_degree=replay_graph.in_degree(page.url),
                out_degree=len({l.target for l in page.links}))
            replay_graph.insert_links(page.url, page.links, phrases,
                                      PROVENANCE_FULLTEXT)
        else:
            replay_graph.resolve(page.url, NodeStatus.FETCHED)
        replay_order.append((page.url, relevant))
        if corrections:
            replay_graph.apply_corrections(corrections)

    assert live_order == replay_order
    assert graph_state(live_graph) == graph_state(replay_graph)


def test_host_politeness_delay():
    """Consecutive fetches to one host wait out the per-host delay;
    distinct hosts do not."""
    clock = SimClock()
    html = "<html><body><p>flood warning flood warning river</p></body></html>"
    sites = {f"http://one.example/p{i}": ("text/html", html) for i in range(3)}
    sites["http://two.example/"] = ("text/html", html)
    graph = FrontierGraph()
    transport = FakeTransport(sites)
    crawler = FocusedCrawler(graph, topical_profile(), paced(transport, clock), stops=STOPS)
    for i, url in enumerate(sites):
        seed_frontier(graph, url, weight=10.0 - i)  # fixed fetch order
    t0 = clock.now()
    assert crawler.crawl_step(graph.next_frontier()).page is not None   # one.example/p0
    assert clock.now() == t0
    crawler.crawl_step(graph.next_frontier())                            # one.example/p1: waits
    assert clock.now() >= t0 + 1.0
    crawler.crawl_step(graph.next_frontier())                            # one.example/p2: waits again
    assert clock.now() >= t0 + 2.0
    before = clock.now()
    crawler.crawl_step(graph.next_frontier())                            # two.example: no wait
    assert clock.now() == before


def test_host_throttle_spaces_concurrent_fetches():
    """Workers racing for one host's slots start their fetches one delay
    apart (half a delay of slack for sleep jitter), never together, while
    workers fetching through the same transport under its bandwidth limit
    have every body byte counted: the slots and the bucket share one lock."""
    import sys
    import threading
    from blogwatch.clock import WallClock
    from conftest import ZeroBodies
    delay = 0.1
    clock = WallClock()
    transport = ThrottledTransport(ZeroBodies(), 200_000, clock, host_delay=delay)
    starts = []
    received = []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def reserver():
        barrier.wait(timeout=5)
        for _ in range(2):
            transport.reserve("http://one.example/p")
            with lock:
                starts.append(clock.now())

    def fetcher(k):
        barrier.wait(timeout=5)
        for i in range(25):
            _status, _ctype, body = transport.fetch(f"http://f{k}.example/{i}", 500 + k, 5.0)
            with lock:
                received.append(len(body))

    threads = ([threading.Thread(target=reserver) for _ in range(4)]
               + [threading.Thread(target=fetcher, args=(k,)) for k in range(4)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(starts) == 8 and len(received) == 100
    starts.sort()
    assert min(b - a for a, b in zip(starts, starts[1:])) >= delay / 2
    assert transport.bytes_fetched == sum(received) == 25 * sum(500 + k for k in range(4))


def test_host_throttle_memory_holds_one_delay():
    """Hosts whose last fetch started a delay or more ago are forgotten:
    10k distinct hosts, one fetch every 1/8 s with a 5 s delay, never
    leave more than 40 hosts in memory."""
    clock = SimClock()
    transport = ThrottledTransport(FakeTransport({}), None, clock, host_delay=5.0)
    for i in range(10_000):
        assert transport.reserve(f"http://h{i}.example/") == clock.now()
        assert len(transport._slots) <= 40
        clock.sleep(0.125)
    assert clock.now() == 10_000 * 0.125   # distinct hosts never wait
