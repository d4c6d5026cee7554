import logging
import threading
import time

import pytest

from blogwatch.clock import SimClock
from blogwatch.errors import ConfigError
from blogwatch.harness import WorldSpec, generate_world, materialize_world
from blogwatch.pipeline import (PingPollSource, PingScriptSource, RunConfig,
                                RunReport, SeedQueue, ThreadedPipeline,
                                ingest_loop, load_config, parse_report,
                                render_console, render_report, run, run_batch,
                                summary_text)
from blogwatch.ping import BlogRegistry, DedupeWindow, serialize_changes_feed, PingEvent
from blogwatch.feeds import Post, SummaryDoc

from conftest import write_world_inputs


# ----------------------------------------------------------------------
# configuration

def test_load_config_resolves_relative_paths(tmp_path):
    (tmp_path / "registry.txt").write_text("a.example\n")
    conf = tmp_path / "run.conf"
    conf.write_text("registry_path = registry.txt\nmax_pages = 5\n"
                    "bandwidth_limit = 0\n# comment\n", encoding="utf-8")
    cfg = load_config(conf)
    assert cfg.registry_path == str(tmp_path / "registry.txt")
    assert cfg.max_pages == 5
    assert cfg.bandwidth_limit is None  # 0 means unlimited


def test_load_config_rejects_unknown_key(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("definitely_not_a_key = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(conf)


def test_load_config_rejects_bad_value(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("max_pages = many\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(conf)


def test_validate_catches_mode_and_missing_paths():
    with pytest.raises(ConfigError):
        RunConfig(mode="strange").validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="batch").validate()  # no fixture_path
    with pytest.raises(ConfigError):
        RunConfig(mode="online", fixture_path="x").validate()  # no ping_url
    cfg = RunConfig(mode="batch", fixture_path="x", registry_path="r",
                    topic_corpus_path="t", background_corpus_path="b")
    cfg.validate()
    cfg.threshold = 1.5
    with pytest.raises(ConfigError):
        cfg.validate()


# ----------------------------------------------------------------------
# report rendering

def test_report_render_parse_round_trip():
    report = RunReport(elapsed=12.5, seeds_in=7, seeds_dropped=1, summaries_ok=6,
                       summaries_failed=1, pages_fetched=20, pages_relevant=15,
                       harvest_rate=0.75, bytes_fetched=123456, max_queue_depth=3,
                       seed_latency_median=0.125,
                       top_phrases=[("c d", 7.5), ("a b", 5.0)])
    parsed = parse_report(render_report(report))
    assert parsed == report


def test_report_orders_phrases_by_aggregate_score():
    report = RunReport(top_phrases=[("c d", 7.5), ("a b", 5.0)])
    text = render_report(report)
    assert text.index("c d") < text.index("a b")
    console = render_console(report)
    assert console.index("c d") < console.index("a b")


def test_aggregator_sums_scores_by_phrase_text():
    from blogwatch.phrases import KeyPhrase
    from blogwatch.pipeline import _Aggregator
    agg = _Aggregator()
    agg.add([KeyPhrase(("river", "flood"), 2, 2.0),
             KeyPhrase(("flood", "warning", "issued"), 1, 2.5)])
    agg.add([KeyPhrase(("river", "flood"), 1, 1.0)])
    assert agg.top() == [("river flood", 3.0), ("flood warning issued", 2.5)]


def test_zero_activity_report():
    report = RunReport()
    assert report.harvest_rate == 0.0
    text = render_report(report)
    assert "pages_fetched = 0" in text
    assert "top_phrase" not in text


def test_summary_text_combines_titles_and_descriptions():
    doc = SummaryDoc(blog_url="http://b.example/", title="chan",
                     posts=[Post(title="T1", link="http://b.example/1",
                                 description="D1"),
                            Post(title="T2", link="http://b.example/2",
                                 description="D2")])
    assert summary_text(doc) == "T1\nD1\nT2\nD2"


# ----------------------------------------------------------------------
# sequential batch runs

def test_empty_fixture_run(tmp_path):
    world = generate_world(WorldSpec(n_blogs=0))
    cfg = write_world_inputs(generate_world(WorldSpec(rng_seed=1, n_blogs=4)), tmp_path)
    result = run_batch(cfg, world=world)
    r = result.report
    assert (r.seeds_in, r.summaries_ok, r.summaries_failed, r.pages_fetched,
            r.pages_relevant) == (0, 0, 0, 0, 0)
    assert r.harvest_rate == 0.0
    assert r.top_phrases == []


def test_batch_sequential_runs_are_byte_identical(small_world, tmp_path):
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.max_pages = 30
    r1 = run_batch(cfg, world=small_world)
    r2 = run_batch(cfg, world=small_world)
    assert render_report(r1.report) == render_report(r2.report)


def test_counters_consistent(small_world, world_config):
    result = run_batch(world_config, world=small_world)
    r = result.report
    assert r.summaries_ok + r.summaries_failed == r.seeds_in
    assert 0.0 <= r.harvest_rate <= 1.0
    assert r.pages_relevant <= r.pages_fetched
    assert r.bytes_fetched > 0
    assert r.seed_latency_median > 0.0


def test_layer_isolation(small_world, world_config):
    """Layer 2 never feeds itself: its input set and extracted-link set are
    disjoint."""
    result = run_batch(world_config, world=small_world)
    assert result.layer2_inputs
    assert result.layer2_extracted
    assert result.layer2_inputs.isdisjoint(result.layer2_extracted)


def test_relevance_gate_soundness(small_world, world_config):
    """Zero fulltext edges from pages judged irrelevant."""
    result = run_batch(world_config, world=small_world)
    fulltext_sources = {e.src for e in result.graph.edges()
                        if e.provenance == "fulltext"}
    assert fulltext_sources  # the run did expand something
    for src in fulltext_sources:
        assert result.relevance_decisions.get(src) is True


def test_run_dispatch_from_fixture_dir(small_world, tmp_path):
    fixture = tmp_path / "fixture"
    materialize_world(small_world, fixture)
    cfg = load_config(fixture / "run.conf")
    cfg.max_pages = 20
    result = run(cfg)
    assert result.report.pages_fetched == 20
    assert (fixture / "report.txt").exists()
    assert (fixture / "graph.ckpt").exists()
    # saved checkpoint reloads and round-trips
    from blogwatch.graph import FrontierGraph
    g = FrontierGraph.load(fixture / "graph.ckpt")
    assert len(g) > 0


def test_bandwidth_limit_slows_simulated_run(small_world, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg_free = write_world_inputs(small_world, tmp_path / "a")
    cfg_slow = write_world_inputs(small_world, tmp_path / "b")
    cfg_slow.bandwidth_limit = 2 * 1024
    # politeness pauses would refill the bucket and hide the throttle
    cfg_free.host_delay = cfg_slow.host_delay = 0.0
    cfg_free.max_pages = cfg_slow.max_pages = 20
    fast = run_batch(cfg_free, world=small_world)
    slow = run_batch(cfg_slow, world=small_world)
    assert slow.report.bytes_fetched == fast.report.bytes_fetched
    assert slow.report.elapsed > fast.report.elapsed
    # long-run rate stays at or under the cap (after the 2 s burst credit)
    assert slow.report.bytes_fetched / slow.report.elapsed <= 2 * 1024 * 1.1


# ----------------------------------------------------------------------
# seed queue and no-pause ingestion

def test_seed_queue_drop_oldest():
    q = SeedQueue(capacity=2)
    assert q.offer("a")
    assert q.offer("b")
    assert not q.offer("c")  # drops "a"
    assert q.dropped == 1
    assert q.take() == "b"
    assert q.take() == "c"


def test_seed_queue_take_times_out():
    q = SeedQueue(capacity=1)
    t0 = time.monotonic()
    assert q.take(timeout=0.05) is None
    assert time.monotonic() - t0 < 1.0


def test_ingest_never_blocks_when_workers_stall():
    """Fetch workers stalled -> ingestion still drains every poll cycle,
    dropping surplus seeds with a count instead of pausing."""
    registry = BlogRegistry(frozenset({f"b{i}.example" for i in range(20)}))
    cycles = []
    for c in range(10):
        events = [PingEvent(f"b{i}", f"http://b{i}.example/", 0) for i in range(20)]
        cycles.append(serialize_changes_feed(events, updated=str(c)))

    class Source:
        def cycles(self, stop_event):
            yield from cycles

    q = SeedQueue(capacity=4)
    clock = SimClock()
    metrics = {}
    stop = threading.Event()
    dedupe = DedupeWindow(0.5)  # tiny window so repeats pass

    start = time.monotonic()
    done = threading.Event()

    def _run():
        ingest_loop(Source(), registry, dedupe, q, clock, stop, metrics)
        done.set()

    t = threading.Thread(target=_run, daemon=True)
    t.start()
    # nobody consumes the queue: ingest must still finish promptly
    assert done.wait(timeout=5.0), "ingest blocked on a stalled downstream stage"
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    assert q.dropped > 0
    assert metrics["seeds_offered"] == q.dropped + 4  # capacity left over
    assert q.closed


def test_ping_poll_source_fetches_and_stops():
    doc = serialize_changes_feed([PingEvent("a", "http://a.example/", 3)])

    class OneShotTransport:
        def __init__(self):
            self.calls = 0

        def fetch(self, url, max_bytes, timeout):
            self.calls += 1
            return 200, "application/xml", doc.encode("utf-8")

    stop = threading.Event()
    transport = OneShotTransport()
    source = PingPollSource(transport, "http://ping.example/changes.xml",
                            poll_interval=0.01, clock=SimClock())
    got = []
    for text in source.cycles(stop):
        got.append(text)
        if len(got) == 3:
            stop.set()
    assert got == [doc, doc, doc]
    assert transport.calls == 3


def test_ping_poll_source_logs_http_errors(caplog):
    """A changes document answered with an HTTP error is skipped with a
    warning naming the status and the URL; the next poll goes on."""
    doc = serialize_changes_feed([PingEvent("a", "http://a.example/", 3)])
    url = "http://ping.example/changes.xml"

    class FlakyTransport:
        def __init__(self):
            self.answers = [(503, b"busy"), (200, doc.encode("utf-8"))]

        def fetch(self, url, max_bytes, timeout):
            status, body = self.answers.pop(0)
            return status, "application/xml", body

    source = PingPollSource(FlakyTransport(), url, poll_interval=0.01, clock=SimClock())
    with caplog.at_level(logging.WARNING, logger="blogwatch.pipeline"):
        got = next(source.cycles(threading.Event()))
    assert got == doc
    assert any("503" in r.getMessage() and url in r.getMessage() for r in caplog.records)


# ----------------------------------------------------------------------
# threaded pipeline

def _threaded_run(world, cfg):
    from blogwatch.harness import in_memory_transport
    from blogwatch.ping import load_registry
    from blogwatch.pipeline import _build_models

    cfg.host_delay = 0.01  # wall-clock politeness would slow the test
    stops, profile, nb_model, glossary = _build_models(cfg)
    return ThreadedPipeline(
        cfg, source=PingScriptSource(world.ping_script),
        transport=in_memory_transport(world),
        registry=load_registry(cfg.registry_path),
        stops=stops, profile=profile, nb_model=nb_model, glossary=glossary,
    ).run()


def test_threaded_batch_smoke(small_world, tmp_path):
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    cfg.max_pages = 15
    result = _threaded_run(small_world, cfg)
    r = result.report
    assert r.pages_fetched == 15
    assert r.summaries_ok + r.summaries_failed == r.seeds_in
    assert result.layer2_inputs.isdisjoint(result.layer2_extracted)


def test_threaded_page_budget_is_exact(mixed_world, tmp_path):
    """Four fetch workers racing for the last slots of the budget fetch
    exactly max_pages pages, no more and no fewer."""
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.fetch_workers = 4
    cfg.max_pages = 20
    result = _threaded_run(mixed_world, cfg)
    assert result.report.pages_fetched == 20
    assert len(result.crawl_trace) == 20


def test_streaming_contract_order(small_world, world_config):
    """Per worker, seed i is fully analyzed (phrase extraction + graph
    insertion) before seed i+1's summary fetch starts."""
    from blogwatch.graph import FrontierGraph
    from blogwatch.harness import in_memory_transport

    events = []
    transport = in_memory_transport(small_world)
    original_fetch = transport.fetch

    def logged_fetch(url, max_bytes, timeout):
        events.append(("fetch", url))
        return original_fetch(url, max_bytes, timeout)

    transport.fetch = logged_fetch
    original_insert = FrontierGraph.insert_summary

    def logged_insert(self, doc, phrases):
        events.append(("insert", doc.blog_url))
        return original_insert(self, doc, phrases)

    FrontierGraph.insert_summary = logged_insert
    try:
        run_batch(world_config, world=small_world, transport=transport)
    finally:
        FrontierGraph.insert_summary = original_insert

    # within layer 2 (before the first fulltext fetch of layer 3), each
    # summary fetch group is immediately followed by its insert
    inserts = [i for i, ev in enumerate(events) if ev[0] == "insert"]
    assert inserts
    pending_since_insert = 0
    for kind, _url in events[:inserts[-1] + 1]:
        if kind == "insert":
            pending_since_insert = 0
        else:
            pending_since_insert += 1
            # a summary costs at most two fetches (homepage + feed); a
            # third fetch without an insert would mean accumulation
            assert pending_since_insert <= 2
