import logging
import os
import re
import signal
import sys
import threading
import time
from dataclasses import fields
from pathlib import Path

import pytest

from blogwatch.clock import SimClock
from blogwatch.errors import ConfigError
from blogwatch.harness import WorldSpec, generate_world, materialize_world
from blogwatch.pipeline import (PingPollSource, RunConfig, RunReport, SeedQueue,
                                ThreadedPipeline, _report_scalars, ingest_loop,
                                load_config, parse_report, render_console,
                                render_report, run, run_batch, summary_text)
from blogwatch.ping import BlogRegistry, DedupeWindow, serialize_changes_feed, PingEvent
from blogwatch.feeds import Post, SummaryDoc

from conftest import PIPELINE_THREAD, Layer2Recorder, PingScriptSource, write_world_inputs


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


def test_readme_configuration_table_names_every_config_key():
    """The README configuration table documents exactly the ``RunConfig``
    fields."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert documented == {f.name for f in fields(RunConfig)}


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

def test_report_render_parse_round_trip(tmp_path):
    report = RunReport(elapsed=12.5, seeds_in=7, seeds_dropped=1, summaries_ok=6,
                       summaries_failed=1, pages_fetched=20, pages_relevant=15,
                       harvest_rate=0.75, bytes_fetched=123456, max_queue_depth=3,
                       seed_latency_median=0.125,
                       top_phrases=[("c d", 7.5), ("a b", 5.0)])
    path = tmp_path / "report.txt"
    path.write_text(render_report(report), encoding="utf-8")
    assert parse_report(path) == report


def test_report_orders_phrases_by_aggregate_score():
    report = RunReport(top_phrases=[("c d", 7.5), ("a b", 5.0)])
    text = render_report(report)
    assert text.index("c d") < text.index("a b")
    console = render_console(report)
    assert console.index("c d") < console.index("a b")


def test_console_lists_every_report_key():
    """The console names each scalar report key, so the report file, the
    interim log line and the console share one set of keys."""
    rows = [line.split() for line in render_console(RunReport()).splitlines()]
    assert rows == [[key, "0.000" if kind is float else "0"]
                    for key, kind in _report_scalars().items()]


def test_aggregator_sums_scores_by_phrase_text():
    from blogwatch.pipeline import _Aggregator
    agg = _Aggregator()
    agg.add({"river flood": 2.0, "flood warning issued": 2.5})
    agg.add({"river flood": 1.0})
    assert agg.top() == [("river flood", 3.0), ("flood warning issued", 2.5)]


def test_zero_activity_report():
    report = RunReport()
    assert report.harvest_rate == 0.0
    text = render_report(report)
    assert "pages_fetched = 0" in text
    assert "top_phrase" not in text


def test_summary_text_combines_titles_and_descriptions():
    doc = SummaryDoc(blog_url="http://b.example/",
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


def test_batch_without_worker_keys_is_deterministic(small_world, tmp_path):
    """Batch always runs sequentially: a config that leaves the worker
    counts at their defaults writes the same report twice, equal to the
    report with one worker of each kind."""
    materialize_world(small_world, tmp_path)
    conf = tmp_path / "run.conf"
    lines = [l for l in conf.read_text(encoding="utf-8").splitlines(keepends=True)
             if "_workers" not in l]
    conf.write_text("".join(lines), encoding="utf-8")
    one_each = tmp_path / "one_each.conf"
    one_each.write_text("".join(lines) + "summary_workers = 1\nfetch_workers = 1\n",
                        encoding="utf-8")
    reports = []
    for path in (conf, conf, one_each):
        cfg = load_config(path)
        cfg.max_pages = 20
        run(cfg)
        reports.append((tmp_path / "report.txt").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_excess_budget_is_free(tmp_path):
    """A batch crawl ends when the frontier runs dry: a budget far above
    the 27 pages a small world supplies writes the same report, crawl
    trace and checkpoint as a budget of exactly 27. No tick is charged
    for the empty pick that ends the crawl."""
    world = generate_world(WorldSpec(rng_seed=3, n_blogs=12))
    outputs = []
    for budget in (27, 10_000):
        cfg = write_world_inputs(world, tmp_path)
        cfg.max_pages = budget
        cfg.checkpoint_path = str(tmp_path / f"graph-{budget}.ckpt")
        result = run_batch(cfg, world=world)
        assert result.report.pages_fetched == 27
        assert result.graph.stats().get("unfetched", 0) == 0
        outputs.append((render_report(result.report), result.crawl_trace,
                        Path(cfg.checkpoint_path).read_bytes()))
    assert outputs[0] == outputs[1]


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
    with Layer2Recorder() as layer2:
        run_batch(world_config, world=small_world)
    assert layer2.inputs
    assert layer2.extracted
    assert layer2.inputs.isdisjoint(layer2.extracted)


def test_relevance_gate_soundness(small_world, world_config):
    """Zero fulltext edges from pages judged irrelevant."""
    result = run_batch(world_config, world=small_world)
    fulltext_sources = {e.src for e in result.graph.edges()
                        if e.provenance == "fulltext"}
    assert fulltext_sources  # the run did expand something
    decisions = dict(result.crawl_trace)
    for src in fulltext_sources:
        assert decisions.get(src) is True


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


def test_seed_queue_counts_pending_seeds_until_done():
    """A seed is pending from its offer until ``done()``, taken or not; a
    drop-oldest offer swaps one pending seed for another."""
    q = SeedQueue(capacity=2)
    assert q.pending == 0
    q.offer("a")
    q.offer("b")
    assert q.pending == 2
    assert not q.offer("c")   # drops "a"
    assert q.pending == 2
    assert q.take() == "b"
    assert q.pending == 2
    q.done()
    assert q.pending == 1
    assert q.take() == "c"
    q.done()
    assert q.pending == 0


def test_seed_queue_take_waits_for_a_seed_or_close():
    """take() waits for a seed or for close(); None means closed and
    empty."""
    q = SeedQueue(capacity=1)
    offer = threading.Timer(0.05, q.offer, args=("a",))
    offer.start()
    assert q.take() == "a"
    offer.join(timeout=5)
    got = []
    taker = threading.Thread(target=lambda: got.append(q.take()))
    taker.start()
    taker.join(timeout=0.3)
    assert taker.is_alive(), "take() returned on an open, empty queue"
    t0 = time.monotonic()
    q.close()
    taker.join(timeout=5)
    assert not taker.is_alive() and got == [None]
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


def test_ingest_counts_malformed_unregistered_and_offered_seeds():
    """Layer 1 counts a malformed cycle, each event whose host matches no
    registry pattern, and each seed it offers; a re-announcement the
    dedupe window drops is none of these."""
    registry = BlogRegistry(frozenset({"a.example", "*.blogs.example"}))
    mixed = serialize_changes_feed([
        PingEvent("a", "http://a.example/", 0),          # registered
        PingEvent("x", "http://x.blogs.example/", 0),    # registered by wildcard
        PingEvent("a", "http://a.example/", 0),          # re-announced
        PingEvent("b", "http://b.example/", 0),          # unregistered
        PingEvent("bare", "http://blogs.example/", 0),   # decoy: the wildcard's bare host
        PingEvent("n", "http://notblogs.example/", 0),   # decoy: a suffix, not a subdomain
    ])

    class Source:
        def cycles(self, stop_event):
            yield "<weblogUpdates><weblog"
            yield mixed

    q = SeedQueue(capacity=10)
    metrics = {}
    ingest_loop(Source(), registry, DedupeWindow(900.0), q, SimClock(),
                threading.Event(), metrics)
    assert metrics == {"cycles_malformed": 1, "seeds_unregistered": 3, "seeds_offered": 2}
    assert [q.take().url, q.take().url] == ["http://a.example/", "http://x.blogs.example/"]


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
                            poll_interval=0.01)
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

    source = PingPollSource(FlakyTransport(), url, poll_interval=0.01)
    with caplog.at_level(logging.WARNING, logger="blogwatch.pipeline"):
        got = next(source.cycles(threading.Event()))
    assert got == doc
    assert any("503" in r.getMessage() and url in r.getMessage() for r in caplog.records)


# ----------------------------------------------------------------------
# threaded pipeline

def _pipeline(world, cfg, source=None, transport=None):
    """A ``ThreadedPipeline`` over ``world``: its ping script and
    in-memory transport unless others are given."""
    from blogwatch.harness import in_memory_transport
    from blogwatch.ping import load_registry
    from blogwatch.pipeline import _build_models

    cfg.host_delay = 0.01  # wall-clock politeness would slow the test
    stops, profile, nb_model, glossary = _build_models(cfg)
    return ThreadedPipeline(
        cfg, source=source or PingScriptSource(world.ping_script),
        transport=transport or in_memory_transport(world),
        registry=load_registry(cfg.registry_path),
        stops=stops, profile=profile, nb_model=nb_model, glossary=glossary,
    )


def _threaded_run(world, cfg):
    return _pipeline(world, cfg).run()


def _run_expecting_error(pipe):
    """``pipe.run()`` on a thread: (hung after 20 s, what it returned or
    raised). A hung run is stopped so that the test can end."""
    outcomes = []

    def _run():
        try:
            outcomes.append(pipe.run())
        except RuntimeError as exc:
            outcomes.append(exc)

    runner = threading.Thread(target=_run, daemon=True)
    runner.start()
    runner.join(timeout=20)
    hung = runner.is_alive()
    pipe.stop()
    runner.join(timeout=5)
    return hung, outcomes


def test_failed_ingest_still_ends_the_run(small_world, tmp_path, monkeypatch):
    """An ingest source that raises after its first cycle ends the ingest
    thread; the seed queue is closed anyway, so the summary and fetch
    workers finish, the report is written, and ``run()`` raises the
    source's error."""
    class FailingSource:
        def cycles(self, stop_event):
            yield small_world.ping_script[0][1]
            raise RuntimeError("ping source failed")

    thread_errors = []
    monkeypatch.setattr(threading, "excepthook",
                        lambda args: thread_errors.append((args.thread.name, args.exc_type)))
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    cfg.max_pages = 1000   # above what the world supplies: the budget never ends the run
    cfg.report_path = str(tmp_path / "report.txt")
    hung, outcomes = _run_expecting_error(_pipeline(small_world, cfg, source=FailingSource()))
    assert not hung, "run() did not return after the ingest thread died"
    assert thread_errors == []
    assert [str(o) for o in outcomes] == ["ping source failed"]
    assert isinstance(outcomes[0], RuntimeError)
    assert parse_report(tmp_path / "report.txt").seeds_in > 0


class _FailOnce:
    """Transport that raises once, on the first URL containing ``marker``."""

    def __init__(self, inner, marker):
        self.inner = inner
        self.marker = marker
        self.raised = False

    def fetch(self, url, max_bytes, timeout):
        if self.marker in url and not self.raised:
            self.raised = True
            raise RuntimeError(f"transport broke on {url}")
        return self.inner.fetch(url, max_bytes, timeout)

    def head(self, url, timeout):
        return self.inner.head(url, timeout)


@pytest.mark.parametrize("marker", ["/post/", "/rss"], ids=["fetch", "summary"])
def test_failed_worker_stops_the_run(mixed_world, tmp_path, marker):
    """A fetch worker (``/post/`` page) or summary worker (``/rss`` feed)
    that dies stops the run: ``run()`` writes the report, then raises the
    worker's error, instead of hanging on the dead worker's claimed page
    slot or returning a normal result."""
    from blogwatch.harness import in_memory_transport

    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    cfg.max_pages = 5
    cfg.report_path = str(tmp_path / "report.txt")
    transport = _FailOnce(in_memory_transport(mixed_world), marker)
    hung, outcomes = _run_expecting_error(_pipeline(mixed_world, cfg, transport=transport))
    assert not hung, "run() did not end after a worker died"
    assert len(outcomes) == 1 and isinstance(outcomes[0], RuntimeError)
    assert "transport broke" in str(outcomes[0])
    assert (tmp_path / "report.txt").exists()


def test_interim_log_line_uses_report_keys(small_world, tmp_path, caplog):
    """The interim progress line names every scalar ``RunReport`` field."""
    class PacedSource:
        def cycles(self, stop_event):
            for _t, doc in small_world.ping_script:
                if stop_event.wait(0.15):
                    return
                yield doc

    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 1
    cfg.fetch_workers = 1
    cfg.report_interval = 0.05
    with caplog.at_level(logging.INFO, logger="blogwatch.pipeline"):
        _pipeline(small_world, cfg, source=PacedSource()).run()
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("interim:")]
    assert lines
    keys = {part.split("=", 1)[0] for part in lines[-1][len("interim:"):].split()}
    assert keys == {f.name for f in fields(RunReport) if f.name != "top_phrases"}


def test_interrupted_run_stops_every_thread_and_writes_the_report(small_world, tmp_path):
    """Ctrl-C while ``run()`` waits on an endless source stops every
    pipeline thread and writes the report before the interrupt
    propagates."""
    class EndlessSource:
        def cycles(self, stop_event):
            while not stop_event.wait(0.05):
                yield small_world.ping_script[0][1]

    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    cfg.max_pages = 1000   # above what the world supplies: the budget never ends the run
    cfg.report_path = str(tmp_path / "report.txt")
    pipe = _pipeline(small_world, cfg, source=EndlessSource())
    interrupt = threading.Timer(0.5, os.kill, args=(os.getpid(), signal.SIGINT))
    interrupt.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            pipe.run()
    finally:
        interrupt.cancel()
        interrupt.join(timeout=5)
    assert not [t for t in threading.enumerate() if PIPELINE_THREAD.fullmatch(t.name)]
    assert parse_report(tmp_path / "report.txt").seeds_in > 0


def test_threaded_batch_smoke(small_world, tmp_path):
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    cfg.max_pages = 15
    with Layer2Recorder() as layer2:
        result = _threaded_run(small_world, cfg)
    r = result.report
    assert r.pages_fetched == 15
    assert r.summaries_ok + r.summaries_failed == r.seeds_in
    assert layer2.inputs
    assert layer2.inputs.isdisjoint(layer2.extracted)


def test_threaded_page_budget_is_exact(mixed_world, tmp_path):
    """Four fetch workers racing for the last slots of the budget fetch
    exactly max_pages pages, no more and no fewer."""
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.fetch_workers = 4
    cfg.max_pages = 20
    result = _threaded_run(mixed_world, cfg)
    assert result.report.pages_fetched == 20
    assert len(result.crawl_trace) == 20


def test_idle_fetch_workers_wait_instead_of_polling(small_world, tmp_path, monkeypatch):
    """Once the first cycle is crawled out and nothing changes, an idle
    fetch worker waits: in one quiet second the frontier is picked at
    most once per fetch worker. Workers still idle when the source ends
    are woken, and the run ends."""
    from blogwatch.graph import FrontierGraph

    calls = []   # monotonic time of each frontier pick
    picked = threading.Event()
    crawled_out = threading.Event()
    original = FrontierGraph.next_frontier

    def counted(self):
        node = original(self)
        calls.append(time.monotonic())
        (crawled_out if node is None and picked.is_set() else picked).set()
        return node

    monkeypatch.setattr(FrontierGraph, "next_frontier", counted)
    window = []

    class PausingSource:
        def cycles(self, stop_event):
            yield small_world.ping_script[0][1]
            crawled_out.wait(10)
            settle_until = time.monotonic() + 5
            while time.monotonic() - calls[-1] < 0.3 and time.monotonic() < settle_until:
                stop_event.wait(0.05)
            window.append(time.monotonic())
            stop_event.wait(1.0)
            window.append(time.monotonic())
            yield small_world.ping_script[1][1]
            stop_event.wait(0.5)   # the fetch workers go idle again

    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 3
    cfg.max_pages = 1000   # above what the world supplies: the budget never ends the run
    pipe = _pipeline(small_world, cfg, source=PausingSource())
    results = []
    runner = threading.Thread(target=lambda: results.append(pipe.run()), daemon=True)
    runner.start()
    runner.join(timeout=30)
    hung = runner.is_alive()
    pipe.stop()
    runner.join(timeout=5)
    assert not hung, "run() did not end"
    result = results[0]
    assert crawled_out.is_set() and len(window) == 2
    quiet = sum(window[0] <= t <= window[1] for t in calls)
    assert quiet <= cfg.fetch_workers, f"{quiet} frontier picks in a quiet second"
    assert result.report.pages_fetched > 0


def test_summaries_go_first(mixed_world, tmp_path, monkeypatch):
    """While one seed's feed fetch is held up, no fetch worker crawls a
    page, though the graph already holds unfetched nodes; once the
    summary ends, the run drains."""
    from blogwatch.graph import FrontierGraph
    from blogwatch.harness import in_memory_transport

    release = threading.Event()
    held = threading.Event()
    inserted = threading.Event()
    fetched = []
    inner = in_memory_transport(mixed_world)

    class HoldingTransport:
        def fetch(self, url, max_bytes, timeout):
            if url.endswith("/rss") and not held.is_set():
                held.set()
                release.wait(10)
            fetched.append(url)
            return inner.fetch(url, max_bytes, timeout)

        def head(self, url, timeout):
            return inner.head(url, timeout)

    original_insert = FrontierGraph.insert_summary

    def insert_summary(self, doc, phrases):
        report = original_insert(self, doc, phrases)
        if self.stats().get("unfetched"):
            inserted.set()
        return report

    monkeypatch.setattr(FrontierGraph, "insert_summary", insert_summary)
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    cfg.max_pages = 1000   # above what the world supplies: the budget never ends the run
    pipe = _pipeline(mixed_world, cfg, source=PingScriptSource(mixed_world.ping_script[:1]),
                     transport=HoldingTransport())
    results = []
    runner = threading.Thread(target=lambda: results.append(pipe.run()), daemon=True)
    runner.start()
    try:
        assert inserted.wait(10) and held.is_set()
        time.sleep(0.5)
        assert not [url for url in fetched if "/post/" in url]
    finally:
        release.set()
        runner.join(timeout=30)
    assert not runner.is_alive()
    assert results[0].report.pages_fetched > 0
    assert results[0].graph.stats().get("unfetched", 0) == 0


def test_a_taken_seed_keeps_the_crawl_waiting(mixed_world, tmp_path, monkeypatch):
    """A seed that a summary worker has taken but not yet summarized keeps
    the crawl waiting, as a queued seed does: with one seed held just
    after its pop while the graph holds unfetched nodes, and the other
    worker emptying the queue, no page is fetched for 1 s; once the seed
    is released, the run drains."""
    from blogwatch.graph import FrontierGraph
    from blogwatch.harness import in_memory_transport

    release = threading.Event()
    held = threading.Event()
    inserted = threading.Event()
    fetched = []
    inner = in_memory_transport(mixed_world)

    class RecordingTransport:
        def fetch(self, url, max_bytes, timeout):
            fetched.append(url)
            return inner.fetch(url, max_bytes, timeout)

        def head(self, url, timeout):
            return inner.head(url, timeout)

    original_insert = FrontierGraph.insert_summary
    original_take = SeedQueue.take
    hold_lock = threading.Lock()

    def insert_summary(self, doc, phrases):
        report = original_insert(self, doc, phrases)
        if self.stats().get("unfetched"):
            inserted.set()
        return report

    def take(self):
        seed = original_take(self)
        with hold_lock:
            hold = seed is not None and inserted.is_set() and not held.is_set()
            if hold:
                held.set()
        if hold:
            release.wait(10)
        return seed

    monkeypatch.setattr(FrontierGraph, "insert_summary", insert_summary)
    monkeypatch.setattr(SeedQueue, "take", take)
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    cfg.max_pages = 1000   # above what the world supplies: the budget never ends the run
    pipe = _pipeline(mixed_world, cfg, source=PingScriptSource(mixed_world.ping_script[:1]),
                     transport=RecordingTransport())
    results = []
    runner = threading.Thread(target=lambda: results.append(pipe.run()), daemon=True)
    runner.start()
    try:
        assert held.wait(10)
        time.sleep(1.0)
        assert not [url for url in fetched if "/post/" in url]
    finally:
        release.set()
        runner.join(timeout=30)
    assert not runner.is_alive()
    assert results[0].report.pages_fetched > 0
    assert results[0].graph.stats().get("unfetched", 0) == 0


@pytest.mark.parametrize("budget", [1, 7, 100_000])
def test_fetch_workers_lose_no_wake_up_under_fast_switching(mixed_world, tmp_path, budget):
    """Stress: 2 summary and 4 fetch workers under a one-microsecond
    thread switch interval. Every run ends; it fetches the budget, or
    everything the frontier supplies when that is less, each URL once."""
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 4
    cfg.max_pages = budget
    pipe = _pipeline(mixed_world, cfg)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: results.append(pipe.run()), daemon=True)
        runner.start()
        runner.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    hung = runner.is_alive()
    pipe.stop()
    runner.join(timeout=5)
    assert not hung, "run() did not end"
    result = results[0]
    urls = [url for url, _relevant in result.crawl_trace]
    assert len(urls) == len(set(urls)) == result.report.pages_fetched
    if budget < 100_000:
        assert result.report.pages_fetched == budget
    else:
        assert result.report.pages_fetched > 7
        assert result.graph.stats().get("unfetched", 0) == 0


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
