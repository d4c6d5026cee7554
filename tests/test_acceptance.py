"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
execute. Every tolerance is pinned here, not calibrated elsewhere.
"""
import random
import time

import pytest

from blogwatch.clock import SimClock
from blogwatch.graph import FrontierGraph, NodeStatus, PROVENANCE_SUMMARY
from blogwatch.harness import (baseline_bfs_crawl, generate_world,
                               in_memory_transport, mixed_200_spec)
from blogwatch.phrases import count_ngrams, gap_marked_tokens, load_stoplist
from blogwatch.pipeline import (SeedQueue, ingest_loop, render_report,
                                run_batch)
from blogwatch.ping import (BlogRegistry, DedupeWindow, PingEvent,
                            match_registry, parse_changes_feed,
                            serialize_changes_feed)
from blogwatch.ratelimit import TokenBucket
from blogwatch.relevance import (IRRELEVANT, RELEVANT, build_topic_profile,
                                 nb_classify, nb_train, vsm_score)

from conftest import write_world_inputs

# transports used by runs in this module; criterion 4 sweeps all of them
_SUITE_TRANSPORTS = []


def _ok(num, name):
    print(f"ACCEPTANCE {num:>2} ({name}): PASS")


@pytest.fixture(scope="module")
def mixed_world_module():
    return generate_world(mixed_200_spec(rng_seed=7))


@pytest.fixture(scope="module")
def focused_run(mixed_world_module, tmp_path_factory):
    """One sequential mixed-200 pipeline run at a 100-page budget, shared
    by several criteria."""
    world = mixed_world_module
    cfg = write_world_inputs(world, tmp_path_factory.mktemp("mixed200"))
    cfg.max_pages = 100
    started = time.monotonic()
    result = run_batch(cfg, world=world)
    elapsed = time.monotonic() - started
    _SUITE_TRANSPORTS.append(result.transport)
    return world, cfg, result, elapsed


def _bfs_seeds(world):
    registry = BlogRegistry(frozenset(world.registry_lines))
    seeds = []
    for t, doc in world.ping_script:
        seeds.extend(match_registry(parse_changes_feed(doc), registry, now=t))
    return [s.url for s in DedupeWindow(1e9).filter(seeds)]


def test_criterion_01_focus_efficacy(focused_run):
    """Focused harvest >= 1.5x BFS harvest under an identical 100-page
    budget on the mixed-200 world; wall runtime < 30 s."""
    world, _cfg, result, elapsed = focused_run
    focused_trace = [url for url, _ in result.crawl_trace]
    assert len(focused_trace) == 100

    bfs_transport = in_memory_transport(world)
    _SUITE_TRANSPORTS.append(bfs_transport)
    started = time.monotonic()
    bfs_trace = baseline_bfs_crawl(world, _bfs_seeds(world), budget=100,
                                   transport=bfs_transport)
    elapsed += time.monotonic() - started
    assert len(bfs_trace) == 100

    labels = world.labels
    focused_harvest = sum(1 for u in focused_trace if labels[u] == "topical") / 100
    bfs_harvest = sum(1 for u in bfs_trace if labels[u] == "topical") / 100
    assert bfs_harvest > 0
    assert focused_harvest >= 1.5 * bfs_harvest, \
        f"focused {focused_harvest:.3f} < 1.5 x bfs {bfs_harvest:.3f}"
    assert elapsed < 30.0
    _ok(1, f"focus efficacy {focused_harvest:.2f} vs bfs {bfs_harvest:.2f}")


def test_criterion_02_phrase_oracle_equivalence():
    """count_ngrams equals a brute-force n-gram oracle exactly on 100
    random documents of up to 1000 tokens; no phrase has a stop word or
    spans a gap."""
    stops = load_stoplist()
    rng = random.Random(1234)
    vocab = ["flood", "river", "warning", "market", "city", "code", "the",
             "of", "and", "is", "storm", "quake", "x1", "x2", "rain"]
    for _ in range(100):
        n_tokens = rng.randint(0, 1000)
        words = []
        for _i in range(n_tokens):
            words.append(rng.choice(vocab))
            if rng.random() < 0.05:
                words.append(".")
        doc = " ".join(words)
        marked = gap_marked_tokens(doc, stops)
        got = count_ngrams(marked)

        seq = marked
        oracle = {}
        for size in (2, 3):
            for i in range(len(seq) - size + 1):
                window = seq[i:i + size]
                if None not in window:
                    key = tuple(window)
                    oracle[key] = oracle.get(key, 0) + 1
        assert dict(got) == oracle
        for phrase in got:
            assert not any(tok in stops for tok in phrase)
    _ok(2, "phrase oracle equivalence, 100 docs")


def test_criterion_03_relevance_gate_soundness(focused_run):
    """Zero fulltext-provenance edges originate from pages judged
    irrelevant."""
    _world, _cfg, result, _elapsed = focused_run
    fulltext_edges = [e for e in result.graph.edges() if e.provenance == "fulltext"]
    assert fulltext_edges, "run produced no fulltext expansion to check"
    violations = [e for e in fulltext_edges
                  if result.relevance_decisions.get(e.src) is not True]
    assert violations == []
    _ok(3, f"gate soundness over {len(fulltext_edges)} fulltext edges")


def test_criterion_04_media_skip(focused_run, mixed_world_module):
    """Total body bytes downloaded from media-labeled URLs is zero for
    every transport used by this suite."""
    labels = mixed_world_module.labels
    assert _SUITE_TRANSPORTS
    for transport in _SUITE_TRANSPORTS:
        for url, nbytes in transport.body_bytes_by_url().items():
            if labels.get(url) == "media":
                assert nbytes == 0, f"media body bytes from {url}"
    _ok(4, f"media skip across {len(_SUITE_TRANSPORTS)} transports")


def test_criterion_05_classifier_floor():
    """NB accuracy >= 90/100 on a separable generated corpus; VSM
    self-similarity 1.0 +- 1e-9; disjoint-vocabulary score exactly 0.0."""
    rng = random.Random(55)
    rel_vocab = [f"rel{i}" for i in range(20)]
    irr_vocab = [f"irr{i}" for i in range(20)]
    train = [(" ".join(rng.choice(rel_vocab) for _ in range(12)), RELEVANT)
             for _ in range(25)] + \
            [(" ".join(rng.choice(irr_vocab) for _ in range(12)), IRRELEVANT)
             for _ in range(25)]
    model = nb_train(train)
    correct = 0
    for i in range(100):
        truth = RELEVANT if i % 2 else IRRELEVANT
        vocab = rel_vocab if truth == RELEVANT else irr_vocab
        doc = " ".join(rng.choice(vocab) for _ in range(10))
        correct += nb_classify(doc, model)[0] == truth
    assert correct >= 90

    doc = "flood warning river rising flood"
    profile = build_topic_profile([doc], ["market code city"], 0.3)
    assert vsm_score(doc, profile) == pytest.approx(1.0, abs=1e-9)
    assert vsm_score("zzz qqq unrelated", profile) == 0.0
    _ok(5, f"classifier floor, nb accuracy {correct}/100")


def test_criterion_06_layer_isolation(focused_run):
    """Layer-2 input set and layer-2 extracted-link set are disjoint."""
    _world, _cfg, result, _elapsed = focused_run
    assert result.layer2_inputs and result.layer2_extracted
    overlap = result.layer2_inputs & result.layer2_extracted
    assert overlap == set()
    _ok(6, f"layer isolation, {len(result.layer2_extracted)} extracted links")


def test_criterion_07_throughput_governance():
    """10 KiB/s on a simulated clock: long-run throughput within +-10%;
    unlimited: zero added delay."""
    rng = random.Random(77)
    clock = SimClock()
    rate = 10 * 1024
    bucket = TokenBucket(rate, clock)
    granted = 0
    while clock.now() < 30.0:
        size = rng.randint(128, 40_000)
        bucket.acquire(size)
        granted += size
    throughput = granted / clock.now()
    assert abs(throughput - rate) / rate <= 0.10

    free_clock = SimClock()
    free = TokenBucket(None, free_clock)
    total_delay = sum(free.acquire(rng.randint(1, 1 << 20)) for _ in range(100))
    assert total_delay == 0.0
    assert free_clock.now() == 0.0
    _ok(7, f"throughput {throughput / 1024:.2f} KiB/s vs 10 KiB/s limit")


class _TimedQueue(SeedQueue):
    def __init__(self, capacity):
        super().__init__(capacity)
        self.max_offer_seconds = 0.0

    def offer(self, item):
        started = time.perf_counter()
        ok = super().offer(item)
        self.max_offer_seconds = max(self.max_offer_seconds,
                                     time.perf_counter() - started)
        return ok


def test_criterion_08_no_pause():
    """With fetch workers stalled (nothing consumes the queue), the ingest
    context drains every poll cycle, counts drops, and no single enqueue
    blocks measurably."""
    import threading

    registry = BlogRegistry(frozenset({f"b{i}.example" for i in range(25)}))
    cycles = [serialize_changes_feed(
        [PingEvent(f"b{i}", f"http://b{i}.example/", 0) for i in range(25)],
        updated=str(c)) for c in range(12)]

    class Source:
        def cycles(self, stop_event):
            yield from cycles

    queue = _TimedQueue(capacity=5)
    stop = threading.Event()
    metrics = {}
    finished = threading.Event()

    def _ingest():
        ingest_loop(Source(), registry, DedupeWindow(0.001), queue, SimClock(),
                    stop, metrics)
        finished.set()

    threading.Thread(target=_ingest, daemon=True).start()
    assert finished.wait(timeout=5.0), "ingest stalled behind fetch workers"
    assert queue.dropped > 0
    assert metrics["seeds_offered"] == queue.dropped + 5
    assert queue.max_offer_seconds < 0.05, "an enqueue blocked the poller"
    _ok(8, f"no-pause, {queue.dropped} seeds dropped without blocking")


def test_criterion_09_determinism_and_persistence(mixed_world_module, tmp_path):
    """Equal rng_seed sequential batch runs render byte-identical reports;
    checkpoint save -> load -> save is byte-identical."""
    world = mixed_world_module
    cfg = write_world_inputs(world, tmp_path)
    cfg.max_pages = 60
    r1 = run_batch(cfg, world=world)
    r2 = run_batch(cfg, world=world)
    _SUITE_TRANSPORTS.extend([r1.transport, r2.transport])
    text1 = render_report(r1.report)
    text2 = render_report(r2.report)
    assert text1.encode("utf-8") == text2.encode("utf-8")

    p1 = tmp_path / "first.ckpt"
    p2 = tmp_path / "second.ckpt"
    r1.graph.save(p1)
    FrontierGraph.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    _ok(9, "byte-identical reports and checkpoint round-trip")


def test_criterion_10_frontier_oracle():
    """Repeated next_frontier(1) equals a brute-force repeated-argmax
    oracle on 500-node random graphs, tie-breaking included."""
    for trial in range(3):
        rng = random.Random(1000 + trial)
        g = FrontierGraph()
        urls = [f"http://n{i:03d}.example/" for i in range(500)]
        for url in urls:
            g.add_seed_node(url)
        g.insert_summary(
            type("D", (), {"blog_url": "http://root.example/",
                           "all_links": lambda self: iter(())})(), [])
        weights = {}
        for url in urls:
            w = float(rng.randint(0, 7))  # coarse weights force many ties
            report = type("R", (), {"edges_added": [], "edges_updated": []})()
            g._upsert_edge("http://root.example/", url, w, PROVENANCE_SUMMARY, report)
            weights[url] = w

        order_index = {url: i for i, url in enumerate(urls)}
        remaining = dict(weights)
        expected = []
        while remaining:
            best = min(remaining, key=lambda u: (-remaining[u], order_index[u]))
            expected.append(best)
            del remaining[best]

        got = []
        while True:
            picked = g.next_frontier(1)
            if not picked:
                break
            got.append(picked[0].url)
            g.resolve(picked[0].url, NodeStatus.FETCHED)
        assert got == expected
    _ok(10, "frontier argmax oracle, 3 x 500 nodes")


def test_criterion_04_media_skip_final_sweep(mixed_world_module):
    """Re-check criterion 4 over every transport the suite created,
    including runs that executed after the first sweep."""
    labels = mixed_world_module.labels
    checked = 0
    for transport in _SUITE_TRANSPORTS:
        for url, nbytes in transport.body_bytes_by_url().items():
            if labels.get(url) == "media":
                assert nbytes == 0, f"media body bytes from {url}"
                checked += 1
    _ok(4, f"media skip final sweep, {len(_SUITE_TRANSPORTS)} transports")
