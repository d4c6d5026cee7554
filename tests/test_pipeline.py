import logging
import os
import re
import signal
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from blogwatch.errors import ConfigError, FetchFailed
from blogwatch.harness import WorldSpec, generate_world, materialize_world
from blogwatch.pipeline import (SEED_QUEUE_CAPACITY, TOP_PHRASE_COUNT, PingPollSource,
                                RunConfig, RunReport, SeedQueue, ThreadedPipeline,
                                _report_scalars, load_config, parse_report, render_console,
                                render_report, run, run_batch)
from blogwatch.ping import (BlogRegistry, DedupeWindow, PingEvent, load_registry,
                            match_registry, parse_changes_feed, serialize_changes_feed)
from blogwatch.feeds import parse_rss
from blogwatch.phrases import extract_scored_phrases, terms

from conftest import (PIPELINE_THREAD, ClosedFirstQueue, Layer2Recorder, PingScriptSource,
                      SimScriptSource, graph_state, ingest_pipeline, keyed, texts,
                      write_world_inputs)


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


def test_a_corpus_line_is_one_document_whatever_it_holds(tmp_path):
    """A corpus file breaks lines only at ``\\n``, ``\\r\\n`` and ``\\r``:
    a form feed or U+2028 inside a line does not split its document."""
    from blogwatch.settings import read_corpus
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("flood\x0cwarning river\u2028levels rising\n", encoding="utf-8")
    assert read_corpus(corpus) == ["flood\x0cwarning river\u2028levels rising"]


def test_a_corpus_directory_gives_the_profile_of_its_one_file_form(small_world, tmp_path):
    """A directory of ``.txt`` documents, read in name order, builds the
    same topic profile as one file holding the same documents a line
    each."""
    from blogwatch.pipeline import _build_models
    cfg = write_world_inputs(small_world, tmp_path)
    docs = tmp_path / "topic_docs"
    docs.mkdir()
    for i, doc in enumerate(small_world.topic_corpus):
        (docs / f"{i:02d}.txt").write_text(doc + "\n", encoding="utf-8")
    profile = _build_models(cfg)[1]
    cfg.topic_corpus_path = str(docs)
    assert _build_models(cfg)[1] == profile


def test_a_bad_byte_in_a_corpus_directory_names_its_file(tmp_path):
    from blogwatch.settings import read_corpus
    (tmp_path / "a.txt").write_text("flood warning\n", encoding="utf-8")
    bad = tmp_path / "b.txt"
    bad.write_bytes(b"river levels\nrising \xff fast\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(bad))}:2: "):
        read_corpus(tmp_path)


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


@pytest.mark.parametrize("changes, message", [
    ({"classifier": "svm"}, "classifier must be vsm or nb"),
    ({"fetch_workers": 0}, "fetch_workers must be >= 1"),
    ({"poll_interval": 0.0}, "poll_interval must be > 0"),
    ({"bandwidth_limit": -1.0}, "bandwidth_limit must be positive"),
    ({"host_delay": -0.5}, "host_delay must be >= 0"),
    ({"registry_path": ""}, "registry_path is required"),
    ({"background_corpus_path": ""}, "corpus paths are required"),
])
def test_validate_rejects_each_bad_setting(changes, message):
    cfg = replace(RunConfig(mode="batch", fixture_path="x", registry_path="r",
                            topic_corpus_path="t", background_corpus_path="b"), **changes)
    with pytest.raises(ConfigError, match=message):
        cfg.validate()


@pytest.mark.parametrize("limit", [0, -5])
def test_threaded_pipeline_rejects_a_bad_config_when_built(limit):
    """The config is validated before the run's throttled transport is
    built, so a bad bandwidth limit is a ``ConfigError`` as in batch."""
    cfg = RunConfig(mode="online", ping_url="http://ping.example/", registry_path="r",
                    topic_corpus_path="t", background_corpus_path="b", bandwidth_limit=limit)
    with pytest.raises(ConfigError, match="bandwidth_limit must be positive"):
        ThreadedPipeline(cfg, source=None, transport=None, registry=None,
                         stops=frozenset(), profile=None)


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
    agg.add(keyed({"river flood": 2.0, "flood warning issued": 2.5}, agg.tokens))
    agg.add(keyed({"river flood": 1.0}, agg.tokens))
    assert agg.top() == [("river flood", 3.0), ("flood warning issued", 2.5)]


@pytest.mark.parametrize("n_phrases", [0, 7, 20, 21, 400])
def test_aggregator_top_matches_a_keyed_selection_over_ties(n_phrases):
    """``top`` cuts at the ``TOP_PHRASE_COUNT``-th largest sum and sorts
    only what reaches it. With many phrases on few distinct sums, ties
    straddle the cut; the result is the keyed ``nsmallest`` selection."""
    import heapq
    import random

    from blogwatch.pipeline import TOP_PHRASE_COUNT, _Aggregator
    rng = random.Random(n_phrases)
    phrases = [f"w{i} x{i % 7}" for i in range(n_phrases)]
    rng.shuffle(phrases)
    agg = _Aggregator()
    for _ in range(3):
        agg.add(keyed({p: float(rng.choice([1, 2, 3])) for p in phrases if rng.random() < 0.7},
                      agg.tokens))
    sums = {agg.tokens.phrase(key): s for key, s in agg._scores.items()}
    expected = heapq.nsmallest(TOP_PHRASE_COUNT, sums.items(), key=lambda kv: (-kv[1], kv[0]))
    assert agg.top() == expected
    if n_phrases == 400:
        cut = expected[-1][1]
        assert sum(v >= cut for v in sums.values()) > TOP_PHRASE_COUNT


def test_aggregator_top_breaks_ties_by_text_not_by_key():
    """Keys are packed ids, so their order need not be their texts' order:
    tokens here get ids in reverse text order, so among the 2-grams, and
    among the 3-grams, the order of keys and of table positions is the
    reverse of the texts'. With all sums equal, the report still lists the
    phrases in text order, across the cut and with a non-ASCII token among
    them."""
    import itertools

    from blogwatch.pipeline import TOP_PHRASE_COUNT, _Aggregator
    words = sorted(terms("Zulu Straße İstanbul beta alpha"))
    assert "i\u0307stanbul" in words
    agg = _Aggregator()
    for word in reversed(words):
        agg.tokens.key([word, word])
    pairs, triples = ([" ".join(g) for g in itertools.permutations(words, n)] for n in (2, 3))
    by_key = sorted(pairs + triples, key=lambda text: agg.tokens.key(text.split(" ")))
    assert by_key == sorted(pairs, reverse=True) + sorted(triples, reverse=True)
    agg.add(keyed(dict.fromkeys(by_key, 1.5), agg.tokens))
    assert agg.top() == [(text, 1.5) for text in sorted(by_key)[:TOP_PHRASE_COUNT]]


def test_aggregator_top_of_nothing_is_empty():
    from blogwatch.pipeline import _Aggregator
    assert _Aggregator().top() == []


def test_bounded_aggregator_keeps_the_sums_above_the_cut():
    """At ``2 * capacity`` phrases the table keeps those whose sums exceed
    the ``capacity``-th largest; a dropped phrase that comes back starts
    again from its new score."""
    from blogwatch.pipeline import _Aggregator
    agg = _Aggregator(capacity=3)
    agg.add(keyed({"a b": 5.0, "c d": 4.0, "e f": 1.0}, agg.tokens))
    agg.add(keyed({"a b": 1.0, "g h": 2.0}, agg.tokens))
    assert agg.top() == [("a b", 6.0), ("c d", 4.0), ("g h", 2.0), ("e f", 1.0)]
    agg.add(keyed({"i j": 3.0, "k l": 0.5}, agg.tokens))   # six phrases: the 3rd largest is 3.0
    assert agg.top() == [("a b", 6.0), ("c d", 4.0)]
    agg.add(keyed({"g h": 0.5}, agg.tokens))
    assert agg.top() == [("a b", 6.0), ("c d", 4.0), ("g h", 0.5)]


@pytest.mark.parametrize("capacity", [None, 40])
def test_aggregator_sums_as_adding_each_score_to_zero(capacity):
    """Over seeded documents, unbounded and through prunes, the table holds
    the sums of ``get(phrase, 0.0) + score`` bit for bit, in its order,
    though a new phrase stores the document's score object itself."""
    import random

    from blogwatch.pipeline import _Aggregator
    from test_phrases import STOPS, random_document
    rng = random.Random(17)
    agg, expected, prunes = _Aggregator(capacity), {}, 0
    for _ in range(40):
        phrases = extract_scored_phrases(random_document(rng, rng.randint(0, 200)), STOPS,
                                         agg.tokens, rng.randint(0, 20), rng.randint(0, 20))
        agg.add(phrases)
        for phrase, score in phrases.items():
            expected[phrase] = expected.get(phrase, 0.0) + score
        if capacity is not None and len(expected) >= 2 * capacity:
            cut = sorted(expected.values(), reverse=True)[capacity - 1]
            expected = {p: s for p, s in expected.items() if s > cut}
            prunes += 1
        assert [(p, s.hex()) for p, s in agg._scores.items()] == \
            [(p, s.hex()) for p, s in expected.items()]
    assert prunes > 5 if capacity else len(expected) > 500


def test_a_phrase_new_to_the_aggregator_keeps_the_documents_score_object():
    from blogwatch.pipeline import _Aggregator
    agg = _Aggregator()
    phrases = extract_scored_phrases("flood warning. flood warning again", frozenset(),
                                     agg.tokens)
    agg.add(keyed({"flood warning": 1.0}, agg.tokens))
    agg.add(phrases)
    key = agg.tokens.key
    assert agg._scores[key(["flood", "warning"])] == 3.0
    assert agg._scores[key(["warning", "again"])] is phrases[key(["warning", "again"])]
    assert agg._scores[key(["flood", "warning", "again"])] is \
        phrases[key(["flood", "warning", "again"])]


def test_a_mixed_world_run_keys_every_phrase_by_packed_ids(mixed_world, tmp_path, monkeypatch):
    """Guard: every phrase dict of the seed-7 mixed-200 batch run, and the
    run's phrase table at report time, is keyed by ints below ``2**60``
    against the run's one token table, so string keys or wider ids fail
    here instead of showing only in ``peak_mb``."""
    from blogwatch.harness import in_memory_transport
    from blogwatch.phrases import ScoredPhrases
    from blogwatch.pipeline import _Aggregator

    def packed(keys) -> bool:
        return all(type(key) is int and 0 < key < 1 << 60 for key in keys)

    original_add, original_top = _Aggregator.add, _Aggregator.top
    docs, wrong, tables = [], [], []

    def add(self, phrases):
        docs.append(len(phrases))
        if type(phrases) is not ScoredPhrases or phrases.tokens is not self.tokens \
                or not packed(phrases):
            wrong.append(phrases)
        original_add(self, phrases)

    def top(self):
        tables.append(self._scores)
        return original_top(self)

    monkeypatch.setattr(_Aggregator, "add", add)
    monkeypatch.setattr(_Aggregator, "top", top)
    cfg = write_world_inputs(mixed_world, tmp_path)
    report = run_batch(cfg, world=mixed_world, transport=in_memory_transport(mixed_world)).report
    assert report.pages_fetched == cfg.max_pages and report.top_phrases
    assert len(docs) > 100 and sum(docs) > 10_000 and wrong == []
    assert len(tables) == 1 and len(tables[0]) > 10_000 and packed(tables[0])


def test_a_batch_run_past_the_token_id_cap_gives_no_two_phrases_one_key(
        mixed_world, tmp_path, monkeypatch):
    """With the id cap patched below the run's vocabulary, a batch run
    issues every id up to it and ends. Each document's phrases, decoded,
    are those of an independent reference in which the tokens that got no
    id are gaps, one text per key, and so are the report's."""
    from blogwatch import crawler, pipeline
    from blogwatch import phrases as phrases_module
    from blogwatch.harness import in_memory_transport
    from test_phrases import sentence_reference_ngrams

    monkeypatch.setattr(phrases_module, "ID_CAP", 150)
    extracted = []

    def recording(text, stops, tokens, **degrees):
        result = extract_scored_phrases(text, stops, tokens, **degrees)
        extracted.append((text, stops, result))
        return result

    monkeypatch.setattr(pipeline, "extract_scored_phrases", recording)
    monkeypatch.setattr(crawler, "extract_scored_phrases", recording)
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.max_pages = 40
    report = run_batch(cfg, world=mixed_world, transport=in_memory_transport(mixed_world)).report
    assert report.pages_fetched == 40 and report.top_phrases

    tokens = extracted[0][2].tokens
    ids = tokens._ids
    assert sorted(ids.values()) == list(range(1, 150))

    class Gap:
        """A stop word, or a token that got no id."""
        def __init__(self, stops):
            self.stops = stops

        def __contains__(self, word):
            return word in self.stops or word not in ids

    cut = 0
    for text, stops, result in extracted:
        assert result.tokens is tokens
        assert set(texts(result)) == set(sentence_reference_ngrams(text, Gap(stops))), text
        cut += any(w not in ids and w not in stops for w in terms(text))
    assert cut > 100
    assert all(all(w in ids for w in phrase.split(" ")) for phrase, _ in report.top_phrases)


def test_zero_activity_report():
    report = RunReport()
    assert report.harvest_rate == 0.0
    text = render_report(report)
    assert "pages_fetched = 0" in text
    assert "top_phrase" not in text


def test_summary_text_combines_titles_and_descriptions():
    """Non-empty titles and stripped descriptions, one per line."""
    items = "".join(f"<item><title>{title}</title><link>/{i}</link>"
                    f"<description>{description}</description></item>"
                    for i, (title, description) in enumerate(
                        [("T1", "D1"), ("T2", "D2"), ("", "D3"), ("T4", "&lt;b&gt;&lt;/b&gt;")]))
    doc = parse_rss(f'<rss version="2.0"><channel>{items}</channel></rss>',
                    "http://b.example/")
    assert doc.text == "T1\nD1\nT2\nD2\nD3\nT4"


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


def test_batch_nb_runs_are_byte_identical(small_world, tmp_path):
    """The Naive Bayes gate, trained on the topic and background corpora,
    finds relevant pages and gives the same report on every run."""
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.classifier = "nb"
    cfg.max_pages = 30
    r1 = run_batch(cfg, world=small_world)
    r2 = run_batch(cfg, world=small_world)
    assert r1.report.pages_relevant > 0
    assert render_report(r1.report) == render_report(r2.report)
    # on this world the two gates decide differently, so the NB gate ran
    cfg.classifier = "vsm"
    assert run_batch(cfg, world=small_world).crawl_trace != r1.crawl_trace


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
    fulltext_sources = {src for (src, _dst), (_w, provenance)
                        in graph_state(result.graph).edges.items() if provenance == "fulltext"}
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
    assert g.stats()["nodes"] > 0


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

    pipe = ingest_pipeline(Source(), registry)
    q = pipe.queue = SeedQueue(capacity=4)
    pipe.dedupe = DedupeWindow(0.5)  # the clock stands still: repeats are deduped

    start = time.monotonic()
    done = threading.Event()

    def _run():
        pipe._poller()
        done.set()

    t = threading.Thread(target=_run, daemon=True)
    t.start()
    # nobody consumes the queue: ingest must still finish promptly
    assert done.wait(timeout=5.0), "ingest blocked on a stalled downstream stage"
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    assert q.dropped > 0
    assert pipe.metrics["seeds_offered"] == q.dropped + 4  # capacity left over
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

    pipe = ingest_pipeline(Source(), registry)
    q = pipe.queue = SeedQueue(capacity=10)
    pipe.dedupe = DedupeWindow(900.0)
    pipe._poller()
    assert pipe.metrics == {"cycles_malformed": 1, "seeds_unregistered": 3, "seeds_offered": 2}
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


def test_ping_poll_source_logs_transport_failures(caplog):
    """A poll whose transport raises ``FetchFailed`` is logged, and the
    next poll still comes."""
    doc = serialize_changes_feed([PingEvent("a", "http://a.example/", 3)])
    url = "http://ping.example/changes.xml"

    class DownOnceTransport:
        def __init__(self):
            self.calls = 0

        def fetch(self, url, max_bytes, timeout):
            self.calls += 1
            if self.calls == 1:
                raise FetchFailed(url, "connection refused")
            return 200, "application/xml", doc.encode("utf-8")

    transport = DownOnceTransport()
    source = PingPollSource(transport, url, poll_interval=0.01)
    with caplog.at_level(logging.WARNING, logger="blogwatch.pipeline"):
        got = next(source.cycles(threading.Event()))
    assert got == doc and transport.calls == 2
    assert any("connection refused" in r.getMessage() and url in r.getMessage()
               for r in caplog.records)


# ----------------------------------------------------------------------
# threaded pipeline

def _pipeline(world, cfg, source=None, transport=None, clock=None, host_delay=0.01):
    """A ``ThreadedPipeline`` over ``world``: its ping script and
    in-memory transport unless others are given."""
    from blogwatch.harness import in_memory_transport
    from blogwatch.pipeline import _build_models

    cfg.host_delay = host_delay  # wall-clock politeness would slow the test
    stops, profile, nb_model, glossary = _build_models(cfg)
    return ThreadedPipeline(
        cfg, source=source or PingScriptSource(world.ping_script),
        transport=transport or in_memory_transport(world),
        registry=load_registry(cfg.registry_path),
        stops=stops, profile=profile, nb_model=nb_model, glossary=glossary, clock=clock,
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


class PacedSource:
    """A world's ping script, one document every 0.15 s."""

    def __init__(self, world):
        self.world = world

    def cycles(self, stop_event):
        for _t, doc in self.world.ping_script:
            if stop_event.wait(0.15):
                return
            yield doc


def _interim_keys(caplog) -> set:
    """The keys of the last interim progress line logged."""
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("interim:")]
    assert lines
    return {part.split("=", 1)[0] for part in lines[-1][len("interim:"):].split()}


def test_interim_log_line_uses_report_keys(small_world, tmp_path, caplog):
    """The interim progress line names every scalar ``RunReport`` field."""
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 1
    cfg.fetch_workers = 1
    cfg.report_interval = 0.05
    with caplog.at_level(logging.INFO, logger="blogwatch.pipeline"):
        _pipeline(small_world, cfg, source=PacedSource(small_world)).run()
    assert _interim_keys(caplog) == {f.name for f in fields(RunReport) if f.name != "top_phrases"}


def test_a_run_starts_one_thread_per_stage_worker_and_reports_on_its_own(
        small_world, tmp_path, caplog, monkeypatch):
    """An online run with N summary and M fetch workers starts 1 + N + M
    threads, none of them a reporter: the thread that called ``run``
    logs the interim lines."""
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 3
    cfg.report_interval = 0.05
    start, started = threading.Thread.start, []

    def recorded_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    with caplog.at_level(logging.INFO, logger="blogwatch.pipeline"):
        _pipeline(small_world, cfg, source=PacedSource(small_world)).run()
    monkeypatch.undo()
    assert started == ["ingest", "summary-0", "summary-1", "fetch-0", "fetch-1", "fetch-2"]
    assert {r.threadName for r in caplog.records
            if r.getMessage().startswith("interim:")} == {threading.current_thread().name}
    assert _interim_keys(caplog) == {f.name for f in fields(RunReport) if f.name != "top_phrases"}


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


def test_interrupt_while_threads_start_stops_the_started_ones(small_world, tmp_path,
                                                              monkeypatch):
    """Ctrl-C that lands while ``run()`` is still starting its threads
    stops those already started."""
    class EndlessSource:
        def cycles(self, stop_event):
            while not stop_event.wait(0.05):
                yield small_world.ping_script[0][1]

    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    pipe = _pipeline(small_world, cfg, source=EndlessSource())
    start, starts = threading.Thread.start, []

    def interrupted_start(thread):
        starts.append(thread.name)
        if len(starts) == 4:
            raise KeyboardInterrupt
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", interrupted_start)
    with pytest.raises(KeyboardInterrupt):
        pipe.run()
    monkeypatch.undo()
    assert starts == ["ingest", "summary-0", "summary-1", "fetch-0"]
    assert not [t for t in threading.enumerate() if PIPELINE_THREAD.fullmatch(t.name)]


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
        url = original(self)
        calls.append(time.monotonic())
        (crawled_out if url is None and picked.is_set() else picked).set()
        return url

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


def test_summaries_go_first(mixed_world, tmp_path):
    """While one seed's feed fetch is held, no page probe starts, though
    the graph already holds unfetched nodes. The fetch is held until the
    queue is closed and every other seed is summarized, then until the
    fetch worker, woken, has looked again: it probed a page or waited once
    more. So what the test sees does not depend on thread timing. Once the
    fetch is released, the run drains."""
    from blogwatch.harness import in_memory_transport

    inner = in_memory_transport(mixed_world)
    first_feed = threading.Lock()   # taken by the feed fetch that is held
    holding = threading.Event()
    looked = threading.Event()   # the fetch worker probed a page or waited again
    probes_while_held = []
    at_hold = {}

    def hold(run):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with run.lock:
                counts = run.counts
                if (run.queue.closed
                        and counts.seeds_in + run.queue.dropped == run.metrics.get("seeds_offered")
                        and counts.summaries_ok + counts.summaries_failed == counts.seeds_in - 1):
                    break
            time.sleep(0.01)
        at_hold["unfetched"] = run.graph.stats().get("unfetched", 0)
        with run.changed:
            at_hold["watching"] = True
            run.changed.notify_all()
        at_hold["looked"] = looked.wait(10)

    class HoldingTransport:
        def fetch(self, url, max_bytes, timeout):
            if url.endswith("/rss") and first_feed.acquire(blocking=False):
                holding.set()
                try:
                    hold(pipe)
                finally:
                    holding.clear()
            return inner.fetch(url, max_bytes, timeout)

        def head(self, url, timeout):
            if holding.is_set():
                probes_while_held.append(url)
            looked.set()
            return inner.head(url, timeout)

    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 1
    cfg.max_pages = 1000   # above what the world supplies: the budget never ends the run
    pipe = _pipeline(mixed_world, cfg, source=PingScriptSource(mixed_world.ping_script[:1]),
                     transport=HoldingTransport())
    changed = pipe.changed
    original_wait = changed.wait

    def watched_wait(timeout=None):
        if at_hold.get("watching"):
            looked.set()
        return original_wait(timeout)

    changed.wait = watched_wait
    results = []
    runner = threading.Thread(target=lambda: results.append(pipe.run()), daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert at_hold["looked"]
    assert probes_while_held == []
    assert at_hold["unfetched"] > 0
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


class _OpenSource:
    """Replays a world's ping cycles, then sets ``replayed`` and stays
    open until the run stops, so the end of the input closes no queue."""

    def __init__(self, script):
        self.script = script
        self.replayed = threading.Event()

    def cycles(self, stop_event):
        for _t, doc in self.script:
            yield doc
        self.replayed.set()
        stop_event.wait()


def test_a_stopped_run_counts_each_seed_still_queued_as_dropped(mixed_world, tmp_path):
    """Seeds still queued when a run is stopped count as dropped, so
    ``seeds_in + seeds_dropped`` is every seed offered. The one summary
    worker's first fetch is held until the source has offered its cycle
    and ``stop()`` is called, so the run takes in exactly one seed."""
    from blogwatch.harness import in_memory_transport

    inner = in_memory_transport(mixed_world)
    entered, release = threading.Event(), threading.Event()

    class HeldTransport:
        def fetch(self, url, max_bytes, timeout):
            if not entered.is_set():
                entered.set()
                release.wait(10)
            return inner.fetch(url, max_bytes, timeout)

        def head(self, url, timeout):
            return inner.head(url, timeout)

    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.summary_workers = 1
    cfg.fetch_workers = 1
    source = _OpenSource(mixed_world.ping_script[:1])
    pipe = _pipeline(mixed_world, cfg, source=source, transport=HeldTransport())
    results = []
    runner = threading.Thread(target=lambda: results.append(pipe.run()), daemon=True)
    runner.start()
    try:
        assert entered.wait(10) and source.replayed.wait(10)
        pipe.stop()
    finally:
        release.set()
        runner.join(timeout=30)
    assert not runner.is_alive()
    report = results[0].report
    offered = pipe.metrics["seeds_offered"]
    assert report.seeds_in == 1 and offered > 1
    assert report.seeds_in + report.seeds_dropped == offered


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


# ----------------------------------------------------------------------
# the seed path: a seed's work ends at its graph insert

def _exact_top(phrase_dicts) -> list:
    """The top phrases of the exact sums over ``phrase_dicts``, added in
    order."""
    totals = {}
    for phrases in phrase_dicts:
        for phrase, score in texts(phrases).items():
            totals[phrase] = totals.get(phrase, 0.0) + score
    return sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_PHRASE_COUNT]


def test_seed_latency_ends_at_the_graph_insert(small_world, tmp_path, monkeypatch):
    """With every phrase-table add costing 1 s of simulated time, no seed
    of a queued cycle of five waits for the adds of the seeds before it:
    their phrases wait while a seed is pending, and the claim that starts
    the crawl adds them, so the top phrases are batch's."""
    from blogwatch.clock import SimClock
    from blogwatch.pipeline import _Aggregator

    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = cfg.fetch_workers = 1
    cfg.max_pages = 20
    cfg.host_delay = 0.01
    registry = load_registry(cfg.registry_path)
    urls = [url for url in parse_changes_feed(small_world.ping_script[0][1])
            if match_registry([url], registry)][:5]
    events = [PingEvent(url, url, 0) for url in urls]
    world = replace(small_world, ping_script=[(0.0, serialize_changes_feed(events))])
    batch = run_batch(cfg, world=world)

    clock = SimClock()
    original_add = _Aggregator.add

    def slow_add(self, phrases):
        original_add(self, phrases)
        clock.sleep(1.0)

    monkeypatch.setattr(_Aggregator, "add", slow_add)
    pipe = _pipeline(world, cfg, source=SimScriptSource(world.ping_script, clock), clock=clock)
    pipe.queue = ClosedFirstQueue(SEED_QUEUE_CAPACITY)
    result = pipe.run()
    assert result.report.summaries_ok == len(pipe.latencies) == 5
    assert max(pipe.latencies) < 1.0, list(pipe.latencies)
    assert result.report.pages_fetched == batch.report.pages_fetched > 0
    assert result.report.top_phrases == batch.report.top_phrases


def test_fetch_workers_are_woken_once_a_burst_of_seeds_ends(small_world, tmp_path):
    """No claim can succeed while a seed is pending, so a summary worker
    wakes the fetch workers when the last pending seed ends, and once more
    as it leaves its loop: two wake-ups for a burst of queued seeds, not
    one per seed."""
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 1
    cfg.fetch_workers = 2
    cfg.max_pages = 5
    pipe = _pipeline(small_world, cfg)
    pipe.queue = ClosedFirstQueue(SEED_QUEUE_CAPACITY)
    notify, notifiers = pipe.notify, []

    def counted():
        notifiers.append(threading.current_thread().name)
        notify()

    pipe.notify = counted
    result = pipe.run()
    assert result.report.seeds_in >= 3
    assert result.report.pages_fetched == 5
    assert notifiers.count("summary-0") == 2


def test_an_interim_report_includes_the_summaries_not_yet_in_the_table(
        small_world, tmp_path, monkeypatch):
    """The summaries that end while seeds are pending wait in the run's
    backlog for the phrase table. A report taken while the third seed's
    summary is held adds them first, so its top phrases are the exact sums
    of the first two summaries."""
    from blogwatch.graph import FrontierGraph
    from blogwatch.harness import in_memory_transport

    inserted = []
    original_insert = FrontierGraph.insert_summary

    def insert_summary(self, doc, phrases):
        inserted.append(phrases)
        return original_insert(self, doc, phrases)

    monkeypatch.setattr(FrontierGraph, "insert_summary", insert_summary)
    inner = in_memory_transport(small_world)
    held, release = threading.Event(), threading.Event()

    class HoldingTransport:
        def fetch(self, url, max_bytes, timeout):
            if len(inserted) == 2 and not held.is_set():
                held.set()
                release.wait(10)
            return inner.fetch(url, max_bytes, timeout)

        def head(self, url, timeout):
            return inner.head(url, timeout)

    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = cfg.fetch_workers = 1
    cfg.max_pages = 5
    pipe = _pipeline(small_world, cfg, transport=HoldingTransport())
    pipe.queue = ClosedFirstQueue(SEED_QUEUE_CAPACITY)
    results = []
    runner = threading.Thread(target=lambda: results.append(pipe.run()), daemon=True)
    runner.start()
    try:
        assert held.wait(10)
        with pipe.lock:
            backlog = list(pipe.backlog)
        report = pipe.report()
        with pipe.lock:
            left = list(pipe.backlog)
    finally:
        release.set()
        runner.join(timeout=30)
    assert not runner.is_alive()
    assert backlog == inserted[:2] and left == []
    assert report.top_phrases == _exact_top(inserted[:2])
    assert results[0].report.pages_fetched == 5


def test_a_burst_that_ends_in_failed_summaries_still_adds_its_backlog(
        small_world, tmp_path, monkeypatch):
    """Every summary after the third fails. The backlog of the three that
    succeeded still goes into the phrase table before the crawl, as the
    claim that starts it adds the backlog: the first page probe finds it
    empty."""
    from blogwatch.graph import FrontierGraph
    from blogwatch.harness import in_memory_transport

    inserted = []
    original_insert = FrontierGraph.insert_summary

    def insert_summary(self, doc, phrases):
        inserted.append(phrases)
        return original_insert(self, doc, phrases)

    monkeypatch.setattr(FrontierGraph, "insert_summary", insert_summary)
    inner = in_memory_transport(small_world)
    backlog_at_probe = []

    class FailingTransport:
        def fetch(self, url, max_bytes, timeout):
            if len(inserted) >= 3 and threading.current_thread().name.startswith("summary"):
                return 404, "text/html", b""
            return inner.fetch(url, max_bytes, timeout)

        def head(self, url, timeout):
            backlog_at_probe.append(len(pipe.backlog))
            return inner.head(url, timeout)

    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = cfg.fetch_workers = 1
    cfg.max_pages = 5
    pipe = _pipeline(small_world, cfg, transport=FailingTransport())
    pipe.queue = ClosedFirstQueue(SEED_QUEUE_CAPACITY)
    result = pipe.run()
    assert result.report.summaries_ok == 3 and result.report.summaries_failed > 0
    assert backlog_at_probe and set(backlog_at_probe) == {0}


def test_a_summary_that_ends_while_another_seed_is_in_flight_waits(small_world, tmp_path,
                                                                  monkeypatch):
    """Two seeds of one cycle go to two summary workers: the first's
    summary fetch waits until the second's has started, and the second's
    is held until the first's graph insert has returned. The first
    summary's phrases then wait in the backlog, as a seed is still
    pending, and the phrase table stays empty. The claim that starts
    the crawl adds them, so the first page probe finds the backlog empty
    and the top phrases are batch's."""
    from urllib.parse import urlsplit

    from blogwatch.errors import BlogwatchError
    from blogwatch.feeds import fetch_summary
    from blogwatch.graph import FrontierGraph
    from blogwatch.harness import in_memory_transport

    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = 2
    cfg.fetch_workers = 1
    cfg.max_pages = 20
    cfg.host_delay = 0.01
    registry = load_registry(cfg.registry_path)
    inner = in_memory_transport(small_world)

    def summarized(url):
        try:
            return bool(fetch_summary(match_registry([url], registry)[0], inner).text)
        except BlogwatchError:
            return False

    urls = [url for url in parse_changes_feed(small_world.ping_script[0][1])
            if match_registry([url], registry) and summarized(url)][:2]
    first_host, second_host = (urlsplit(url).hostname for url in urls)
    assert first_host != second_host
    events = [PingEvent(url, url, 0) for url in urls]
    world = replace(small_world, ping_script=[(0.0, serialize_changes_feed(events))])
    batch = run_batch(cfg, world=world)

    inserted = []
    original_insert = FrontierGraph.insert_summary

    def insert_summary(self, doc, phrases):
        report = original_insert(self, doc, phrases)
        inserted.append(phrases)
        return report

    monkeypatch.setattr(FrontierGraph, "insert_summary", insert_summary)
    hold_first, hold_second = threading.Lock(), threading.Lock()
    second_started, held, release = threading.Event(), threading.Event(), threading.Event()
    backlog_at_probe = []

    class HoldingTransport:
        def fetch(self, url, max_bytes, timeout):
            host = urlsplit(url).hostname
            if host == first_host and hold_first.acquire(blocking=False):
                second_started.wait(10)
            if host == second_host and hold_second.acquire(blocking=False):
                second_started.set()
                deadline = time.monotonic() + 10
                while not inserted and time.monotonic() < deadline:
                    time.sleep(0.001)
                held.set()
                release.wait(10)
            return inner.fetch(url, max_bytes, timeout)

        def head(self, url, timeout):
            backlog_at_probe.append(len(pipe.backlog))
            return inner.head(url, timeout)

    pipe = _pipeline(world, cfg, transport=HoldingTransport())
    pipe.queue = ClosedFirstQueue(SEED_QUEUE_CAPACITY)
    results = []
    runner = threading.Thread(target=lambda: results.append(pipe.run()), daemon=True)
    runner.start()
    try:
        assert held.wait(10) and second_started.is_set()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with pipe.lock:
                if pipe.counts.summaries_ok:
                    backlog, scores = list(pipe.backlog), dict(pipe.agg._scores)
                    break
            time.sleep(0.001)
    finally:
        release.set()
        runner.join(timeout=30)
    assert not runner.is_alive()
    assert len(inserted) == 2 and inserted[0]
    assert [id(phrases) for phrases in backlog] == [id(inserted[0])]
    assert scores == {}
    assert backlog_at_probe and backlog_at_probe[0] == 0
    assert results[0].report.pages_fetched == batch.report.pages_fetched > 0
    assert results[0].report.top_phrases == batch.report.top_phrases


def test_every_phrase_table_call_runs_under_the_run_lock(mixed_world, tmp_path, monkeypatch):
    """The phrase table is run state, guarded by the run's lock alone.
    Under a one-microsecond thread switch interval, with 2 summary and 2
    fetch workers and a capacity of 8 that prunes the table every few
    adds, every ``_Aggregator.add`` and ``top`` runs under the lock, and
    the report's top phrases equal a single-threaded replay of the adds in
    the order they were made: no add went into a table a prune replaced.
    The capacity also makes the run replace its token table again and
    again, and the replay, with a table of its own, re-keys every dict."""
    from blogwatch import pipeline
    from blogwatch.pipeline import _Aggregator

    monkeypatch.setattr(pipeline, "ONLINE_PHRASE_CAPACITY", 8)
    original_add, original_top = _Aggregator.add, _Aggregator.top
    locked, adds, tables = [], [], set()

    def add(self, phrases):
        locked.append(pipe.lock.locked())
        adds.append(phrases)
        tables.add(self.tokens)
        original_add(self, phrases)

    def top(self):
        locked.append(pipe.lock.locked())
        return original_top(self)

    monkeypatch.setattr(_Aggregator, "add", add)
    monkeypatch.setattr(_Aggregator, "top", top)
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.summary_workers = cfg.fetch_workers = 2
    cfg.max_pages = 60
    pipe = _pipeline(mixed_world, cfg, host_delay=0.0)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: results.append(pipe.run()), daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    hung = runner.is_alive()
    pipe.stop()
    runner.join(timeout=5)
    assert not hung, "run() did not end"
    assert results[0].report.pages_fetched == 60
    assert len(locked) > len(adds) > 60 and all(locked)
    assert len(tables) > 3
    replay = _Aggregator(8)
    for phrases in adds:
        original_add(replay, phrases)
    assert results[0].report.top_phrases == original_top(replay)


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
        events.append(("insert", doc.url))
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


# ----------------------------------------------------------------------
# the records a run keeps from its crawl steps

def _store(path) -> tuple:
    """(the index lines, {content file name: bytes}) of a page store."""
    index = (path / "index.tsv").read_text(encoding="utf-8").splitlines()
    content = {f.name: f.read_bytes() for f in sorted((path / "content").iterdir())}
    return index, content


def test_batch_page_store_follows_the_crawl_trace(small_world, tmp_path):
    """A batch run stores each relevant page once, in crawl-trace order,
    its text in a file named by the text's SHA-256; a second run writes a
    byte-identical store."""
    import hashlib

    cfg = write_world_inputs(small_world, tmp_path)
    cfg.max_pages = 30
    stores = []
    for name in ("first", "second"):
        cfg.page_store_path = str(tmp_path / name)
        result = run_batch(cfg, world=small_world)
        stores.append(_store(tmp_path / name))
    index, content = stores[0]
    assert [line.split("\t")[0] for line in index] == \
        [url for url, relevant in result.crawl_trace if relevant]
    assert len(index) == result.report.pages_relevant > 0
    assert content
    for name, data in content.items():
        assert name == hashlib.sha256(data).hexdigest() + ".txt"
    assert stores[1] == stores[0]


def test_threaded_run_stores_each_relevant_page(small_world, tmp_path):
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = cfg.fetch_workers = 2
    cfg.max_pages = 30
    cfg.page_store_path = str(tmp_path / "store")
    result = _threaded_run(small_world, cfg)
    index, _content = _store(tmp_path / "store")
    assert len(index) == result.report.pages_relevant > 0
    assert sorted(line.split("\t")[0] for line in index) == \
        sorted(url for url, relevant in result.crawl_trace if relevant)


class _EmptySource:
    """An ingest source that ends without a cycle, after ``delay`` s."""

    def __init__(self, delay):
        self.delay = delay

    def cycles(self, stop_event):
        stop_event.wait(self.delay)
        return iter(())


def test_threaded_run_over_no_seeds_ends_under_fast_switching(small_world, tmp_path):
    """With no seed, the run ends by itself: ingest closes the queue, the
    summary workers leave their loops and notify the run, and the fetch
    workers find the crawl drained. Forty runs under a one-microsecond
    switch interval interleave the close, the notifications and the claims
    in many orders; the source ends at once or after the fetch workers
    wait in ``claim``."""
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = cfg.fetch_workers = 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for i in range(40):
            source = PingScriptSource([]) if i % 2 else _EmptySource(0.002)
            hung, outcomes = _run_expecting_error(_pipeline(small_world, cfg, source=source))
            assert not hung, "run() did not end"
            assert outcomes[0].report.seeds_in == outcomes[0].report.pages_fetched == 0
    finally:
        sys.setswitchinterval(interval)
