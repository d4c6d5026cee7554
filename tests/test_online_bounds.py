"""Memory bounds of an online run, and the exact phrase sums of a batch run.

The soak test drives ``ThreadedPipeline`` over blogs that never repeat and
checks after every ping cycle that the phrase table and its backlog, the
latency record and the graph stay within their bounds while the run keeps
adding nodes and fetching pages, and after every phrase-table add that the
token table does; URL normalization keeps no state.
``crawl_trace`` still grows with the run in both modes: bounding it waits
for a streamed trace file (ROADMAP item 5), so it is not checked here.
"""
import functools
from urllib.parse import urlsplit
from xml.sax.saxutils import escape

from blogwatch import pipeline
from blogwatch.graph import FrontierGraph
from blogwatch.harness import in_memory_transport
from blogwatch.phrases import load_stoplist
from blogwatch.ping import BlogRegistry, PingEvent, load_registry, serialize_changes_feed
from blogwatch.pipeline import ThreadedPipeline, _Aggregator, _build_models, run_batch
from blogwatch.relevance import build_topic_profile

from conftest import ClosedFirstQueue, PingScriptSource, texts, write_world_inputs

SOAK_CYCLES = 40
BLOGS_PER_CYCLE = 4
CYCLE_INTERVAL = 0.05
POSTS_PER_BLOG = 3
WORDS_PER_TEXT = 12
MAX_NODES = 200
CAPACITY = 32
WINDOW = 16


def _word(n: int) -> str:
    """A letters-only token of its own for every ``n``."""
    letters = []
    while True:
        n, r = divmod(n, 26)
        letters.append(chr(ord("a") + r))
        if not n:
            return "zq" + "".join(letters)


def _words(blog: int, text: int) -> str:
    base = (blog * (POSTS_PER_BLOG + 2) + text) * WORDS_PER_TEXT
    return " ".join(_word(base + j) for j in range(WORDS_PER_TEXT))


class EndlessBlogs:
    """Serves ``http://bN.soak.example/`` for every N: the blog URL is its
    RSS feed, each post's description links to the post's page, and a
    post page holds topic text, a word of its own and links to two leaf
    pages. Every blog has words of its own, so each summary and each page
    brings new tokens and new phrases. It keeps no access log, which would
    grow with the run."""

    def __init__(self, topic_text: str):
        self.topic_text = topic_text

    @staticmethod
    def _description(blog, post, home):
        return f'{_words(blog, post + 1)} <a href="{home}p{post}">more</a>'

    def _page(self, url):
        parts = urlsplit(url)
        blog = int(parts.hostname.split(".")[0][1:])
        home = f"http://{parts.hostname}/"
        if parts.path == "/":
            items = "".join(
                f"<item><title>{_words(blog, i)}</title><link>{home}p{i}</link>"
                f"<description>{escape(self._description(blog, i, home))}</description></item>"
                for i in range(POSTS_PER_BLOG))
            return "application/rss+xml", (
                f'<?xml version="1.0" encoding="utf-8"?><rss version="2.0"><channel>'
                f"<title>blog {blog}</title><link>{home}</link>{items}</channel></rss>")
        if parts.path.count("/") == 1:
            post = int(parts.path[2:])
            leaves = "".join(f'<a href="{url}/leaf{k}">leaf {k}</a>' for k in range(2))
            serial = _word(10**6 + blog * POSTS_PER_BLOG + post)
            return "text/html", (f"<html><body><p>{escape(self.topic_text)} {serial}</p>"
                                 f"<p>{leaves}</p></body></html>")
        return "text/html", f"<html><body><p>{_words(blog, POSTS_PER_BLOG + 1)}</p></body></html>"

    def fetch(self, url, max_bytes, timeout):
        ctype, body = self._page(url)
        return 200, ctype, body.encode("utf-8")[:max_bytes + 1]

    def head(self, url, timeout):
        ctype, body = self._page(url)
        return 200, ctype, len(body.encode("utf-8"))


class AnnouncingSource:
    """Ping source announcing ``BLOGS_PER_CYCLE`` blogs never seen before
    every ``CYCLE_INTERVAL`` seconds; ``before_cycle`` runs before each
    cycle is handed over."""

    def __init__(self, before_cycle):
        self.before_cycle = before_cycle

    def cycles(self, stop_event):
        for c in range(SOAK_CYCLES):
            if stop_event.wait(CYCLE_INTERVAL):
                return
            self.before_cycle()
            blogs = range(c * BLOGS_PER_CYCLE, (c + 1) * BLOGS_PER_CYCLE)
            yield serialize_changes_feed(
                [PingEvent(f"blog {n}", f"http://b{n}.soak.example/", 0) for n in blogs])


def _recording_add(monkeypatch, tokens_after=None) -> list:
    """Every phrase dict a run passes to ``_Aggregator.add``, keyed by
    phrase text; with a ``tokens_after`` list, each add also appends the
    token table it leaves and that table's size then."""
    calls = []
    original = _Aggregator.add

    def add(self, phrases):
        calls.append(texts(phrases))
        original(self, phrases)
        if tokens_after is not None:
            tokens_after.append((self.tokens, len(self.tokens)))

    monkeypatch.setattr(_Aggregator, "add", add)
    return calls


def test_online_run_stays_bounded_and_keeps_crawling(small_world, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "ONLINE_PHRASE_CAPACITY", CAPACITY)
    monkeypatch.setattr(pipeline, "LATENCY_WINDOW", WINDOW)
    monkeypatch.setattr(pipeline, "FrontierGraph",
                        functools.partial(FrontierGraph, max_nodes=MAX_NODES))
    tokens_after = []
    calls = _recording_add(monkeypatch, tokens_after)
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.mode = "online"
    cfg.ping_url = "memory://changes"
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    cfg.max_pages = 1_000_000   # the budget never ends the run
    cfg.host_delay = 0.0
    samples = []

    def sample():
        with pipe.lock:
            # what the last add left: documents keyed since may have
            # issued more, which the next add bounds again
            tokens = tokens_after[-1][1] if tokens_after else 0
            phrases = len(pipe.agg._scores)
            backlog = len(pipe.backlog)
            latencies = len(pipe.latencies)
            fetched = pipe.counts.pages_fetched
        samples.append({
            "phrases": phrases, "tokens": tokens, "backlog": backlog, "latencies": latencies,
            "nodes": pipe.graph.stats()["nodes"],
            "inserted": pipe.graph._seq, "fetched": fetched,
        })

    pipe = ThreadedPipeline(
        cfg, source=AnnouncingSource(sample), transport=EndlessBlogs(small_world.topic_corpus[0]),
        registry=BlogRegistry(entries=frozenset({"*.soak.example"})),
        stops=load_stoplist(),
        profile=build_topic_profile(small_world.topic_corpus, small_world.background_corpus,
                                    cfg.threshold))
    result = pipe.run()

    assert len(samples) == SOAK_CYCLES
    for s in samples:
        assert s["phrases"] < 2 * CAPACITY, s
        assert s["tokens"] <= 12 * CAPACITY, s
        assert s["backlog"] <= pipeline.SEED_QUEUE_CAPACITY, s
        assert s["latencies"] <= WINDOW, s
        assert s["nodes"] <= MAX_NODES, s
    # the bounds were reached, not merely respected
    assert len({p for phrases in calls for p in phrases}) > 10 * CAPACITY
    assert all(size <= 12 * CAPACITY for _table, size in tokens_after)
    assert max(s["tokens"] for s in samples) > 6 * CAPACITY
    assert len({table for table, _size in tokens_after}) > 3
    assert len({w for phrases in calls for p in phrases for w in p.split(" ")}) > \
        10 * 12 * CAPACITY
    assert max(s["latencies"] for s in samples) == WINDOW
    assert result.report.summaries_ok > WINDOW
    assert max(s["inserted"] for s in samples) > 2 * MAX_NODES
    # still taking in new nodes and fetching pages in the last five cycles
    before, after = samples[-6], samples[-1]
    assert after["inserted"] > before["inserted"], samples[-6:]
    assert after["fetched"] > before["fetched"], samples[-6:]


def test_batch_top_phrases_are_exact_sums_whatever_the_capacity(
        mixed_world, tmp_path, monkeypatch):
    """Batch keeps every phrase: its top phrases equal an exact sum over
    every phrase dict the run passed to ``_Aggregator.add``, even with an
    online capacity far below the run's phrase count."""
    monkeypatch.setattr(pipeline, "ONLINE_PHRASE_CAPACITY", CAPACITY)
    calls = _recording_add(monkeypatch)
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.max_pages = 40
    result = run_batch(cfg, world=mixed_world, transport=in_memory_transport(mixed_world))

    totals = {}
    for phrases in calls:
        for phrase, score in phrases.items():
            totals[phrase] = totals.get(phrase, 0.0) + score
    assert len(totals) > 2 * CAPACITY
    expected = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:pipeline.TOP_PHRASE_COUNT]
    assert result.report.top_phrases == expected


def test_an_overloaded_run_caps_the_phrase_backlog_and_loses_no_phrase(
        small_world, tmp_path, monkeypatch):
    """While seeds stay pending, the summaries' phrase dicts wait in the
    run's backlog, and a backlog of ``SEED_QUEUE_CAPACITY`` dicts goes
    into the phrase table at once. Every seed is queued before the one
    summary worker takes the first, so no claim adds the backlog before
    the last seed ends: the backlog fills to its cap of 4 again and again,
    and still each summary's dict is added exactly once and the top
    phrases are exact sums."""
    monkeypatch.setattr(pipeline, "SEED_QUEUE_CAPACITY", 4)
    monkeypatch.setattr(pipeline, "ONLINE_PHRASE_CAPACITY", 10**6)   # no prune
    inserted, adds = [], []
    original_insert, original_add = FrontierGraph.insert_summary, _Aggregator.add

    def insert_summary(self, doc, phrases):
        inserted.append(phrases)
        return original_insert(self, doc, phrases)

    def add(self, phrases):
        adds.append((phrases, len(pipe.backlog)))
        original_add(self, phrases)

    monkeypatch.setattr(FrontierGraph, "insert_summary", insert_summary)
    monkeypatch.setattr(_Aggregator, "add", add)
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.summary_workers = cfg.fetch_workers = 1
    cfg.max_pages = 10
    stops, profile, _nb_model, _glossary = _build_models(cfg)
    pipe = ThreadedPipeline(cfg, source=PingScriptSource(small_world.ping_script),
                            transport=in_memory_transport(small_world),
                            registry=load_registry(cfg.registry_path),
                            stops=stops, profile=profile)
    pipe.queue = ClosedFirstQueue(1000)
    result = pipe.run()

    assert result.report.seeds_dropped == 0
    assert result.report.summaries_ok == len(inserted) > 3 * 4
    summary_adds = [(phrases, backlog) for phrases, backlog in adds if backlog]
    assert [id(phrases) for phrases, _backlog in summary_adds] == [id(p) for p in inserted]
    assert max(backlog for _phrases, backlog in summary_adds) == 4
    totals = {}
    for phrases, _backlog in adds:
        for phrase, score in texts(phrases).items():
            totals[phrase] = totals.get(phrase, 0.0) + score
    expected = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:pipeline.TOP_PHRASE_COUNT]
    assert result.report.top_phrases == expected
