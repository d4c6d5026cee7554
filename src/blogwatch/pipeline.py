"""Orchestration of the three layers, resource governance, and reporting.

Two execution modes share the same stage logic. A ``_Run`` holds a
run: the throttled transport, graph and crawler wiring, the registry and
dedupe window, the seed queue, and the stages: ``ingest`` (layer 1 for
one poll cycle), the summary step, and the crawl loop's ``claim``
(frontier pick and page slot under the run's lock) and crawl step. It
keeps the records of what each stage returns (layer-1 counts, report
counts, phrase table, page store, crawl trace) and writes the final
report and checkpoint. A run's result is that report, its graph and its
crawl trace. The modes differ only in how they call the stages:

* batch: ``run_batch`` loops over the stages on a simulated clock, no
  threads; its seed queue stays empty, closed once the script is
  replayed — runs are bit-reproducible for a given fixture and config
  (a run draws no random numbers);
* online: ``ThreadedPipeline``, a ``_Run`` with threads, runs an ingest
  thread, N summary workers, and M fetch workers joined by a bounded
  drop-oldest seed queue. The poller never blocks on a slow downstream
  stage: overflow seeds are dropped and counted, because stale seeds are
  the cheapest casualty, and so are the seeds still queued when the run
  stops.
  No worker polls: summary workers block on the queue, and fetch
  workers wait in ``_Run.claim`` for a change that can give them work.
  Summaries go first: no crawl step starts while a seed is pending
  (queued, or taken and not yet summarized), as in batch. A seed's
  latency ends at its graph insert; its phrases wait in the run's
  backlog while a seed is pending, and the claim that starts a crawl
  step adds them. ``stop()`` is the one early end; ``run`` raises the
  first thread error once the report and checkpoint are written. An
  online ``_Run`` is ``bounded``: its phrase table keeps the phrases with
  the ``ONLINE_PHRASE_CAPACITY`` largest sums (see ``_Aggregator``) and
  its seed latencies the last ``LATENCY_WINDOW`` seeds, so neither grows
  with the run. Batch keeps both whole, so its report stays exact.
"""
import heapq
import logging
import statistics
import threading
from collections import Counter, deque
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .clock import SimClock, WallClock
from .crawler import FocusedCrawler, PageStore
from .errors import ConfigError, FetchFailed, MalformedFeed
from .feeds import fetch_summary
from .graph import FrontierGraph
from .harness import InMemoryTransport, load_served_world
from .phrases import extract_scored_phrases, load_stoplist
from .ping import DedupeWindow, load_registry, match_registry, parse_changes_feed
from .relevance import IRRELEVANT, RELEVANT, build_topic_profile, nb_train
from .settings import finite_float, read_corpus, read_pairs, read_settings
from .transport import MAX_BYTES, TIMEOUT, ThrottledTransport

logger = logging.getLogger(__name__)

# simulated seconds a batch run charges once per process_seed and once per
# crawl_step, however many requests (one to four) the step makes
SIM_FETCH_COST = 0.01

TOP_PHRASE_COUNT = 20

# online only: the phrase table keeps under twice this many phrases, and
# the seed latency record holds this many latest seeds; pipebench reads
# that record, so the window stays above every workload's seed count
ONLINE_PHRASE_CAPACITY = 4096
LATENCY_WINDOW = 4096

SEED_QUEUE_CAPACITY = 256  # online only: seeds queued between layers 1 and 2
DEDUPE_WINDOW = 900.0      # seconds a re-announced seed is suppressed


# ----------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    registry_path: str = ""
    stoplist_path: str = ""            # empty -> packaged English list
    topic_corpus_path: str = ""
    background_corpus_path: str = ""
    classifier: str = "vsm"
    threshold: float = 0.30
    bandwidth_limit: int = None        # bytes/second; None = unlimited
    summary_workers: int = 4           # online only
    fetch_workers: int = 4             # online only
    max_pages: int = 100
    report_interval: float = 30.0      # online only
    mode: str = "batch"
    fixture_path: str = ""
    ping_url: str = ""
    poll_interval: float = 60.0
    host_delay: float = 1.0
    glossary_path: str = ""
    report_path: str = ""
    checkpoint_path: str = ""
    page_store_path: str = ""

    def validate(self):
        if self.mode not in ("batch", "online"):
            raise ConfigError(f"mode must be batch or online, not {self.mode!r}")
        if self.classifier not in ("vsm", "nb"):
            raise ConfigError(f"classifier must be vsm or nb, not {self.classifier!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must lie in [0, 1]")
        for key in ("summary_workers", "fetch_workers", "max_pages"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("report_interval", "poll_interval"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0")
        if self.bandwidth_limit is not None and self.bandwidth_limit <= 0:
            raise ConfigError("bandwidth_limit must be positive (omit for unlimited)")
        if self.host_delay < 0:
            raise ConfigError("host_delay must be >= 0 (0 disables politeness)")
        if self.mode == "batch" and not self.fixture_path:
            raise ConfigError("batch mode requires fixture_path")
        if self.mode == "online" and not self.ping_url:
            raise ConfigError("online mode requires ping_url")
        if not self.registry_path:
            raise ConfigError("registry_path is required")
        if not self.topic_corpus_path or not self.background_corpus_path:
            raise ConfigError("topic and background corpus paths are required")


def load_config(path) -> RunConfig:
    """Parse a ``key = value`` config file, each value typed by its
    ``RunConfig`` field; unknown keys and non-finite numbers fail fast. A
    ``bandwidth_limit`` of 0 means unlimited, and relative paths are
    resolved against the file's directory."""
    settings = read_settings(path, RunConfig)
    if settings.get("bandwidth_limit") == 0:
        settings["bandwidth_limit"] = None
    base = Path(path).resolve().parent
    for key, value in settings.items():
        if key.endswith("_path") and value and not Path(value).is_absolute():
            settings[key] = str((base / value).resolve())
    return RunConfig(**settings)


# ----------------------------------------------------------------------
# report

@dataclass
class RunReport:
    elapsed: float = 0.0
    seeds_in: int = 0
    seeds_dropped: int = 0
    summaries_ok: int = 0
    summaries_failed: int = 0
    pages_fetched: int = 0
    pages_relevant: int = 0
    harvest_rate: float = 0.0
    bytes_fetched: int = 0
    max_queue_depth: int = 0
    seed_latency_median: float = 0.0
    top_phrases: list = field(default_factory=list)   # [(phrase text, score), ...]


def _report_scalars() -> dict:
    """Name -> type of each ``RunReport`` field but ``top_phrases``, in
    field order."""
    return {f.name: f.type for f in fields(RunReport) if f.name != "top_phrases"}


def render_report(report: RunReport) -> str:
    """Machine-readable key-value rendering (stable across runs for equal
    inputs)."""
    lines = ["report_version = 1"]
    for key in _report_scalars():
        lines.append(f"{key} = {getattr(report, key)!r}")
    for i, (phrase, score) in enumerate(report.top_phrases, 1):
        lines.append(f"top_phrase.{i:02d} = {score!r}\t{phrase}")
    return "\n".join(lines) + "\n"


def _scored_phrase(value) -> tuple:
    score, sep, phrase = value.partition("\t")
    if not sep:
        raise ValueError(f"expected score<TAB>phrase, got {value!r}")
    return phrase, finite_float(score)


def _report_version(value) -> int:
    if int(value) != 1:
        raise ValueError(f"expected 1, got {value!r}")
    return 1


def parse_report(path, lines=None) -> RunReport:
    """Read a ``render_report`` file (or its ``lines``) by ``read_pairs``:
    a line it rejects, a key set twice or a ``report_version`` other than
    1 raises ``ConfigError`` naming ``path:line``, and a file missing a
    scalar key one naming ``path``."""
    types = {"report_version": _report_version, **_report_scalars(),
             **{f"top_phrase.{i:02d}": _scored_phrase for i in range(1, TOP_PHRASE_COUNT + 1)}}
    pairs = read_pairs(path, types, lines)
    missing = [key for key in ("report_version", *_report_scalars()) if key not in pairs]
    if missing:
        raise ConfigError(f"{path}: missing {', '.join(missing)}")
    del pairs["report_version"]
    phrases = [pairs.pop(key) for key in list(pairs) if key.startswith("top_phrase.")]
    return RunReport(**pairs, top_phrases=phrases)


def render_console(report: RunReport) -> str:
    """Human-readable summary: each scalar report key and its value
    (floats to 3 decimals), then the top phrases."""
    keys = _report_scalars()
    width = max(map(len, keys))
    out = [f"{key:<{width}}  {getattr(report, key):{'.3f' if kind is float else ''}}"
           for key, kind in keys.items()]
    if report.top_phrases:
        out.append("")
        out.append("top key phrases")
        pw = max(len(p) for p, _ in report.top_phrases)
        for phrase, score in report.top_phrases:
            out.append(f"  {phrase:<{pw}}  {score:.2f}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# shared run state

@dataclass
class RunResult:
    report: RunReport
    graph: FrontierGraph
    crawl_trace: list            # [(url, relevant bool), ...] layer-3 fetches


class _Aggregator:
    """Sums per-document phrase scores across the run; the run calls it
    under ``_Run.lock``.

    Unbounded (``capacity`` None), it keeps every phrase's exact sum. With
    a ``capacity``, an ``add`` that brings the table to ``2 * capacity``
    phrases prunes it to the phrases whose sums exceed the
    ``capacity``-th largest sum. A phrase whose sum stays above every cut
    keeps its exact sum; a dropped phrase that comes back starts again from
    its new score, so a phrase rare early in the run can be under-counted.
    A phrase new to the table keeps the document's score object, which is
    ``0.0 + score`` bit for bit because every score is positive.
    """

    def __init__(self, capacity=None):
        self._scores = {}
        self._capacity = capacity

    def add(self, phrases):
        scores = self._scores
        for phrase, score in phrases.items():
            total = scores.get(phrase)
            scores[phrase] = score if total is None else total + score
        capacity = self._capacity
        if capacity is not None and len(scores) >= 2 * capacity:
            cut = sorted(scores.values(), reverse=True)[capacity - 1]
            self._scores = {p: s for p, s in scores.items() if s > cut}

    def top(self):
        """The ``TOP_PHRASE_COUNT`` best phrases, ties in phrase order: the
        phrases whose sums reach the ``TOP_PHRASE_COUNT``-th largest sum,
        sorted."""
        largest = heapq.nlargest(TOP_PHRASE_COUNT, self._scores.values())
        if not largest:
            return []
        cut = largest[-1]
        best = [kv for kv in self._scores.items() if kv[1] >= cut]
        best.sort(key=lambda kv: (-kv[1], kv[0]))
        return best[:TOP_PHRASE_COUNT]


def _build_models(config: RunConfig):
    """(stops, profile, nb_model, glossary) for a run."""
    stops = load_stoplist(config.stoplist_path or None)
    topic_docs = read_corpus(config.topic_corpus_path)
    background_docs = read_corpus(config.background_corpus_path)
    profile = build_topic_profile(topic_docs, background_docs, config.threshold)
    nb_model = None
    if config.classifier == "nb":
        labeled = [(d, RELEVANT) for d in topic_docs] + \
                  [(d, IRRELEVANT) for d in background_docs]
        nb_model = nb_train(labeled)
    glossary = load_stoplist(config.glossary_path) if config.glossary_path else frozenset()
    return stops, profile, nb_model, glossary


class SeedQueue:
    """Bounded seed buffer between layer 1 and layer 2.

    ``offer`` never blocks: when full, the oldest queued seed is dropped
    and counted. ``take`` waits for a seed or for ``close``; it returns
    None only once the queue is closed and empty. ``pending`` counts the
    seeds offered and not yet marked ``done()``, queued or taken, like
    ``queue.Queue.unfinished_tasks``.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items = deque()
        self._cond = threading.Condition()
        self._pending = 0
        self.dropped = 0
        self.max_depth = 0
        self.closed = False

    @property
    def pending(self) -> int:
        with self._cond:
            return self._pending

    def offer(self, item) -> bool:
        with self._cond:
            full = len(self._items) >= self.capacity
            if full:
                self._items.popleft()
                self.dropped += 1
            else:
                self._pending += 1
            self._items.append(item)
            self.max_depth = max(self.max_depth, len(self._items))
            self._cond.notify()
            return not full

    def take(self):
        with self._cond:
            while not self._items and not self.closed:
                self._cond.wait()
            return self._items.popleft() if self._items else None

    def done(self) -> int:
        """A taken seed's summary has ended, failed or not; returns the
        seeds still pending."""
        with self._cond:
            self._pending -= 1
            return self._pending

    def close(self):
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def drop_queued(self):
        """Drop and count every seed still queued, as a run that has
        stopped never summarizes them."""
        with self._cond:
            self.dropped += len(self._items)
            self._pending -= len(self._items)
            self._items.clear()


class _Run:
    """One run's stages and state: ``run_batch`` calls the stages in turn,
    and ``ThreadedPipeline`` is a ``_Run`` whose threads call them.
    ``counts`` is the report the run counts into; it and the other run
    state change only under ``lock``. The throttled transport counts its
    bytes under its own lock, and ``metrics`` holds layer 1's counts,
    written by ``ingest`` from its one thread. A ``bounded`` run (online)
    caps its phrase table and latency record. The phrase table ``agg`` is
    run state too: every ``add`` and ``top`` runs under ``lock``.
    ``backlog`` holds the phrase dicts of the summaries that ended while a
    seed was pending; ``claim`` adds them to the phrase table before it
    picks a URL, ``process_seed`` once they number ``SEED_QUEUE_CAPACITY``
    or no seed is pending (always, in batch), and ``report`` before it
    reads the table.

    ``claim`` waits on ``changed`` (over ``lock``), notified when the last
    pending seed's summary ends, a summary worker leaves its loop (the
    queue is closed), a step gives its slot back or adds edges, or the run
    stops; a step that just fetched a page needs no notification, as its
    worker claims again. Lock order: ``lock`` before ``FrontierGraph._lock``
    and ``SeedQueue._cond``; neither calls back into the run."""

    def __init__(self, config: RunConfig, models, transport, registry, clock, bounded=False):
        self.config = config
        self.stops, profile, nb_model, glossary = models
        self.registry = registry
        self.clock = clock
        self.started = clock.now()
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)
        self.dedupe = DedupeWindow(DEDUPE_WINDOW)
        self.queue = SeedQueue(SEED_QUEUE_CAPACITY)
        self.stop_event = threading.Event()
        self.metrics = Counter()
        self.transport = ThrottledTransport(transport, config.bandwidth_limit, clock,
                                            config.host_delay)
        self.graph = FrontierGraph()
        self.agg = _Aggregator(ONLINE_PHRASE_CAPACITY if bounded else None)
        self.backlog = []   # phrase dicts of ended summaries, not yet in agg
        self.store = PageStore(config.page_store_path) if config.page_store_path else None
        self.crawler = FocusedCrawler(
            self.graph, profile, self.transport, stops=self.stops,
            classifier=config.classifier, nb_model=nb_model, glossary=glossary,
        )
        self.counts = RunReport()
        self.pages_claimed = 0
        self.latencies = deque(maxlen=LATENCY_WINDOW) if bounded else []
        self.crawl_trace = []

    def ingest(self, doc_text) -> list:
        """Layer 1 for one poll cycle: parse the changes document, keep the
        registered blogs, drop re-announcements, and return the seeds left
        to offer. A malformed cycle is counted and skipped."""
        try:
            urls = parse_changes_feed(doc_text)
        except MalformedFeed as exc:
            self.metrics["cycles_malformed"] += 1
            logger.warning("poll cycle skipped: %s", exc)
            return []
        registered = match_registry(urls, self.registry, now=self.clock.now())
        seeds = self.dedupe.filter(registered)
        self.metrics["seeds_unregistered"] += len(urls) - len(registered)
        self.metrics["seeds_offered"] += len(seeds)
        return seeds

    def process_seed(self, seed):
        """Layer 2 for one seed: its summary is fetched, analyzed and in
        the graph before the caller takes the next seed. Its latency ends
        at the graph insert; its phrases join the backlog, which goes into
        the phrase table here only once it holds ``SEED_QUEUE_CAPACITY``
        dicts or no seed is pending. Online, the seed itself is pending
        until the caller marks it done, so ``claim`` adds the backlog;
        batch queues no seed, so each summary is added at once."""
        with self.lock:
            self.counts.seeds_in += 1
        phrases = None
        try:
            doc = fetch_summary(seed, self.transport)
        except (FetchFailed, MalformedFeed) as exc:
            logger.warning("summary failed: %s", exc)
        else:
            phrases = extract_scored_phrases(
                doc.text, self.stops,
                in_degree=self.graph.in_degree(doc.url),
                out_degree=len({l.target for l in doc.links}),
            )
            self.graph.insert_summary(doc, phrases)
            latency = self.clock.now() - seed.discovered_at
        with self.lock:
            if phrases is None:
                self.counts.summaries_failed += 1
            else:
                self.counts.summaries_ok += 1
                self.latencies.append(latency)
                self.backlog.append(phrases)
            if not self.queue.pending or len(self.backlog) >= SEED_QUEUE_CAPACITY:
                self._add_backlog()

    def _add_backlog(self):
        """Add the backlog's phrase dicts to the phrase table, in the order
        their summaries ended; the caller holds ``lock``."""
        for phrases in self.backlog:
            self.agg.add(phrases)
        self.backlog.clear()

    def notify(self):
        """Wake every waiting ``claim``."""
        with self.changed:
            self.changed.notify_all()

    def claim(self):
        """Wait until a crawl step may start, then add the backlog, pick
        its frontier URL and claim its page slot under ``lock``, so every
        summary's phrases precede those of any page claimed after it;
        ``crawl_step`` settles the claim. None once the budget is spent,
        the run is stopped, or the crawl is drained: the seed queue is
        closed with no seed pending, the pick found nothing and no step is
        in flight."""
        budget = self.config.max_pages
        with self.changed:
            while not self.stop_event.is_set():
                if self.counts.pages_fetched >= budget:
                    return None
                # read before pending: the queue is closed after its last offer
                closed = self.queue.closed
                # every slot claimed: wait, as a step that fetches nothing
                # gives its slot back; summaries go first
                if self.pages_claimed < budget and not self.queue.pending:
                    self._add_backlog()
                    url = self.graph.next_frontier()
                    if url is not None:
                        self.pages_claimed += 1
                        return url
                    if closed and self.pages_claimed == self.counts.pages_fetched:
                        return None
                self.changed.wait()
            return None

    def crawl_step(self, url):
        """Layer 3 on a claimed URL: one crawler step, recorded. The slot
        is given back when no page was fetched (media skip, failure)."""
        result = self.crawler.crawl_step(url)
        if result.phrases is not None and self.store is not None:
            self.store.add(result)
        with self.lock:
            if result.phrases is not None:
                self.agg.add(result.phrases)
            if result.page is None:
                self.pages_claimed -= 1
            else:
                self.counts.pages_fetched += 1
                self.crawl_trace.append((result.page.url, result.relevant))
                if result.relevant:
                    self.counts.pages_relevant += 1
            if result.page is None or result.new_edges:
                self.changed.notify_all()

    def report(self) -> RunReport:
        with self.lock:
            self._add_backlog()
            fetched, relevant = self.counts.pages_fetched, self.counts.pages_relevant
            return replace(
                self.counts,
                elapsed=self.clock.now() - self.started,
                seeds_dropped=self.queue.dropped,
                harvest_rate=(relevant / fetched) if fetched else 0.0,
                bytes_fetched=self.transport.bytes_fetched,
                max_queue_depth=self.queue.max_depth,
                seed_latency_median=statistics.median(self.latencies) if self.latencies else 0.0,
                top_phrases=self.agg.top(),
            )

    def finish(self) -> RunResult:
        """The final report, written with the checkpoint where the config
        asks for them."""
        report = self.report()
        if self.config.report_path:
            Path(self.config.report_path).write_text(render_report(report), encoding="utf-8")
        if self.config.checkpoint_path:
            self.graph.save(self.config.checkpoint_path)
        return RunResult(report=report, graph=self.graph, crawl_trace=self.crawl_trace)


# ----------------------------------------------------------------------
# sequential batch run

def run_batch(config: RunConfig, world=None, transport=None) -> RunResult:
    """Deterministic sequential run over a fixture world.

    Per ping cycle, ``_Run.ingest`` parses the changes, filters by
    registry and dedupes, then each seed streams through the summary
    crawler (one summary fully analyzed before the next). The focused
    crawler then drains the frontier up to max_pages, with the claim loop
    of the fetch workers.
    No seed is queued, so none is dropped. Unless given, the world is
    ``load_served_world(fixture_path)``, served by ``InMemoryTransport``.
    """
    config.validate()
    models = _build_models(config)
    if world is None:
        world = load_served_world(config.fixture_path)
    clock = SimClock()
    run = _Run(config, models,
               transport if transport is not None else InMemoryTransport(world),
               load_registry(config.registry_path), clock)

    for cycle_time, doc_text in world.ping_script:
        clock.advance_to(cycle_time)
        for seed in run.ingest(doc_text):
            clock.sleep(SIM_FETCH_COST)
            run.process_seed(seed)

    run.queue.close()
    while (url := run.claim()) is not None:
        clock.sleep(SIM_FETCH_COST)
        run.crawl_step(url)
    return run.finish()


# ----------------------------------------------------------------------
# threaded pipeline (online mode, stalled-stage isolation)

class PingPollSource:
    """Online ingest source: polls the ping server's changes URL."""

    def __init__(self, transport, ping_url, poll_interval):
        self.transport = transport
        self.ping_url = ping_url
        self.poll_interval = poll_interval

    def cycles(self, stop_event):
        while not stop_event.is_set():
            try:
                status, _ctype, body = self.transport.fetch(self.ping_url, MAX_BYTES, TIMEOUT)
                if status < 400:
                    yield body.decode("utf-8", errors="replace")
                else:
                    logger.warning("ping poll failed: HTTP %d from %s", status, self.ping_url)
            except FetchFailed as exc:
                logger.warning("ping poll failed: %s", exc)
            stop_event.wait(self.poll_interval)


class ThreadedPipeline(_Run):
    """A ``_Run`` whose stages run on real threads: one ingest thread, N
    summary workers, M fetch workers, single-writer graph. The threads
    share the run's counts, seed queue and stop state.

    Summaries go first: ``_Run.claim`` starts no crawl step while a seed
    is pending, because a queued seed is perishable (the queue drops the
    oldest) and a frontier node is not. So under sustained overload of
    layer 2, layer 3 waits. A summary worker notifies the run when the
    seed it marks done was the last one pending, as no claim can succeed
    before, and once more when the closed queue ends its loop; the first
    fetch worker to end stops the run, and ``run`` then joins every thread."""

    def __init__(self, config: RunConfig, *, source, transport, registry,
                 stops, profile, nb_model=None, glossary=frozenset(), clock=None):
        config.validate()
        super().__init__(config, (stops, profile, nb_model, glossary), transport, registry,
                         clock if clock is not None else WallClock(), bounded=True)
        self.source = source
        self._error = None

    def _thread(self, name, target) -> threading.Thread:
        """A pipeline thread that keeps its error for ``run`` (the first
        error wins). A failed worker stops the run; a failed ingest only
        ends the input (``_poller`` closes the queue)."""
        def guarded():
            try:
                target()
            except Exception as exc:
                with self.lock:
                    if self._error is None:
                        self._error = exc
                if name != "ingest":
                    self.stop()
        return threading.Thread(target=guarded, name=name, daemon=True)

    # -- workers --------------------------------------------------------

    def _poller(self):
        """Offer each poll cycle's seeds. An offer never blocks, so a
        stalled downstream stage cannot pause ingestion. The queue is
        closed however the loop ends: summary workers exit only once it
        is."""
        try:
            for doc_text in self.source.cycles(self.stop_event):
                for seed in self.ingest(doc_text):
                    self.queue.offer(seed)
        finally:
            self.queue.close()

    def _summary_worker(self):
        while not self.stop_event.is_set() and (seed := self.queue.take()) is not None:
            self.process_seed(seed)
            if not self.queue.done():
                self.notify()
        self.notify()

    def _fetch_worker(self):
        while (url := self.claim()) is not None:
            self.crawl_step(url)
        self.stop()

    def _interim_reporter(self):
        """Log an interim report every ``report_interval`` seconds until the
        run stops: the first fetch worker to end, a failed worker or
        ``stop()`` sets ``stop_event``. ``run`` calls it on its own thread."""
        while not self.stop_event.wait(self.config.report_interval):
            report = self.report()
            logger.info("interim: %s", " ".join(
                f"{key}={getattr(report, key)!r}" for key in _report_scalars()))

    # -- lifecycle ------------------------------------------------------

    def run(self) -> RunResult:
        """Run until the source ends, the budget is spent, a worker fails,
        ``stop()`` is called or the caller is interrupted, logging interim
        reports on the caller's thread meanwhile. Every thread ends, the
        seeds still queued are counted as dropped, and the report and
        checkpoint are written before it returns or raises; the first
        thread error, if any, is raised."""
        threads = (self._thread("ingest", self._poller),
                   *(self._thread(f"summary-{i}", self._summary_worker)
                     for i in range(self.config.summary_workers)),
                   *(self._thread(f"fetch-{i}", self._fetch_worker)
                     for i in range(self.config.fetch_workers)))
        try:
            for t in threads:
                t.start()
            self._interim_reporter()
        finally:  # also on an interrupt, even one while the threads start
            self.stop()
            for t in threads:
                if t.ident is not None:   # started
                    t.join()
            self.queue.drop_queued()
            result = self.finish()
        if self._error is not None:
            raise self._error
        return result

    def stop(self):
        """End the run early; every thread stops at its next check or
        wait."""
        self.stop_event.set()
        self.queue.close()
        self.notify()


# ----------------------------------------------------------------------
# entry point used by the CLI

def run(config: RunConfig) -> RunResult:
    """Dispatch per mode: batch replays the fixture with ``run_batch``;
    online runs the ``ThreadedPipeline`` over the ping server's changes
    URL, with the worker counts, queue capacity and report interval of the
    config. The changes documents are polled through the run's throttled
    transport, so they are counted and charged like every other fetch."""
    config.validate()
    if config.mode == "batch":
        return run_batch(config)
    # imported here so batch runs never load urllib, http.client and ssl
    from .httptransport import HttpTransport
    stops, profile, nb_model, glossary = _build_models(config)
    pipe = ThreadedPipeline(
        config, source=None, transport=HttpTransport(),
        registry=load_registry(config.registry_path),
        stops=stops, profile=profile, nb_model=nb_model, glossary=glossary,
    )
    pipe.source = PingPollSource(pipe.transport, config.ping_url, config.poll_interval)
    return pipe.run()
