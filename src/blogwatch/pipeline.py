"""Orchestration of the three layers, resource governance, and reporting.

Two execution modes share the same stage logic. ``_ingest_cycle`` is
layer 1 for one poll cycle; a ``_Run`` holds the rest of a run: the
transport, bucket, graph and crawler wiring, the seed queue, the summary
step, the crawl loop's ``claim`` (frontier pick and page slot under the
run's lock) and crawl step, the counts of the ``RunReport`` it returns,
and the final report and checkpoint. A run's result is that report, its
graph and its crawl trace. The modes differ only in how they call it:

* batch: ``run_batch`` loops over the stages on a simulated clock, no
  threads, and its seed queue stays empty — runs are bit-reproducible
  for a given fixture and config (a run draws no random numbers);
* online: ``ThreadedPipeline`` runs an ingest thread, N summary workers,
  and M fetch workers joined by a bounded drop-oldest seed queue. The
  poller never blocks on a slow downstream stage: overflow seeds are
  dropped and counted, because stale seeds are the cheapest casualty.
  No worker polls: summary workers block on the queue, and fetch
  workers wait in ``_Run.claim`` for a change that can give them work.
  Summaries go first: no crawl step starts while a seed is pending
  (queued, or taken and not yet summarized), as in batch. ``stop()`` is
  the one early end; ``run`` raises the first thread error once the
  report and checkpoint are written.
"""
import heapq
import logging
import statistics
import threading
from collections import deque
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .clock import SimClock, WallClock
from .crawler import FocusedCrawler, PageStore
from .errors import ConfigError, FetchFailed, MalformedFeed, NotAFeed, OversizeBody
from .feeds import fetch_summary
from .graph import FrontierGraph
from .harness import in_memory_transport, load_world
from .phrases import extract_scored_phrases, load_stoplist
from .ping import DedupeWindow, load_registry, match_registry, parse_changes_feed
from .ratelimit import TokenBucket
from .relevance import IRRELEVANT, RELEVANT, build_topic_profile, nb_train
from .settings import read_lines, read_settings, read_text
from .transport import MAX_BYTES, TIMEOUT, HttpTransport, ThrottledTransport

logger = logging.getLogger(__name__)

# deterministic accounting tick charged per fetch in simulated time
SIM_FETCH_COST = 0.01

TOP_PHRASE_COUNT = 20


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
    queue_capacity: int = 256          # online only
    max_pages: int = 100
    report_interval: float = 30.0      # online only
    mode: str = "batch"
    fixture_path: str = ""
    ping_url: str = ""
    poll_interval: float = 60.0
    dedupe_window: float = 900.0
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
        for key in ("summary_workers", "fetch_workers", "queue_capacity", "max_pages"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("report_interval", "poll_interval", "dedupe_window"):
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
    settings = read_settings(path, RunConfig, ConfigError)
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


def parse_report(path) -> RunReport:
    """Read a ``render_report`` file; a bad line raises ``ValueError``."""
    report = RunReport()
    types = _report_scalars()
    for lineno, line in enumerate(read_lines(path, ValueError), 1):
        if not line or line.startswith("report_version"):
            continue
        key, _, value = (p.strip() for p in line.partition("="))
        try:
            if key.startswith("top_phrase."):
                score, _, phrase = value.partition("\t")
                report.top_phrases.append((phrase, float(score)))
            elif key in types:
                setattr(report, key, types[key](value))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return report


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
    """Sums per-document phrase scores across the run (thread-safe)."""

    def __init__(self):
        self._scores = {}
        self._lock = threading.Lock()

    def add(self, phrases):
        scores = self._scores
        with self._lock:
            for phrase, score in phrases.items():
                scores[phrase] = scores.get(phrase, 0.0) + score

    def top(self):
        """The ``TOP_PHRASE_COUNT`` best phrases, ties in phrase order. The
        lock is held because ``nsmallest`` iterates the dict in Python
        code, where another thread's ``add`` could resize it."""
        with self._lock:
            return heapq.nsmallest(TOP_PHRASE_COUNT, self._scores.items(),
                                   key=lambda kv: (-kv[1], kv[0]))


def summary_text(doc) -> str:
    """The text of a summary that phrase extraction analyzes: post titles
    and descriptions, newline-separated (titles act as sentence spans)."""
    parts = []
    for post in doc.posts:
        if post.title:
            parts.append(post.title)
        if post.description:
            parts.append(post.description)
    return "\n".join(parts)


def _load_corpus(path) -> list:
    """A corpus is a directory of *.txt files (one doc each) or a single
    file with one document per non-empty line. A bad byte is a
    ``ConfigError`` naming ``path:line``."""
    p = Path(path)
    if p.is_dir():
        return [read_text(f, ConfigError) for f in sorted(p.glob("*.txt"))]
    return [line for line in read_text(p, ConfigError).splitlines() if line.strip()]


def _build_models(config: RunConfig):
    """(stops, profile, nb_model, glossary) for a run."""
    stops = load_stoplist(config.stoplist_path or None)
    topic_docs = _load_corpus(config.topic_corpus_path)
    background_docs = _load_corpus(config.background_corpus_path)
    profile = build_topic_profile(topic_docs, background_docs, config.threshold)
    nb_model = None
    if config.classifier == "nb":
        labeled = [(d, RELEVANT) for d in topic_docs] + \
                  [(d, IRRELEVANT) for d in background_docs]
        nb_model = nb_train(labeled)
    glossary = load_stoplist(config.glossary_path) if config.glossary_path else frozenset()
    return stops, profile, nb_model, glossary


def _ingest_cycle(doc_text, registry, dedupe: DedupeWindow, clock, metrics) -> list:
    """Layer 1 for one poll cycle: parse the changes document, keep the
    registered blogs, drop re-announcements. A malformed cycle is counted
    and skipped."""
    try:
        events = parse_changes_feed(doc_text)
    except MalformedFeed as exc:
        metrics["cycles_malformed"] = metrics.get("cycles_malformed", 0) + 1
        logger.warning("poll cycle skipped: %s", exc)
        return []
    seeds = match_registry(events, registry, now=clock.now())
    metrics["seeds_unregistered"] = metrics.get("seeds_unregistered", 0) + len(events) - len(seeds)
    return dedupe.filter(seeds)


class SeedQueue:
    """Bounded seed buffer between layer 1 and layer 2.

    ``offer`` never blocks: when full, the oldest queued seed is dropped
    and counted. ``take`` waits for a seed or for ``close``; it returns
    None only once the queue is closed and empty. ``pending`` counts the
    seeds offered and not yet marked ``done()``, queued or taken, like
    ``queue.Queue.unfinished_tasks``.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
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

    def done(self):
        """A taken seed's summary has ended, failed or not."""
        with self._cond:
            self._pending -= 1

    def close(self):
        with self._cond:
            self.closed = True
            self._cond.notify_all()


class _Run:
    """One run's stages and state, shared by ``run_batch`` and the
    ``ThreadedPipeline`` workers. ``counts`` is the report the run counts
    into; it and the other run state change only under ``lock``. The
    throttled transport counts its bytes under its own lock, and
    ``metrics`` holds layer 1's counts, written from its one thread.

    ``claim`` waits on ``changed`` (over ``lock``), notified when a seed's
    summary ends, a step gives its slot back or adds edges, the summaries
    end, or the run stops; a step that just fetched a page needs no
    notification, as its worker claims again. Lock order: ``lock`` before
    ``FrontierGraph._lock`` and ``SeedQueue._cond``; neither calls back
    into the run."""

    def __init__(self, config: RunConfig, models, transport, clock):
        self.config = config
        self.stops, profile, nb_model, glossary = models
        self.clock = clock
        self.started = clock.now()
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)
        self.queue = SeedQueue(config.queue_capacity)
        self.stop_event = threading.Event()
        self.summaries_done = False
        self.metrics = {}
        self.transport = ThrottledTransport(transport, TokenBucket(config.bandwidth_limit, clock))
        self.graph = FrontierGraph()
        self.agg = _Aggregator()
        self.crawler = FocusedCrawler(
            self.graph, profile, self.transport, stops=self.stops,
            classifier=config.classifier, nb_model=nb_model, glossary=glossary,
            store=PageStore(config.page_store_path) if config.page_store_path else None,
            clock=clock, phrase_sink=self.agg.add, host_delay=config.host_delay,
        )
        self.counts = RunReport()
        self.pages_claimed = 0
        self.latencies = []
        self.crawl_trace = []

    def process_seed(self, seed):
        """Layer 2 for one seed: its summary is fetched, analyzed and in
        the graph before the caller takes the next seed."""
        with self.lock:
            self.counts.seeds_in += 1
        try:
            doc = fetch_summary(seed, self.transport)
        except (FetchFailed, NotAFeed, OversizeBody) as exc:
            with self.lock:
                self.counts.summaries_failed += 1
            logger.warning("summary failed: %s", exc)
            return
        phrases = extract_scored_phrases(
            summary_text(doc), self.stops,
            in_degree=self.graph.in_degree(doc.blog_url),
            out_degree=len({l.target for l in doc.all_links()}),
        )
        self.graph.insert_summary(doc, phrases)
        self.agg.add(phrases)
        with self.lock:
            self.counts.summaries_ok += 1
            self.latencies.append(self.clock.now() - seed.discovered_at)

    def notify(self):
        """Wake every waiting ``claim``."""
        with self.changed:
            self.changed.notify_all()

    def claim(self):
        """Wait until a crawl step may start, then pick its frontier node
        and claim its page slot under ``lock``; ``crawl_step`` settles the
        claim. None once the budget is spent, the run is stopped, or the
        crawl is drained: the summaries are done, the pick found nothing
        and no step is in flight."""
        budget = self.config.max_pages
        with self.changed:
            while not self.stop_event.is_set():
                if self.counts.pages_fetched >= budget:
                    return None
                # every slot claimed: wait, as a step that fetches nothing
                # gives its slot back; summaries go first
                if self.pages_claimed < budget and not self.queue.pending:
                    node = self.graph.next_frontier()
                    if node is not None:
                        self.pages_claimed += 1
                        return node
                    if self.summaries_done and self.pages_claimed == self.counts.pages_fetched:
                        return None
                self.changed.wait()
            return None

    def crawl_step(self, node):
        """Layer 3 on a claimed node: one crawler step. The slot is given
        back when no page was fetched (media skip, failure)."""
        result = self.crawler.crawl_step(node)
        with self.lock:
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

    Layer order per ping cycle: parse changes, registry filter, dedupe,
    then stream each seed through the summary crawler (one summary fully
    analyzed before the next). The focused crawler then drains the
    frontier up to max_pages, with the claim loop of the fetch workers.
    No seed is queued, so none is dropped. The world is read from
    ``fixture_path`` and served by its in-memory transport unless given.
    """
    config.validate()
    models = _build_models(config)
    if world is None:
        world = load_world(config.fixture_path)
    clock = SimClock()
    run = _Run(config, models,
               transport if transport is not None else in_memory_transport(world), clock)
    dedupe = DedupeWindow(config.dedupe_window)
    registry = load_registry(config.registry_path)

    for cycle_time, doc_text in world.ping_script:
        clock.advance_to(cycle_time)
        for seed in _ingest_cycle(doc_text, registry, dedupe, clock, run.metrics):
            clock.sleep(SIM_FETCH_COST)
            run.process_seed(seed)

    run.summaries_done = True
    while (node := run.claim()) is not None:
        clock.sleep(SIM_FETCH_COST)
        run.crawl_step(node)
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


def ingest_loop(source, registry, dedupe: DedupeWindow, queue: SeedQueue,
                clock, stop_event, metrics):
    """Layer-1 loop: parse each cycle, filter, dedupe, enqueue. Malformed
    cycles are skipped with a counter; the loop never blocks on the queue,
    so a stalled downstream stage cannot pause ingestion. The queue is
    closed however the loop ends: summary workers exit only once it is."""
    try:
        for doc_text in source.cycles(stop_event):
            for seed in _ingest_cycle(doc_text, registry, dedupe, clock, metrics):
                queue.offer(seed)
                metrics["seeds_offered"] = metrics.get("seeds_offered", 0) + 1
    finally:
        queue.close()


class ThreadedPipeline:
    """Stage pipeline with real threads: one ingest context, N summary
    workers, M fetch workers, single-writer graph. The workers run the
    stages of a shared ``_Run``, which holds the run's counts, seed queue
    and stop state.

    Summaries go first: ``_Run.claim`` starts no crawl step while a seed
    is pending, because a queued seed is perishable (the queue drops the
    oldest) and a frontier node is not. So under sustained overload of
    layer 2, layer 3 waits. A summary worker marks each seed done once its
    summary ends, then notifies the run."""

    def __init__(self, config: RunConfig, *, source, transport, registry,
                 stops, profile, nb_model=None, glossary=frozenset(), clock=None):
        self.config = config
        self.source = source
        self.registry = registry
        self.clock = clock if clock is not None else WallClock()
        self._run = _Run(config, (stops, profile, nb_model, glossary), transport, self.clock)
        self.metrics = self._run.metrics
        self.latencies = self._run.latencies
        self.queue = self._run.queue
        self.stop_event = self._run.stop_event
        self._error = None

    def _thread(self, name, target, *args) -> threading.Thread:
        """A pipeline thread that keeps its error for ``run`` (the first
        error wins). A failed worker or reporter stops the run; a failed
        ingest only ends the input (``ingest_loop`` closes the queue)."""
        def guarded():
            try:
                target(*args)
            except Exception as exc:
                with self._run.lock:
                    if self._error is None:
                        self._error = exc
                if name != "ingest":
                    self.stop()
        return threading.Thread(target=guarded, name=name, daemon=True)

    # -- workers --------------------------------------------------------

    def _summary_worker(self):
        while not self.stop_event.is_set() and (seed := self.queue.take()) is not None:
            self._run.process_seed(seed)
            self.queue.done()
            self._run.notify()

    def _fetch_worker(self):
        run = self._run
        while (node := run.claim()) is not None:
            run.crawl_step(node)
        self.stop()

    def _interim_reporter(self):
        while not self.stop_event.wait(self.config.report_interval):
            report = self._run.report()
            logger.info("interim: %s", " ".join(
                f"{key}={getattr(report, key)!r}" for key in _report_scalars()))

    # -- lifecycle ------------------------------------------------------

    def run(self) -> RunResult:
        """Run until the source ends, the budget is spent, a worker fails,
        ``stop()`` is called or the caller is interrupted. Every thread
        ends and the report and checkpoint are written before it returns
        or raises; the first thread error, if any, is raised."""
        self.config.validate()
        dedupe = DedupeWindow(self.config.dedupe_window)
        ingest = self._thread("ingest", ingest_loop, self.source, self.registry, dedupe,
                              self.queue, self.clock, self.stop_event, self.metrics)
        summary_threads = [self._thread(f"summary-{i}", self._summary_worker)
                           for i in range(self.config.summary_workers)]
        fetch_threads = [self._thread(f"fetch-{i}", self._fetch_worker)
                         for i in range(self.config.fetch_workers)]
        threads = (ingest, *summary_threads, *fetch_threads,
                   self._thread("reporter", self._interim_reporter))
        for t in threads:
            t.start()
        try:
            for t in (ingest, *summary_threads):
                t.join()
            with self._run.changed:
                self._run.summaries_done = True
                self._run.changed.notify_all()
            for t in fetch_threads:
                t.join()
        finally:  # also on an interrupt
            self.stop()
            for t in threads:
                t.join()
            result = self._run.finish()
        if self._error is not None:
            raise self._error
        return result

    def stop(self):
        """End the run early; every thread stops at its next check or
        wait."""
        self.stop_event.set()
        self.queue.close()
        self._run.notify()


# ----------------------------------------------------------------------
# entry point used by the CLI

def run(config: RunConfig) -> RunResult:
    """Dispatch per mode: batch replays the fixture with ``run_batch``;
    online runs the ``ThreadedPipeline`` over the ping server's changes
    URL, with the worker counts, queue capacity and report interval of the
    config."""
    config.validate()
    if config.mode == "batch":
        return run_batch(config)
    stops, profile, nb_model, glossary = _build_models(config)
    transport = HttpTransport()
    return ThreadedPipeline(
        config, source=PingPollSource(transport, config.ping_url, config.poll_interval),
        transport=transport, registry=load_registry(config.registry_path),
        stops=stops, profile=profile, nb_model=nb_model, glossary=glossary,
    ).run()
