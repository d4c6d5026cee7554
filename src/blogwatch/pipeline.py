"""Orchestration of the three layers, resource governance, and reporting.

Two execution modes share the same stage logic. ``_ingest_cycle`` is
layer 1 for one poll cycle; a ``_Run`` holds the rest of a run: the
transport, bucket, graph and crawler wiring, the summary step, the
page-budget claim and crawl step, every counter under one lock, and the
final report and checkpoint. The modes differ only in how they call it:

* batch (sequential): ``run_batch`` loops over the stages on a simulated
  clock, no queues — runs are bit-reproducible for a given fixture and
  config (a run draws no random numbers; ``rng_seed`` is read and unused);
* threaded: ``ThreadedPipeline`` runs an ingest thread, N summary
  workers, and M fetch workers joined by a bounded drop-oldest seed
  queue, used for online mode. The poller never blocks on a slow
  downstream stage: overflow seeds are dropped and counted, because stale
  seeds are the cheapest casualty.
"""
import logging
import statistics
import threading
from collections import deque
from dataclasses import dataclass, field, fields
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
from .transport import FetchLimits, HttpTransport, ThrottledTransport

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
    summary_workers: int = 4
    fetch_workers: int = 4
    queue_capacity: int = 256
    max_pages: int = 100
    report_interval: float = 30.0
    rng_seed: int = 0
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


_INT_KEYS = {"bandwidth_limit", "summary_workers", "fetch_workers", "queue_capacity",
             "max_pages", "rng_seed"}
_FLOAT_KEYS = {"threshold", "report_interval", "poll_interval", "dedupe_window",
               "host_delay"}


def load_config(path) -> RunConfig:
    """Parse a ``key = value`` config file. Relative paths are resolved
    against the file's directory; unknown keys fail fast."""
    base = Path(path).resolve().parent
    known = {f.name for f in fields(RunConfig)}
    cfg = RunConfig()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = (p.strip() for p in line.partition("="))
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if key in _INT_KEYS:
                    parsed = int(value)
                    if key == "bandwidth_limit" and parsed == 0:
                        parsed = None
                elif key in _FLOAT_KEYS:
                    parsed = float(value)
                else:
                    parsed = value
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if key.endswith("_path") and parsed:
                parsed = str((base / parsed).resolve()) if not Path(parsed).is_absolute() else parsed
            setattr(cfg, key, parsed)
    return cfg


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


_REPORT_SCALARS = (
    ("elapsed", repr), ("seeds_in", str), ("seeds_dropped", str),
    ("summaries_ok", str), ("summaries_failed", str), ("pages_fetched", str),
    ("pages_relevant", str), ("harvest_rate", repr), ("bytes_fetched", str),
    ("max_queue_depth", str), ("seed_latency_median", repr),
)


def render_report(report: RunReport) -> str:
    """Machine-readable key-value rendering (stable across runs for equal
    inputs)."""
    lines = ["report_version = 1"]
    for key, fmt in _REPORT_SCALARS:
        lines.append(f"{key} = {fmt(getattr(report, key))}")
    for i, (phrase, score) in enumerate(report.top_phrases, 1):
        lines.append(f"top_phrase.{i:02d} = {score!r}\t{phrase}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> RunReport:
    report = RunReport()
    ints = {"seeds_in", "seeds_dropped", "summaries_ok", "summaries_failed",
            "pages_fetched", "pages_relevant", "bytes_fetched", "max_queue_depth"}
    for line in text.splitlines():
        if not line or line.startswith("report_version"):
            continue
        key, _, value = (p.strip() for p in line.partition("="))
        if key.startswith("top_phrase."):
            score, _, phrase = value.partition("\t")
            report.top_phrases.append((phrase, float(score)))
        elif key in ints:
            setattr(report, key, int(value))
        elif hasattr(report, key):
            setattr(report, key, float(value))
    return report


def render_console(report: RunReport) -> str:
    """Human-readable summary table."""
    rows = [
        ("elapsed (s)", f"{report.elapsed:.2f}"),
        ("seeds in", str(report.seeds_in)),
        ("seeds dropped", str(report.seeds_dropped)),
        ("summaries ok/failed", f"{report.summaries_ok}/{report.summaries_failed}"),
        ("pages fetched", str(report.pages_fetched)),
        ("pages relevant", str(report.pages_relevant)),
        ("harvest rate", f"{report.harvest_rate:.3f}"),
        ("bytes fetched", str(report.bytes_fetched)),
        ("max queue depth", str(report.max_queue_depth)),
        ("seed latency median (s)", f"{report.seed_latency_median:.3f}"),
    ]
    width = max(len(k) for k, _ in rows)
    out = [f"{k:<{width}}  {v}" for k, v in rows]
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
    layer2_inputs: set
    layer2_extracted: set
    transport: object            # innermost transport (access log in harness runs)
    relevance_decisions: dict    # url -> bool for every scored page


class _Aggregator:
    """Sums per-document phrase scores across the run (thread-safe)."""

    def __init__(self):
        self._scores = {}
        self._lock = threading.Lock()

    def add(self, phrases):
        with self._lock:
            for p in phrases:
                key = " ".join(p.tokens)
                self._scores[key] = self._scores.get(key, 0.0) + p.score

    def top(self, k=TOP_PHRASE_COUNT):
        ranked = sorted(self._scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


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
    file with one document per non-empty line."""
    p = Path(path)
    if p.is_dir():
        return [f.read_text(encoding="utf-8") for f in sorted(p.glob("*.txt"))]
    return [line for line in p.read_text(encoding="utf-8").splitlines() if line.strip()]


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
    return dedupe.filter(match_registry(events, registry, now=clock.now(), metrics=metrics))


class _Run:
    """One run's stages and state, shared by ``run_batch`` and the
    ``ThreadedPipeline`` workers. Counters change only under ``lock``,
    except ``metrics``: the throttled transport writes its byte count
    under its own lock, and layer 1 its counts from one thread."""

    def __init__(self, config: RunConfig, models, transport, clock):
        self.config = config
        self.stops, profile, nb_model, glossary = models
        self.clock = clock
        self.started = clock.now()
        self.lock = threading.Lock()
        self.metrics = {"bytes_fetched": 0}
        self.base_transport = transport
        self.transport = ThrottledTransport(
            transport, TokenBucket(config.bandwidth_limit, clock), self.metrics)
        self.graph = FrontierGraph(clock=clock)
        self.agg = _Aggregator()
        self.crawler = FocusedCrawler(
            self.graph, profile, self.transport, stops=self.stops,
            classifier=config.classifier, nb_model=nb_model, glossary=glossary,
            store=PageStore(config.page_store_path) if config.page_store_path else None,
            clock=clock, phrase_sink=self.agg.add, host_delay=config.host_delay,
        )
        self.seeds_in = self.summaries_ok = self.summaries_failed = 0
        self.pages_claimed = self.pages_fetched = self.pages_relevant = 0
        self.latencies = []
        self.crawl_trace = []
        self.relevance_decisions = {}
        self.layer2_inputs = set()
        self.layer2_extracted = set()

    def process_seed(self, seed):
        """Layer 2 for one seed: its summary is fetched, analyzed and in
        the graph before the caller takes the next seed."""
        with self.lock:
            self.seeds_in += 1
            self.layer2_inputs.add(seed.url)
        try:
            doc = fetch_summary(seed, self.transport, now=self.clock.now())
        except (FetchFailed, NotAFeed, OversizeBody) as exc:
            with self.lock:
                self.summaries_failed += 1
            logger.warning("summary failed: %s", exc)
            return
        links = list(doc.all_links())
        phrases = extract_scored_phrases(
            summary_text(doc), self.stops,
            in_degree=self.graph.in_degree(doc.blog_url),
            out_degree=len({l.target for l in links}),
        )
        self.graph.insert_summary(doc, phrases)
        self.agg.add(phrases)
        with self.lock:
            self.summaries_ok += 1
            self.layer2_extracted.update(l.target for l in links)
            self.latencies.append(self.clock.now() - seed.discovered_at)

    def claim_page(self) -> bool:
        """Take one slot of the page budget; False when every slot is
        claimed. A claim is held until ``crawl_step`` settles it."""
        with self.lock:
            if self.pages_claimed >= self.config.max_pages:
                return False
            self.pages_claimed += 1
            return True

    def budget_spent(self) -> bool:
        with self.lock:
            return self.pages_fetched >= self.config.max_pages

    def crawl_step(self):
        """Layer 3 on a claimed slot: one crawler step. The slot is given
        back when no page was fetched (empty frontier, media skip,
        failure). Returns the step's result, None for an empty frontier."""
        result = self.crawler.crawl_step()
        with self.lock:
            if result is None or result.page is None:
                self.pages_claimed -= 1
            else:
                self.pages_fetched += 1
                self.crawl_trace.append((result.page.url, result.relevant))
                self.relevance_decisions[result.page.url] = result.relevant
                if result.relevant:
                    self.pages_relevant += 1
        return result

    def report(self, queue=None) -> RunReport:
        with self.lock:
            fetched, relevant = self.pages_fetched, self.pages_relevant
            return RunReport(
                elapsed=self.clock.now() - self.started,
                seeds_in=self.seeds_in,
                seeds_dropped=queue.dropped if queue is not None else 0,
                summaries_ok=self.summaries_ok,
                summaries_failed=self.summaries_failed,
                pages_fetched=fetched,
                pages_relevant=relevant,
                harvest_rate=(relevant / fetched) if fetched else 0.0,
                bytes_fetched=self.metrics["bytes_fetched"],
                max_queue_depth=queue.max_depth if queue is not None else 0,
                seed_latency_median=statistics.median(self.latencies) if self.latencies else 0.0,
                top_phrases=self.agg.top(),
            )

    def finish(self, queue=None) -> RunResult:
        """The final report, written with the checkpoint where the config
        asks for them."""
        report = self.report(queue)
        if self.config.report_path:
            Path(self.config.report_path).write_text(render_report(report), encoding="utf-8")
        if self.config.checkpoint_path:
            self.graph.save(self.config.checkpoint_path)
        return RunResult(report=report, graph=self.graph, crawl_trace=self.crawl_trace,
                         layer2_inputs=self.layer2_inputs,
                         layer2_extracted=self.layer2_extracted,
                         transport=self.base_transport,
                         relevance_decisions=self.relevance_decisions)


# ----------------------------------------------------------------------
# sequential batch run

def run_batch(config: RunConfig, world=None, transport=None, models=None) -> RunResult:
    """Deterministic sequential run over a fixture world.

    Layer order per ping cycle: parse changes, registry filter, dedupe,
    then stream each seed through the summary crawler (one summary fully
    analyzed before the next). The focused crawler then drains the
    frontier up to max_pages. No queues are involved, so no seeds are
    dropped. ``models`` is a ``_build_models`` result, built here when
    omitted.
    """
    config.validate()
    if models is None:
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

    while run.claim_page():
        clock.sleep(SIM_FETCH_COST)
        if run.crawl_step() is None:
            break
    return run.finish()


# ----------------------------------------------------------------------
# threaded pipeline (online mode, stalled-stage isolation)

class SeedQueue:
    """Bounded seed buffer between layer 1 and layer 2.

    ``offer`` never blocks: when full, the oldest queued seed is dropped
    and counted. take() blocks consumers up to a timeout.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items = deque()
        self._cond = threading.Condition()
        self.dropped = 0
        self.max_depth = 0
        self.closed = False

    def offer(self, item) -> bool:
        with self._cond:
            dropped = False
            if len(self._items) >= self.capacity:
                self._items.popleft()
                self.dropped += 1
                dropped = True
            self._items.append(item)
            self.max_depth = max(self.max_depth, len(self._items))
            self._cond.notify()
            return not dropped

    def take(self, timeout: float = 0.1):
        with self._cond:
            if not self._items and not self.closed:
                self._cond.wait(timeout)
            if self._items:
                return self._items.popleft()
            return None

    def close(self):
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def empty(self) -> bool:
        with self._cond:
            return not self._items


class PingScriptSource:
    """Batch-mode ingest source: replays fixture ping cycles."""

    def __init__(self, script):
        self.script = script

    def cycles(self, stop_event):
        for _t, doc in self.script:
            if stop_event.is_set():
                return
            yield doc


class PingPollSource:
    """Online ingest source: polls the ping server's changes URL."""

    def __init__(self, transport, ping_url, poll_interval, clock,
                 limits: FetchLimits = FetchLimits()):
        self.transport = transport
        self.ping_url = ping_url
        self.poll_interval = poll_interval
        self.clock = clock
        self.limits = limits

    def cycles(self, stop_event):
        while not stop_event.is_set():
            try:
                status, _ctype, body = self.transport.fetch(
                    self.ping_url, self.limits.max_bytes, self.limits.timeout)
                if status < 400:
                    yield body.decode("utf-8", errors="replace")
                else:
                    logger.warning("ping poll failed: HTTP %d from %s", status, self.ping_url)
            except FetchFailed as exc:
                logger.warning("ping poll failed: %s", exc)
            stop_event.wait(self.poll_interval)


def ingest_loop(source, registry, dedupe: DedupeWindow, queue: SeedQueue,
                clock, stop_event, metrics=None):
    """Layer-1 loop: parse each cycle, filter, dedupe, enqueue. Malformed
    cycles are skipped with a counter; the loop never blocks on the queue,
    so a stalled downstream stage cannot pause ingestion."""
    metrics = metrics if metrics is not None else {}
    for doc_text in source.cycles(stop_event):
        for seed in _ingest_cycle(doc_text, registry, dedupe, clock, metrics):
            queue.offer(seed)
            metrics["seeds_offered"] = metrics.get("seeds_offered", 0) + 1
    queue.close()


class ThreadedPipeline:
    """Stage pipeline with real threads: one ingest context, N summary
    workers, M fetch workers, single-writer graph. The workers run the
    stages of a shared ``_Run``, which holds every counter."""

    def __init__(self, config: RunConfig, *, source, transport, registry,
                 stops, profile, nb_model=None, glossary=frozenset(), clock=None):
        self.config = config
        self.source = source
        self.registry = registry
        self.clock = clock if clock is not None else WallClock()
        self._run = _Run(config, (stops, profile, nb_model, glossary), transport, self.clock)
        self.metrics = self._run.metrics
        self.latencies = self._run.latencies
        self.queue = SeedQueue(config.queue_capacity)
        self.stop_event = threading.Event()
        self.summaries_done = threading.Event()

    # -- workers --------------------------------------------------------

    def _summary_worker(self):
        while not self.stop_event.is_set():
            seed = self.queue.take(0.1)
            if seed is None:
                if self.queue.closed and self.queue.empty():
                    return
                continue
            self._run.process_seed(seed)

    def _fetch_worker(self):
        run = self._run
        while not self.stop_event.is_set():
            if not run.claim_page():
                # a claimed slot comes back when its step fetches nothing,
                # so the budget is spent only once the pages are fetched
                if run.budget_spent():
                    self.stop_event.set()
                    return
                self.clock.sleep(0.02)
                continue
            if run.crawl_step() is None:
                if self.summaries_done.is_set():
                    return
                self.clock.sleep(0.02)

    # -- lifecycle ------------------------------------------------------

    def run(self) -> RunResult:
        self.config.validate()
        dedupe = DedupeWindow(self.config.dedupe_window)
        ingest = threading.Thread(
            target=ingest_loop,
            args=(self.source, self.registry, dedupe, self.queue, self.clock,
                  self.stop_event, self.metrics),
            name="ingest", daemon=True)
        summary_threads = [threading.Thread(target=self._summary_worker,
                                            name=f"summary-{i}", daemon=True)
                           for i in range(self.config.summary_workers)]
        fetch_threads = [threading.Thread(target=self._fetch_worker,
                                          name=f"fetch-{i}", daemon=True)
                         for i in range(self.config.fetch_workers)]

        reporter = threading.Thread(target=self._interim_reporter,
                                    name="reporter", daemon=True)

        ingest.start()
        for t in summary_threads:
            t.start()
        for t in fetch_threads:
            t.start()
        reporter.start()

        ingest.join()
        for t in summary_threads:
            t.join()
        self.summaries_done.set()
        for t in fetch_threads:
            t.join()
        return self._run.finish(self.queue)

    def _interim_reporter(self):
        while not self.stop_event.wait(self.config.report_interval):
            if self.summaries_done.is_set() and self.queue.empty():
                return
            report = self.build_report()
            logger.info("interim: %d seeds, %d summaries, %d pages (%.0f%% relevant)",
                        report.seeds_in, report.summaries_ok, report.pages_fetched,
                        100 * report.harvest_rate)

    def stop(self):
        self.stop_event.set()
        self.queue.close()

    def build_report(self) -> RunReport:
        return self._run.report(self.queue)


# ----------------------------------------------------------------------
# entry point used by the CLI

def run(config: RunConfig) -> RunResult:
    """Dispatch per mode. Batch with one worker of each kind runs the
    sequential deterministic path; batch with more workers and online mode
    run the threaded pipeline."""
    config.validate()
    models = _build_models(config)
    stops, profile, nb_model, glossary = models
    if config.mode == "batch":
        world = load_world(config.fixture_path)
        if config.summary_workers == 1 and config.fetch_workers == 1:
            return run_batch(config, world=world, models=models)
        source = PingScriptSource(world.ping_script)
        transport = in_memory_transport(world)
        clock = None
    else:
        clock = WallClock()
        transport = HttpTransport()
        source = PingPollSource(transport, config.ping_url, config.poll_interval, clock)
    return ThreadedPipeline(
        config, source=source, transport=transport,
        registry=load_registry(config.registry_path),
        stops=stops, profile=profile, nb_model=nb_model, glossary=glossary,
        clock=clock,
    ).run()
