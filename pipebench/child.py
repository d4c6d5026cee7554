"""One measured pipeline run in a fresh process, so that its peak memory
and its set-up are not masked by earlier runs. ``run.py`` starts it; it
prints one JSON object on stdout.

    python3 pipebench/child.py --workload NAME --fixture DIR --out DIR
                               --mode setup|run [--trace 0|1] [--seconds S]
"""
import argparse
import hashlib
import json
import re
import resource
import signal
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from blogwatch import pipeline
from blogwatch.clock import WallClock
from blogwatch.graph import FrontierGraph
from blogwatch.harness import in_memory_transport, load_world, mixed_200_spec
from blogwatch.phrases import load_stoplist
from blogwatch.ping import load_registry
from blogwatch import relevance

import spans

# Every workload is the mixed_200_spec() label mix at a different size.
# README.md says why each was chosen. At 200 blogs the work of one world
# varies by about 8% from seed to seed, so seq-200 rotates over four worlds.
WORKLOADS = {
    "seq-200": {"mode": "batch", "n_blogs": 200, "ping_cycles": 5, "max_pages": 100,
                "worlds": 4},
    "seq-2k": {"mode": "batch", "n_blogs": 2000, "ping_cycles": 5, "max_pages": 1000,
               "worlds": 1},
    # max_pages lies above what the world supplies: reaching the budget
    # would set stop_event and end ingest and summaries early
    "online-500": {"mode": "online", "n_blogs": 500, "ping_cycles": 50,
                   "max_pages": 1_000_000, "summary_workers": 2, "fetch_workers": 2,
                   "worlds": 1},
}
WORLD_SEED_STRIDE = 1_000_000

# Times are scaled to a reference speed at which the calibration loop takes
# CAL_REF_S: a run's times are divided by (mean loop time / CAL_REF_S). On
# a shared 2-core VM the speed of one core swung by up to 2x for seconds to
# minutes. Over 28 repeated seq-200 runs the loop's time tracked the run's
# (correlation 0.96, elasticity 0.96), and scaling cut the coefficient of
# variation of the run time from 15% to 4%. A loop of integer arithmetic
# tracked as closely but under-corrected slow phases (elasticity 1.2).
CAL_REF_S = 0.0006
PROBE_INTERVAL_S = 0.05
PROBE_EDGE_SAMPLES = 8

_CAL_TEXT = " ".join(
    "flood river warning market city code storm quake rain press report".split()[i % 11]
    + ("." if i % 9 == 0 else "") for i in range(300))
_CAL_TOKEN = re.compile(r"[^\W_]+")
_CAL_NEEDLES = (("river", "warning"), ("storm", "quake", "rain"), ("city", "code"))


def world_specs(workload: str, seed: int) -> list:
    """The workload's worlds for ``--seed``: the first has the seed itself
    as its rng_seed, further ones seeds WORLD_SEED_STRIDE apart."""
    wl = WORKLOADS[workload]
    return [replace(mixed_200_spec(seed + i * WORLD_SEED_STRIDE), n_blogs=wl["n_blogs"],
                    ping_cycles=wl["ping_cycles"])
            for i in range(wl["worlds"])]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _calibration_loop():
    """Fixed pure-Python work shaped like the pipeline's text hot path
    (regex tokenizing, n-gram counting in a dict, phrase matching over
    short token windows), written here so that no change to blogwatch
    can move it."""
    tokens = [m.group().lower() for m in _CAL_TOKEN.finditer(_CAL_TEXT)]
    counts = {}
    for i in range(len(tokens) - 2):
        for size in (2, 3):
            key = tuple(tokens[i:i + size])
            counts[key] = counts.get(key, 0) + 1
    hits = 0
    for needle in _CAL_NEEDLES:
        k = len(needle)
        for start in range(0, len(tokens) - 20, 20):
            window = tokens[start:start + 20]
            for i in range(len(window) - k + 1):
                for j in range(k):
                    if window[i + j] != needle[j]:
                        break
                else:
                    hits += 1
    return hits


class SpeedProbe:
    """Samples how fast this process runs Python while a measurement is
    under way: a few calibration loops on entry and exit, and one every
    PROBE_INTERVAL_S in between from a SIGALRM handler (the loop takes
    under 2% of the run). A slowdown is the mean loop time over CAL_REF_S:
    the mean, not a trimmed one, because a slow spell that covers part of
    a run slows the run in proportion."""

    def __init__(self):
        self.samples = []   # (start, loop seconds)
        self._previous = None

    def _sample(self, *_signal):
        start = time.perf_counter()
        _calibration_loop()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        for _ in range(PROBE_EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(PROBE_EDGE_SAMPLES):
            self._sample()

    @property
    def slowdown(self) -> float:
        return self._slowdown([d for _t, d in self.samples])

    def slowdown_between(self, start: float, end: float) -> float:
        """Slowdown over part of the measurement, such as the summary phase
        of a batch run, whose speed can differ from the whole run's."""
        inside = [d for t, d in self.samples if start <= t <= end]
        return self._slowdown(inside) if len(inside) >= 10 else self.slowdown

    @staticmethod
    def _slowdown(durations) -> float:
        return statistics.fmean(durations) / CAL_REF_S


class ScheduledPingSource:
    """Open-loop ping generator: cycle ``c`` of the world's ping script is
    due ``c * interval`` seconds after the first one, whatever the
    pipeline is doing. The ingest thread pulls the next document only
    after handling the previous one, so a slow ingest shows as lateness
    (``late_max_s``) instead of silently lowering the offered load."""

    def __init__(self, script, interval: float):
        self.docs = [doc for _t, doc in script]
        self.interval = interval
        self.late_max_s = 0.0
        self.end = None

    def cycles(self, stop_event):
        start = time.perf_counter()
        for c, doc in enumerate(self.docs):
            due = start + c * self.interval
            wait = due - time.perf_counter()
            if wait > 0 and stop_event.wait(wait):
                break
            self.late_max_s = max(self.late_max_s, time.perf_counter() - due)
            yield doc
        self.end = time.perf_counter()


class BatchLatency:
    """Per-seed summary latency on the sequential path, in wall-clock time:
    from the start of a seed's summary fetch to its summary landing in the
    graph. The batch path has no queue and records latency only on its
    simulated clock, so two thin wrappers stamp it here."""

    def __init__(self):
        self.values = []
        self.first_start = self._start = 0.0
        self.last_end = 0.0
        self._orig_fetch = pipeline.fetch_summary
        self._orig_insert = FrontierGraph.__dict__["insert_summary"]

    def __enter__(self):
        fetch, insert = self._orig_fetch, self._orig_insert

        def stamped_fetch(*args, **kwargs):
            self._start = time.perf_counter()
            if not self.values:
                self.first_start = self._start
            return fetch(*args, **kwargs)

        def stamped_insert(*args, **kwargs):
            report = insert(*args, **kwargs)
            self.last_end = time.perf_counter()
            self.values.append(self.last_end - self._start)
            return report

        pipeline.fetch_summary = stamped_fetch
        FrontierGraph.insert_summary = stamped_insert
        return self

    def __exit__(self, *exc):
        pipeline.fetch_summary = self._orig_fetch
        FrontierGraph.insert_summary = self._orig_insert


def _setup(fixture: Path, online: bool):
    """Cold fixture dir to ready to ingest; returns the raw set-up seconds
    and the slowdown measured around it."""
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        world = load_world(fixture)
        config = pipeline.load_config(fixture / "run.conf")
        models = None
        if online:
            models = (load_registry(config.registry_path),
                      load_stoplist(config.stoplist_path or None),
                      relevance.build_topic_profile(world.topic_corpus, world.background_corpus,
                                                    config.threshold))
        setup_s = time.perf_counter() - t0
    return setup_s, probe.slowdown, world, config, models


def _run_batch(world, config, transport, trace):
    latency = BatchLatency()
    with SpeedProbe() as probe:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if trace:
            result = pipeline.run_batch(config, world=world, transport=transport)
        else:
            with latency:
                result = pipeline.run_batch(config, world=world, transport=transport)
        t1 = time.perf_counter()
        cpu = time.process_time() - cpu0
    report = result.report
    summary_slowdown = probe.slowdown_between(latency.first_start, latency.last_end)
    trace_lines = "".join(f"{url}\t{int(rel)}\n" for url, rel in result.crawl_trace)
    failed_pages = result.graph.stats().get("failed", 0)
    return result, {
        "slowdown": probe.slowdown, "run_start": t0, "run_end": t1, "run_raw_s": t1 - t0,
        "run_s": (t1 - t0) / probe.slowdown, "cpu_s": cpu / probe.slowdown,
        "latencies": [v / summary_slowdown for v in latency.values],
        "attempted": report.seeds_in + report.pages_fetched + failed_pages,
        "failed": report.summaries_failed + failed_pages,
        "violations": [],
        "hashes": {
            "report": _sha256(Path(config.report_path).read_bytes()),
            "crawl_trace": _sha256(trace_lines.encode("utf-8")),
            "checkpoint": _sha256(Path(config.checkpoint_path).read_bytes()),
        },
    }


def _run_online(world, config, models, transport, inner, seconds):
    registry, stops, profile = models
    source = ScheduledPingSource(world.ping_script, seconds / len(world.ping_script))
    pipe = pipeline.ThreadedPipeline(config, source=source, transport=transport,
                                     registry=registry, stops=stops, profile=profile,
                                     clock=WallClock())
    with SpeedProbe() as probe:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = pipe.run()
        t1 = time.perf_counter()
        cpu = time.process_time() - cpu0
    pipe.stop()  # ends the interim reporter thread
    report = result.report
    offered = pipe.metrics.get("seeds_offered", 0)
    urls = [url for url, _rel in result.crawl_trace]
    checks = {
        "bytes_fetched equals transferred body bytes":
            report.bytes_fetched == sum(inner.body_bytes_by_url().values()),
        "no URL crawled twice": len(set(urls)) == len(urls),
        "seeds_in + seeds_dropped == seeds_offered":
            report.seeds_in + report.seeds_dropped == offered,
    }
    failed_pages = result.graph.stats().get("failed", 0)
    return result, {
        # the run spans the ping schedule, so its wall time is not scaled
        "slowdown": probe.slowdown, "run_start": t0, "run_end": t1, "run_raw_s": t1 - t0,
        "run_s": t1 - t0, "cpu_s": cpu / probe.slowdown,
        "latencies": [v / probe.slowdown for v in pipe.latencies],
        "attempted": offered + report.pages_fetched + failed_pages,
        "failed": (report.summaries_failed + failed_pages + report.seeds_dropped
                   + sum(not ok for ok in checks.values())),
        "violations": [name for name, ok in checks.items() if not ok],
        "gen_late_max_s": source.late_max_s,
        "interval_s": source.interval,
        "drain_s": t1 - source.end,
        "queue_max_depth": report.max_queue_depth,
        "seeds_dropped": report.seeds_dropped,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--fixture", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    online = wl["mode"] == "online"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    setup_s, setup_slowdown, world, config, models = _setup(Path(args.fixture), online)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s / setup_slowdown, "setup_raw_s": setup_s,
                          "slowdown": setup_slowdown}))
        return 0

    config.max_pages = wl["max_pages"]
    config.report_path = str(out / "report.txt")
    config.checkpoint_path = str(out / "graph.ckpt")
    inner = in_memory_transport(world)
    transport = spans.TimedTransport(inner, tracer) if tracer else inner
    if online:
        config.mode = "online"
        config.ping_url = "memory://changes"  # required by validate(), never fetched
        config.summary_workers = wl["summary_workers"]
        config.fetch_workers = wl["fetch_workers"]
        # the in-memory transport has no network: politeness waits would
        # only measure sleep
        config.host_delay = 0.0
        result, rec = _run_online(world, config, models, transport, inner, args.seconds)
    else:
        result, rec = _run_batch(world, config, transport, args.trace)

    rec["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec["harvest_rate"] = result.report.harvest_rate
    if tracer is not None:
        tracer.restore()
        workers = (config.summary_workers, config.fetch_workers) if online else (1, 1)
        layers = spans.layer_metrics(tracer.spans, rec["run_start"], rec["run_end"], *workers)
        stats = result.graph.stats()
        layers.update({
            "bench.slowdown": rec["slowdown"],
            "graph.nodes": stats["nodes"],
            "graph.edges": stats["edges"],
            "graph.unfetched": stats.get("unfetched", 0),
            "pipeline.queue_max_depth": result.report.max_queue_depth,
            "pipeline.seeds_dropped": result.report.seeds_dropped,
            "pipeline.drain_s": rec["drain_s"] if online else
                rec["run_end"] - min((s[2] for s in tracer.spans
                                      if s[1] == "FocusedCrawler.crawl_step"),
                                     default=rec["run_end"]),
        })
        rec["layers"] = layers
        rec["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
