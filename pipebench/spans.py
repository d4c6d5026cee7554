"""In-memory span recording for the traced run, and the per-layer metrics
derived from the spans.

The tracer replaces a layer's public function at the name the program
looks it up under (``blogwatch.crawler.fetch_page``, a ``FrontierGraph``
method, ...). Each call becomes one span: id, name, start, end, parent
span, thread, and a small outcome note. Spans stay in memory until the
run ends; ``restore()`` puts every original function back. The text
kernels (``blogwatch._kernels``) are deliberately not wrapped: they run
millions of times per run, and the wrapper cost would become the
measurement.
"""
import functools
import inspect
import itertools
import json
import threading
import time

from blogwatch import crawler, graph, pipeline, ping, relevance

# (module, function, outcome note) wrapped at module level
_MODULE_FUNCS = (
    (pipeline, "parse_changes_feed", len),
    (pipeline, "match_registry", len),
    (pipeline, "fetch_summary", None),
    (pipeline, "extract_scored_phrases", len),
    (pipeline, "build_topic_profile", None),
    (relevance, "build_topic_profile", None),
    (crawler, "fetch_page", None),
    (crawler, "extract_page", None),
    (crawler, "vsm_score", None),
    (crawler, "nb_classify", None),
    (crawler, "analyze_page", None),
    (crawler, "extract_scored_phrases", len),
    (graph, "estimate_edge_weight", None),
)


def _step_note(result):
    if result is None:
        return "empty"
    if result.page is None:
        return "nopage"
    return "relevant" if result.relevant else "page"


_METHOD_NOTES = {
    ("DedupeWindow", "filter"): len,
    ("FocusedCrawler", "crawl_step"): _step_note,
}


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent id or None, thread name, note, exception name)
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def traced(self, fn, name, note=None):
        """A wrapper of ``fn`` that records one span per call."""
        spans = self.spans
        local = self._local
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              threading.current_thread().name, None, type(exc).__name__))
                raise
            end = time.perf_counter()
            stack.pop()
            spans.append((sid, name, start, end, parent, threading.current_thread().name,
                          note(result) if note is not None else None, None))
            return result

        return wrapper

    def _patch(self, owner, attr, name, note):
        original = owner.__dict__[attr]
        setattr(owner, attr, self.traced(original, name, note))
        self._restore.append((owner, attr, original))

    def install(self):
        """Wrap every layer entry point the program calls."""
        for module, attr, note in _MODULE_FUNCS:
            self._patch(module, attr, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", note)
        for cls in (graph.FrontierGraph, crawler.FocusedCrawler, ping.DedupeWindow):
            for attr, value in list(vars(cls).items()):
                if inspect.isfunction(value) and not attr.startswith("_"):
                    self._patch(cls, attr, f"{cls.__name__}.{attr}",
                                _METHOD_NOTES.get((cls.__name__, attr)))

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread, note, exc in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread, "note": note,
                                     "exc": exc}) + "\n")


class TimedTransport:
    """Transport wrapper passed as ``transport=``: one span per fetch and
    head probe, noting the status and the body size."""

    def __init__(self, inner, tracer: Tracer):
        self.fetch = tracer.traced(inner.fetch, "transport.fetch",
                                   lambda r: (r[0], len(r[2])))
        self.head = tracer.traced(inner.head, "transport.head", lambda r: (r[0], 0))


# ----------------------------------------------------------------------
# per-layer metrics

# span name -> self-time metric
SELF_TIME = {
    "pipeline.parse_changes_feed": "ping.parse_s",
    "pipeline.match_registry": "ping.filter_s",
    "DedupeWindow.filter": "ping.filter_s",
    "DedupeWindow.admit": "ping.filter_s",
    "pipeline.fetch_summary": "feeds.summary_s",
    "crawler.extract_page": "htmltext.extract_s",
    "pipeline.extract_scored_phrases": "phrases.extract_s",
    "crawler.extract_scored_phrases": "phrases.extract_s",
    "FrontierGraph.insert_links": "graph.insert_s",
    "FrontierGraph.insert_summary": "graph.insert_s",
    "graph.estimate_edge_weight": "graph.edge_weight_s",
    "FrontierGraph.next_frontier": "graph.next_frontier_s",
    "FrontierGraph.apply_corrections": "graph.corrections_s",
    "pipeline.build_topic_profile": "relevance.build_s",
    "relevance.build_topic_profile": "relevance.build_s",
    "crawler.vsm_score": "relevance.score_s",
    "crawler.nb_classify": "relevance.score_s",
    "FocusedCrawler.crawl_step": "crawler.step_s",
    "crawler.fetch_page": "crawler.fetch_page_s",
    "crawler.analyze_page": "crawler.analyze_s",
    "transport.fetch": "transport.fetch_s",
    "transport.head": "transport.head_s",
}

# top-level spans that are busy time of the summary and the fetch stage
_SUMMARY_STAGE = {"pipeline.fetch_summary", "pipeline.extract_scored_phrases",
                  "FrontierGraph.insert_summary", "FrontierGraph.in_degree"}
_FETCH_STAGE = {"FocusedCrawler.crawl_step"}


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, run_start, run_end, summary_workers=1, fetch_workers=1) -> dict:
    """Self times and counts per layer, plus the pipeline's own share.

    Self time is a span's duration minus the durations of its child
    spans. ``pipeline.other_s`` is the part of the run window covered by
    no top-level span on any thread. Busy shares divide a stage's
    top-level span time by workers x run wall.
    """
    child_time = {}
    for _sid, _name, start, end, parent, _t, _n, _e in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    out = {name: 0.0 for name in set(SELF_TIME.values())}
    out["graph.other_s"] = 0.0
    calls = {}
    notes = {}
    excs = {}
    top_level = []
    stage_busy = {"summary": 0.0, "fetch": 0.0}
    for sid, name, start, end, parent, _t, note, exc in spans:
        self_time = (end - start) - child_time.get(sid, 0.0)
        metric = SELF_TIME.get(name)
        if metric is None and name.startswith("FrontierGraph."):
            metric = "graph.other_s"
        if metric is not None:
            out[metric] += self_time
        calls[name] = calls.get(name, 0) + 1
        if note is not None:
            notes.setdefault(name, []).append(note)
        if exc is not None:
            excs[(name, exc)] = excs.get((name, exc), 0) + 1
        if parent is None and start >= run_start and end <= run_end:
            top_level.append((start, end))
            if name in _SUMMARY_STAGE:
                stage_busy["summary"] += end - start
            elif name in _FETCH_STAGE:
                stage_busy["fetch"] += end - start

    def total(name):
        return sum(notes.get(name, ()))

    events = total("pipeline.parse_changes_feed")
    registered = total("pipeline.match_registry")
    admitted = total("DedupeWindow.filter")
    steps = notes.get("FocusedCrawler.crawl_step", [])
    media = excs.get(("crawler.fetch_page", "MediaSkipped"), 0)
    summary_failed = sum(n for (name, _e), n in excs.items() if name == "pipeline.fetch_summary")
    transport_notes = notes.get("transport.fetch", []) + notes.get("transport.head", [])
    wall = run_end - run_start

    out.update({
        "ping.events": events,
        "ping.unregistered": events - registered,
        "ping.deduped": registered - admitted,
        "ping.seeds": admitted,
        "feeds.summaries_ok": calls.get("pipeline.fetch_summary", 0) - summary_failed,
        "feeds.summaries_failed": summary_failed,
        "htmltext.calls": calls.get("crawler.extract_page", 0),
        "phrases.calls": (calls.get("pipeline.extract_scored_phrases", 0)
                          + calls.get("crawler.extract_scored_phrases", 0)),
        "phrases.candidates": (total("pipeline.extract_scored_phrases")
                               + total("crawler.extract_scored_phrases")),
        "graph.edge_weight_calls": calls.get("graph.estimate_edge_weight", 0),
        "graph.next_frontier_calls": calls.get("FrontierGraph.next_frontier", 0),
        "relevance.scored": calls.get("crawler.vsm_score", 0) + calls.get("crawler.nb_classify", 0),
        "relevance.relevant": steps.count("relevant"),
        "crawler.steps": len(steps),
        "crawler.pages": steps.count("relevant") + steps.count("page"),
        "crawler.media_skipped": media,
        "crawler.failed": steps.count("nopage") - media,
        "crawler.empty_polls": steps.count("empty"),
        "transport.fetches": calls.get("transport.fetch", 0),
        "transport.heads": calls.get("transport.head", 0),
        "transport.status_4xx": sum(1 for status, _ in transport_notes if 400 <= status < 500),
        "transport.bytes": sum(nbytes for _, nbytes in notes.get("transport.fetch", [])),
        "pipeline.other_s": wall - _union_length(top_level),
        "pipeline.summary_busy_share": stage_busy["summary"] / (summary_workers * wall),
        "pipeline.fetch_busy_share": stage_busy["fetch"] / (fetch_workers * wall),
    })
    return out
