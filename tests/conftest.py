import builtins
import io
import os
import re
import threading
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from blogwatch import pipeline
from blogwatch.clock import SimClock
from blogwatch.harness import (WorldSpec, generate_world, in_memory_transport,
                               mixed_200_spec)
from blogwatch.graph import NodeStatus
from blogwatch.htmltext import extract_page
from blogwatch.pipeline import RunConfig, SeedQueue
from blogwatch.transport import MAX_BYTES, TIMEOUT

FIXTURES = Path(__file__).parent / "fixtures"
PIPELINE_THREAD = re.compile(r"ingest|summary-\d+|fetch-\d+")


@pytest.fixture(autouse=True)
def pipeline_threads_end():
    """Fails a test that leaves a pipeline thread (ingest, summary or
    fetch) running 2 s after it ends."""
    before = set(threading.enumerate())
    yield
    started = [t for t in threading.enumerate()
               if t not in before and PIPELINE_THREAD.fullmatch(t.name)]
    for t in started:
        t.join(timeout=2)
    alive = sorted(t.name for t in started if t.is_alive())
    if alive:
        pytest.fail(f"pipeline threads still alive after the test: {alive}")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def mixed_world():
    """The standard mixed-200 evaluation world (expensive; share it)."""
    return generate_world(mixed_200_spec(rng_seed=7))


@pytest.fixture(scope="session")
def small_world():
    """A quick world for integration tests."""
    spec = WorldSpec(rng_seed=3, n_blogs=30, topical_fraction=0.4,
                     spam_fraction=0.1, empty_fraction=0.1, media_fraction=0.1,
                     ping_cycles=3, decoy_hosts=2)
    return generate_world(spec)


def count_opens(monkeypatch) -> Counter:
    """Counts every file opened from now to the end of ``monkeypatch``'s
    scope, by path: the builtin ``open`` and ``io.open``, which
    ``pathlib`` calls, are wrapped."""
    opened = Counter()
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    monkeypatch.setattr(io, "open", counted)
    return opened


def write_world_inputs(world, tmp_path: Path) -> RunConfig:
    """Materialize just the config inputs (registry/corpora) for in-memory
    runs against ``world``."""
    reg = tmp_path / "registry.txt"
    reg.write_text("".join(l + "\n" for l in world.registry_lines), encoding="utf-8")
    topic = tmp_path / "topic_corpus.txt"
    topic.write_text("".join(d + "\n" for d in world.topic_corpus), encoding="utf-8")
    background = tmp_path / "background_corpus.txt"
    background.write_text("".join(d + "\n" for d in world.background_corpus), encoding="utf-8")
    return RunConfig(
        registry_path=str(reg),
        topic_corpus_path=str(topic),
        background_corpus_path=str(background),
        fixture_path=str(tmp_path),  # satisfied; world passed in directly
    )


@pytest.fixture
def world_config(small_world, tmp_path):
    return write_world_inputs(small_world, tmp_path)


class Node(NamedTuple):
    status: NodeStatus
    priority: float


class GraphState(NamedTuple):
    nodes: dict   # url -> Node, oldest first
    edges: dict   # (src, dst) -> (weight, provenance), first insertion first


def graph_state(graph) -> GraphState:
    """A snapshot of a ``FrontierGraph``'s nodes and edges, read from its
    maps under its lock."""
    with graph._lock:
        return GraphState({url: Node(n.status, n.priority) for url, n in graph._nodes.items()},
                          dict(graph._edges))


class PingScriptSource:
    """Ingest source for ``ThreadedPipeline`` tests: replays a world's ping
    cycles, without their times."""

    def __init__(self, script):
        self.script = script

    def cycles(self, stop_event):
        for _t, doc in self.script:
            if stop_event.is_set():
                return
            yield doc


class SimScriptSource:
    """Replays a world's ping script as ``run_batch`` does: the clock is
    advanced to each cycle's time before its document is yielded."""

    def __init__(self, script, clock):
        self.script = script
        self.clock = clock

    def cycles(self, stop_event):
        for cycle_time, doc in self.script:
            if stop_event.is_set():
                return
            self.clock.advance_to(cycle_time)
            yield doc


class ClosedFirstQueue(SeedQueue):
    """A seed queue that hands out no seed before it is closed, so every
    seed is queued before layer 2 starts, as in a batch run. Its capacity
    holds each test world's seeds, so none is dropped."""

    def take(self):
        with self._cond:
            while not self.closed:
                self._cond.wait()
        return super().take()


def ingest_pipeline(source, registry):
    """A ``ThreadedPipeline`` for driving layer 1 alone: its ``source``
    and ``registry`` on a simulated clock, with no transport and no models,
    so only its ingest loop can run."""
    cfg = RunConfig(registry_path="unused", topic_corpus_path="unused",
                    background_corpus_path="unused", fixture_path="unused")
    return pipeline.ThreadedPipeline(cfg, source=source, transport=None, registry=registry,
                                     stops=frozenset(), profile=None, clock=SimClock())


class ZeroBodies:
    """Transport whose fetch serves a body of ``max_bytes`` zero bytes, so
    a test picks each body's size."""

    def fetch(self, url, max_bytes, timeout):
        return 200, "text/html", bytes(max_bytes)


class Layer2Recorder:
    """Records layer 2 at its boundary while in use as a context manager:
    wraps ``blogwatch.pipeline.fetch_summary`` and keeps each seed URL
    passed in (``inputs``) and each link target of each returned summary
    (``extracted``)."""

    def __init__(self):
        self.inputs = set()
        self.extracted = set()
        self._lock = threading.Lock()
        self._original = None

    def __enter__(self):
        self._original = original = pipeline.fetch_summary

        def recorded(seed, transport):
            with self._lock:
                self.inputs.add(seed.url)
            doc = original(seed, transport)
            with self._lock:
                self.extracted.update(link.target for link in doc.links)
            return doc

        pipeline.fetch_summary = recorded
        return self

    def __exit__(self, *exc):
        pipeline.fetch_summary = self._original


def baseline_bfs_crawl(world, seeds, budget: int, transport=None):
    """The BFS control arm of acceptance criterion 1: FIFO over links, no
    weights, no relevance gate, the crawler's media-skip rule. Only
    text/html bodies are fetched and count against the budget. Returns
    the fetch trace."""
    if transport is None:
        transport = in_memory_transport(world)
    queue = list(seeds)
    seen = set(queue)
    trace = []
    i = 0
    while i < len(queue) and len(trace) < budget:
        url = queue[i]
        i += 1
        status, ctype, _size = transport.head(url, TIMEOUT)
        if status != 200 or ctype.lower().startswith(("image/", "audio/", "video/")):
            continue
        if not ctype.lower().startswith("text/html"):
            continue
        status, ctype, body = transport.fetch(url, MAX_BYTES, TIMEOUT)
        if status != 200:
            continue
        trace.append(url)
        extract = extract_page(body.decode("utf-8", errors="replace"), url)
        for link in extract.links:
            if link.target not in seen:
                seen.add(link.target)
                queue.append(link.target)
    return trace
