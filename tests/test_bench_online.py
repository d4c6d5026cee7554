"""The benchmark's online workload (``pipebench/child.py``'s
``_run_online``) reads ``ThreadedPipeline.latencies`` for its latency
quantiles and checks the run's accounting. A program change that breaks
either breaks the benchmark; this test notices it in the tier-1 suite. It
reads ``pipebench/`` and changes nothing there.
"""
import importlib
from pathlib import Path

from blogwatch.harness import in_memory_transport
from blogwatch.phrases import load_stoplist
from blogwatch.ping import load_registry
from blogwatch.relevance import build_topic_profile

from conftest import write_world_inputs

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def test_benchmark_online_run_has_latencies_and_no_violations(
        small_world, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    child = importlib.import_module("child")
    cfg = write_world_inputs(small_world, tmp_path)
    cfg.mode = "online"
    cfg.ping_url = "memory://changes"
    cfg.summary_workers = 2
    cfg.fetch_workers = 2
    cfg.host_delay = 0.0
    cfg.max_pages = 1_000_000
    models = (load_registry(cfg.registry_path), load_stoplist(),
              build_topic_profile(small_world.topic_corpus, small_world.background_corpus,
                                  cfg.threshold))
    inner = in_memory_transport(small_world)

    result, rec = child._run_online(small_world, cfg, models, inner, inner, seconds=1.0)

    assert rec["violations"] == []
    assert rec["latencies"]
    assert len(rec["latencies"]) == result.report.summaries_ok
