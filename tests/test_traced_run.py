"""The benchmark's traced run (``pipebench/spans.py``) wraps program
functions by the names the program looks them up under, and counts
``len()`` of the phrase result. A program change that renames a wrapped
function or changes that result breaks ``--trace 1``; this test notices
it in the tier-1 suite. It reads ``pipebench/`` and changes nothing there.
"""
import importlib
import time
from pathlib import Path

from blogwatch.harness import in_memory_transport
from blogwatch.pipeline import render_report, run_batch

from conftest import write_world_inputs

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def test_traced_run_matches_untraced_and_restores_every_function(
        mixed_world, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    spans = importlib.import_module("spans")
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.max_pages = 20

    plain = run_batch(cfg, world=mixed_world, transport=in_memory_transport(mixed_world))

    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._restore)   # (owner, attribute, original function)
        assert wrapped
        for owner, attr, original in wrapped:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
        transport = spans.TimedTransport(in_memory_transport(mixed_world), tracer)
        start = time.perf_counter()
        traced = run_batch(cfg, world=mixed_world, transport=transport)
        end = time.perf_counter()
    finally:
        tracer.restore()

    assert render_report(traced.report) == render_report(plain.report)
    assert traced.crawl_trace == plain.crawl_trace
    layers = spans.layer_metrics(tracer.spans, start, end)
    assert layers["phrases.candidates"] > 0
    assert layers["graph.edge_weight_calls"] > 0
    assert layers["transport.fetches"] > 0
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
