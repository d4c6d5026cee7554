"""The benchmark's traced run (``pipebench/spans.py``) wraps program
functions by the names the program looks them up under, and counts
``len()`` of the phrase result. A program change that renames a wrapped
function or changes that result breaks ``--trace 1``; these tests notice
it in the tier-1 suite, on the batch and on the threaded path. They read
``pipebench/`` and change nothing there.
"""
import importlib
import time
from pathlib import Path

from blogwatch.harness import in_memory_transport
from blogwatch.ping import load_registry
from blogwatch.pipeline import ThreadedPipeline, _build_models, render_report, run_batch

from conftest import PingScriptSource, write_world_inputs

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


def test_traced_threaded_run_keeps_both_stages_busy_and_restores_every_function(
        mixed_world, tmp_path, monkeypatch):
    """The online workload's traced run: a ``ThreadedPipeline`` with 2
    summary and 2 fetch workers gives both stages busy time."""
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    spans = importlib.import_module("spans")
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.summary_workers = cfg.fetch_workers = 2
    cfg.max_pages = 20
    cfg.host_delay = 0.0
    stops, profile, nb_model, glossary = _build_models(cfg)

    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = list(tracer._restore)
        pipe = ThreadedPipeline(
            cfg, source=PingScriptSource(mixed_world.ping_script),
            transport=spans.TimedTransport(in_memory_transport(mixed_world), tracer),
            registry=load_registry(cfg.registry_path), stops=stops, profile=profile,
            nb_model=nb_model, glossary=glossary)
        start = time.perf_counter()
        result = pipe.run()
        end = time.perf_counter()
    finally:
        tracer.restore()

    assert result.report.pages_fetched == 20
    layers = spans.layer_metrics(tracer.spans, start, end, 2, 2)
    assert layers["pipeline.summary_busy_share"] > 0
    assert layers["pipeline.fetch_busy_share"] > 0
    assert layers["crawler.pages"] == 20
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
