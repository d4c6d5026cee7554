"""The threaded pipeline runs batch's stages: with one summary worker and
one fetch worker on a simulated clock, a ``ThreadedPipeline`` crawls what
``run_batch`` crawls, byte for byte. With more fetch workers the crawl
order may differ, but the budget, the one-fetch-per-URL rule and the byte
accounting hold."""
from dataclasses import replace
from pathlib import Path

import pytest

from blogwatch.clock import SimClock
from blogwatch.harness import InMemoryTransport, generate_world, mixed_200_spec
from blogwatch.ping import load_registry
from blogwatch.pipeline import SEED_QUEUE_CAPACITY, ThreadedPipeline, _build_models, run_batch

from conftest import ClosedFirstQueue, SimScriptSource, write_world_inputs

MAX_PAGES = 100


@pytest.fixture(scope="module")
def worlds():
    return {seed: generate_world(mixed_200_spec(rng_seed=seed)) for seed in (7, 11, 12)}


def _config(world, tmp_path, name, fetch_workers=1):
    cfg = write_world_inputs(world, tmp_path)
    cfg.max_pages = MAX_PAGES
    cfg.summary_workers = 1
    cfg.fetch_workers = fetch_workers
    cfg.checkpoint_path = str(tmp_path / f"{name}.ckpt")
    cfg.page_store_path = str(tmp_path / f"{name}-pages")
    return cfg


def _index(cfg):
    """The page store's index lines without their fetch times, which
    follow each mode's clock."""
    lines = (Path(cfg.page_store_path) / "index.tsv").read_text(encoding="utf-8").splitlines()
    return [(url, score) for url, _fetched_at, score in (line.split("\t") for line in lines)]


def _threaded(world, cfg, gated):
    """A threaded run of ``world`` on a simulated clock: (its result, its
    transport). A ``gated`` run queues every seed before summarizing one."""
    clock = SimClock()
    transport = InMemoryTransport(world)
    stops, profile, nb_model, glossary = _build_models(cfg)
    pipe = ThreadedPipeline(
        cfg, source=SimScriptSource(world.ping_script, clock), transport=transport,
        registry=load_registry(cfg.registry_path), stops=stops, profile=profile,
        nb_model=nb_model, glossary=glossary, clock=clock)
    if gated:
        pipe.queue = ClosedFirstQueue(SEED_QUEUE_CAPACITY)
    return pipe.run(), transport


def _comparable(report):
    """A report without the fields that differ by design: batch charges
    a fetch cost on its clock and queues no seed."""
    return replace(report, elapsed=0.0, max_queue_depth=0, seed_latency_median=0.0)


@pytest.mark.parametrize("seed", [7, 11, 12])
def test_one_worker_each_crawls_what_batch_crawls(worlds, tmp_path, seed):
    world = worlds[seed]
    batch_cfg = _config(world, tmp_path, "batch")
    batch = run_batch(batch_cfg, world=world)
    threaded_cfg = _config(world, tmp_path, "threaded")
    threaded, _transport = _threaded(world, threaded_cfg, gated=True)
    assert threaded.report.pages_fetched == MAX_PAGES
    assert threaded.crawl_trace == batch.crawl_trace
    assert _comparable(threaded.report) == _comparable(batch.report)
    assert _index(threaded_cfg) == _index(batch_cfg)
    with open(threaded_cfg.checkpoint_path, "rb") as got, \
            open(batch_cfg.checkpoint_path, "rb") as want:
        assert got.read() == want.read()


@pytest.mark.parametrize("fetch_workers", [2, 4])
def test_more_fetch_workers_keep_the_run_invariants(worlds, tmp_path, fetch_workers):
    world = worlds[7]
    result, transport = _threaded(world, _config(world, tmp_path, "threaded", fetch_workers),
                                  gated=False)
    urls = [url for url, _relevant in result.crawl_trace]
    assert len(urls) == len(set(urls)) == result.report.pages_fetched == MAX_PAGES
    assert result.report.bytes_fetched == sum(transport.body_bytes_by_url().values())
