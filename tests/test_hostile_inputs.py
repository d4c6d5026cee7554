"""Seeded byte mutation of every file the program reads, and batch runs over
worlds with mutated bodies and ping cycles.

Each reader gets ``CASES`` mutated copies of a valid file, each with one to
four byte inserts, replacements or deletions drawn from a fixed-seed
``random.Random``. A copy may still parse; when it does not, only the
reader's declared error may escape, and its message names the file.
"""
import random
import shutil
import zlib
from dataclasses import replace

import pytest

from blogwatch.errors import ConfigError, SpecError
from blogwatch.graph import FrontierGraph
from blogwatch.harness import (WorldSpec, generate_world, load_world, materialize_world,
                               parse_world_spec)
from blogwatch.phrases import load_stoplist
from blogwatch.ping import load_registry
from blogwatch.pipeline import _load_corpus, load_config, parse_report, run, run_batch

from conftest import write_world_inputs

CASES = 200

# bytes that separate or delimit fields in the files read, tried as often
# as a uniformly drawn byte
_STRUCTURAL = b"\t\n\r =:#.-0123456789\x00\xff\xc3"


def mutate(data: bytes, rng: random.Random) -> bytes:
    buf = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        byte = rng.choice(_STRUCTURAL) if rng.random() < 0.5 else rng.randrange(256)
        op = rng.randrange(3) if buf else 0
        if op == 0:
            buf.insert(rng.randrange(len(buf) + 1), byte)
        elif op == 1:
            buf[rng.randrange(len(buf))] = byte
        else:
            del buf[rng.randrange(len(buf))]
    return bytes(buf)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """A materialized small world after one batch run, so that it holds a
    report and a checkpoint, plus a world spec."""
    root = tmp_path_factory.mktemp("hostile")
    fixture = root / "fixture"
    materialize_world(generate_world(WorldSpec(rng_seed=5, n_blogs=8, ping_cycles=2)), fixture)
    config = load_config(fixture / "run.conf")
    config.max_pages = 10
    run(config)
    (fixture / "world.conf").write_text(
        "rng_seed = 5\nn_blogs = 8\ntopical_fraction = 0.4\nposts_per_blog = 2:4\n"
        "ping_cycles = 2\n", encoding="utf-8")
    return fixture


def _mutated_cases(name, original: bytes):
    rng = random.Random(zlib.crc32(name.encode("utf-8")))
    return (mutate(original, rng) for _ in range(CASES))


READERS = {
    "run.conf": (load_config, ConfigError),
    "world.conf": (parse_world_spec, SpecError),
    "report.txt": (parse_report, ValueError),
    "graph.ckpt": (FrontierGraph.load, ValueError),
    "registry.txt": (load_registry, ValueError),
    "stoplist.txt": (load_stoplist, ValueError),
    "topic_corpus.txt": (_load_corpus, ConfigError),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_mutated_file_raises_only_the_declared_error(fixture_dir, tmp_path, name):
    reader, error = READERS[name]
    path = tmp_path / name
    for data in _mutated_cases(name, (fixture_dir / name).read_bytes()):
        path.write_bytes(data)
        try:
            reader(path)
        except error as exc:
            assert str(path) in str(exc), f"{exc!r} does not name the file"


@pytest.mark.parametrize("name", ["manifest.tsv", "ping_script.tsv", "labels.tsv"])
def test_mutated_fixture_table_raises_only_config_error(fixture_dir, tmp_path, name):
    """``load_world`` over a copy of the fixture whose table ``name`` is
    mutated."""
    fixture = tmp_path / "fixture"
    shutil.copytree(fixture_dir, fixture)
    path = fixture / name
    for data in _mutated_cases(name, path.read_bytes()):
        path.write_bytes(data)
        try:
            load_world(fixture)
        except ConfigError as exc:
            assert str(path) in str(exc), f"{exc!r} does not name the file"


@pytest.mark.parametrize("rng_seed", [11, 12, 13])
def test_batch_run_ends_over_a_hostile_world(tmp_path, rng_seed):
    """Guard: with 20% of the bodies and 30% of the ping cycles mutated, a
    batch run ends, and every seed's summary is counted as done or
    failed."""
    world = generate_world(WorldSpec(rng_seed=rng_seed, n_blogs=40))
    rng = random.Random(rng_seed)
    sites = {url: (ctype, mutate(body, rng) if rng.random() < 0.2 else body)
             for url, (ctype, body) in world.sites.items()}
    ping_script = [(t, mutate(doc.encode("utf-8"), rng).decode("utf-8", errors="replace")
                    if rng.random() < 0.3 else doc)
                   for t, doc in world.ping_script]
    hostile = replace(world, sites=sites, ping_script=ping_script)
    cfg = write_world_inputs(world, tmp_path)
    cfg.max_pages = 60
    report = run_batch(cfg, world=hostile).report
    assert report.seeds_in > 0 and report.summaries_failed > 0
    assert report.summaries_ok + report.summaries_failed == report.seeds_in
