"""Guards for byte-identical output of the synthetic world and of a batch
run over it.

Every tier-1 world and every benchmark workload comes from
``generate_world``, so a refactor of the generator must leave each world's
bytes as they are. The world digest below pins ten worlds: three
standard mixes and seven specs that leave out a label or shrink the
blogs. Only a declared change may re-pin it. A world with a single
topical blog, whose topical links have no other blog to go to, is pinned
on its own. The summary digest pins what layer 2 analyzes of each
announced blog of the three mixes: the summary's URL (its feed's), the
summary text and every link with its anchor and context. The pinned-hash test runs the
seed-7 ``seq-200`` world 0 the way ``pipebench/run.py`` does and
compares its output to ``pipebench/reference.json``. Both read
``pipebench/`` and change nothing there. The scorecard test counts the
seed-7 mixed-200 crawl's pages by their ground-truth label. The
environment test runs that crawl in two processes of differing hash
seed, time zone and locale.
"""
import hashlib
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from blogwatch.errors import BlogwatchError
from blogwatch.feeds import fetch_summary
from blogwatch.harness import (WorldSpec, generate_world, in_memory_transport,
                               materialize_world, mixed_200_spec)
from blogwatch.ping import SeedUrl
from blogwatch.pipeline import run_batch

from conftest import write_world_inputs

ROOT = Path(__file__).resolve().parent.parent
PIPEBENCH = ROOT / "pipebench"

_SMALL = WorldSpec(rng_seed=5, n_blogs=40)
DIGEST_SPECS = [
    mixed_200_spec(7),
    mixed_200_spec(11),
    mixed_200_spec(12),
    replace(_SMALL, spam_fraction=0.0),
    replace(_SMALL, media_fraction=0.0),
    replace(_SMALL, spam_fraction=0.0, media_fraction=0.0),
    replace(_SMALL, topical_fraction=1.0, spam_fraction=0.0, empty_fraction=0.0,
            media_fraction=0.0),
    replace(_SMALL, topical_fraction=0.0),
    replace(_SMALL, n_blogs=0),
    replace(_SMALL, posts_per_blog=(1, 1), links_per_post=(0, 2)),
]
WORLDS_DIGEST = "4087756bda1412e995ba54bb1e8c471529661a9a9281fa895c7ee00ed252d507"
LONE_TOPICAL_DIGEST = "f951b2cdcdc6f63be3d738163ab0dd5a230c14b054326f1d3b29f6f690658f07"
SUMMARIES_DIGEST = "c206e77459ecbdc53e16fd6f89cf4c2b80673d757bab58adcf326d2260014c4b"


def world_digest(world) -> str:
    """SHA-256 over every field of a world, in its order."""
    h = hashlib.sha256()
    for url, (ctype, body) in world.sites.items():
        h.update(f"{url}\t{ctype}\t{len(body)}\n".encode("utf-8"))
        h.update(body)
    h.update(repr((world.ping_script, list(world.labels.items()),
                   list(world.site_labels.items()), world.registry_lines,
                   world.topic_corpus, world.background_corpus,
                   world.announced)).encode("utf-8"))
    return h.hexdigest()


def test_generated_worlds_keep_their_bytes():
    h = hashlib.sha256()
    for spec in DIGEST_SPECS:
        h.update(world_digest(generate_world(spec)).encode("ascii"))
    assert h.hexdigest() == WORLDS_DIGEST


def test_a_world_with_one_topical_blog_keeps_its_bytes():
    world = generate_world(replace(_SMALL, n_blogs=10, topical_fraction=0.1))
    assert [url for url, label in world.site_labels.items() if label == "topical"] == \
        ["http://blog000.example/"]
    assert world_digest(world) == LONE_TOPICAL_DIGEST


def test_summaries_keep_their_text_and_links():
    h = hashlib.sha256()
    for spec in DIGEST_SPECS[:3]:
        world = generate_world(spec)
        transport = in_memory_transport(world)
        for url in world.announced:
            try:
                doc = fetch_summary(SeedUrl(url=url, discovered_at=0.0), transport)
            except BlogwatchError as exc:
                h.update(f"{url}\t{type(exc).__name__}\n".encode("utf-8"))
                continue
            links = [(l.target, l.anchor_text, l.context_window) for l in doc.links]
            h.update(repr((doc.url, doc.text, links)).encode("utf-8"))
    assert h.hexdigest() == SUMMARIES_DIGEST


def test_seq_200_world_0_keeps_its_pinned_hashes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    child = importlib.import_module("child")
    reference = json.loads((PIPEBENCH / "reference.json").read_text(encoding="utf-8"))
    fixture = tmp_path / "world-0"
    materialize_world(generate_world(child.world_specs("seq-200", reference["seed"])[0]),
                      fixture)
    _setup_s, _slowdown, world, config, _models = child._setup(fixture, online=False)
    config.max_pages = child.WORKLOADS["seq-200"]["max_pages"]
    config.report_path = str(tmp_path / "report.txt")
    config.checkpoint_path = str(tmp_path / "graph.ckpt")

    _result, rec = child._run_batch(world, config, in_memory_transport(world), trace=0)

    assert rec["hashes"] == reference["seq-200"]


# a batch run of the fixture in argv[1] at 100 pages, writing its report
# and checkpoint to argv[2]; prints the three hashes that
# pipebench/child.py takes, in reference.json's order
_HASHING_RUN = """
import hashlib, sys
from pathlib import Path
from blogwatch.pipeline import load_config, run_batch
fixture, out = map(Path, sys.argv[1:])
config = load_config(fixture / "run.conf")
config.max_pages = 100
config.report_path = str(out / "report.txt")
config.checkpoint_path = str(out / "graph.ckpt")
result = run_batch(config)
trace = "".join(f"{url}\\t{int(relevant)}\\n" for url, relevant in result.crawl_trace)
for data in (Path(config.report_path).read_bytes(), trace.encode("utf-8"),
             Path(config.checkpoint_path).read_bytes()):
    print(hashlib.sha256(data).hexdigest())
"""


def test_batch_output_depends_only_on_the_world_and_the_config(tmp_path):
    """The seed-7 mixed-200 batch run at 100 pages gives the pinned report,
    crawl-trace and checkpoint hashes in two fresh processes that differ
    in ``PYTHONHASHSEED``, time zone and locale, so no output follows the
    iteration order of a ``set`` of strings, the local time or the
    locale. The zones are POSIX ``TZ`` strings, which need no zone
    database. Limit: generated worlds write every ``pubDate`` with
    ``+0000``, so the zones cannot show a zone-less date read as local
    time; they show output that reads the local time itself."""
    reference = json.loads((PIPEBENCH / "reference.json").read_text(encoding="utf-8"))
    fixture = tmp_path / "fixture"
    materialize_world(generate_world(mixed_200_spec(reference["seed"])), fixture)
    runs = []
    for name, hash_seed, zone, locale in (("a", "1", "JST-9", "C"),
                                          ("b", "12345", "EST5", "C.UTF-8")):
        out = tmp_path / name
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, TZ=zone, LC_ALL=locale,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.Popen([sys.executable, "-c", _HASHING_RUN, str(fixture), str(out)],
                                     env=env, cwd=out, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True))
    try:
        for run in runs:
            stdout, stderr = run.communicate(timeout=120)
            assert run.returncode == 0, stderr
            assert dict(zip(("report", "crawl_trace", "checkpoint"), stdout.split())) == \
                reference["seq-200"]
    finally:
        for run in runs:
            run.kill()
            run.wait()


def test_the_mixed_200_crawl_keeps_its_ground_truth_scorecard(mixed_world, tmp_path):
    """The seed-7 mixed-200 batch crawl at 100 pages, scored against the
    generator's labels (``world.labels``): the pages fetched, and the
    pages the relevance gate judged relevant, per label. ``harvest_rate``
    counts only the gate's verdicts; these counts say what it let in. A
    change that alters the crawl on purpose (ROADMAP items 7, 16, 17 and
    18) updates these numbers and declares why."""
    cfg = write_world_inputs(mixed_world, tmp_path)
    cfg.max_pages = 100
    result = run_batch(cfg, world=mixed_world, transport=in_memory_transport(mixed_world))
    labels = [(mixed_world.labels.get(url, "unlabelled"), relevant)
              for url, relevant in result.crawl_trace]
    assert Counter(label for label, _relevant in labels) == \
        {"topical": 80, "spam": 12, "offtopic": 8}
    assert Counter(label for label, relevant in labels if relevant) == \
        {"topical": 80, "spam": 10}
