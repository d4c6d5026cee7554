"""A run that makes no HTTP request loads no HTTP client code, and a run
whose post dates all take the RSS fast path loads no ``email`` package.

``urllib.request`` brings ``http.client``, ``ssl`` and the ``email``
parser, about 2 MB of resident memory. Only online mode fetches over
HTTP, so only ``pipeline.run``'s online branch imports
``httptransport``; a batch or in-memory run, and the harness, must not
load that stack, directly or through a helper such as ``xml.sax``.
``email.utils`` (about 1.3 MB) is imported only where it is called: by
``feeds._parse_pubdate`` for a date the fast path does not read, and by
``harness.generate_world``. So a batch run on a fixture made before its
process starts loads no ``email`` module either; the harness then
generates and writes a world in the same process, and that still loads
no HTTP stack.
"""
import os
import subprocess
import sys
from pathlib import Path

from blogwatch.harness import WorldSpec, generate_world, materialize_world

SRC = Path(__file__).resolve().parent.parent / "src"
HTTP_STACK = ("urllib.request", "http.client", "ssl", "xml.sax")
UNLOADED = HTTP_STACK + ("email",)

SCRIPT = f"""
import sys
from pathlib import Path

import blogwatch.cli
from blogwatch.harness import WorldSpec, generate_world, materialize_world
from blogwatch.pipeline import load_config, run_batch

config = load_config(Path(sys.argv[1]) / "run.conf")
config.max_pages = 5
assert run_batch(config).report.pages_fetched == 5
print(" ".join(m for m in {UNLOADED!r} if m in sys.modules))
materialize_world(generate_world(WorldSpec(rng_seed=5, n_blogs=20)), Path(sys.argv[2]))
print(" ".join(m for m in {HTTP_STACK!r} if m in sys.modules))
"""


def test_batch_run_loads_no_http_stack_and_no_email(tmp_path):
    fixture = tmp_path / "fixture"
    materialize_world(generate_world(WorldSpec(rng_seed=5, n_blogs=20)), fixture)
    # -S: no site module, so only the script itself imports anything
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(fixture), str(tmp_path / "made")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    after_run, after_harness = done.stdout.split("\n")[:2]
    assert after_run.split() == []
    assert after_harness.split() == []
