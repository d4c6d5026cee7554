"""A run that makes no HTTP request loads no HTTP client code.

``urllib.request`` brings ``http.client``, ``ssl`` and the ``email``
parser, about 2 MB of resident memory. Only online mode fetches over
HTTP, so only ``pipeline.run``'s online branch imports
``httptransport``; a batch or in-memory run, and the harness, must not
load that stack, directly or through a helper such as ``xml.sax``.
"""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HTTP_STACK = ("urllib.request", "http.client", "ssl", "xml.sax")

SCRIPT = f"""
import sys
from pathlib import Path

import blogwatch.cli
from blogwatch.harness import WorldSpec, generate_world, materialize_world
from blogwatch.pipeline import load_config, run_batch

fixture = Path(sys.argv[1])
materialize_world(generate_world(WorldSpec(rng_seed=5, n_blogs=20)), fixture)
config = load_config(fixture / "run.conf")
config.max_pages = 5
assert run_batch(config).report.pages_fetched == 5
print(" ".join(m for m in {HTTP_STACK!r} if m in sys.modules))
"""


def test_batch_run_loads_no_http_stack(tmp_path):
    # -S: no site module, so only the script itself imports anything
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(tmp_path / "fixture")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
