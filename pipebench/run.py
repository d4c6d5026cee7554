#!/usr/bin/env python3
"""End-to-end pipeline benchmark for blogwatch (see README.md).

    python3 pipebench/run.py --workload seq-200 --seed 7 --seconds 25 --trace 0

Run from the repository root. It imports blogwatch from ./src, generates
the workload's world from --seed, materializes it under ./.pipebench/, and
runs every measurement in a fresh child process (pipebench/child.py).
It prints each metric with its unit, then an info line, and last one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 an extra traced run
follows the timed runs and the metrics are the per-layer ones.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 3
DEADLINE_S = 170.0

# name -> unit; BENCHMARK.json lists the same metrics
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_mb": "MB",
    "harvest_rate": "share",
    "seed_latency_p50_s": "s",
    "seed_latency_p90_s": "s",
    "cpu_s": "s",
}

LAYER_UNITS = {"transport.bytes": "bytes", "bench.slowdown": "ratio"}


def _fail(message: str) -> int:
    print(f"pipebench: {message}", file=sys.stderr)
    return 2


def _src_stamp(src: Path) -> dict:
    """Line count (Python and Cython sources, not generated C) and a
    digest of every source file, so a result names the code it measured."""
    lines = 0
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts or path.suffix in (".pyc", ".so"):
            continue
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
        if path.suffix in (".py", ".pyx"):
            lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def _commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Children:
    """Starts child.py runs one after another, within the run's deadline."""

    def __init__(self, root: Path, workload: str, work: Path, seconds: float, deadline: float):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.base = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                     "--seconds", str(seconds)]
        self.work = work
        self.count = 0
        self.deadline = deadline

    def run(self, fixture: Path, mode: str, trace: int = 0, spans_path: str = "") -> dict:
        self.count += 1
        cmd = self.base + ["--fixture", str(fixture), "--mode", mode, "--trace", str(trace),
                           "--out", str(self.work / f"child-{self.count}")]
        if spans_path:
            cmd += ["--spans", spans_path]
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"child run failed with exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_outputs(workload: str, seed: int, runs: list) -> list:
    """Output errors of a sequential workload: every run of one world,
    traced or not, must produce the same report, crawl trace and
    checkpoint, and the first world of the reference seed the pinned ones."""
    errors = []
    first = {}
    for i, rec in enumerate(runs, 1):
        expected = first.setdefault(rec["world"], rec["hashes"])
        if rec["hashes"] != expected:
            errors.append(f"run {i} (world {rec['world']}) output differs: "
                          f"{rec['hashes']} != {expected}")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if seed == reference["seed"] and first[0] != reference[workload]:
        errors.append(f"seed {seed} output {first[0]} != pinned {reference[workload]}")
    return errors


def _latency_quantiles(runs: list):
    """p50 and p90 over the seeds of every run in the window."""
    values = [v for rec in runs for v in rec["latencies"]]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "blogwatch" / "__init__.py").is_file():
        return _fail(f"no blogwatch sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import blogwatch
    from blogwatch.harness import generate_world, materialize_world
    from child import WORKLOADS, world_specs

    if Path(blogwatch.__file__).resolve().parent != (src / "blogwatch").resolve():
        return _fail(f"imported blogwatch from {blogwatch.__file__}, not from {src}")
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be > 0")
    online = WORKLOADS[args.workload]["mode"] == "online"

    out_dir = root / ".pipebench"
    work = out_dir / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}"
    try:
        fixtures = []
        for i, spec in enumerate(world_specs(args.workload, args.seed)):
            fixtures.append(work / f"world-{i}")
            materialize_world(generate_world(spec), fixtures[-1])
        children = Children(root, args.workload, work, args.seconds, deadline)

        setups = [children.run(fixtures[0], "setup") for _ in range(SETUP_SAMPLES)]

        # the timed window: batch workloads repeat rounds of one run per
        # world while the next round is expected to end inside --seconds
        # (at least one round); the online schedule spans it
        runs = []
        window_start = time.perf_counter()
        while True:
            for world, fixture in enumerate(fixtures):
                runs.append(dict(children.run(fixture, "run"), world=world))
            elapsed = time.perf_counter() - window_start
            rounds = len(runs) // len(fixtures)
            if online or elapsed * (rounds + 1) / rounds > args.seconds:
                break

        traced = None
        if args.trace:
            traced = dict(children.run(fixtures[0], "run", trace=1,
                                       spans_path=str(out_dir / f"spans-{tag}.jsonl")),
                          world=0)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = runs + ([traced] if traced else [])
    errors = [] if online else _check_outputs(args.workload, args.seed, measured)
    for rec in measured:
        if online and rec["gen_late_max_s"] > rec["interval_s"]:
            errors.append(f"invalid run: the ping generator fell {rec['gen_late_max_s']:.3f} s "
                          f"behind its schedule (interval {rec['interval_s']:.3f} s)")
    # invariant violations are failures (counted in "failed"), not crashes
    violations = [v for rec in measured for v in rec["violations"]]
    attempted = sum(rec["attempted"] for rec in measured)
    failed = sum(rec["failed"] for rec in measured)

    e2e = {name: statistics.median(rec[name] for rec in runs)
           for name in ("run_s", "peak_mb", "harvest_rate", "cpu_s")}
    e2e["setup_s"] = statistics.median(rec["setup_s"] for rec in setups)
    e2e["seed_latency_p50_s"], e2e["seed_latency_p90_s"] = _latency_quantiles(runs)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel_impl": blogwatch.KERNEL_IMPL,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(root), **_src_stamp(src),
        "worlds": len(fixtures), "runs": len(runs), "setup_samples": len(setups),
        "setup_raw_s": [rec["setup_raw_s"] for rec in setups],
        "setup_slowdown": [rec["slowdown"] for rec in setups],
        "run_raw_s": [rec["run_raw_s"] for rec in runs],
        "run_slowdown": [rec["slowdown"] for rec in runs],
        "latency_samples": sum(len(rec["latencies"]) for rec in runs),
        "failed_share": failed / attempted if attempted else 0.0,
        "errors": errors,
        "violations": violations,
    }
    if online:
        info["gen_late_max_s"] = max(rec["gen_late_max_s"] for rec in runs)
        info["drain_s"] = [rec["drain_s"] for rec in runs]
    else:
        info["hashes"] = [rec["hashes"] for rec in runs[:len(fixtures)]]

    for name, unit in END_TO_END.items():
        print(f"{args.workload}  {name:<20} {e2e[name]:.6g} {unit}")
    print(f"{args.workload}  {'failed_share':<20} {info['failed_share']:.6g} share "
          f"({failed} of {attempted})")
    if online:
        print(f"{args.workload}  {'gen_late_max_s':<20} {info['gen_late_max_s']:.6g} s")

    if args.trace:
        layers = dict(traced["layers"])
        untraced_key = "cpu_s" if online else "run_s"
        base = statistics.median(rec[untraced_key] for rec in runs if rec["world"] == 0)
        layers["bench.trace_overhead_share"] = (traced[untraced_key] - base) / base
        info["span_count"] = traced["span_count"]
        info["spans_path"] = str(Path(".pipebench") / f"spans-{tag}.jsonl")
        for name in sorted(layers):
            print(f"{args.workload}  {name:<32} {layers[name]:.6g}")
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    for violation in violations:
        print(f"{args.workload}  VIOLATION {violation}")
    for error in errors:
        print(f"{args.workload}  ERROR {error}")

    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
