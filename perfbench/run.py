#!/usr/bin/env python3
"""Build the workspace and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: repro_full, estimate_grid, serve_jobs (see BENCHMARK.json and
perfbench/README.md). The script builds `repro`, `rft-serve` and the
benchmark runner in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the runner, and prints its result as the last line
of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are every end-to-end metric of
BENCHMARK.json, with `--trace 1` every per-layer metric (see SWEEP_SECONDS
below); a traced run also validates every Chrome trace it wrote with
`scripts/validate_trace.py`. Exits 0 only when
every output check passed; exits nonzero without a result line when the
checkout cannot be built.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent

WORKLOADS = ("repro_full", "estimate_grid", "serve_jobs")

# A traced run reports every per-layer metric of the manifest, also those
# of layers its workload does not reach: it runs the workload traced for
# the whole window, then each other workload traced for this many seconds
# (each does its minimum of work), and takes a metric from the workload
# itself where it has one, else from the first other workload that does.
SWEEP_SECONDS = 1

# The runners of one run must finish within this, after the build.
RUN_TIMEOUT_S = 165


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(target_dir):
    """Builds the two binaries and the runner; returns the release dir."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "rft-bench", "--bin", "repro", "-p", "rft-serve", "--bin", "rft-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return target_dir / "release"


def run_runner(release, workload, seconds, args, out_dir, deadline):
    """Runs the runner in its own process group so that a timeout also
    stops the daemons it started; returns its last stdout line."""
    cmd = [
        str(release / "rft-perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--bin-dir", str(release),
        "--out-dir", str(out_dir),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"runners did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"runner printed no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def trace_ok(trace):
    """Runs the repository's trace validator on one trace of the run."""
    cmd = [sys.executable, str(ROOT / "scripts" / "validate_trace.py"), str(trace)]
    if trace.name == "trace-repro.json":
        # `repro` never runs more workers than its thread budget.
        cmd += ["--threads", "2"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (args.seconds > 0 and 0 <= args.seed < 2**64):
        ap.error("--seconds must be positive and --seed a 64-bit unsigned integer")

    for needed in ("Cargo.toml", "crates", "scripts/validate_trace.py"):
        if not (ROOT / needed).exists():
            log(f"{ROOT} is not a checkout of the workspace: {needed} is missing")
            return 1

    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    # One directory per workload, emptied first: it holds the last run.
    out_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in manifest["per_layer" if args.trace else "end_to_end"]]

    try:
        release = build(target_dir)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        result = run_runner(release, args.workload, args.seconds, args, out_dir, deadline)
        got = dict(result.get("metrics", {}))
        attempted = int(result.get("attempted", 0))
        failed = int(result.get("failed", 0))
        correct = bool(result.get("correct"))
        if args.trace:
            for other in WORKLOADS:
                if other == args.workload:
                    continue
                sub_dir = out_dir / f"sweep-{other}"
                sub_dir.mkdir()
                sub = run_runner(release, other, SWEEP_SECONDS, args, sub_dir, deadline)
                for name, value in sub.get("metrics", {}).items():
                    got.setdefault(name, value)
                attempted += int(sub.get("attempted", 0))
                failed += int(sub.get("failed", 0))
                correct = correct and bool(sub.get("correct"))
    except (subprocess.CalledProcessError, RuntimeError, ValueError) as e:
        log(f"error: {e}")
        return 1

    # Two checks of the run as a whole: its metric set, and (traced) the
    # validity of each Chrome trace it wrote.
    problems = [
        f"metric {name} missing or not a number"
        for name in expected
        if not is_number(got.get(name, {}).get("value"))
    ] + [f"unexpected metric {name}" for name in got if name not in expected]
    attempted += 1
    failed += int(bool(problems))
    if args.trace:
        traces = sorted(out_dir.rglob("trace-*.json"))
        bad = [t.name for t in traces if not trace_ok(t)]
        problems += [f"trace {t} failed validation" for t in bad]
        attempted += max(len(traces), 1)
        failed += len(bad) if traces else 1
    for p in problems:
        log(f"CHECK FAILED: {p}")

    correct = correct and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: got[n] for n in expected if n in got},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
