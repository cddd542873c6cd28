#!/usr/bin/env python3
"""The repository's benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--serve-limit-ms MS]

Builds the system and the perfbench program from this checkout's sources
into $CARGO_TARGET_DIR (default .bench_build), runs one workload and prints
its report followed, as the last line, by one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics (plus the traced
run's end-to-end numbers beside the untraced ones in the report).  Exits
non-zero when an output check fails or a metric is missing.

Workloads, metrics and the seed rules are described in perfbench/LAYERS.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("clip_busy", "clip_gated", "serve_open", "campaign_gpr")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def die_with_parent():
    """Child-side: SIGTERM this process when its parent exits (Linux)."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, signal.SIGTERM)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out):
    """Configures (once) and builds perfbench and the `vs` CLI."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "vs_cli",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """Commit id when the checkout is a git work tree, plus a digest of the
    sources the benchmark builds (a checkout may carry no git metadata)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "nogit"
    return f"{commit}+src:{h.hexdigest()[:12]}"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Returns the problems with a result object (empty when it is valid)."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return problems
    metrics = result["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"metric {name} not printed")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name} unit {metrics[name].get('unit')}"
                            f" != {unit}")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--serve-limit-ms", type=float, default=250.0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"system sources not found under {ROOT}/src; nothing to measure")
        return 2

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--vs", str((out / "vs_tools" / "vs").relative_to(ROOT)),
           "--golden", "ci/golden_campaign.txt",
           "--out", str(results.relative_to(ROOT)),
           "--serve-limit-ms", repr(args.serve_limit_ms),
           "--commit", source_digest()]
    # perfbench dies with this script (and the server it starts dies with
    # perfbench), so no process outlives a killed run.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=die_with_parent)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3

    lines = stdout.rstrip("\n").split("\n")
    if stdout.strip() == "":
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(stdout)
        log(f"{args.workload} ended without a result line "
            f"(exit {proc.returncode})")
        return proc.returncode or 3
    problems = check_result(result, expected_metrics(args.trace == 1))
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            log(p)
        return 3
    print("\n".join(lines), flush=True)
    if not result["correct"] or proc.returncode != 0:
        log(f"{args.workload}: output check failed (exit {proc.returncode})")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
