#!/usr/bin/env python3
"""uvlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sampled|exact|seesaw --seed N \\
        --seconds 20 --trace 0|1

Run from anywhere inside a source tree that holds ``src/uvlab``; uvlab is
imported from that tree, so nothing needs building or installing.  Every
process this script starts runs serially, with OpenBLAS and OpenMP threads
capped at the CPU count, and is waited for.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several fresh processes, each importing uvlab and loading, expanding and
oracle-coloring the workload's instances), ``run_s`` (median seconds of one
pass over the workload's fixed experiment list) and ``peak_rss_mb`` (peak
resident memory of the workload process).  ``--trace 1`` prints the
per-layer metrics of a traced run instead.  The line before the result
records the environment, the pass times and any failed check.  The last
line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` and ``failed`` count experiments over all passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sampled", "exact", "seesaw")
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170


def source_digest() -> str:
    """SHA-256 over the uvlab sources and instances, for trees without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "uvlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".sgc", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def child(args: list[str], env: dict) -> dict:
    """Run worker.py with the given arguments; return its JSON result."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="uvlab benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "uvlab" / "__init__.py").is_file():
        print(f"error: no uvlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [
            child([*common, "--setup-only"], env)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        run = child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                    env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups.append(run["setup_s"])
    failures = run["failures"] + [f"counter {k} did not repeat"
                                  for k in run.get("unstable_counts", [])]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_digest(),
        "nproc": int(threads), "thread_cap": int(threads), "platform": platform.platform(),
        **run["env"], "experiments_per_pass": run["experiments"],
        "warmup_s": run["warmup_s"], "pass_s": run["pass_s"],
        "traced_pass_s": run.get("traced_pass_s"), "setup_runs_s": setups,
        "failures": failures}))
    if args.trace:
        values = run["per_layer"]
    else:
        values = {"run_s": statistics.median(run["pass_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": not failures and run["failed"] == 0,
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
