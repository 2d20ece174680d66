"""One fresh benchmark process: set a workload up, then run its experiment
list in a closed loop (one caller; the next experiment starts when the
previous one returns) until the time is used.

    PYTHONPATH=src python3 perfbench/worker.py --workload exact --seed 1 \\
        --seconds 20 --trace 0 [--setup-only]

Prints one JSON object as its last line of standard output.  ``run.py``
starts this process; it is not meant to be called by hand.

After one warm-up pass it reports the times of the untraced passes.  Traced
(``--trace 1``), untraced and traced passes alternate, and it also reports
per-layer self times (median over traced passes), the counters of one
traced pass and the tracing overhead.  Spans are written to
``.perfbench_runs/`` at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer, self_times

SPAN_DIR = Path(__file__).resolve().parent.parent / ".perfbench_runs"

# per-layer metrics: self times come from span names (+ "_s"), counts from
# the tracer's counters; derived ratios are added in per_layer()
TIME_SPANS = ("sgraph.parse", "sgraph.expand", "sgraph.oracle", "provers.build",
              "states.uniformity_measure", "states.swap_test", "bellqma.uniformity",
              "bellqma.consistency_exact", "bellqma.consistency_mc", "qma2.exact",
              "qma2.table", "qma2.sampled", "optimize.build", "optimize.eig",
              "optimize.seesaw", "cli.self")
COUNTS = ("provers.proofs", "states.uniformity_measure_calls",
          "bellqma.uniformity_registers", "bellqma.grid_tuples", "bellqma.mc_samples",
          "bellqma.mc_draws", "qma2.exact_calls", "qma2.verdicts",
          "optimize.operator_bytes", "optimize.seesaw_iterations", "cli.ops",
          "cli.nonzero_exits")
# set-up spans count towards these layers' self times
SETUP_SPANS = ("sgraph.parse", "sgraph.expand", "sgraph.oracle")


@dataclass
class Pass:
    """What one pass over the experiment list observed."""
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def run_pass(exps, table, tracer=None, label="") -> Pass:
    """Run every experiment once, in order, timing the calls (not the checks)."""
    p = Pass()
    table.cache_clear()     # every pass starts from the same cache state
    first_span = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.counts.clear()
    done: dict = {}
    for exp in exps:
        if tracer:
            tracer.experiment = f"{label}:{exp.name}"
            tracer.counts.update(exp.counts)
        start = time.perf_counter()
        try:
            out, problem = exp.call(), None
        except Exception as exc:   # a failed experiment is counted, not fatal
            out, problem = None, f"{type(exc).__name__}: {exc}"
        p.seconds += time.perf_counter() - start
        if problem is None:
            try:
                problem = exp.check(out, done)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        p.attempted += 1
        if problem:
            p.failed += 1
            p.failures.append(f"{exp.name}: {problem}")
    if tracer:
        p.spans = tracer.spans[first_span:]
        p.counts = dict(tracer.counts)
        info = table.cache_info()
        looked_up = info.hits + info.misses
        p.counts["qma2.table_hit_ratio"] = info.hits / looked_up if looked_up else 0.0
    return p


def run_passes(exps, seconds, table, tracer=None):
    """A warm-up pass, then timed passes until ``seconds`` have gone by since
    the start.  With a tracer, timed passes alternate untraced and traced,
    so both see the same drift in machine speed.  Returns (warm-up pass,
    untraced passes, traced passes)."""
    start = time.perf_counter()
    warm = run_pass(exps, table)
    untraced, traced = [], []
    while (not untraced or (tracer and not traced)
           or time.perf_counter() - start < seconds):
        if tracer and len(traced) < len(untraced):
            tracer.install()
            try:
                traced.append(run_pass(exps, table, tracer, f"t{len(traced)}"))
            finally:
                tracer.restore()
        else:
            untraced.append(run_pass(exps, table))
    return warm, untraced, traced


def per_layer(traced, untraced, setup_spans) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and any counter that did
    not repeat exactly between them."""
    setup_self = self_times(setup_spans)
    per_pass = [self_times(p.spans) for p in traced]
    out = {}
    for span in TIME_SPANS:
        value = statistics.median(t.get(span, 0.0) for t in per_pass)
        if span in SETUP_SPANS:
            value += setup_self.get(span, 0.0)
        out[f"{span}_s"] = value
    counts = traced[0].counts
    unstable = [k for p in traced[1:] for k in p.counts if p.counts[k] != counts.get(k)]
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    out["qma2.table_hit_ratio"] = counts["qma2.table_hit_ratio"]
    out["qma2.us_per_verdict"] = (1e6 * out["qma2.sampled_s"] / out["qma2.verdicts"]
                                  if out["qma2.verdicts"] else 0.0)
    out["optimize.s_per_iteration"] = (
        out["optimize.seesaw_s"] / out["optimize.seesaw_iterations"]
        if out["optimize.seesaw_iterations"] else 0.0)
    out["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                               - statistics.median(p.seconds for p in untraced))
    return out, sorted(set(unstable))


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import workloads                      # imports uvlab
    from uvlab import qma2
    table = qma2.consistency_accept_table  # the lru_cache object, unwrapped
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    insts = workloads.setup(args.workload)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        tracer.restore()
    setup_spans = list(tracer.spans) if tracer else []

    exps = workloads.experiments(args.workload, insts, args.seed)
    result = {"setup_s": setup_s, "experiments": len(exps), "env": environment()}
    warm, untraced, traced = run_passes(exps, args.seconds, table, tracer)
    if tracer:
        result["per_layer"], result["unstable_counts"] = per_layer(traced, untraced,
                                                                    setup_spans)
        result["traced_pass_s"] = [p.seconds for p in traced]
        tracer.write_csv(SPAN_DIR / f"spans-{args.workload}.csv")
    passes = [warm, *untraced, *traced]
    result.update(
        warmup_s=warm.seconds,
        pass_s=[p.seconds for p in untraced],
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        failures=[f for p in passes for f in p.failures][:10],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
