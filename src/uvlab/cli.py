"""Command-line front end.

Two subcommands:

* ``uvlab run`` executes one protocol experiment on an instance file and
  writes a JSON report (optionally flattened to CSV); identical config and
  seed produce byte-identical reports.
* ``uvlab suite lemmas|acceptance`` drives the property suites and prints
  one pass/fail line per check plus a JSON summary.

Exit codes: 0 success, 1 suite check failure, 2 instance/parse/config
errors (a file that cannot be read or written, and a ``--samples`` or
``--seed`` out of range, included), 3 capacity errors.

At module level only the standard library and :mod:`uvlab.errors` are
imported; each command imports the layers it runs, so ``--help`` and a
bad flag exit before numpy loads and an oracle run loads only
:mod:`uvlab.sgraph` besides.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import BudgetError, CapacityError, ParseError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INSTANCE = 2
EXIT_CAPACITY = 3


def _load_instance(path: str):
    """The circuit parsed from ``path`` and the file's stem."""
    from . import sgraph
    p = Path(path)
    if not p.exists():
        raise ParseError(f"instance file {path!r} does not exist")
    return sgraph.parse_sgc(p.read_text()), p.stem


def _check_out(out: str | None):
    """Fail before any work when the directory of ``--out`` is missing."""
    if out and not Path(out).parent.is_dir():
        raise ParseError(f"--out directory {str(Path(out).parent)!r} does not exist")


def _emit(report: dict, out: str | None, as_csv: bool):
    if as_csv:
        lines = ["key,value"]
        lines += [f"{k},{json.dumps(report[k])}" for k in sorted(report)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _proofs_for(c, strategy: str, k: int, seed: int | None):
    from . import provers, sgraph
    if strategy == "honest":
        coloring = sgraph.brute_force_3color(sgraph.expand(c))
        if coloring is None:
            raise ParseError("instance is not 3-colorable; no honest strategy exists")
        return provers.ProverStrategy("honest", coloring=coloring).states(c, k), None
    if strategy == "near":
        coloring, bad = sgraph.min_violation_coloring(sgraph.expand(c))
        if bad == 0:
            raise ParseError("instance is 3-colorable; no near-coloring cheat exists")
        strat = provers.ProverStrategy("near_coloring", coloring=coloring, violations=bad)
        return strat.states(c, k), bad
    if strategy == "random":
        if seed is None:
            raise ParseError("--strategy random requires --seed")
        return provers.ProverStrategy("random", seed=seed).states(c, k), None
    raise ParseError(f"unknown strategy {strategy!r}; pick honest, near or random")


def _check_mc(args):
    """The Monte-Carlo flags, checked before the instance is read."""
    if args.samples is None or args.seed is None:
        raise ParseError("--mode mc requires --samples and --seed")
    if not 1 <= args.samples <= 2 ** 63 - 1:     # numpy draws counts as int64
        raise ParseError(f"--samples must be a positive integer at most 2^63 - 1, "
                         f"got {args.samples}")


def _run_qma2(args, c, name) -> dict:
    import numpy as np

    from . import qma2
    proofs, bad = _proofs_for(c, args.strategy, 2, args.seed)
    report = qma2.acceptance_exact(c, proofs[0], proofs[1])
    out = {"instance": name, "n": c.n, "strategy": args.strategy, "seed": args.seed,
           "paper_soundness_floor": qma2.soundness_bound(c.n)}
    out.update(report.to_dict())
    if bad is not None:
        out["declared_violations"] = bad
    if args.mode == "mc":
        hits = qma2.run_sampled(report, args.samples, np.random.default_rng(args.seed))
        out["sampled_acceptance"] = hits / args.samples
        out["samples"] = args.samples
    return out


def _run_bellqma(args, c, name) -> dict:
    from . import bellqma
    k = bellqma.default_k(c.n) if args.k is None else args.k
    if k < 2:
        raise ParseError("bellqma needs k >= 2")
    proofs, bad = _proofs_for(c, args.strategy, k, args.seed)
    report = bellqma.acceptance(c, proofs, mode=args.mode,
                                samples=args.samples, seed=args.seed)
    out = {"instance": name, "n": c.n, "strategy": args.strategy,
           "paper_soundness_floor": bellqma.soundness_bound(c.n),
           "paper_completeness_floor": bellqma.completeness_bound(k)}
    out.update(report.to_dict())
    if bad is not None:
        out["declared_violations"] = bad
    return out


def _run_oracle(args, c, name) -> dict:
    from . import sgraph
    g = sgraph.expand(c)
    coloring = sgraph.brute_force_3color(g)
    return {"instance": name, "n": c.n, "m": g.m, "edges": len(g.edges),
            "colorable": coloring is not None,
            "coloring": list(coloring.colors) if coloring else None}


def _run_seesaw(args, c, name) -> dict:
    from . import optimize, qma2
    seed = 0 if args.seed is None else args.seed
    op = optimize.build_acceptance_operator(c, instance=name)
    result = optimize.seesaw(op, seed=seed)
    return {"instance": name, "n": c.n, "seed": seed,
            "lambda_max": optimize.spectral_norm(op),
            "lambda_max_error_bound": optimize.NORM_RESIDUAL_TOL,
            "seesaw_best": result.value, "iterations": result.iterations,
            "restarts": result.restarts,
            "paper_soundness_floor": qma2.soundness_bound(c.n)}


def _run_gadget(args, c, name) -> dict:
    import numpy as np

    from . import gadgets
    seed = 0 if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    u = gadgets.haar_unitary(rng)
    z = gadgets.zhzhz_decompose(u)
    reconstruction = float(np.linalg.norm(z.matrix() - u, 2))
    accept_op = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    report = gadgets.end_to_end_reduction(accept_op)
    arbitrary = gadgets.end_to_end_reduction(accept_op, unitary=u)
    return {"instance": name, "seed": seed,
            "decomposed": z.to_dict(), "reconstruction_error": reconstruction,
            "honest_reduction": report, "arbitrary_reduction": arbitrary}


def cmd_run(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ParseError(f"--seed must be a non-negative integer, got {args.seed}")
    _check_out(args.out)
    if args.mode == "mc" and args.protocol in ("qma2", "bellqma"):
        _check_mc(args)
    c, name = _load_instance(args.instance)
    runner = {"qma2": _run_qma2, "bellqma": _run_bellqma, "oracle": _run_oracle,
              "seesaw": _run_seesaw, "gadget": _run_gadget}[args.protocol]
    report = runner(args, c, name)
    _emit(report, args.out, args.csv)
    return EXIT_OK


def cmd_suite(args) -> int:
    from . import suites
    _check_out(args.out)
    results = suites.run_suite(args.name)
    for r in results:
        print(r.line())
    summary = {"suite": args.name,
               "passed": all(r.passed and r.in_budget for r in results),
               "checks": [r.to_dict() for r in results]}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"suite {args.name}: {'all passed' if summary['passed'] else 'FAILURES'}")
    return EXIT_OK if summary["passed"] else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``uvlab`` argument parser, built once per process."""
    ap = argparse.ArgumentParser(prog="uvlab",
                                 description="verification lab for unentangled-proof "
                                             "protocols on succinct 3-coloring instances")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and emit a JSON report")
    run.add_argument("--instance", required=True, help="path to an SGC v1 file")
    run.add_argument("--protocol", required=True,
                     choices=["qma2", "bellqma", "gadget", "seesaw", "oracle"])
    run.add_argument("--strategy", default="honest",
                     choices=["honest", "near", "random"])
    run.add_argument("--k", type=int, default=None, help="proof count (bellqma)")
    run.add_argument("--mode", default="exact", choices=["exact", "mc"])
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None, help="report path (stdout when absent)")
    run.add_argument("--csv", action="store_true", help="flatten the report to CSV")
    run.set_defaults(fn=cmd_run)

    suite = sub.add_parser("suite", help="run a named check suite")
    suite.add_argument("name", choices=["lemmas", "acceptance"])
    suite.add_argument("--out", default=None, help="summary JSON path")
    suite.set_defaults(fn=cmd_suite)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTANCE
    except (CapacityError, BudgetError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
