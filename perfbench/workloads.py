"""The benchmark's three workloads: set-up and fixed experiment lists.

An experiment is either one in-process ``uvlab.cli.main(argv)`` call (the
user path, with its exit code) or direct calls to public functions of
``uvlab.optimize`` and ``uvlab.provers``.  All proof, Monte-Carlo and
seesaw seeds come from the workload seed; uvlab only sees the generated
argv and arguments.  Every experiment carries a reference check from
:mod:`checks`.

``smoke=True`` builds the same kinds of experiment at minimum size, for the
benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import uvlab
from uvlab import bellqma, cli, corpus, optimize, provers, sgraph

import checks

WORKLOADS = ("sampled", "exact", "seesaw")
INSTANCE_DIR = Path(uvlab.__file__).parent / "instances"

# sampled: Monte-Carlo sample counts per command
QMA2_SAMPLES = 10_000
BELL_SAMPLES = 20_000
# exact: random proof seeds per instance for the grid enumeration
GRID_SEEDS = 3
# seesaw: random restarts (one seesaw call each) and the iteration cap.  The
# cap sits below the iterations a random start needs to converge, so every
# call does the same work whatever the seed.
SEESAW_RESTARTS = {2: 4, 3: 3, 4: 1}
SEESAW_ITERS = {2: 40, 3: 80, 4: 20}
# exact k-proof consistency enumerates d^K tuples, d = 3 * 2^n; these are
# the largest K within the default 10^7 budget
GRID_MAX_K = {2: 6, 3: 5}


@dataclass(frozen=True)
class Instance:
    name: str
    circuit: sgraph.SuccinctCircuit
    colorable: bool          # from the bundled manifest
    coloring: sgraph.Coloring
    violations: int          # 0 when colorable, else the oracle's minimum

    @property
    def n(self) -> int:
        return self.circuit.n

    @property
    def path(self) -> str:
        return str(INSTANCE_DIR / f"{self.name}.sgc")


@dataclass
class Experiment:
    name: str
    call: Callable[[], object]
    # (output, outputs of the earlier experiments of this pass) -> problem or None
    check: Callable[[object, dict], str | None]
    # per-layer counts computed from the inputs, added when traced
    counts: dict = field(default_factory=dict)


def instance_names(workload: str) -> list[str]:
    if workload == "exact":
        return corpus.available()
    if workload == "sampled":
        return ["k4_n2", "k4_n3"]
    if workload == "seesaw":
        return ["k4_n2", "k4_n3", "k4_n4"]
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, smoke: bool = False) -> dict[str, Instance]:
    """Load, expand and oracle-color the workload's instances."""
    names = instance_names(workload)
    if smoke:
        names = [nm for nm in names if nm.endswith("_n2")]
    manifest = corpus.manifest()
    out = {}
    for name in names:
        c = sgraph.parse_sgc((INSTANCE_DIR / f"{name}.sgc").read_text())
        g = sgraph.expand(c)
        coloring, violations = sgraph.brute_force_3color(g), 0
        if coloring is None:
            coloring, violations = sgraph.min_violation_coloring(g)
        out[name] = Instance(name, c, manifest[name]["colorable"], coloring, violations)
    return out


def run_cli(argv: list[str]):
    """One ``uvlab`` command in process: (exit code, parsed JSON report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, (json.loads(buf.getvalue()) if rc == 0 else None)


def _cli(name: str, argv: list[str], check, counts=None) -> Experiment:
    def verify(out, done):
        rc, report = out
        if rc != 0:
            return f"exit code {rc}"
        done[name] = report
        return check(report, done)
    return Experiment(name, lambda: run_cli(["run", *argv]), verify, counts or {})


def _seeds(seed: int):
    rng = random.Random(seed)
    return lambda: rng.randrange(1, 2 ** 31)


def sampled(insts: dict[str, Instance], seed: int, smoke: bool = False) -> list[Experiment]:
    """Monte-Carlo commands: the two-proof near-coloring cheat (per-verdict
    sampling loop) and the k-proof verifier at k = 120n (bulk categorical
    draws) with near and random proofs."""
    next_seed = _seeds(seed)
    q_samples, b_samples = (200, 500) if smoke else (QMA2_SAMPLES, BELL_SAMPLES)
    exps = []
    for inst in insts.values():
        s = next_seed()
        exps.append(_cli(
            f"qma2-mc-near-{inst.name}",
            ["--instance", inst.path, "--protocol", "qma2", "--strategy", "near",
             "--mode", "mc", "--samples", str(q_samples), "--seed", str(s)],
            lambda rep, done, inst=inst: checks.qma2_near_mc(rep, inst.n, inst.violations)))
    for inst in insts.values():
        k = bellqma.default_k(inst.n)
        for strategy in ("near", "random"):
            s = next_seed()
            if strategy == "near":
                check = (lambda rep, done, inst=inst:
                         checks.bell_near_mc(rep, inst.n))
            else:
                # exact consistency of the first 4 of the same proofs bounds
                # the k-proof value from above
                first = provers.random_product_proofs(provers.proof_shape(inst.n), 4, s)
                upper = bellqma.consistency_accept(inst.circuit, first, "exact")
                check = lambda rep, done, upper=upper: checks.bell_random_mc(rep, upper)
            exps.append(_cli(
                f"bell-mc-{strategy}-{inst.name}",
                ["--instance", inst.path, "--protocol", "bellqma", "--strategy", strategy,
                 "--k", str(k), "--mode", "mc", "--samples", str(b_samples),
                 "--seed", str(s)],
                check))
    return exps


def _random_grid_check(prev: str, against_pair: bool):
    def check(rep, done):
        if prev not in done:
            return f"reference {prev} missing"
        ref = done[prev]["p_cons"]
        if against_pair:
            return checks.close("p_cons vs two-proof p_cons", rep["p_cons"], ref)
        return checks.not_above("p_cons vs one proof fewer", rep["p_cons"], ref)
    return check


def exact(insts: dict[str, Instance], seed: int, smoke: bool = False) -> list[Experiment]:
    """Exact acceptance, no sampling: the oracle, the two-proof verifier,
    the k-proof uniformity DP at k = 120n, and k-proof grid consistency for
    every K whose d^K grid fits the default budget."""
    next_seed = _seeds(seed)
    exps = []
    for inst in insts.values():
        exps.append(_cli(
            f"oracle-{inst.name}", ["--instance", inst.path, "--protocol", "oracle"],
            lambda rep, done, inst=inst: checks.oracle(rep, inst.colorable)))
    for inst in insts.values():
        if inst.colorable:
            argv, check = ["--strategy", "honest"], lambda rep, done: checks.qma2_honest(rep)
        else:
            argv, check = ["--strategy", "near"], (
                lambda rep, done, inst=inst: checks.qma2_near(rep, inst.n, inst.violations))
        exps.append(_cli(f"qma2-exact-{argv[1]}-{inst.name}",
                         ["--instance", inst.path, "--protocol", "qma2", *argv], check))
    for inst in insts.values():
        if inst.colorable:
            exps.append(_cli(
                f"bell-exact-honest-{inst.name}",
                ["--instance", inst.path, "--protocol", "bellqma", "--strategy", "honest"],
                lambda rep, done: checks.bell_honest(rep)))
    for inst in insts.values():
        if inst.colorable or inst.n not in GRID_MAX_K:
            continue
        ks = range(2, (3 if smoke else GRID_MAX_K[inst.n]) + 1)
        d = 3 * 2 ** inst.n
        base = ["--instance", inst.path, "--protocol", "bellqma"]
        for k in ks:
            exps.append(_cli(
                f"bell-exact-near-{inst.name}-k{k}",
                [*base, "--strategy", "near", "--k", str(k)],
                lambda rep, done, inst=inst: checks.bell_near_exact(rep, inst.n),
                {"bellqma.grid_tuples": d ** k}))
        for _ in range(1 if smoke else GRID_SEEDS):
            s = next_seed()
            pair = f"qma2-exact-random-{inst.name}-s{s}"
            exps.append(_cli(pair, ["--instance", inst.path, "--protocol", "qma2",
                                    "--strategy", "random", "--seed", str(s)],
                             lambda rep, done: None))
            prev = pair
            for k in ks:
                # the first k proofs are shared across k, so p_cons cannot
                # grow with k; at k = 2 it is the two-proof consistency term
                name = f"bell-exact-random-{inst.name}-s{s}-k{k}"
                exps.append(_cli(
                    name, [*base, "--strategy", "random", "--seed", str(s), "--k", str(k)],
                    _random_grid_check(prev, k == 2), {"bellqma.grid_tuples": d ** k}))
                prev = name
    return exps


def seesaw(insts: dict[str, Instance], seed: int, smoke: bool = False) -> list[Experiment]:
    """Direct calls: build the acceptance operator, its top eigenvalue, then
    seesaw from the near-coloring pair and from random restarts, one
    restart per call so each call's iteration count is its whole count."""
    next_seed = _seeds(seed)
    exps = []
    for inst in insts.values():
        iters = 5 if smoke else SEESAW_ITERS[inst.n]
        seeds = [next_seed() for _ in range(1 if smoke else SEESAW_RESTARTS[inst.n])]

        def run(inst=inst, iters=iters, seeds=seeds):
            op = optimize.build_acceptance_operator(inst.circuit, instance=inst.name)
            lam = optimize.spectral_norm(op)
            near = provers.ProverStrategy("near_coloring", coloring=inst.coloring,
                                          violations=inst.violations).states(inst.circuit, 2)
            results = [optimize.seesaw(op, restarts=0, iters=iters,
                                       init_states=(near[0], near[1]))]
            results += [optimize.seesaw(op, restarts=1, iters=iters, seed=s) for s in seeds]
            return {"lambda_max": lam, "values": [r.value for r in results]}

        exps.append(Experiment(
            f"seesaw-{inst.name}", run,
            lambda out, done, inst=inst: checks.seesaw(out, inst.n, inst.violations)))
    return exps


BUILDERS = {"sampled": sampled, "exact": exact, "seesaw": seesaw}


def experiments(workload: str, insts: dict[str, Instance], seed: int,
                smoke: bool = False) -> list[Experiment]:
    return BUILDERS[workload](insts, seed, smoke)
