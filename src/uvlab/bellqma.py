"""k-proof verifier restricted to separate, non-adaptive measurements.

Every proof register is measured up front and a classical computation on
the outcomes decides; the implementation enforces this shape by only ever
computing per-register outcome distributions, never a joint state.

With probability 1/2 each:

* Consistency: measure every proof in the computational basis and reject
  if any pair of outcomes shows the same vertex with two colors or an edge
  with one color.
* Uniformity: measure each color register (outcome x_i) then each node
  register (outcome y_i) against the uniform-superposition projector; let
  Z = {i : x_i = 0}.  Reject if |Z| < k/6 (a tie at exactly k/6 accepts),
  or if y_i = 1 for some i in Z.

Per register the uniformity branch splits three ways: x_i = 1 (weight a_i),
x_i = 0 and y_i = 0 (weight b_i), and the always-rejecting x_i = 0, y_i = 1
(weight c_i); the acceptance probability is an exact dynamic program over
these weights (:func:`uvlab.provers.uniformity_weights`), polynomial in k.

Exact consistency reads the conflict table shared with the two-proof
verifier (:func:`uvlab.qma2.consistency_accept_table`, n <= 10).  The test
accepts iff the set of observed outcomes is independent in the conflict
graph.  Support outcomes that conflict with no support outcome never
reject, so they merge into one wildcard mass w_i per register; the rest
form the core.  An empty core (honest proofs, at any n and k) accepts with
probability exactly 1.  Otherwise, for each independent set T of the core
with at most k outcomes, f(T) = prod_i (p_i(T) + w_i) is the probability
that every core outcome seen lies in T; the subset Moebius transform over
this downward-closed family turns f into Pr[the core outcomes seen are
exactly T], and their sum, clamped to [0, 1], is the acceptance.  The
budget (default 10^7, overridable via the UVLAB_BUDGET environment
variable) bounds the N * (k + core size) entries this allocates for N
sets, checked before each allocation: the set table grows by doubling into
preallocated rows, never past the N the budget allows.  Past it,
Monte-Carlo mode samples outcome tuples and reports a 99% Hoeffding
half-width; it needs no table and no cap.  A rejected sample stays
rejected as outcomes are added, so the sampler tests its samples after
registers 1, 2, 4, 8, ... and k, drops the rejected ones, and stops
drawing for a batch once none is left.  It still consumes one uniform
per register and sample, skipping the unused ones by advancing the
generator, so a seed gives the same estimate as drawing every register.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError
from .provers import stack_proofs, uniformity_weights
from .qma2 import consistency_accept_table
from .sgraph import SuccinctCircuit, expand
from .states import PureState
from .states import uniformity_measure  # noqa: F401  (rebound by perfbench/tracer.py)

DEFAULT_BUDGET = 10 ** 7
MC_CONFIDENCE = 0.99
Z_PRIME_THRESHOLD = 1.0 / 12.0


def default_k(n: int) -> int:
    """Proof count 120 n used by the soundness gap arithmetic."""
    return 120 * n


def soundness_bound(n: int) -> float:
    """Rejection floor 4^-n / 12000 at k = 120 n for non-3-colorable
    instances, valid for unentangled proofs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 4.0 ** (-n) / 12000.0


def completeness_bound(k: int) -> float:
    """Acceptance floor 1 - 2^(-k/40) of k honest proofs."""
    return 1.0 - 2.0 ** (-k / 40.0)


def enumeration_budget() -> int:
    """The exact-enumeration budget: UVLAB_BUDGET when set, else 10^7."""
    raw = os.environ.get("UVLAB_BUDGET", str(DEFAULT_BUDGET))
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"UVLAB_BUDGET must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class BellReport:
    p_consistency: float
    p_uniformity: float
    p_total: float
    mode: str
    k: int
    samples: int | None = None
    seed: int | None = None
    ci_halfwidth: float | None = None    # on p_total; only the consistency
    z_tail: float | None = None          # term is estimated, so hw_cons / 2

    def to_dict(self) -> dict:
        return {"p_cons": self.p_consistency, "p_unif": self.p_uniformity,
                "p_total": self.p_total, "mode": self.mode, "k": self.k,
                "samples": self.samples, "seed": self.seed,
                "ci_halfwidth": self.ci_halfwidth, "z_tail": self.z_tail}


def uniformity_stats(state: PureState) -> tuple[float, float, float]:
    """(a, b, c) = Pr[x=1], Pr[x=0, y=0], Pr[x=0, y=1] for one register."""
    return tuple(float(w) for w in uniformity_weights(stack_proofs([state]))[0])


def z_threshold(k: int) -> int:
    """Smallest |Z| that passes the |Z| < k/6 rejection."""
    return math.ceil(k / 6)


def _count_dp(out: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """Poisson-binomial DP: f[z] sums, over the register sets S of size z,
    prod_{i in S} counted[i] * prod_{i not in S} out[i]."""
    f = np.zeros(len(counted) + 1)
    f[0] = 1.0
    for a, b in zip(out, counted):
        f[1:] = f[1:] * a + f[:-1] * b
        f[0] *= a
    return f


def _probability(mass: np.ndarray) -> float:
    """Sum of DP entries (nonnegative), clamped at 1 against their rounding."""
    return min(1.0, float(mass.sum()))


def _uniformity_accept(weights: np.ndarray, threshold: int) -> float:
    # a c outcome rejects outright, so only a (not in Z) and b carry mass
    return _probability(_count_dp(weights[:, 0], weights[:, 1])[threshold:])


def _z_pmf(weights: np.ndarray) -> np.ndarray:
    return _count_dp(weights[:, 0], weights[:, 1] + weights[:, 2])


def uniformity_accept_exact(proofs, k_threshold: int | None = None) -> float:
    """Exact uniformity acceptance via a Poisson-binomial-style DP.

    Register i contributes a_i when left out of Z, b_i when in Z with a
    passing node outcome; any c_i event rejects, so the DP simply drops
    that weight.  Acceptance sums the DP mass at |Z| >= ceil(k/6), clamped
    to [0, 1]: each of the k steps rounds, so the unclamped sum is within
    about k * 2^-52 of the exact value for the computed weights.
    """
    thr = z_threshold(len(proofs)) if k_threshold is None else k_threshold
    return _uniformity_accept(uniformity_weights(stack_proofs(proofs)), thr)


def z_distribution(proofs) -> np.ndarray:
    """Exact PMF of |Z| (the count of color outcomes 0) over the k proofs."""
    return _z_pmf(uniformity_weights(stack_proofs(proofs)))


def z_tail_below_threshold(proofs) -> float:
    """Exact Pr[|Z| < k/6]."""
    return _probability(z_distribution(proofs)[: z_threshold(len(proofs))])


def z_prime_set(proofs) -> list[int]:
    """Registers whose color measurement yields 0 with probability >= 1/12."""
    w = uniformity_weights(stack_proofs(proofs))
    return [int(i) for i in np.nonzero(w[:, 1] + w[:, 2] >= Z_PRIME_THRESHOLD)[0]]


def _independent_sets(conflict: np.ndarray, k: int, budget: int) -> np.ndarray:
    """The independent sets of at most k outcomes of an m-outcome conflict
    core, as the ``drop`` rows of :func:`_consistency_exact`, in the order
    they are created: each core outcome j in turn extends every set it does
    not conflict with.  The table grows into preallocated rows, doubled when
    full and capped at the N sets with N * (k + m) within the budget, so
    the budget is checked before each allocation."""
    m = len(conflict)
    limit = budget // (k + m)
    index = np.int32 if limit < 2 ** 31 else np.int64     # row numbers stay below limit
    drop, free, rows = np.full((1, m), -1, dtype=index), np.ones((1, m), dtype=bool), 1
    for j in range(m):
        sel = np.flatnonzero(free[:rows, j])
        size = rows + sel.size
        if size > limit:
            raise BudgetError(f"{size} independent sets of a {m}-outcome conflict core "
                              f"at k={k} exceed the budget {budget}; use Monte-Carlo mode")
        if size > len(drop):
            capacity = min(limit, max(size, 2 * len(drop)))
            drop, free = _with_rows(drop, rows, capacity), _with_rows(free, rows, capacity)
        pos = np.full(rows + 1, -1, dtype=index)  # pos[-1] = -1 keeps absent outcomes absent
        pos[sel] = np.arange(rows, size)
        grown = drop[rows:size]
        grown[:] = pos[drop[sel]]
        grown[:, j] = sel
        room = (grown >= 0).sum(axis=1, keepdims=True) < k    # k registers see <= k outcomes
        free[rows:size] = free[sel] & ~conflict[j] & room
        rows = size
    return drop[:rows]


def _with_rows(table: np.ndarray, rows: int, capacity: int) -> np.ndarray:
    """A table of ``capacity`` rows whose first ``rows`` are copied from ``table``."""
    out = np.empty((capacity, table.shape[1]), dtype=table.dtype)
    out[:rows] = table[:rows]
    return out


def _consistency_exact(dists: np.ndarray, reject: np.ndarray, budget: int) -> float:
    """Exact consistency acceptance: the Moebius sum over the independent
    sets of the conflict core (module docstring).  Row T of ``drop`` holds,
    per core outcome j in T, the row of T without j, and -1 for j not in T.
    Each of the S = sum_T 2^|T| signed terms reaches the sum with relative
    error below (k + 3m + 24) 2^-53 (product, transform, pairwise sum), so
    the unclamped sum is within (k + 3m + 24) S 2^-53 of the exact value."""
    k, live = len(dists), dists.max(axis=0) > 0.0
    core = live & (reject & live).any(axis=1)
    if not core.any():
        return 1.0
    p, wild = dists[:, core].T, dists[:, ~core].sum(axis=1)
    drop = _independent_sets(reject[np.ix_(core, core)], k, budget)
    member = drop >= 0
    mass = member @ p
    mass += wild
    mass = mass.prod(axis=1)                      # Pr[the core outcomes seen lie in T]
    for j in range(drop.shape[1]):
        rows = np.flatnonzero(member[:, j])
        mass[rows] -= mass[drop[rows, j]]
    return min(1.0, max(0.0, float(mass.sum())))


def _rejects(pres: np.ndarray, edges) -> np.ndarray:
    """Per row of a (rows, vertices, 3) presence table: does it show a
    vertex with two colors or an edge with one color?  Each vertex's
    colors are packed into the bits of one byte first."""
    p = pres.view(np.uint8)
    colors = p[..., 0] | (p[..., 1] << 1) | (p[..., 2] << 2)
    bad = (colors & (colors - 1)).max(axis=1) > 0
    for u, v in edges:
        bad |= (colors[:, u] & colors[:, v]) > 0
    return bad


def _consistency_monte_carlo(dists: np.ndarray, edges, size: int,
                             samples: int, seed: int) -> tuple[float, float]:
    """Sample outcome tuples register by register into a per-sample
    vertex/color presence table, in batches of at most 50,000 rows and a
    16 MiB table, and count the rows that :func:`_rejects` flags.

    A dependent outcome set stays dependent as outcomes are added, so the
    predicate runs after registers 1, 2, 4, 8, ... and k, and the rows it
    flags are counted once and dropped.  When a batch has no live row left,
    its remaining registers are skipped and the generator is advanced past
    the uniforms they would have consumed, so each register still takes one
    ``random(b)`` per batch and the estimate equals the full draw's for the
    same seed.  A draw is clipped to its register's last outcome of nonzero
    probability."""
    k, d = dists.shape
    batch = min(50_000, 2 ** 24 // (3 * size))
    cdfs = np.cumsum(dists, axis=1)
    last = d - 1 - np.argmax(dists[:, ::-1] > 0.0, axis=1)
    checkpoints = {min(2 ** j, k) for j in range(k.bit_length() + 1)}
    rng = np.random.default_rng(seed)
    rejected = 0
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        pres = np.zeros((b, 3 * size), dtype=bool)
        live = np.arange(b)
        for i in range(k):
            u = rng.random(b)
            out = np.searchsorted(cdfs[i], u if len(live) == b else u[live], side="right")
            np.minimum(out, last[i], out=out)
            pres[np.arange(len(live)), out] = True
            if i + 1 in checkpoints:
                bad = _rejects(pres.reshape(-1, size, 3), edges)
                if bad.any():
                    rejected += int(bad.sum())
                    pres, live = pres[~bad], live[~bad]
                    if not len(live):
                        rng.bit_generator.advance(b * (k - i - 1))
                        break
        done += b
    p_accept = 1.0 - rejected / samples
    halfwidth = math.sqrt(math.log(2.0 / (1.0 - MC_CONFIDENCE)) / (2.0 * samples))
    return p_accept, halfwidth


def consistency_accept(c: SuccinctCircuit, proofs, mode: str = "exact",
                       samples: int | None = None, seed: int | None = None):
    """Consistency-test acceptance probability over all register pairs.

    Exact mode returns a float; Monte-Carlo mode returns (estimate,
    halfwidth) and requires both a sample count and a seed.
    """
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown consistency mode {mode!r}")
    if mode == "mc" and (samples is None or samples < 1 or seed is None):
        raise ValueError("Monte-Carlo mode requires a positive number of samples and a seed")
    # the table is capped, so an oversized instance fails before the stack
    reject = ~consistency_accept_table(c) if mode == "exact" else None
    dists = np.abs(stack_proofs(proofs, c.n)).reshape(len(proofs), -1) ** 2
    if mode == "exact":
        return _consistency_exact(dists, reject, enumeration_budget())
    return _consistency_monte_carlo(dists, sorted(expand(c).edges),
                                    2 ** c.n, samples, seed)


def acceptance(c: SuccinctCircuit, proofs, mode: str = "exact",
               samples: int | None = None, seed: int | None = None) -> BellReport:
    """Half-half mixture of the consistency and uniformity tests.  Only
    Monte-Carlo reports carry samples, seed and a half-width."""
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown acceptance mode {mode!r}")
    k = len(proofs)
    exact = mode == "exact"
    # consistency first: past the table's cap, exact mode fails before allocating
    if exact:
        p_cons = consistency_accept(c, proofs, "exact")
        mc = {}
    else:
        p_cons, hw = consistency_accept(c, proofs, "mc", samples=samples, seed=seed)
        mc = {"samples": samples, "seed": seed, "ci_halfwidth": hw / 2.0}
    weights = uniformity_weights(stack_proofs(proofs, c.n))
    p_unif = _uniformity_accept(weights, z_threshold(k))
    ztail = _probability(_z_pmf(weights)[: z_threshold(k)])
    return BellReport(p_cons, p_unif, (p_cons + p_unif) / 2.0,
                      "exact" if exact else "montecarlo", k, z_tail=ztail, **mc)
