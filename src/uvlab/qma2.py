"""Two-proof verifier: Equality, Consistency and Uniformity tests.

The verifier receives two proofs, each on a node (x) color register pair,
and runs one of three tests chosen uniformly at random:

* Equality: swap test between the two proofs; reject iff it fails.
* Consistency: measure both proofs in the computational basis, getting
  (v1, c1) and (v2, c2); reject if the same vertex shows two colors, or if
  the (ordered, v_lo < v_hi) pair is an edge showing one color.
* Uniformity: measure the first proof's color then node register against
  the uniform-superposition projector; reject iff color gives 0 and node
  gives 1.

``acceptance_exact`` computes all three branch probabilities exactly; the
consistency term is a sum over the vertices (:func:`same_vertex_pass`)
and the expanded edge array, O(2^n + |E|), so it needs no outcome table
and no cap of its own.  ``run_sampled`` draws the accepting count of many
independent verifier runs at once from those exact probabilities: a
multinomial split of the runs over the three tests, then one binomial per
test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .provers import stack_proofs, uniformity_weights
from .sgraph import SuccinctCircuit, expand
from .states import PureState, swap_test
from .states import uniformity_measure  # noqa: F401  (rebound by perfbench/tracer.py)

MAX_CONSISTENCY_N = 10     # the n = 10 table holds 9.4 MB of booleans


@dataclass(frozen=True)
class VerdictReport:
    """Per-test acceptance probabilities and their uniform mixture."""

    p_equality: float
    p_consistency: float
    p_uniformity: float
    p_total: float

    def to_dict(self) -> dict:
        return {"p_eq": self.p_equality, "p_cons": self.p_consistency,
                "p_unif": self.p_uniformity, "p_total": self.p_total}


def soundness_bound(n: int) -> float:
    """Rejection floor 1 / (3 * 10^10 * 4^n) for non-3-colorable instances,
    valid for unentangled proof pairs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 / (3.0 * 1e10 * 4.0 ** n)


@lru_cache(maxsize=64)
def consistency_accept_table(c: SuccinctCircuit) -> np.ndarray:
    """Boolean table accept[(v1, c1), (v2, c2)] over flattened vertex-color
    outcomes (index v * 3 + color): a pair rejects when it shows one vertex
    with two colors, or an edge with one color.  No verifier path reads it:
    tests use it as the ``kron`` reference, and perfbench binds it.

    Raises :class:`CapacityError` above MAX_CONSISTENCY_N before allocating.
    Cached per circuit (read-only array; do not mutate).
    """
    if c.n > MAX_CONSISTENCY_N:
        raise CapacityError(f"the conflict table needs n <= {MAX_CONSISTENCY_N}, got n={c.n}")
    size = 2 ** c.n
    adj = np.zeros((size, size), dtype=bool)
    u, v = expand(c).edges.T
    adj[u, v] = adj[v, u] = True
    same_color = np.eye(3, dtype=bool)
    # kron(A, B)[(v1, c1), (v2, c2)] = A[v1, v2] & B[c1, c2]
    table = ~(np.kron(np.eye(size, dtype=bool), ~same_color)
              | np.kron(adj, same_color))
    table.setflags(write=False)
    return table


def same_vertex_pass(p: np.ndarray, q: np.ndarray) -> float:
    """1 - sum_v (P_v Q_v - sum_c p_vc q_vc) for two (2^n, 3) outcome
    distributions: the chance that the two measurements do not show one
    vertex with two colors."""
    return 1.0 - float((p.sum(axis=1) * q.sum(axis=1) - (p * q).sum(axis=1)).sum())


def acceptance_exact(c: SuccinctCircuit, r1: PureState, r2: PureState) -> VerdictReport:
    """Exact acceptance probabilities of the three tests and their mixture,
    each clamped to [0, 1] against rounding (a Haar state paired with itself
    can give a swap test a few ulps above 1).  Consistency is
    same_vertex_pass(p, q) - sum_{uv in E} sum_c (p_uc q_vc + p_vc q_uc)."""
    batch = stack_proofs([r1, r2], c.n)
    p_eq = swap_test(r1, r2, mode="closed_form")
    p, q = batch.per_register(np.abs(batch.amps) ** 2)
    u, v = expand(c).edges.T
    terms = np.empty((len(u), 3))      # a color at a time: one (|E|, 3) array is live
    for col in range(3):
        terms[:, col] = p[u, col] * q[v, col] + p[v, col] * q[u, col]
    p_cons = same_vertex_pass(p, q) - float(terms.sum())
    p_unif = 1.0 - float(uniformity_weights(batch)[0, 2])
    probs = [min(1.0, max(0.0, x)) for x in (p_eq, p_cons, p_unif)]
    return VerdictReport(*probs, min(1.0, sum(probs) / 3.0))


def run_sampled(report: VerdictReport, samples: int, rng: np.random.Generator) -> int:
    """Number of accepting runs among ``samples`` independent verifier runs:
    the count of runs picking each test is multinomial(samples, 1/3 each),
    and each test's accepting runs are binomial in its exact probability.
    O(1) in ``samples``; no outcome array is built."""
    picks = rng.multinomial(samples, [1 / 3] * 3)
    probs = [report.p_equality, report.p_consistency, report.p_uniformity]
    return int(rng.binomial(picks, probs).sum())
