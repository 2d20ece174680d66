"""Proof-state construction: honest provers, engineered cheats, and the
amplitude decomposition used throughout the soundness analysis.

A proof for an instance with n-bit vertex labels lives on two registers,
a node register of dimension 2^n and a color register of dimension 3.  The
honest proof for a coloring c is

    (1 / sqrt(2^n)) * sum_i |i>|c(i)>,

with vertices outside the graph padded by color 0.  Any node (x) color state
factors row-wise as amplitudes alpha_i on nodes and conditional unit rows
beta_{i,j} on colors; that view drives all the soundness lemmas.  Both
verifiers read k proofs as one ``(k, 2^n, 3)`` array (:func:`stack_proofs`)
and take their uniformity weights from :func:`uniformity_weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ShapeMismatchError
from .sgraph import Coloring, SuccinctCircuit, expand
from .states import ZERO_BRANCH_TOL, PureState, RegisterShape
from .states import uniformity_measure  # noqa: F401  (rebound by perfbench/tracer.py)

MAX_BATCH_AMPLITUDES = 2 ** 24     # k * 3 * 2^n complex128s: 256 MiB


def proof_shape(n: int) -> RegisterShape:
    """node (x) color register shape for n-bit vertex labels."""
    return RegisterShape.of((2 ** n, 3), ("node", "color"))


@dataclass(frozen=True)
class ProofDecomposition:
    """Row decomposition amps[i, j] = alpha[i] * beta[i, j].

    alpha carries the node marginal (real, nonnegative by convention; any
    phase lives in beta) and each beta row is a unit vector.
    """

    alpha: np.ndarray
    beta: np.ndarray


def decompose(state: PureState) -> ProofDecomposition:
    """Split a two-register state into node amplitudes and color rows."""
    if len(state.shape.dims) != 2:
        raise ShapeMismatchError(
            f"decompose needs a node (x) color state, got dims {state.shape.dims}")
    t = state.tensor_view()
    alpha = np.linalg.norm(t, axis=1)
    beta = np.zeros_like(t)
    nz = alpha > 0
    beta[nz] = t[nz] / alpha[nz, None]
    beta[~nz, 0] = 1.0
    return ProofDecomposition(alpha.astype(np.complex128), beta)


def reconstruct(d: ProofDecomposition, labels=("node", "color")) -> PureState:
    """Inverse of :func:`decompose` up to the zero-row convention."""
    t = d.alpha[:, None] * d.beta
    shape = RegisterShape.of(t.shape, labels)
    return PureState(shape, t.reshape(-1))


def _check_batch_size(k: int, nodes: int):
    """Raise :class:`CapacityError` when k proofs of ``nodes`` x 3
    amplitudes exceed MAX_BATCH_AMPLITUDES; call before allocating."""
    if k * 3 * nodes > MAX_BATCH_AMPLITUDES:
        raise CapacityError(
            f"k={k} proofs at n={nodes.bit_length() - 1} need {k * 3 * nodes} "
            f"amplitudes, above the proof-batch cap of {MAX_BATCH_AMPLITUDES} (2^24)")


def stack_proofs(proofs, n: int | None = None) -> np.ndarray:
    """Stack k node (x) color proofs with 2^n nodes each into one
    ``(k, 2^n, 3)`` amplitude array; n defaults to the first proof's.
    Raises :class:`ShapeMismatchError` for a proof with other dims and
    :class:`CapacityError` above MAX_BATCH_AMPLITUDES."""
    want = (2 ** n if n is not None else proofs[0].shape.dims[0], 3)
    _check_batch_size(len(proofs), want[0])
    batch = np.empty((len(proofs),) + want, dtype=np.complex128)
    for i, p in enumerate(proofs):
        if p.shape.dims != want:
            raise ShapeMismatchError(f"proof {i} has dims {p.shape.dims}, expected {want}")
        batch[i] = p.tensor_view()
    return batch


def _color_overlap(batch: np.ndarray) -> np.ndarray:
    """xi = t . u_3: each register's color projected onto u_3, shape (k, 2^n)."""
    return batch @ np.full(3, 1.0 / math.sqrt(3))


def uniformity_weights(batch: np.ndarray) -> np.ndarray:
    """(k, 3) weights (a, b, c) = (Pr[x=1], Pr[x=0, y=0], Pr[x=0, y=1]) of
    the color (x) then node (y) uniformity measurement on a proof batch.

    Closed form with xi = t . u_3: Pr[x=0] = ||xi||^2, b = |sum xi|^2 / 2^n,
    c = ||xi||^2 - b, a = 1 - ||xi||^2, clamped at 0 against rounding.  As in
    :func:`uniformity_measure`, a color-0 branch below ZERO_BRANCH_TOL has no
    post state, so its register gets b = c = 0 exactly.
    """
    xi = _color_overlap(batch)
    p0 = np.sum(np.abs(xi) ** 2, axis=1)
    b = np.abs(xi.sum(axis=1)) ** 2 / xi.shape[1]
    c = np.maximum(p0 - b, 0.0)
    dark = p0 < ZERO_BRANCH_TOL
    b[dark] = c[dark] = 0.0
    return np.stack([np.maximum(1.0 - p0, 0.0), b, c], axis=1)


def color_branch_node_amplitudes(state: PureState) -> tuple[float, np.ndarray]:
    """Probability of color-register outcome 0 under the uniformity
    measurement, and the node amplitudes gamma = xi / ||xi|| of the
    renormalized post state, which factors as gamma (x) u_3."""
    batch = stack_proofs([state])
    _, b, c = uniformity_weights(batch)[0]
    if b + c == 0.0:
        return 0.0, np.zeros(batch.shape[1], dtype=np.complex128)
    return float(b + c), _color_overlap(batch)[0] / math.sqrt(b + c)


def honest_proof(c: SuccinctCircuit, col: Coloring) -> PureState:
    """Honest proof state for a coloring, color-0 padding included."""
    n = c.n
    ext = col.extended(n)
    t = np.zeros((2 ** n, 3), dtype=np.complex128)
    t[np.arange(2 ** n), ext] = 1.0 / math.sqrt(2 ** n)
    return PureState(proof_shape(n), t.reshape(-1))


def near_coloring_proof(c: SuccinctCircuit, col: Coloring, violations: int = 1) -> PureState:
    """Honest-form state built from a flawed coloring.

    The coloring must violate exactly ``violations`` edges of the expanded
    graph (checked); the canonical cheat uses a single inconsistent pair.
    """
    bad = col.monochromatic_edges(expand(c))
    if len(bad) != violations:
        raise ValueError(
            f"coloring violates {len(bad)} edges ({bad}), declared {violations}")
    return honest_proof(c, col)


def haar_state(shape: RegisterShape, rng: np.random.Generator) -> PureState:
    """Haar-random state on the full space of the shape, via a normalized
    complex-Gaussian vector."""
    z = rng.standard_normal(shape.total) + 1j * rng.standard_normal(shape.total)
    return PureState(shape, z / np.linalg.norm(z))


def random_product_proofs(shape: RegisterShape, k: int, seed: int) -> list[PureState]:
    """k independent Haar-random proofs, one per proof register; the joint
    input is their product.  Reproducible from the 64-bit seed."""
    rng = np.random.default_rng(seed)
    return [haar_state(shape, rng) for _ in range(k)]


@dataclass(frozen=True)
class ProverStrategy:
    """A named way of producing the k proof states for an instance.

    kind: ``honest`` (needs a valid coloring), ``near_coloring`` (needs a
    flawed coloring plus its violation count), or ``random`` (needs a
    seed).  :meth:`states` checks the k-proof batch against
    MAX_BATCH_AMPLITUDES before building any proof.
    """

    kind: str
    coloring: Coloring | None = None
    violations: int = 1
    seed: int | None = None

    def states(self, c: SuccinctCircuit, k: int) -> list[PureState]:
        _check_batch_size(k, 2 ** c.n)
        if self.kind == "honest":
            if self.coloring is None or not self.coloring.is_valid_for(expand(c)):
                raise ValueError("honest strategy requires a valid coloring")
            return [honest_proof(c, self.coloring)] * k
        if self.kind == "near_coloring":
            if self.coloring is None:
                raise ValueError("near_coloring strategy requires a coloring")
            return [near_coloring_proof(c, self.coloring, self.violations)] * k
        if self.kind == "random":
            if self.seed is None:
                raise ValueError("random strategy requires a seed")
            return random_product_proofs(proof_shape(c.n), k, self.seed)
        raise ValueError(f"unknown strategy kind {self.kind!r}")
