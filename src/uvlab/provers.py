"""Proof-state construction: honest provers, engineered cheats, and the
amplitude decomposition used throughout the soundness analysis.

A proof for an instance with n-bit vertex labels lives on two registers,
a node register of dimension 2^n and a color register of dimension 3.  The
honest proof for a coloring c is

    (1 / sqrt(2^n)) * sum_i |i>|c(i)>,

with vertices outside the graph padded by color 0.  Any node (x) color state
factors row-wise as amplitudes alpha_i on nodes and conditional unit rows
beta_{i,j} on colors; that view drives all the soundness lemmas.  Both
verifiers read k proofs as one :class:`ProofBatch` (:func:`stack_proofs`),
the distinct proofs with their multiplicities, and take their uniformity
weights from :func:`uniformity_weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ShapeMismatchError
from .sgraph import Coloring, SuccinctCircuit, expand
from .states import ZERO_BRANCH_TOL, PureState, RegisterShape
from .states import uniformity_measure  # noqa: F401  (rebound by perfbench/tracer.py)

MAX_BATCH_AMPLITUDES = 2 ** 24     # distinct proofs * 3 * 2^n complex128s: 256 MiB
MAX_PROOFS = 2 ** 14               # k; an honest k3_n2 run takes 0.43 s here (2 CPUs)


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


def _check_batch_size(distinct: int, nodes: int, k: int):
    """Raise :class:`CapacityError` when k exceeds MAX_PROOFS, or when
    ``distinct`` proofs of ``nodes`` x 3 amplitudes, read by k registers,
    exceed MAX_BATCH_AMPLITUDES; call before allocating."""
    if k > MAX_PROOFS:
        raise CapacityError(f"k={k} proofs exceed the proof-count cap of {MAX_PROOFS} (2^14)")
    if distinct * 3 * nodes > MAX_BATCH_AMPLITUDES:
        raise CapacityError(
            f"k={k} proofs at n={nodes.bit_length() - 1} need {distinct * 3 * nodes} "
            f"distinct amplitudes, above the proof-batch cap of {MAX_BATCH_AMPLITUDES} (2^24)")


@dataclass(frozen=True, eq=False)
class ProofBatch:
    """k proof registers as their g distinct ``(2^n, 3)`` amplitude tables,
    ``amps`` of shape ``(g, 2^n, 3)``, and ``counts``: distinct proof r
    fills the next ``counts[r]`` registers, in register order.  It reads as
    a sequence of k :class:`PureState` objects; per-register arrays come
    from :meth:`per_register`."""

    amps: np.ndarray
    counts: np.ndarray

    @staticmethod
    def repeated(proof: PureState, k: int) -> "ProofBatch":
        """One proof in all k registers, stored once; checked against
        MAX_PROOFS."""
        _check_batch_size(1, proof.shape.dims[0], k)
        return ProofBatch(proof.tensor_view()[None], np.array([k]))

    def __len__(self) -> int:
        return int(self.counts.sum())

    def per_register(self, rows: np.ndarray) -> np.ndarray:
        """Repeat per-distinct-proof rows (axis 0) into register order;
        ``per_register(amps)`` is the ``(k, 2^n, 3)`` stack."""
        return np.repeat(rows, self.counts, axis=0)

    def _state(self, r: int) -> PureState:
        return PureState(proof_shape(self.amps.shape[1].bit_length() - 1), self.amps[r])

    def __getitem__(self, i: int) -> PureState:
        return self._state(self.per_register(np.arange(len(self.counts)))[i])

    def __iter__(self):
        for r, count in enumerate(self.counts):
            yield from [self._state(r)] * int(count)


def stack_proofs(proofs, n: int | None = None) -> ProofBatch:
    """k node (x) color proofs with 2^n nodes each as one :class:`ProofBatch`;
    n defaults to the first proof's.  A run of equal proofs, one object
    repeated as in ``[h] * k`` or equal copies, is stored once; a batch
    passes through.  Raises
    :class:`ShapeMismatchError` for a proof with other dims,
    :class:`CapacityError` when the proofs exceed MAX_PROOFS or the
    distinct ones MAX_BATCH_AMPLITUDES, and ValueError when there are no proofs."""
    if isinstance(proofs, ProofBatch):
        if n is not None and proofs.amps.shape[1] != 2 ** n:
            raise ShapeMismatchError(f"batch has {proofs.amps.shape[1]} nodes, expected {2 ** n}")
        return proofs
    if not len(proofs):
        raise ValueError("no proofs to stack; a verifier reads at least one proof")
    want = (2 ** n if n is not None else proofs[0].shape.dims[0], 3)
    starts = [i for i, p in enumerate(proofs) if i == 0 or not (
        p is proofs[i - 1] or np.array_equal(p.tensor_view(), proofs[i - 1].tensor_view()))]
    _check_batch_size(len(starts), want[0], len(proofs))
    amps = np.empty((len(starts),) + want, dtype=np.complex128)
    for r, i in enumerate(starts):
        if proofs[i].shape.dims != want:
            raise ShapeMismatchError(
                f"proof {i} has dims {proofs[i].shape.dims}, expected {want}")
        amps[r] = proofs[i].tensor_view()
    return ProofBatch(amps, np.diff(starts + [len(proofs)]))


def _color_overlap(amps: np.ndarray) -> np.ndarray:
    """xi = t . u_3: each proof's color projected onto u_3, shape (g, 2^n)."""
    return amps @ np.full(3, 1.0 / math.sqrt(3))


def uniformity_weights(batch: ProofBatch) -> np.ndarray:
    """(k, 3) weights (a, b, c) = (Pr[x=1], Pr[x=0, y=0], Pr[x=0, y=1]) of
    the color (x) then node (y) uniformity measurement on each register of
    a proof batch, computed once per distinct proof.

    Closed form with xi = t . u_3: Pr[x=0] = ||xi||^2, b = |sum xi|^2 / 2^n,
    c = ||xi||^2 - b, a = 1 - ||xi||^2, clamped at 0 against rounding.  As in
    :func:`uniformity_measure`, a color-0 branch below ZERO_BRANCH_TOL has no
    post state, so its register gets b = c = 0 exactly.
    """
    xi = _color_overlap(batch.amps)
    p0 = np.sum(np.abs(xi) ** 2, axis=1)
    b = np.abs(xi.sum(axis=1)) ** 2 / xi.shape[1]
    c = np.maximum(p0 - b, 0.0)
    dark = p0 < ZERO_BRANCH_TOL
    b[dark] = c[dark] = 0.0
    return batch.per_register(np.stack([np.maximum(1.0 - p0, 0.0), b, c], axis=1))


def color_branch_node_amplitudes(state: PureState) -> tuple[float, np.ndarray]:
    """Probability of color-register outcome 0 under the uniformity
    measurement, and the node amplitudes gamma = xi / ||xi|| of the
    renormalized post state, which factors as gamma (x) u_3."""
    batch = stack_proofs([state])
    _, b, c = uniformity_weights(batch)[0]
    if b + c == 0.0:
        return 0.0, np.zeros(batch.amps.shape[1], dtype=np.complex128)
    return float(b + c), _color_overlap(batch.amps)[0] / math.sqrt(b + c)


def honest_proof(c: SuccinctCircuit, col: Coloring) -> PureState:
    """Honest proof state for a coloring, color-0 padding included."""
    n = c.n
    shape = proof_shape(n)                 # checks the dimension cap before allocating
    t = np.zeros((2 ** n, 3), dtype=np.complex128)
    t[np.arange(2 ** n), col.extended(n)] = 1.0 / math.sqrt(2 ** n)
    return PureState(shape, t.reshape(-1))


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


def _haar_rows(k: int, total: int, rng: np.random.Generator) -> np.ndarray:
    """k normalized complex-Gaussian rows of length ``total`` from one
    draw.  Row i takes ``total`` real parts, then ``total`` imaginary parts,
    from the stream, and is divided by its norm, summed as
    ``np.linalg.norm`` sums a complex vector: re . re + im . im, here as one
    stacked product over the rows."""
    x = rng.standard_normal((k, 2, total))
    z = x[:, 0] + 1j * x[:, 1]
    re, im = z.real, z.imag
    z /= np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]).reshape(k, 1)
    return z


def haar_state(shape: RegisterShape, rng: np.random.Generator) -> PureState:
    """Haar-random state on the full space of the shape, via a normalized
    complex-Gaussian vector."""
    return PureState(shape, _haar_rows(1, shape.total, rng)[0])


def random_product_proofs(shape: RegisterShape, k: int, seed: int) -> ProofBatch:
    """k independent Haar-random proofs, one per proof register; the joint
    input is their product.  Reproducible from the 64-bit seed, and drawn
    in one call that gives the same proofs as k :func:`haar_state` calls."""
    _check_batch_size(k, shape.dims[0], k)
    z = _haar_rows(k, shape.total, np.random.default_rng(seed))
    return ProofBatch(z.reshape((k,) + shape.dims), np.ones(k, dtype=np.intp))


@dataclass(frozen=True)
class ProverStrategy:
    """A named way of producing the k proof states for an instance.

    kind: ``honest`` (needs a valid coloring), ``near_coloring`` (needs a
    flawed coloring plus its violation count), or ``random`` (needs a
    seed).  :meth:`states` returns a :class:`ProofBatch`: one honest or
    near proof of multiplicity k, or k distinct random ones, checked
    against MAX_PROOFS and MAX_BATCH_AMPLITUDES before any is drawn.
    """

    kind: str
    coloring: Coloring | None = None
    violations: int = 1
    seed: int | None = None

    def states(self, c: SuccinctCircuit, k: int) -> ProofBatch:
        if self.kind == "random":
            if self.seed is None:
                raise ValueError("random strategy requires a seed")
            return random_product_proofs(proof_shape(c.n), k, self.seed)
        if self.kind == "honest":
            if self.coloring is None or not self.coloring.is_valid_for(expand(c)):
                raise ValueError("honest strategy requires a valid coloring")
            return ProofBatch.repeated(honest_proof(c, self.coloring), k)
        if self.kind == "near_coloring":
            if self.coloring is None:
                raise ValueError("near_coloring strategy requires a coloring")
            return ProofBatch.repeated(
                near_coloring_proof(c, self.coloring, self.violations), k)
        raise ValueError(f"unknown strategy kind {self.kind!r}")
