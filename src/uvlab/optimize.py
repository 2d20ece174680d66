"""Acceptance operator of the two-proof verifier and prover optimization.

The verifier's verdict on a joint (possibly entangled) input is the
expectation of a Hermitian operator A on the doubled proof space:

    A = (A_eq + A_cons + A_unif) / 3,
    A_eq   = (I + SWAP_{R1 R2}) / 2,
    A_cons = diagonal 0/1 table of accepting outcome pairs,
    A_unif = I - R (x) I,  R = (I - J/2^n) (x) J/3 on R1 (node (x) color).

Its largest eigenvalue is the best acceptance over all joint states, i.e.
the entangled optimum; a certified upper bound for everything a pair of
unentangled provers can reach.  The seesaw heuristic searches the product
states themselves: fixing one register, the optimal other register is the
top eigenvector of the partially contracted operator, so alternating
eigenvector steps never decrease the value.

A is never built: it is applied in closed form from the consistency table,
O(d^2) per product for proof dimension d = 3 * 2^n; the spectral norm is a
locally optimal Rayleigh-Ritz iteration (LOPCG) of about 60 such products,
and the partial contractions are d x d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError
from .provers import proof_shape
from .qma2 import consistency_accept_table
from .sgraph import SuccinctCircuit
from .states import PureState

# per-step cost caps n: a product takes O(d^2) time and memory, a seesaw step
# O(d^3) time; at n = 6 the norm takes about 0.3 s, a seesaw restart 13 s
MAX_OPERATOR_N = 6
HERMITIAN_TOL = 1e-10
CONVERGENCE_TOL = 1e-12
DEFAULT_RESTARTS = 50
DEFAULT_ITERS = 500


@dataclass(frozen=True)
class AcceptanceOperator:
    """A held as its consistency table.  ``op @ v`` applies A to a joint
    vector (R1-major, length d^2) or to each column of a (d^2, m) block, so
    ``op @ np.eye(d * d)`` is the dense matrix."""

    accept: np.ndarray = field(repr=False)
    instance: str = ""

    @property
    def proof_dim(self) -> int:
        return self.accept.shape[0]

    @cached_property
    def _reject_r1(self) -> np.ndarray:
        size = self.proof_dim // 3
        return np.kron(np.eye(size) - 1.0 / size, np.full((3, 3), 1.0 / 3.0))

    def __matmul__(self, v) -> np.ndarray:
        d = self.proof_dim
        joint = np.asarray(v).reshape(d, d, -1)        # V: rows R1, columns R2
        # R V: the mean over colors, minus its mean over nodes, repeated on 3 colors
        by_node = joint.reshape(d // 3, 3, d, -1).mean(axis=1)
        by_node -= by_node.mean(axis=0)
        out = (0.5 * (joint + joint.transpose(1, 0, 2)) + self.accept[:, :, None] * joint
               + joint - np.repeat(by_node, 3, axis=0)) / 3.0
        return out.reshape(np.shape(v))

    def contract_r2(self, y: np.ndarray) -> np.ndarray:
        """M1 on R1 with x^† M1 x = <x (x) y|A|x (x) y> for unit y."""
        eye = np.eye(self.proof_dim)
        return (0.5 * (eye + np.outer(y, y.conj())) + np.diag(self.accept @ np.abs(y) ** 2)
                + eye - self._reject_r1) / 3.0

    def contract_r1(self, x: np.ndarray) -> np.ndarray:
        """M2 on R2 with y^† M2 y = <x (x) y|A|x (x) y> for unit x."""
        eye = np.eye(self.proof_dim)
        unif = 1.0 - float(np.real(np.vdot(x, self._reject_r1 @ x)))
        return (0.5 * (eye + np.outer(x, x.conj())) + np.diag(np.abs(x) ** 2 @ self.accept)
                + unif * eye) / 3.0


@dataclass(frozen=True)
class SeesawResult:
    states: tuple[PureState, PureState]
    value: float
    iterations: int
    restarts: int
    seed: int
    trace: tuple[float, ...] = field(repr=False)


def build_acceptance_operator(c: SuccinctCircuit, instance: str = "") -> AcceptanceOperator:
    """Structured Hermitian acceptance operator over (node, color) x 2."""
    if c.n > MAX_OPERATOR_N:
        raise CapacityError(f"operator construction needs n <= {MAX_OPERATOR_N}")
    return AcceptanceOperator(consistency_accept_table(c), instance=instance)


def spectral_norm(op) -> float:
    """Largest eigenvalue of an AcceptanceOperator or Hermitian matrix."""
    if not isinstance(op, AcceptanceOperator):
        op = np.asarray(op)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"operator must be square, got shape {op.shape}")
        if np.linalg.norm(op - op.conj().T, np.inf) > HERMITIAN_TOL:
            raise ValueError("operator is not Hermitian within 1e-10")
    return lopcg_norm(op)


def lopcg_norm(op, iters: int = 10 ** 4, seed: int = 0) -> float:
    """Largest eigenvalue by a locally optimal block iteration (LOPCG): each
    step maximizes the Rayleigh quotient over span{v, r, p} (the vector, its
    residual A v - theta v, the last update), orthonormalized by QR with
    dependent columns dropped, for one product with a (dim, <= 3) block.
    Vectors stay real unless A is complex.  Stops once ||A v - theta v|| <
    1e-13 for the Rayleigh quotient theta; raises if ``iters`` steps fall short."""
    n = op.proof_dim ** 2 if isinstance(op, AcceptanceOperator) else len(op)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    w, p = op @ v, np.zeros_like(v)
    for _ in range(iters):
        theta = float(np.real(np.vdot(v, w)))
        r = w - theta * v
        if np.linalg.norm(r) < 1e-13:
            return theta
        basis = np.column_stack([v, r, p])
        q, tri = np.linalg.qr(basis)
        q = q[:, np.abs(np.diag(tri)) > 1e-10 * np.linalg.norm(basis[:, :len(tri)], axis=0)]
        aq = op @ q
        c = np.linalg.eigh(q.conj().T @ aq)[1][:, -1]
        v, w, p = q @ c, aq @ c, q[:, 1:] @ c[1:]      # q[:, 0] is +-v
    raise RuntimeError(f"LOPCG did not reach residual 1e-13 in {iters} steps")


def product_value(op, r1: PureState | np.ndarray, r2: PureState | np.ndarray) -> float:
    """<r1 (x) r2 | A | r1 (x) r2>."""
    x = r1.amps if isinstance(r1, PureState) else np.asarray(r1).reshape(-1)
    y = r2.amps if isinstance(r2, PureState) else np.asarray(r2).reshape(-1)
    joint = np.kron(x, y)
    return float(np.real(np.vdot(joint, op @ joint)))


def _top_eigvec(m: np.ndarray) -> tuple[np.ndarray, float]:
    vals, vecs = np.linalg.eigh(m)
    return vecs[:, -1], float(vals[-1])


def seesaw(op: AcceptanceOperator, restarts: int = DEFAULT_RESTARTS,
           iters: int = DEFAULT_ITERS, seed: int = 0,
           init_states: tuple | None = None) -> SeesawResult:
    """Alternating eigenvector maximization over the two proof registers.

    Haar-random restarts plus an optional caller-supplied initialization
    (e.g. an honest proof pair).  The per-iteration value trace is
    monotone; the best pair over all restarts is returned.  Deterministic
    for a fixed seed.
    """
    if restarts < 0 or (restarts == 0 and init_states is None):
        raise ValueError(f"restarts = {restarts}: need restarts >= 1, or 0 with init_states")
    d = op.proof_dim
    rng = np.random.default_rng(seed)
    shape = proof_shape(int(round(np.log2(d / 3))))

    def run(x, y):
        trace = []
        val = product_value(op, x, y)
        for it in range(iters):
            x, _ = _top_eigvec(op.contract_r2(y))
            y, new = _top_eigvec(op.contract_r1(x))
            trace.append(new)
            if abs(new - val) < CONVERGENCE_TOL:
                return x, y, new, it + 1, trace
            val = new
        return x, y, val, iters, trace

    starts = []
    if init_states is not None:
        s1, s2 = init_states
        starts.append((np.array(s1.amps if isinstance(s1, PureState) else s1),
                       np.array(s2.amps if isinstance(s2, PureState) else s2)))
    for _ in range(restarts):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        starts.append((x / np.linalg.norm(x), y / np.linalg.norm(y)))

    # the first of equally good restarts wins
    x, y, val, its, trace = max((run(x0, y0) for x0, y0 in starts), key=lambda r: r[2])
    return SeesawResult((PureState(shape, x), PureState(shape, y)),
                        float(val), its, restarts, seed, tuple(trace))
