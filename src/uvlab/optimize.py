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

A is never built: it is applied in closed form from the conflict pairs of
``bellqma.conflict_core``, O(d^2) per product for proof dimension d = 3 * 2^n;
the spectral norm is a restarted Lanczos iteration of 40 to 65 such products
in a basis of at most 24 vectors.  The seesaw never forms the d x d partial
contractions either: fixing R2, the one for R1 is block diagonal (2^n blocks
of 3 x 3) plus rank 2, and fixing R1, the one for R2 is diagonal plus rank
1.  So a half-step is one batched 3 x 3 eigh and a 2 x 2 (or scalar) secular
equation, O(d) after the O(2^n + |E|) sum of conflicting masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bellqma import conflict_core
from .errors import CapacityError
from .provers import proof_shape
from .qma2 import consistency_accept_table  # noqa: F401  (rebound by perfbench/tracer.py)
from .sgraph import SuccinctCircuit, expand
from .states import PureState

# the d^2-entry joint vectors cap n: a product takes O(d^2) time and memory, a
# seesaw half-step O(2^n + |E|) for the conflicting masses plus O(d); at
# n = 6 the norm takes about 0.07 s, a 500-iteration seesaw restart 0.3 s
MAX_OPERATOR_N = 6
HERMITIAN_TOL = 1e-10
NORM_RESIDUAL_TOL = 1e-13      # the eigensolve's stop, lambda_max's error bound
NORM_BASIS = 24                # Lanczos vectors held; a full basis restarts
NORM_KEEP = 8                  # from this many of its top Ritz vectors
NORM_CHECK = 4                 # Lanczos steps between residual estimates
CONVERGENCE_TOL = 1e-12
DEFAULT_RESTARTS = 50
DEFAULT_ITERS = 500
EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class AcceptanceOperator:
    """A held as the rejecting outcome pairs (src[i], dst[i]) of the consistency
    test, both orders of each.  ``op @ v`` applies A to a joint vector (R1-major,
    length d^2) or to each column of a (d^2, m) block, so ``op @ np.eye(d * d)``
    is the dense matrix."""

    proof_dim: int
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    instance: str = ""

    def passes(self, p: np.ndarray) -> np.ndarray:
        """Per outcome, 1 minus the mass that distribution p puts on its conflicts."""
        return 1.0 - np.bincount(self.src, weights=p[self.dst], minlength=self.proof_dim)

    def __matmul__(self, v) -> np.ndarray:
        d = self.proof_dim
        joint = np.asarray(v).reshape(d, d, -1)        # V: rows R1, columns R2
        # R V: the mean over colors, minus its mean over nodes, repeated on 3 colors
        by_node = joint.reshape(d // 3, 3, d, -1).mean(axis=1)
        by_node -= by_node.mean(axis=0)
        cons = joint.copy()
        cons[self.src, self.dst] = 0.0
        out = (0.5 * (joint + joint.transpose(1, 0, 2)) + cons
               + joint - np.repeat(by_node, 3, axis=0)) / 3.0
        return out.reshape(np.shape(v))

    def best_r1(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Top eigenpair of M1, x^† M1 x = <x (x) y|A|x (x) y> for unit y:
        3 M1 = 1.5 I + blockdiag_v(diag(D_v) - J/3) + w w^† + y y^†/2, with
        D = passes(|y|^2) and w = 1/sqrt(d).  One batched eigh of the 2^n
        3 x 3 blocks, then the rank-2 secular equation in their basis."""
        d = self.proof_dim
        lam, q = np.linalg.eigh(self.passes(np.abs(y) ** 2).reshape(-1, 3, 1) * np.eye(3)
                                - 1.0 / 3.0)
        t, v = _top_eigpair(lam.reshape(d), (q.sum(axis=1) / math.sqrt(d)).reshape(d),
                            ((q * y.reshape(-1, 3, 1)).sum(axis=1) * math.sqrt(0.5)).reshape(d))
        return (q @ v.reshape(-1, 3, 1)).reshape(d), (1.5 + t) / 3.0

    def best_r2(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Top eigenpair of M2, y^† M2 y = <x (x) y|A|x (x) y> for unit x:
        3 M2 = (1.5 - x^† R x) I + diag(passes(|x|^2)) + x x^†/2, a rank-1
        secular equation; x^† R x comes from the per-node color sums."""
        by_node = x.reshape(-1, 3).sum(axis=1)
        reject = (np.vdot(by_node, by_node).real - abs(by_node.sum()) ** 2 / by_node.size) / 3.0
        t, y = _top_eigpair(self.passes(np.abs(x) ** 2), math.sqrt(0.5) * x, np.zeros_like(x))
        return y, (1.5 - reject + t) / 3.0


def _top_eigpair(lam: np.ndarray, z0: np.ndarray, z1: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenpair (t, unit v) of diag(lam) + Z Z^†, Z = [z0 z1], by the
    secular equation: t is the largest root of mu(t) = 1 for mu the top
    eigenvalue of G(t) = Z^† (t - lam)^-1 Z, and v = (t - lam)^-1 Z u for u
    its eigenvector.  Coordinates with coupling at rounding level are
    deflated, as in LAPACK's divide and conquer.  Above the poles 1/mu is
    concave and increasing, so Newton on 1/mu = 1 climbs to the root from
    a lower bound; a bracket up to the total weight catches rounding."""
    pairs = np.array([z0.conj() * z0, z1.conj() * z1, z0.conj() * z1])
    weight = (pairs[0] + pairs[1]).real
    live = weight > (8 * EPS) ** 2 * max(np.abs(lam).max() ** 2, weight.max())
    v, deflated = np.zeros(len(lam), dtype=np.complex128), not live.all()
    if deflated:                                       # j: the top deflated pole
        j = np.flatnonzero(~live)[lam[~live].argmax()]
        pole, lam, z0, z1, pairs = lam[j], lam[live], z0[live], z1[live], pairs[:, live]
    top = lam.argmax()
    delta = lam[top] - lam                             # t - lam = delta + tau
    # lower bounds: the top pole plus its weight, the Rayleigh quotients of z0, z1
    (a, c, b), (sa, sc, _) = pairs.sum(axis=1).tolist(), (pairs @ delta).tolist()
    lo = tau = max((pairs[0, top] + pairs[1, top]).real,
                   *(nk.real + (abs(b) ** 2 - sk.real) / nk.real
                     for nk, sk in ((a, sa), (c, sc)) if nk.real > 0))
    hi = a.real + c.real
    for _ in range(200):
        r = 1.0 / (delta + tau)
        a, c, b = (pairs @ r).tolist()
        da, dc, db = (pairs @ (r * r)).tolist()
        a, c, half = a.real, c.real, (a.real - c.real) / 2
        h = math.hypot(half, abs(b))
        mu = (a + c) / 2 + h
        dmu = -(da.real + dc.real) / 2 - (half * (da.real - dc.real) / 2
                                          + (b.conjugate() * db).real) / (h or 1.0)
        lo, hi = (tau, hi) if mu > 1.0 else (lo, tau)
        step = mu * (mu - 1.0) / -dmu
        if min(abs(step), hi - lo) <= 2 * EPS * tau:
            break
        tau = tau + step if lo < tau + step < hi else (lo + hi) / 2
    else:
        raise RuntimeError("secular Newton iteration did not converge in 200 steps")
    if deflated and pole > lam[top] + tau:             # a deflated pole is on top
        v[j] = 1.0
        return float(pole), v
    u0, u1 = (mu - c, b.conjugate()) if a >= c else (b, mu - a)
    v[live] = r * (u0 * z0 + u1 * z1)
    return float(lam[top] + tau), v / math.sqrt(np.vdot(v, v).real)


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
    _, _, src, dst = conflict_core(np.ones(3 * 2 ** c.n, dtype=bool), expand(c).edges, 2 ** c.n)
    return AcceptanceOperator(3 * 2 ** c.n, src, dst, instance=instance)


def spectral_norm(op, *, steps: int = 10 ** 4, seed: int = 0) -> float:
    """Largest eigenvalue of an AcceptanceOperator or Hermitian matrix, by
    Lanczos from a seeded Gaussian start, reorthogonalized twice, in a basis
    of NORM_BASIS vectors allocated up front that restarts from its top
    NORM_KEEP Ritz vectors when full (NORM_BASIS + NORM_KEEP + O(1) vectors
    in all).  Every NORM_CHECK steps the projection estimates the residual;
    below NORM_RESIDUAL_TOL, one more product checks the unit Ritz vector x:
    its Rayleigh quotient theta is returned once ||A x - theta x|| <
    NORM_RESIDUAL_TOL, so within that of an eigenvalue of A, else Lanczos
    restarts from x alone, whose short bases round less.  ValueError on an
    empty, non-finite or non-Hermitian matrix; RuntimeError past ``steps``."""
    if isinstance(op, AcceptanceOperator):
        dim, dtype = op.proof_dim ** 2, np.float64
    else:
        op = np.asarray(op)
        if op.ndim != 2 or op.shape[0] != op.shape[1] or op.size == 0:
            raise ValueError(f"operator must be square and nonempty, got shape {op.shape}")
        if not np.isfinite(op).all() or np.linalg.norm(op - op.conj().T, np.inf) > HERMITIAN_TOL:
            raise ValueError("operator must be finite and Hermitian within 1e-10")
        dim, dtype = len(op), np.result_type(op, np.float64)
    basis = np.empty((min(NORM_BASIS, dim), dim), dtype)
    proj = np.zeros((len(basis), len(basis)))         # basis^† A basis, lower triangle
    w, j = np.random.default_rng(seed).standard_normal(dim), 0
    for _ in range(steps):
        if j == len(basis):                            # keep the top Ritz vectors
            k = min(NORM_KEEP, j - 1)
            basis[:k], proj[:k, :k], j = s[:, -k:].T @ basis[:j], np.diag(ritz[-k:]), k
        basis[j] = w / np.linalg.norm(w)
        w = op @ basis[j]
        h = (basis[:j + 1] @ w.conj()).conj()          # reorthogonalized twice
        w -= h @ basis[:j + 1]
        w -= (basis[:j + 1] @ w.conj()).conj() @ basis[:j + 1]
        proj[j, :j + 1], beta, j = h.real, np.linalg.norm(w), j + 1
        if j == len(basis) or beta < NORM_RESIDUAL_TOL or j % NORM_CHECK == 0:
            ritz, s = np.linalg.eigh(proj[:j, :j])
            if abs(beta * s[-1, -1]) < NORM_RESIDUAL_TOL:   # check the unit Ritz vector
                x = s[:, -1] @ basis[:j]
                x /= np.linalg.norm(x)
                ax = op @ x
                theta = float(np.vdot(x, ax).real)
                if np.linalg.norm(ax - theta * x) < NORM_RESIDUAL_TOL:
                    return theta
                w, j = x, 0                             # else restart from x alone
    raise RuntimeError(f"Lanczos did not reach residual {NORM_RESIDUAL_TOL} in {steps} steps")


def product_value(op, r1: PureState | np.ndarray, r2: PureState | np.ndarray) -> float:
    """<r1 (x) r2 | A | r1 (x) r2>."""
    x = r1.amps if isinstance(r1, PureState) else np.asarray(r1).reshape(-1)
    y = r2.amps if isinstance(r2, PureState) else np.asarray(r2).reshape(-1)
    joint = np.kron(x, y)
    return float(np.real(np.vdot(joint, op @ joint)))


def seesaw(op: AcceptanceOperator, restarts: int = DEFAULT_RESTARTS,
           iters: int = DEFAULT_ITERS, seed: int = 0,
           init_states: tuple | None = None) -> SeesawResult:
    """Alternating eigenvector maximization over the two proof registers.

    Haar-random restarts plus an optional caller-supplied initialization
    (e.g. an honest proof pair), normalized first; one of the wrong length
    or without a finite nonzero norm raises ValueError.  Each half-step is
    a structured top-eigenvector solve (``best_r1``, ``best_r2``).  The
    per-iteration value trace is monotone; the best pair over all restarts
    is returned.  Deterministic for a fixed seed.
    """
    if iters < 1 or restarts < 0 or (restarts == 0 and init_states is None):
        raise ValueError(f"iters = {iters}, restarts = {restarts}: need iters >= 1, and "
                         "restarts >= 1 or 0 with init_states")
    d = op.proof_dim
    rng = np.random.default_rng(seed)
    shape = proof_shape(int(round(np.log2(d / 3))))

    def run(x, y):
        trace = []
        val = product_value(op, x, y)
        for it in range(iters):
            x, _ = op.best_r1(y)
            y, new = op.best_r2(x)
            trace.append(new)
            if abs(new - val) < CONVERGENCE_TOL:
                return x, y, new, it + 1, trace
            val = new
        return x, y, val, iters, trace

    def unit(s):
        v = np.array(s.amps if isinstance(s, PureState) else s, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(v)
        if v.size != d or not 0 < norm < np.inf:
            raise ValueError(f"a seesaw start needs d = 3 * 2^n = {d} amplitudes and a finite "
                             f"nonzero norm, got {v.size} amplitudes of norm {norm}")
        return v / norm

    starts = [tuple(map(unit, init_states))] if init_states is not None else []
    for _ in range(restarts):
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        starts.append((x / np.linalg.norm(x), y / np.linalg.norm(y)))

    # the first of equally good restarts wins
    x, y, val, its, trace = max((run(x0, y0) for x0, y0 in starts), key=lambda r: r[2])
    return SeesawResult((PureState(shape, x), PureState(shape, y)),
                        float(val), its, restarts, seed, tuple(trace))
