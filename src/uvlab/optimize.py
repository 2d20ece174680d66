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
equation, O(d) after the O(2^n + |E|) sum of conflicting masses.  The
secular equation reads only real per-coordinate weights (|z0|^2, |z1|^2,
Re z0^* z1, Im z0^* z1), so each Newton step is two real products; it
starts from the previous seesaw value, which the new top eigenvalue
reaches, since the old vector keeps that value under the new contraction.
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
FLOOR_ULPS = 4                 # a seesaw value's slack as a secular start
DEFAULT_RESTARTS = 50
DEFAULT_ITERS = 500
EPS = np.finfo(np.float64).eps
_EYE3 = np.eye(3)


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

    def best_r1(self, y: np.ndarray, floor: float = -math.inf) -> tuple[np.ndarray, float]:
        """Top eigenpair of M1, x^† M1 x = <x (x) y|A|x (x) y> for unit y:
        3 M1 = 1.5 I + blockdiag_v(diag(D_v) - J/3) + w w^† + y y^†/2, with
        D = passes(|y|^2) and w = 1/sqrt(d).  One batched eigh of the 2^n
        3 x 3 blocks, then the rank-2 secular equation in their basis, where
        w's coordinates are real, as the blocks' eigenvectors are.
        ``floor``: a value M1's top eigenvalue is known to reach, such as
        the previous x's; the solve starts there."""
        d = self.proof_dim
        lam, q = np.linalg.eigh(self.passes(np.abs(y) ** 2).reshape(-1, 3, 1) * _EYE3 - 1.0 / 3.0)
        z0 = q.sum(axis=1).reshape(d) * (1.0 / math.sqrt(d))
        z1 = (y.reshape(-1, 1, 3) @ q).reshape(d) * math.sqrt(0.5)
        zz = z0 * z1
        weights = np.array([z0 * z0, z1.real ** 2 + z1.imag ** 2, zz.real, zz.imag])
        t, v = _top_eigpair(lam.reshape(d), z0, z1, weights, 3.0 * floor - 1.5)
        return (q @ v.reshape(-1, 3, 1)).reshape(d), (1.5 + t) / 3.0

    def best_r2(self, x: np.ndarray, floor: float = -math.inf) -> tuple[np.ndarray, float]:
        """Top eigenpair of M2, y^† M2 y = <x (x) y|A|x (x) y> for unit x:
        3 M2 = (1.5 - x^† R x) I + diag(passes(|x|^2)) + x x^†/2, a rank-1
        secular equation whose weights |x|^2/2 reuse the masses; x^† R x
        comes from the per-node color sums.  ``floor`` as in ``best_r1``."""
        by_node = x.reshape(-1, 3).sum(axis=1)
        reject = (np.vdot(by_node, by_node).real - abs(by_node.sum()) ** 2 / by_node.size) / 3.0
        p = np.abs(x) ** 2
        t, y = _top_eigpair(self.passes(p), math.sqrt(0.5) * x, None, 0.5 * p,
                            3.0 * floor - 1.5 + reject)
        return y, (1.5 - reject + t) / 3.0


def _top_eigpair(lam: np.ndarray, z0: np.ndarray, z1: np.ndarray | None, w: np.ndarray,
                 floor: float = -math.inf) -> tuple[float, np.ndarray]:
    """Top eigenpair (t, unit v) of diag(lam) + Z Z^†, Z = [z0 z1], from the
    real weights w: rows |z0|^2, |z1|^2, Re z0^* z1 and Im z0^* z1; for z1
    None, Z = z0 and w = |z0|^2 alone.  t is the largest root of mu(t) = 1
    for mu the top eigenvalue of G(t) = Z^† (t - lam)^-1 Z, and
    v = (t - lam)^-1 Z u for u its eigenvector.  Coordinates with coupling
    at rounding level are deflated, as in LAPACK's divide and conquer.
    Above the poles 1/mu is concave and increasing, so Newton on 1/mu = 1
    climbs to the root from a lower bound: the top pole plus its weight, or
    the Rayleigh quotients of z0 and z1.  It starts from ``floor`` less
    FLOOR_ULPS ulps when that is higher: a value some unit vector reaches,
    so a bound up to rounding; a start that rounds above the root steps
    back below it, by concavity.  A bracket from the lower bound up to the
    total weight catches rounding."""
    rank1 = z1 is None
    weight = w if rank1 else w[0] + w[1]
    top = int(lam.argmax())
    lam_top = float(lam[top])
    tol = (8 * EPS) ** 2 * max(max(lam_top, -float(lam.min())) ** 2, float(weight.max()))
    deflated = float(weight.min()) <= tol
    if deflated:                                       # j: the top deflated pole
        live = weight > tol
        j = np.flatnonzero(~live)[lam[~live].argmax()]
        pole, lam, z0, w, weight = lam[j], lam[live], z0[live], w[..., live], weight[live]
        z1 = None if rank1 else z1[live]
        top = int(lam.argmax())
        lam_top = float(lam[top])
    delta = lam_top - lam                              # t - lam = delta + tau
    # lower bounds: the top pole plus its weight, the Rayleigh quotients of z0, z1
    if rank1:
        a, sa = float(w.sum()), float(w @ delta)
        lo, hi = max(float(w[top]), a - sa / a), a
    else:
        (a, c, br, bi), (sa, sc) = w.sum(axis=1).tolist(), (w[:2] @ delta).tolist()
        lo = max(float(weight[top]), *(nk + (br * br + bi * bi - sk) / nk
                                       for nk, sk in ((a, sa), (c, sc)) if nk > 0))
        hi = a + c
    tau = max(lo, floor - lam_top - FLOOR_ULPS * EPS * max(abs(floor), abs(lam_top), hi))
    for _ in range(200):
        r = 1.0 / (delta + tau)
        if rank1:
            mu, dmu = float(w @ r), -float(w @ (r * r))
        else:
            (a, c, br, bi), (da, dc, dbr, dbi) = (w @ r).tolist(), (w @ (r * r)).tolist()
            half = (a - c) / 2
            h = math.hypot(half, br, bi)
            mu = (a + c) / 2 + h
            dmu = -(da + dc) / 2 - (half * (da - dc) / 2 + br * dbr + bi * dbi) / (h or 1.0)
        lo, hi = (tau, hi) if mu > 1.0 else (lo, tau)
        step = mu * (mu - 1.0) / -dmu
        if min(abs(step), hi - lo) <= 2 * EPS * tau:
            break
        tau = tau + step if lo < tau + step < hi else (lo + hi) / 2
    else:
        raise RuntimeError("secular Newton iteration did not converge in 200 steps")
    if deflated and pole > lam_top + tau:              # a deflated pole is on top
        v = np.zeros(len(live), dtype=np.complex128)
        v[j] = 1.0
        return float(pole), v
    # unit v: |v|^2 = sum r^2 |u0 z0 + u1 z1|^2, from the derivative's sums
    if rank1:
        u = r * (z0 / math.sqrt(-dmu))
    else:
        if h == 0.0:                                   # G(t) = mu I: any u will do
            u0, u1 = 1.0, 0.0
        else:
            u0, u1 = (mu - c, complex(br, -bi)) if a >= c else (complex(br, bi), mu - a)
        norm = math.sqrt(abs(u0) ** 2 * da + abs(u1) ** 2 * dc
                         + 2 * (u0.conjugate() * u1 * complex(dbr, dbi)).real)
        u = r * ((u0 / norm) * z0 + (u1 / norm) * z1)
    if deflated:                                       # zero on the deflated coordinates
        v = np.zeros(len(live), dtype=np.complex128)
        v[live] = u
        return lam_top + tau, v
    return lam_top + tau, u


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
            x, mid = op.best_r1(y, val)       # each value bounds the next solve
            y, new = op.best_r2(x, mid)
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
