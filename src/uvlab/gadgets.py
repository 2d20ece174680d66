"""Single-qubit proof replacement: phase-polynomial decomposition, magic
states, and the measurement gadget that applies Rz without the gate.

Any 2x2 unitary factors as

    U = e^{i theta} Rz(alpha) H Rz(beta) H Rz(gamma),

so a prover can hand over four angles instead of a qubit.  The three Rz
gates are then injected at verification time: each consumes one magic state
(|0> + e^{i omega}|1>)/sqrt(2) and succeeds with probability exactly 1/2,
independent of the target state and of omega.  A verifier that accepts
outright whenever a gadget fails, and otherwise runs the original decision
procedure (inner acceptance p), accepts with overall probability

    1 - 2^{-t} (1 - p)

after t gadget attempts, shrinking the decision gap by exactly 2^{-t}
while preserving one-sided completeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (MeasurementBranch, PureState, RegisterShape, gate_matrix,
                     qubit, tensor)

TWO_PI = 2.0 * math.pi
UNITARY_TOL = 1e-9


def _mod_angle(x: float) -> float:
    return float(x % TWO_PI)


def rz_matrix(omega: float) -> np.ndarray:
    return gate_matrix("Rz", omega)


H_MATRIX = gate_matrix("H")


@dataclass(frozen=True)
class ZHZHZ:
    """Angles of the e^{i theta} Rz(alpha) H Rz(beta) H Rz(gamma) form."""

    theta: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("theta", "alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 <= v < TWO_PI:
                raise ValueError(f"{name}={v} outside [0, 2*pi)")

    def matrix(self) -> np.ndarray:
        return (np.exp(1j * self.theta) * rz_matrix(self.alpha)
                @ H_MATRIX @ rz_matrix(self.beta) @ H_MATRIX @ rz_matrix(self.gamma))

    def to_dict(self) -> dict:
        return {"theta": self.theta, "alpha": self.alpha,
                "beta": self.beta, "gamma": self.gamma}


@dataclass(frozen=True)
class GadgetProgram:
    """Classical proof replacement: per-unitary angles plus the magic
    states consumed, three per unitary in the order gamma, beta, alpha."""

    unitaries: tuple[ZHZHZ, ...]

    @property
    def t(self) -> int:
        return 3 * len(self.unitaries)

    def magic_angles(self) -> list[float]:
        out = []
        for u in self.unitaries:
            out += [u.gamma, u.beta, u.alpha]
        return out

    def to_dict(self) -> dict:
        return {"unitaries": [u.to_dict() for u in self.unitaries], "t": self.t}


def _require_unitary(u: np.ndarray):
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if np.linalg.norm(u.conj().T @ u - np.eye(2), 2) > UNITARY_TOL:
        raise ValueError("matrix is not unitary within 1e-9")
    return u


def zhzhz_decompose(u: np.ndarray) -> ZHZHZ:
    """Extract (theta, alpha, beta, gamma) with reconstruction error below
    1e-9 in operator norm.

    Uses H Rz(beta) H = e^{i beta/2} Rx(beta), i.e. the middle factor is a
    phased X-rotation, so beta comes from the magnitudes |u00|, |u01| and
    the remaining angles from entry phases.  The degenerate diagonal and
    anti-diagonal cases pin gamma = 0.
    """
    u = _require_unitary(u)
    c = abs(u[0, 0])
    s = abs(u[0, 1])
    beta = 2.0 * math.atan2(s, c)
    if s < 1e-12:
        phi = np.angle(u[0, 0])
        gamma = 0.0
        alpha = np.angle(u[1, 1]) - phi
    elif c < 1e-12:
        phi = np.angle(u[0, 1]) + math.pi / 2
        gamma = 0.0
        alpha = np.angle(u[1, 0]) + math.pi / 2 - phi
    else:
        phi = np.angle(u[0, 0])
        gamma = np.angle(u[0, 1]) + math.pi / 2 - phi
        alpha = np.angle(u[1, 0]) + math.pi / 2 - phi
    theta = phi - beta / 2.0
    return ZHZHZ(_mod_angle(theta), _mod_angle(alpha), _mod_angle(beta),
                 _mod_angle(gamma))


def magic_state(omega: float, label="magic") -> PureState:
    """(|0> + e^{i omega}|1>) / sqrt(2)."""
    return qubit(1.0 / math.sqrt(2), np.exp(1j * omega) / math.sqrt(2), label=label)


def magic_gadget(target: PureState, omega: float) -> tuple[MeasurementBranch, MeasurementBranch]:
    """Consume one magic state to apply Rz(omega) to a single-qubit target.

    Measures magic (x) target with the parity projectors {|00><00|+|11><11|,
    |01><01|+|10><10|}; both outcomes carry probability exactly 1/2.  On the
    even outcome (labelled 1) a CNOT disentangles the consumed qubit and the
    magic wire holds Rz(omega) target exactly; the odd outcome (labelled 2)
    leaves Rz(omega) X target on the wire, which the caller treats as
    failure.
    """
    if target.shape.dims != (2,):
        raise ValueError(f"gadget target must be a single qubit, got {target.shape.dims}")
    a, b = target.amps
    phase = np.exp(1j * omega)
    shape = RegisterShape.of((2,), ("out",))
    success = PureState(shape, np.array([a, phase * b], dtype=np.complex128))
    failure = PureState(shape, np.array([b, phase * a], dtype=np.complex128))
    return (MeasurementBranch(1, 0.5, success), MeasurementBranch(2, 0.5, failure))


def magic_gadget_joint_branches(target: PureState, omega: float):
    """Reference path for tests: build magic (x) target explicitly, project
    onto the parity subspaces, and return the raw two-qubit branches."""
    joint = tensor(magic_state(omega), target)
    t = joint.tensor_view()
    even = np.zeros_like(t)
    even[0, 0], even[1, 1] = t[0, 0], t[1, 1]
    odd = np.zeros_like(t)
    odd[0, 1], odd[1, 0] = t[0, 1], t[1, 0]
    p_even = float(np.sum(np.abs(even) ** 2))
    p_odd = float(np.sum(np.abs(odd) ** 2))
    mk = lambda p, raw: PureState(joint.shape, raw.reshape(-1) / math.sqrt(p)) if p > 0 else None
    return (MeasurementBranch(1, p_even, mk(p_even, even)),
            MeasurementBranch(2, p_odd, mk(p_odd, odd)))


def cascade_acceptance(inner_acceptance: float, t: int) -> float:
    """Acceptance of the transformed verifier after t gadget attempts: walk
    the failure cascade (accept on any gadget failure, run the inner
    decision on full success), which gives 1 - 2^{-t} (1 - p).
    """
    if not 0.0 <= inner_acceptance <= 1.0:
        raise ValueError("inner acceptance must lie in [0, 1]")
    if t < 0:
        raise ValueError("t must be >= 0")
    accept = 0.0
    live = 1.0
    for _ in range(t):
        accept += live * 0.5       # gadget failed: accept outright
        live *= 0.5
    return accept + live * inner_acceptance


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unitary_preparing(top_eigenvector: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the given unit vector."""
    v = np.asarray(top_eigenvector, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    w = np.array([-np.conj(v[1]), np.conj(v[0])], dtype=np.complex128)
    return np.column_stack([v, w])


def end_to_end_reduction(accept_op: np.ndarray, unitary: np.ndarray | None = None) -> dict:
    """Run the whole replacement on a one-qubit decision fixture.

    ``accept_op`` is the inner verifier's 2x2 acceptance observable (POVM
    element); its top eigenvalue is the best achievable inner acceptance.
    The prover's unitary (honest by default: prepares the top eigenvector
    from |0>) is decomposed into angles, the state is rebuilt through the
    actual gadget branch tree interleaved with H gates, and the branch
    probabilities are accumulated exactly.
    """
    m = np.asarray(accept_op, dtype=np.complex128)
    if m.shape != (2, 2) or np.linalg.norm(m - m.conj().T, 2) > 1e-10:
        raise ValueError("accept_op must be a 2x2 Hermitian matrix")
    evals, evecs = np.linalg.eigh(m)
    if evals[0] < -1e-9 or evals[-1] > 1 + 1e-9:
        raise ValueError("accept_op eigenvalues must lie in [0, 1]")
    honest = unitary is None
    if honest:
        unitary = unitary_preparing(evecs[:, -1])
    program = GadgetProgram((zhzhz_decompose(unitary),))
    state = qubit(1.0, 0.0)
    accept = 0.0
    live = 1.0
    for stage, omega in enumerate(program.magic_angles()):
        success, failure = magic_gadget(state, omega)
        accept += live * failure.probability       # gadget failure accepts
        live *= success.probability
        state = success.post_state
        if stage in (0, 1):                         # H between the Rz layers
            amps = H_MATRIX @ state.amps
            state = PureState(state.shape, amps)
    built = state.amps
    want = unitary @ np.array([1.0, 0.0], dtype=np.complex128)
    fidelity = abs(np.vdot(want, built)) ** 2
    p_inner = float(np.real(np.vdot(built, m @ built)))
    w_acceptance = accept + live * p_inner
    p_best = float(evals[-1])
    return {
        "t": program.t,
        "program": program.to_dict(),
        "honest": honest,
        "build_fidelity": float(fidelity),
        "inner_acceptance": p_inner,
        "inner_optimum": p_best,
        "w_acceptance": float(w_acceptance),
        "w_formula": 1.0 - 2.0 ** (-program.t) * (1.0 - p_inner),
        "gap_scale": 2.0 ** (-program.t),
    }
