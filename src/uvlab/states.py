"""Mixed-radix pure-state engine.

States live on an ordered list of named registers with arbitrary dimensions
(node registers of dimension 2^n next to color registers of dimension 3,
plus ancilla qubits), stored as one dense complex amplitude vector.  No
embedding of qutrits into qubit pairs takes place: a dimension-3 register
really has three basis states, which keeps the uniform-superposition
projector exact.

Everything here is immutable and pure: gates, tensor products and
measurements return fresh states, so values can be shared freely across
threads.  Measurements return explicit branches; a branch with probability
(numerically) zero carries ``post_state=None`` rather than a silently
denormalized vector.

Gate conventions (matrices in the computational basis; SWAP and CSWAP
are applied as permutations of register axes, without a matrix):

    H        = [[1, 1], [1, -1]] / sqrt(2)
    CNOT     = |00><00| + |01><01| + |11><10| + |10><11|   (control first)
    Rx(w)    = [[cos w/2, -i sin w/2], [-i sin w/2, cos w/2]]
    Rz(w)    = diag(1, e^{iw})
    SWAP     = exchange of two equal-dimension registers
    CSWAP    = SWAP of two equal-dimension registers, controlled on a qubit
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AddressError, CapacityError, ShapeMismatchError

#: Hard cap on the total dimension of any constructed state.
MAX_TOTAL_DIM = 1 << 22

#: Norm tolerance for states handed in from outside.
INPUT_NORM_TOL = 1e-9

#: Branch probabilities below this are squared-amplitude noise (double
#: precision noise is ~1e-16, squared ~1e-32); such branches keep their
#: probability but carry an undefined (None) post state.
ZERO_BRANCH_TOL = 1e-24

GATE_NAMES = ("H", "CNOT", "Rx", "Rz", "SWAP", "CSWAP")


def _unique_labels(labels):
    """Deduplicate labels by appending primes to later occurrences."""
    seen = set()
    out = []
    for lab in labels:
        while lab in seen:
            lab = lab + "'"
        seen.add(lab)
        out.append(lab)
    return tuple(out)


@dataclass(frozen=True)
class RegisterShape:
    """Ordered register dimensions plus unique labels for addressing.

    Dimension 1 is tolerated so that the uniform state over a single basis
    vector is representable; protocol registers always have dimension >= 2.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("shape needs at least one register")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"register dimensions must be positive: {self.dims}")
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"register labels must be unique: {self.labels}")
        if self.total > MAX_TOTAL_DIM:
            raise CapacityError(
                f"total dimension {self.total} exceeds the cap {MAX_TOTAL_DIM}")

    @staticmethod
    def of(dims, labels=None) -> "RegisterShape":
        dims = tuple(int(d) for d in dims)
        if labels is None:
            labels = tuple(f"r{i}" for i in range(len(dims)))
        return RegisterShape(dims, tuple(labels))

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def index_of(self, address) -> int:
        """Resolve a register address (label or integer position)."""
        if isinstance(address, str):
            try:
                return self.labels.index(address)
            except ValueError:
                raise AddressError(f"no register labelled {address!r}") from None
        i = int(address)
        if not 0 <= i < len(self.dims):
            raise AddressError(f"register index {i} out of range for {self.dims}")
        return i

    def concat(self, other: "RegisterShape") -> "RegisterShape":
        return RegisterShape(self.dims + other.dims,
                             _unique_labels(self.labels + other.labels))


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over a :class:`RegisterShape`."""

    shape: RegisterShape
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        if amps.size != self.shape.total:
            raise ShapeMismatchError(
                f"{amps.size} amplitudes for total dimension {self.shape.total}")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > INPUT_NORM_TOL:
            raise ValueError(f"state norm {nrm!r} is not 1 within {INPUT_NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def tensor_view(self) -> np.ndarray:
        """Read-only view of the amplitudes reshaped to the register dims."""
        return self.amps.reshape(self.shape.dims)

    def __getitem__(self, key):
        """Amplitude at a mixed-radix index tuple (or flat integer)."""
        if isinstance(key, tuple):
            return self.tensor_view()[key]
        return self.amps[key]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class MeasurementBranch:
    """One outcome of a projective measurement.

    ``post_state`` is ``None`` exactly when the branch probability is
    numerically zero (below :data:`ZERO_BRANCH_TOL`); callers must check
    before using it.
    """

    outcome: int | tuple[int, ...]
    probability: float
    post_state: PureState | None


def basis_state(shape: RegisterShape, index) -> PureState:
    """Computational basis state |index> (mixed-radix tuple or flat int)."""
    amps = np.zeros(shape.total, dtype=np.complex128)
    if isinstance(index, tuple):
        index = int(np.ravel_multi_index(index, shape.dims))
    amps[index] = 1.0
    return PureState(shape, amps)


def qubit(amp0, amp1, label="q") -> PureState:
    """Single-qubit state from two amplitudes."""
    return PureState(RegisterShape.of((2,), (label,)),
                     np.array([amp0, amp1], dtype=np.complex128))


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; dims concatenate, clashing labels get primes."""
    return PureState(a.shape.concat(b.shape), np.kron(a.amps, b.amps))


def inner(a: PureState, b: PureState) -> complex:
    """<a|b>.  Shapes must carry identical dims."""
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatchError(f"{a.shape.dims} vs {b.shape.dims}")
    return complex(np.vdot(a.amps, b.amps))


def gate_matrix(gate: str, angle: float | None = None) -> np.ndarray:
    """Dense matrix of H, CNOT, Rx or Rz.  SWAP and CSWAP have none:
    :func:`apply_gate` permutes register axes for them."""
    if gate == "H":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
    if gate == "CNOT":
        m = np.zeros((4, 4), dtype=np.complex128)
        m[0, 0] = m[1, 1] = m[3, 2] = m[2, 3] = 1.0
        return m
    if gate == "Rx":
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if gate == "Rz":
        return np.diag([1.0, np.exp(1j * angle)]).astype(np.complex128)
    raise AddressError(f"unknown gate {gate!r}; gate matrices exist for H, CNOT, Rx, Rz")


def _moveaxes_apply(amps, dims, targets, transform):
    """Move target axes to the front, apply transform, move them back."""
    nreg = len(dims)
    rest = [i for i in range(nreg) if i not in targets]
    perm = list(targets) + rest
    t = amps.reshape(dims).transpose(perm)
    t = transform(t)
    inv = np.argsort(perm)
    return np.ascontiguousarray(t.transpose(inv)).reshape(-1)


def apply_gate(state: PureState, gate: str, targets, angle: float | None = None) -> PureState:
    """Apply a named gate to whole registers addressed by label or index.

    H/Rx/Rz act on one dimension-2 register, CNOT on two, SWAP on two
    registers of equal dimension, CSWAP on a qubit control plus two equal
    targets.  Raises :class:`AddressError` on any arity/dimension mismatch.
    """
    if isinstance(targets, (str, int)):
        targets = (targets,)
    idx = [state.shape.index_of(t) for t in targets]
    if len(set(idx)) != len(idx):
        raise AddressError(f"duplicate gate targets {targets!r}")
    dims = state.shape.dims
    tdims = tuple(dims[i] for i in idx)

    if gate in ("H", "Rx", "Rz"):
        if len(idx) != 1 or tdims[0] != 2:
            raise AddressError(f"{gate} acts on one dimension-2 register, got {tdims}")
        if gate != "H" and angle is None:
            raise AddressError(f"{gate} requires an angle")
        mat = gate_matrix(gate, angle)
    elif gate == "CNOT":
        if len(idx) != 2 or tdims != (2, 2):
            raise AddressError(f"CNOT acts on two dimension-2 registers, got {tdims}")
        mat = gate_matrix("CNOT")
    elif gate == "SWAP":
        if len(idx) != 2 or tdims[0] != tdims[1]:
            raise AddressError(f"SWAP needs two equal-dimension registers, got {tdims}")
        new = _moveaxes_apply(state.amps, dims, idx, lambda t: t.swapaxes(0, 1))
        return PureState(state.shape, new)
    elif gate == "CSWAP":
        if len(idx) != 3 or tdims[0] != 2 or tdims[1] != tdims[2]:
            raise AddressError(
                f"CSWAP needs a qubit control and two equal targets, got {tdims}")

        def cswap(t):
            out = t.copy()
            out[1] = out[1].swapaxes(0, 1)
            return out

        new = _moveaxes_apply(state.amps, dims, idx, cswap)
        return PureState(state.shape, new)
    else:
        raise AddressError(f"unknown gate {gate!r}; expected one of {GATE_NAMES}")

    block = math.prod(tdims)

    def matmul(t):
        flat = t.reshape(block, -1)
        return (mat @ flat).reshape(t.shape)

    new = _moveaxes_apply(state.amps, dims, idx, matmul)
    return PureState(state.shape, new)


def _branch(outcome, prob, shape, raw_amps) -> MeasurementBranch:
    prob = float(max(prob, 0.0))
    if prob < ZERO_BRANCH_TOL:
        return MeasurementBranch(outcome, prob, None)
    return MeasurementBranch(outcome, prob,
                             PureState(shape, raw_amps / math.sqrt(prob)))


def uniformity_measure(state: PureState, target) -> tuple[MeasurementBranch, MeasurementBranch]:
    """Projective measurement {|u_m><u_m|, I - |u_m><u_m|} on one register.

    Outcome 0 projects the register onto the uniform superposition |u_m>,
    outcome 1 onto its complement; both post states are renormalized.
    """
    i = state.shape.index_of(target)
    dims = state.shape.dims
    m = dims[i]
    t = state.tensor_view()
    u = np.full(m, 1.0 / math.sqrt(m))
    overlap = np.tensordot(u, t, axes=([0], [i]))           # <u_m| on axis i
    proj = np.expand_dims(overlap, axis=i) * u.reshape(
        [m if k == i else 1 for k in range(len(dims))])
    p0 = float(np.sum(np.abs(overlap) ** 2))
    rest = t - proj
    p1 = float(np.sum(np.abs(rest) ** 2))
    return (_branch(0, p0, state.shape, proj.reshape(-1)),
            _branch(1, p1, state.shape, rest.reshape(-1)))


def computational_measure(state: PureState, targets) -> list[MeasurementBranch]:
    """Standard-basis measurement of one or more registers.

    Returns one branch per outcome tuple in the support (probability > 0);
    the post state keeps all registers, with the measured ones collapsed.
    """
    if isinstance(targets, (str, int)):
        targets = (targets,)
    idx = [state.shape.index_of(t) for t in targets]
    dims = state.shape.dims
    t = state.tensor_view()
    other = tuple(k for k in range(len(dims)) if k not in idx)
    probs = np.abs(t) ** 2
    if other:
        probs = probs.sum(axis=other)
    # probs now has the target axes in register order, not in `targets` order
    order = sorted(idx)
    branches = []
    for flat, p in enumerate(probs.reshape(-1)):
        if p <= 0.0:
            continue
        outcome_by_axis = dict(zip(order, np.unravel_index(flat, probs.shape)))
        sel = tuple(outcome_by_axis.get(k, slice(None)) for k in range(len(dims)))
        raw = np.zeros_like(t)
        raw[sel] = t[sel]
        outcome = tuple(int(outcome_by_axis[state.shape.index_of(tg)]) for tg in targets)
        if len(outcome) == 1:
            outcome = outcome[0]
        branches.append(_branch(outcome, float(p), state.shape, raw.reshape(-1)))
    return branches


def swap_test(a: PureState, b: PureState, mode: str = "closed_form"):
    """Acceptance probability 1/2 (1 + |<a|b>|^2) of the swap test.

    ``closed_form`` evaluates the formula directly.  ``circuit`` builds the
    ancilla H / register-wise CSWAP / H circuit, measures the ancilla, and
    returns ``(probability, branches)``; outcome 0 accepts.
    """
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatchError(f"{a.shape.dims} vs {b.shape.dims}")
    if mode == "closed_form":
        return 0.5 * (1.0 + abs(inner(a, b)) ** 2)
    if mode != "circuit":
        raise ValueError(f"unknown swap_test mode {mode!r}")
    anc = basis_state(RegisterShape.of((2,), ("anc",)), 0)
    joint = tensor(tensor(anc, a), b)
    joint = apply_gate(joint, "H", 0)
    nreg = len(a.shape.dims)
    for r in range(nreg):
        joint = apply_gate(joint, "CSWAP", (0, 1 + r, 1 + nreg + r))
    joint = apply_gate(joint, "H", 0)
    branches = computational_measure(joint, 0)
    p_accept = 0.0
    for br in branches:
        if br.outcome == 0:
            p_accept = br.probability
    return p_accept, branches


def pure_trace_distance(a: PureState, b: PureState) -> float:
    """Trace distance sqrt(1 - |<a|b>|^2) between two pure states."""
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatchError(f"{a.shape.dims} vs {b.shape.dims}")
    ov = abs(inner(a, b)) ** 2
    return math.sqrt(max(0.0, 1.0 - ov))
