"""Small-circuit graph representation: parser, evaluator, generator, oracle.

A graph on vertex set [m] with m <= 2^n is described by a Boolean circuit
taking two n-bit vertex labels u and v and emitting two bits:

    00  if u or v is out of range, or u >= v,
    10  if u < v and {u, v} is not an edge,
    11  if u < v and {u, v} is an edge.

The out-of-range / ordering discipline is enforced by a wrapper around the
raw circuit, so malformed instance files cannot produce outputs outside
{00, 10, 11}.

SGC v1 text format (UTF-8, line oriented, ``#`` starts a comment):

    SGC 1
    n 2
    m 3
    w0 = AND u0 v0
    w1 = NOT w0
    w2 = CONST0
    out pair w1
    out edge w2

Input wires are named u0..u(n-1) and v0..v(n-1); u0 is the least significant
bit of u.  The n and m headers each appear once, before any gate.  Gate
lines must appear in order w0, w1, ... and may only reference inputs or
earlier gates.

:func:`expand` evaluates the circuit on the pairs u < v < m, flattened
row by row and cut into blocks.  Each wire of a block is one Python int with
a bit per pair, so a block takes one pass over the gates, and the same
evaluator serves :func:`eval_pair` on single bits (NOT is ``one - x``
either way).  A block holds one bit per wire and 32 bytes of labels per
pair, at most EXPAND_BLOCK_BYTES (8 MiB) in all; the block length follows
from the wire count before anything is allocated: 669 pairs at the 10^5-gate
cap, 100,000 to 240,000 for the bundled instances.  The edges, one sorted
(|E|, 2) index array of 16 bytes an edge, go to every reader as they are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ParseError

#: eval_pair outputs (two bits: pair-valid, edge-present).
INVALID, NON_EDGE, EDGE = 0b00, 0b10, 0b11

MAX_GATES = 10 ** 5
MAX_EXPAND_VERTICES = 1 << 16
MAX_BRUTE_FORCE_VERTICES = 20
MAX_LABEL_BITS = 20      # one proof, 3 * 2^n amplitudes, fits states.MAX_TOTAL_DIM
EXPAND_BLOCK_BYTES = 1 << 23     # live wire bits plus pair labels of one expand block
MAX_EDGES = 1 << 21              # edges expand holds; the complete graph at n = 11 fits

#: operand count of each gate op
ARITY = {"AND": 2, "OR": 2, "NOT": 1, "CONST0": 0, "CONST1": 0}


class CircuitGate(NamedTuple):
    """One gate.  A named tuple, not a frozen dataclass: the parser builds one
    per gate line, and a tuple builds and hashes in half the time."""

    op: str          # AND | OR | NOT | CONST0 | CONST1
    a: int = -1      # wire indices; unused operands are -1
    b: int = -1


@dataclass(frozen=True)
class SuccinctCircuit:
    n: int
    m: int
    gates: tuple[CircuitGate, ...]
    out_pair: int
    out_edge: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > MAX_LABEL_BITS:     # checked before 2^n is evaluated
            raise CapacityError(f"n={self.n} exceeds the label-width cap {MAX_LABEL_BITS}")
        if not 1 <= self.m <= 2 ** self.n:
            raise ValueError(f"m={self.m} outside [1, 2^{self.n}]")
        if len(self.gates) > MAX_GATES:
            raise CapacityError(f"{len(self.gates)} gates exceeds cap {MAX_GATES}")
        nwires = 2 * self.n + len(self.gates)
        for k, g in enumerate(self.gates):
            limit = 2 * self.n + k
            operands = ARITY.get(g.op)
            if operands is None:
                raise ValueError(f"unknown gate op {g.op!r}")
            for w in (g.a, g.b)[:operands]:
                if not 0 <= w < limit:
                    raise ValueError(f"gate w{k} references wire {w} out of range")
        for w in (self.out_pair, self.out_edge):
            if not 0 <= w < nwires:
                raise ValueError(f"output references wire {w} out of range")


@dataclass(frozen=True, eq=False)
class ExplicitGraph:
    """A graph on [m]: ``edges`` is a read-only (|E|, 2) intp array of the pairs
    u < v in increasing (u, v) order; a set or list of pairs is sorted first."""

    m: int
    edges: np.ndarray

    def __post_init__(self):
        edges = self.edges if isinstance(self.edges, np.ndarray) else sorted(self.edges)
        edges = np.asarray(edges, dtype=np.intp).reshape(len(edges), 2)
        u, v = edges.T
        key = u * self.m + v    # increasing, with u[0] >= 0 and u < v < m, leaves no u < 0
        if len(edges) and not (u[0] >= 0 and (v > u).all() and v.max() < self.m
                               and (key[1:] > key[:-1]).all()):
            raise ValueError(f"edges must be distinct sorted pairs 0 <= u < v < m={self.m}")
        edges.setflags(write=False)    # on the view: a caller's array keeps its flags
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        return (isinstance(other, ExplicitGraph) and self.m == other.m
                and np.array_equal(self.edges, other.edges))


@dataclass(frozen=True)
class Coloring:
    """Colors for vertices [m]; vertices in [m, 2^n) get color 0."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if any(c not in (0, 1, 2) for c in self.colors):
            raise ValueError("colors must be in {0, 1, 2}")

    def color(self, v: int) -> int:
        return self.colors[v] if v < len(self.colors) else 0

    def extended(self, n: int) -> np.ndarray:
        out = np.zeros(2 ** n, dtype=np.int64)
        out[: len(self.colors)] = self.colors
        return out

    def monochromatic_edges(self, g: ExplicitGraph) -> list[tuple[int, int]]:
        ends = np.array(self.colors + (0,) * g.m)[g.edges]     # vertices past colors: 0
        return list(map(tuple, g.edges[ends[:, 0] == ends[:, 1]].tolist()))

    def is_valid_for(self, g: ExplicitGraph) -> bool:
        return not self.monochromatic_edges(g)


_GATE_RE = re.compile(r"^w(\d+)\s*=\s*(AND|OR|NOT|CONST0|CONST1)\s*(.*)$")
_WIRE_RE = re.compile(r"([uvw])(\d+)")


def _resolve_wire(token: str, n: int, gates_so_far: int, lineno: int) -> int:
    mt = _WIRE_RE.fullmatch(token)
    if not mt:
        raise ParseError(f"bad wire name {token!r}", lineno)
    kind, num = mt.group(1), int(mt.group(2))
    if kind in "uv":
        if num >= n:
            raise ParseError(f"input wire {token} out of range for n={n}", lineno)
        return num if kind == "u" else n + num
    if num >= gates_so_far:
        raise ParseError(f"wire w{num} is not defined yet", lineno)
    return 2 * n + num


def parse_sgc(text: str) -> SuccinctCircuit:
    """Parse SGC v1 text; raises :class:`ParseError` with a line number."""
    header = {"n": None, "m": None}
    gates: list[CircuitGate] = []
    outs = {}
    saw_magic = False
    known: dict[str, int] = {}    # wire names resolved so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_magic:
            if line != "SGC 1":
                raise ParseError(f"expected 'SGC 1' header, got {line!r}", lineno)
            saw_magic = True
            continue
        mg = _GATE_RE.match(line)
        if mg:
            if header["n"] is None or header["m"] is None:
                raise ParseError("gate line before n/m headers", lineno)
            k, op, rest = int(mg.group(1)), mg.group(2), mg.group(3).split()
            if k != len(gates):
                raise ParseError(f"expected gate w{len(gates)}, got w{k}", lineno)
            arity = ARITY[op]
            if len(rest) != arity:
                raise ParseError(f"{op} takes {arity} operand(s)", lineno)
            wires = []
            for tok in rest:
                if tok not in known:
                    known[tok] = _resolve_wire(tok, header["n"], len(gates), lineno)
                wires.append(known[tok])
            known[f"w{k}"] = 2 * header["n"] + k
            gates.append(CircuitGate(op, *wires))
            if len(gates) > MAX_GATES:
                raise ParseError(f"gate count exceeds cap {MAX_GATES}", lineno)
            continue
        parts = line.split()
        if parts[0] in header:
            if len(parts) != 2:
                raise ParseError(f"malformed header line {line!r}", lineno)
            if header[parts[0]] is not None:
                raise ParseError(f"repeated {parts[0]} header", lineno)
            try:
                header[parts[0]] = int(parts[1])
            except ValueError:
                raise ParseError(f"{parts[0]} must be an integer", lineno) from None
            continue
        if parts[0] == "out":
            if len(parts) != 3 or parts[1] not in ("pair", "edge"):
                raise ParseError(f"malformed output line {line!r}", lineno)
            if header["n"] is None:
                raise ParseError("output line before n header", lineno)
            outs[parts[1]] = _resolve_wire(parts[2], header["n"], len(gates), lineno)
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno)
    if not saw_magic:
        raise ParseError("empty file; expected 'SGC 1' header", 1)
    if header["n"] is None or header["m"] is None:
        raise ParseError("missing n/m header", 1)
    if "pair" not in outs or "edge" not in outs:
        raise ParseError("missing 'out pair' or 'out edge' line", 1)
    try:
        return SuccinctCircuit(header["n"], header["m"], tuple(gates),
                               outs["pair"], outs["edge"])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_sgc(c: SuccinctCircuit, comment: str | None = None) -> str:
    """Serialize a circuit back to SGC v1 text."""

    def wire_name(w: int) -> str:
        if w < c.n:
            return f"u{w}"
        if w < 2 * c.n:
            return f"v{w - c.n}"
        return f"w{w - 2 * c.n}"

    lines = ["SGC 1"]
    if comment:
        lines.append(f"# {comment}")
    lines += [f"n {c.n}", f"m {c.m}"]
    for k, g in enumerate(c.gates):
        if g.op in ("CONST0", "CONST1"):
            lines.append(f"w{k} = {g.op}")
        elif g.op == "NOT":
            lines.append(f"w{k} = NOT {wire_name(g.a)}")
        else:
            lines.append(f"w{k} = {g.op} {wire_name(g.a)} {wire_name(g.b)}")
    lines += [f"out pair {wire_name(c.out_pair)}", f"out edge {wire_name(c.out_edge)}"]
    return "\n".join(lines) + "\n"


def _wire_values(c: SuccinctCircuit, u_bits, v_bits, zero, one):
    vals = list(u_bits) + list(v_bits)
    for g in c.gates:
        if g.op == "AND":
            vals.append(vals[g.a] & vals[g.b])
        elif g.op == "OR":
            vals.append(vals[g.a] | vals[g.b])
        elif g.op == "NOT":
            vals.append(one - vals[g.a])
        elif g.op == "CONST0":
            vals.append(zero)
        else:
            vals.append(one)
    return vals[c.out_pair], vals[c.out_edge]


def eval_pair(c: SuccinctCircuit, u: int, v: int) -> int:
    """Wrapped circuit output for a vertex pair: INVALID, NON_EDGE or EDGE."""
    if not (0 <= u < 2 ** c.n and 0 <= v < 2 ** c.n):
        raise ValueError(f"labels ({u},{v}) outside [0, 2^{c.n})")
    if u >= v or u >= c.m or v >= c.m:
        return INVALID
    ub = [(u >> i) & 1 for i in range(c.n)]
    vb = [(v >> i) & 1 for i in range(c.n)]
    pair, edge = _wire_values(c, ub, vb, 0, 1)
    if not pair:
        return INVALID
    return EDGE if edge else NON_EDGE


def _bit_planes(labels: np.ndarray, n: int) -> list[int]:
    """Bit i of every label, packed into one int per i: bit p of plane i
    is bit i of labels[p]."""
    return [int.from_bytes(np.packbits((labels >> i) & 1, bitorder="little").tobytes(),
                           "little") for i in range(n)]


def expand(c: SuccinctCircuit) -> ExplicitGraph:
    """Evaluate the circuit on every pair u < v < m, one pass over the gates
    per block of pairs (module docstring), and return the explicit graph.
    Only the m vertices are walked, so m, not 2^n, is held to
    MAX_EXPAND_VERTICES, and a block that would take the edge count past
    MAX_EDGES raises before its edges are stored."""
    if c.m > MAX_EXPAND_VERTICES:
        raise CapacityError(f"m={c.m} vertices exceeds expand cap {MAX_EXPAND_VERTICES}")
    wires = 2 * c.n + len(c.gates)
    block = 8 * EXPAND_BLOCK_BYTES // (wires + 256)   # >= 669 pairs at MAX_GATES
    rows = np.arange(c.m, dtype=np.int64)
    first = rows * (2 * c.m - rows - 1) // 2          # flat index of the pair (u, u + 1)
    total = c.m * (c.m - 1) // 2
    blocks, count = [np.empty((2, 0), dtype=np.intp)], 0     # u and v rows of each block
    for start in range(0, total, block):
        flat = np.arange(start, min(start + block, total), dtype=np.int64)
        u = np.searchsorted(first, flat, side="right") - 1
        v = flat - first[u] + u + 1
        pair, edge = _wire_values(c, _bit_planes(u, c.n), _bit_planes(v, c.n),
                                  0, (1 << len(flat)) - 1)
        bits = np.frombuffer((pair & edge).to_bytes((len(flat) + 7) // 8, "little"),
                             dtype=np.uint8)
        hit = np.flatnonzero(np.unpackbits(bits, count=len(flat), bitorder="little"))
        if (count := count + hit.size) > MAX_EDGES:
            raise CapacityError(f"the graph has more than {MAX_EDGES} edges, the expand cap")
        blocks.append(np.array([u[hit], v[hit]]))
    edges = np.concatenate(blocks, axis=1).T
    edges.setflags(write=False)
    g = object.__new__(ExplicitGraph)    # rows distinct, sorted and in range: skip the check
    g.__dict__.update(m=c.m, edges=edges)
    return g


class _Builder:
    """Accumulates gates; returns wire indices."""

    def __init__(self, n: int):
        self.n = n
        self.gates: list[CircuitGate] = []

    def emit(self, op, a=-1, b=-1) -> int:
        self.gates.append(CircuitGate(op, a, b))
        if len(self.gates) > MAX_GATES:
            raise CapacityError(f"generated circuit exceeds {MAX_GATES} gates")
        return 2 * self.n + len(self.gates) - 1

    def chain(self, op, wires, empty) -> int:
        if not wires:
            return self.emit(empty)
        acc = wires[0]
        for w in wires[1:]:
            acc = self.emit(op, acc, w)
        return acc


def encode_explicit(g: ExplicitGraph, n: int) -> SuccinctCircuit:
    """Lookup-table circuit (OR of pair minterms) with expand o encode = id."""
    if g.m > 2 ** n:
        raise CapacityError(f"m={g.m} does not fit in n={n} bits")
    b = _Builder(n)
    not_u = [b.emit("NOT", i) for i in range(n)]
    not_v = [b.emit("NOT", n + i) for i in range(n)]
    minterm = {}
    for u in range(g.m):
        for v in range(u + 1, g.m):
            lits = [(i if (u >> i) & 1 else not_u[i]) for i in range(n)]
            lits += [(n + i if (v >> i) & 1 else not_v[i]) for i in range(n)]
            minterm[(u, v)] = b.chain("AND", lits, "CONST1")
    out_pair = b.chain("OR", list(minterm.values()), "CONST0")
    out_edge = b.chain("OR", [minterm[u, v] for u, v in g.edges.tolist()], "CONST0")
    return SuccinctCircuit(n, g.m, tuple(b.gates), out_pair, out_edge)


def _least_violations(g: ExplicitGraph, bound: int) -> tuple[tuple[int, ...] | None, int]:
    """Branch and bound over the colorings in product order (vertex 0 most
    significant, colors 0, 1, 2): the first coloring with the fewest
    monochromatic edges among those with fewer than ``bound``, and its
    count; (None, bound) when there is none.  A branch is cut once its
    count reaches the best so far, and the search stops at a valid
    coloring, as none can do better."""
    if g.m > MAX_BRUTE_FORCE_VERTICES:
        raise CapacityError(f"m={g.m} exceeds brute-force cap {MAX_BRUTE_FORCE_VERTICES}")
    earlier = [[] for _ in range(g.m)]      # the neighbors colored before each vertex
    for u, v in g.edges.tolist():
        earlier[v].append(u)
    colors = [0] * g.m
    best = [bound, None]

    def place(v: int, bad: int):
        if v == g.m:
            best[:] = bad, tuple(colors)
            return
        for c in range(3):
            now = bad + sum(1 for w in earlier[v] if colors[w] == c)
            if now < best[0]:
                colors[v] = c
                place(v + 1, now)
                if not best[0]:
                    return

    place(0, 0)
    return best[1], best[0]


def brute_force_3color(g: ExplicitGraph) -> Coloring | None:
    """The first valid 3-coloring in product order, or None when there is none.

    Independent oracle for the protocol tests: no quantum machinery involved.
    """
    colors, _ = _least_violations(g, 1)
    return None if colors is None else Coloring(colors)


def min_violation_coloring(g: ExplicitGraph) -> tuple[Coloring, int]:
    """The first coloring in product order with the fewest monochromatic
    edges, and that count; count 0 iff 3-colorable."""
    colors, bad = _least_violations(g, len(g.edges) + 1)
    return Coloring(colors), bad
