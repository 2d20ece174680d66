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

Tokens are separated by whitespace.  Input wires are named u0..u(n-1) and
v0..v(n-1); u0 is the least significant bit of u.  The n and m headers
each appear once, before any gate, and so does each out line; their values
are ASCII decimal digits, with 1 <= n and 1 <= m <= 2^n.  Gate lines
must appear in order w0, w1, ... and may only reference inputs or earlier
gates.

A :class:`SuccinctCircuit` holds its gates as three columns: ``ops``, and
the operand wires ``a`` and ``b``, -1 where the op takes fewer operands.
Wires 0..2n-1 are the inputs u then v, and gate k is wire 2n + k.  Its
constructor is the one check of ops, operands, outputs and caps; the
parser resolves operand names through its table of wires defined so far.

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

import functools
import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SuccinctCircuit:
    """Gate columns as in the module docstring, checked here and only here."""

    n: int
    m: int
    ops: tuple[str, ...]     # AND | OR | NOT | CONST0 | CONST1
    a: tuple[int, ...]
    b: tuple[int, ...]
    out_pair: int
    out_edge: int

    def __post_init__(self):
        _check_width(self.n)            # before 2^n is evaluated
        _check_vertices(self.n, self.m)
        if len(self.ops) > MAX_GATES:
            raise CapacityError(f"{len(self.ops)} gates exceeds cap {MAX_GATES}")
        if not len(self.ops) == len(self.a) == len(self.b):
            raise ValueError("gate columns ops, a and b differ in length")
        for k, (op, x, y) in enumerate(zip(self.ops, self.a, self.b)):
            arity = ARITY.get(op)
            if arity is None:
                raise ValueError(f"unknown gate op {op!r}")
            limit = 2 * self.n + k
            if not ((0 <= x < limit if arity else x == -1)
                    and (0 <= y < limit if arity == 2 else y == -1)):
                raise ValueError(f"gate w{k} = {op} {x} {y} needs {arity} earlier wire(s), then -1")
        for w in (self.out_pair, self.out_edge):
            if not 0 <= w < 2 * self.n + len(self.ops):
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


_WIRE_RE = re.compile(r"[uvw](0|[1-9][0-9]*)")


def _check_width(n: int):
    """The label-width checks, made before anything is sized by n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_LABEL_BITS:
        raise CapacityError(f"n={n} exceeds the label-width cap {MAX_LABEL_BITS}")


def _check_vertices(n: int, m: int):
    """The vertex count's range, once the width is checked."""
    if not 1 <= m <= 2 ** n:
        raise ValueError(f"m={m} outside [1, 2^{n}]")


def _undefined(name: str, n: int, lineno: int) -> ParseError:
    """The error for an operand name missing from the parser's wire table."""
    if not _WIRE_RE.fullmatch(name):
        return ParseError(f"bad wire name {name!r}", lineno)
    if name[0] == "w":
        return ParseError(f"wire {name} is not defined yet", lineno)
    return ParseError(f"input wire {name} out of range for n={n}", lineno)


def parse_sgc(text: str) -> SuccinctCircuit:
    """Parse SGC v1 text; raises :class:`ParseError` with a line number.
    Each line is split into whitespace tokens.  Operand names resolve through
    the table of wires defined so far, the inputs once n is read and then
    each gate, so :class:`SuccinctCircuit` alone checks wire indices.  The
    range of m is checked at the second of the n and m lines."""
    header, names, outs = {"n": None, "m": None}, {}, {}
    ops, a, b = [], [], []
    saw_magic = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if not saw_magic:
            if tokens != ["SGC", "1"]:
                raise ParseError(f"expected 'SGC 1' header, got {line.strip()!r}", lineno)
            saw_magic = True
            continue
        head = tokens[0]
        gate = len(tokens) > 2 and tokens[1] == "=" and head[0] == "w"
        arity = ARITY.get(tokens[2]) if gate else None
        if arity is not None:
            if None in header.values():
                raise ParseError("gate line before n/m headers", lineno)
            if head != f"w{len(ops)}":
                raise ParseError(f"expected gate w{len(ops)}, got {head}", lineno)
            if len(tokens) != 3 + arity:
                raise ParseError(f"{tokens[2]} takes {arity} operand(s)", lineno)
            try:
                a.append(names[tokens[3]] if arity else -1)
                b.append(names[tokens[4]] if arity == 2 else -1)
            except KeyError as exc:
                raise _undefined(exc.args[0], header["n"], lineno) from None
            names[head] = len(names)        # 2n inputs, then one name per gate
            ops.append(tokens[2])
            if len(ops) > MAX_GATES:
                raise ParseError(f"gate count exceeds cap {MAX_GATES}", lineno)
        elif head in header:
            if len(tokens) != 2:
                raise ParseError(f"malformed header line {line.strip()!r}", lineno)
            if header[head] is not None:
                raise ParseError(f"repeated {head} header", lineno)
            if not (tokens[1].isascii() and tokens[1].isdigit()):
                raise ParseError(f"{head} must be an integer", lineno)
            try:
                header[head] = int(tokens[1])       # past 4,300 digits: int()'s ValueError
                if head == "n":         # the width, before 2n input names are tabled
                    _check_width(n := header["n"])
                    names = {f"{side}{i}": j * n + i for j, side in enumerate("uv")
                             for i in range(n)}
                if None not in header.values():     # the second of n and m
                    _check_vertices(header["n"], header["m"])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        elif head == "out":
            if len(tokens) != 3 or tokens[1] not in ("pair", "edge"):
                raise ParseError(f"malformed output line {line.strip()!r}", lineno)
            if header["n"] is None:
                raise ParseError("output line before n header", lineno)
            if tokens[1] in outs:
                raise ParseError(f"repeated out {tokens[1]} line", lineno)
            if tokens[2] not in names:
                raise _undefined(tokens[2], header["n"], lineno)
            outs[tokens[1]] = names[tokens[2]]
        else:
            raise ParseError(f"unrecognized line {line.strip()!r}", lineno)
    if not saw_magic:
        raise ParseError("empty file; expected 'SGC 1' header", 1)
    if None in header.values():
        raise ParseError("missing n/m header", 1)
    if len(outs) < 2:
        raise ParseError("missing 'out pair' or 'out edge' line", 1)
    try:
        return SuccinctCircuit(header["n"], header["m"], tuple(ops), tuple(a), tuple(b),
                               outs["pair"], outs["edge"])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_sgc(c: SuccinctCircuit, comment: str | None = None) -> str:
    """Serialize a circuit back to SGC v1 text."""
    names = ([f"u{i}" for i in range(c.n)] + [f"v{i}" for i in range(c.n)]
             + [f"w{k}" for k in range(len(c.ops))])
    lines = ["SGC 1"]
    if comment:
        lines.append(f"# {comment}")
    lines += [f"n {c.n}", f"m {c.m}"]
    for k, (op, x, y) in enumerate(zip(c.ops, c.a, c.b)):
        lines.append(" ".join([f"w{k}", "=", op] + [names[w] for w in (x, y)[:ARITY[op]]]))
    lines += [f"out pair {names[c.out_pair]}", f"out edge {names[c.out_edge]}"]
    return "\n".join(lines) + "\n"


def _wire_values(c: SuccinctCircuit, u_bits, v_bits, zero, one):
    vals = list(u_bits) + list(v_bits)
    for op, x, y in zip(c.ops, c.a, c.b):
        if op == "AND":
            vals.append(vals[x] & vals[y])
        elif op == "OR":
            vals.append(vals[x] | vals[y])
        elif op == "NOT":
            vals.append(one - vals[x])
        elif op == "CONST0":
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
    wires = 2 * c.n + len(c.ops)
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


def encode_explicit(g: ExplicitGraph, n: int) -> SuccinctCircuit:
    """Lookup-table circuit (OR of pair minterms) with expand o encode = id."""
    if g.m > 2 ** n:
        raise CapacityError(f"m={g.m} does not fit in n={n} bits")
    ops, a, b = [], [], []

    def emit(op, x=-1, y=-1) -> int:
        ops.append(op)
        a.append(x)
        b.append(y)
        if len(ops) > MAX_GATES:
            raise CapacityError(f"generated circuit exceeds {MAX_GATES} gates")
        return 2 * n + len(ops) - 1

    def chain(op, wires, empty) -> int:
        return functools.reduce(lambda acc, w: emit(op, acc, w), wires) if wires else emit(empty)

    not_u = [emit("NOT", i) for i in range(n)]
    not_v = [emit("NOT", n + i) for i in range(n)]
    minterm = {}
    for u in range(g.m):
        for v in range(u + 1, g.m):
            lits = [(i if (u >> i) & 1 else not_u[i]) for i in range(n)]
            lits += [(n + i if (v >> i) & 1 else not_v[i]) for i in range(n)]
            minterm[(u, v)] = chain("AND", lits, "CONST1")
    out_pair = chain("OR", list(minterm.values()), "CONST0")
    out_edge = chain("OR", [minterm[u, v] for u, v in g.edges.tolist()], "CONST0")
    return SuccinctCircuit(n, g.m, tuple(ops), tuple(a), tuple(b), out_pair, out_edge)


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
