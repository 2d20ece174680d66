import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvlab import corpus, sgraph
from uvlab.errors import AddressError, CapacityError, ParseError
from uvlab.sgraph import (ARITY, EDGE, EXPAND_BLOCK_BYTES, INVALID, NON_EDGE,
                          Coloring, ExplicitGraph, SuccinctCircuit,
                          brute_force_3color, encode_explicit, eval_pair,
                          expand, format_sgc, min_violation_coloring,
                          parse_sgc)


def graph(m, edges):
    return ExplicitGraph(m, frozenset(tuple(sorted(e)) for e in edges))


def expand_reference(c):
    """Row-by-row expansion: one pass over the gates per vertex u, on uint8
    arrays over every v.  The block expansion must give the same graph."""
    size = 2 ** c.n
    v = np.arange(size, dtype=np.int64)
    v_bits = [((v >> i) & 1).astype(np.uint8) for i in range(c.n)]
    zero = np.zeros(size, dtype=np.uint8)
    one = np.ones(size, dtype=np.uint8)
    edges = []
    for u in range(c.m):
        ub = [np.uint8((u >> i) & 1) for i in range(c.n)]
        pair, edge = sgraph._wire_values(c, ub, v_bits, zero, one)
        hit = (np.asarray(pair, dtype=bool) & np.asarray(edge, dtype=bool)
               & (v > u) & (v < c.m))
        edges.extend((u, int(w)) for w in np.nonzero(hit)[0])
    return ExplicitGraph(c.m, frozenset(edges))


@st.composite
def circuits(draw):
    """Random circuits at n <= 5 with any m <= 2^n.  Operands lean on the
    newest wire, so NOT and CONST chains are common, and outputs lean on
    the input wires."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 2 ** n))
    ops, a, b = [], [], []
    for k in range(draw(st.integers(0, 24))):
        op = draw(st.sampled_from(sorted(ARITY)))
        newest = 2 * n + k - 1
        operand = st.one_of(st.just(newest), st.integers(0, newest))
        x, y = [draw(operand) for _ in range(ARITY[op])] + [-1] * (2 - ARITY[op])
        ops.append(op)
        a.append(x)
        b.append(y)
    output = st.one_of(st.integers(0, 2 * n - 1), st.integers(0, 2 * n + len(ops) - 1))
    return SuccinctCircuit(n, m, tuple(ops), tuple(a), tuple(b), draw(output), draw(output))


@st.composite
def small_graphs(draw):
    """Graphs on at most 7 vertices, each pair an edge or not."""
    m = draw(st.integers(0, 7))
    return graph(m, [e for e in itertools.combinations(range(m), 2) if draw(st.booleans())])


K3 = graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = graph(4, list(itertools.combinations(range(4), 2)))
C5 = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


class TestParser:
    def test_k3_corpus_file(self):
        c = parse_sgc(corpus.instance_text("k3_n2"))
        assert (c.n, c.m) == (2, 3)
        assert expand(c) == K3

    def test_undefined_wire_is_named(self):
        text = "SGC 1\nn 1\nm 2\nw0 = AND u0 w7\nout pair w0\nout edge w0\n"
        with pytest.raises(ParseError, match="w7"):
            parse_sgc(text)

    def test_forward_reference_rejected(self):
        text = "SGC 1\nn 1\nm 2\nw0 = NOT w0\nout pair w0\nout edge w0\n"
        with pytest.raises(ParseError, match="not defined"):
            parse_sgc(text)

    def test_gate_numbering_must_be_sequential(self):
        text = "SGC 1\nn 1\nm 2\nw1 = CONST0\nout pair w1\nout edge w1\n"
        with pytest.raises(ParseError, match="expected gate w0"):
            parse_sgc(text)

    def test_error_carries_line_number(self):
        text = "SGC 1\nn 1\nm 2\nw0 = XOR u0 v0\nout pair w0\nout edge w0\n"
        with pytest.raises(ParseError) as err:
            parse_sgc(text)
        assert err.value.line == 4

    def test_missing_outputs(self):
        with pytest.raises(ParseError, match="out pair"):
            parse_sgc("SGC 1\nn 1\nm 2\nw0 = CONST0\n")

    def test_missing_magic(self):
        with pytest.raises(ParseError, match="SGC 1"):
            parse_sgc("n 1\nm 2\n")

    def test_consts_only_circuit_is_valid_edgeless(self):
        text = ("SGC 1\nn 2\nm 3\n# no real gates\n"
                "w0 = CONST1\nw1 = CONST0\nout pair w0\nout edge w1\n")
        c = parse_sgc(text)
        assert expand(c) == graph(3, [])

    def test_comments_and_blank_lines(self):
        text = ("# leading comment\nSGC 1\n\nn 1\nm 2\n"
                "w0 = CONST1  # trailing\nout pair w0\nout edge w0\n")
        c = parse_sgc(text)
        assert expand(c) == graph(2, [(0, 1)])

    def test_format_round_trip(self):
        c = corpus.load("c5_n3")
        again = parse_sgc(format_sgc(c))
        assert again == c and hash(again) == hash(c)
        for name in corpus.available():
            text = corpus.instance_text(name)
            comment = text.splitlines()[1].removeprefix("# ")
            assert format_sgc(corpus.load(name), comment=comment) == text, name

    @settings(max_examples=100, deadline=None)
    @given(circuits())
    def test_format_round_trip_on_random_circuits(self, c):
        assert parse_sgc(format_sgc(c)) == c

    def test_outputs_may_reference_input_wires(self):
        # pair bit = v0, edge bit = v0: edges are all (u, v) with v odd
        text = "SGC 1\nn 2\nm 4\nout pair v0\nout edge v0\n"
        c = parse_sgc(text)
        g = expand(c)
        assert g == graph(4, [(0, 1), (0, 3), (1, 3), (2, 3)])
        assert eval_pair(c, 0, 2) == INVALID     # raw pair bit 0

    @pytest.mark.parametrize("text, line", [
        # v0 is wire 1 at n = 1 but wire 2 at n = 2, so the gate parsed
        # before a second n header would silently name another wire
        ("SGC 1\nn 1\nm 2\nw0 = NOT v0\nn 2\nw1 = NOT v0\n", 5),
        ("SGC 1\nn 2\nn 2\nm 3\n", 3),
        ("SGC 1\nn 2\nm 3\nw0 = CONST0\nm 4\n", 5),
        # a second out line would silently replace the first
        ("SGC 1\nn 1\nm 2\nw0 = CONST0\nout edge w0\nout edge u0\n", 6),
        ("SGC 1\nn 1\nm 2\nw0 = CONST0\nout pair w0\n", 6),
    ], ids=["n-after-gate", "n-twice", "m-after-gate", "out-edge-twice", "out-pair-twice"])
    def test_repeated_header_is_rejected(self, text, line):
        with pytest.raises(ParseError, match="repeated") as exc:
            parse_sgc(text + "out pair w0\nout edge w0\n")
        assert exc.value.line == line

    @pytest.mark.parametrize("gate, match", [
        ("w0 = NOTu0", "unrecognized line"),
        ("w0=ANDu0 v1", "unrecognized line"),
        ("w00 = CONST1", "expected gate w0, got w00"),
        ("w0 = NOT u00", "bad wire name 'u00'"),
        ("w0 = AND u0 v2", "input wire v2 out of range for n=2"),
    ], ids=["op-glued-to-operand", "no-spaces", "padded-gate-name", "padded-wire-name",
            "input-past-n"])
    def test_gate_tokens_must_be_whole(self, gate, match):
        # tokens are whitespace-separated names: nothing is read out of a
        # longer token, and a wire has one name
        with pytest.raises(ParseError, match=match) as exc:
            parse_sgc(f"SGC 1\nn 2\nm 3\n{gate}\nout pair w0\nout edge w0\n")
        assert exc.value.line == 4

    @pytest.mark.parametrize("ops, a, b, out, match", [
        (("NOT",), (0,), (), 2, "differ in length"),
        (("XOR",), (0,), (1,), 2, "unknown gate op 'XOR'"),
        (("NOT",), (2,), (-1,), 2, "gate w0"),
        (("NOT",), (0,), (1,), 2, "gate w0"),
        (("CONST1", "AND"), (-1, 0), (-1, -1), 2, "gate w1"),
        (("CONST1",), (-1,), (-1,), 3, "output references wire 3"),
    ], ids=["lengths", "op", "operand-not-earlier", "unused-operand-set",
            "operand-missing", "output"])
    def test_circuit_checks_its_columns(self, ops, a, b, out, match):
        # n = 1: wires 0 and 1 are the inputs, gate k is wire 2 + k
        with pytest.raises(ValueError, match=match):
            SuccinctCircuit(1, 2, ops, a, b, out, out)

    def test_gate_count_cap(self):
        from uvlab.sgraph import MAX_GATES
        gates = MAX_GATES + 1
        with pytest.raises(CapacityError):
            SuccinctCircuit(1, 2, ("CONST0",) * gates, (-1,) * gates, (-1,) * gates, 2, 2)

    def test_label_width_capacity(self):
        text = "SGC 1\nn 1000000\nm 2\nw0 = CONST0\nout pair w0\nout edge w0\n"
        with pytest.raises(CapacityError, match="label-width"):
            parse_sgc(text)


# SGC documents built line by line: numbered gates and output lines, with
# up to two lines of arbitrary tokens, valid and not, spliced in
FUZZ_TOKENS = ["SGC", "1", "n", "m", "0", "2", "3", "-1", "20", "21", "x", "=",
               "AND", "OR", "NOT", "CONST0", "CONST1", "u0", "u1", "v0", "v1",
               "u5", "w0", "w1", "w2", "w9", "out", "pair", "edge", "#"]
FUZZ_HEADS = ["", "SGC 1\n", "SGC 1\nn 2\nm 3\n", "SGC 1\nn 1\nm 2\n"]
FUZZ_GATES = ["AND u0 v0", "OR v0 u0", "NOT u0", "CONST0", "CONST1"]
FUZZ_OUTS = ["out pair u0", "out edge v0", "out pair w0", "out edge w0"]


class TestParserFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(FUZZ_HEADS), st.lists(st.sampled_from(FUZZ_GATES), max_size=4),
           st.lists(st.sampled_from(FUZZ_OUTS), min_size=2, max_size=3),
           st.lists(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=5).map(" ".join),
                    max_size=2),
           st.integers(0, 7))
    def test_token_documents_parse_or_raise_documented_errors(self, head, gates, outs,
                                                              soup, at):
        # a document either parses and expands to a well-formed graph or
        # fails with one of the package's documented input errors
        lines = [f"w{i} = {op}" for i, op in enumerate(gates)] + outs
        try:
            g = expand(parse_sgc(head + "\n".join(lines[:at] + soup + lines[at:])))
        except (ParseError, CapacityError, AddressError):
            return
        assert all(0 <= u < v < g.m for u, v in g.edges)


class TestEvalPair:
    def test_k3_edge(self):
        c = corpus.load("k3_n2")
        assert eval_pair(c, 0, 1) == EDGE

    def test_diagonal_is_invalid(self):
        c = corpus.load("k3_n2")
        for v in range(4):
            assert eval_pair(c, v, v) == INVALID

    def test_out_of_range_vertex_is_invalid(self):
        c = corpus.load("k3_n2")           # m=3, n=2
        assert eval_pair(c, 0, 3) == INVALID

    def test_reversed_order_is_invalid(self):
        c = corpus.load("k3_n2")
        assert eval_pair(c, 1, 0) == INVALID

    def test_outside_label_domain_raises(self):
        c = corpus.load("k3_n2")
        with pytest.raises(ValueError):
            eval_pair(c, 0, 4)

    def test_output_domain_soundness_whole_corpus(self):
        for name in corpus.available():
            c = corpus.load(name)
            size = 2 ** c.n
            for u in range(size):
                for v in range(size):
                    out = eval_pair(c, u, v)
                    assert out in (INVALID, NON_EDGE, EDGE)
                    if u >= v or u >= c.m or v >= c.m:
                        assert out == INVALID


class TestExplicitGraph:
    @pytest.mark.parametrize("edges", [
        [(0, 4)], {(-1, 2)}, [(2, 1)], [(1, 1)], [(0, 1), (1, 2), (0, 1)],
        np.array([[1, 2], [0, 1]]), np.array([[0, 1, 2]]), np.array([0, 1]),
    ], ids=["v-past-m", "negative", "u-above-v", "loop", "repeated-in-list",
            "array-out-of-order", "rows-not-pairs", "one-dimension"])
    def test_bad_edges_raise(self, edges):
        with pytest.raises(ValueError):
            ExplicitGraph(4, edges)

    def test_edges_are_one_sorted_read_only_array(self):
        pairs = [(1, 3), (0, 2), (0, 1)]
        g = ExplicitGraph(4, frozenset(pairs))
        assert g == ExplicitGraph(4, pairs) == ExplicitGraph(4, np.array(sorted(pairs)))
        assert g != ExplicitGraph(5, pairs) and g != ExplicitGraph(4, pairs[:2])
        assert g.edges.dtype == np.intp and g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert not g.edges.flags.writeable
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1
        assert Coloring((0, 1)).monochromatic_edges(g) == [(0, 2)]
        assert type(Coloring((0, 1)).monochromatic_edges(g)[0][0]) is int
        one = parse_sgc("SGC 1\nn 1\nm 1\nw0 = CONST1\nout pair w0\nout edge w0\n")
        assert expand(one).edges.shape == (0, 2)
        assert ExplicitGraph(3, set()).edges.shape == (0, 2)


class TestExpandEncode:
    def test_k3_has_three_edges(self):
        assert len(expand(corpus.load("k3_n2")).edges) == 3

    def test_edgeless(self):
        c = encode_explicit(graph(4, []), 2)
        assert expand(c) == graph(4, [])

    def test_k4_has_six_edges(self):
        assert len(expand(corpus.load("k4_n2")).edges) == 6

    def test_round_trip_k3(self):
        for n in (2, 3, 4):
            assert expand(encode_explicit(K3, n)) == K3

    def test_round_trip_random_8_vertices(self, rng):
        edges = [e for e in itertools.combinations(range(8), 2) if rng.random() < 0.4]
        g = graph(8, edges)
        assert expand(encode_explicit(g, 3)) == g

    def test_round_trip_100_random_graphs(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 17))
            n = max(1, (m - 1).bit_length())
            edges = [e for e in itertools.combinations(range(m), 2)
                     if rng.random() < 0.35]
            g = graph(m, edges)
            assert expand(encode_explicit(g, n)) == g

    def test_encode_capacity(self):
        with pytest.raises(CapacityError):
            encode_explicit(K4, 1)

    def test_expand_capacity(self):
        # expand walks the m vertices, so m is capped, whatever n
        text = "SGC 1\nn 17\nm {}\nw0 = CONST0\nout pair w0\nout edge w0\n"
        assert expand(parse_sgc(text.format(4))).m == 4
        with pytest.raises(CapacityError):
            expand(parse_sgc(text.format(2 ** 16 + 1)))

    def test_matches_row_reference_on_bundled_instances(self):
        for name in corpus.available():
            c = corpus.load(name)
            assert expand(c) == expand_reference(c), name

    # 40 bytes gives one pair per block at the largest drawn circuit
    @settings(max_examples=150, deadline=None)
    @given(circuits(), st.sampled_from([EXPAND_BLOCK_BYTES, 40, 100, 1000]))
    def test_matches_pairwise_evaluation(self, c, block_bytes):
        size = 2 ** c.n
        pairwise = [[u, v] for u in range(size) for v in range(size)
                    if eval_pair(c, u, v) == EDGE]
        with mock.patch.object(sgraph, "EXPAND_BLOCK_BYTES", block_bytes):
            g = expand(c)
        assert g.edges.tolist() == pairwise
        assert g == expand_reference(c)

    def test_block_memory_stays_under_cap(self):
        # 20,000 NOTs from u0 at n = 12: one row of the reference would hold
        # 2^12 bytes per wire, 80 MiB in all; here the 32,640 pairs run in
        # 10 blocks of at most EXPAND_BLOCK_BYTES
        n, depth, m = 12, 20_000, 256
        a = (0,) + tuple(range(2 * n, 2 * n + depth - 1))
        c = SuccinctCircuit(n, m, ("NOT",) * depth, a, (-1,) * depth,
                            2 * n + depth - 1, 2 * n + depth - 1)
        tracemalloc.start()
        try:
            g = expand(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an even chain returns u0: the edges are the pairs with u odd
        assert g.edges.tolist() == [[u, v] for u in range(1, m, 2) for v in range(u + 1, m)]
        assert peak < EXPAND_BLOCK_BYTES + 4 * 2 ** 20

    def test_edge_memory_is_the_array(self):
        # every odd-labelled pair at n = 10, 392,960 edges, is held as 16
        # bytes an edge, and the blocks and the check add a few such arrays
        c = parse_sgc("SGC 1\nn 10\nm 1024\nw0 = OR u0 v0\nout pair w0\nout edge w0\n")
        tracemalloc.start()
        try:
            g = expand(c)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        edges = len(g.edges)
        assert edges == 392_960
        assert held < 16 * edges + 2 ** 20
        assert peak < EXPAND_BLOCK_BYTES + 3 * 16 * edges

    @pytest.mark.parametrize("block_bytes", [EXPAND_BLOCK_BYTES, 200])
    def test_edge_cap(self, block_bytes):
        # K5 has 10 edges: a cap of 10 holds them, a cap of 9 raises, in one
        # block or in blocks of 4 pairs
        c = encode_explicit(graph(5, itertools.combinations(range(5), 2)), 3)
        with mock.patch.object(sgraph, "EXPAND_BLOCK_BYTES", block_bytes):
            with mock.patch.object(sgraph, "MAX_EDGES", 10):
                assert len(expand(c).edges) == 10
            with mock.patch.object(sgraph, "MAX_EDGES", 9):
                with pytest.raises(CapacityError, match="more than 9 edges"):
                    expand(c)


class TestOracle:
    def test_k3_any_bijection_works(self):
        col = brute_force_3color(K3)
        assert col is not None and col.is_valid_for(K3)
        assert sorted(col.colors) == [0, 1, 2]

    def test_k4_not_colorable(self):
        assert brute_force_3color(K4) is None

    def test_c5_colorable(self):
        col = brute_force_3color(C5)
        assert col is not None and col.is_valid_for(C5)

    def test_oracle_validity_random_graphs(self, rng):
        for _ in range(30):
            m = int(rng.integers(2, 10))
            edges = [e for e in itertools.combinations(range(m), 2)
                     if rng.random() < 0.5]
            g = graph(m, edges)
            col = brute_force_3color(g)
            if col is not None:
                assert not col.monochromatic_edges(g)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_force_3color(graph(21, []))

    def test_min_violation_on_k4(self):
        col, bad = min_violation_coloring(K4)
        assert bad == 1
        assert len(col.monochromatic_edges(K4)) == 1

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_matches_exhaustive_product_order(self, g):
        # every coloring in itertools.product order, vertex 0 most significant
        edges = g.edges.tolist()
        counts = [(sum(cols[u] == cols[v] for u, v in edges), cols)
                  for cols in itertools.product(range(3), repeat=g.m)]
        valid = next((cols for bad, cols in counts if bad == 0), None)
        fewest = min(bad for bad, _ in counts)
        first = next(cols for bad, cols in counts if bad == fewest)
        col = brute_force_3color(g)
        assert (col.colors if col is not None else None) == valid
        assert min_violation_coloring(g) == (Coloring(first), fewest)

    def test_manifest_matches_oracle(self):
        for name, entry in corpus.manifest().items():
            g = expand(corpus.load(name))
            assert entry["m"] == g.m and entry["edges"] == len(g.edges)
            col = brute_force_3color(g)
            assert entry["colorable"] == (col is not None)
            if entry["coloring"] is not None:
                assert Coloring(tuple(entry["coloring"])).is_valid_for(g)


class TestColoring:
    def test_padding_is_color_zero(self):
        col = Coloring((0, 1, 2))
        assert col.color(7) == 0
        assert list(col.extended(2)) == [0, 1, 2, 0]

    def test_color_range_checked(self):
        with pytest.raises(ValueError):
            Coloring((0, 3))
