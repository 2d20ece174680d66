import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uvlab import bellqma, corpus
from uvlab.errors import BudgetError, CapacityError
from uvlab.provers import (MAX_PROOFS, ProofBatch, ProverStrategy, haar_state, honest_proof,
                           near_coloring_proof, proof_shape, random_product_proofs,
                           stack_proofs)
from uvlab.qma2 import acceptance_exact, consistency_accept_table
from uvlab.sgraph import Coloring, ExplicitGraph, encode_explicit, expand
from uvlab.states import PureState, basis_state


def binom_tail_at_least(k, p, thr):
    return sum(math.comb(k, z) * p ** z * (1 - p) ** (k - z) for z in range(thr, k + 1))


def loop_dps(w):
    """The k-step Poisson-binomial loop over the (k, 3) weights: row 0
    counts b, row 1 counts b + c; the reference for the block DP."""
    rows = []
    for counted in (w[:, 1], w[:, 1] + w[:, 2]):
        f = np.zeros(len(w) + 1)
        f[0] = 1.0
        for a, b in zip(w[:, 0], counted):
            f[1:] = f[1:] * a + f[:-1] * b
            f[0] *= a
        rows.append(f)
    return np.stack(rows)


def assert_dp_close(got, want):
    """Entries of at least 2^-1022 within k * 2^-52 relative, subnormal
    ones within 2^-1022 absolute."""
    k = want.shape[1] - 1
    assert got.shape == want.shape
    normal = want >= 2.0 ** -1022
    gap = np.abs(got - want)
    assert np.all(gap[normal] <= k * 2.0 ** -52 * want[normal])
    assert np.all(gap[~normal] <= 2.0 ** -1022)


def dark_state(n=2):
    """Color row exactly orthogonal to the uniform superposition."""
    w = np.exp(2j * math.pi / 3)
    t = np.zeros((2 ** n, 3), dtype=np.complex128)
    t[0] = np.array([1.0, w, w ** 2]) / math.sqrt(3)
    return PureState(proof_shape(n), t.reshape(-1))


def grid_reference(dists, reject):
    """Exact consistency acceptance by enumerating all d^k joint outcomes:
    a tuple accepts iff no register pair shows a rejecting outcome pair.
    The Moebius sum over the conflict core must agree with it."""
    k, d = dists.shape
    joint = dists[0]
    for i in range(1, k):
        joint = np.multiply.outer(joint, dists[i])
    bad = np.zeros((d,) * k, dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            view = reject.reshape((d, d) + (1,) * (k - 2))
            bad |= np.moveaxis(view, (0, 1), (i, j))
    return float(joint[~bad].sum())


def mobius_reference(dists, reject):
    """Exact consistency by the Moebius sum over a set table re-stacked
    with ``np.vstack`` at every core outcome, with a transform pass per
    core outcome.  A new set's core sums are its parent's plus the added
    outcome's masses, and each wildcard mass is summed left to right and
    added last.  The slot table must create the same sets in the same
    order and give the same float."""
    k, live = len(dists), dists.max(axis=0) > 0.0
    core = live & (reject & live).any(axis=1)
    if not core.any():
        return 1.0
    p, wild = dists[:, core].T, np.zeros(k)
    for col in dists[:, ~core].T:
        wild += col
    conflict, m = reject[np.ix_(core, core)], int(core.sum())
    drop, free, sums = np.full((1, m), -1), np.ones((1, m), dtype=bool), np.zeros((1, k))
    for j in range(m):
        sel = np.flatnonzero(free[:, j])
        pos = np.full(len(free) + 1, -1)
        pos[sel] = np.arange(len(free), len(free) + sel.size)
        grown = pos[drop[sel]]
        grown[:, j] = sel
        room = (grown >= 0).sum(axis=1, keepdims=True) < k
        drop, free = np.vstack([drop, grown]), np.vstack([free, free[sel] & ~conflict[j] & room])
        sums = np.vstack([sums, sums[sel] + p[j]])
    mass = (sums + wild).prod(axis=1)
    for j in range(m):
        rows = np.flatnonzero(drop[:, j] >= 0)
        mass[rows] -= mass[drop[rows, j]]
    return min(1.0, max(0.0, float(mass.sum())))


def exact_parts(dists, counts, edges, size):
    """What exact consistency sizes its paths from: (m, core, src, dst,
    first, L, label, clique), first[j] True where core outcome j opens a
    new vertex, m = 0 for an empty core."""
    m, pos, src, dst = bellqma.conflict_core(dists.max(axis=0) > 0.0, edges, size)
    core = pos < m
    vertex = np.flatnonzero(core) // 3
    first = np.r_[True, vertex[1:] != vertex[:-1]][:m]
    top = min(int(counts.sum()), len(np.unique(vertex)), m - 1)
    return (m, core, src, dst, first, top, *bellqma._labels(m, src, dst))


def exact_count(dists, counts, edges, size):
    """(N, rows): the independent sets of at most L members of the core,
    counted over its components, and the rows the series lists."""
    m, core, src, dst, first, top, label, clique = exact_parts(dists, counts, edges, size)
    polys, _, rows, _ = bellqma._list_sets(first, src, dst, label, clique, top, 10 ** 12, 0)
    return bellqma._set_count(np.bincount(label, minlength=m)[clique], polys, top), rows


def mobius_path(dists, counts, edges, size):
    """The Moebius sum alone, its drop table at the exact count."""
    m, core, src, dst, first = exact_parts(dists, counts, edges, size)[:5]
    if not m:
        return 1.0
    return bellqma._mobius(dists, counts, core, first, src, dst,
                           exact_count(dists, counts, edges, size)[0])


def series_path(dists, counts, edges, size):
    """The series alone, clamped to [0, 1] as the exact path clamps it."""
    m, core, src, dst, first, top, label, clique = exact_parts(dists, counts, edges, size)
    if not m:
        return 1.0
    steps = bellqma._list_sets(first, src, dst, label, clique, top, 10 ** 12, 10 ** 12)[1]
    lam = counts[:, None] * np.hstack([dists[:, core], dists[:, ~core].sum(axis=1)[:, None]])
    return min(1.0, max(0.0, bellqma._series(lam, counts, first, label, clique, steps)))


def series_bound(dists, counts, edges, size):
    """The ``_series`` docstring's relative bound R 2^-53, R <= d C + S + 4V
    + 3s + 3k + 12G + 6, with d <= L + log2(m + 1) + 1 (at most m + 1
    factors), S the rows listed and V, s <= m."""
    m, *_, top, _, _ = exact_parts(dists, counts, edges, size)
    box = math.prod(c + 1 for c in counts.tolist())
    d = top + math.log2(m + 1) + 1
    rows = exact_count(dists, counts, edges, size)[1]
    return (d * box + rows + 7 * m + 3 * int(counts.sum()) + 12 * len(counts) + 6) * 2.0 ** -53


def mobius_error(dists, counts, edges, size):
    """The Moebius sum's absolute bound (k + 3m + 24) S 2^-53 with
    S = sum_T 2^|T| <= N 2^L signed terms."""
    m, *_, top, _, _ = exact_parts(dists, counts, edges, size)
    sets = exact_count(dists, counts, edges, size)[0] if m else 0
    return (int(counts.sum()) + 3 * m + 24) * sets * 2.0 ** (top - 53)


def mc_reference(dists, edges, size, samples, seed, batch):
    """Monte-Carlo consistency drawing register by register in batches of
    ``batch`` rows: one ``random`` uniform per register for each row still
    consistent, in row order, and a draw past a register's CDF clipped to
    its last outcome of nonzero probability.  The vertex/edge predicate is
    evaluated on register pairs: a row is rejected, and draws nothing
    more, once its new outcome and one of its outcomes so far (itself
    included, for a self-loop) show one vertex in two colors or the two
    ends of an edge in one color.  The sampler must return the same pair
    when each register is drawn on its own.  Its batch is
    min(50,000, MC_TABLE_BYTES // (8 * words)) rows for a core of ``words``
    packed words a row."""
    k, d = dists.shape
    cdfs = np.cumsum(dists, axis=1)
    last = d - 1 - np.argmax(dists[:, ::-1] > 0.0, axis=1)
    adjacent = np.zeros((size, size), dtype=bool)
    for u, v in edges:
        adjacent[u, v] = adjacent[v, u] = True
    rng = np.random.default_rng(seed)
    rejected = 0
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        seen = np.empty((0, b), dtype=np.intp)      # [register, live row]: outcomes drawn
        for i in range(k):
            out = np.searchsorted(cdfs[i], rng.random(seen.shape[1]), side="right")
            seen = np.vstack([seen, np.minimum(out, last[i])])
            vertex, color = np.divmod(seen, 3)
            bad = (((vertex == vertex[-1]) & (color != color[-1]))
                   | ((color == color[-1]) & adjacent[vertex, vertex[-1]])).any(axis=0)
            rejected += int(bad.sum())
            seen = seen[:, ~bad]
        done += b
    p_accept = 1.0 - rejected / samples
    halfwidth = math.sqrt(math.log(2.0 / (1.0 - bellqma.MC_CONFIDENCE)) / (2.0 * samples))
    return p_accept, halfwidth


def edge_rows(pairs):
    """(u, v) pairs, self-loops allowed, as the (|E|, 2) index array the
    samplers read."""
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def ones(dists):
    """One register per row of ``dists``."""
    return np.ones(len(dists), dtype=np.intp)


def outcome_dists(c, proofs):
    batch = stack_proofs(proofs, c.n)
    return np.abs(batch.per_register(batch.amps)).reshape(len(proofs), -1) ** 2


class TestUniformityDP:
    def test_honest_stats(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        a, b, c = bellqma.uniformity_stats(h)
        assert abs(a - 2 / 3) < 1e-12
        assert abs(b - 1 / 3) < 1e-12
        assert abs(c) < 1e-12

    def test_honest_matches_binomial_tail(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        for k in (6, 12, 30, 60):
            got = bellqma.uniformity_accept_exact([h] * k)
            want = binom_tail_at_least(k, 1 / 3, bellqma.z_threshold(k))
            assert abs(got - want) < 1e-10

    def test_k12_rejection_formula(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        rejection = 1 - bellqma.uniformity_accept_exact([h] * 12)
        want = (2 / 3) ** 12 + 12 * (1 / 3) * (2 / 3) ** 11
        assert abs(rejection - want) < 1e-12

    def test_all_x1_never_accepts(self):
        proofs = [dark_state()] * 10
        assert bellqma.uniformity_accept_exact(proofs) == 0.0

    def test_threshold_tie_accepts(self, k3, k3_coloring):
        # k=12: reject iff |Z| < 2, so exactly 2 must count as accepted
        h = honest_proof(k3, k3_coloring)
        dist = bellqma.z_distribution([h] * 12)
        accept = bellqma.uniformity_accept_exact([h] * 12)
        assert abs(accept - dist[2:].sum()) < 1e-12

    def test_honest_n4_at_most_one(self):
        # k3_n4 at k = 480 once reported p_unif 1 + 1.3e-13
        c = corpus.load("k3_n4")
        rep = bellqma.acceptance(c, [honest_proof(c, corpus.witness_coloring("k3_n4"))] * 480)
        assert rep.p_uniformity <= 1.0 and rep.p_total <= 1.0
        want = binom_tail_at_least(480, 1 / 3, bellqma.z_threshold(480))
        assert abs(rep.p_uniformity - want) < 1e-12

    def test_honest_mean_z_is_k_over_3(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        k = 30
        dist = bellqma.z_distribution([h] * k)
        mean = float(np.arange(k + 1) @ dist)
        assert abs(mean - k / 3) < 1e-9

    def test_two_row_pass_matches_single_dps(self, rng):
        # each row of the block pass agrees with its own k-step loop DP
        w = rng.random((50, 3)) * [1.0, 0.5, 0.5]
        assert_dp_close(bellqma._uniformity_dps(w), loop_dps(w))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_block_dp_matches_loop_dp(self, data):
        # block edges (k = B^2, B^2 + 1, prime k), dark rows (b = c = 0),
        # rows with a = 0, and weights small enough to reach subnormals
        k = data.draw(st.one_of(st.integers(1, 600), st.sampled_from(
            [1, 2, 3, 4, 5, 7, 16, 17, 97, 225, 226, 239, 241, 359, 576, 577, 599])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        w = rng.random((k, 3))
        w[:, 1:] *= data.draw(st.sampled_from([1.0, 1e-3, 1e-30, 1e-150]))
        w /= w.sum(axis=1, keepdims=True)
        w[rng.random(k) < data.draw(st.floats(0, 1)), 1:] = 0.0
        w[rng.random(k) < data.draw(st.floats(0, 0.5)), 0] = 0.0
        assert_dp_close(bellqma._uniformity_dps(w), loop_dps(w))

    def test_honest_tail_at_large_k_is_exact_binomial(self, k3, k3_coloring):
        # k = 2400 (n = 20's default k): Pr[|Z| < 400] for |Z| ~ Bin(k, 1/3)
        # is about 5.7e-76, normal, so the relative bound is a real check
        k = 2400
        rep = bellqma.acceptance(k3, ProofBatch.repeated(honest_proof(k3, k3_coloring), k))
        tail = Fraction(sum(math.comb(k, z) * 2 ** (k - z)
                            for z in range(bellqma.z_threshold(k))), 3 ** k)
        bound = Fraction(k, 2 ** 52)
        assert 0 < rep.z_tail < 1e-70
        assert abs(Fraction(rep.z_tail) - tail) <= bound * tail
        assert abs(Fraction(rep.p_uniformity) - (1 - tail)) <= bound * (1 - tail)

    def test_honest_at_proof_cap_is_a_probability(self, k3, k3_coloring):
        rep = bellqma.acceptance(
            k3, ProofBatch.repeated(honest_proof(k3, k3_coloring), MAX_PROOFS))
        assert rep.k == MAX_PROOFS
        assert 0.0 < rep.p_uniformity <= 1.0 and rep.z_tail >= 0.0

    def test_acceptance_stacks_proofs_once(self, k3, k3_coloring, monkeypatch):
        calls = []

        def counting(proofs, n=None):
            calls.append(len(proofs))
            return stack_proofs(proofs, n)

        monkeypatch.setattr(bellqma, "stack_proofs", counting)
        h = honest_proof(k3, k3_coloring)
        for mode in ("exact", "mc"):
            calls.clear()
            bellqma.acceptance(k3, [h] * 12, mode, samples=10, seed=1)
            assert calls == [12]


class TestZPrime:
    def test_honest_all_registers(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        assert bellqma.z_prime_set([h] * 7) == list(range(7))

    def test_basis_proofs_included(self):
        # |<u_3|j>|^2 = 1/3 >= 1/12 for a deterministic color j
        b = basis_state(proof_shape(2), (1, 2))
        assert bellqma.z_prime_set([b, b]) == [0, 1]

    def test_engineered_orthogonal_color_excluded(self):
        assert bellqma.z_prime_set([dark_state(), dark_state()]) == []


class TestConsistency:
    def test_honest_exact_one_any_k(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        for k in (2, 5, 240):
            assert bellqma.consistency_accept(k3, [h] * k, "exact") == 1.0

    def test_k2_matches_two_proof_grid(self, k4, rng):
        for _ in range(20):
            r1, r2 = (haar_state(proof_shape(2), rng) for _ in range(2))
            via_pair = acceptance_exact(k4, r1, r2).p_consistency
            via_bell = bellqma.consistency_accept(k4, [r1, r2], "exact")
            assert abs(via_pair - via_bell) < 1e-12

    def test_k4_cheat_matches_enumeration(self, k4):
        cheat = near_coloring_proof(k4, Coloring((0, 1, 2, 0)))
        got = bellqma.consistency_accept(k4, [cheat] * 4, "exact")
        # independent oracle: loop over all outcome tuples of 4 registers
        col = (0, 1, 2, 0)
        edges = set(map(tuple, expand(k4).edges.tolist()))
        accept = 0.0
        for vs in itertools.product(range(4), repeat=4):
            ok = True
            for i in range(4):
                for j in range(i + 1, 4):
                    vi, vj = vs[i], vs[j]
                    ci, cj = col[vi], col[vj]
                    if vi == vj and ci != cj:
                        ok = False
                    lo, hi = min(vi, vj), max(vi, vj)
                    if lo != hi and (lo, hi) in edges and ci == cj:
                        ok = False
            if ok:
                accept += (1 / 4) ** 4
        assert abs(got - accept) < 1e-12

    def test_empty_core_is_exactly_one(self, k4, rng):
        reject = ~consistency_accept_table(k4)
        empty = 0
        for _ in range(300):
            # rows drawn from a pool of three supports, so supports repeat
            pool = rng.random((3, 12)) * (rng.random((3, 12)) < 0.12)
            pool[:, 0] += 1e-3                       # no empty row
            dists = pool[rng.integers(3, size=rng.integers(2, 6))]
            dists /= dists.sum(axis=1, keepdims=True)
            live = np.flatnonzero(dists.max(axis=0) > 0)
            core = any(reject[a, b] for a in live for b in live)
            got = bellqma._consistency_exact(dists, ones(dists), expand(k4).edges, 4, 10 ** 7)
            if not core:
                empty += 1
                assert got == 1.0
            else:
                assert abs(got - grid_reference(dists, reject)) < 1e-12
        assert 0 < empty < 300

    @pytest.mark.parametrize("name, max_k", [("k4_n2", 6), ("k4_n3", 5)])
    def test_matches_grid_reference(self, name, max_k):
        c = corpus.load(name)
        reject, edges = ~consistency_accept_table(c), expand(c).edges
        cheat = near_coloring_proof(c, Coloring((0, 1, 2, 0)))
        for k in range(2, max_k + 1):
            for proofs in [[cheat] * k] + [
                    random_product_proofs(proof_shape(c.n), k, s) for s in (1, 2, 3)]:
                dists = outcome_dists(c, proofs)
                got = bellqma._consistency_exact(dists, ones(dists), edges, 2 ** c.n, 10 ** 7)
                want = mobius_reference(dists, reject)
                assert abs(got - grid_reference(dists, reject)) < 1e-12
                assert mobius_path(dists, ones(dists), edges, 2 ** c.n) == want
                series = series_path(dists, ones(dists), edges, 2 ** c.n)
                assert abs(series - want) <= (series_bound(dists, ones(dists), edges, 2 ** c.n)
                                              * want + mobius_error(dists, ones(dists), edges,
                                                                    2 ** c.n))

    def test_core_above_64_outcomes_matches_grid(self):
        # K_30 at n = 5: all 90 outcomes of the 30 vertices conflict
        c = encode_explicit(ExplicitGraph(30, frozenset(
            (u, v) for u in range(30) for v in range(u + 1, 30))), 5)
        reject = ~consistency_accept_table(c)
        dists = outcome_dists(c, random_product_proofs(proof_shape(5), 3, 4))
        dists[:, 90:] = 0.0
        dists /= dists.sum(axis=1, keepdims=True)
        got = bellqma._consistency_exact(dists, ones(dists), expand(c).edges, 2 ** 5, 10 ** 7)
        assert abs(got - grid_reference(dists, reject)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_conflict_core_matches_dense_table(self, data):
        # random graphs at n <= 5, with random drawn masks and the
        # all-outcomes mask the acceptance operator reads: the core's pairs
        # are the dense table's rejecting pairs among the drawn outcomes,
        # each once, and the core is the drawn outcomes that have one
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, min(2 ** n, 12)))
        pairs = list(itertools.combinations(range(m), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        c = encode_explicit(ExplicitGraph(m, frozenset(edges)), n)
        d = 3 * 2 ** n
        reject = ~consistency_accept_table(c)
        for drawn in (np.ones(d, dtype=bool),
                      np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))):
            sized = []
            size, pos, src, dst = bellqma.conflict_core(drawn, expand(c).edges, 2 ** n,
                                                        sized.append)
            live = np.flatnonzero(drawn)
            want = {(a, b) for a in live for b in live if reject[a, b]}
            core = np.flatnonzero(pos < size)
            assert sized == [size] and np.array_equal(pos[core], np.arange(size))
            assert np.all(pos[pos >= size] == size)
            assert set(core.tolist()) == {a for a, _ in want}
            got = list(zip(core[src].tolist(), core[dst].tolist()))
            assert len(got) == len(want) and set(got) == want

    def test_budget_error_directs_to_mc(self):
        # full support at n = 4 has about 1.2e9 independent sets
        c = corpus.load("k4_n4")
        proofs = random_product_proofs(proof_shape(4), bellqma.default_k(4), seed=2)
        with pytest.raises(BudgetError, match="Monte-Carlo"):
            bellqma.consistency_accept(c, proofs, "exact")

    def test_budget_counts_the_core_table(self):
        # full-support random proofs at n = 12 make a 12,288-outcome core;
        # its m x m table (151 MB) is refused before it is allocated
        c = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 12)
        proofs = random_product_proofs(proof_shape(12), 2, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="12288-outcome core"):
                bellqma.consistency_accept(c, proofs, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_budget_caps_table_growth(self, monkeypatch):
        # a budget one set short of all sets of k4_n3 at k = 14: a set counts
        # k + L + 1 entries (L = 8 slots), the series over 2^14 coefficients
        # does not fit, and the sets are counted exactly before any table is
        # allocated, so the refusal names them all and the peak stays below
        # the budget at 8 bytes an entry (3.3 MiB)
        c, k = corpus.load("k4_n3"), 14
        proofs = random_product_proofs(proof_shape(3), k, seed=1)
        dists = outcome_dists(c, proofs)
        m, *_, slots, _, _ = exact_parts(dists, ones(dists), expand(c).edges, 8)
        sets = exact_count(dists, ones(dists), expand(c).edges, 8)[0]
        budget = (sets - 1) * (k + slots + 1)
        monkeypatch.setattr(bellqma, "ENUMERATION_BUDGET", budget)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=f"^{sets} independent sets"):
                bellqma.consistency_accept(c, proofs, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m, slots, sets) == (24, 8, 18688)
        assert peak < 8 * budget

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_slot_table_matches_references(self, data):
        # random graphs on <= 6 vertices at the smallest width that holds
        # them, 1-3 colors in the support of each graph vertex, runs of
        # equal proofs, and k from 1 to past the core size: the slot table
        # gives the per-outcome reference's float, and the grid's value
        # within 1e-12 wherever the d^k grid has at most 10^6 tuples
        verts = data.draw(st.integers(2, 6))
        n = max(1, (verts - 1).bit_length())
        edges = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(verts), 2)))))
        c = encode_explicit(ExplicitGraph(verts, frozenset(edges)), n)
        k = data.draw(st.sampled_from(range(1, 21)))
        g = data.draw(st.integers(1, min(k, 3)))
        cuts = data.draw(st.sets(st.integers(1, max(1, k - 1)), min_size=g - 1, max_size=g - 1))
        counts = np.diff([0, *sorted(cuts), k])
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        support = np.zeros((g, 2 ** n, 3), dtype=bool)
        support[:, :verts] = rng.random((g, verts, 3)) < 0.5
        support[:, np.arange(verts), rng.integers(3, size=verts)] = True
        dists = (rng.random(support.shape) * support).reshape(g, -1)
        dists /= dists.sum(axis=1, keepdims=True)
        got = mobius_path(dists, counts, expand(c).edges, 2 ** n)
        reject, each = ~consistency_accept_table(c), np.repeat(dists, counts, axis=0)
        assert got == mobius_reference(each, reject)
        if (3 * 2 ** n) ** k <= 10 ** 6:
            assert abs(got - grid_reference(each, reject)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_series_matches_references(self, data):
        # the generator of test_slot_table_matches_references: the series
        # gives the per-outcome reference's value within the _series
        # docstring's relative bound (plus the reference's own absolute
        # bound), and the grid's within 1e-12 wherever the d^k grid has at
        # most 10^6 tuples; the exact path, whichever it takes, within both
        verts = data.draw(st.integers(2, 6))
        n = max(1, (verts - 1).bit_length())
        edges = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(verts), 2)))))
        c = encode_explicit(ExplicitGraph(verts, frozenset(edges)), n)
        k = data.draw(st.sampled_from(range(1, 21)))
        g = data.draw(st.integers(1, min(k, 3)))
        cuts = data.draw(st.sets(st.integers(1, max(1, k - 1)), min_size=g - 1, max_size=g - 1))
        counts = np.diff([0, *sorted(cuts), k])
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        support = np.zeros((g, 2 ** n, 3), dtype=bool)
        support[:, :verts] = rng.random((g, verts, 3)) < 0.5
        support[:, np.arange(verts), rng.integers(3, size=verts)] = True
        dists = (rng.random(support.shape) * support).reshape(g, -1)
        dists /= dists.sum(axis=1, keepdims=True)
        pairs, size = expand(c).edges, 2 ** n
        reject, each = ~consistency_accept_table(c), np.repeat(dists, counts, axis=0)
        want = mobius_reference(each, reject)
        slack = (series_bound(dists, counts, pairs, size) * want
                 + mobius_error(dists, counts, pairs, size))
        assert abs(series_path(dists, counts, pairs, size) - want) <= slack
        assert abs(bellqma._consistency_exact(dists, counts, pairs, size, 10 ** 7) - want) <= slack
        if (3 * 2 ** n) ** k <= 10 ** 6:
            assert abs(series_path(dists, counts, pairs, size) - grid_reference(each, reject)) < 1e-12

    @staticmethod
    def uniform_color(n):
        """K4 at width n and its uniform-color proof, every amplitude
        1/sqrt(3 2^n): each padding vertex is a clique component of the
        core, and all of them have equal rates."""
        c = encode_explicit(ExplicitGraph(4, frozenset(itertools.combinations(range(4), 2))), n)
        return c, PureState(proof_shape(n), np.full(3 * 2 ** n, 1 / math.sqrt(3 * 2 ** n)))

    @pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
    def test_equal_clique_rates_match_references(self, n, k):
        # the exact path takes the series, one factor per clique component:
        # within the _series docstring bound of the per-outcome reference,
        # within 1e-12 of the d^k grid (at most 24^4 = 331,776 tuples), and
        # at k = 2 within the bound of 1 - 2 / (3 2^n) - 4 / 4^n, the chance
        # that two draws show neither one vertex in two colors nor an edge
        # in one color (41/48 at n = 3)
        c, proof = self.uniform_color(n)
        dists, counts, pairs, size = outcome_dists(c, [proof]), np.array([k]), expand(c).edges, 2 ** n
        got = bellqma.consistency_accept(c, [proof] * k, "exact")
        assert got == series_path(dists, counts, pairs, size)
        reject, each = ~consistency_accept_table(c), np.repeat(dists, k, axis=0)
        want = mobius_reference(each, reject)
        bound = series_bound(dists, counts, pairs, size)
        assert abs(got - want) <= bound * want + mobius_error(dists, counts, pairs, size)
        assert abs(got - grid_reference(each, reject)) < 1e-12
        if k == 2:
            closed = 1 - Fraction(2, 3 * 2 ** n) - Fraction(4, 4 ** n)
            assert abs(Fraction(got) - closed) <= bound * closed

    def test_equal_clique_rates_at_n10_match_mc(self):
        # n = 10, k = 48: 1,020 clique components of equal rates, each its
        # own factor, in under 0.5 s, within 2 ci_halfwidth of 4,000-sample
        # Monte Carlo (p_cons about 0.476)
        c, proof = self.uniform_color(10)
        dists, counts, edges = outcome_dists(c, [proof]), np.array([48]), expand(c).edges
        start = time.perf_counter()
        got = bellqma._consistency_exact(dists, counts, edges, 2 ** 10, bellqma.ENUMERATION_BUDGET)
        seconds = time.perf_counter() - start
        est, hw = bellqma._consistency_monte_carlo(dists, counts, edges, 2 ** 10, 4000, 10)
        assert seconds < 0.5
        assert abs(got - est) <= 2 * hw

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_refused_iff_sets_do_not_fit(self, data):
        # random graphs on 2-8 vertices at the smallest width that holds
        # them, 1-3 colors in the support of every label, padding labels
        # included, 1-3 distinct proofs and k from 1 to 20.  Of the two
        # paths, the Moebius sum takes N (k + L + 1) entries for its N sets
        # of L slots, and the series the entries its docstring sizes from
        # the rows it lists.  The smallest budget that admits the m^2 table
        # and either path gives the value of a large budget within the
        # bounds of both paths, and one entry less is refused, by counts
        # made before building, wherever the m^2 table still fits
        verts = data.draw(st.integers(2, 8))
        n = max(1, (verts - 1).bit_length())
        edges = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(verts), 2)))))
        c = encode_explicit(ExplicitGraph(verts, frozenset(edges)), n)
        k = data.draw(st.integers(1, 20))
        g = data.draw(st.integers(1, min(k, 3)))
        cuts = data.draw(st.sets(st.integers(1, max(1, k - 1)), min_size=g - 1, max_size=g - 1))
        counts = np.diff([0, *sorted(cuts), k])
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        support = rng.random((g, 2 ** n, 3)) < 0.5
        support[:, np.arange(2 ** n), rng.integers(3, size=2 ** n)] = True
        dists = (rng.random(support.shape) * support).reshape(g, -1)
        dists /= dists.sum(axis=1, keepdims=True)
        pairs, size = expand(c).edges, 2 ** n
        m, *_, slots, label, clique = exact_parts(dists, counts, pairs, size)
        assume(m > 0)
        sets, rows = exact_count(dists, counts, pairs, size)
        box = math.prod(c + 1 for c in counts.tolist())
        q = math.prod(math.comb(c + 2, 2) for c in counts.tolist()) if g > 1 else 0
        need = (box * (rows + m + 4 * (int((np.bincount(label) > 0).sum())) + 4)
                + 2 * q + 5 * max(bellqma.PRODUCT_CHUNK, box + q))
        fits = min(sets * (k + slots + 1), need)
        want = bellqma._consistency_exact(dists, counts, pairs, size, 10 ** 9)
        got = bellqma._consistency_exact(dists, counts, pairs, size, max(m * m, fits))
        assert abs(got - want) <= (2 * series_bound(dists, counts, pairs, size) * want
                                   + 2 * mobius_error(dists, counts, pairs, size))
        if m * m <= fits - 1:
            with pytest.raises(BudgetError, match="independent sets"):
                bellqma._consistency_exact(dists, counts, pairs, size, fits - 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_count_matches_sets_built(self, data):
        # the generator of test_refused_iff_sets_do_not_fit: the count over
        # the components of the conflict pairs equals the rows the builder
        # lists in a table sized by the bound of one outcome per vertex,
        # prod_v (1 + c_v x) truncated at L, and never exceeds that bound
        verts = data.draw(st.integers(2, 8))
        n = max(1, (verts - 1).bit_length())
        edges = data.draw(st.sets(st.sampled_from(list(itertools.combinations(range(verts), 2)))))
        c = encode_explicit(ExplicitGraph(verts, frozenset(edges)), n)
        k = data.draw(st.integers(1, 20))
        g = data.draw(st.integers(1, min(k, 3)))
        cuts = data.draw(st.sets(st.integers(1, max(1, k - 1)), min_size=g - 1, max_size=g - 1))
        counts = np.diff([0, *sorted(cuts), k])
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        support = rng.random((g, 2 ** n, 3)) < 0.5
        support[:, np.arange(2 ** n), rng.integers(3, size=2 ** n)] = True
        dists = (rng.random(support.shape) * support).reshape(g, -1)
        m, core, src, dst, first, top = exact_parts(dists, counts, expand(c).edges, 2 ** n)[:6]
        assume(m > 0)
        colors = np.unique(np.flatnonzero(core) // 3, return_counts=True)[1]
        bound = bellqma._set_count(colors, [], top)
        slots, sets = bellqma._independent_sets(first, src, dst, dists[:, core].T,
                                                counts, bound)[0].shape
        assert slots == top
        assert exact_count(dists, counts, expand(c).edges, 2 ** n)[0] == sets <= bound

    @pytest.mark.parametrize("name, k, sets, mib", [("k4_n4", 14, 1211982184, 1),
                                                    ("c7_n4", 14, 1100139832, 8)])
    def test_refusal_names_the_exact_count(self, name, k, sets, mib):
        # random proofs (seed 3) that neither path fits: the series over
        # 2^14 coefficients needs its 3^14 pairs alone past the budget, and
        # the Moebius sum's sets are past it too.  k4_n4 is one 4-vertex
        # component and 12 one-vertex ones, c7_n4 one 7-vertex component
        # and 9 one-vertex ones.  The count refuses them before any set is
        # built and names every set
        c = corpus.load(name)
        proofs = random_product_proofs(proof_shape(4), k, seed=3)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(BudgetError, match=f"^{sets} independent sets .* use Monte-Carlo mode"):
                bellqma.consistency_accept(c, proofs, "exact")
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 0.05
        assert peak < mib * 2 ** 20

    def test_refusal_shortens_a_long_count(self):
        # K4 random proofs at n = 10, k = 1200 (the CLI's --seed 1 draw) have
        # a 616-digit N: the refusal names its first four digits and its
        # decimal exponent, as read from the digits, past float's range
        c = encode_explicit(ExplicitGraph(4, frozenset(itertools.combinations(range(4), 2))), 10)
        proofs = ProverStrategy("random", seed=1).states(c, 1200)
        with pytest.raises(BudgetError, match=r"^9\.215e615 independent sets .* use Monte-Carlo"
                           ) as exc:
            bellqma.consistency_accept(c, proofs, "exact")
        assert len(str(exc.value)) < 200

    def test_mc_needs_samples_and_seed(self, k4):
        proofs = random_product_proofs(proof_shape(2), 3, seed=2)
        with pytest.raises(ValueError, match="samples"):
            bellqma.consistency_accept(k4, proofs, "mc")

    @pytest.mark.parametrize("name", ["k4_n2", "k4_n3", "k4_n4"])
    @pytest.mark.parametrize("strategy", ["near", "random"])
    def test_mc_matches_reference(self, name, strategy):
        # same (estimate, halfwidth) as drawing every register: one batch
        # (1, 999 samples) and three (120,001, whose batches all stop early
        # for the cheat at k = 240 on k4_n2), k non-powers of two included
        c = corpus.load(name)
        edges = expand(c).edges
        for k in (2, 3, 5, 7, bellqma.default_k(c.n)):
            if strategy == "near":
                proofs = [near_coloring_proof(c, Coloring((0, 1, 2, 0)))] * k
            else:
                proofs = random_product_proofs(proof_shape(c.n), k, seed=k)
            dists = outcome_dists(c, proofs)
            for samples in (1, 999, 120_001):
                if (samples == 120_001 and k == bellqma.default_k(c.n)
                        and (c.n > 2 or strategy == "random")):
                    continue       # the reference alone takes 1.5-4 s there
                got = bellqma._consistency_monte_carlo(dists, ones(dists), edges, 2 ** c.n,
                                                       samples, 9)
                assert got == mc_reference(dists, edges, 2 ** c.n, samples, 9, 50_000)
                if samples == 120_001 and k in (3, 5, 7):
                    assert 0.0 < got[0] < 1.0

    def test_mc_keeps_stream_after_early_stop(self):
        # registers 0 and 1 conflict unless register 1 draws outcome 3
        # (probability 1e-5), so about 60% of the 20 batches reject every row
        # at the second checkpoint and draw nothing for registers 2-3; the
        # others keep survivors whose register 2 draw decides, and the next
        # batch draws on from where either kind stopped
        dists = np.zeros((4, 12))
        dists[0, 0] = 1.0
        dists[1, [1, 3]] = 1 - 1e-5, 1e-5
        dists[2, [6, 7]] = 0.5
        dists[3, 6] = 1.0
        got = bellqma._consistency_monte_carlo(dists, ones(dists), edge_rows([]), 4, 10 ** 6, 1)
        assert 0.0 < got[0] < 1e-5
        assert got == mc_reference(dists, [], 4, 10 ** 6, 1, 50_000)

    def test_mc_batch_follows_packed_row_width(self, monkeypatch):
        # the near cheat's core is 2 outcomes, one word a row, so 5,000
        # samples at n = 12 are one batch, and its run of 3 registers one
        # draw; a batch sized for 3 * 2^12 presence flags a row would be
        # four, of at most 1,365 rows
        k4 = ExplicitGraph(4, frozenset(itertools.combinations(range(4), 2)))
        c = encode_explicit(k4, 12)
        proofs = [near_coloring_proof(c, Coloring((0, 1, 2, 0)))] * 3
        sizes, default_rng = [], np.random.default_rng

        class Recorder:
            def __init__(self, seed):
                self.gen = default_rng(seed)

            def __getattr__(self, name):
                return getattr(self.gen, name)

            def random(self, size):
                sizes.append(size)
                return self.gen.random(size)

        monkeypatch.setattr(np.random, "default_rng", Recorder)
        p, hw = bellqma.consistency_accept(c, proofs, "mc", samples=5_000, seed=1)
        assert sizes == [5_000]
        assert abs(p - bellqma.consistency_accept(c, proofs, "exact")) <= hw

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_run_law_matches_enumeration(self, data):
        # the pattern law of a run of c registers is the sum over all d^c
        # outcome tuples, with mass below 1 and massless rows clipped to
        # the last outcome as a register's draw clips them
        d, c = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        dist = np.zeros(d)
        support = data.draw(st.lists(st.integers(0, d - 1), max_size=d, unique=True))
        if support:
            weights = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(support),
                                                  max_size=len(support))))
            dist[support] = weights / weights.sum() * data.draw(st.sampled_from([1.0, 0.999, 0.5]))
        last = d - 1 - int(np.argmax(dist[::-1] > 0.0))
        lands = dist > 0.0
        lands[last] = True
        core = np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
        cols = np.flatnonzero(lands & core)
        law = np.diff(bellqma._run_law(dist, last, cols, c), prepend=0.0)
        mass = dist.copy()
        mass[last] += 1.0 - dist.sum()
        flag = dict(zip(cols.tolist(), (1 << j for j in range(len(cols)))))
        want = np.zeros(2 ** len(cols))
        for tup in itertools.product(range(d), repeat=c):
            pattern = 0
            for o in tup:
                pattern |= flag.get(o, 0)
            want[pattern] += np.prod(mass[list(tup)])
        assert np.max(np.abs(law - want)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_mc_run_draw_matches_exact_near_cheat(self, n):
        # one run of k copies of the near cheat, drawn once per sample
        c = encode_explicit(ExplicitGraph(4, frozenset(itertools.combinations(range(4), 2))), n)
        cheat = near_coloring_proof(c, Coloring((0, 1, 2, 0)))
        for k in (2, 3, 5, 8, 16, 40):
            exact = bellqma.consistency_accept(c, [cheat] * k, "exact")
            est, hw = bellqma.consistency_accept(c, [cheat] * k, "mc", samples=20_000, seed=n + k)
            assert abs(est - exact) <= hw, (k, est, exact)

    def test_mc_mixed_runs_match_exact(self, k4):
        # single registers and runs in one batch, against the exact Moebius
        # sum: the near cheat's outcomes with a tenth of the mass on a few
        # random others, so each run's core stays under the cap
        rng = np.random.default_rng(8)
        edges = expand(k4).edges
        cheat = np.zeros(12)
        cheat[[0, 4, 8, 9]] = 0.25              # coloring (0, 1, 2, 0)
        for counts in ([1, 3, 2], [4, 1, 1, 2], [2, 2]):
            noise = rng.random((len(counts), 12)) * (rng.random((len(counts), 12)) < 0.3)
            dists = 0.9 * cheat + 0.1 * noise / noise.sum(axis=1, keepdims=True)
            assert np.count_nonzero(dists, axis=1).max() <= bellqma.RUN_CORE_CAP
            counts = np.array(counts)
            exact = bellqma._consistency_exact(dists, counts, edges, 4, 10 ** 7)
            est, hw = bellqma._consistency_monte_carlo(dists, counts, edges, 4, 40_000, 5)
            assert 0.0 < exact < 1.0 and abs(est - exact) <= hw

    def test_mc_run_past_word_zero_matches_exact(self):
        # K_30 at n = 5 makes all 90 outcomes of the 30 vertices a 2-word
        # core; the run's proof s shows outcomes 75 and 85, both in word 1,
        # between full-support registers drawn one by one
        c = encode_explicit(ExplicitGraph(30, frozenset(
            (u, v) for u in range(30) for v in range(u + 1, 30))), 5)
        edges = expand(c).edges
        s, u = np.zeros(96), np.zeros(96)
        s[[75, 85]] = 0.5
        u[:90] = 1.0 / 90
        dists = np.stack([0.8 * s + 0.2 * u, s, 0.9 * s + 0.1 * u])
        for counts, want in (([1, 3, 1], 0.819), ([2, 4, 1], 0.699), ([1, 2, 3], 0.707)):
            counts = np.array(counts)
            exact = bellqma._consistency_exact(dists, counts, edges, 32, 10 ** 7)
            est, hw = bellqma._consistency_monte_carlo(dists, counts, edges, 32, 40_000, 5)
            assert round(exact, 3) == want and abs(est - exact) <= hw, (counts, est, exact)

    def test_mc_run_past_core_cap_draws_each_register(self, k4):
        # a full-support proof has 12 core outcomes on K4 at n = 2, past
        # RUN_CORE_CAP, so its run of 5 registers keeps the register draws
        dists = outcome_dists(k4, random_product_proofs(proof_shape(2), 1, seed=3))
        edges = expand(k4).edges
        assert np.count_nonzero(dists) == 12 > bellqma.RUN_CORE_CAP
        got = bellqma._consistency_monte_carlo(dists, np.array([5]), edges, 4, 999, 2)
        assert got == mc_reference(np.repeat(dists, 5, axis=0), edges, 4, 999, 2, 50_000)

    def test_mc_draws_stay_in_support(self):
        # register 0 has all its mass, 0.5, on outcome (vertex 0, color 0);
        # a draw past its CDF must not land on (3, 2) and meet register 1's
        # (3, 0)
        dists = np.zeros((2, 12))
        dists[0, 0] = 0.5
        dists[1, 9] = 1.0
        got = bellqma._consistency_monte_carlo(dists, ones(dists), edge_rows([]), 4, 20_000, 3)
        assert got[0] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mc_matches_reference_on_random_inputs(self, data):
        # sparse registers with zero rows and mass below 1, full-support
        # ones for cores past one 64-bit word, random edges (self-loops and
        # none included), batches of 50,000 crossed
        size = data.draw(st.sampled_from([1, 2, 4, 8, 32]))
        k = data.draw(st.integers(1, 9))
        d = 3 * size
        dists = np.zeros((k, d))
        for i in range(k):
            if data.draw(st.integers(0, 4)) == 0:
                support = list(range(d))
            else:
                support = data.draw(st.lists(st.integers(0, d - 1), max_size=4, unique=True))
            weights = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(support),
                                                  max_size=len(support))))
            if support:
                mass = data.draw(st.sampled_from([1.0, 0.999, 0.5]))
                dists[i, support] = weights / weights.sum() * mass
        pairs = [(u, v) for u in range(size) for v in range(u, size)]
        edges = edge_rows(sorted(data.draw(st.sets(st.sampled_from(pairs)))))
        samples = data.draw(st.sampled_from([1, 2, 999, 50_001]))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        got = bellqma._consistency_monte_carlo(dists, ones(dists), edges, size, samples, seed)
        assert got == mc_reference(dists, edges, size, samples, seed, 50_000)

    def test_mc_honest_is_exactly_one(self, k3, k3_coloring):
        # an empty conflict core never rejects, so no draw is made
        proofs = [honest_proof(k3, k3_coloring)] * bellqma.default_k(k3.n)
        hw = math.sqrt(math.log(2.0 / (1.0 - bellqma.MC_CONFIDENCE)) / (2.0 * 10 ** 6))
        got = bellqma.consistency_accept(k3, proofs, "mc", samples=10 ** 6, seed=4)
        assert got == (1.0, hw)

    def test_mc_massless_register_lands_on_last_outcome(self):
        # register 0 has no mass, so every draw clips to outcome 11
        # (vertex 3, color 2) and meets register 1's (3, 0)
        dists = np.zeros((2, 12))
        dists[1, 9] = 1.0
        got = bellqma._consistency_monte_carlo(dists, ones(dists), edge_rows([]), 4, 1000, 2)
        assert got[0] == 0.0
        assert got == mc_reference(dists, [], 4, 1000, 2, 50_000)

    def test_mc_agrees_with_exact(self, k4):
        proofs = random_product_proofs(proof_shape(2), 4, seed=6)
        exact = bellqma.consistency_accept(k4, proofs, "exact")
        est, hw = bellqma.consistency_accept(k4, proofs, "mc",
                                             samples=40000, seed=3)
        assert abs(est - exact) <= hw


class TestAcceptance:
    def test_honest_completeness_floor(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        for k in (60, 120, 240):
            rep = bellqma.acceptance(k3, [h] * k, mode="exact")
            assert rep.p_total >= 1 - 2.0 ** (-k / 40)
            assert abs(rep.p_total - (rep.p_consistency + rep.p_uniformity) / 2) < 1e-12

    def test_basis_on_non_edge_pair(self):
        c5 = corpus.load("c5_n3")
        edges = set(map(tuple, expand(c5).edges.tolist()))
        assert (0, 2) not in edges
        p1 = basis_state(proof_shape(3), (0, 1))
        p2 = basis_state(proof_shape(3), (2, 1))
        rep = bellqma.acceptance(c5, [p1, p2], mode="exact")
        assert rep.p_consistency == 1.0
        # per-register stats a=2/3, b=(1/3)2^-n; threshold ceil(2/6)=1
        a, b = 2 / 3, (1 / 3) * 2.0 ** (-3)
        assert abs(rep.p_uniformity - (b * b + 2 * a * b)) < 1e-12

    def test_unknown_mode_rejected(self, k4):
        proofs = random_product_proofs(proof_shape(2), 3, seed=2)
        with pytest.raises(ValueError, match="mode"):
            bellqma.acceptance(k4, proofs, mode="Exact", samples=100, seed=1)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("name, kind", [
        ("k3_n2", "honest"), ("k3_n3", "honest"), ("k4_n2", "near_coloring"),
        ("k4_n3", "near_coloring"), ("k4_n2", "random"), ("k4_n3", "random")])
    def test_batch_matches_explicit_proofs(self, name, kind, mode):
        # the strategy's batch (one proof of multiplicity k, or k random
        # proofs from one draw) gives the report of k separate PureStates,
        # bit for bit: k copies of the proof, or k haar_state draws
        c = corpus.load(name)
        k = bellqma.default_k(c.n)
        if kind == "random":
            batch = ProverStrategy("random", seed=5).states(c, k)
            rng = np.random.default_rng(5)
            explicit = [haar_state(proof_shape(c.n), rng) for _ in range(k)]
        else:
            coloring = corpus.witness_coloring(name) if kind == "honest" else Coloring((0, 1, 2, 0))
            batch = ProverStrategy(kind, coloring=coloring).states(c, k)
            assert list(batch.counts) == [k]
            explicit = [PureState(batch[0].shape, batch[0].amps) for _ in range(k)]
        # k equal copies collapse to one proof, as [h] * k does
        assert len(stack_proofs(explicit).counts) == (k if kind == "random" else 1)
        got = bellqma.acceptance(c, batch, mode, samples=5000, seed=3)
        want = bellqma.acceptance(c, explicit, mode, samples=5000, seed=3)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("n", [5, 7, 11])
    def test_repeated_proof_matches_copies_at_odd_widths(self, n):
        # at odd n each outcome probability is an inexact square, so the
        # wildcard mass of 3 * 2^n - 2 outcomes depends on its summation
        # order: in the Moebius sum one row of count 7 must give the float
        # of 7 register rows.  The series over one proof of multiplicity 7
        # (8 coefficients) and over 7 proofs (2^7) agree within its bound
        c = encode_explicit(ExplicitGraph(4, frozenset(itertools.combinations(range(4), 2))), n)
        cheat = near_coloring_proof(c, Coloring((0, 1, 2, 0)))
        dists, edges = outcome_dists(c, [cheat]), expand(c).edges
        once = mobius_path(dists, np.array([7]), edges, 2 ** n)
        copies = np.repeat(dists, 7, axis=0)
        assert repr(once) == repr(mobius_path(copies, ones(copies), edges, 2 ** n))
        series = [series_path(d, w, edges, 2 ** n) for d, w in ((dists, np.array([7])),
                                                                (copies, ones(copies)))]
        assert abs(series[0] - once) <= series_bound(dists, np.array([7]), edges, 2 ** n) * once
        assert abs(series[1] - once) <= series_bound(copies, ones(copies), edges, 2 ** n) * once

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_no_proofs_rejected(self, k4, mode):
        with pytest.raises(ValueError, match="no proofs"):
            bellqma.acceptance(k4, [], mode, samples=100, seed=1)
        with pytest.raises(ValueError, match="no proofs"):
            bellqma.uniformity_accept_exact([])

    def test_mc_report_fields(self, k4):
        cheat = near_coloring_proof(k4, Coloring((0, 1, 2, 0)))
        rep = bellqma.acceptance(k4, [cheat] * 20, mode="mc", samples=5000, seed=11)
        assert rep.mode == "montecarlo"
        assert rep.samples == 5000 and rep.seed == 11
        assert rep.ci_halfwidth is not None and rep.z_tail is not None
        d = rep.to_dict()
        assert {"p_cons", "p_unif", "p_total", "mode", "k", "samples",
                "seed", "ci_halfwidth", "z_tail"} <= set(d)


def test_published_bounds():
    assert bellqma.soundness_bound(2) == 1 / (16 * 12000)
    assert bellqma.completeness_bound(240) == 1 - 2.0 ** (-6)
    with pytest.raises(ValueError):
        bellqma.soundness_bound(0)


class TestCapacity:
    @staticmethod
    def edge_instance(n):
        c = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), n)
        return c, [honest_proof(c, Coloring((0, 1)))] * bellqma.default_k(n)

    def test_honest_exact_at_n10(self):
        c, proofs = self.edge_instance(10)
        rep = bellqma.acceptance(c, proofs, mode="exact")
        assert rep.p_consistency == 1.0
        assert 1 - 2.0 ** (-len(proofs) / 40) <= rep.p_total <= 1.0

    def test_exact_above_cap_raises(self):
        # the honest proof is stored once, so n = 12 runs exactly at the
        # default k = 1440; 1440 distinct random proofs meet the proof-batch
        # cap there, before any is drawn
        c, proofs = self.edge_instance(12)
        assert bellqma.acceptance(c, proofs, mode="exact").p_consistency == 1.0
        with pytest.raises(CapacityError, match="k=1440 proofs at n=12"):
            random_product_proofs(proof_shape(12), bellqma.default_k(12), seed=1)

    def test_budget_filling_core_stays_small(self):
        # k4_n4, random proofs at k = 4: 149,122 sets of a 48-outcome core,
        # 78% of the budget at k + m entries a set, where the m-column table
        # and its float membership matrix took the peak to 101 MiB
        c = corpus.load("k4_n4")
        proofs = random_product_proofs(proof_shape(4), 4, seed=7)
        tracemalloc.start()
        try:
            got = bellqma.consistency_accept(c, proofs, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20
        # within the docstring's (k + 3m + 24) S 2^-53 of the value the
        # membership product summed by BLAS gave, S = 2,257,417 signed terms
        assert abs(got - 0.7058003156256294) <= (4 + 3 * 48 + 24) * 2_257_417 * 2.0 ** -53

    def test_full_support_reach(self):
        # full-support random proofs on the one-edge instance: at n = 5,
        # k = 3 the 96-outcome core has 138,208 independent sets, past the
        # 101,010 that k + m entries a set allowed
        c = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 5)
        proofs = random_product_proofs(proof_shape(5), 3, seed=1)
        tracemalloc.start()
        try:
            got = bellqma.consistency_accept(c, proofs, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        want = grid_reference(outcome_dists(c, proofs), ~consistency_accept_table(c))
        assert abs(got - want) < 1e-12

    def test_wide_core_refused_before_building(self):
        # full-support random proofs on one edge at n = 10, k = 11: 1,022
        # one-vertex components of three colors each and the edge's own
        # give about 5.5e30 sets, and the series over 2^11 coefficients
        # needs about 1.6e7 entries, so the core is refused before its
        # 3,072 x 3,073 table or any series is allocated (at k = 2 building
        # sets up to the cap took 0.45-0.65 s and 49.7 MiB traced; the
        # series now computes k = 2 to 10, test_newly_exact_batches_match_mc)
        c = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 10)
        proofs = random_product_proofs(proof_shape(10), 11, seed=1)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(BudgetError, match="use Monte-Carlo mode"):
                bellqma.consistency_accept(c, proofs, "exact")
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 0.1
        assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("name, k, want", [("k4_n4", 5, 0.56729), ("k4_n4", 6, 0.43638),
                                               ("edge_n10", 2, 0.99936)])
    def test_newly_exact_batches_match_mc(self, name, k, want):
        # random proofs the Moebius sum refused for their sets (k4_n4 at
        # seed 3, 1,050,814 sets at k = 5; one edge at n = 10, seed 1,
        # 4,717,054 sets at k = 2): the series computes them, within
        # 2 ci_halfwidth of a 100,000-sample Monte-Carlo run
        if name == "edge_n10":
            c, seed = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 10), 1
        else:
            c, seed = corpus.load(name), 3
        proofs = random_product_proofs(proof_shape(c.n), k, seed=seed)
        got = bellqma.acceptance(c, proofs, mode="exact")
        est = bellqma.acceptance(c, proofs, mode="mc", samples=100_000, seed=k)
        assert round(got.p_consistency, 5) == want
        assert abs(got.p_total - est.p_total) <= 2 * est.ci_halfwidth

    def test_mc_presence_table_is_bounded(self):
        # 50,000 rows of 3 * 2^10 presence bits would take 154 MB at once;
        # random proofs make a 3,072-outcome core, 48 words per row
        c, proofs = self.edge_instance(10)
        rand = random_product_proofs(proof_shape(10), 2, seed=1)
        tracemalloc.start()
        try:
            p, _ = bellqma.consistency_accept(c, proofs[:2], mode="mc", samples=50_000, seed=1)
            got = bellqma.consistency_accept(c, rand, mode="mc", samples=50_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == 1.0
        assert peak < 64 * 2 ** 20
        assert 0.0 < got[0] < 1.0
        batch = bellqma.MC_TABLE_BYTES // (8 * 48)      # 43,690 rows
        assert got == mc_reference(outcome_dists(c, rand), [(0, 1)], 2 ** 10, 50_000, 1, batch)

    def test_mc_core_table_cap_raises_before_allocating(self):
        # full support at n = 12: a 12,288-outcome core whose packed table
        # would take 12,289 * 192 * 8 bytes (18.9 MB), above 2^24.  The
        # 8,192 edges of a circulant graph add 6 pairs each to the 6
        # same-vertex pairs per vertex: 122,880 ordered pairs, whose two
        # index arrays alone take 1.9 MB, so the cap must be checked before
        # the pairs are listed
        edges = [(u, (u + step) % 4096) for step in (1, 2) for u in range(4096)]
        edges = edge_rows([(min(e), max(e)) for e in edges])
        dists = outcome_dists(encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 12),
                              random_product_proofs(proof_shape(12), 2, seed=1))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="12288-outcome core"):
                bellqma._consistency_monte_carlo(dists, ones(dists), edges, 2 ** 12, 1000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestChernoff:
    def test_exact_tail_below_published_bound(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        for k in range(12, 241, 12):
            tail = bellqma.z_tail_below_threshold([h] * k)
            assert tail <= math.exp(-k / 48)


class TestSoundnessAcrossWidths:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_k4_near_cheat_at_every_width(self, n):
        # K4 at width n, near cheat at k = 120 n: the exact core has the
        # bad edge's two outcomes at every n, so p_cons is the closed form
        # 2 q^k - (2q - 1)^k, and the rejection meets the floor with no slack
        c = encode_explicit(ExplicitGraph(4, frozenset(itertools.combinations(range(4), 2))), n)
        k = bellqma.default_k(n)
        cheat = near_coloring_proof(c, Coloring((0, 1, 2, 0)))
        rep = bellqma.acceptance(c, [cheat] * k, mode="exact")
        q = 1 - 2.0 ** (-n)
        want = 2 * q ** k - (2 * q - 1) ** k
        assert abs(rep.p_consistency - want) <= 1e-12 * want
        assert 1 - rep.p_total >= bellqma.soundness_bound(n)

    @pytest.mark.parametrize("n", range(5, 11))
    def test_k4_width_family_matches_mc(self, n):
        # K4 at width n, one full-support proof repeated 120 n times: the
        # near cheat with 1/k of its mass moved to a Haar state.  The series
        # takes it (the Moebius sum's sets are past the budget): one K4
        # component listed and 2^n - 4 one-vertex ones in closed form, against
        # Monte Carlo within 2 ci_halfwidth (4,000 samples, as one sample
        # draws every register of a 3 * 2^n-outcome core)
        c = encode_explicit(ExplicitGraph(4, frozenset(itertools.combinations(range(4), 2))), n)
        k = bellqma.default_k(n)
        near = near_coloring_proof(c, Coloring((0, 1, 2, 0)))
        amps = (math.sqrt(1 - 1 / k) * near.amps
                + math.sqrt(1 / k) * haar_state(proof_shape(n), np.random.default_rng(n)).amps)
        dists = outcome_dists(c, [PureState(near.shape, amps / np.linalg.norm(amps))])
        edges, counts = expand(c).edges, np.array([k])
        got = bellqma._consistency_exact(dists, counts, edges, 2 ** n, bellqma.ENUMERATION_BUDGET)
        est, hw = bellqma._consistency_monte_carlo(dists, counts, edges, 2 ** n, 4000, n)
        assert abs(got - est) <= 2 * hw

    def test_every_no_instance_rejects_at_floor(self):
        # rejection floor 4^-n / 12000 at k = 120 n, for each bundled
        # non-3-colorable instance; the cheat exactly at every n, random
        # proofs exactly where their conflict core fits the budget (n <= 3)
        # and by Monte Carlo at n = 4
        for name, entry in corpus.manifest().items():
            if entry["colorable"]:
                continue
            c = corpus.load(name)
            n = c.n
            k = bellqma.default_k(n)
            floor = 4.0 ** (-n) / 12000.0
            cheat = near_coloring_proof(c, Coloring((0, 1, 2, 0)))
            rep = bellqma.acceptance(c, [cheat] * k, mode="exact")
            # the cheat's consistency rejection is exactly the chance that
            # both endpoints of the bad edge {0,3} show up among k draws
            q = 1 - 2.0 ** (-n)
            exact_cons = 2 * q ** k - (2 * q - 1) ** k
            assert abs(rep.p_consistency - exact_cons) < 1e-12 * min(1.0, exact_cons)
            assert 1 - rep.p_total >= floor, name
            rand = random_product_proofs(proof_shape(n), k, seed=77)
            if n <= 3:
                rep = bellqma.acceptance(c, rand, mode="exact")
                assert 1 - rep.p_total >= floor, name
            else:
                rep = bellqma.acceptance(c, rand, mode="mc",
                                         samples=200_000, seed=32)
                assert (1 - rep.p_total) - rep.ci_halfwidth >= floor, name
