import itertools
import math
import tracemalloc

import numpy as np
import pytest

from uvlab import corpus, optimize
from uvlab.errors import CapacityError, ShapeMismatchError
from uvlab.provers import (haar_state, honest_proof, near_coloring_proof,
                           proof_shape)
from uvlab.qma2 import (VerdictReport, acceptance_exact, consistency_accept_table,
                        run_sampled, soundness_bound)
from uvlab.sgraph import Coloring, ExplicitGraph, encode_explicit, expand, parse_sgc
from uvlab.states import basis_state


def brute_force_consistency(c, r1, r2):
    """Independent oracle: plain loops over every outcome pair, predicate
    restated from scratch."""
    size = 2 ** c.n
    edges = set(map(tuple, expand(c).edges.tolist()))
    p = np.abs(r1.tensor_view()) ** 2
    q = np.abs(r2.tensor_view()) ** 2
    accept = 0.0
    for v1, c1, v2, c2 in itertools.product(range(size), range(3),
                                            range(size), range(3)):
        if v1 == v2 and c1 != c2:
            continue
        lo, hi = min(v1, v2), max(v1, v2)
        if lo != hi and (lo, hi) in edges and c1 == c2:
            continue
        accept += p[v1, c1] * q[v2, c2]
    return accept


class TestCompleteness:
    def test_exact_one_on_colorable_corpus(self):
        for name, entry in corpus.manifest().items():
            if not entry["colorable"]:
                continue
            c = corpus.load(name)
            h = honest_proof(c, corpus.witness_coloring(name))
            r = acceptance_exact(c, h, h)
            assert abs(r.p_equality - 1.0) < 1e-12
            assert abs(r.p_consistency - 1.0) < 1e-12
            assert abs(r.p_uniformity - 1.0) < 1e-12
            assert abs(r.p_total - 1.0) < 1e-12


@pytest.mark.parametrize("name", ["k4_n2", "petersen_n4"])
def test_conflict_table_matches_plain_loops(name):
    c = corpus.load(name)
    size = 2 ** c.n
    edges = set(map(tuple, expand(c).edges.tolist()))
    want = np.ones((3 * size, 3 * size), dtype=bool)
    for v1, c1, v2, c2 in itertools.product(range(size), range(3),
                                            range(size), range(3)):
        two_colors = v1 == v2 and c1 != c2
        one_color_edge = (min(v1, v2), max(v1, v2)) in edges and c1 == c2
        want[v1 * 3 + c1, v2 * 3 + c2] = not (two_colors or one_color_edge)
    assert np.array_equal(consistency_accept_table(c), want)


class TestTightnessCheat:
    def test_k4_components(self, k4):
        cheat = near_coloring_proof(k4, Coloring((0, 1, 2, 0)))
        r = acceptance_exact(k4, cheat, cheat)
        assert abs(r.p_equality - 1.0) < 1e-15
        assert abs(r.p_uniformity - 1.0) < 1e-12
        # only the two orderings of the bad pair (0,3) reject
        assert abs(r.p_consistency - (1 - 2 * 4.0 ** (-2))) < 1e-15
        assert abs(r.p_total - (1 - 1 / 24)) < 1e-15

    def test_matches_independent_enumeration(self, k4, rng):
        cheat = near_coloring_proof(k4, Coloring((0, 1, 2, 0)))
        r1 = haar_state(proof_shape(2), rng)
        for a, b in [(cheat, cheat), (r1, cheat), (r1, haar_state(proof_shape(2), rng))]:
            got = acceptance_exact(k4, a, b).p_consistency
            want = brute_force_consistency(k4, a, b)
            assert abs(got - want) < 1e-12


class TestEqualityExamples:
    def test_basis_overlap_n4(self):
        # honest amplitude is 1/4 at (0, c(0)) when n=4; the bundled K3
        # coloring gives c(0)=0, so the overlap with |0,0> is 1/4
        c = corpus.load("k3_n4")
        col = corpus.witness_coloring("k3_n4")
        assert col.color(0) == 0
        h = honest_proof(c, col)
        b = basis_state(proof_shape(4), (0, 0))
        overlap = np.vdot(b.amps, h.amps)
        assert abs(overlap - 0.25) < 1e-15
        r = acceptance_exact(c, h, b)
        assert abs(r.p_equality - 0.5 * (1 + 1 / 16)) < 1e-12

    def test_basis_overlap_n2(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        b = basis_state(proof_shape(2), (0, k3_coloring.color(0)))
        assert abs(np.vdot(b.amps, h.amps) - 0.5) < 1e-15
        r = acceptance_exact(k3, h, b)
        assert abs(r.p_equality - 0.5 * (1 + 1 / 4)) < 1e-12


class TestSampledRuns:
    def test_honest_always_accepts(self, k3, k3_coloring, rng):
        h = honest_proof(k3, k3_coloring)
        assert run_sampled(acceptance_exact(k3, h, h), 300, rng) == 300

    def test_seed_reproducible(self, k4):
        cheat = near_coloring_proof(k4, Coloring((0, 1, 2, 0)))
        report = acceptance_exact(k4, cheat, cheat)
        counts = [run_sampled(report, 1000, np.random.default_rng(4)) for _ in range(2)]
        assert counts[0] == counts[1]

    def test_k4_cheat_converges(self, k4):
        cheat = near_coloring_proof(k4, Coloring((0, 1, 2, 0)))
        n_runs = 10 ** 5
        hits = run_sampled(acceptance_exact(k4, cheat, cheat), n_runs,
                           np.random.default_rng(123))
        p = 1 - 1 / 24
        sigma = math.sqrt(p * (1 - p) / n_runs)
        assert abs(hits / n_runs - p) < 3 * sigma

    def test_branch_mixture_within_hoeffding(self):
        # equality always accepts, consistency never: only the test choice
        # and the uniformity draw vary
        n_runs = 20_000
        hits = run_sampled(VerdictReport(1.0, 0.0, 1.0, 2 / 3), n_runs,
                           np.random.default_rng(8))
        halfwidth = math.sqrt(math.log(2 / 0.01) / (2 * n_runs))
        assert abs(hits / n_runs - 2 / 3) < halfwidth


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_haar_self_pairs_stay_probabilities(n):
    c = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), n)
    rng = np.random.default_rng(n)
    for _ in range(200):
        r = haar_state(proof_shape(n), rng)
        report = acceptance_exact(c, r, r)
        assert all(0.0 <= p <= 1.0 for p in report.to_dict().values())
        assert 0 <= run_sampled(report, 100, rng) <= 100


class TestSoundness:
    def test_bound_values(self):
        assert soundness_bound(2) == 1 / (3e10 * 16)
        assert soundness_bound(1) == 1 / (3e10 * 4)
        assert soundness_bound(1) > soundness_bound(2) > soundness_bound(3)

    def test_no_instance_strategies_below_ceiling(self):
        # every non-3-colorable corpus instance with n <= 3, every tested
        # strategy family: random pairs, the near-coloring cheat, seesaw
        rng = np.random.default_rng(17)
        tested = 0
        for name, entry in corpus.manifest().items():
            if entry["colorable"] or entry["n"] > 3:
                continue
            tested += 1
            c = corpus.load(name)
            ceiling = 1 - soundness_bound(c.n)
            cheat = near_coloring_proof(c, Coloring((0, 1, 2, 0)))
            best = acceptance_exact(c, cheat, cheat).p_total
            for _ in range(100):
                a, b = (haar_state(proof_shape(c.n), rng) for _ in range(2))
                best = max(best, acceptance_exact(c, a, b).p_total)
            op = optimize.build_acceptance_operator(c)
            best = max(best, optimize.seesaw(op, restarts=10, seed=1).value)
            assert best <= ceiling, name
        assert tested == 2          # k4_n2 and k4_n3

    def test_k4_n3_near_cheat(self):
        c = corpus.load("k4_n3")
        cheat = near_coloring_proof(c, Coloring((0, 1, 2, 0)), violations=1)
        r = acceptance_exact(c, cheat, cheat)
        # same shape as n=2: only the bad pair's two orderings reject
        assert abs(r.p_total - (1 - (2 / 3) * 4.0 ** (-3))) < 1e-12
        assert r.p_total <= 1 - soundness_bound(3)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_k4_near_cheat_at_every_width(self, n):
        # K4 at width n: only the bad edge's two orderings reject, so
        # p_total = 1 - 2 / (3 4^n)
        c = encode_explicit(ExplicitGraph(4, frozenset(itertools.combinations(range(4), 2))), n)
        cheat = near_coloring_proof(c, Coloring((0, 1, 2, 0)))
        r = acceptance_exact(c, cheat, cheat)
        assert abs(r.p_total - (1 - 2 / (3 * 4.0 ** n))) <= 1e-15
        assert 1 - r.p_total >= soundness_bound(n)


class TestErrorsAndReports:
    def test_shape_mismatch(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        wrong = basis_state(proof_shape(3), (0, 0))
        with pytest.raises(ShapeMismatchError):
            acceptance_exact(k3, h, wrong)

    def test_conflict_table_refused_past_n10_before_allocating(self):
        # n = 11 would need a (3 * 2^11)^2 boolean table (37.7 MB)
        c = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 11)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="n <= 10, got n=11"):
                consistency_accept_table(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_capacity_above_n8(self):
        # n = 11 runs; m = 2^16 + 1 vertices meet the expand cap
        c = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 11)
        h = honest_proof(c, Coloring((0, 1)))
        assert acceptance_exact(c, h, h).p_consistency == 1.0
        c = parse_sgc("SGC 1\nn 17\nm 65537\nw0 = CONST0\nout pair w0\nout edge w0\n")
        h = honest_proof(c, Coloring((0, 1)))
        with pytest.raises(CapacityError, match="m=65537"):
            acceptance_exact(c, h, h)
