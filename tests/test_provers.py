import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvlab.bellqma import default_k
from uvlab.errors import CapacityError, ShapeMismatchError
from uvlab.provers import (MAX_BATCH_AMPLITUDES, MAX_PROOFS, ProofBatch, ProverStrategy,
                           color_branch_node_amplitudes, decompose, haar_state,
                           honest_proof, near_coloring_proof, proof_shape,
                           random_product_proofs, stack_proofs, uniformity_weights)
from uvlab.sgraph import Coloring, ExplicitGraph, encode_explicit
from uvlab.states import PureState, basis_state, uniformity_measure


class TestHonestProof:
    def test_k3_amplitudes(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        t = h.tensor_view()
        nz = np.argwhere(np.abs(t) > 0)
        assert len(nz) == 4
        for v, c in nz:
            assert c == k3_coloring.color(v)
            assert abs(t[v, c] - 0.5) < 1e-15

    def test_n1_edgeless(self):
        c = encode_explicit(ExplicitGraph(2, frozenset()), 1)
        h = honest_proof(c, Coloring((0, 1)))
        t = h.tensor_view()
        assert abs(t[0, 0] - 1 / math.sqrt(2)) < 1e-15
        assert abs(t[1, 1] - 1 / math.sqrt(2)) < 1e-15

    def test_color_marginal_uniformity(self, k3, k3_coloring):
        h = honest_proof(k3, k3_coloring)
        b0, _ = uniformity_measure(h, "color")
        assert abs(b0.probability - 1 / 3) < 1e-12


class TestNearColoring:
    def test_k4_single_bad_pair(self, k4):
        cheat = near_coloring_proof(k4, Coloring((0, 1, 2, 0)), violations=1)
        assert abs(cheat.norm() - 1) < 1e-12
        bad = Coloring((0, 1, 2, 0)).monochromatic_edges(
            ExplicitGraph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})))
        assert bad == [(0, 3)]

    def test_valid_coloring_is_rejected(self, k3, k3_coloring):
        with pytest.raises(ValueError, match="violates 0"):
            near_coloring_proof(k3, k3_coloring, violations=1)

    def test_c5_two_adjacent_equal(self):
        from uvlab import corpus
        c5 = corpus.load("c5_n3")
        col = Coloring((0, 0, 1, 0, 1))      # only edge (0,1) monochromatic
        state = near_coloring_proof(c5, col, violations=1)
        assert abs(state.norm() - 1) < 1e-12


class TestDecomposition:
    def test_honest_alpha_uniform(self, k3, k3_coloring):
        d = decompose(honest_proof(k3, k3_coloring))
        assert np.allclose(np.abs(d.alpha) ** 2, 0.25)

    def test_basis_state(self):
        s = basis_state(proof_shape(2), (1, 2))
        d = decompose(s)
        assert abs(d.alpha[1]) == 1.0 and abs(d.beta[1, 2]) == 1.0

    def test_zero_row_convention(self):
        s = basis_state(proof_shape(1), (0, 1))
        d = decompose(s)
        assert np.allclose(d.beta[1], [1, 0, 0])

    def test_random_round_trip(self, rng):
        for _ in range(50):
            s = haar_state(proof_shape(2), rng)
            d = decompose(s)
            assert np.linalg.norm(d.alpha[:, None] * d.beta - s.tensor_view()) < 1e-9

    def test_color_branch_amplitudes_satisfy_marginal_bound(self, rng):
        for _ in range(50):
            s = haar_state(proof_shape(2), rng)
            d = decompose(s)
            p, gamma = color_branch_node_amplitudes(s)
            assert np.all(np.abs(d.alpha) ** 2 >= p * np.abs(gamma) ** 2 - 1e-12)


class TestRandomProofs:
    def test_reproducible(self):
        a = random_product_proofs(proof_shape(2), 2, seed=77)
        b = random_product_proofs(proof_shape(2), 2, seed=77)
        for x, y in zip(a, b):
            assert np.array_equal(x.amps, y.amps)

    def test_count_and_norms(self):
        proofs = random_product_proofs(proof_shape(1), 3, seed=5)
        assert len(proofs) == 3
        assert all(abs(p.norm() - 1.0) < 1e-12 for p in proofs)

    def test_mean_norm_over_draws(self):
        norms = [s.norm() for s in random_product_proofs(proof_shape(1), 100, seed=9)]
        assert abs(np.mean(norms) - 1.0) < 1e-12

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 240), (3, 360), (8, 5), (12, 2),
                                      (1, 1000), (4, 360), (5, 7), (6, 1000)])
    def test_one_draw_matches_separate_draws(self, n, k):
        # the single draw consumes the stream as k separate normalized
        # complex-Gaussian vectors do, and gives their bits: the stacked row
        # norms are bitwise those of np.linalg.norm per row
        rng = np.random.default_rng(11)
        want = []
        for _ in range(k):
            z = rng.standard_normal(3 * 2 ** n) + 1j * rng.standard_normal(3 * 2 ** n)
            want.append(z / np.linalg.norm(z))
        batch = random_product_proofs(proof_shape(n), k, seed=11)
        assert batch.amps.shape == (k, 2 ** n, 3) and list(batch.counts) == [1] * k
        got = batch.per_register(batch.amps).reshape(k, -1)
        assert got.tobytes() == np.array(want).tobytes()
        rng = np.random.default_rng(11)
        last = [haar_state(proof_shape(n), rng) for _ in range(k)][-1]
        assert got[-1].tobytes() == last.amps.tobytes()


class TestStrategies:
    def test_honest_requires_valid_coloring(self, k4):
        with pytest.raises(ValueError):
            ProverStrategy("honest", coloring=Coloring((0, 1, 2, 0))).states(k4, 2)

    def test_random_strategy(self, k3):
        strat = ProverStrategy("random", seed=3)
        assert len(strat.states(k3, 4)) == 4

    def test_honest_is_one_proof_of_multiplicity_k(self, k3, k3_coloring):
        batch = ProverStrategy("honest", coloring=k3_coloring).states(k3, 5)
        h = honest_proof(k3, k3_coloring)
        assert batch.amps.shape == (1, 4, 3) and list(batch.counts) == [5]
        assert len(batch) == 5 and all(np.array_equal(s.amps, h.amps) for s in batch)
        assert np.array_equal(batch[-1].amps, h.amps)
        with pytest.raises(IndexError):
            batch[5]

    def test_unknown_kind(self, k3):
        with pytest.raises(ValueError, match="unknown strategy"):
            ProverStrategy("devious").states(k3, 2)


class TestProofBatch:
    def test_runs_of_one_object_are_stored_once(self, k3, k3_coloring, rng):
        h = honest_proof(k3, k3_coloring)
        r = haar_state(proof_shape(2), rng)
        # equal copies join a run of the same proof; a proof one ulp away
        # starts its own run
        copy = PureState(h.shape, h.amps)
        near = PureState(h.shape, h.amps * (1 + 2.0 ** -52))
        assert not np.array_equal(near.amps, h.amps)
        assert list(stack_proofs([h, copy, near, near, h]).counts) == [2, 2, 1]
        batch = stack_proofs([h, h, r, h, copy, copy, copy])
        assert list(batch.counts) == [2, 1, 4] and len(batch) == 7
        want = [h.amps, h.amps, r.amps, h.amps, h.amps, h.amps, h.amps]
        assert np.array_equal(batch.per_register(batch.amps).reshape(7, -1), want)
        assert [s.amps.tobytes() for s in batch] == [a.tobytes() for a in want]
        assert np.array_equal(batch[2].amps, r.amps)

    def test_batch_passes_through(self, k3, k3_coloring):
        batch = ProofBatch.repeated(honest_proof(k3, k3_coloring), 3)
        assert stack_proofs(batch, 2) is batch
        with pytest.raises(ShapeMismatchError):
            stack_proofs(batch, 3)

    def test_weights_once_per_distinct_proof(self, k3, k3_coloring, rng):
        h, r = honest_proof(k3, k3_coloring), haar_state(proof_shape(2), rng)
        weights = uniformity_weights(stack_proofs([h] * 3 + [r] * 2))
        want = uniformity_weights(stack_proofs([h, r]))
        assert np.array_equal(weights, want[[0, 0, 0, 1, 1]])


class TestBatchCap:
    # 342 distinct proofs at n = 14 need 342 * 3 * 2^14 > 2^24 amplitudes
    edge_n14 = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 14)

    def test_default_k_fits_through_n11(self):
        # for random proofs, which are k distinct ones
        assert default_k(11) * 3 * 2 ** 11 <= MAX_BATCH_AMPLITUDES
        assert default_k(12) * 3 * 2 ** 12 > MAX_BATCH_AMPLITUDES

    @pytest.mark.parametrize("strategy", [ProverStrategy("random", seed=1),
                                          ProverStrategy("honest", coloring=Coloring((0, 1)))])
    def test_strategy_checks_before_building(self, strategy):
        # the cap counts distinct amplitudes: 342 random proofs meet it, one
        # honest proof of multiplicity 342 does not
        if strategy.kind == "random":
            with pytest.raises(CapacityError, match="k=342 proofs at n=14"):
                strategy.states(self.edge_n14, 342)
        else:
            batch = strategy.states(self.edge_n14, 342)
            assert len(batch) == 342 and batch.amps.shape == (1, 2 ** 14, 3)
        assert len(strategy.states(self.edge_n14, 2)) == 2

    def test_stack_checks_before_allocating(self):
        # two objects alternating: 342 runs, so 342 distinct tables
        h = honest_proof(self.edge_n14, Coloring((0, 1)))
        other = honest_proof(self.edge_n14, Coloring((1, 0)))
        assert list(stack_proofs([h] * 342, 14).counts) == [342]
        with pytest.raises(CapacityError, match=str(MAX_BATCH_AMPLITUDES)):
            stack_proofs([h, other] * 171, 14)

    @pytest.mark.parametrize("build", [
        lambda h, c, col, k: ProofBatch.repeated(h, k),
        lambda h, c, col, k: ProverStrategy("honest", coloring=col).states(c, k),
        lambda h, c, col, k: ProverStrategy("random", seed=1).states(c, k),
    ], ids=["repeated", "honest", "random"])
    def test_proof_count_cap(self, build, k3, k3_coloring):
        # k = MAX_PROOFS + 1 is refused before any per-register array: the
        # peak stays below one float per register; MAX_PROOFS builds
        h = honest_proof(k3, k3_coloring)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"k={MAX_PROOFS + 1} proofs exceed"):
                build(h, k3, k3_coloring, MAX_PROOFS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * MAX_PROOFS
        assert len(build(h, k3, k3_coloring, MAX_PROOFS)) == MAX_PROOFS


def measured_weights(state):
    """Reference (a, b, c) and post-state node amplitudes from two explicit
    uniformity measurements, color register first."""
    color0, color1 = uniformity_measure(state, "color")
    if color0.post_state is None:
        return (color1.probability, 0.0, 0.0), None
    node0, node1 = uniformity_measure(color0.post_state, "node")
    gamma = color0.post_state.tensor_view().sum(axis=1) / math.sqrt(3)
    return (color1.probability, color0.probability * node0.probability,
            color0.probability * node1.probability), gamma


@st.composite
def proof_batches(draw):
    """1-3 proofs on n = 1..4 whose rows are random, zero, or dark (color row
    orthogonal to the uniform superposition), so whole registers can be dark."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    proofs = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = draw(st.lists(st.sampled_from("rzd"), min_size=2 ** n, max_size=2 ** n))
        t = rng.standard_normal((2 ** n, 3)) + 1j * rng.standard_normal((2 ** n, 3))
        for i, kind in enumerate(kinds):
            if kind == "z":
                t[i] = 0.0
            elif kind == "d":
                t[i] -= t[i].mean()
        if not np.any(t):
            t[0] = np.array([1.0, -1.0, 0.0])
        proofs.append(PureState(proof_shape(n), (t / np.linalg.norm(t)).reshape(-1)))
    return proofs


class TestUniformityWeights:
    @settings(max_examples=300, deadline=None)
    @given(proof_batches())
    def test_closed_form_matches_two_measurements(self, proofs):
        weights = uniformity_weights(stack_proofs(proofs))
        for got, state in zip(weights, proofs):
            want, gamma = measured_weights(state)
            assert np.all(np.abs(got - want) < 1e-12)
            p, node_amps = color_branch_node_amplitudes(state)
            assert abs(p - (want[1] + want[2])) < 1e-12
            if gamma is not None and p > 1e-6:
                assert np.allclose(node_amps, gamma, atol=1e-9)
