import math

import numpy as np
import pytest

from uvlab import provers
from uvlab.errors import AddressError, CapacityError, ShapeMismatchError
from uvlab.states import (MeasurementBranch, PureState, RegisterShape,
                          apply_gate, basis_state, computational_measure,
                          gate_matrix, inner, pure_trace_distance, qubit,
                          swap_test, tensor, uniformity_measure)


def uniform_state(m, label="r0"):
    return PureState(RegisterShape.of((m,), (label,)), np.full(m, 1 / math.sqrt(m)))


def haar(dims, rng):
    shape = RegisterShape.of(dims)
    z = rng.standard_normal(shape.total) + 1j * rng.standard_normal(shape.total)
    return PureState(shape, z / np.linalg.norm(z))


class TestShapes:
    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError, match="unique"):
            RegisterShape.of((2, 2), ("a", "a"))

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            RegisterShape.of((2 ** 23,))

    def test_norm_validation(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(RegisterShape.of((2,)), np.array([1.0, 1.0]))

    def test_index_of(self):
        shape = RegisterShape.of((4, 3), ("node", "color"))
        assert shape.index_of("color") == 1
        assert shape.index_of(0) == 0
        with pytest.raises(AddressError):
            shape.index_of("missing")


class TestTensor:
    def test_basis_case(self):
        s = tensor(qubit(1, 0), qubit(1, 0))
        assert s.amps[0] == 1.0 and np.all(s.amps[1:] == 0)

    def test_uniform_case(self):
        s = tensor(uniform_state(2), uniform_state(2))
        assert np.allclose(s.amps, 0.5)

    def test_honest_square_norm(self, k3, k3_coloring):
        h = provers.honest_proof(k3, k3_coloring)
        joint = tensor(h, h)
        assert abs(joint.norm() - 1.0) < 1e-12

    def test_label_collision_gets_primes(self):
        s = tensor(uniform_state(2, label="x"), uniform_state(3, label="x"))
        assert s.shape.labels == ("x", "x'")


class TestGates:
    def test_hadamard_on_zero(self):
        out = apply_gate(qubit(1, 0), "H", 0)
        assert np.allclose(out.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_rz_phases_one_only(self):
        out = apply_gate(qubit(0, 1), "Rz", 0, angle=0.7)
        assert np.allclose(out.amps, [0.0, np.exp(0.7j)])

    def test_rx_matrix_definition(self):
        w = 1.1
        expect = np.array([[math.cos(w / 2), -1j * math.sin(w / 2)],
                           [-1j * math.sin(w / 2), math.cos(w / 2)]])
        assert np.allclose(gate_matrix("Rx", w), expect)

    def test_cnot_truth_table(self):
        shape = RegisterShape.of((2, 2))
        for control, target, want in [(0, 0, (0, 0)), (0, 1, (0, 1)),
                                      (1, 0, (1, 1)), (1, 1, (1, 0))]:
            out = apply_gate(basis_state(shape, (control, target)), "CNOT", (0, 1))
            assert abs(out[want]) == 1.0

    def test_cswap_control_off_is_identity(self, rng):
        s = tensor(qubit(1, 0, label="ctl"), haar((3, 3), rng))
        out = apply_gate(s, "CSWAP", (0, 1, 2))
        assert np.allclose(out.amps, s.amps)

    def test_swap_exchanges_registers(self, rng):
        a, b = haar((4,), rng), haar((4,), rng)
        out = apply_gate(tensor(a, b), "SWAP", (0, 1))
        assert np.allclose(out.amps, tensor(b, a).amps)

    def test_dimension_mismatch_is_address_error(self):
        with pytest.raises(AddressError):
            apply_gate(uniform_state(3), "H", 0)
        with pytest.raises(AddressError):
            apply_gate(tensor(uniform_state(2), uniform_state(3)), "SWAP", (0, 1))

    def test_norm_preserved_on_random_states(self, rng):
        for _ in range(100):
            s = haar((2, 3, 2), rng)
            for gate, tg, ang in [("H", 0, None), ("Rx", 2, 0.3), ("Rz", 0, 2.1),
                                  ("CNOT", (0, 2), None), ("SWAP", (0, 2), None)]:
                out = apply_gate(s, gate, tg, angle=ang)
                assert abs(out.norm() - 1.0) < 1e-12


class TestUniformState:
    def test_m1_is_basis(self):
        assert np.allclose(uniform_state(1).amps, [1.0])

    def test_m3_amplitudes(self):
        assert np.allclose(uniform_state(3).amps, np.full(3, 1 / math.sqrt(3)))

    def test_overlap_with_basis(self):
        assert abs(inner(uniform_state(4), basis_state(RegisterShape.of((4,)), 0))
                   - 0.5) < 1e-15


class TestUniformityMeasure:
    def test_uniform_state_always_branch0(self):
        b0, b1 = uniformity_measure(uniform_state(3), 0)
        assert abs(b0.probability - 1.0) < 1e-12
        assert b1.probability < 1e-12 and b1.post_state is None

    def test_basis_in_dim3(self):
        b0, _ = uniformity_measure(basis_state(RegisterShape.of((3,)), 0), 0)
        assert abs(b0.probability - 1 / 3) < 1e-12

    def test_honest_color_register(self, k3, k3_coloring):
        h = provers.honest_proof(k3, k3_coloring)
        b0, _ = uniformity_measure(h, "color")
        assert abs(b0.probability - 1 / 3) < 1e-12

    def test_zero_branch_post_state_is_none(self):
        w = np.exp(2j * math.pi / 3)
        dark = PureState(RegisterShape.of((3,)),
                         np.array([1, w, w ** 2]) / math.sqrt(3))
        b0, b1 = uniformity_measure(dark, 0)
        assert b0.probability < 1e-15 and b0.post_state is None
        assert abs(b1.probability - 1.0) < 1e-12

    def test_branches_sum_to_one(self, rng):
        for _ in range(50):
            s = haar((5, 3), rng)
            b0, b1 = uniformity_measure(s, 1)
            assert abs(b0.probability + b1.probability - 1.0) < 1e-9
            for b in (b0, b1):
                if b.post_state is not None:
                    assert abs(b.post_state.norm() - 1.0) < 1e-9


class TestComputationalMeasure:
    def test_basis(self):
        (b,) = computational_measure(qubit(1, 0), 0)
        assert b.outcome == 0 and b.probability == 1.0

    def test_uniform4(self):
        branches = computational_measure(uniform_state(4), 0)
        assert len(branches) == 4
        assert all(abs(b.probability - 0.25) < 1e-12 for b in branches)

    def test_honest_k3_outcomes(self, k3, k3_coloring):
        # squared honest amplitudes: every (v, c(v)) shows up with 1/4
        h = provers.honest_proof(k3, k3_coloring)
        branches = computational_measure(h, ("node", "color"))
        got = {b.outcome: b.probability for b in branches}
        want = {(v, k3_coloring.color(v)): 0.25 for v in range(4)}
        assert set(got) == set(want)
        assert all(abs(got[o] - want[o]) < 1e-12 for o in want)

    def test_distribution_sums_to_one(self, rng):
        s = haar((4, 3), rng)
        branches = computational_measure(s, (0, 1))
        assert abs(sum(b.probability for b in branches) - 1.0) < 1e-9
        assert all(abs(b.post_state.norm() - 1.0) < 1e-9 for b in branches)

    def test_post_state_collapses_target(self, rng):
        s = haar((4, 3), rng)
        branches = computational_measure(s, 0)
        b = branches[0]
        dist = (np.abs(b.post_state.tensor_view()) ** 2).sum(axis=1)
        assert abs(dist[b.outcome] - 1.0) < 1e-9


class TestSwapTest:
    def test_equal_states(self, rng):
        a = haar((6,), rng)
        assert abs(swap_test(a, a) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        shape = RegisterShape.of((4,))
        p = swap_test(basis_state(shape, 0), basis_state(shape, 1))
        assert abs(p - 0.5) < 1e-15

    def test_zero_vs_plus(self):
        # overlap 1/sqrt(2) in the formula gives 3/4
        plus = apply_gate(qubit(1, 0), "H", 0)
        assert abs(swap_test(qubit(1, 0), plus) - 0.75) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            swap_test(uniform_state(2), uniform_state(3))

    def test_circuit_matches_closed_form(self, rng):
        for _ in range(50):
            dims = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3))))
            a, b = haar(dims, rng), haar(dims, rng)
            closed = swap_test(a, b, "closed_form")
            circ, branches = swap_test(a, b, "circuit")
            assert abs(closed - circ) < 1e-9
            assert isinstance(branches[0], MeasurementBranch)


class TestTraceDistance:
    def test_equal(self, rng):
        a = haar((5,), rng)
        assert pure_trace_distance(a, a) < 1e-7

    def test_orthogonal(self):
        shape = RegisterShape.of((3,))
        assert abs(pure_trace_distance(basis_state(shape, 0), basis_state(shape, 1))
                   - 1.0) < 1e-15

    def test_half_overlap(self):
        plus = apply_gate(qubit(1, 0), "H", 0)
        assert abs(pure_trace_distance(qubit(1, 0), plus)
                   - math.sqrt(0.5)) < 1e-12

    def test_dominates_l1(self, rng):
        for _ in range(100):
            a, b = haar((4, 3), rng), haar((4, 3), rng)
            l1 = 0.5 * np.abs(np.abs(a.amps) ** 2 - np.abs(b.amps) ** 2).sum()
            assert pure_trace_distance(a, b) >= l1 - 1e-12
