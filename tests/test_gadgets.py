import math

import numpy as np
import pytest

from uvlab.gadgets import (GadgetProgram, H_MATRIX, cascade_acceptance,
                           end_to_end_reduction, haar_unitary, magic_gadget,
                           magic_gadget_joint_branches, magic_state, rz_matrix,
                           unitary_preparing, zhzhz_decompose)
from uvlab.states import apply_gate, qubit


def op_norm(m):
    return float(np.linalg.norm(m, 2))


class TestDecomposition:
    def test_identity(self):
        z = zhzhz_decompose(np.eye(2))
        assert (z.theta, z.alpha, z.beta, z.gamma) == (0.0, 0.0, 0.0, 0.0)
        assert op_norm(z.matrix() - np.eye(2)) < 1e-12

    def test_hadamard(self):
        z = zhzhz_decompose(H_MATRIX)
        assert op_norm(z.matrix() - H_MATRIX) < 1e-9

    def test_rz_is_diagonal_case(self):
        z = zhzhz_decompose(rz_matrix(1.3))
        assert z.beta == 0.0
        assert op_norm(z.matrix() - rz_matrix(1.3)) < 1e-9

    def test_antidiagonal_case(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = zhzhz_decompose(x)
        assert abs(z.beta - math.pi) < 1e-12
        assert op_norm(z.matrix() - x) < 1e-9

    def test_200_haar_unitaries(self, rng):
        worst = 0.0
        for _ in range(200):
            u = haar_unitary(rng)
            z = zhzhz_decompose(u)
            worst = max(worst, op_norm(z.matrix() - u))
        assert worst < 1e-9

    def test_angles_in_range(self, rng):
        for _ in range(50):
            z = zhzhz_decompose(haar_unitary(rng))
            for v in (z.theta, z.alpha, z.beta, z.gamma):
                assert 0 <= v < 2 * math.pi

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            zhzhz_decompose(np.array([[1, 0], [0, 2]], dtype=complex))


class TestMagicState:
    def test_omega_zero_is_plus(self):
        assert np.allclose(magic_state(0.0).amps, apply_gate(qubit(1, 0), "H", 0).amps)

    def test_omega_pi_is_minus(self):
        assert np.allclose(magic_state(math.pi).amps,
                           [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_norm(self, rng):
        for _ in range(10):
            assert abs(magic_state(rng.uniform(0, 2 * math.pi)).norm() - 1) < 1e-12


class TestMagicGadget:
    def test_branch_probabilities_exactly_half(self, rng):
        for _ in range(100):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            target = qubit(*(z / np.linalg.norm(z)))
            omega = rng.uniform(0, 2 * math.pi)
            success, failure = magic_gadget(target, omega)
            assert success.probability == 0.5
            assert failure.probability == 0.5

    def test_success_branch_applies_rz(self, rng):
        for _ in range(50):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            target = qubit(*(z / np.linalg.norm(z)))
            omega = rng.uniform(0, 2 * math.pi)
            success, _ = magic_gadget(target, omega)
            want = rz_matrix(omega) @ target.amps
            fid = abs(np.vdot(want, success.post_state.amps)) ** 2
            assert fid >= 1 - 1e-12

    def test_zero_target_unchanged(self):
        success, _ = magic_gadget(qubit(1, 0), 2.2)
        assert abs(abs(success.post_state.amps[0]) - 1.0) < 1e-12

    def test_plus_target_quarter_turn(self):
        plus = apply_gate(qubit(1, 0), "H", 0)
        success, _ = magic_gadget(plus, math.pi / 2)
        want = rz_matrix(math.pi / 2) @ plus.amps
        assert abs(np.vdot(want, success.post_state.amps)) ** 2 > 1 - 1e-12

    def test_matches_projector_reference(self, rng):
        # project, then disentangle with CNOT: the first wire must carry the
        # same state the closed-form gadget reports, the second collapses
        for _ in range(25):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            target = qubit(*(z / np.linalg.norm(z)))
            omega = rng.uniform(0, 2 * math.pi)
            fast = magic_gadget(target, omega)
            for fast_branch, outcome in zip(fast, (1, 2)):
                ref = magic_gadget_joint_branches(target, omega)[outcome - 1]
                assert abs(ref.probability - 0.5) < 1e-12
                after = apply_gate(ref.post_state, "CNOT", (0, 1))
                t = after.tensor_view()
                wire = t[:, outcome - 1]          # second qubit is |outcome-1>
                assert np.linalg.norm(t[:, 2 - outcome]) < 1e-12
                assert abs(np.vdot(wire, fast_branch.post_state.amps)) ** 2 > 1 - 1e-12

    def test_rejects_multiqubit_target(self, k3, k3_coloring):
        from uvlab.provers import honest_proof
        with pytest.raises(ValueError, match="single qubit"):
            magic_gadget(honest_proof(k3, k3_coloring), 0.1)


class TestCascade:
    def test_t0_is_inner(self):
        for p in (0.0, 0.3, 1.0):
            assert cascade_acceptance(p, 0) == p

    def test_t3_p0(self):
        assert abs(cascade_acceptance(0.0, 3) - 7 / 8) < 1e-15

    def test_completeness_preserved(self):
        assert cascade_acceptance(1.0, 6) == 1.0

    def test_formula_grid(self):
        for t in range(7):
            for p in (0.0, 0.5, 1.0):
                want = 1 - 2.0 ** (-t) * (1 - p)
                assert abs(cascade_acceptance(p, t) - want) < 1e-9

    def test_program_t(self, rng):
        prog = GadgetProgram((zhzhz_decompose(haar_unitary(rng)),))
        assert prog.t == 3
        assert len(prog.magic_angles()) == 3
        assert abs(cascade_acceptance(0.5, prog.t)
                   - (1 - 2.0 ** (-3) * 0.5)) < 1e-12

    def test_program_json_shape(self, rng):
        prog = GadgetProgram((zhzhz_decompose(haar_unitary(rng)),))
        d = prog.to_dict()
        assert d["t"] == 3
        assert set(d["unitaries"][0]) == {"theta", "alpha", "beta", "gamma"}


class TestEndToEnd:
    def test_gap_scaling_endpoints(self):
        # inner (c, s) = (1, 1/2) at t=3 shrinks the gap to exactly 1/16
        c_out = cascade_acceptance(1.0, 3)
        s_out = cascade_acceptance(0.5, 3)
        assert c_out == 1.0
        assert abs((c_out - s_out) - 2.0 ** (-3) * 0.5) < 1e-15

    def test_gap_ratio_invariant(self):
        for t in range(1, 7):
            for c_in, s_in in [(1.0, 0.5), (0.9, 0.4), (0.7, 0.1)]:
                gap = cascade_acceptance(c_in, t) - cascade_acceptance(s_in, t)
                assert abs(gap - 2.0 ** (-t) * (c_in - s_in)) < 1e-12

    def test_honest_reduction_hits_formula(self):
        m = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
        rep = end_to_end_reduction(m)
        assert rep["t"] == 3
        assert rep["build_fidelity"] > 1 - 1e-9
        assert abs(rep["inner_acceptance"] - rep["inner_optimum"]) < 1e-9
        assert abs(rep["w_acceptance"] - rep["w_formula"]) < 1e-9

    def test_perfect_inner_accepts_always(self):
        rep = end_to_end_reduction(np.eye(2))
        assert abs(rep["w_acceptance"] - 1.0) < 1e-12

    def test_arbitrary_prover_still_formula(self, rng):
        m = np.array([[0.6, 0.1], [0.1, 0.2]], dtype=complex)
        for _ in range(20):
            u = haar_unitary(rng)
            rep = end_to_end_reduction(m, unitary=u)
            assert abs(rep["w_acceptance"] - rep["w_formula"]) < 1e-9
            assert rep["inner_acceptance"] <= rep["inner_optimum"] + 1e-9

    def test_unitary_preparing_columns(self, rng):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        u = unitary_preparing(v)
        assert np.allclose(u.conj().T @ u, np.eye(2))
        assert np.allclose(u[:, 0], v)
