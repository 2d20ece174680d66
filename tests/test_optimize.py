import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uvlab import corpus, optimize
from uvlab.errors import CapacityError
from uvlab.optimize import (NORM_BASIS, NORM_KEEP, NORM_RESIDUAL_TOL, build_acceptance_operator,
                            product_value, seesaw, spectral_norm)
from uvlab.provers import haar_state, honest_proof, near_coloring_proof, proof_shape
from uvlab.qma2 import acceptance_exact, consistency_accept_table, soundness_bound
from uvlab.sgraph import Coloring, encode_explicit, expand, ExplicitGraph


def dense_reference(c):
    """The dense (3 * 2^n)^2 x (3 * 2^n)^2 operator, built term by term
    from its definition; the structured form must agree with it."""
    size = 2 ** c.n
    d = 3 * size
    d2 = d * d

    accept_diag = consistency_accept_table(c).reshape(-1).astype(np.float64)
    a_cons = np.diag(accept_diag)

    swap = np.zeros((d2, d2))
    a = np.arange(d2) // d
    b = np.arange(d2) % d
    swap[b * d + a, a * d + b] = 1.0
    a_eq = 0.5 * (np.eye(d2) + swap)

    p0_color = np.full((3, 3), 1.0 / 3.0)
    p0_node = np.full((size, size), 1.0 / size)
    reject_r1 = np.kron(np.eye(size) - p0_node, p0_color)
    a_unif = np.eye(d2) - np.kron(reject_r1, np.eye(d))

    return ((a_eq + a_cons + a_unif) / 3.0).astype(np.complex128)


@pytest.fixture(scope="module")
def k4_op(k4_module):
    return build_acceptance_operator(k4_module, instance="k4_n2")


@pytest.fixture(scope="module")
def k4_module():
    return corpus.load("k4_n2")


class TestOperator:
    def test_hermitian(self, k4_op):
        m = k4_op @ np.eye(144)
        assert np.linalg.norm(m - m.conj().T, np.inf) < 1e-10

    def test_eigenvalues_in_unit_interval(self, k4_op):
        vals = np.linalg.eigvalsh(k4_op @ np.eye(144))
        assert vals[0] >= -1e-9 and vals[-1] <= 1 + 1e-9

    def test_product_states_match_exact_verdict(self, k4_module, k4_op, rng):
        for _ in range(100):
            r1 = haar_state(proof_shape(2), rng)
            r2 = haar_state(proof_shape(2), rng)
            via_op = product_value(k4_op, r1, r2)
            via_verdict = acceptance_exact(k4_module, r1, r2).p_total
            assert abs(via_op - via_verdict) < 1e-9

    def test_k3_top_eigenvalue_is_one(self, k3):
        op = build_acceptance_operator(k3, instance="k3_n2")
        assert abs(spectral_norm(op) - 1.0) < 1e-9

    def test_k4_entangled_optimum_is_one(self, k4_module, k4_op):
        """Computation refutes the separable intuition here: the 4-clique
        operator has an eigenvalue-1 eigenspace reachable only by entangled
        joint states.  Pin the fact and verify the witness is genuinely
        entangled yet accepted with certainty, while the product cheat
        stays strictly below the separable ceiling."""
        lam, vecs = np.linalg.eigh(k4_op @ np.eye(144))
        assert abs(lam[-1] - 1.0) < 1e-9
        witness = vecs[:, -1]
        d = 12
        schmidt = np.linalg.svd(witness.reshape(d, d), compute_uv=False)
        assert (schmidt > 1e-9).sum() > 1        # not a product state
        # the witness passes each test component with probability 1:
        assert abs(np.real(np.vdot(witness, k4_op @ witness)) - 1.0) < 1e-9
        cheat = near_coloring_proof(k4_module, Coloring((0, 1, 2, 0)))
        assert product_value(k4_op, cheat, cheat) <= 1 - soundness_bound(2)

    def test_capacity_cap(self):
        c = encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 7)
        with pytest.raises(CapacityError):
            build_acceptance_operator(c)


class TestSpectralNorm:
    def test_identity(self):
        assert abs(spectral_norm(np.eye(7)) - 1.0) < 1e-15

    def test_diagonal(self):
        assert abs(spectral_norm(np.diag([0.3, 0.9])) - 0.9) < 1e-15

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_seeded_start_agrees(self, k4_op):
        assert abs(spectral_norm(k4_op) - spectral_norm(k4_op, steps=10 ** 4, seed=2)) < 1e-12

    @given(st.integers(1, 60), st.sampled_from(["full", "repeated top", "rank 1", "negative"]),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    @example(50, "negative", False, 0)
    @settings(max_examples=150, deadline=None)
    def test_matches_eigvalsh(self, dim, kind, complex_, seed):
        """Real symmetric and complex Hermitian matrices of norm about 1:
        a full spectrum, a top eigenvalue of multiplicity up to 3, rank 1,
        and negative definite.  The explicit example has its top eigenvalues
        about 1e-4 apart; restarting from one Ritz vector instead of
        NORM_KEEP takes more than the default 10^4 steps on it."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * complex_ * rng.standard_normal((dim, dim))
        if not complex_:
            g = g.real
        if kind == "full":
            a = (g + g.conj().T) / (2 * np.sqrt(dim))
        elif kind == "repeated top":
            q = np.linalg.qr(g)[0]
            lam = rng.uniform(-1.0, 0.9, dim)
            lam[:rng.integers(1, 4)] = 1.0
            a = (q * lam) @ q.conj().T
        elif kind == "rank 1":
            a = np.outer(g[:, 0], g[:, 0].conj()) / dim
        else:
            a = -(g @ g.conj().T) / dim - 0.01 * np.eye(dim)
        a = (a + a.conj().T) / 2
        assert abs(spectral_norm(a) - np.linalg.eigvalsh(a)[-1]) < 1e-12

    def test_needs_more_than_one_basis(self):
        """A gap of 1/499 at the top: one basis of NORM_BASIS steps falls
        short, and restarts from the top Ritz vectors converge."""
        a = np.diag(np.linspace(0.0, 1.0, 500))
        with pytest.raises(RuntimeError, match="did not reach"):
            spectral_norm(a, steps=NORM_BASIS)
        assert abs(spectral_norm(a) - 1.0) < 1e-12

    @pytest.mark.parametrize("norm", [100, 300, 1000, 100000])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_large_norms_converge(self, norm, seed):
        """The stop scales with max(1, ||A||_inf): the rounding of one product
        grows with the norm, and an absolute 1e-13 falls below it from norms
        of a few hundred."""
        g = np.random.default_rng(seed).standard_normal((40, 40))
        a = norm * (g + g.T) / (2 * np.sqrt(40))
        err = abs(spectral_norm(a) - np.linalg.eigvalsh(a)[-1])
        bound = NORM_RESIDUAL_TOL * max(1.0, np.linalg.norm(a, np.inf))
        assert err < 1e-12 if norm == 100 else err <= bound

    def test_exit_needs_the_true_residual(self, monkeypatch):
        """With the stop below the rounding of one product, the projection's
        estimate can pass it but no Ritz vector's true residual does."""
        monkeypatch.setattr(optimize, "NORM_RESIDUAL_TOL", 1e-18)
        g = np.random.default_rng(3).standard_normal((40, 40))
        with pytest.raises(RuntimeError, match="did not reach"):
            spectral_norm((g + g.T) / (2 * np.sqrt(40)), steps=300)

    @pytest.mark.parametrize("diag, top", [([-3.0, 0.5], 0.5), ([-2.0, 0.1, 0.2], 0.2)])
    def test_eigenvalues_below_minus_one(self, diag, top):
        """The largest eigenvalue, not the one of largest modulus."""
        assert abs(spectral_norm(np.diag(diag)) - top) < 1e-15

    @pytest.mark.parametrize("size", [1, 2, 5, 40, 200])
    def test_complex_hermitian_matches_eigvalsh(self, size):
        rng = np.random.default_rng(size)
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        a = (a + a.conj().T) / 2
        assert abs(spectral_norm(a) - np.linalg.eigvalsh(a)[-1]) < 1e-12

    def test_zero_matrix(self):
        """Every start vector is an eigenvector, so the residual vanishes at once."""
        assert abs(spectral_norm(np.zeros((5, 5)))) < 1e-15

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="operator must be square"):
            spectral_norm(np.ones((2, 3)))

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((0, 0)), r"square and nonempty, got shape \(0, 0\)"),
        (np.array([[0.0, np.nan], [np.nan, 1.0]]), "finite and Hermitian"),
        (np.diag([np.inf, 1.0]), "finite and Hermitian"),
    ], ids=["empty", "nan", "inf"])
    def test_empty_or_non_finite_rejected(self, bad, message):
        """Raised before the first product: a NaN passes a Hermitian test
        alone, and an empty matrix has no largest eigenvalue."""
        with pytest.raises(ValueError, match=message):
            spectral_norm(bad)


class TestSeesaw:
    def test_monotone_trace(self, k4_op):
        res = seesaw(k4_op, restarts=5, seed=21)
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) >= -1e-10)

    def test_deterministic_under_seed(self, k4_op):
        a = seesaw(k4_op, restarts=3, seed=9)
        b = seesaw(k4_op, restarts=3, seed=9)
        assert a.value == b.value
        assert np.array_equal(a.states[0].amps, b.states[0].amps)

    def test_k3_honest_init_reaches_one(self, k3, k3_coloring):
        op = build_acceptance_operator(k3, instance="k3_n2")
        h = honest_proof(k3, k3_coloring)
        res = seesaw(op, restarts=0, seed=0, init_states=(h, h))
        assert res.value >= 1 - 1e-9

    def test_colorable_instances_reach_one(self):
        # honest-seeded seesaw and the spectral norm both hit 1
        for name in ("k3_n2", "c5_n3", "c7_n3"):
            c = corpus.load(name)
            op = build_acceptance_operator(c, instance=name)
            assert abs(spectral_norm(op) - 1.0) < 1e-9, name
            h = honest_proof(c, corpus.witness_coloring(name))
            res = seesaw(op, restarts=0, seed=0, init_states=(h, h))
            assert res.value >= 1 - 1e-9, name

    def test_k4_random_restarts_beat_cheat(self, k4_op):
        res = seesaw(k4_op, restarts=50, seed=7)
        assert res.value >= 1 - 1 / 24 - 1e-9
        assert res.value <= spectral_norm(k4_op) + 1e-9

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_no_start_rejected(self, k4_op, restarts):
        with pytest.raises(ValueError, match="restarts = .*init_states"):
            seesaw(k4_op, restarts=restarts)

    @pytest.mark.parametrize("iters", [0, -5])
    def test_iters_below_one_rejected(self, k4_op, iters):
        with pytest.raises(ValueError, match=f"iters = {iters}, .*need iters >= 1"):
            seesaw(k4_op, restarts=1, iters=iters)

    def test_stops_at_iteration_cap(self):
        # three iterations are too few to converge on k4_n3, so the run ends
        # at the cap and returns the last value of its trace
        op = build_acceptance_operator(corpus.load("k4_n3"), instance="k4_n3")
        res = seesaw(op, restarts=1, iters=3)
        assert res.iterations == 3 and len(res.trace) == 3
        assert np.all(np.diff(res.trace) >= 0.0)
        assert res.value == res.trace[-1]

    def test_value_is_reached_by_returned_states(self, k4_op):
        res = seesaw(k4_op, restarts=4, seed=13)
        assert abs(product_value(k4_op, *res.states) - res.value) < 1e-9

    def test_start_of_wrong_length_rejected(self, k4_op):
        with pytest.raises(ValueError, match=r"d = 3 \* 2\^n = 12 amplitudes.*got 11 amplitudes"):
            seesaw(k4_op, restarts=0, init_states=(np.ones(11), np.ones(12)))

    @pytest.mark.parametrize("bad", [np.zeros(12), np.full(12, np.nan)])
    def test_start_without_finite_nonzero_norm_rejected(self, k4_op, bad):
        with pytest.raises(ValueError, match="finite nonzero norm, got 12 amplitudes of norm"):
            seesaw(k4_op, restarts=0, init_states=(np.ones(12), bad))

    def test_start_is_normalized(self, k4_module, k4_op):
        cheat = near_coloring_proof(k4_module, Coloring((0, 1, 2, 0))).amps
        unit = seesaw(k4_op, restarts=0, init_states=(cheat, cheat))
        scaled = seesaw(k4_op, restarts=0, init_states=(3.0 * cheat, 0.5j * cheat))
        assert scaled.trace == unit.trace and scaled.iterations == unit.iterations
        assert unit.value >= 1 - 1 / 24       # never below the cheat's own value


K4 = ExplicitGraph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
SMALL = [name for name in corpus.available() if corpus.manifest()[name]["n"] <= 3]


class TestStructuredForm:
    @pytest.mark.parametrize("name", ["k4_n2", "c5_n3"])
    def test_matvec_matches_dense(self, name, rng):
        c = corpus.load(name)
        op = build_acceptance_operator(c, instance=name)
        m = dense_reference(c)
        d2 = m.shape[0]
        block = rng.standard_normal((d2, 4)) + 1j * rng.standard_normal((d2, 4))
        assert np.abs(op @ block - m @ block).max() < 1e-12
        assert np.abs(op @ block[:, 0] - m @ block[:, 0]).max() < 1e-12

    @pytest.mark.parametrize("name", ["k4_n2", "k4_n3", "k4_n4", "petersen_n4"])
    def test_pass_masses_match_consistency_table(self, name, rng):
        """The half-steps' masses, 1 minus the conflicting mass read from
        the conflict pairs, against the dense table's accepting mass."""
        c = corpus.load(name)
        op = build_acceptance_operator(c, instance=name)
        table = consistency_accept_table(c).astype(np.float64)
        for _ in range(20):
            p = np.abs(haar_state(proof_shape(c.n), rng).amps) ** 2
            assert np.abs(op.passes(p) - table @ p).max() <= 1e-15

    @pytest.mark.parametrize("name", SMALL)
    def test_spectral_norm_matches_dense_eigvalsh(self, name):
        c = corpus.load(name)
        lam = spectral_norm(build_acceptance_operator(c, instance=name))
        assert abs(lam - np.linalg.eigvalsh(dense_reference(c))[-1]) < 1e-12

    @pytest.mark.parametrize("name", ["k4_n2", "c5_n3"])
    def test_partial_contractions_match_dense(self, name, rng):
        """The half-steps return the top eigenpair of the partial
        contractions M1 (R2 fixed to p) and M2 (R1 fixed to p) of the dense
        operator.  The fixed proofs: Haar states; a near-coloring proof,
        whose exact zeros give deflated coordinates; a computational-basis
        state; and the honest proof.  Each half-step runs with no floor and
        from the fixed proof's own value, <p (x) p|A|p (x) p> = p^† M p,
        which both top eigenvalues reach."""
        c = corpus.load(name)
        op = build_acceptance_operator(c, instance=name)
        d = op.proof_dim
        a4 = dense_reference(c).reshape(d, d, d, d)
        g = expand(c)
        base = corpus.witness_coloring(name) or Coloring((0, 1, 2, 0))   # K4: the near cheat
        colors = list(base.colors)
        u, v = g.edges[0]
        colors[u] = colors[v]
        flawed = Coloring(tuple(colors))
        near = near_coloring_proof(c, flawed, len(flawed.monochromatic_edges(g)))
        proofs = [haar_state(proof_shape(c.n), rng).amps for _ in range(3)]
        proofs += [near.amps, np.eye(d)[d // 2 + 1], honest_proof(c, base).amps]
        for p in proofs:
            m1 = np.einsum("acbd,c,d->ab", a4, np.conj(p), p)
            m2 = np.einsum("acbd,a,b->cd", a4, np.conj(p), p)
            own = product_value(op, p, p)
            for floor in (-np.inf, own):
                for m, (vec, value) in ((m1, op.best_r1(p, floor=floor)),
                                        (m2, op.best_r2(p, floor=floor))):
                    top = np.linalg.eigvalsh(m)[-1]
                    assert own <= top + 1e-12
                    assert abs(value - top) < 1e-12
                    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
                    assert abs(np.vdot(vec, m @ vec).real - top) < 1e-12

    def test_secular_solver_matches_eigvalsh(self):
        """The top eigenpair of diag(lam) + Z Z^† for Z of rank 2 or 1, with
        repeated poles and uncoupled coordinates; in every fifth case an
        uncoupled pole lies above the root, so it is the eigenvector.  Each
        case is solved with no floor and from two valid floors, the Rayleigh
        quotient of a random unit vector and the root itself, and from one
        1e-9 above the root, as a floor that rounded high: its start must
        step back below the root, not end the bracket there."""
        rng = np.random.default_rng(5)
        for trial in range(300):
            d = int(rng.integers(2, 30))
            lam = np.round(rng.standard_normal(d), 1)
            z = 0.3 * (rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)))
            z[1:][rng.random(d - 1) < 0.4] = 0
            z[:, 1] *= trial % 3 != 0
            if trial % 5 == 0:
                lam[-1], z[-1] = 100.0, 0
            m = np.diag(lam) + z @ z.conj().T
            top = np.linalg.eigvalsh(m)[-1]
            cross = z[:, 0].conj() * z[:, 1]
            weights = np.array([np.abs(z[:, 0]) ** 2, np.abs(z[:, 1]) ** 2, cross.real, cross.imag])
            # of the cases without z1 (every third), half run as rank 1, half as rank 2 with z1 = 0
            args = ((z[:, 0], None, weights[0]) if trial % 6 == 3
                    else (z[:, 0], z[:, 1], weights))
            u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            u /= np.linalg.norm(u)
            for floor in (-np.inf, np.vdot(u, m @ u).real, top, top + 1e-9):
                t, v = optimize._top_eigpair(lam, *args, floor)
                assert abs(t - top) < 1e-12 * max(1.0, abs(top))
                assert abs(np.linalg.norm(v) - 1.0) < 1e-14
                assert abs(np.vdot(v, m @ v).real - top) < 1e-12 * max(1.0, abs(top))
                if trial % 5 == 0:
                    assert t == 100.0 and v[-1] == 1.0

    def test_secular_solver_doubly_degenerate_top(self):
        """z0 and z1 on disjoint coordinates of equal pole and mass: the top
        eigenvalue 1 is double and G(t) = mu I, so neither row of mu I - G
        gives u; any unit u is an eigenvector."""
        lam = np.array([0.0, 0.0, -0.5])
        z0, z1 = np.eye(3, dtype=np.complex128)[:2]
        weights = np.array([np.abs(z0) ** 2, np.abs(z1) ** 2, np.zeros(3), np.zeros(3)])
        t, v = optimize._top_eigpair(lam, z0, z1, weights)
        m = np.diag(lam) + np.outer(z0, z0) + np.outer(z1, z1)
        assert t == 1.0
        assert abs(np.linalg.norm(v) - 1.0) < 1e-15
        assert np.linalg.norm(m @ v - v) < 1e-15

    @pytest.mark.parametrize("name", SMALL)
    def test_converges_in_64_steps(self, name):
        """The 1e-13 residual takes 40-64 Lanczos steps at seed 0 here."""
        op = build_acceptance_operator(corpus.load(name), instance=name)
        assert abs(spectral_norm(op, steps=64) - 1.0) < 1e-12

    def test_raises_past_the_step_cap(self, k4_op):
        with pytest.raises(RuntimeError, match="did not reach residual 1e-13 in 5 steps"):
            spectral_norm(k4_op, steps=5)

    def test_basis_memory_is_capped(self):
        """At K4, n = 6 (d^2 = 36,864): the basis and the restart's Ritz
        vectors, plus the residual and the product's temporaries; 33.1 vectors
        at the peak here."""
        op = build_acceptance_operator(encode_explicit(K4, 6))
        np.random.default_rng(0).standard_normal(1)      # numpy.random loaded before tracing
        tracemalloc.start()
        try:
            lam = spectral_norm(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(lam - 1.0) < 1e-12
        assert peak < (NORM_BASIS + NORM_KEEP + 4) * op.proof_dim ** 2 * 8

    @pytest.mark.parametrize("n", [5, 6])
    def test_k4_past_the_old_cap(self, n, rng):
        """n = 5 was above the cap while the operator was dense; n = 6 took
        22 ms a seesaw iteration while each half-step was a d x d eigh."""
        c = encode_explicit(K4, n)
        op = build_acceptance_operator(c)
        for _ in range(3):
            r1 = haar_state(proof_shape(n), rng)
            r2 = haar_state(proof_shape(n), rng)
            assert abs(product_value(op, r1, r2) - acceptance_exact(c, r1, r2).p_total) < 1e-12
        lam = spectral_norm(op)
        assert abs(lam - 1.0) < 1e-9
        cheat = near_coloring_proof(c, Coloring((0, 1, 2, 0)))
        res = seesaw(op, restarts=0, init_states=(cheat, cheat))
        assert 1 - 2 / (3 * 4 ** n) <= res.value <= lam + 1e-9
