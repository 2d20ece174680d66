"""Named property and acceptance checks, shared by the CLI and the tests.

Each check runs a self-contained experiment and returns a
:class:`CheckResult` with the measured quantities; the pytest acceptance
module asserts ``passed`` while ``uvlab suite`` prints one line per check.
Random draws are seeded per check, so reruns are deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bellqma, corpus, gadgets, optimize, provers, qma2, sgraph, states


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    time_limit: float | None = None

    @property
    def in_budget(self) -> bool:
        return self.time_limit is None or self.seconds < self.time_limit

    def line(self) -> str:
        mark = "PASS" if self.passed and self.in_budget else "FAIL"
        extra = "" if self.time_limit is None else f" [{self.seconds:.2f}s/{self.time_limit:.0f}s]"
        return f"[{mark}] {self.name}: {self.detail}{extra}"

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed and self.in_budget),
                "detail": self.detail, "seconds": self.seconds,
                "time_limit": self.time_limit}


def _timed(name, limit, fn) -> CheckResult:
    t0 = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, passed, detail, time.perf_counter() - t0, limit)


def _random_shape(rng) -> states.RegisterShape:
    nreg = int(rng.integers(1, 3))
    dims = tuple(int(rng.integers(2, 6)) for _ in range(nreg))
    return states.RegisterShape.of(dims)


# ---------------------------------------------------------------------------
# lemma-flavored property checks
# ---------------------------------------------------------------------------

def check_norm_preservation() -> CheckResult:
    def run():
        trials, rng = 500, np.random.default_rng(11)
        worst = 0.0
        for _ in range(trials):
            shape = states.RegisterShape.of((2, int(rng.integers(2, 5)), 2))
            s = provers.haar_state(shape, rng)
            gate, targets, angle = [("H", 0, None), ("Rx", 0, rng.uniform(0, 2 * math.pi)),
                                    ("Rz", 2, rng.uniform(0, 2 * math.pi)),
                                    ("CNOT", (0, 2), None),
                                    ("SWAP", (0, 2), None),
                                    ][int(rng.integers(5))]
            out = states.apply_gate(s, gate, targets, angle=angle)
            worst = max(worst, abs(out.norm() - 1.0))
        return worst < 1e-12, f"max |norm-1| = {worst:.3e} over {trials} gate applications"
    return _timed("norm_preservation", None, run)


def check_swap_agreement() -> CheckResult:
    def run():
        trials, rng = 200, np.random.default_rng(12)
        worst = 0.0
        for _ in range(trials):
            shape = _random_shape(rng)
            a = provers.haar_state(shape, rng)
            b = provers.haar_state(states.RegisterShape.of(shape.dims), rng)
            closed = states.swap_test(a, b, "closed_form")
            circuit, _ = states.swap_test(a, b, "circuit")
            worst = max(worst, abs(closed - circuit))
        return worst < 1e-9, f"max |circuit-closed| = {worst:.3e} over {trials} pairs"
    return _timed("swap_test_mode_agreement", 10.0, run)


def check_trace_distance_l1() -> CheckResult:
    def run():
        trials, rng = 500, np.random.default_rng(13)
        worst = -1.0
        for _ in range(trials):
            shape = _random_shape(rng)
            a = provers.haar_state(shape, rng)
            b = provers.haar_state(states.RegisterShape.of(shape.dims), rng)
            td = states.pure_trace_distance(a, b)
            l1 = 0.5 * float(np.abs(np.abs(a.amps) ** 2 - np.abs(b.amps) ** 2).sum())
            worst = max(worst, l1 - td)
        return worst <= 1e-12, f"max (l1/2 - trace distance) = {worst:.3e} over {trials} pairs"
    return _timed("trace_distance_dominates_l1", None, run)


def check_uniform_deviation() -> CheckResult:
    """States with one squared amplitude below 1/(2m) land in the
    complement branch with probability at least 1/(16 m^2)."""
    def run():
        trials, rng = 500, np.random.default_rng(14)
        violations = 0
        margin = np.inf
        for _ in range(trials):
            m = int(rng.integers(2, 17))
            z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            z /= np.linalg.norm(z)
            small = math.sqrt(rng.uniform(0.0, 1.0 / (2 * m) * 0.999))
            k = int(rng.integers(m))
            z[k] = small * np.exp(1j * rng.uniform(0, 2 * math.pi))
            others = np.delete(np.arange(m), k)
            z[others] *= math.sqrt(max(0.0, 1 - small ** 2)) / np.linalg.norm(z[others])
            s = states.PureState(states.RegisterShape.of((m,)), z)
            if np.abs(z).min() ** 2 >= 1 / (2 * m):
                continue
            _, b1 = states.uniformity_measure(s, 0)
            floor = 1.0 / (16 * m * m)
            margin = min(margin, b1.probability - floor)
            if b1.probability < floor:
                violations += 1
        return violations == 0, f"{violations} violations, min margin {margin:.3e} over {trials} states"
    return _timed("uniform_deviation_floor", None, run)


def check_bipartite_marginal() -> CheckResult:
    """|alpha_i|^2 >= p |gamma_i|^2 relating pre- and post-measurement
    node amplitudes across the color-register uniformity branch."""
    def run():
        trials, rng = 500, np.random.default_rng(15)
        worst = np.inf
        for _ in range(trials):
            n = int(rng.integers(1, 4))
            s = provers.haar_state(provers.proof_shape(n), rng)
            d = provers.decompose(s)
            p, gamma = provers.color_branch_node_amplitudes(s)
            lhs = np.abs(d.alpha) ** 2
            rhs = p * np.abs(gamma) ** 2
            worst = min(worst, float((lhs - rhs).min()))
        return worst >= -1e-12, f"min (|alpha|^2 - p |gamma|^2) = {worst:.3e} over {trials} states"
    return _timed("bipartite_marginal_floor", None, run)


def check_equality_deviation() -> CheckResult:
    """Equality-test failure eps bounds every outcome-probability deviation
    between the two proofs by sqrt(8 eps)."""
    def run():
        trials, rng = 500, np.random.default_rng(16)
        worst = -np.inf
        for _ in range(trials):
            n = int(rng.integers(1, 3))
            shape = provers.proof_shape(n)
            a = provers.haar_state(shape, rng)
            b = provers.haar_state(provers.proof_shape(n), rng)
            eps = 1.0 - states.swap_test(a, b, "closed_form")
            dev = float(np.abs(np.abs(a.amps) ** 2 - np.abs(b.amps) ** 2).max())
            worst = max(worst, dev - math.sqrt(8 * eps))
        return worst <= 1e-12, f"max (deviation - sqrt(8 eps)) = {worst:.3e} over {trials} pairs"
    return _timed("equality_deviation_sqrt8eps", None, run)


def _perturbed_honest(n, ext, rng, node_noise, color_noise) -> states.PureState:
    """Almost-honest proof with slightly mixed colors and slightly
    non-uniform nodes; perturbation scales keep the lemma hypotheses true."""
    size = 2 ** n
    t = np.zeros((size, 3), dtype=np.complex128)
    node = 1.0 + node_noise * rng.standard_normal(size)
    node /= np.linalg.norm(node)
    for v in range(size):
        row = color_noise * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        row[ext[v]] += 1.0
        row /= np.linalg.norm(row)
        t[v] = node[v] * row
    return states.PureState(provers.proof_shape(n), t.reshape(-1))


def _hypothesis_pairs(trials, seed, uniformity=False):
    """Perturbed honest k3_n2 pairs, one seeded stream per check, kept when
    they pass equality and the same-vertex check (and, if asked, the
    uniformity test) with probability at least 1 - 1e-10 4^-n."""
    rng = np.random.default_rng(seed)
    c = corpus.load("k3_n2")
    ext = corpus.witness_coloring("k3_n2").extended(c.n)
    hypo = 1.0 - 1e-10 * 4.0 ** (-c.n)
    for _ in range(trials):
        psi, phi = (_perturbed_honest(c.n, ext, rng, 2e-7, 2e-7) for _ in range(2))
        report = qma2.acceptance_exact(c, psi, phi)
        same_vertex = qma2.same_vertex_pass(np.abs(psi.tensor_view()) ** 2,
                                            np.abs(phi.tensor_view()) ** 2)
        if (report.p_equality >= hypo and same_vertex >= hypo
                and (not uniformity or report.p_uniformity >= hypo)):
            yield c, psi


def check_well_defined_color() -> CheckResult:
    """Pairs passing equality and the same-vertex check at the hypothesis
    probability have one dominant color (|beta|^2 >= 0.9) on every vertex
    with node weight at least 2^-n / 100."""
    def run():
        checked = violations = 0
        for c, psi in _hypothesis_pairs(120, 17):
            checked += 1
            d = provers.decompose(psi)
            for v in range(2 ** c.n):
                if abs(d.alpha[v]) ** 2 >= 1e-2 * 2.0 ** (-c.n):
                    if (np.abs(d.beta[v]) ** 2).max() < 0.9:
                        violations += 1
        return violations == 0 and checked > 0, \
            f"{violations} violations over {checked} hypothesis-satisfying pairs"
    return _timed("well_defined_color", None, run)


def check_color_register_floor() -> CheckResult:
    """Same hypothesis as the well-defined-color check; the uniformity
    color branch 0 probability stays at least 0.05."""
    def run():
        checked = 0
        worst = np.inf
        for _c, psi in _hypothesis_pairs(120, 18):
            checked += 1
            b0, _ = states.uniformity_measure(psi, "color")
            worst = min(worst, b0.probability)
        return worst >= 0.05 and checked > 0, \
            f"min color-branch-0 probability {worst:.4f} over {checked} pairs (floor 0.05)"
    return _timed("color_register_floor", None, run)


def check_all_nodes_present() -> CheckResult:
    """Adding the uniformity test to the hypothesis forces every node
    weight to at least 2^-n / 100."""
    def run():
        checked = 0
        worst = np.inf
        for c, psi in _hypothesis_pairs(120, 19, uniformity=True):
            checked += 1
            d = provers.decompose(psi)
            floor = 1e-2 * 2.0 ** (-c.n)
            worst = min(worst, float((np.abs(d.alpha) ** 2).min()) - floor)
        return worst >= 0 and checked > 0, \
            f"min (|alpha|^2 - 2^-n/100) = {worst:.3e} over {checked} pairs"
    return _timed("all_nodes_present", None, run)


def check_chernoff_tail() -> CheckResult:
    """Exact Pr[|Z| < k/6] for honest proofs beats e^{-k/48} for every
    k in 12, 24, ..., 240."""
    def run():
        c = corpus.load("k3_n2")
        coloring = corpus.witness_coloring("k3_n2")
        honest = provers.honest_proof(c, coloring)
        worst = -np.inf
        for k in range(12, 241, 12):
            tail = bellqma.z_tail_below_threshold([honest] * k)
            worst = max(worst, tail - math.exp(-k / 48))
        return worst <= 0, f"max (exact tail - e^(-k/48)) = {worst:.3e} for k=12..240"
    return _timed("bellqma_chernoff_tail", 5.0, run)


def check_zprime_occupancy() -> CheckResult:
    """Adversarial fixtures with |Z'| <= k/6 show uniformity rejection at
    least the pinned constant 0.4 (measured on these fixtures; the abstract
    statement promises only some positive constant)."""
    def run():
        k = 24
        n = 1
        shape = provers.proof_shape(n)
        omega = np.exp(2j * math.pi / 3)
        # color row orthogonal to u_3: Pr[x=0] = 0, register never in Z'
        dark = np.zeros((2 ** n, 3), dtype=np.complex128)
        dark[0] = np.array([1.0, omega, omega ** 2]) / math.sqrt(3)
        dark_state = states.PureState(shape, dark.reshape(-1))
        # bright registers sit exactly at the 1/12 membership threshold
        worst = np.inf
        for nbright in (0, k // 6):
            bright = []
            for _ in range(nbright):
                b = np.zeros((2 ** n, 3), dtype=np.complex128)
                b[0] = _color_row_with_p0(1.0 / 12.0 + 1e-6)
                bright.append(states.PureState(shape, b.reshape(-1)))
            proofs = bright + [dark_state] * (k - nbright)
            if len(bellqma.z_prime_set(proofs)) > k / 6:
                return False, "fixture construction failed the |Z'| <= k/6 premise"
            worst = min(worst, bellqma.z_tail_below_threshold(proofs))
        return worst >= 0.4, f"min |Z|<k/6 rejection {worst:.4f} on |Z'|<=k/6 fixtures (pin 0.4)"
    return _timed("bellqma_zprime_occupancy", None, run)


def _color_row_with_p0(p0: float) -> np.ndarray:
    """Unit color row whose uniform-projector weight is exactly p0."""
    omega = np.exp(2j * math.pi / 3)
    u = np.full(3, 1 / math.sqrt(3), dtype=np.complex128)
    orth = np.array([1.0, omega, omega ** 2], dtype=np.complex128) / math.sqrt(3)
    return math.sqrt(p0) * u + math.sqrt(1 - p0) * orth


def check_amplitude_floor() -> CheckResult:
    """Fixtures whose uniformity rejection stays below 4^-n / 200 keep
    every node amplitude above 1/(24 * 2^n) on Z' registers.

    The proof count must be large enough for the |Z| < k/6 tail to clear
    the hypothesis (k = 120 n does; small k cannot, since the honest tail
    alone is percent-level there).
    """
    def run():
        trials, rng = 25, np.random.default_rng(22)
        n = 1
        k = bellqma.default_k(n)
        ext = (0, 1)
        checked = 0
        worst = np.inf
        for _ in range(trials):
            proofs = [_perturbed_honest(n, ext, rng, 1e-7, 1e-7) for _ in range(k)]
            rejection = 1.0 - bellqma.uniformity_accept_exact(proofs)
            if rejection > 4.0 ** (-n) / 200.0:
                continue
            checked += 1
            floor = 1.0 / (24 * 2 ** n)
            for i in bellqma.z_prime_set(proofs):
                d = provers.decompose(proofs[i])
                worst = min(worst, float((np.abs(d.alpha) ** 2).min()) - floor)
        return worst > 0 and checked > 0, \
            f"min (|alpha|^2 - 1/(24*2^n)) = {worst:.3e} over {checked} fixtures (k={k})"
    return _timed("bellqma_amplitude_floor", None, run)


def check_mc_exact_agreement() -> CheckResult:
    """Monte-Carlo consistency estimates stay within their half-width of
    the exact value on small instances."""
    def run():
        fixtures, rng = 50, np.random.default_rng(23)
        c = corpus.load("k4_n2")
        worst = -np.inf
        for i in range(fixtures):
            k = int(rng.integers(2, 5))
            proofs = provers.random_product_proofs(provers.proof_shape(c.n), k,
                                                   int(rng.integers(2 ** 31)))
            exact = bellqma.consistency_accept(c, proofs, "exact")
            est, hw = bellqma.consistency_accept(c, proofs, "mc", samples=20000,
                                                 seed=1000 + i)
            worst = max(worst, abs(est - exact) - hw)
        return worst <= 0, f"max (|mc - exact| - halfwidth) = {worst:.3e} over {fixtures} fixtures"
    return _timed("bellqma_mc_exact_agreement", None, run)


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------

def acceptance_1_completeness() -> CheckResult:
    """Exact two-proof acceptance 1 on oracle-colored 3-colorable instances."""
    def run():
        worst = 0.0
        for name in ("k3_n2", "k3_n3", "c5_n3"):
            c = corpus.load(name)
            g = sgraph.expand(c)
            coloring = sgraph.brute_force_3color(g)
            if coloring is None or not coloring.is_valid_for(g):
                return False, f"oracle failed to color {name}"
            honest = provers.honest_proof(c, coloring)
            report = qma2.acceptance_exact(c, honest, honest)
            worst = max(worst, abs(report.p_total - 1.0))
        return worst <= 1e-12, f"max |p_total - 1| = {worst:.3e} on k3_n2, k3_n3, c5_n3"
    return _timed("criterion_1_completeness_two_proof", 1.0, run)


def _k4_cheat_expected() -> float:
    """Independent enumeration of the flawed-coloring acceptance on the
    4-clique at n=2: plain loops over all outcome pairs, adjacency written
    out by hand, uniform node amplitudes from the honest form."""
    col = (0, 1, 2, 0)
    edges = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    p_cons = 0.0
    for v1 in range(4):
        for v2 in range(4):
            pr = (1 / 4) * (1 / 4)
            c1, c2 = col[v1], col[v2]
            if v1 == v2 and c1 != c2:
                continue
            lo, hi = min(v1, v2), max(v1, v2)
            if lo != hi and (lo, hi) in edges and c1 == c2:
                continue
            p_cons += pr
    return (1.0 + p_cons + 1.0) / 3.0


def acceptance_2_tightness() -> CheckResult:
    def run():
        expected = _k4_cheat_expected()
        if abs(expected - (1.0 - 1.0 / 24.0)) > 1e-15:
            return False, f"independent enumeration gives {expected!r}, not 1 - 1/24"
        c = corpus.load("k4_n2")
        cheat = provers.near_coloring_proof(c, sgraph.Coloring((0, 1, 2, 0)), violations=1)
        report = qma2.acceptance_exact(c, cheat, cheat)
        err = abs(report.p_total - expected)
        return err <= 1e-12, f"|p_total - (1 - 1/24)| = {err:.3e}"
    return _timed("criterion_2_tightness_near_coloring", 1.0, run)


def acceptance_3_soundness_envelope() -> CheckResult:
    """The best product strategy found sits between the near-coloring
    cheat floor and ``min(lambda, 1 - soundness_bound(n))``.

    The strategies tried are product pairs only: the near-coloring cheat,
    1000 Haar pairs and a 50-restart seesaw.  Their best acceptance must
    reach the cheat's 1 - 1/24, stay under the operator's top eigenvalue
    lambda, and stay under the separable ceiling 1 - 1/(3 * 10^10 * 4^n).
    The ceiling is the paper's soundness claim, which covers unentangled
    proof pairs only.  Lambda is the entangled optimum and is exactly 1 on
    the 4-clique: its eigenvalue-1 eigenspace holds no product state, so
    lambda is reported, with its gap to the ceiling, but not held to it.

    Without an SDP solver the separable maximum itself is not certified:
    the ceiling is checked against the best product pair found.
    """
    def run():
        c = corpus.load("k4_n2")
        shape = provers.proof_shape(c.n)
        cheat = provers.near_coloring_proof(c, sgraph.Coloring((0, 1, 2, 0)), violations=1)
        best = qma2.acceptance_exact(c, cheat, cheat).p_total
        rng = np.random.default_rng(3)
        for _ in range(1000):
            r1 = provers.haar_state(shape, rng)
            r2 = provers.haar_state(shape, rng)
            best = max(best, qma2.acceptance_exact(c, r1, r2).p_total)
        op = optimize.build_acceptance_operator(c, instance="k4_n2")
        see = optimize.seesaw(op, restarts=50, seed=7)
        best = max(best, see.value)
        lam = optimize.spectral_norm(op)
        ceiling = 1.0 - qma2.soundness_bound(c.n)
        link1 = best >= 1.0 - 1.0 / 24.0 - 1e-12
        link2 = best <= lam + 1e-9
        link3 = best <= ceiling
        detail = (f"max product acceptance {best:.12f}, spectral norm {lam:.12f}, "
                  f"ceiling {ceiling:.12f}, lambda-ceiling {lam - ceiling:.3e}; "
                  f"links: floor<=max {link1}, max<=lambda {link2}, "
                  f"max<=ceiling {link3}")
        return link1 and link2 and link3, detail
    return _timed("criterion_3_soundness_envelope", 120.0, run)


def acceptance_4_bellqma_completeness() -> CheckResult:
    def run():
        c = corpus.load("k3_n2")
        coloring = corpus.witness_coloring("k3_n2")
        honest = provers.honest_proof(c, coloring)
        worst = -np.inf
        for k in (60, 120, 240):
            report = bellqma.acceptance(c, [honest] * k, mode="exact")
            floor = bellqma.completeness_bound(k)
            worst = max(worst, floor - report.p_total)
        return worst <= 0, f"max (floor - p_total) = {worst:.3e} for k in 60,120,240"
    return _timed("criterion_4_bellqma_completeness", 10.0, run)


def acceptance_5_chernoff() -> CheckResult:
    return replace(check_chernoff_tail(), name="criterion_5_chernoff_tail")


def acceptance_6_bellqma_soundness() -> CheckResult:
    """Every tested strategy on the 4-clique rejects with probability at
    least 4^-n / 12000 at k = 240, consistency computed exactly."""
    def run():
        c = corpus.load("k4_n2")
        n, k = c.n, 240
        floor = bellqma.soundness_bound(n)
        shape = provers.proof_shape(n)
        cheat = provers.near_coloring_proof(c, sgraph.Coloring((0, 1, 2, 0)), violations=1)
        basis = states.basis_state(shape, (0, 0))
        strategies = {
            "near_coloring": [cheat] * k,
            "basis": [basis] * k,
            "random_s1": provers.random_product_proofs(shape, k, 1),
            "random_s2": provers.random_product_proofs(shape, k, 2),
            "random_s3": provers.random_product_proofs(shape, k, 3),
        }
        lines = []
        ok = True
        for name, proofs in strategies.items():
            rejection = 1.0 - bellqma.acceptance(c, proofs, mode="exact").p_total
            ok = ok and rejection >= floor
            lines.append(f"{name}: rejection {rejection:.6f} (floor {floor:.2e}, exact)")
        return ok, "; ".join(lines)
    return _timed("criterion_6_bellqma_soundness", 10.0, run)


def acceptance_7_swap_agreement() -> CheckResult:
    return replace(check_swap_agreement(), name="criterion_7_swap_agreement")


def acceptance_8_lemma_fixtures() -> CheckResult:
    def run():
        parts = [check_uniform_deviation(), check_bipartite_marginal(),
                 check_equality_deviation()]
        ok = all(p.passed for p in parts)
        return ok, "; ".join(f"{p.name}: {p.detail}" for p in parts)
    return _timed("criterion_8_lemma_fixtures", 30.0, run)


def acceptance_9_gadget_suite() -> CheckResult:
    def run():
        rng = np.random.default_rng(42)
        worst_prob = 0.0
        worst_fid = 1.0
        for _ in range(200):
            target = provers.haar_state(states.RegisterShape.of((2,)), rng)
            omega = rng.uniform(0, 2 * math.pi)
            # probabilities measured on the explicit parity projection, not
            # the closed form; the closed-form gadget supplies the state
            even, odd = gadgets.magic_gadget_joint_branches(target, omega)
            worst_prob = max(worst_prob, abs(even.probability - 0.5),
                             abs(odd.probability - 0.5))
            success, _ = gadgets.magic_gadget(target, omega)
            want = gadgets.rz_matrix(omega) @ target.amps
            fid = abs(np.vdot(want, success.post_state.amps)) ** 2
            worst_fid = min(worst_fid, fid)
        worst_formula = 0.0
        for t in range(7):
            for p in (0.0, 0.5, 1.0):
                got = gadgets.cascade_acceptance(p, t)
                worst_formula = max(worst_formula, abs(got - (1 - 2.0 ** (-t) * (1 - p))))
        ok = worst_prob <= 1e-12 and worst_fid >= 1 - 1e-9 and worst_formula <= 1e-9
        return ok, (f"max |branch-1/2| = {worst_prob:.1e}, min fidelity = {worst_fid:.12f}, "
                    f"max formula error = {worst_formula:.1e}")
    return _timed("criterion_9_gadget_suite", 10.0, run)


def acceptance_10_zhzhz() -> CheckResult:
    def run():
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(200):
            u = gadgets.haar_unitary(rng)
            z = gadgets.zhzhz_decompose(u)
            worst = max(worst, float(np.linalg.norm(z.matrix() - u, 2)))
        return worst < 1e-9, f"max reconstruction error {worst:.3e} over 200 Haar unitaries"
    return _timed("criterion_10_zhzhz_reconstruction", 5.0, run)


def acceptance_11_cross_module() -> CheckResult:
    def run():
        c = corpus.load("k4_n2")
        rng = np.random.default_rng(8)
        shape = provers.proof_shape(c.n)
        worst = 0.0
        for _ in range(20):
            r1 = provers.haar_state(shape, rng)
            r2 = provers.haar_state(shape, rng)
            via_pair = qma2.acceptance_exact(c, r1, r2).p_consistency
            via_bell = bellqma.consistency_accept(c, [r1, r2], "exact")
            worst = max(worst, abs(via_pair - via_bell))
        return worst <= 1e-12, f"max |two-proof - k=2 bell| = {worst:.3e} over 20 pairs"
    return _timed("criterion_11_cross_module_consistency", 10.0, run)


LEMMA_CHECKS = (
    check_norm_preservation,
    check_swap_agreement,
    check_trace_distance_l1,
    check_uniform_deviation,
    check_bipartite_marginal,
    check_equality_deviation,
    check_well_defined_color,
    check_color_register_floor,
    check_all_nodes_present,
    check_chernoff_tail,
    check_zprime_occupancy,
    check_amplitude_floor,
    check_mc_exact_agreement,
)

ACCEPTANCE_CHECKS = (
    acceptance_1_completeness,
    acceptance_2_tightness,
    acceptance_3_soundness_envelope,
    acceptance_4_bellqma_completeness,
    acceptance_5_chernoff,
    acceptance_6_bellqma_soundness,
    acceptance_7_swap_agreement,
    acceptance_8_lemma_fixtures,
    acceptance_9_gadget_suite,
    acceptance_10_zhzhz,
    acceptance_11_cross_module,
)


def run_suite(name: str) -> list[CheckResult]:
    checks = {"lemmas": LEMMA_CHECKS, "acceptance": ACCEPTANCE_CHECKS}.get(name)
    if checks is None:
        raise ValueError(f"unknown suite {name!r}; pick 'lemmas' or 'acceptance'")
    return [fn() for fn in checks]
