"""Full-count property sweeps from the module invariants, one per check."""

import numpy as np
import pytest

from uvlab import provers, qma2, suites


@pytest.mark.parametrize("check", suites.LEMMA_CHECKS,
                         ids=lambda fn: fn.__name__)
def test_lemma_check(check):
    result = check()
    print()
    print(result.line())
    assert result.passed, result.detail


def test_same_vertex_pass_matches_pairwise_sum():
    # reference: sum p(v, c) q(v, d) over one vertex with two colors c != d
    rng = np.random.default_rng(5)
    shape = provers.proof_shape(3)
    for _ in range(20):
        psi, phi = (provers.haar_state(shape, rng) for _ in range(2))
        p = np.abs(psi.tensor_view()) ** 2
        q = np.abs(phi.tensor_view()) ** 2
        reject = sum(p[v, a] * q[v, b] for v in range(8)
                     for a in range(3) for b in range(3) if a != b)
        assert abs(qma2.same_vertex_pass(p, q) - (1.0 - reject)) < 1e-12
