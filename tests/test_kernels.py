"""Oracle checks for the numeric kernels."""

import numpy as np
import pytest
from scipy.special import lpmv

from so3harmonics._kernels import legendre_table
from so3harmonics.wigner import small_d_matrix


class TestLegendreTable:
    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 50)
        table = legendre_table(x, 8)
        for l in range(9):
            for m in range(l + 1):
                ref = lpmv(m, l, x)
                assert np.allclose(table[:, l, m], ref, atol=1e-10), (l, m)

    def test_endpoints(self):
        table = legendre_table(np.array([-1.0, 1.0]), 6)
        for l in range(7):
            assert table[1, l, 0] == pytest.approx(1.0)
            assert table[0, l, 0] == pytest.approx((-1.0) ** l)
            for m in range(1, l + 1):
                assert table[:, l, m] == pytest.approx([0.0, 0.0])


class TestSmallDStack:
    def test_identity_at_beta_zero(self):
        for l in range(7):
            d = small_d_matrix(l, 0.0)
            assert np.allclose(d, np.eye(2 * l + 1), atol=1e-14)
