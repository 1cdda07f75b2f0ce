"""Oracle checks for the numeric kernels."""

import numpy as np

from so3harmonics.wigner import small_d_matrix


class TestSmallDStack:
    def test_identity_at_beta_zero(self):
        for l in range(7):
            d = small_d_matrix(l, 0.0)
            assert np.allclose(d, np.eye(2 * l + 1), atol=1e-14)
