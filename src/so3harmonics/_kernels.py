"""Associated-Legendre table, the one numeric kernel behind the transforms.

``BACKEND`` names the implementation; it is recorded in benchmark
reports.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def legendre_table(x: np.ndarray, lmax: int) -> np.ndarray:
    """Associated Legendre values P_l^m(x) for an array of x.

    Returns shape (len(x), lmax+1, lmax+1) with [i, l, m] = P_l^m(x_i) for
    0 <= m <= l (other cells zero).  Includes the (-1)^m Condon-Shortley
    factor; computed by stable upward recurrence.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((len(x), lmax + 1, lmax + 1))
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    out[:, 0, 0] = 1.0
    for m in range(1, lmax + 1):
        out[:, m, m] = -(2 * m - 1) * sx * out[:, m - 1, m - 1]
    for m in range(lmax):
        out[:, m + 1, m] = (2 * m + 1) * x * out[:, m, m]
    for m in range(lmax + 1):
        for l in range(m + 2, lmax + 1):
            out[:, l, m] = ((2 * l - 1) * x * out[:, l - 1, m]
                            - (l + m - 1) * out[:, l - 2, m]) / (l - m)
    return out
