"""Bridge from the library's real harmonic basis to the complex one.

The library works in the real basis only.  The independent references
the tests compare against are complex: ``scipy.special.sph_harm_y`` and
Wigner's closed-form small-d sum.  This module maps real-basis values
onto them with the unitary U_l of the Condon-Shortley recombination,
c_real = U_l c_complex.
"""

from functools import lru_cache

import numpy as np

from so3harmonics import wigner
from so3harmonics.harmonics import PointSet, design_matrix
from so3harmonics.rotations import zyz_to_matrices


@lru_cache(maxsize=32)
def complex_to_real_matrix(l: int) -> np.ndarray:
    """Unitary U_l with c_real = U_l @ c_complex for a real signal's
    coefficients; the same matrix conjugates Wigner blocks."""
    dim = 2 * l + 1
    u = np.zeros((dim, dim), dtype=np.complex128)
    u[l, l] = 1.0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for mu in range(1, l + 1):
        sign = (-1) ** mu
        u[l + mu, l + mu] = sign * inv_sqrt2
        u[l + mu, l - mu] = inv_sqrt2
        u[l - mu, l + mu] = 1j * sign * inv_sqrt2
        u[l - mu, l - mu] = -1j * inv_sqrt2
    u.flags.writeable = False
    return u


def complex_block(l: int, d_real: np.ndarray) -> np.ndarray:
    """U_l^dagger D_real U_l, the degree-l block acting on complex coefficients."""
    u = complex_to_real_matrix(l)
    return u.conj().T @ d_real @ u


def small_d_matrix(l: int, beta: float) -> np.ndarray:
    """Small-d matrix d^l(beta) indexed [m+l, n+l]; the complex block of
    Ry(beta) is its transpose."""
    ry = zyz_to_matrices(0.0, beta, 0.0)
    d = complex_block(l, wigner.wigner_D_real(l, ry).entries)
    return np.ascontiguousarray(d.real.T)


def complex_design(grid: PointSet, bandlimit: int) -> np.ndarray:
    """Complex Condon-Shortley design matrix: each real block times U_l."""
    a = design_matrix(grid, bandlimit)
    return np.concatenate([a[:, l * l:(l + 1) ** 2] @ complex_to_real_matrix(l)
                           for l in range(bandlimit + 1)], axis=1)


def sph_harm_complex(l: int, m: int, theta, phi) -> complex | np.ndarray:
    """Orthonormal complex Y_l^m on broadcast (theta, phi)."""
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got l={l}, m={m}")
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                 np.asarray(phi, dtype=float))
    grid = PointSet(th.ravel(), ph.ravel())
    vals = complex_design(grid, l)[:, l * l + l + m].reshape(th.shape)
    return vals[()] if th.ndim == 0 else vals
