"""Spherical harmonics and band-limited analysis/synthesis on point sets.

The real orthonormal basis is the centre column of the real Wigner
blocks: for any rotation R taking the north pole e_z to the point x,

    Y_l^m(x) = sqrt((2l+1) / (4 pi)) * D^l(R)[m, 0],

computed by ``wigner.wigner_center_columns`` straight from x, with no
angles.  The complex basis is orthonormal with the Condon-Shortley
phase, Y_l^l(theta, phi) proportional to (-sin(theta) exp(i phi))^l and
Y_l^-m = (-1)^m conj(Y_l^m); its degree-l block is the real block times
U_l (``complex_to_real_matrix``).  The real basis is the standard
unitary recombination of the complex one, sqrt(2) (-1)^m Re Y_l^m for
m > 0, sqrt(2) (-1)^m Im Y_l^|m| for m < 0 and Y_l^0 for m = 0, so
real-valued signals get real coefficient vectors.  Both conventions
match ``scipy.special.sph_harm_y``.

Coefficients are stored in blocks of increasing degree l, order m
running -l..l inside each block; a band limit L keeps (L+1)^2
coefficients per channel.

Analysis is a ridge-regularized least-squares fit on whatever point set
the signal lives on.  That choice deliberately supports irregular and
even underdetermined grids (e.g. a sparsely sampled hemisphere), where
quadrature weights do not exist; on a full-rank grid the fit reproduces
band-limited signals to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._cache import LRUCache, digest
from .wigner import complex_to_real_matrix, wigner_center_columns

RIDGE_LAMBDA = 1e-8
MAX_CONDITION = 1e8


class IllConditionedError(ValueError):
    """Design matrix condition number exceeds the supported range."""


def n_coeffs(bandlimit: int) -> int:
    return (bandlimit + 1) ** 2


@dataclass(frozen=True)
class PointSet:
    """Points on the unit sphere as polar/azimuth angle arrays."""

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta, dtype=float)
        phi = np.ascontiguousarray(self.phi, dtype=float)
        if theta.shape != phi.shape or theta.ndim != 1:
            raise ValueError("theta and phi must be equal-length 1-D arrays")
        theta.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def size(self) -> int:
        return len(self.theta)

    @property
    def xyz(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.stack([st * np.cos(self.phi), st * np.sin(self.phi),
                         np.cos(self.theta)], axis=1)

    def take(self, indices: np.ndarray) -> "PointSet":
        return PointSet(self.theta[indices], self.phi[indices])

    @cached_property
    def content_digest(self) -> bytes:
        """Digest of the point angles, computed once per point set."""
        return digest(self.theta, self.phi)


@dataclass(frozen=True)
class SphericalPoint:
    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", float(self.phi % (2 * np.pi)))


@dataclass(frozen=True)
class SphericalCoeffs:
    """Per-channel harmonic coefficients up to a band limit."""

    bandlimit: int
    data: np.ndarray  # (channels, (L+1)^2), float64 or complex128
    basis: str = "real"

    def __post_init__(self):
        if self.basis not in ("real", "complex"):
            raise ValueError(f"basis must be 'real' or 'complex': {self.basis!r}")
        dtype = np.float64 if self.basis == "real" else np.complex128
        data = np.ascontiguousarray(np.atleast_2d(self.data), dtype=dtype)
        if data.shape[1] != n_coeffs(self.bandlimit):
            raise ValueError(
                f"expected {n_coeffs(self.bandlimit)} coefficients per channel, "
                f"got {data.shape[1]}")
        object.__setattr__(self, "data", data)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    def block(self, l: int) -> np.ndarray:
        """View of the degree-l block, shape (channels, 2l+1)."""
        return self.data[:, l * l:(l + 1) * (l + 1)]


@dataclass(frozen=True)
class SphericalSignal:
    """Channel-valued samples over a point set."""

    grid: PointSet
    values: np.ndarray  # (channels, p)

    def __post_init__(self):
        values = np.ascontiguousarray(np.atleast_2d(self.values), dtype=float)
        if values.shape[1] != self.grid.size:
            raise ValueError(f"expected {self.grid.size} samples per channel, "
                             f"got {values.shape[1]}")
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def channels(self) -> int:
        return self.values.shape[0]


# ---------------------------------------------------------------------------
# Pointwise basis functions
# ---------------------------------------------------------------------------

def _sph_harm(l: int, m: int, theta, phi, basis: str):
    """Column l^2 + l + m of the design matrix on broadcast (theta, phi)."""
    if isinstance(theta, SphericalPoint):
        theta, phi = theta.theta, theta.phi
    elif phi is None:
        raise TypeError("phi is required unless theta is a SphericalPoint")
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got l={l}, m={m}")
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                 np.asarray(phi, dtype=float))
    grid = PointSet(th.ravel(), ph.ravel())
    vals = _build_design(grid, l, basis)[:, l * l + l + m].reshape(th.shape)
    return vals[()] if th.ndim == 0 else vals


def sph_harm_complex(l: int, m: int, theta, phi=None) -> complex | np.ndarray:
    """Orthonormal Y_l^m; negative m via (-1)^m conjugation.

    Accepts a SphericalPoint in place of the (theta, phi) pair.
    """
    return _sph_harm(l, m, theta, phi, "complex")


def sph_harm_real(l: int, m: int, theta, phi=None) -> float | np.ndarray:
    """Real orthonormal basis: cosine for m > 0, sine for m < 0."""
    return _sph_harm(l, m, theta, phi, "real")


# ---------------------------------------------------------------------------
# Design matrices / analysis / synthesis
# ---------------------------------------------------------------------------

design_cache = LRUCache(64)
analysis_cache = LRUCache(64)


def design_matrix(grid: PointSet, bandlimit: int, basis: str = "real") -> np.ndarray:
    """Evaluation matrix A with A[i, (l,m)] = Y_lm(x_i)."""
    return design_cache.get((grid.content_digest, bandlimit, basis),
                            lambda: _build_design(grid, bandlimit, basis))


def _build_design(grid: PointSet, bandlimit: int, basis: str) -> np.ndarray:
    cols = wigner_center_columns(grid.xyz, bandlimit)
    blocks = [np.sqrt((2 * l + 1) / (4 * np.pi)) * c for l, c in enumerate(cols)]
    if basis == "complex":
        blocks = [b @ complex_to_real_matrix(l) for l, b in enumerate(blocks)]
    out = np.concatenate(blocks, axis=1)
    out.flags.writeable = False
    return out


def ridge_solver(a: np.ndarray, ridge: float = RIDGE_LAMBDA,
                 max_condition: float = MAX_CONDITION) -> np.ndarray:
    """SVD-based ridge pseudo-inverse of a design matrix.

    Returns G with shape (columns, rows) so that coeffs = G @ samples.
    Raises IllConditionedError when sigma_max/sigma_min > max_condition.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[-1] <= 0 or s[0] / s[-1] > max_condition:
        raise IllConditionedError(
            f"design matrix condition number exceeds {max_condition:g}")
    filt = s / (s * s + ridge)
    return (vh.conj().T * filt) @ u.conj().T


def analysis_matrix(grid: PointSet, bandlimit: int,
                    basis: str = "real") -> np.ndarray:
    """Ridge inverse G of the design matrix: coeffs = values @ G.T."""
    def build() -> np.ndarray:
        g = ridge_solver(design_matrix(grid, bandlimit, basis))
        g.flags.writeable = False
        return g
    return analysis_cache.get((grid.content_digest, bandlimit, basis), build)


def analyze(signal: SphericalSignal, bandlimit: int,
            basis: str = "real") -> SphericalCoeffs:
    """Least-squares harmonic coefficients of a sampled signal.

    Exact (up to the 1e-8 ridge bias) for band-limited signals on grids
    where the design matrix has full column rank; on underdetermined
    grids it returns the minimum-norm ridge solution.
    """
    coeffs = signal.values @ analysis_matrix(signal.grid, bandlimit, basis).T
    return SphericalCoeffs(bandlimit, coeffs, basis)


def synthesize(coeffs: SphericalCoeffs, grid: PointSet) -> SphericalSignal:
    """Pointwise evaluation of the truncated harmonic series."""
    a = design_matrix(grid, coeffs.bandlimit, coeffs.basis)
    values = coeffs.data @ a.T
    if coeffs.basis == "complex":
        scale = max(1.0, float(np.max(np.abs(values))))
        if np.max(np.abs(values.imag)) > 1e-8 * scale:
            raise ValueError("complex coefficients do not describe a real signal")
        values = values.real
    return SphericalSignal(grid, values)


def real_to_complex_coeffs(coeffs: SphericalCoeffs) -> SphericalCoeffs:
    if coeffs.basis != "real":
        raise ValueError("expected real-basis coefficients")
    data = np.empty(coeffs.data.shape, dtype=np.complex128)
    for l in range(coeffs.bandlimit + 1):
        u = complex_to_real_matrix(l)
        data[:, l * l:(l + 1) ** 2] = coeffs.block(l) @ np.conj(u)
    return SphericalCoeffs(coeffs.bandlimit, data, "complex")


def complex_to_real_coeffs(coeffs: SphericalCoeffs) -> SphericalCoeffs:
    if coeffs.basis != "complex":
        raise ValueError("expected complex-basis coefficients")
    data = np.empty(coeffs.data.shape, dtype=np.complex128)
    for l in range(coeffs.bandlimit + 1):
        u = complex_to_real_matrix(l)
        data[:, l * l:(l + 1) ** 2] = coeffs.block(l) @ u.T
    scale = max(1.0, float(np.max(np.abs(data))))
    if np.max(np.abs(data.imag)) > 1e-8 * scale:
        raise ValueError("coefficients are not those of a real signal")
    return SphericalCoeffs(coeffs.bandlimit, data.real, "real")
