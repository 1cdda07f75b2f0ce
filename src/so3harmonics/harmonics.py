"""Spherical harmonics and band-limited analysis/synthesis on point sets.

The real orthonormal basis is the centre column of the real Wigner
blocks: for any rotation R taking the north pole e_z to the point x,

    Y_l^m(x) = sqrt((2l+1) / (4 pi)) * D^l(R)[m, 0],

computed by ``wigner.wigner_center_columns`` straight from x, with no
angles.  This is the standard real recombination of the orthonormal
complex harmonics with the Condon-Shortley phase: sqrt(2) (-1)^m Re Y_l^m
for m > 0, sqrt(2) (-1)^m Im Y_l^|m| for m < 0 and Y_l^0 for m = 0, so
real-valued signals get real coefficient vectors.  It matches
``scipy.special.sph_harm_y`` through that recombination.  The library
works in this real basis only.

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
from .wigner import wigner_center_columns

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
class SphericalCoeffs:
    """Per-channel harmonic coefficients up to a band limit."""

    bandlimit: int
    data: np.ndarray  # (channels, (L+1)^2)

    def __post_init__(self):
        if np.iscomplexobj(self.data):
            raise ValueError("coefficients must be real")
        data = np.ascontiguousarray(np.atleast_2d(self.data), dtype=float)
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
        if np.iscomplexobj(self.values):
            raise ValueError("signal values must be real")
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

def sph_harm_real(l: int, m: int, theta, phi) -> float | np.ndarray:
    """Real orthonormal Y_l^m on broadcast (theta, phi): cosine for m > 0,
    sine for m < 0; column l^2 + l + m of the design matrix."""
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got l={l}, m={m}")
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                 np.asarray(phi, dtype=float))
    grid = PointSet(th.ravel(), ph.ravel())
    vals = _build_design(grid, l)[:, l * l + l + m].reshape(th.shape)
    return vals[()] if th.ndim == 0 else vals


# ---------------------------------------------------------------------------
# Design matrices / analysis / synthesis
# ---------------------------------------------------------------------------

design_cache = LRUCache(64)
analysis_cache = LRUCache(64)


def design_matrix(grid: PointSet, bandlimit: int) -> np.ndarray:
    """Evaluation matrix A with A[i, (l,m)] = Y_lm(x_i)."""
    return design_cache.get((grid.content_digest, bandlimit),
                            lambda: _build_design(grid, bandlimit))


def _build_design(grid: PointSet, bandlimit: int) -> np.ndarray:
    cols = wigner_center_columns(grid.xyz, bandlimit)
    blocks = [np.sqrt((2 * l + 1) / (4 * np.pi)) * c for l, c in enumerate(cols)]
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


def analysis_matrix(grid: PointSet, bandlimit: int) -> np.ndarray:
    """Ridge inverse G of the design matrix: coeffs = values @ G.T."""
    def build() -> np.ndarray:
        g = ridge_solver(design_matrix(grid, bandlimit))
        g.flags.writeable = False
        return g
    return analysis_cache.get((grid.content_digest, bandlimit), build)


def analyze(signal: SphericalSignal, bandlimit: int) -> SphericalCoeffs:
    """Least-squares harmonic coefficients of a sampled signal.

    Exact (up to the 1e-8 ridge bias) for band-limited signals on grids
    where the design matrix has full column rank; on underdetermined
    grids it returns the minimum-norm ridge solution.
    """
    coeffs = signal.values @ analysis_matrix(signal.grid, bandlimit).T
    return SphericalCoeffs(bandlimit, coeffs)


def synthesize(coeffs: SphericalCoeffs, grid: PointSet) -> SphericalSignal:
    """Pointwise evaluation of the truncated harmonic series."""
    values = coeffs.data @ design_matrix(grid, coeffs.bandlimit).T
    return SphericalSignal(grid, values)
