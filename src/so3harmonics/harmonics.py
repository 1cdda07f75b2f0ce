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
# Largest kappa(A) that ridge_solver certifies from the eigenvalues of
# fl(A^T A), which are off by about n*u*w_max (n columns, u = 1.1e-16):
# with w_min >= 1e-4 * w_max the kappa estimate holds to ~1e-9 and the
# normal equations lose about kappa^2 * u <= 1e-12 against the SVD.
GRAM_MAX_CONDITION = 100.0


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
        if np.iscomplexobj(self.theta) or np.iscomplexobj(self.phi):
            raise ValueError("point angles must be real")
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
# Design matrices / analysis / synthesis
# ---------------------------------------------------------------------------

analysis_cache = LRUCache(64)


def design_matrix(grid: PointSet, bandlimit: int) -> np.ndarray:
    """Evaluation matrix A with A[i, (l,m)] = Y_lm(x_i)."""
    cols = wigner_center_columns(grid.xyz, bandlimit)
    return np.concatenate([np.sqrt((2 * l + 1) / (4 * np.pi)) * c
                           for l, c in enumerate(cols)], axis=1)


def _certified_eigh(grams: list[np.ndarray]
                    ) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """(w, V) of each diagonal block of a block-diagonal Gram matrix
    A^T A = V diag(w) V^T, or None when the eigenvalues of all blocks
    together do not certify kappa(A) = sqrt(w_max/w_min) <=
    GRAM_MAX_CONDITION (below MAX_CONDITION, so a certified matrix is
    never rejected)."""
    eigs = [np.linalg.eigh(gram) for gram in grams]
    w = np.concatenate([block_w for block_w, _ in eigs])
    kappa = np.sqrt(w.max() / w.min()) if w.min() > 0 else np.inf
    return None if kappa > GRAM_MAX_CONDITION else eigs


def gram_ridge_inverse(grams: list[np.ndarray]) -> list[np.ndarray] | None:
    """H = V diag(1/(w + RIDGE_LAMBDA)) V^T, block by block, from the
    diagonal blocks of a block-diagonal Gram matrix A^T A = V diag(w) V^T
    of a design A, so that H A^T is ``ridge_solver(A)``.

    Returns None when the eigenvalues do not certify kappa(A) <=
    GRAM_MAX_CONDITION (then only the SVD of A gives the inverse).
    """
    eigs = _certified_eigh(grams)
    if eigs is None:
        return None
    return [(v / (w + RIDGE_LAMBDA)) @ v.T for w, v in eigs]


def ridge_solver(a: np.ndarray) -> np.ndarray:
    """Ridge pseudo-inverse P = V diag(s / (s^2 + ridge)) U^T of a design
    matrix A = U diag(s) V^T, with ridge = RIDGE_LAMBDA.

    Returns P with shape (columns, rows) so that coeffs = P @ samples.
    Raises IllConditionedError when kappa(A) = s_max/s_min > MAX_CONDITION.

    Two routes give the same P up to rounding.  A matrix with at least
    twice as many rows as columns is first tried through its Gram matrix:
    A^T A = V diag(w) V^T with w = s^2, so P = V diag(1/(w + ridge)) V^T A^T,
    which needs no (rows, columns) U.  The eigenvalues are trusted only
    when they certify kappa(A) = sqrt(w_max/w_min) <= GRAM_MAX_CONDITION
    = 100: the eigenvalues of fl(A^T A) are off by about n*u*w_max, so
    there the kappa estimate holds to ~1e-9 and the normal equations lose
    about kappa^2 * u <= 1e-12 against the SVD.  Full-sphere designs
    (kappa 1.07) take this route.  Every other matrix (near-square,
    wide, rank-deficient or worse conditioned) takes the SVD.
    """
    if a.shape[0] >= 2 * a.shape[1]:
        eig = _certified_eigh([a.T @ a])
        if eig is not None:
            (w, v), = eig
            # V^T A^T = diag(s) U^T: the SVD route's product, with the
            # filter 1/(w + ridge) in place of s/(s^2 + ridge)
            return (v / (w + RIDGE_LAMBDA)) @ (v.T @ a.T)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[-1] <= 0 or s[0] / s[-1] > MAX_CONDITION:
        raise IllConditionedError(
            f"design matrix condition number exceeds {MAX_CONDITION:g}")
    filt = s / (s * s + RIDGE_LAMBDA)
    return (vh.T * filt) @ u.T


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
