"""Spherical harmonics and band-limited analysis/synthesis on point sets.

The complex basis is orthonormal with the Condon-Shortley phase folded
into the associated Legendre functions:

    Y_l^m(theta, phi) = sqrt((2l+1)(l-m)! / (4 pi (l+m)!))
                        * P_l^m(cos theta) * exp(i m phi),   m >= 0,
    Y_l^-m = (-1)^m conj(Y_l^m).

The real basis is the standard unitary recombination (m > 0 cosine,
m < 0 sine, m = 0 unchanged), so real-valued signals get real
coefficient vectors.  Coefficients are stored in blocks of increasing
degree l, order m running -l..l inside each block; a band limit L keeps
(L+1)^2 coefficients per channel.

Analysis is a ridge-regularized least-squares fit on whatever point set
the signal lives on.  That choice deliberately supports irregular and
even underdetermined grids (e.g. a sparsely sampled hemisphere), where
quadrature weights do not exist; on a full-rank grid the fit reproduces
band-limited signals to machine precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._cache import LRUCache, digest
from ._kernels import legendre_table

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

def assoc_legendre(l: int, m: int, x) -> float | np.ndarray:
    """P_l^m(x) with the (-1)^m Condon-Shortley factor, 0 <= m <= l."""
    if not 0 <= m <= l:
        raise ValueError(f"need 0 <= m <= l, got l={l}, m={m}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("argument must lie in [-1, 1]")
    vals = legendre_table(np.clip(arr, -1.0, 1.0), l)[:, l, m]
    return float(vals[0]) if np.isscalar(x) or np.ndim(x) == 0 else vals


def _sph_norm(l: int, m: int) -> float:
    from math import factorial, sqrt, pi
    return sqrt((2 * l + 1) * factorial(l - m) / (4 * pi * factorial(l + m)))


def sph_harm_complex(l: int, m: int, theta, phi=None) -> complex | np.ndarray:
    """Orthonormal Y_l^m; negative m via (-1)^m conjugation.

    Accepts a SphericalPoint in place of the (theta, phi) pair.
    """
    if isinstance(theta, SphericalPoint):
        theta, phi = theta.theta, theta.phi
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got l={l}, m={m}")
    if m < 0:
        return (-1) ** m * np.conj(sph_harm_complex(l, -m, theta, phi))
    scalar = np.ndim(theta) == 0 and np.ndim(phi) == 0
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ph = np.atleast_1d(np.asarray(phi, dtype=float))
    vals = (_sph_norm(l, m) * legendre_table(np.cos(th), l)[:, l, m]
            * np.exp(1j * m * ph))
    return complex(vals[0]) if scalar else vals


def sph_harm_real(l: int, m: int, theta, phi=None) -> float | np.ndarray:
    """Real orthonormal basis: cosine for m > 0, sine for m < 0."""
    if isinstance(theta, SphericalPoint):
        theta, phi = theta.theta, theta.phi
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got l={l}, m={m}")
    if m == 0:
        val = np.real(sph_harm_complex(l, 0, theta, phi))
    elif m > 0:
        val = np.sqrt(2.0) * (-1) ** m * np.real(sph_harm_complex(l, m, theta, phi))
    else:
        val = np.sqrt(2.0) * (-1) ** m * np.imag(sph_harm_complex(l, -m, theta, phi))
    return float(val) if np.ndim(theta) == 0 and np.ndim(phi) == 0 else val


@lru_cache(maxsize=32)
def complex_to_real_matrix(l: int) -> np.ndarray:
    """Unitary U_l turning complex coefficient vectors into real ones.

    c_real = U_l @ c_complex for coefficients of a real signal; the same
    matrix conjugates Wigner blocks into the real basis.
    """
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
    p = grid.size
    table = legendre_table(np.cos(grid.theta), bandlimit)
    out = np.zeros((p, n_coeffs(bandlimit)),
                   dtype=np.float64 if basis == "real" else np.complex128)
    sqrt2 = np.sqrt(2.0)
    for l in range(bandlimit + 1):
        base = l * l
        for m in range(0, l + 1):
            norm = _sph_norm(l, m)
            plm = table[:, l, m]
            if basis == "complex":
                ym = norm * plm * np.exp(1j * m * grid.phi)
                out[:, base + l + m] = ym
                if m > 0:
                    out[:, base + l - m] = (-1) ** m * np.conj(ym)
            else:
                if m == 0:
                    out[:, base + l] = norm * plm
                else:
                    sign = (-1) ** m
                    out[:, base + l + m] = sqrt2 * sign * norm * plm * np.cos(m * grid.phi)
                    out[:, base + l - m] = sqrt2 * sign * norm * plm * np.sin(m * grid.phi)
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


# ---------------------------------------------------------------------------
# JSON dumps in the documented (l, m) layout
# ---------------------------------------------------------------------------

def coeffs_to_json(coeffs: SphericalCoeffs) -> str:
    if coeffs.basis == "real":
        data = [list(row) for row in coeffs.data]
    else:
        data = [[[float(v.real), float(v.imag)] for v in row]
                for row in coeffs.data]
    return json.dumps({
        "layout_version": 1,
        "layout": "blocks of increasing l, m from -l to +l",
        "bandlimit": coeffs.bandlimit,
        "basis": coeffs.basis,
        "data": data,
    })


def coeffs_from_json(text: str) -> SphericalCoeffs:
    obj = json.loads(text)
    if obj.get("layout_version") != 1:
        raise ValueError("unsupported coefficient layout version")
    if obj["basis"] == "real":
        data = np.asarray(obj["data"], dtype=float)
    else:
        raw = np.asarray(obj["data"], dtype=float)
        data = raw[..., 0] + 1j * raw[..., 1]
    return SphericalCoeffs(obj["bandlimit"], data, obj["basis"])
