"""Deterministic S2 and SO(3) grids: HEALPix, Hopf lifts, spirals, random.

The S2 grids are standard HEALPix pixel centers in RING order with
nside = 2^level (12 * 4^level equal-area pixels).  SO(3) grids lift the
full-sphere pixel set by attaching 6 * 2^level equally spaced fiber
angles to every pixel, giving 72 * 8^level rotations with a nominal bin
width of 60 deg / 2^level.  Random (Haar) and super-Fibonacci grids of
arbitrary size are provided for comparison at inference time.

A HEALPix-Hopf grid is defined by its pixel angles and fiber count: its
size and content digest come from them, the fiber scoring in ``fibers``
and the decode in ``estimation`` read only the rotations they need
(``SO3Grid.rotations_at``), and the (n, 3, 3) stack is built on first
access of ``rotations`` and kept.  The build is deterministic, so every
thread reads the same bits.  Grids are immutable once constructed and
safe to share across threads.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rotations, wigner
from ._cache import digest
from .binio import IncompatibleFileError, read_blob, write_blob
from .harmonics import PointSet

LARGE_GRID_LEVEL = 5
GRID_KINDS = ("healpix_hopf", "random", "super_fibonacci")
_PROBE_CHUNK = 256  # probe rotations ``covering_radius`` scores in one product


class ResourceLimitError(RuntimeError):
    """Requested grid would not fit a desk-scale memory budget."""


# ---------------------------------------------------------------------------
# HEALPix pixel centers (RING order)
# ---------------------------------------------------------------------------

def _healpix_ring_angles(nside: int) -> tuple[np.ndarray, np.ndarray]:
    """theta/phi of all 12 nside^2 pixel centers, RING-ordered."""
    npix = 12 * nside * nside
    ncap = 2 * nside * (nside - 1)
    p = np.arange(npix)
    z = np.empty(npix)
    phi = np.empty(npix)

    cap = p < ncap
    if np.any(cap):
        pc = p[cap]
        ring = ((1 + np.sqrt(1 + 2 * pc).astype(np.int64)) // 2).astype(np.int64)
        # integer sqrt drift guard at ring boundaries
        ring = np.where(2 * ring * (ring - 1) > pc, ring - 1, ring)
        ring = np.where(2 * (ring + 1) * ring <= pc, ring + 1, ring)
        in_ring = pc - 2 * ring * (ring - 1) + 1
        z[cap] = 1.0 - ring ** 2 / (3.0 * nside ** 2)
        phi[cap] = (in_ring - 0.5) * np.pi / (2.0 * ring)

    eq = (p >= ncap) & (p < npix - ncap)
    pe = p[eq] - ncap
    ring = pe // (4 * nside) + nside
    in_ring = pe % (4 * nside) + 1
    odd = 0.5 * (1 + (ring + nside) % 2)
    z[eq] = (2.0 * nside - ring) * 2.0 / (3.0 * nside)
    phi[eq] = (in_ring - odd) * np.pi / (2.0 * nside)

    south = p >= npix - ncap
    if np.any(south):
        ps = npix - p[south]
        ring = ((1 + np.sqrt(2 * ps - 1).astype(np.int64)) // 2).astype(np.int64)
        ring = np.where(2 * ring * (ring - 1) >= ps, ring - 1, ring)
        ring = np.where(2 * (ring + 1) * ring < ps, ring + 1, ring)
        in_ring = 4 * ring + 1 - (ps - 2 * ring * (ring - 1))
        z[south] = -1.0 + ring ** 2 / (3.0 * nside ** 2)
        phi[south] = (in_ring - 0.5) * np.pi / (2.0 * ring)

    return np.arccos(np.clip(z, -1.0, 1.0)), phi % (2.0 * np.pi)


@dataclass(frozen=True)
class S2Grid(PointSet):
    level: int = 0
    subset: str = "full"


def healpix_s2(level: int, subset: str = "full") -> S2Grid:
    """HEALPix pixel centers at recursion level 0..8.

    ``subset='hemisphere'`` keeps only the pixels with z >= 0 (the side
    visible under an orthographic camera looking along -z).
    """
    if not 0 <= level <= 8:
        raise ValueError(f"level must lie in 0..8, got {level}")
    if subset not in ("full", "hemisphere"):
        raise ValueError(f"subset must be 'full' or 'hemisphere': {subset!r}")
    theta, phi = _healpix_ring_angles(2 ** level)
    if subset == "hemisphere":
        keep = np.cos(theta) >= 0
        theta, phi = theta[keep], phi[keep]
    return S2Grid(theta=theta, phi=phi, level=level, subset=subset)


# ---------------------------------------------------------------------------
# SO(3) grids
# ---------------------------------------------------------------------------

class SO3Grid:
    """A finite set of rotations.

    Either an explicit (n, 3, 3) stack ``rotations``, or the Hopf lift of
    sphere ``pixels`` with ``nfiber`` fiber angles each (rotations=None):
    rotation i F + f is Rz(phi_i) Ry(theta_i) Rz(2 pi f / F), F = nfiber.
    A lifted grid builds its stack on first access only, and
    ``rotations_at`` reads single rotations without it.  ``psi_table``
    optionally holds the harmonic vector of every rotation at
    ``psi_bandlimit``.  Attributes cannot be reassigned and arrays are
    not writeable.
    """

    def __init__(self, kind: str, rotations: np.ndarray | None,
                 nominal_resolution_deg: float, level: int | None = None,
                 psi_table: np.ndarray | None = None,
                 psi_bandlimit: int | None = None,
                 pixels: PointSet | None = None, nfiber: int | None = None):
        if (rotations is None) == (pixels is None) or (pixels is None) != (nfiber is None):
            raise ValueError("an SO3Grid takes either a rotation stack or "
                             "pixels and a fiber count")
        self.__dict__.update(kind=kind, nominal_resolution_deg=nominal_resolution_deg,
                             level=level, psi_table=None, psi_bandlimit=psi_bandlimit,
                             pixels=pixels, nfiber=nfiber)
        if rotations is not None:
            self.__dict__["rotations"] = _read_only(rotations)
        if psi_table is not None:
            if len(psi_table) != self.size:
                raise ValueError("psi_table length does not match grid size")
            self.__dict__["psi_table"] = _read_only(psi_table)

    def __setattr__(self, name, value):
        raise AttributeError(f"SO3Grid attributes are read-only: {name}")

    @cached_property
    def rotations(self) -> np.ndarray:
        """(size, 3, 3) stack, for a lifted grid ``rotations_at`` of every
        index, built on first access and kept.  The build is deterministic:
        threads that race to it read the same bits."""
        return _read_only(self.rotations_at(np.arange(self.size)))

    def rotations_at(self, idx) -> np.ndarray:
        """``rotations[idx]`` for an integer index or index array.  A lifted
        grid computes the rotations of idx = i F + f alone, with
        ``zyz_to_matrices`` elementwise as its stack, so the same bits."""
        if self.pixels is None:
            return self.rotations[idx]
        i, f = np.divmod(idx, self.nfiber)
        fiber = 2.0 * np.pi * np.arange(self.nfiber) / self.nfiber
        return rotations.zyz_to_matrices(fiber[f], self.pixels.theta[i],
                                         self.pixels.phi[i])

    @property
    def size(self) -> int:
        if self.pixels is None:
            return len(self.rotations)
        return self.pixels.size * self.nfiber

    @cached_property
    def content_digest(self) -> bytes:
        """Digest of the rotation stack, or of a lifted grid's pixel angles
        and fiber count, computed once per grid object."""
        if self.pixels is None:
            return digest(self.rotations)
        return digest(self.pixels.theta, self.pixels.phi, np.int64(self.nfiber))

    def with_psi_table(self, bandlimit: int) -> "SO3Grid":
        """Copy of the grid carrying precomputed harmonic vectors."""
        if self.psi_table is not None and self.psi_bandlimit == bandlimit:
            return self
        grid = copy.copy(self)  # shares the stack and digest if already built
        grid.__dict__.update(psi_table=_read_only(wigner.rotations_to_psi(
            self.rotations, bandlimit)), psi_bandlimit=bandlimit)
        return grid


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def so3_healpix_count(level: int) -> int:
    return 72 * 8 ** level


def so3_healpix(level: int, allow_large: bool = False) -> SO3Grid:
    """Hopf lift of the HEALPix sphere: 72 * 8^level rotations.

    Every pixel direction (theta, phi) of ``healpix_s2(level)`` carries
    F = 6 * 2^level fiber angles psi_f = 2 pi f / F (zero phase offset),
    composed as Rz(phi) Ry(theta) Rz(psi_f).  Rotation i F + f is
    A_i Rz(psi_f) with A_i = ``rotations_at(i F)``; ``fibers`` scores the
    grid through this structure.  The grid holds the pixels and F, not
    its rotations: the stack is built on first access of ``rotations``.
    Levels >= 5 exceed a desk-scale memory budget for dense tables and
    require ``allow_large=True``.
    """
    if level < 0 or level > LARGE_GRID_LEVEL:
        raise ResourceLimitError(
            f"SO(3) HEALPix level {level} is out of the supported range "
            f"0..{LARGE_GRID_LEVEL}")
    if level >= LARGE_GRID_LEVEL and not allow_large:
        raise ResourceLimitError(
            f"SO(3) HEALPix level {level} has {so3_healpix_count(level):,} "
            "rotations; pass allow_large=True to build it")
    nside = 2 ** level
    return SO3Grid("healpix_hopf", None, 60.0 / nside, level=level,
                   pixels=healpix_s2(level), nfiber=6 * nside)


def so3_grid(kind: str, level: int, count: int | None = None, seed: int = 0,
             allow_large: bool = False) -> SO3Grid:
    """SO(3) grid by kind name; ``count`` (default: the HEALPix count at
    ``level``) sizes a random or super-Fibonacci grid.  A negative level
    raises ResourceLimitError for every kind."""
    if level < 0:
        raise ResourceLimitError(
            f"SO(3) grid level {level} is out of the supported range "
            f"0..{LARGE_GRID_LEVEL}")
    if kind == "healpix_hopf":
        return so3_healpix(level, allow_large)
    n = count if count is not None else so3_healpix_count(level)
    if kind == "random":
        return so3_random(seed, n)
    if kind == "super_fibonacci":
        return so3_super_fibonacci(n)
    raise ValueError(f"unknown grid kind {kind!r}")


def _equivalent_resolution_deg(n: int) -> float:
    """Bin width of the HEALPix-Hopf grid with the same point count."""
    return 60.0 * (72.0 / n) ** (1.0 / 3.0)


def so3_random(seed: int, n: int) -> SO3Grid:
    """n Haar-uniform rotations, deterministic for a given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mats = rotations.sample_uniform_matrices(seed, n)
    return SO3Grid(kind="random", rotations=mats,
                   nominal_resolution_deg=_equivalent_resolution_deg(n))


def so3_super_fibonacci(n: int) -> SO3Grid:
    """Super-Fibonacci spiral: n low-discrepancy rotations, deterministic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = np.sqrt(2.0)
    psi = 1.533751168755204288118041
    s = np.arange(n) + 0.5
    r = np.sqrt(s / n)
    big_r = np.sqrt(1.0 - s / n)
    alpha = 2.0 * np.pi * s / phi
    beta = 2.0 * np.pi * s / psi
    q = np.stack([r * np.sin(alpha), r * np.cos(alpha),
                  big_r * np.sin(beta), big_r * np.cos(beta)], axis=1)
    return SO3Grid(kind="super_fibonacci",
                   rotations=rotations.quats_to_matrices(q),
                   nominal_resolution_deg=_equivalent_resolution_deg(n))


def covering_radius(grid: SO3Grid, probes: int, seed: int) -> float:
    """Monte Carlo covering radius estimate in degrees.

    Maximum over random probe rotations of the geodesic distance to the
    nearest grid rotation.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    probe_mats = rotations.sample_uniform_matrices(seed, probes)
    grid_flat = grid.rotations.reshape(grid.size, 9)
    worst = 0.0
    for start in range(0, probes, _PROBE_CHUNK):
        block = probe_mats[start:start + _PROBE_CHUNK].reshape(-1, 9)
        traces = block @ grid_flat.T
        best = np.max(traces, axis=1)  # max trace = min angle
        ang = np.arccos(np.clip((best - 1.0) / 2.0, -1.0, 1.0))
        worst = max(worst, float(np.max(ang)))
    return float(np.degrees(worst))


def nearest_index(grid: SO3Grid, matrices: np.ndarray) -> int | np.ndarray:
    """Index of the grid rotation closest to each matrix: an int for one
    (3, 3) matrix, an index array for a (..., 3, 3) stack."""
    m = np.asarray(matrices)
    traces = m.reshape(-1, 9) @ grid.rotations.reshape(grid.size, 9).T
    idx = np.argmax(traces, axis=1)
    return int(idx[0]) if m.ndim == 2 else idx.reshape(m.shape[:-2])


# ---------------------------------------------------------------------------
# Binary export / import
# ---------------------------------------------------------------------------

def save_grid(path: str, grid: SO3Grid) -> None:
    meta = {
        "grid_kind": grid.kind,
        "level": grid.level,
        "nominal_resolution_deg": grid.nominal_resolution_deg,
        "psi_bandlimit": grid.psi_bandlimit,
    }
    arrays = {"rotations": grid.rotations}
    if grid.psi_table is not None:
        arrays["psi_table"] = grid.psi_table
    write_blob(path, "so3grid", meta, arrays)


def _grid_file_problem(kind, level, rots: np.ndarray, table, bandlimit) -> str | None:
    """What makes a grid file's fields unusable, or None."""
    if kind not in GRID_KINDS:
        return f"unknown grid kind {kind!r}"
    if level is not None and (type(level) is not int or level < 0):
        return f"level {level!r} is not a non-negative integer"
    if not (rots.ndim == 3 and rots.shape[1:] == (3, 3)
            and rots.dtype.kind in "fiu" and np.all(np.isfinite(rots))):
        return f"rotations are not a finite (n, 3, 3) array: {rots.dtype} {rots.shape}"
    if table is None:
        return None
    if type(bandlimit) is not int or bandlimit < 0:
        return f"psi_bandlimit {bandlimit!r} is not a band limit"
    if table.shape != (len(rots), wigner.m_total(bandlimit)):
        return (f"psi_table shape {table.shape} disagrees with "
                f"{len(rots)} rotations at band limit {bandlimit}")
    return None


def load_grid(path: str) -> SO3Grid:
    """The grid ``save_grid`` wrote.  A malformed file raises
    IncompatibleFileError naming ``path``: a missing field, an unknown
    kind, a level that is not a non-negative integer, rotations that are
    not a finite (n, 3, 3) array, or a psi table whose shape disagrees
    with its band limit."""
    _, meta, arrays = read_blob(path, expect_kind="so3grid")
    kind, level, bandlimit = meta["grid_kind"], meta["level"], meta.get("psi_bandlimit")
    rots, table = arrays["rotations"], arrays.get("psi_table")
    problem = _grid_file_problem(kind, level, rots, table, bandlimit)
    if problem is not None:
        raise IncompatibleFileError(f"{path}: {problem}")
    return SO3Grid(kind=kind, rotations=rots,
                   nominal_resolution_deg=meta["nominal_resolution_deg"],
                   level=level, psi_table=table, psi_bandlimit=bandlimit)
