"""Orthographic lifting of planar feature maps onto a hemisphere grid.

A grid vertex (x, y, z) with z >= 0 reads the feature map at image
coordinates (x, y) by bilinear interpolation; coordinates are normalized
so the unit disk inscribes the image and the hemisphere rim touches the
image edges.  Cosine edge decay multiplies each sample by z, fading
contributions smoothly to zero at the rim.  In training mode a seeded
random subset of vertices is kept per projection (point dropout); eval
mode keeps every vertex and is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .grids import S2Grid
from .harmonics import PointSet, SphericalSignal


@dataclass(frozen=True)
class FeatureMap:
    """Channel-first planar features over the square [-1, 1]^2."""

    values: np.ndarray  # (C, H, W)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.ndim != 3:
            raise ValueError(f"expected (C, H, W) values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature map values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def channels(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MapperConfig:
    grid: S2Grid
    dropout_fraction: float = 0.5
    edge_decay: str = "cosine"
    sample_count: int | None = None

    def __post_init__(self):
        if self.grid.subset != "hemisphere":
            raise ValueError("mapper grid must be a hemisphere subset")
        if not 0.0 <= self.dropout_fraction < 1.0:
            raise ValueError("dropout_fraction must lie in [0, 1)")
        if self.edge_decay not in ("cosine", "none"):
            raise ValueError(f"edge_decay must be 'cosine' or 'none': {self.edge_decay!r}")
        if self.sample_count is not None and not 1 <= self.sample_count <= self.grid.size:
            raise ValueError("sample_count must lie in 1..grid size")

    def kept_count(self) -> int:
        if self.sample_count is not None:
            return self.sample_count
        return ceil((1.0 - self.dropout_fraction) * self.grid.size)


def sample_mask(cfg: MapperConfig, seed: int) -> np.ndarray:
    """Kept-vertex indices for one training projection."""
    keep = cfg.kept_count()
    rng = np.random.default_rng(seed)
    return np.sort(rng.permutation(cfg.grid.size)[:keep])


def bilinear_matrix(points_xy: np.ndarray, height: int, width: int) -> np.ndarray:
    """Sparse-in-spirit (p, H*W) interpolation weights.

    Row i holds the four bilinear weights of the pixel cell containing
    point i; multiplying a flattened channel by its transpose samples the
    map at all points at once (and transposing again backpropagates).
    """
    x = np.clip((points_xy[:, 0] + 1.0) * 0.5 * (width - 1), 0, width - 1)
    y = np.clip((points_xy[:, 1] + 1.0) * 0.5 * (height - 1), 0, height - 1)
    x0 = np.minimum(np.floor(x).astype(int), width - 2) if width > 1 else np.zeros(len(x), int)
    y0 = np.minimum(np.floor(y).astype(int), height - 2) if height > 1 else np.zeros(len(y), int)
    fx = x - x0
    fy = y - y0
    out = np.zeros((len(points_xy), height * width))
    rows = np.arange(len(points_xy))
    out[rows, y0 * width + x0] += (1 - fx) * (1 - fy)
    if width > 1:
        out[rows, y0 * width + x0 + 1] += fx * (1 - fy)
    if height > 1:
        out[rows, (y0 + 1) * width + x0] += (1 - fx) * fy
    if width > 1 and height > 1:
        out[rows, (y0 + 1) * width + x0 + 1] += fx * fy
    return out


def edge_weights(points_xyz: np.ndarray, edge_decay: str) -> np.ndarray:
    if edge_decay == "none":
        return np.ones(len(points_xyz))
    w = points_xyz[:, 2].copy()
    w[w < 1e-12] = 0.0
    return w


def lift(cfg: MapperConfig, height: int, width: int, mode: str = "eval",
         seed: int = 0) -> tuple[PointSet, np.ndarray]:
    """Kept points and (p, H*W) weights: ``values @ weights.T`` samples
    flattened (..., H*W) maps there.  Row i is point i's bilinear weights
    times its edge weight.

    Eval mode keeps all vertices; train mode keeps the seeded subset of
    ``sample_mask``.  Vertices cannot project outside the image: the
    hemisphere is contained in the unit disk.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval': {mode!r}")
    if mode == "train":
        kept = sample_mask(cfg, seed)
    else:
        kept = np.arange(cfg.grid.size)
    pts = cfg.grid.xyz[kept]
    weights = (edge_weights(pts, cfg.edge_decay)[:, None]
               * bilinear_matrix(pts[:, :2], height, width))
    return cfg.grid.take(kept), weights


def project(f: FeatureMap, cfg: MapperConfig, rng_seed: int = 0,
            mode: str = "eval") -> SphericalSignal:
    """Lift a feature map to a spherical signal on the kept grid vertices."""
    _, height, width = f.values.shape
    points, weights = lift(cfg, height, width, mode, rng_seed)
    return SphericalSignal(points, f.values.reshape(f.channels, -1) @ weights.T)
