"""Spectral convolutions on the sphere and rotation group, and the toy net.

All operations act on per-degree coefficient blocks in the real basis.
A group signal is a flat (..., C, M) array in the harmonic-vector
layout (degree blocks row-major, degrees ascending), and every layer
takes any leading batch dimensions: the toy model's trunk and head call
the same layer functions the equivariance tests check.

- A sphere-domain convolution correlates a signal against globally
  supported filters: per degree, the output block is the outer product
  of signal and filter spectra summed over input channels.  The result
  lives on the rotation group.
- A group-domain convolution right-composes with a locally supported
  filter given by weighted taps near the identity: per degree, output =
  input block times the transposed filter block.  Both operations are
  exactly left-equivariant: rotating the input multiplies every block
  by the rotation's Wigner block on the row index.
- The nonlinearity samples the group signal on an SO(3) grid (dot
  products with the grid's harmonic vectors), applies ReLU, and
  projects back to band-limited blocks by ridge least squares.

The toy network chains: lift/analysis of each input channel to harmonic
coefficients (one linear operator per input kind), channel mixer, sphere
convolution, grid ReLU, group convolution, and flattens the single output
channel into a harmonic vector.  Gradients are reverse-mode, propagated
by hand through the (almost entirely linear) stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mapper as mapper_mod
from ._cache import LRUCache
from .binio import IncompatibleFileError, read_blob, write_blob
from .grids import LARGE_GRID_LEVEL, SO3Grid, so3_healpix
from .harmonics import PointSet, SphericalSignal, analysis_matrix, ridge_solver
from .mapper import FeatureMap, MapperConfig
from .rotations import axis_angles_to_matrices
from .wigner import (HarmonicVector, bandlimit_of, block_offsets, m_total,
                     rotations_to_psi)

CHECKPOINT_LAYOUT_VERSION = 1


@dataclass
class S2FilterBank:
    """Globally supported sphere filters as per-degree spectra.

    The spectra arrays are the learnable parameters; optimizer steps
    mutate them in place.
    """

    bandlimit: int
    spectra: tuple  # one (C_out, C_in, 2l+1) array per degree

    def __post_init__(self):
        spectra = tuple(np.asarray(s, dtype=float) for s in self.spectra)
        if len(spectra) != self.bandlimit + 1:
            raise ValueError("need one spectrum stack per degree 0..L")
        co, ci = spectra[0].shape[:2]
        for l, s in enumerate(spectra):
            if s.shape != (co, ci, 2 * l + 1):
                raise ValueError(f"degree-{l} spectra have shape {s.shape}")
        self.spectra = spectra

    @property
    def out_channels(self) -> int:
        return self.spectra[0].shape[0]

    @property
    def in_channels(self) -> int:
        return self.spectra[0].shape[1]


def local_tap_rotations(count: int, support_angle: float) -> np.ndarray:
    """Quasi-uniform rotations within support_angle of the identity.

    Axes follow a Fibonacci-sphere spiral; angles use cube-root radial
    spacing, matching the near-identity volume growth of the rotation
    group.  Deterministic.
    """
    k = np.arange(count)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - 2.0 * (k + 0.5) / count
    azim = 2.0 * np.pi * k / golden
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    axes = np.stack([s * np.cos(azim), s * np.sin(azim), z], axis=1)
    angles = support_angle * ((k + 0.5) / count) ** (1.0 / 3.0)
    return axis_angles_to_matrices(axes, angles)


@dataclass
class LocalSO3Filter:
    """Locally supported group filter: weighted taps near the identity.

    The taps are fixed at construction, which builds their harmonic
    vectors once.  Spectral blocks are recombined from those vectors on
    every application, so the tap weights stay the learnable parameters
    (and are mutated in place by optimizer steps).
    """

    bandlimit: int
    support_angle: float
    taps: np.ndarray        # (K, 3, 3) rotations within the support
    weights: np.ndarray     # (C_out, C_in, K)
    tap_psi: np.ndarray = field(init=False, repr=False)  # (K, M), read-only

    def __setattr__(self, name, value):
        if name == "taps" and "tap_psi" in self.__dict__:
            raise AttributeError("taps are fixed at construction")
        super().__setattr__(name, value)

    def __post_init__(self):
        taps = np.ascontiguousarray(self.taps, dtype=float)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if weights.ndim != 3 or weights.shape[2] != len(taps):
            raise ValueError("weights must have shape (C_out, C_in, K)")
        ang = np.arccos(np.clip(
            (np.trace(taps, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0))
        if np.any(ang > self.support_angle + 1e-9):
            raise ValueError("tap rotations exceed the filter support angle")
        taps.flags.writeable = False
        self.taps = taps
        self.weights = weights
        tap_psi = rotations_to_psi(taps, self.bandlimit)
        tap_psi.flags.writeable = False
        self.tap_psi = tap_psi

    def spectral_blocks(self) -> list[np.ndarray]:
        """Per-degree (C_out, C_in, 2l+1, 2l+1) filter blocks."""
        return _blocks(self.weights @ self.tap_psi, self.bandlimit)


# ---------------------------------------------------------------------------
# Layer operations
# ---------------------------------------------------------------------------

def _blocks(x: np.ndarray, bandlimit: int) -> list[np.ndarray]:
    """Per-degree (..., 2l+1, 2l+1) views of a (..., M) group signal."""
    offs = block_offsets(bandlimit)
    return [x[..., offs[l]:offs[l + 1]].reshape(x.shape[:-1] + (2 * l + 1,) * 2)
            for l in range(bandlimit + 1)]


def s2_conv(c: np.ndarray, f: S2FilterBank) -> np.ndarray:
    """Correlate sphere signals against rotated global filters.

    ``c`` holds real-basis coefficients (..., C_in, (L+1)^2); the result
    is the group signal (..., C_out, M).  Per degree, output[o][m, n] =
    sum_i c[i][m] * f[o, i][n]; a signal rotated by R yields output
    blocks left-multiplied by R's Wigner block.
    """
    L = f.bandlimit
    if np.iscomplexobj(c):
        raise ValueError("sphere convolution expects real-basis coefficients")
    if c.shape[-1] != (L + 1) ** 2:
        raise ValueError(f"band limits differ: signal has {c.shape[-1]} "
                         f"coefficients, filter band limit {L}")
    if c.shape[-2] != f.in_channels:
        raise ValueError(f"channel mismatch: signal {c.shape[-2]}, "
                         f"filter expects {f.in_channels}")
    out = np.empty(c.shape[:-2] + (f.out_channels, m_total(L)))
    for l, ob in enumerate(_blocks(out, L)):
        ob[...] = np.einsum("...im,oin->...omn", c[..., l * l:(l + 1) ** 2],
                            f.spectra[l])
    return out


def so3_conv(x: np.ndarray, f: LocalSO3Filter) -> np.ndarray:
    """Right-compose group signals (..., C_in, M) with a local filter.

    Per degree, output[o] = sum_i x[i] @ filter_block[o, i].T, which in
    the spatial picture is a weighted sum of right-translated samples
    s(Q @ tap_k) and therefore commutes with left rotation.
    """
    if x.shape[-1] != m_total(f.bandlimit):
        raise ValueError(f"band limits differ: signal has {x.shape[-1]} "
                         f"coefficients, filter band limit {f.bandlimit}")
    if x.shape[-2] != f.weights.shape[1]:
        raise ValueError(f"channel mismatch: signal {x.shape[-2]}, "
                         f"filter expects {f.weights.shape[1]}")
    out = np.empty(x.shape[:-2] + (f.weights.shape[0], x.shape[-1]))
    for ob, xb, h in zip(_blocks(out, f.bandlimit), _blocks(x, f.bandlimit),
                         f.spectral_blocks()):
        ob[...] = np.einsum("...imn,oipn->...omp", xb, h)
    return out


nonlin_operator_cache = LRUCache(8)
# one entry per level so3_healpix builds without allow_large
nonlin_grid_cache = LRUCache(LARGE_GRID_LEVEL)


def _grid_operators(grid: SO3Grid, bandlimit: int) -> tuple[np.ndarray, np.ndarray]:
    """(sampling matrix A, ridge re-analysis P) for a grid at a band limit.

    Keyed on the grid's rotation content, so a new grid never receives
    the operators of a freed one that happened to share its address.
    """
    def build() -> tuple[np.ndarray, np.ndarray]:
        a = grid.with_psi_table(bandlimit).psi_table
        return a, ridge_solver(a)
    return nonlin_operator_cache.get((grid.content_digest, bandlimit), build)


def _grid_relu(x: np.ndarray, a: np.ndarray,
               p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample with A, rectify, re-analyse with P; returns (out, mask).

    The leading dimensions of x (..., C, M) fold into the rows of one
    2-D GEMM per step: a stacked (B, C, M) product would run as B GEMMs
    of C rows.  out has x's shape; mask is (..., C, Q).
    """
    s = x.reshape(-1, x.shape[-1]) @ a.T
    mask = s > 0
    s *= mask
    return ((s @ p.T).reshape(x.shape),
            mask.reshape(x.shape[:-1] + mask.shape[-1:]))


def _grid_relu_backward(d_out: np.ndarray, mask: np.ndarray, a: np.ndarray,
                        p: np.ndarray) -> np.ndarray:
    """d(x) of _grid_relu given d(out), on the same flat rows: one GEMM
    through P, the mask applied in place, one GEMM through A."""
    ds = d_out.reshape(-1, d_out.shape[-1]) @ p
    ds *= mask.reshape(ds.shape)
    return (ds @ a).reshape(d_out.shape)


def so3_nonlinearity(x: np.ndarray, grid: SO3Grid) -> np.ndarray:
    """Grid ReLU of group signals (..., C, M), band limit read from M."""
    a, p = _grid_operators(grid, bandlimit_of(x.shape[-1]))
    return _grid_relu(x, a, p)[0]


def default_nonlin_grid(level: int = 2) -> SO3Grid:
    return nonlin_grid_cache.get(level, lambda: so3_healpix(level))


# ---------------------------------------------------------------------------
# Toy trainable model
# ---------------------------------------------------------------------------

@dataclass
class ToyModel:
    """Learnable pipeline: lift/analyze -> mixer -> sphere conv -> grid
    ReLU -> group conv -> harmonic vector."""

    bandlimit: int
    mixer: np.ndarray       # (C_in, C_mid)
    s2: S2FilterBank        # C_mid -> C_hidden
    so3: LocalSO3Filter     # C_hidden -> 1
    nonlin_level: int = 2

    def __post_init__(self):
        self.mixer = np.asarray(self.mixer, dtype=float)
        if self.s2.in_channels != self.mixer.shape[1]:
            raise ValueError("mixer output does not match sphere-filter input")
        if self.so3.weights.shape[1] != self.s2.out_channels:
            raise ValueError("group-filter input does not match hidden width")
        if self.so3.weights.shape[0] != 1:
            raise ValueError("final group filter must have one output channel")

    @property
    def hidden_channels(self) -> int:
        return self.s2.out_channels


def init_toy_model(seed: int, bandlimit: int, in_channels: int,
                   mid_channels: int = 6, hidden_channels: int = 8,
                   tap_count: int = 32, support_angle: float = np.pi / 8,
                   nonlin_level: int = 2) -> ToyModel:
    rng = np.random.default_rng(seed)
    mixer = rng.normal(scale=1.0 / np.sqrt(in_channels),
                       size=(in_channels, mid_channels))
    spectra = tuple(
        rng.normal(scale=1.0 / np.sqrt(mid_channels * (2 * l + 1)),
                   size=(hidden_channels, mid_channels, 2 * l + 1))
        for l in range(bandlimit + 1))
    taps = local_tap_rotations(tap_count, support_angle)
    weights = rng.normal(scale=1.0 / np.sqrt(hidden_channels * tap_count),
                         size=(1, hidden_channels, tap_count))
    return ToyModel(
        bandlimit=bandlimit,
        mixer=mixer,
        s2=S2FilterBank(bandlimit, spectra),
        so3=LocalSO3Filter(bandlimit, support_angle, taps, weights),
        nonlin_level=nonlin_level)


@dataclass
class ParamGrads:
    mixer: np.ndarray
    s2_spectra: list[np.ndarray]
    so3_weights: np.ndarray | None = None


@dataclass
class TrunkState:
    """Intermediates needed to backpropagate through the trunk.

    Arrays keep their (B, C, ·) shapes.  relu_mask is a view of the
    grid ReLU's flat (B*C_h, Q) mask, so the ReLU backward reads it
    back as flat rows without a copy.
    """

    lifted: np.ndarray              # (B, C_in, (L+1)^2) input coefficients
    coeffs: np.ndarray              # (B, C_mid, (L+1)^2)
    relu_mask: np.ndarray           # (B, C_h, Q) grid samples kept by ReLU
    hidden_flat: np.ndarray         # (B, C_h, M)
    sample_op: np.ndarray           # A (Q, M)
    reanalysis: np.ndarray          # P (M, Q)


def forward_trunk(model: ToyModel, kind: str, values: np.ndarray,
                  grid: PointSet | None = None,
                  cfg: MapperConfig | None = None,
                  mode: str = "eval", seed: int = 0
                  ) -> tuple[np.ndarray, TrunkState]:
    """Run lift/analysis/mixer/sphere-conv/ReLU; returns hidden (B, C_h, M).

    Each kind lifts every input channel to coefficients with one linear
    ``op``.  'spherical': values (B, C_in, p) or (C_in, p) on ``grid``;
    ``op`` is the ridge analysis there.  'image': values (B, C_in, H, W)
    or (C_in, H, W); ``op`` is the analysis on the points ``mapper.lift``
    keeps through ``cfg`` in ``mode`` 'train' (seeded point dropout) or
    'eval', times its weights.  The mixer then acts on coefficients.
    """
    L = model.bandlimit
    values = np.asarray(values, dtype=float)
    if kind == "spherical":
        if grid is None:
            raise ValueError("spherical input needs its point set")
        if values.ndim == 2:
            values = values[None]
        op = analysis_matrix(grid, L)
    elif kind == "image":
        if cfg is None:
            raise ValueError("image input needs a mapper config")
        if values.ndim == 3:
            values = values[None]
        points, weights = mapper_mod.lift(cfg, *values.shape[-2:], mode, seed)
        op = analysis_matrix(points, L) @ weights
    else:
        raise ValueError(f"unknown input kind: {kind!r}")

    b, c_in = values.shape[:2]
    lifted = (values.reshape(b * c_in, -1) @ op.T).reshape(b, c_in, -1)
    coeffs = np.einsum("ij,bim->bjm", model.mixer, lifted)
    a_grid, p_grid = _grid_operators(default_nonlin_grid(model.nonlin_level), L)
    hidden, mask = _grid_relu(s2_conv(coeffs, model.s2), a_grid, p_grid)
    state = TrunkState(lifted=lifted, coeffs=coeffs, relu_mask=mask,
                       hidden_flat=hidden, sample_op=a_grid, reanalysis=p_grid)
    return hidden, state


def head_wigner(model: ToyModel, hidden: np.ndarray) -> np.ndarray:
    """Group convolution to one channel; returns (B, M) harmonic vectors."""
    return so3_conv(hidden, model.so3)[:, 0]


def backward_trunk(model: ToyModel, state: TrunkState,
                   d_hidden: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Gradients of (mixer, sphere spectra) given d(hidden_flat).

    The grid ReLU's backward runs on flat (B*C_h, ·) rows, as its
    forward does.
    """
    L = model.bandlimit
    d_flat_pre = _grid_relu_backward(d_hidden, state.relu_mask,
                                     state.sample_op, state.reanalysis)
    d_spectra = []
    d_coeffs = np.zeros_like(state.coeffs)
    for l, d_pre in enumerate(_blocks(d_flat_pre, L)):
        d_spectra.append(np.einsum("bomn,bim->oin", d_pre,
                                   state.coeffs[..., l * l:(l + 1) ** 2]))
        d_coeffs[:, :, l * l:(l + 1) ** 2] = np.einsum(
            "bomn,oin->bim", d_pre, model.s2.spectra[l])
    return np.einsum("bim,bjm->ij", state.lifted, d_coeffs), d_spectra


def backward_head_wigner(model: ToyModel, state: TrunkState,
                         d_psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (d_hidden, d_tap_weights) given d(psi)."""
    L = model.bandlimit
    d_hidden = np.empty_like(state.hidden_flat)
    d_filter = np.empty(model.so3.weights.shape[:2] + d_psi.shape[-1:])
    for d_out, xb, dxb, h, dhb in zip(
            _blocks(d_psi[:, None], L), _blocks(state.hidden_flat, L),
            _blocks(d_hidden, L), model.so3.spectral_blocks(),
            _blocks(d_filter, L)):
        dxb[...] = np.einsum("bomp,oipn->bimn", d_out, h)
        dhb[...] = np.einsum("bomp,bimn->oipn", d_out, xb)
    return d_hidden, d_filter @ model.so3.tap_psi.T


# ---------------------------------------------------------------------------
# Single-sample convenience API
# ---------------------------------------------------------------------------

def _trunk_one(model: ToyModel, f, cfg: MapperConfig | None, mode: str,
               seed: int) -> tuple[np.ndarray, TrunkState]:
    """forward_trunk on one feature map or sphere signal."""
    if isinstance(f, FeatureMap):
        return forward_trunk(model, "image", f.values, cfg=cfg,
                             mode=mode, seed=seed)
    if isinstance(f, SphericalSignal):
        return forward_trunk(model, "spherical", f.values, grid=f.grid,
                             mode=mode, seed=seed)
    raise TypeError(f"unsupported input type: {type(f)}")


def forward(model: ToyModel, f, cfg: MapperConfig | None = None,
            mode: str = "eval", seed: int = 0) -> HarmonicVector:
    """End-to-end prediction for one input (feature map or sphere signal).

    The output stays in the frequency domain: the final group-signal
    channel is flattened directly into a harmonic vector.
    """
    hidden, _ = _trunk_one(model, f, cfg, mode, seed)
    psi = head_wigner(model, hidden)[0]
    return HarmonicVector(model.bandlimit, psi)


def backward(model: ToyModel, f, cfg: MapperConfig | None,
             target: HarmonicVector, loss_cfg=None,
             mode: str = "eval", seed: int = 0) -> tuple[float, ParamGrads]:
    """Loss value and parameter gradients for one input/target pair."""
    from .estimation import LossConfig, loss_and_grad
    if loss_cfg is None:
        loss_cfg = LossConfig(bandlimit=model.bandlimit)
    hidden, state = _trunk_one(model, f, cfg, mode, seed)
    psi = head_wigner(model, hidden)
    value, d_psi = loss_and_grad(psi[0], target.data, loss_cfg)
    d_hidden, d_w = backward_head_wigner(model, state, d_psi[None])
    d_mixer, d_spectra = backward_trunk(model, state, d_hidden)
    return value, ParamGrads(d_mixer, d_spectra, so3_weights=d_w)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def write_checkpoint(path: str, model, head_meta: dict,
                     head_arrays: dict[str, np.ndarray]) -> None:
    """Checkpoint of a trunk (mixer, sphere filters) plus head fields.

    ``model`` is a ToyModel or any model with the same trunk attributes.
    """
    meta = {"layout_version": CHECKPOINT_LAYOUT_VERSION,
            "bandlimit": model.bandlimit,
            "nonlin_level": model.nonlin_level, **head_meta}
    arrays = {"mixer": model.mixer, **head_arrays}
    for l, s in enumerate(model.s2.spectra):
        arrays[f"s2_spectra_{l}"] = s
    write_blob(path, "checkpoint", meta, arrays)


def save_model(path: str, model: ToyModel, extra_meta: dict | None = None) -> None:
    write_checkpoint(path, model,
                     {"support_angle": model.so3.support_angle,
                      **(extra_meta or {})},
                     {"so3_taps": model.so3.taps,
                      "so3_weights": model.so3.weights})


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a checkpoint file of either head kind."""
    _, meta, arrays = read_blob(path, expect_kind="checkpoint")
    if meta.get("layout_version") != CHECKPOINT_LAYOUT_VERSION:
        raise IncompatibleFileError(f"{path}: unsupported checkpoint layout")
    return meta, arrays


def s2_bank_from_arrays(bandlimit: int, arrays: dict) -> S2FilterBank:
    """Sphere-convolution filters stored in a checkpoint."""
    return S2FilterBank(bandlimit, tuple(arrays[f"s2_spectra_{l}"]
                                         for l in range(bandlimit + 1)))


def model_from_arrays(meta: dict, arrays: dict) -> ToyModel:
    """Wigner-head model from the contents of a checkpoint."""
    bandlimit = meta["bandlimit"]
    return ToyModel(
        bandlimit=bandlimit,
        mixer=arrays["mixer"],
        s2=s2_bank_from_arrays(bandlimit, arrays),
        so3=LocalSO3Filter(bandlimit, meta["support_angle"],
                           arrays["so3_taps"], arrays["so3_weights"]),
        nonlin_level=meta["nonlin_level"])


def load_model(path: str) -> tuple[ToyModel, dict]:
    meta, arrays = read_checkpoint(path)
    return model_from_arrays(meta, arrays), meta
