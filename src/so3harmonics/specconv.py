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
- Per degree, both convolutions and their gradients contract the
  (channel, column) axes of the blocks as BLAS matrix products
  (``_channel_gemm``).
- The nonlinearity samples the group signal on a HEALPix-Hopf SO(3)
  grid (dot products with the grid's harmonic vectors), applies ReLU,
  and projects back to band-limited blocks by ridge least squares,
  through the grid's Hopf fibers (``fibers.FiberRelu``).  Any other grid
  raises ``IllConditionedError``, and so does a model whose grid cannot
  certify at its band limit, when it is built (``nonlin_operator``):
  level 0 certifies L <= 2, level 1 L <= 5, and levels 2 and 3 L <= 8.

The toy network chains: lift of each input channel to harmonic
coefficients (ridge analysis of a sphere signal, fixed adjoint
projection of an image), channel mixer, sphere convolution, grid ReLU,
group convolution, and flattens the single output channel into a
harmonic vector.  The model functions take batches only: a prediction
is ``forward_trunk`` then ``head_wigner``, and a training step adds
``estimation.loss_and_grad``, ``backward_head_wigner`` and
``backward_trunk``.  Gradients are reverse-mode, propagated by hand
through the (almost entirely linear) stages.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from ._cache import LRUCache
from .fibers import FiberRelu, _relu_operator
from .grids import LARGE_GRID_LEVEL, SO3Grid, so3_healpix
from .harmonics import (IllConditionedError, PointSet, analysis_matrix,
                        design_matrix)
# unused here; perfbench's tracer tests call it through this module
from .harmonics import ridge_solver  # noqa: F401
from .mapper import MapperConfig, lift
from .rotations import axis_angles_to_matrices
from .wigner import block_offsets, m_total, rotations_to_psi


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


def _rows(x: np.ndarray) -> np.ndarray:
    """(..., C, m, n) blocks as (..., m, C n) row matrices: the channel
    axis moved next to the last axis and flattened with it."""
    x = np.swapaxes(x, -3, -2)
    return x.reshape(x.shape[:-2] + (-1,))


def _channel_gemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """y[..., o, m, p] = sum_{c, n} x[..., c, m, n] w[c, n, o, p] (a view).

    Every sample is one BLAS GEMM, (m, C n) @ (C n, O p), run by numpy's
    stacked matmul over the leading axes, so a sample's rows never
    depend on the batch around it.  One GEMM over all (... m) rows is
    slightly faster at the training batch, but OpenBLAS's AVX-512
    kernels round a row differently with the row count.
    """
    y = _rows(x) @ w.reshape(-1, w.shape[2] * w.shape[3])
    return np.swapaxes(y.reshape(y.shape[:-1] + w.shape[2:]), -3, -2)


def _channel_gemm_grad(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """g[c, n, o, p] = sum_{..., m} x[..., c, m, n] d[..., o, m, p], the
    gradient of ``_channel_gemm``'s w given d(y): one GEMM over the rows
    of every sample."""
    xr = _rows(x).reshape(-1, x.shape[-3] * x.shape[-1])
    dr = _rows(d).reshape(-1, d.shape[-3] * d.shape[-1])
    return (xr.T @ dr).reshape(x.shape[-3], x.shape[-1], d.shape[-3], d.shape[-1])


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
        # (o, i, n) -> (i, 1, o, n): the coefficients are blocks with n = 1
        ob[...] = _channel_gemm(c[..., l * l:(l + 1) ** 2, None],
                                f.spectra[l].transpose(1, 0, 2)[:, None])
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
        ob[...] = _channel_gemm(xb, h.transpose(1, 3, 0, 2))
    return out


# one entry per level so3_healpix builds without allow_large
nonlin_grid_cache = LRUCache(LARGE_GRID_LEVEL)


def default_nonlin_grid(level: int = 2) -> SO3Grid:
    return nonlin_grid_cache.get(level, lambda: so3_healpix(level))


def nonlin_operator(level: int, bandlimit: int) -> FiberRelu:
    """``default_nonlin_grid(level)``'s ReLU operator at ``bandlimit``.

    Models call it when they are built.  Its IllConditionedError names
    the smallest level below ``LARGE_GRID_LEVEL`` that certifies at the
    band limit; a level outside that range raises ResourceLimitError.
    """
    try:
        return _relu_operator(default_nonlin_grid(level), bandlimit)
    except IllConditionedError as exc:
        reason = exc
    for k in range(LARGE_GRID_LEVEL):
        with suppress(IllConditionedError):
            _relu_operator(default_nonlin_grid(k), bandlimit)
            hint = f"nonlin_level {k} is the smallest that certifies"
            break
    else:
        hint = f"no nonlin_level in 0..{LARGE_GRID_LEVEL - 1} certifies"
    raise IllConditionedError(f"nonlin_level {level} cannot run the grid "
                              f"ReLU at band limit {bandlimit}: {reason}; "
                              f"{hint}") from None


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
        if self.mixer.ndim != 2 or self.mixer.shape[1] != self.s2.in_channels:
            raise ValueError("mixer output does not match sphere-filter input")
        if self.so3.weights.shape[1] != self.s2.out_channels:
            raise ValueError("group-filter input does not match hidden width")
        if self.so3.weights.shape[0] != 1:
            raise ValueError("final group filter must have one output channel")
        nonlin_operator(self.nonlin_level, self.bandlimit)

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
class TrunkState:
    """Intermediates needed to backpropagate through the trunk.

    Arrays keep their (B, C, ·) shapes.  relu_mask is a view of the
    grid ReLU's flat (B*C_h, Q) mask, so the ReLU backward reads it
    back as flat rows without a copy.  relu is the operator of
    ``nonlin_operator``.
    """

    lifted: np.ndarray              # (B, C_in, (L+1)^2) input coefficients
    coeffs: np.ndarray              # (B, C_mid, (L+1)^2)
    relu_mask: np.ndarray           # (B, C_h, Q) grid samples kept by ReLU
    hidden_flat: np.ndarray         # (B, C_h, M)
    relu: FiberRelu                 # the grid ReLU's operator


def _image_operator(cfg: MapperConfig, shape: tuple[int, int], mode: str,
                    seed: int, bandlimit: int) -> np.ndarray:
    """Adjoint projection of the points ``mapper.lift`` keeps, times their
    weights: each of the n kept points carries 2 pi / n, its share of the
    hemisphere's area, as its quadrature weight."""
    points, weights = lift(cfg, *shape, mode, seed)
    return (2.0 * np.pi / points.size) * design_matrix(points, bandlimit).T @ weights


def forward_trunk(model: ToyModel, kind: str, values: np.ndarray,
                  grid: PointSet | None = None,
                  cfg: MapperConfig | None = None,
                  mode: str = "eval", seed: int = 0
                  ) -> tuple[np.ndarray, TrunkState]:
    """Run lift/analysis/mixer/sphere-conv/ReLU; returns hidden (B, C_h, M).

    Takes batches only; a single input is a batch of one.  Each kind
    lifts every input channel to coefficients with one linear ``op``.
    'spherical': values (B, C_in, p) on ``grid``; ``op`` is the ridge
    analysis there.  'image': values (B, C_in, H, W); ``op`` is the
    area-weighted adjoint projection of the points ``mapper.lift`` keeps
    through ``cfg`` in ``mode`` 'train' (seeded point dropout) or
    'eval', times its weights; it solves no system, so every draw is
    used as drawn.  The mixer then acts on coefficients.
    """
    L = model.bandlimit
    if np.iscomplexobj(values):
        raise ValueError("trunk inputs must be real")
    values = np.asarray(values, dtype=float)
    if kind == "spherical":
        if grid is None:
            raise ValueError("spherical input needs its point set")
        if values.ndim != 3:
            raise ValueError("spherical values must have shape (B, C_in, p), "
                             f"got {values.shape}")
        op = analysis_matrix(grid, L)
    elif kind == "image":
        if cfg is None:
            raise ValueError("image input needs a mapper config")
        if values.ndim != 4:
            raise ValueError("image values must have shape (B, C_in, H, W), "
                             f"got {values.shape}")
        op = _image_operator(cfg, values.shape[-2:], mode, seed, L)
    else:
        raise ValueError(f"unknown input kind: {kind!r}")

    b, c_in = values.shape[:2]
    lifted = (values.reshape(b * c_in, -1) @ op.T).reshape(b, c_in, -1)
    coeffs = _channel_gemm(lifted[..., None], model.mixer[:, None, :, None])[..., 0]
    relu = nonlin_operator(model.nonlin_level, L)
    hidden, mask = relu.forward(s2_conv(coeffs, model.s2))
    state = TrunkState(lifted=lifted, coeffs=coeffs, relu_mask=mask,
                       hidden_flat=hidden, relu=relu)
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
    d_flat_pre = state.relu.backward(d_hidden, state.relu_mask)
    d_spectra = []
    d_coeffs = np.empty_like(state.coeffs)
    for l, d_pre in enumerate(_blocks(d_flat_pre, L)):
        c = state.coeffs[..., l * l:(l + 1) ** 2, None]
        d_spectra.append(_channel_gemm_grad(c, d_pre)[:, 0].transpose(1, 0, 2))
        d_coeffs[..., l * l:(l + 1) ** 2] = _channel_gemm(
            d_pre, model.s2.spectra[l].transpose(0, 2, 1)[..., None])[..., 0]
    d_mixer = _channel_gemm_grad(state.lifted[..., None], d_coeffs[..., None])
    return d_mixer[:, 0, :, 0], d_spectra


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
        dxb[...] = _channel_gemm(d_out, h.transpose(0, 2, 1, 3))
        dhb[...] = _channel_gemm_grad(d_out, xb).transpose(0, 2, 1, 3)
    return d_hidden, d_filter @ model.so3.tap_psi.T
