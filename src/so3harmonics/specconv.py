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
  and projects back to band-limited blocks by ridge least squares:
  out = relu(x A^T) A H, with H the ridge inverse of the Gram matrix
  A^T A of the sampling A.  It runs in fiber coefficients
  (``FiberRelu``): the sampling is A = sum_j trig_j^T (x) U_j over the
  trig rows j, so A^T A = sum_{j, j'} T[j, j'] U_j^T U_j' with T =
  trig trig^T, built in closed form (``FiberTable.gram``).  T, and so
  A^T A and H, are block-diagonal in the |n| column classes of
  ``estimation.FiberTable``, so per class one table U_k maps rows to
  fiber cos/sin coefficients and one table G_k = U_k H_k maps
  rectified coefficients back, with a small trig product between them.
  Any other grid raises ``IllConditionedError``, and so does a model
  whose grid cannot certify at its band limit, when it is built
  (``nonlin_operator``): level 0 certifies L <= 2, level 1 L <= 5, and
  levels 2 and 3 L <= 8.

The toy network chains: lift/analysis of each input channel to harmonic
coefficients (one linear operator per input kind), channel mixer, sphere
convolution, grid ReLU, group convolution, and flattens the single output
channel into a harmonic vector.  Gradients are reverse-mode, propagated
by hand through the (almost entirely linear) stages.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import mapper as mapper_mod
from ._cache import LRUCache
from .estimation import LossConfig, fiber_table, loss_and_grad
from .grids import LARGE_GRID_LEVEL, SO3Grid, so3_healpix
from .harmonics import (GRAM_MAX_CONDITION, IllConditionedError, PointSet,
                        SphericalSignal, analysis_matrix, gram_ridge_inverse)
# unused here; perfbench's tracer tests call it through this module
from .harmonics import ridge_solver  # noqa: F401
from .mapper import FeatureMap, MapperConfig
from .rotations import axis_angles_to_matrices
from .wigner import (HarmonicVector, bandlimit_of, block_offsets, m_total,
                     rotations_to_psi)


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


nonlin_operator_cache = LRUCache(8)
# one entry per level so3_healpix builds without allow_large
nonlin_grid_cache = LRUCache(LARGE_GRID_LEVEL)
# Byte budget of the widest per-row temporary the grid ReLU and its
# backward hold at once, the J N fiber coefficients of a row (at least
# one row).  ``harness.evaluate`` runs the ReLU on a whole split at once.
_RELU_CHUNK_BYTES = 8 << 20
# Byte budget of the samples one trig product writes: the rectify and
# the transposed trig product then read them from cache.
_TRIG_CHUNK_BYTES = 256 << 10
# Largest off-class entry of a grid's T = trig trig^T, relative to its
# largest entry, for which the ReLU runs class by class.
_CLASS_TOL = 1e-12


def _chunk_rows(width: int) -> int:
    """Rows of a ReLU pass chunk: ``_RELU_CHUNK_BYTES`` of its widest
    per-row temporary, ``width`` doubles a row (at least one row)."""
    return max(1, _RELU_CHUNK_BYTES // (8 * width))


def _row_chunks(count: int, width: int):
    step = _chunk_rows(width)
    return (slice(i, i + step) for i in range(0, count, step))


def _raise_mmap_threshold() -> None:
    """Allocate and free one untouched block larger than any per-call
    temporary the chunk budgets allow.

    glibc maps a request at or above M_MMAP_THRESHOLD (128 KiB at start)
    afresh, and freeing an mmapped chunk raises M_MMAP_THRESHOLD to that
    chunk's size, up to 32 MiB, and M_TRIM_THRESHOLD to twice that size.
    After this free the ReLU's (J, rows, N) coefficient buffers and
    ``decode_poses``' score chunks (~4 MB each at L = 6) come from the
    heap.  Without it they can be mapped and page-faulted afresh on every
    call: ~2,000 minor faults a ``train_image`` step.  Other allocators
    ignore the block.  Its size is in bytes: as many float64 entries
    would pass the 32 MiB cap and change nothing.
    """
    # a MiB above the budget covers malloc's chunk header and page rounding
    np.empty(_RELU_CHUNK_BYTES + (1 << 20), dtype=np.uint8)


@dataclass(frozen=True)
class FiberRelu:
    """Grid ReLU of a HEALPix-Hopf grid run in fiber coefficients.

    With the columns in |n|-class order (``FiberTable``), class k's rows
    x_k give each fiber's cos and sin coefficients as x_k U_k^T, and the
    (J, F) trig table turns the J coefficients of a fiber into its F
    samples.  The ridge inverse H of the Gram matrix A^T A is
    block-diagonal in the classes, so the re-analysis adjoint(y) @ H is,
    per class, y_k U_k H_k = y_k G_k.  The forward is one pass:

        coefficients x_k U_k^T -> trig product -> mask, ReLU ->
        transposed trig product -> y_k G_k

    and the backward is the same pass with G_k^T in, the mask multiply,
    and U_k out.  No (M, M) product, partner gather or whole (rows, Q)
    float sample array is made.
    """

    order: np.ndarray          # (M,) column at each class position
    order_inverse: np.ndarray  # (M,) class position of each column
    trig: np.ndarray           # (J, F) trig basis at the fiber angles
    spans: tuple               # per class, (first trig row, class positions)
    u: tuple                   # per class, U_k (h, N, M_k) of FiberTable.class_blocks
    g: tuple                   # per class, G_k = U_k H_k (h, N, M_k)

    @property
    def size(self) -> int:
        return self.u[0].shape[1] * self.trig.shape[1]

    def forward(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = np.empty((len(rows), self.size), dtype=bool)
        return self._pass(rows, mask, self.u, self.g, True), mask

    def backward(self, rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return self._pass(rows, mask, self.g, self.u, False)

    def _pass(self, rows, mask, first, last, forward: bool) -> np.ndarray:
        """The rows gathered into class order once, run in row chunks
        (``_row_chunks`` of their J N fiber coefficients), the result
        written back over them and un-gathered once."""
        x = rows[:, self.order]
        (j_count, nfiber), nbase = self.trig.shape, self.u[0].shape[1]
        step = max(1, _TRIG_CHUNK_BYTES // (8 * nfiber))
        buf = np.empty((j_count, min(len(x), _chunk_rows(j_count * nbase)), nbase))
        for r in _row_chunks(len(x), j_count * nbase):
            xr = x[r]
            c = buf[:, :len(xr)]
            for (j, cols), f in zip(self.spans, first):
                for t, ft in enumerate(f):
                    np.matmul(xr[:, cols], ft.T, out=c[j + t])
            flat = c.reshape(j_count, -1)           # (J, fibers of the chunk)
            m = mask[r].reshape(-1, nfiber)         # (fibers of the chunk, F)
            for i in range(0, flat.shape[1], step):
                s = flat[:, i:i + step].T @ self.trig
                if forward:
                    np.greater(s, 0, out=m[i:i + step])
                    np.maximum(s, 0, out=s)
                else:
                    s *= m[i:i + step]
                np.matmul(self.trig, s.T, out=flat[:, i:i + step])
            for (j, cols), f in zip(self.spans, last):
                np.matmul(c[j], f[0], out=xr[:, cols])
                for t in range(1, len(f)):
                    xr[:, cols] += c[j + t] @ f[t]
        return x[:, self.order_inverse]


def _relu_operator(grid: SO3Grid, bandlimit: int) -> FiberRelu:
    """The grid ReLU's operator at a band limit.

    The Gram matrix A^T A comes in closed form from the grid's fiber
    table (``FiberTable.gram``).  Raises IllConditionedError for a grid
    without a fiber table (not HEALPix-Hopf, or rotations moved off
    their fibers), or unless T = trig trig^T is block-diagonal in the
    |n| classes (to ``_CLASS_TOL``), so that A^T A is too, and the
    eigenvalues of its class blocks certify kappa(A), as in
    ``ridge_solver``'s Gram route; then each class block gives its
    H_k = V_k diag(1/(w_k + ridge)) V_k^T, so that P = H A^T.  Keyed on
    the grid's rotation content, so a new grid never receives the
    operator of a freed one that happened to share its address.
    """
    def build() -> FiberRelu:
        table = fiber_table(grid, bandlimit)
        if table is None:
            raise IllConditionedError(f"the {grid.kind} grid of {grid.size} "
                                      "rotations has no Hopf fiber structure")
        m = table.base_psi.shape[1]
        where = f"the {grid.size}-rotation grid at M = {m}"
        blocks = table.class_blocks()
        t, grams = table.gram(blocks)
        classes = (np.arange(len(t)) + 1) // 2  # trig rows 2k - 1, 2k are class k's
        off = np.where(classes[:, None] != classes, t, 0.0)
        if not np.max(np.abs(off)) <= _CLASS_TOL * np.max(np.abs(t)):
            raise IllConditionedError(f"the Gram matrix of {where} couples "
                                      "its |n| classes")
        h = gram_ridge_inverse(grams)
        if h is None:
            raise IllConditionedError(
                f"the Gram matrix of {where} does not certify kappa <= "
                f"{GRAM_MAX_CONDITION:g}"
                + (" (fewer samples than coefficients)" if grid.size < m else ""))
        _raise_mmap_threshold()
        return FiberRelu(table.order, table.order_inverse, table.trig,
                         tuple((j, cols) for j, cols, _ in blocks),
                         tuple(u for _, _, u in blocks),
                         tuple(u @ hk for (_, _, u), hk in zip(blocks, h)))
    return nonlin_operator_cache.get((grid.content_digest, bandlimit), build)


def _grid_relu(x: np.ndarray, op: FiberRelu) -> tuple[np.ndarray, np.ndarray]:
    """Sample, rectify, re-analyse (see ``_relu_operator``); returns
    (out, mask).

    The leading dimensions of x (..., C, M) fold into rows, which run in
    ``_row_chunks``, each as 2-D GEMMs: a stacked (B, C, M) product
    would run as B GEMMs of C rows.  out has x's shape; mask is
    (..., C, Q).
    """
    out, mask = op.forward(x.reshape(-1, x.shape[-1]))
    return out.reshape(x.shape), mask.reshape(x.shape[:-1] + (op.size,))


def _grid_relu_backward(d_out: np.ndarray, mask: np.ndarray,
                        op: FiberRelu) -> np.ndarray:
    """d(x) of _grid_relu given d(out), on the same flat row chunks:
    transposed re-analysis, the mask applied in place, transposed
    sampling."""
    rows = d_out.reshape(-1, d_out.shape[-1])
    return op.backward(rows, mask.reshape(len(rows), -1)).reshape(d_out.shape)


def so3_nonlinearity(x: np.ndarray, grid: SO3Grid) -> np.ndarray:
    """Grid ReLU of group signals (..., C, M), band limit read from M."""
    return _grid_relu(x, _relu_operator(grid, bandlimit_of(x.shape[-1])))[0]


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
class ParamGrads:
    mixer: np.ndarray
    s2_spectra: list[np.ndarray]
    so3_weights: np.ndarray | None = None


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


# Train-mode image draws tried per call.  At the CLI defaults 7 in 44,000
# dropout draws keep points whose design exceeds MAX_CONDITION.
IMAGE_DRAWS = 8


def _image_operator(cfg: MapperConfig, shape: tuple[int, int], mode: str,
                    seed: int, bandlimit: int) -> np.ndarray:
    """Analysis on the points ``mapper.lift`` keeps, times their weights.

    Draw 0 uses ``seed``; draw d >= 1 uses a seed hashed from (seed, d).
    """
    for draw in range(IMAGE_DRAWS):
        draw_seed = seed if draw == 0 else int(
            np.random.SeedSequence((seed, draw)).generate_state(1)[0])
        points, weights = mapper_mod.lift(cfg, *shape, mode, draw_seed)
        try:
            return analysis_matrix(points, bandlimit) @ weights
        except IllConditionedError:
            if mode != "train" or draw == IMAGE_DRAWS - 1:
                raise


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
    'eval', times its weights.  A train-mode draw whose kept points give
    an ill-conditioned analysis is replaced by the next draw of a fixed
    sequence seeded from ``seed`` (at most ``IMAGE_DRAWS`` draws); a draw
    that passes is used as it is.  The mixer then acts on coefficients.
    """
    L = model.bandlimit
    if np.iscomplexobj(values):
        raise ValueError("trunk inputs must be real")
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
        op = _image_operator(cfg, values.shape[-2:], mode, seed, L)
    else:
        raise ValueError(f"unknown input kind: {kind!r}")

    b, c_in = values.shape[:2]
    lifted = (values.reshape(b * c_in, -1) @ op.T).reshape(b, c_in, -1)
    coeffs = _channel_gemm(lifted[..., None], model.mixer[:, None, :, None])[..., 0]
    relu = nonlin_operator(model.nonlin_level, L)
    hidden, mask = _grid_relu(s2_conv(coeffs, model.s2), relu)
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
    d_flat_pre = _grid_relu_backward(d_hidden, state.relu_mask, state.relu)
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
    if loss_cfg is None:
        loss_cfg = LossConfig(bandlimit=model.bandlimit)
    hidden, state = _trunk_one(model, f, cfg, mode, seed)
    psi = head_wigner(model, hidden)
    value, d_psi = loss_and_grad(psi[0], target.data, loss_cfg)
    d_hidden, d_w = backward_head_wigner(model, state, d_psi[None])
    d_mixer, d_spectra = backward_trunk(model, state, d_hidden)
    return value, ParamGrads(d_mixer, d_spectra, so3_weights=d_w)
