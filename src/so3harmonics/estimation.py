"""Training objectives, grid inference, pose readout, and metrics.

The regression losses compare flattened harmonic vectors entrywise with
per-degree weights; the default weight 1/(2l+1) equalizes the energy
contribution of every degree (each block has squared Frobenius norm
2l+1), which makes the induced distance between two rotations' vectors
depend only on their relative rotation.

Inference scores predicted vectors p against every rotation of an SO(3)
grid, softmaxes each row into a categorical pose distribution, and reads
out the argmax rotation or refines it by gradient ascent on SO(3) with
exact generator derivatives.  One private scoring function and its
adjoint serve the distribution, the cross-entropy losses and
``decode_poses``; ``specconv``'s grid ReLU builds its per-class tables
and Gram blocks from the same table (``FiberTable.class_blocks``,
``FiberTable.gram``).  A
HEALPix-Hopf grid is scored through its fibers (Yershova et al., IJRR
2010): its rotations are A_i Rz(psi_f) with psi_f = 2 pi f / F, and
D^l(Rz(psi)) only mixes the columns n and -n of one class |n| = k, with
weights cos(k psi) and +-sin(k psi).  So per class k one GEMM of the
rows p (and their signed partners) against the class's columns of
psi(A) gives each fiber's cos/sin coefficients, and one product with
the (2L+1, F) trig table gives its F scores: about 2 M N + (2L+1) N F
multiply-adds per row against M N F for the dense table (N = 12 * 4^level
fibers, M the vector length), exact at every level.
``fiber_table`` caches psi(A) and T (2.8 MB at level 3 and L = 6,
against 134 MB for the dense table) after checking the fiber structure
on the rotations themselves.  Other grids are scored against their
dense psi table.  ``decode_poses`` walks the batch in row chunks of a
fixed byte budget and keeps only each row's argmax and its confidence
readouts.  Refinement takes its generator derivatives as one stacked
matmul per step.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from . import rotations, wigner
from ._cache import LRUCache
from .grids import SO3Grid, nearest_index, so3_healpix_count
from .rotations import RotationMatrix

LOSS_KINDS = ("mse", "l1", "huber", "cosine", "distribution_ce", "mse_plus_ce")


def default_level_weights(bandlimit: int) -> np.ndarray:
    return 1.0 / (2.0 * np.arange(bandlimit + 1) + 1.0)


@dataclass(frozen=True)
class LossConfig:
    bandlimit: int
    kind: str = "mse"
    level_weights: np.ndarray | None = None
    huber_delta: float = 0.1
    softmax_temperature: float = 1.0
    ce_lambda: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.softmax_temperature <= 0:
            raise ValueError("softmax temperature must be positive")
        w = (default_level_weights(self.bandlimit)
             if self.level_weights is None
             else np.asarray(self.level_weights, dtype=float))
        if len(w) != self.bandlimit + 1 or np.any(w <= 0):
            raise ValueError("need one positive weight per degree 0..L")
        object.__setattr__(self, "level_weights", w)

    def entry_weights(self) -> np.ndarray:
        """Per-coefficient weights, one block of (2l+1)^2 per degree."""
        return np.repeat(self.level_weights,
                         (2 * np.arange(self.bandlimit + 1) + 1) ** 2)


@dataclass(frozen=True)
class PoseDistribution:
    grid: SO3Grid
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim not in (1, 2) or probs.shape[-1] != self.grid.size:
            raise ValueError("probability vector length must match grid size")
        # comparisons written so that NaN and inf fail; one check per row
        if not (probs.min() >= 0 and np.all(abs(probs.sum(axis=-1) - 1) <= 1e-9)):
            raise ValueError("probabilities must be finite, non-negative and sum to 1")
        object.__setattr__(self, "probs", probs)


def _flat(v) -> np.ndarray:
    return v.data if isinstance(v, wigner.HarmonicVector) else np.asarray(v, dtype=float)


# ---------------------------------------------------------------------------
# Losses (value + gradient with respect to the prediction)
# ---------------------------------------------------------------------------

def mse_loss(pred, gt, cfg: LossConfig) -> float:
    """Weighted squared error over all vector entries."""
    return loss_and_grad(pred, gt, replace(cfg, kind="mse"))[0]


def _regression_loss_and_grad(pred: np.ndarray, gt: np.ndarray,
                              cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses (B,) and gradients (B, M) of a regression kind."""
    w = cfg.entry_weights()
    d = pred - gt
    if cfg.kind == "mse":
        return np.sum(w * d * d, axis=-1), 2.0 * w * d
    if cfg.kind == "l1":
        return np.sum(w * np.abs(d), axis=-1), w * np.sign(d)
    if cfg.kind == "huber":
        delta = cfg.huber_delta
        a = np.abs(d)
        quad = a <= delta
        val = np.sum(w * np.where(quad, 0.5 * d * d, delta * (a - 0.5 * delta)),
                     axis=-1)
        return val, w * np.where(quad, d, delta * np.sign(d))
    if cfg.kind == "cosine":
        # weighted cosine distance; scale-free, so magnitude goes unused
        pn = np.sqrt(np.sum(w * pred * pred, axis=-1, keepdims=True))
        gn = np.sqrt(np.sum(w * gt * gt, axis=-1, keepdims=True))
        dot = np.sum(w * pred * gt, axis=-1, keepdims=True)
        live = pn >= 1e-30
        pn = np.where(live, pn, 1.0)
        # libm pow per row: numpy's vectorized power may round differently,
        # and a row must score the same alone as in a batch
        pn3 = np.array([[v ** 3] for v in pn[:, 0].tolist()])
        grad = -(w * gt / (pn * gn)) + (dot / (pn3 * gn)) * (w * pred)
        return (np.where(live, 1.0 - dot / (pn * gn), 1.0)[:, 0],
                np.where(live, grad, 0.0))
    raise ValueError(f"not a regression loss: {cfg.kind!r}")


def distribution_ce_loss(pred, gt_rotation, grid: SO3Grid,
                         cfg: LossConfig) -> float:
    """Cross-entropy of the grid softmax against the nearest-bin label."""
    return loss_and_grad(pred, None, replace(cfg, kind="distribution_ce"),
                         gt_rotation, grid)[0]


def _ce_loss_and_grad(pred: np.ndarray, gt_rotation, grid: SO3Grid | None,
                      cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross-entropies (B,) against the nearest-bin labels of
    ``gt_rotation`` (3, 3) or (B, 3, 3), and their gradients (B, M)."""
    if grid is None:
        raise ValueError(f"{cfg.kind} loss needs a grid")
    if gt_rotation is None:
        raise ValueError(f"{cfg.kind} loss needs the ground-truth rotation")
    m = gt_rotation.m if isinstance(gt_rotation, RotationMatrix) else np.asarray(gt_rotation)
    target = nearest_index(grid, np.reshape(m, (-1, 3, 3)))
    rows = np.arange(len(pred))
    logits = _scores(pred, grid)
    logits /= cfg.softmax_temperature
    logits -= logits.max(axis=-1, keepdims=True)
    logexp = np.log(np.sum(np.exp(logits), axis=-1))
    d_logits = np.exp(logits - logexp[:, None])
    d_logits[rows, target] -= 1.0
    grad = _scores_adjoint(d_logits, grid, wigner.bandlimit_of(pred.shape[-1]))
    grad /= cfg.softmax_temperature
    return logexp - logits[rows, target], grad


def loss_and_grad(pred, gt, cfg: LossConfig, gt_rotation=None,
                  grid: SO3Grid | None = None) -> tuple[float, np.ndarray]:
    """Loss and d(loss)/d(pred) for one vector (M,) or a batch (B, M).

    A batch returns the mean of its rows' losses and each row's gradient
    divided by B.  The cross-entropy kinds need ``grid`` with its psi
    table and the ground-truth rotation(s) ``gt_rotation``.
    """
    pred = _flat(pred)
    rows = np.atleast_2d(pred)
    if cfg.kind != "distribution_ce" and gt is None:
        raise ValueError(f"{cfg.kind} loss needs the ground-truth vector")
    gt_rows = None if gt is None else np.atleast_2d(_flat(gt))
    if cfg.kind == "distribution_ce":
        values, grads = _ce_loss_and_grad(rows, gt_rotation, grid, cfg)
    elif cfg.kind == "mse_plus_ce":
        v1, g1 = _regression_loss_and_grad(rows, gt_rows, replace(cfg, kind="mse"))
        v2, g2 = _ce_loss_and_grad(rows, gt_rotation, grid, cfg)
        values, grads = v1 + cfg.ce_lambda * v2, g1 + cfg.ce_lambda * g2
    else:
        values, grads = _regression_loss_and_grad(rows, gt_rows, cfg)
    if pred.ndim == 1:
        return float(values[0]), grads[0]
    scale = 1.0 / len(rows)
    # rows summed in order, as a loop over the samples adds them
    return float(np.cumsum(values)[-1] * scale), grads * scale


# ---------------------------------------------------------------------------
# Grid scoring
# ---------------------------------------------------------------------------

# Byte budget of one decode chunk's (rows, grid size) score array (at
# least one row).  A chunk also holds its softmax numerators, so a decode
# peaks near twice this on top of the tables, whatever the batch: the
# whole (1000, 36864) level-3 array of a 1,000-row batch is 295 MB.  The
# softmax passes then run on cache-sized arrays: a 40-row level-3 decode
# took ~14 ms at 4 MB against ~26 ms at 16 MB on a 2-CPU x86 VM.
_CHUNK_BYTES = 4 << 20
# Largest entry of |R - A_i Rz(psi_f)| a grid may show and still be
# scored through its fibers.
_FIBER_TOL = 1e-12

fiber_table_cache = LRUCache(6)


@dataclass(frozen=True)
class FiberTable:
    """Factored scoring table of a grid whose rotation i F + f is
    A_i Rz(2 pi f / F).

    D^l(Rz(psi)) keeps every column class |n| = k: it maps column n to
    cos(k psi) times itself plus sin(k psi) times +-1 times column -n.
    So with the columns sorted by class, each class k costs one GEMM of
    the rows, stacked over their signed partner columns, against that
    class's slice of psi(A) (cos and sin coefficients per fiber), and
    one (J, F) trig product turns the J = 2L+1 coefficients of every
    fiber into its F scores, in the grid's own order i F + f.
    """

    base_psi: np.ndarray           # (N, M) harmonic vectors of the A_i, columns in ``order``
    order: np.ndarray              # (M,) column at each class position, |n| ascending
    partner: np.ndarray            # (M,) column (l, m, -n) of that (l, m, n)
    order_inverse: np.ndarray      # (M,) class position of each column: argsort(order)
    partner_inverse: np.ndarray    # (M,) argsort(partner)
    sign: np.ndarray               # (M,) its sin(k psi) coefficient in D^l(Rz(psi))
    bounds: tuple[int, ...]        # class k holds positions bounds[k]:bounds[k + 1]
    trig: np.ndarray               # (J, F) trig basis at the fiber angles

    @property
    def size(self) -> int:
        """Number of grid rotations, N F."""
        return len(self.base_psi) * self.trig.shape[1]

    def _classes(self):
        """Per class k: (h, j, cols), its h stacked row blocks (the rows
        and, for k > 0, their signed partners), its first trig row j and
        its column slice."""
        for k, (lo, hi) in enumerate(zip(self.bounds, self.bounds[1:])):
            yield (2 if k else 1), max(2 * k - 1, 0), slice(lo, hi)

    def scores(self, rows: np.ndarray) -> np.ndarray:
        """<psi(R), p> for every grid rotation R and row p of (B, M): (B, N F)."""
        b, (nbase, m) = len(rows), self.base_psi.shape
        z = np.empty((2, b, m))  # the rows in class order, then their signed partners
        z[0] = rows[:, self.order]
        z[1] = rows[:, self.partner]
        z[1] *= self.sign
        x = np.empty((len(self.trig), b, nbase))
        for h, j, cols in self._classes():
            np.matmul(z[:h, :, cols].reshape(h * b, -1), self.base_psi[:, cols].T,
                      out=x[j:j + h].reshape(h * b, nbase))
        return (x.reshape(len(x), -1).T @ self.trig).reshape(b, -1)

    def adjoint(self, g: np.ndarray) -> np.ndarray:
        """sum_R g[:, R] psi(R) for weights g (B, N F): (B, M), the
        adjoint of ``scores``."""
        b, (nbase, m) = len(g), self.base_psi.shape
        y = self.trig @ g.reshape(b * nbase, -1).T
        dz = np.empty((2, b, m))
        dz[1, :, :self.bounds[1]] = 0.0  # class 0 has no partner block
        for h, j, cols in self._classes():
            np.matmul(y[j:j + h].reshape(h * b, nbase), self.base_psi[:, cols],
                      out=dz[:h, :, cols].reshape(h * b, -1))
        dz[1] *= self.sign
        out = dz[0][:, self.order_inverse]
        out += dz[1][:, self.partner_inverse]
        return out

    def class_blocks(self) -> list[tuple[int, slice, np.ndarray]]:
        """Per class k, (j, cols, U_k): its first trig row, its column
        slice and U_k (h, N, M_k), the class's slice of ``base_psi`` and,
        for k > 0, its copy with each column moved to its partner's
        position and signed.  Rows x in class order then give the class's
        cos and sin fiber coefficients as x[:, cols] @ U_k[t].T, with the
        partner gather and sign folded into U_k."""
        partner_pos = self.order_inverse[self.partner]
        blocks = []
        for h, j, cols in self._classes():
            base = self.base_psi[:, cols]
            u = np.zeros((h,) + base.shape)
            u[0] = base
            if h == 2:
                u[1][:, partner_pos[cols] - cols.start] = base * self.sign[cols]
            blocks.append((j, cols, u))
        return blocks

    def gram(self, blocks) -> tuple[np.ndarray, list[np.ndarray]]:
        """(T, per-class Gram blocks) of the scoring matrix A, columns in
        class order, from ``blocks = class_blocks()``.

        A = sum_j trig_j^T (x) U_j, with U_j the (N, M) table of trig row
        j (``class_blocks``' U_k[t] for j = j_k + t), so A^T A =
        sum_{j, j'} T[j, j'] U_j^T U_j' with T = trig trig^T (J, J).
        Class k's diagonal block is sum_{t, t'} T[j_k + t, j_k + t']
        U_k[t]^T U_k[t']; the off-class blocks vanish where T does.
        """
        t = self.trig @ self.trig.T
        grams = []
        for j, _, u in blocks:
            h, nbase, width = u.shape
            tu = np.tensordot(t[j:j + h, j:j + h], u, axes=1)
            grams.append(u.reshape(h * nbase, width).T @ tu.reshape(h * nbase, width))
        return t, grams


def _fiber_classes(bandlimit: int):
    """(order, partner, sign, bounds) of ``FiberTable`` at a band limit.

    D^l(Rz(psi)) = expm(psi J_z), and J_z pairs n with -n, so on |n| = k
    it squares to -k^2: expm(psi J_z) = sum_k cos(k psi) P_k +
    sin(k psi) J_z P_k / k, with P_k the projector onto |n| = k.  Column
    (l, m, n) of D^l(A) D^l(Rz(psi)) is cos(k psi) D^l(A)[m, n] +
    sin(k psi) D^l(A)[m, -n] J_z[-n, n] / k, so a score pairs column
    (l, m, n) of psi(A) with p[l, m, n] and, through the sign
    J_z[n, -n] / k, with p[l, m, -n].
    """
    offs = np.array(wigner.block_offsets(bandlimit))
    degree = np.repeat(np.arange(bandlimit + 1),
                       (2 * np.arange(bandlimit + 1) + 1) ** 2)
    n = (np.arange(offs[-1]) - offs[degree]) % (2 * degree + 1) - degree
    sign = np.concatenate([
        np.tile(np.fliplr(wigner.generators_real(l)[2]).diagonal()
                / np.maximum(np.abs(np.arange(-l, l + 1)), 1), 2 * l + 1)
        for l in range(bandlimit + 1)])
    order = np.argsort(np.abs(n), kind="stable")
    bounds = np.searchsorted(np.abs(n)[order], np.arange(bandlimit + 2))
    return (order, (np.arange(offs[-1]) - 2 * n)[order], sign[order],
            tuple(int(i) for i in bounds))


def _build_fiber_table(grid: SO3Grid, bandlimit: int) -> FiberTable | None:
    nfiber = 6 * 2 ** grid.level
    if grid.size != so3_healpix_count(grid.level):
        return None
    rots = grid.rotations.reshape(-1, nfiber, 3, 3)
    angles = 2.0 * np.pi * np.arange(nfiber) / nfiber
    spin = rotations.zyz_to_matrices(angles, 0.0, 0.0)
    step = max(1, _CHUNK_BYTES // rots[0].nbytes)
    for start in range(0, len(rots), step):
        block = rots[start:start + step]
        if not np.max(np.abs(block - block[:, :1] @ spin)) <= _FIBER_TOL:
            return None
    k = np.arange(1, bandlimit + 1)[:, None] * angles
    trig = np.concatenate([np.ones((1, nfiber)),
                           np.stack([np.cos(k), np.sin(k)], axis=1).reshape(-1, nfiber)])
    order, partner, sign, bounds = _fiber_classes(bandlimit)
    base_psi = wigner.rotations_to_psi(rots[:, 0], bandlimit)[:, order]
    return FiberTable(base_psi, order, partner, np.argsort(order),
                      np.argsort(partner), sign, bounds, trig)


def fiber_table(grid: SO3Grid, bandlimit: int) -> FiberTable | None:
    """The factored table of a HEALPix-Hopf grid at ``bandlimit``, or None.

    The table holds psi of the N fiber-0 rotations with its columns
    sorted into |n| classes, and the trig basis at the F fiber angles
    (see ``FiberTable``).  The kind label and level only propose the
    fiber count F = 6 * 2^level;
    the table is built, and cached per rotation content, only after every
    rotation is checked to be A_i Rz(2 pi f / F).  None means the grid
    is scored against its dense psi table.
    """
    if grid.kind != "healpix_hopf" or grid.level is None:
        return None
    return fiber_table_cache.get(
        (grid.content_digest, grid.level, bandlimit),
        lambda: _build_fiber_table(grid, bandlimit))


def _dense_table(grid: SO3Grid) -> np.ndarray:
    if grid.psi_table is None:
        raise ValueError("grid needs a precomputed harmonic-vector table "
                         "or the HEALPix-Hopf fiber structure")
    return grid.psi_table


def _scores(rows: np.ndarray, grid: SO3Grid) -> np.ndarray:
    """<psi(R), p> for every grid rotation R and row p of (B, M): (B, size)."""
    table = fiber_table(grid, wigner.bandlimit_of(rows.shape[-1]))
    return rows @ _dense_table(grid).T if table is None else table.scores(rows)


def _scores_adjoint(g: np.ndarray, grid: SO3Grid, bandlimit: int) -> np.ndarray:
    """sum_R g[:, R] psi(R) for weights g (B, size): (B, M), the adjoint
    of ``_scores``."""
    table = fiber_table(grid, bandlimit)
    return g @ _dense_table(grid) if table is None else table.adjoint(g)


# ---------------------------------------------------------------------------
# Grid inference
# ---------------------------------------------------------------------------

def infer_distribution(pred, grid: SO3Grid,
                       temperature: float = 1.0) -> PoseDistribution:
    """Softmax over grid similarities of one vector (M,) or a batch (B, M)."""
    if not temperature > 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    flat = _flat(pred)
    probs = _scores(np.atleast_2d(flat), grid)
    probs /= temperature
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return PoseDistribution(grid, probs[0] if flat.ndim == 1 else probs)


def argmax_pose(d: PoseDistribution) -> RotationMatrix | np.ndarray:
    """Most probable grid rotation (lowest index on ties), or a (B, 3, 3) stack."""
    idx = np.argmax(d.probs, axis=-1)
    return RotationMatrix(d.grid.rotations[idx]) if idx.ndim == 0 else d.grid.rotations[idx]


READOUTS = ("top1_prob", "entropy", "margin", "manifold_distance")


@dataclass(frozen=True)
class PoseReadout:
    """Argmax rotations of a batch and their confidence readouts, per row."""

    rotations: np.ndarray          # (B, 3, 3) most probable grid rotations
    top1_prob: np.ndarray          # (B,) probability of that rotation
    entropy: np.ndarray            # (B,) entropy of the pose distribution, nats
    margin: np.ndarray             # (B,) best score minus the second best
    manifold_distance: np.ndarray  # (B,) |p - psi(argmax rotation)|


def _decode_chunk(rows: np.ndarray, grid: SO3Grid, temperature: float):
    """(argmax, top-1 probability, entropy, margin) of a few rows."""
    s = _scores(rows, grid)
    r = np.arange(len(s))
    best = np.argmax(s, axis=1)
    s -= s[r, best][:, None]
    s[r, best] = -np.inf
    margin = -s.max(axis=1)
    s[r, best] = 0.0
    s /= temperature
    e = np.exp(s)
    z = e.sum(axis=1)
    es = (e[:, None] @ s[:, :, None])[:, 0, 0]  # sum_j e s, one BLAS dot per row
    return best, 1.0 / z, np.log(z) - es / z, margin


def decode_poses(pred, grid: SO3Grid, temperature: float = 1.0) -> PoseReadout:
    """Argmax rotations (lowest index on ties) of one vector (M,) or a
    batch (B, M), with the readouts of ``PoseReadout``.

    Equals ``argmax_pose(infer_distribution(pred, grid, temperature))``
    row by row, but scores the batch in chunks of ``_CHUNK_BYTES`` and
    keeps no (B, size) array.
    """
    if not temperature > 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    rows = np.atleast_2d(_flat(pred))
    step = max(1, _CHUNK_BYTES // (8 * grid.size))
    idx, top1, entropy, margin = map(np.concatenate, zip(*(
        _decode_chunk(rows[i:i + step], grid, temperature)
        for i in range(0, len(rows), step))))
    rots = grid.rotations[idx]
    psi = wigner.rotations_to_psi(rots, wigner.bandlimit_of(rows.shape[-1]))
    return PoseReadout(rots, top1, entropy, margin,
                       np.linalg.norm(rows - psi, axis=1))


def _tangent_weights(rows: np.ndarray) -> np.ndarray:
    """q (B, 3, M) with psi(R) . q[:, k] = d/dt <psi(R exp(t K_k)), pred> at
    t = 0: per degree <D^l J^l_k, P_l> = <D^l, -P_l J^l_k>, J antisymmetric."""
    offs = wigner.block_offsets(wigner.bandlimit_of(rows.shape[-1]))
    q = np.empty((len(rows), 3, rows.shape[-1]))
    for l, (a, b) in enumerate(zip(offs, offs[1:])):
        p = rows[:, a:b].reshape(-1, 1, 2 * l + 1, 2 * l + 1)
        q[:, :, a:b] = -(p @ wigner.generators_real(l)).reshape(len(rows), 3, -1)
    return q


def gradient_ascent_pose(pred, start, steps: int = 20,
                         lr: float = 1e-3) -> RotationMatrix | np.ndarray:
    """Refine poses by gradient ascent of <psi(R), pred> on SO(3).

    (M,) with a RotationMatrix start gives a RotationMatrix; (B, M) with
    (B, 3, 3) starts gives (B, 3, 3).  Steps R <- R exp(eta [g]x) use the
    exact derivatives g_k along the generators K_k (arXiv 1812.01537).
    Per row, eta starts at ``lr``, grows 1.5x on improvement, else halves;
    a row stops after ``steps`` moves or 8 failures in a row.  Only
    improvements are accepted, so no row scores below its start.
    """
    flat = _flat(pred)
    rows = np.atleast_2d(flat)
    bandlimit, q = wigner.bandlimit_of(rows.shape[-1]), _tangent_weights(rows)

    def score_and_grad(r, sel):
        psi = wigner.rotations_to_psi(r, bandlimit)
        return np.sum(psi * rows[sel], axis=1), (q[sel] @ psi[:, :, None])[:, :, 0]

    r = np.array(getattr(start, "m", start), dtype=float).reshape(-1, 3, 3)
    score, grad = score_and_grad(r, slice(None))
    eta = np.full(len(rows), float(lr))
    moves, fails = np.zeros((2, len(rows)), dtype=int)
    live = np.arange(len(rows) if steps > 0 else 0)
    while len(live):
        omega = eta[live, None] * grad[live]
        angle = np.linalg.norm(omega, axis=1)
        cand = r[live] @ rotations.axis_angles_to_matrices(
            omega / np.where(angle > 0, angle, 1.0)[:, None], angle)
        sc, g = score_and_grad(cand, live)
        up = sc > score[live]
        acc = live[up]
        r[acc], score[acc], grad[acc] = cand[up], sc[up], g[up]
        eta[live] *= np.where(up, 1.5, 0.5)
        moves[acc] += 1
        fails[live] = np.where(up, 0, fails[live] + 1)
        live = live[(moves[live] < steps) & (fails[live] < 8)]
    return RotationMatrix(r[0]) if flat.ndim == 1 else r


# ---------------------------------------------------------------------------
# Metrics and reports
# ---------------------------------------------------------------------------

ACCURACY_THRESHOLDS_DEG = (3.0, 5.0, 10.0, 15.0, 30.0)


def _matrix_stack(items) -> np.ndarray:
    return np.reshape([getattr(r, "m", r) for r in items], (-1, 3, 3))


def error_angles_deg(preds, gts) -> np.ndarray:
    a = _matrix_stack(preds)
    b = _matrix_stack(gts)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} predictions, {len(b)} truths")
    if len(a) == 0:
        raise ValueError("need at least one prediction/truth pair")
    return np.degrees(rotations.geodesic_distances(a, b))


def metrics(preds, gts) -> dict:
    """Median error (middle of sorted; even n averages the two middles)
    and accuracy at the standard thresholds."""
    err = np.sort(error_angles_deg(preds, gts))
    n = len(err)
    median = float(err[n // 2]) if n % 2 else float(0.5 * (err[n // 2 - 1] + err[n // 2]))
    out = {"count": n, "median_error_deg": median}
    for t in ACCURACY_THRESHOLDS_DEG:
        out[f"acc_at_{t:g}"] = float(np.mean(err <= t))
    return out


def write_error_csv(path: str, errors_deg: np.ndarray,
                    readouts: dict | None = None) -> None:
    """One row per sample: its error and any per-sample ``readouts``
    (name -> (n,) array), one column each."""
    readouts = readouts or {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "error_deg", *readouts])
        for i, (e, *values) in enumerate(zip(errors_deg, *readouts.values())):
            writer.writerow([i, f"{e:.6f}", *(f"{v:.6g}" for v in values)])


def write_metrics_json(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
