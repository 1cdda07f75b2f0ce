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
``decode_poses``.  A HEALPix-Hopf grid is scored through its fiber table
(``fibers.fiber_table``), any other grid against its dense psi table.
``decode_poses`` walks the batch in row chunks of a fixed byte budget
and keeps only each row's argmax and its confidence readouts.
Refinement takes its generator derivatives as one stacked matmul per
step.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from . import fibers, rotations, wigner
from .grids import SO3Grid, nearest_index
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
        # comparisons written so that NaN fails
        for name in ("huber_delta", "softmax_temperature"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"got {getattr(self, name)!r}")
        if not 0 <= self.ce_lambda < np.inf:
            raise ValueError(f"ce_lambda must be finite and >= 0, "
                             f"got {self.ce_lambda!r}")
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


# ---------------------------------------------------------------------------
# Losses (value + gradient with respect to the prediction)
# ---------------------------------------------------------------------------

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
    pred = np.asarray(pred, dtype=float)
    rows = np.atleast_2d(pred)
    if cfg.kind != "distribution_ce" and gt is None:
        raise ValueError(f"{cfg.kind} loss needs the ground-truth vector")
    gt_rows = None if gt is None else np.atleast_2d(np.asarray(gt, dtype=float))
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

def _dense_table(grid: SO3Grid) -> np.ndarray:
    if grid.psi_table is None:
        raise ValueError("grid needs a precomputed harmonic-vector table "
                         "or the HEALPix-Hopf fiber structure")
    return grid.psi_table


def _scores(rows: np.ndarray, grid: SO3Grid) -> np.ndarray:
    """<psi(R), p> for every grid rotation R and row p of (B, M): (B, size)."""
    table = fibers.fiber_table(grid, wigner.bandlimit_of(rows.shape[-1]))
    return rows @ _dense_table(grid).T if table is None else table.scores(rows)


def _scores_adjoint(g: np.ndarray, grid: SO3Grid, bandlimit: int) -> np.ndarray:
    """sum_R g[:, R] psi(R) for weights g (B, size): (B, M), the adjoint
    of ``_scores``."""
    table = fibers.fiber_table(grid, bandlimit)
    return g @ _dense_table(grid) if table is None else table.adjoint(g)


# ---------------------------------------------------------------------------
# Grid inference
# ---------------------------------------------------------------------------

def infer_distribution(pred, grid: SO3Grid,
                       temperature: float = 1.0) -> PoseDistribution:
    """Softmax over grid similarities of one vector (M,) or a batch (B, M)."""
    if not temperature > 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    flat = np.asarray(pred, dtype=float)
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
    row by row, but scores the batch in chunks of ``fibers._CHUNK_BYTES`` and
    keeps no (B, size) array.
    """
    if not temperature > 0:
        raise ValueError(f"softmax temperature must be positive, got {temperature}")
    rows = np.atleast_2d(np.asarray(pred, dtype=float))
    step = max(1, fibers._CHUNK_BYTES // (8 * grid.size))
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
                         lr: float = 1e-3) -> np.ndarray:
    """Refine poses by gradient ascent of <psi(R), pred> on SO(3).

    Takes predictions (B, M) and starts (B, 3, 3), and returns the
    refined (B, 3, 3).  Steps R <- R exp(eta [g]x) use the exact
    derivatives g_k along the generators K_k (arXiv 1812.01537).  Per
    row, eta starts at ``lr``, grows 1.5x on improvement, else halves;
    a row stops after ``steps`` moves or 8 failures in a row.  Only
    improvements are accepted, so no row scores below its start.
    """
    rows = np.asarray(pred, dtype=float)
    r = np.array(start, dtype=float)
    if rows.ndim != 2 or r.shape != (len(rows), 3, 3):
        raise ValueError("need predictions (B, M) and starts (B, 3, 3), "
                         f"got {rows.shape} and {r.shape}")
    bandlimit, q = wigner.bandlimit_of(rows.shape[-1]), _tangent_weights(rows)

    def score_and_grad(r, sel):
        psi = wigner.rotations_to_psi(r, bandlimit)
        return np.sum(psi * rows[sel], axis=1), (q[sel] @ psi[:, :, None])[:, :, 0]

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
    return r


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
