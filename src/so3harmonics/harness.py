"""Synthetic datasets, training/evaluation loops, and ablation runners.

The synthetic task replaces rendered CAD views: a fixed random
band-limited pattern on the sphere is rotated by Haar-uniform ground
truths and either sampled on a full-sphere grid directly (``spherical``
inputs) or rendered onto a square canvas through the inverse
orthographic map (``image`` inputs).  Train and test rotations are
disjoint, everything is seeded, and dataset files are byte-identical
for a given seed.

Training is minibatch gradient descent with Nesterov momentum and
step-decay learning rate; reduction order is fixed so runs are
deterministic.  Reports carry the config hash, the seed set, and the
library version.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, estimation, fibers, grids, harmonics, mapper, wigner
from ._cache import LRUCache
from .binio import IncompatibleFileError, read_blob, write_blob
from .estimation import LossConfig
from .grids import SO3Grid
from .harmonics import PointSet, SphericalCoeffs
from .mapper import MapperConfig
from .rotations import (axis_angles_to_matrices, matrices_to_axis_angles,
                        matrices_to_quats, matrices_to_zyz, quats_to_matrices,
                        sample_uniform_matrices, zyz_to_matrices)
from .specconv import (LocalSO3Filter, S2FilterBank, ToyModel,
                       backward_head_wigner, backward_trunk, forward_trunk,
                       head_wigner, init_toy_model, nonlin_operator)

DATASET_LAYOUT_VERSION = 1
CHECKPOINT_LAYOUT_VERSION = 1

HEAD_DIMS = {"euler": 3, "quaternion": 4, "axis_angle": 4, "rotmat": 9}

# The value types RunConfig accepts for its integer fields, by annotation
# (a string, under ``from __future__ import annotations``): 2.0 or True
# is not a level, a band limit or a count, and neither is -1.
_INT_FIELD_TYPES = {"int": (int,), "int | None": (int, type(None))}


class DivergenceError(RuntimeError):
    """Training loss or gradient became non-finite."""


@dataclass
class RunConfig:
    bandlimit: int = 6
    # synthetic dataset
    dataset_kind: str = "spherical"
    template_channels: int = 3
    template_bandlimit: int = 4
    n_train_views: int = 100
    n_test_views: int = 4
    signal_grid_level: int = 2
    image_size: int = 32
    input_noise: float = 0.0
    # mapper (image inputs)
    mapper_level: int = 2
    dropout_fraction: float = 0.5
    edge_decay: str = "cosine"
    sample_count: int | None = None
    # model
    head: str = "wigner"
    mid_channels: int = 6
    hidden_channels: int = 8
    tap_count: int = 32
    support_angle: float = float(np.pi / 8)
    nonlin_level: int = 2
    # loss
    loss_kind: str = "mse"
    huber_delta: float = 0.1
    softmax_temperature: float = 1.0
    ce_lambda: float = 1.0
    ce_grid_level: int = 2
    # optimizer
    learning_rate: float = 0.02
    momentum: float = 0.9
    epochs: int = 150
    batch_size: int = 25
    lr_decay_every: int = 60
    lr_decay: float = 0.1
    eval_every: int = 0
    # inference
    infer_level: int = 3
    grad_ascent_steps: int = 0
    grad_ascent_lr: float = 1e-3
    # seeds
    data_seed: int = 0
    init_seed: int = 1
    train_seed: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _INT_FIELD_TYPES and (
                    type(value) not in _INT_FIELD_TYPES[f.type]
                    or value is not None and value < 0):
                raise ValueError(f"{f.name} must be an integer >= 0, "
                                 f"got {value!r}")
        if self.head not in ("wigner",) + tuple(HEAD_DIMS):
            raise ValueError(f"unknown head kind {self.head!r}")
        if self.dataset_kind not in ("spherical", "image"):
            raise ValueError(f"unknown dataset kind {self.dataset_kind!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        # comparisons written so that NaN fails; a zero learning rate
        # keeps the initial parameters
        for name, ok, span in [
                ("learning_rate", 0 <= self.learning_rate < np.inf, "finite and >= 0"),
                ("input_noise", 0 <= self.input_noise < np.inf, "finite and >= 0"),
                ("grad_ascent_lr", 0 < self.grad_ascent_lr < np.inf, "finite and > 0"),
                ("lr_decay", 0 < self.lr_decay < np.inf, "finite and > 0"),
                ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
                ("support_angle", 0 < self.support_angle <= np.pi, "in (0, pi]")]:
            if not ok:
                raise ValueError(f"{name} must be {span}, got {getattr(self, name)!r}")
        self.loss_config()  # rejects an unknown loss kind or bad loss setting
        self.mapper_config()  # and a bad mapper setting

    def loss_config(self) -> LossConfig:
        return LossConfig(self.bandlimit, self.loss_kind,
                          huber_delta=self.huber_delta,
                          softmax_temperature=self.softmax_temperature,
                          ce_lambda=self.ce_lambda)

    def mapper_config(self) -> MapperConfig:
        return MapperConfig(grids.healpix_s2(self.mapper_level, "hemisphere"),
                            self.dropout_fraction, self.edge_decay, self.sample_count)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        return RunConfig(**json.loads(text))

    def hash(self) -> str:
        """SHA-256 of ``json.dumps(asdict(self), sort_keys=True)``, without the deep copy."""
        payload = json.dumps({f.name: getattr(self, f.name) for f in fields(self)},
                             sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]

    def seed_set(self) -> dict:
        return {"data_seed": self.data_seed, "init_seed": self.init_seed,
                "train_seed": self.train_seed}


@dataclass
class SyntheticDataset:
    kind: str
    template: SphericalCoeffs
    inputs: np.ndarray            # (n, C, p) or (n, C, H, W)
    gt: np.ndarray                # (n, 3, 3)
    train_idx: np.ndarray
    test_idx: np.ndarray
    grid: PointSet | None = None  # sampling grid for spherical inputs
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.inputs)


def gen_dataset(cfg: RunConfig) -> SyntheticDataset:
    """Deterministic synthetic pose dataset from a template seeded by
    ``cfg.data_seed``."""
    seed = cfg.data_seed
    rng = np.random.default_rng(seed)
    lt = cfg.template_bandlimit
    template = SphericalCoeffs(
        lt, rng.normal(size=(cfg.template_channels, (lt + 1) ** 2)))
    n = cfg.n_train_views + cfg.n_test_views
    gt = sample_uniform_matrices(seed + 1, n)
    train_idx = np.arange(cfg.n_train_views)
    test_idx = np.arange(cfg.n_train_views, n)

    if cfg.dataset_kind == "spherical":
        grid = grids.healpix_s2(cfg.signal_grid_level, "full")
        design = harmonics.design_matrix(grid, lt)
        inputs = np.empty((n, cfg.template_channels, grid.size))
        for i in range(n):
            rotated = wigner.rotate_coeffs(template, gt[i])
            inputs[i] = rotated.data @ design.T
        points: PointSet | None = grid
    else:
        h = w = cfg.image_size
        xs = np.linspace(-1.0, 1.0, w)
        ys = np.linspace(-1.0, 1.0, h)
        xg, yg = np.meshgrid(xs, ys)
        r2 = xg ** 2 + yg ** 2
        inside = r2 <= 1.0
        zg = np.sqrt(np.clip(1.0 - r2, 0.0, None))
        theta = np.arccos(np.clip(zg[inside], -1.0, 1.0))
        phi = np.arctan2(yg[inside], xg[inside]) % (2 * np.pi)
        canvas_points = PointSet(theta, phi)
        design = harmonics.design_matrix(canvas_points, lt)
        inputs = np.zeros((n, cfg.template_channels, h, w))
        for i in range(n):
            rotated = wigner.rotate_coeffs(template, gt[i])
            vals = rotated.data @ design.T
            img = np.zeros((cfg.template_channels, h, w))
            img[:, inside] = vals
            inputs[i] = img
        points = None

    if cfg.input_noise > 0:
        noise_rng = np.random.default_rng(seed + 2)
        inputs = inputs + cfg.input_noise * noise_rng.normal(size=inputs.shape)

    meta = {"seed": seed, "input_kind": cfg.dataset_kind,
            "template_bandlimit": lt,
            "signal_grid_level": cfg.signal_grid_level,
            "image_size": cfg.image_size,
            "input_noise": cfg.input_noise,
            "layout_version": DATASET_LAYOUT_VERSION}
    return SyntheticDataset(cfg.dataset_kind, template, inputs, gt,
                            train_idx, test_idx, points, meta)


def save_dataset(path: str, ds: SyntheticDataset) -> None:
    arrays = {"template": ds.template.data, "inputs": ds.inputs, "gt": ds.gt,
              "train_idx": ds.train_idx.astype(np.int64),
              "test_idx": ds.test_idx.astype(np.int64)}
    if ds.grid is not None:
        arrays["grid_theta"] = ds.grid.theta
        arrays["grid_phi"] = ds.grid.phi
    write_blob(path, "dataset", ds.meta, arrays)


def _finite(a: np.ndarray, shape: tuple) -> bool:
    """A finite real array of ``shape``; None in ``shape`` matches any length."""
    return (a.ndim == len(shape) and a.dtype.kind in "fiu"
            and all(s is None or s == t for s, t in zip(shape, a.shape))
            and bool(np.all(np.isfinite(a))))


def _dataset_file_problem(kind, bandlimit, arrays) -> str | None:
    """What makes a dataset file's fields unusable, or None."""
    if kind not in ("spherical", "image"):
        return f"unknown input kind {kind!r}"
    if type(bandlimit) is not int or bandlimit < 0:
        return f"template_bandlimit {bandlimit!r} is not a band limit"
    inputs = arrays["inputs"]
    if not _finite(inputs, (None,) * (3 if kind == "spherical" else 4)):
        return f"inputs {inputs.shape} are not a finite array of {kind} inputs"
    n = len(inputs)
    shapes = {"template": (None, (bandlimit + 1) ** 2), "gt": (n, 3, 3)}
    if kind == "spherical":  # the point set of the inputs
        shapes["grid_theta"] = shapes["grid_phi"] = inputs.shape[-1:]
    for name, shape in shapes.items():
        if name not in arrays or not _finite(arrays[name], shape):
            return f"{name} is missing or not a finite array of shape {shape}"
    for name in ("train_idx", "test_idx"):
        idx = arrays[name]
        if not (idx.ndim == 1 and idx.dtype.kind in "iu"
                and np.all((idx >= 0) & (idx < n))):
            return f"{name} is not a 1-D array of indices below {n}"
    return None


def load_dataset(path: str) -> SyntheticDataset:
    """The dataset ``save_dataset`` wrote.  A malformed file raises
    IncompatibleFileError naming ``path`` (``_dataset_file_problem``)."""
    _, meta, arrays = read_blob(path, expect_kind="dataset")
    if meta.get("layout_version") != DATASET_LAYOUT_VERSION:
        raise IncompatibleFileError(f"{path}: unsupported dataset layout")
    problem = _dataset_file_problem(meta["input_kind"], meta["template_bandlimit"],
                                    arrays)
    if problem is not None:
        raise IncompatibleFileError(f"{path}: {problem}")
    grid = None
    if "grid_theta" in arrays:
        grid = PointSet(arrays["grid_theta"], arrays["grid_phi"])
    template = SphericalCoeffs(meta["template_bandlimit"], arrays["template"])
    return SyntheticDataset(meta["input_kind"], template, arrays["inputs"],
                            arrays["gt"], arrays["train_idx"],
                            arrays["test_idx"], grid, meta)


# ---------------------------------------------------------------------------
# Spatial prediction heads (ablation baselines)
# ---------------------------------------------------------------------------

@dataclass
class SpatialHeadModel:
    """Same trunk as the harmonic model, flat linear readout of raw
    rotation parameters."""

    bandlimit: int
    mixer: np.ndarray
    s2: S2FilterBank
    head_kind: str
    head_w: np.ndarray  # (dim, hidden * M)
    nonlin_level: int = 2

    def __post_init__(self):
        self.mixer = np.asarray(self.mixer, dtype=float)
        if self.mixer.ndim != 2 or self.mixer.shape[1] != self.s2.in_channels:
            raise ValueError("mixer output does not match sphere-filter input")
        shape = (HEAD_DIMS[self.head_kind],
                 self.hidden_channels * wigner.m_total(self.bandlimit))
        if np.shape(self.head_w) != shape:
            raise ValueError(f"head_w must have shape {shape}")
        nonlin_operator(self.nonlin_level, self.bandlimit)

    @property
    def hidden_channels(self) -> int:
        return self.s2.out_channels


def init_spatial_head_model(seed: int, cfg: RunConfig, in_channels: int) -> SpatialHeadModel:
    base = init_toy_model(seed, cfg.bandlimit, in_channels,
                          cfg.mid_channels, cfg.hidden_channels,
                          cfg.tap_count, cfg.support_angle, cfg.nonlin_level)
    rng = np.random.default_rng(seed + 1000)
    dim = HEAD_DIMS[cfg.head]
    width = cfg.hidden_channels * wigner.m_total(cfg.bandlimit)
    head_w = rng.normal(scale=1.0 / np.sqrt(width), size=(dim, width))
    return SpatialHeadModel(cfg.bandlimit, base.mixer, base.s2, cfg.head,
                            head_w, cfg.nonlin_level)


def spatial_targets(gt: np.ndarray, head_kind: str) -> np.ndarray:
    """Raw parameter targets for a stack of ground-truth matrices."""
    if head_kind == "euler":
        a, b, g = matrices_to_zyz(gt)
        return np.stack([a, b, g], axis=1)
    if head_kind == "quaternion":
        return matrices_to_quats(gt)
    if head_kind == "axis_angle":
        axes, angles = matrices_to_axis_angles(gt)
        return np.concatenate([axes, angles[:, None]], axis=1)
    if head_kind == "rotmat":
        return gt.reshape(len(gt), 9)
    raise ValueError(f"unknown head kind {head_kind!r}")


def params_to_matrices(params: np.ndarray, head_kind: str) -> np.ndarray:
    """Project raw head outputs back to valid rotation matrices."""
    if head_kind == "euler":
        a = params[:, 0]
        b = np.clip(params[:, 1], 0.0, np.pi)
        g = params[:, 2]
        return zyz_to_matrices(a, b, g)
    if head_kind == "quaternion":
        q = params.copy()
        norms = np.linalg.norm(q, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-12
        q[bad] = [1.0, 0.0, 0.0, 0.0]
        norms[bad] = 1.0
        return quats_to_matrices(q / norms)
    if head_kind == "axis_angle":
        axes = params[:, :3]
        # a stacked matmul rounds each squared norm like np.linalg.norm
        norms = np.sqrt(axes[:, None, :] @ axes[:, :, None])[:, 0]
        ok = norms > 1e-12
        axes = np.where(ok, axes / np.where(ok, norms, 1.0), [0.0, 0.0, 1.0])
        return axis_angles_to_matrices(axes, np.clip(params[:, 3], 0.0, np.pi))
    if head_kind == "rotmat":
        u, _, vt = np.linalg.svd(params.reshape(-1, 3, 3))
        u[:, :, 2] *= np.sign(np.linalg.det(u @ vt))[:, None]
        return u @ vt
    raise ValueError(f"unknown head kind {head_kind!r}")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _forward_batch(model, ds: SyntheticDataset, idx: np.ndarray,
                   cfg: RunConfig, mode: str, seed: int):
    mcfg = None if ds.kind == "spherical" else cfg.mapper_config()
    return forward_trunk(model, ds.kind, ds.inputs[idx], grid=ds.grid,
                         cfg=mcfg, mode=mode, seed=seed)


def _make_optimizer_state(model_params: list[np.ndarray]):
    return [np.zeros_like(p) for p in model_params]


def _nesterov_step(params: list[np.ndarray], grads: list[np.ndarray],
                   velocity: list[np.ndarray], lr: float, momentum: float):
    # p -= lr * (g + momentum * v_new),   v_new = momentum * v + g
    for p, g, v in zip(params, grads, velocity):
        v *= momentum
        v += g
        p -= lr * (g + momentum * v)


def train(cfg: RunConfig, ds: SyntheticDataset):
    """Train the configured head on the dataset; returns (model, log)."""
    if len(ds.train_idx) == 0:
        raise ValueError("dataset has no training samples")
    in_channels = ds.inputs.shape[1]
    wigner_head = cfg.head == "wigner"
    if wigner_head:
        model = init_toy_model(cfg.init_seed, cfg.bandlimit, in_channels,
                               cfg.mid_channels, cfg.hidden_channels,
                               cfg.tap_count, cfg.support_angle,
                               cfg.nonlin_level)
        params = [model.mixer, *model.s2.spectra, model.so3.weights]
    else:
        model = init_spatial_head_model(cfg.init_seed, cfg, in_channels)
        params = [model.mixer, *model.s2.spectra, model.head_w]
    velocity = _make_optimizer_state(params)

    loss_cfg = cfg.loss_config()
    ce_grid = None
    if cfg.loss_kind in ("distribution_ce", "mse_plus_ce"):
        ce_grid = inference_grid(cfg.ce_grid_level, cfg.bandlimit)

    train_idx = ds.train_idx
    gt_train = ds.gt[train_idx]
    if wigner_head:
        gt_psis = wigner.rotations_to_psi(gt_train, cfg.bandlimit)
    else:
        gt_params = spatial_targets(gt_train, cfg.head)

    rng = np.random.default_rng(cfg.train_seed)
    log = []
    last_loss = None  # last finite epoch loss, for the divergence message
    n = len(train_idx)
    batch = min(cfg.batch_size, n)
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * cfg.lr_decay ** (epoch // cfg.lr_decay_every) \
            if cfg.lr_decay_every > 0 else cfg.learning_rate
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            sel = order[start:start + batch]
            step_seed = cfg.train_seed * 100003 + epoch * 1009 + start
            hidden, state = _forward_batch(model, ds, train_idx[sel], cfg,
                                           "train" if ds.kind == "image" else "eval",
                                           step_seed)
            if wigner_head:
                value, d_psi = estimation.loss_and_grad(
                    head_wigner(model, hidden), gt_psis[sel], loss_cfg,
                    gt_rotation=gt_train[sel], grid=ce_grid)
                d_hidden, d_w = backward_head_wigner(model, state, d_psi)
                d_mixer, d_spectra = backward_trunk(model, state, d_hidden)
                grads = [d_mixer, *d_spectra, d_w]
            else:
                flat = hidden.reshape(len(sel), -1)
                preds = flat @ model.head_w.T
                diff = preds - gt_params[sel]
                value = float(np.mean(np.sum(diff * diff, axis=1)))
                d_pred = 2.0 * diff / len(sel)
                d_head = d_pred.T @ flat
                d_hidden = (d_pred @ model.head_w).reshape(hidden.shape)
                d_mixer, d_spectra = backward_trunk(model, state, d_hidden)
                grads = [d_mixer, *d_spectra, d_head]
            # checked before the step, so NaN never reaches the parameters
            if not (np.isfinite(value)
                    and all(np.isfinite(g).all() for g in grads)):
                what = "gradient" if np.isfinite(value) else "loss"
                raise DivergenceError(
                    f"non-finite {what} at epoch {epoch}: lr={lr}, "
                    f"batch start {start}, last finite epoch loss {last_loss}")
            _nesterov_step(params, grads, velocity, lr, cfg.momentum)
            epoch_loss += value * len(sel)
        last_loss = epoch_loss / n
        entry = {"epoch": epoch, "lr": lr, "loss": last_loss}
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            entry["eval"] = evaluate(model, ds, cfg, split="test")["metrics"]
        log.append(entry)
    return model, log


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

inference_grid_cache = LRUCache(6)


def inference_grid(level: int, bandlimit: int, kind: str = "healpix_hopf",
                   count: int | None = None, seed: int = 0) -> SO3Grid:
    """``grids.so3_grid`` ready to decode at ``bandlimit``.

    A HEALPix-Hopf grid carries no psi table: it is scored through its
    fibers, and its table is built into ``fibers.fiber_table_cache``
    instead.  A grid of
    any other kind carries its dense psi table.  Levels from
    ``grids.LARGE_GRID_LEVEL`` up raise ``ResourceLimitError``: refining
    the argmax of a smaller grid reads poses more precisely, for less.
    """
    if level >= grids.LARGE_GRID_LEVEL:
        raise grids.ResourceLimitError(
            f"inference level {level} needs {grids.so3_healpix_count(level):,} "
            f"grid rotations; decode at level {grids.LARGE_GRID_LEVEL - 1} or "
            "below and refine the argmax by gradient ascent instead "
            "(eval --grad-ascent, RunConfig.grad_ascent_steps), which is "
            "more precise and much cheaper")
    n = count if count is not None else grids.so3_healpix_count(level)
    # only the parameters the grid kind uses enter the key
    key = {"healpix_hopf": (level,), "random": (n, seed)}.get(kind, (n,))
    def build() -> SO3Grid:
        grid = grids.so3_grid(kind, level, count, seed)
        if fibers.fiber_table(grid, bandlimit) is None:
            grid = grid.with_psi_table(bandlimit)
        return grid
    return inference_grid_cache.get((kind, bandlimit, *key), build)


def evaluate(model, ds: SyntheticDataset, cfg: RunConfig, split: str = "test",
             grid: SO3Grid | None = None, grad_ascent: bool | None = None) -> dict:
    """Eval-mode predictions, grid readout, and metric report.

    A harmonic-vector head also returns its per-sample confidence
    readouts (``estimation.READOUTS``) under "readouts", and the report
    carries their medians under "readout_medians".
    """
    idx = ds.test_idx if split == "test" else ds.train_idx
    if len(idx) == 0:
        raise ValueError(f"dataset has no samples in split {split!r}")
    hidden, _ = _forward_batch(model, ds, idx, cfg, "eval", 0)
    gt = ds.gt[idx]
    wigner_head = not isinstance(model, SpatialHeadModel)
    use_ga = cfg.grad_ascent_steps > 0 if grad_ascent is None else grad_ascent
    ga_steps = cfg.grad_ascent_steps if cfg.grad_ascent_steps > 0 else 20
    readouts = {}
    if wigner_head:
        psis = head_wigner(model, hidden)
        if grid is None:
            grid = inference_grid(cfg.infer_level, cfg.bandlimit)
        decoded = estimation.decode_poses(psis, grid, cfg.softmax_temperature)
        readouts = {k: getattr(decoded, k) for k in estimation.READOUTS}
        coarse = preds = decoded.rotations
        if use_ga:
            preds = estimation.gradient_ascent_pose(
                psis, coarse, steps=ga_steps, lr=cfg.grad_ascent_lr)
    else:
        flat = hidden.reshape(len(idx), -1)
        preds = params_to_matrices(flat @ model.head_w.T, model.head_kind)
    errors = estimation.error_angles_deg(preds, gt)
    report = {
        "library_version": __version__,
        "config_hash": cfg.hash(),
        "seeds": cfg.seed_set(),
        "split": split,
        "head": "wigner" if wigner_head else model.head_kind,
        "grad_ascent": bool(use_ga),
        "metrics": estimation._error_metrics(errors),
    }
    if wigner_head:
        report["readout_medians"] = {k: float(np.median(v))
                                     for k, v in readouts.items()}
    if wigner_head and use_ga:
        report["argmax_metrics"] = estimation.metrics(coarse, gt)
    return {"report": report, "errors": errors, "preds": preds,
            "readouts": readouts, **report}


# ---------------------------------------------------------------------------
# Checkpoints for either head
# ---------------------------------------------------------------------------

def _header_copies(cfg: RunConfig) -> dict:
    """The ``cfg`` fields a checkpoint header repeats beside ``config``."""
    copies = {"bandlimit": cfg.bandlimit, "nonlin_level": cfg.nonlin_level,
              "head": cfg.head}
    if cfg.head == "wigner":
        copies["support_angle"] = cfg.support_angle
    return copies


def save_checkpoint(path: str, model, cfg: RunConfig) -> None:
    """Writes ``cfg``, the trunk fields (``mixer``, ``s2_spectra_{l}``) and
    the head fields (``so3_taps`` and ``so3_weights``, or ``head_w``).
    Raises ValueError if the model disagrees with ``_header_copies(cfg)``.
    """
    meta = {"bandlimit": model.bandlimit, "nonlin_level": model.nonlin_level}
    arrays = {f"s2_spectra_{l}": s for l, s in enumerate(model.s2.spectra)}
    arrays["mixer"] = model.mixer
    if isinstance(model, SpatialHeadModel):
        meta["head"] = model.head_kind
        arrays["head_w"] = model.head_w
    else:
        meta.update(head="wigner", support_angle=model.so3.support_angle)
        arrays.update(so3_taps=model.so3.taps, so3_weights=model.so3.weights)
    copies = _header_copies(cfg)
    if meta != copies:
        raise ValueError(f"model {meta} disagrees with its config {copies}")
    meta.update(layout_version=CHECKPOINT_LAYOUT_VERSION,
                config=json.loads(cfg.to_json()))
    write_blob(path, "checkpoint", meta, arrays)


def load_checkpoint(path: str):
    """Returns (model, RunConfig), both built from the file's ``config``.

    A malformed file raises IncompatibleFileError naming ``path``: a
    missing field, a ``config`` that RunConfig rejects, a header copy
    that disagrees with it, or arrays or a ``nonlin_level`` the model
    rejects.
    """
    _, meta, arrays = read_blob(path, expect_kind="checkpoint")
    if meta.get("layout_version") != CHECKPOINT_LAYOUT_VERSION:
        raise IncompatibleFileError(f"{path}: unsupported checkpoint layout")
    try:
        cfg = RunConfig(**meta["config"])
        copies = _header_copies(cfg)
        header = {key: meta[key] for key in copies}
        if header != copies:
            raise ValueError(f"header {header} disagrees with config {copies}")
        L = cfg.bandlimit
        s2 = S2FilterBank(L, tuple(arrays[f"s2_spectra_{l}"]
                                   for l in range(L + 1)))
        if cfg.head != "wigner":
            return SpatialHeadModel(L, arrays["mixer"], s2, cfg.head,
                                    arrays["head_w"], cfg.nonlin_level), cfg
        so3 = LocalSO3Filter(L, cfg.support_angle, arrays["so3_taps"],
                             arrays["so3_weights"])
        return ToyModel(L, arrays["mixer"], s2, so3, cfg.nonlin_level), cfg
    except IncompatibleFileError:  # a missing field; it names the path
        raise
    except (TypeError, ValueError, IndexError,
            grids.ResourceLimitError) as exc:
        raise IncompatibleFileError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

ABLATION_KINDS = ("parametrization", "loss", "grid_type", "grid_size",
                  "bandlimit")


def run_ablation(kind: str, base: RunConfig, ds: SyntheticDataset | None = None,
                 verbose: bool = False) -> list[dict]:
    """Train/evaluate a family of variants under shared seeds.

    Returns one row per variant with the variant label and its test
    metrics.
    """
    if kind not in ABLATION_KINDS:
        raise ValueError(f"unknown ablation kind {kind!r}")
    if ds is None:
        ds = gen_dataset(base)
    rows = []

    def _row(label: str, cfg: RunConfig, model=None, grid=None) -> dict:
        if model is None:
            model, _ = train(cfg, ds)
        rep = evaluate(model, ds, cfg, grid=grid)
        row = {"variant": label, **rep["metrics"]}
        if verbose:
            print(f"  {label}: {row}")
        return row

    if kind == "parametrization":
        for head in ("wigner", "euler", "quaternion", "axis_angle", "rotmat"):
            rows.append(_row(head, replace(base, head=head)))
    elif kind == "loss":
        for loss_kind in ("mse", "l1", "huber", "cosine"):
            rows.append(_row(loss_kind, replace(base, loss_kind=loss_kind)))
    elif kind == "grid_type":
        model, _ = train(base, ds)
        count = grids.so3_healpix_count(base.infer_level)
        for gkind in grids.GRID_KINDS:
            grid = inference_grid(base.infer_level, base.bandlimit,
                                  kind=gkind, count=count, seed=99)
            rows.append(_row(gkind, base, model=model, grid=grid))
    elif kind == "grid_size":
        model, _ = train(base, ds)
        for level in range(0, base.infer_level + 1):
            grid = inference_grid(level, base.bandlimit)
            row = _row(f"level{level}", base, model=model, grid=grid)
            row["grid_points"] = grids.so3_healpix_count(level)
            row["bin_width_deg"] = 60.0 / 2 ** level
            rows.append(row)
        return rows
    elif kind == "bandlimit":
        for bl in range(1, base.bandlimit + 1):
            rows.append(_row(f"L{bl}", replace(base, bandlimit=bl)))
    return rows


def ablation_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    keys = list(rows[0].keys())
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(str(row.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"
