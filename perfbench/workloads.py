"""The three workloads of the pipeline benchmark.

Each workload has an optional ``prep`` (untimed, run in its own process),
a ``setup`` (timed as ``setup_s``: inputs plus the cold operator builds)
and a ``run`` that executes the timed phases for a time budget.  Inputs
come only from the seed.  Failed operations are counted, not raised.

- ``train_sphere``: ``harness.train`` on spherical inputs at L=6.  The
  design matrix and its ridge SVD are recomputed on every step from the
  same points, so trunk GEMM work and operator caching show here.
- ``train_image``: gradient steps at the CLI-default image config with a
  fresh dropout mask per step and the parameters kept at init.  Every step
  presents a new point set, so design/SVD caches only ever miss; it is the
  only workload that reaches ``mapper``.
- ``pose_decode``: the CLI ``eval`` path on a checkpoint written by the
  prep step: batch argmax decode, single-sample latency and gradient-ascent
  refinement against the level-3 grid.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import nullcontext

import numpy as np

from so3harmonics import estimation, grids, harmonics, harness, specconv, wigner
from so3harmonics.mapper import MapperConfig

BANDLIMIT = 6
INFER_LEVEL = 3
BIN_WIDTH_DEG = 60.0 / 2 ** INFER_LEVEL
ROTATION_TOL = 1e-9
SIMILARITY_TOL = 1e-9

# pose_decode sizes: the batch phase decodes the whole test split, the
# refine phase walks it in small slices.
DECODE_TEST_VIEWS = 40
REFINE_SPLIT = 4
# One pose_decode round: two batch decodes, this many single-sample calls
# and one refine slice (about 0.6 s, 0.25 s and 0.7 s on a 2-CPU x86 VM).
SINGLES_PER_ROUND = 20
# Spherical training uses a smaller step than the RunConfig default: at
# the default 0.02 the training-set loss grows within the first epoch on
# most seeds (up to 1e52 on some), and at 0.005 some seeds still diverge
# within 12 epochs.  train_sphere trains at this step so that its checks
# hold and its arithmetic stays on finite, moderate values; it still
# reports the default step's first-epoch loss as ungated values
# (``default_lr_loss_*``) so the defect stays visible.  The pose_decode
# prep needs a converged model for the decode checks.
LEARNING_RATE = 0.003
PREP_EPOCHS = 12


class Outcome:
    """Operation counts, failure kinds, check results and measurements."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.checks: dict[str, bool] = {}
        self.values: dict[str, float] = {}
        self.phase_ops: dict[str, list[float]] = {}

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, count: int = 1) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + count

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok) and self.checks.get(name, True)

    def op_times(self, phase: str) -> list[float]:
        return self.phase_ops.setdefault(phase, [])


def timed_rounds(budget_s: float, steps, outcome: Outcome, phase,
                 min_rounds: int = 1) -> None:
    """Repeat rounds of ``(phase name, op, count)`` steps until the budget
    is spent; every op duration is appended to its phase's list.

    Interleaving the phases makes each of them see the same machine state.
    """
    deadline = time.perf_counter() + budget_s
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for name, op, count in steps:
            times = outcome.op_times(name)
            with phase(name):
                for _ in range(count):
                    start = time.perf_counter()
                    op()
                    times.append(time.perf_counter() - start)
        rounds += 1


def is_rotation(m: np.ndarray) -> bool:
    return (abs(np.linalg.det(m) - 1.0) <= ROTATION_TOL
            and np.max(np.abs(m.T @ m - np.eye(3))) <= ROTATION_TOL)


def count_bad_rotations(outcome: Outcome, preds: np.ndarray) -> None:
    bad = sum(not is_rotation(m) for m in preds)
    if bad:
        outcome.fail("not_rotation", bad)


def check_decode(preds: np.ndarray, gt: np.ndarray) -> tuple[bool, float]:
    """Median geodesic error within the inference grid's bin width."""
    median = estimation.metrics(preds, gt)["median_error_deg"]
    return bool(all(is_rotation(m) for m in preds) and median <= BIN_WIDTH_DEG), median


def check_refine(psis: np.ndarray, coarse: np.ndarray, refined: np.ndarray) -> bool:
    """Refined poses score at least as high as the argmax poses."""
    before = np.einsum("nm,nm->n", wigner.rotations_to_psi(coarse, BANDLIMIT), psis)
    after = np.einsum("nm,nm->n", wigner.rotations_to_psi(refined, BANDLIMIT), psis)
    return bool(np.all(after >= before - SIMILARITY_TOL * np.maximum(1.0, np.abs(before))))


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def _batch_loss(psis, gt_psis, loss_cfg) -> tuple[float, np.ndarray]:
    total = 0.0
    d_psi = np.empty_like(psis)
    for i in range(len(psis)):
        value, grad = estimation.loss_and_grad(psis[i], gt_psis[i], loss_cfg)
        total += value
        d_psi[i] = grad
    return total / len(psis), d_psi / len(psis)


def _warm_trunk(model, ds, cfg) -> None:
    """Build the level-2 nonlinearity table and its ridge inverse."""
    if ds.kind == "spherical":
        specconv.forward_trunk(model, "spherical", ds.inputs[:1], grid=ds.grid)
    else:
        specconv.forward_trunk(model, "image", ds.inputs[:1],
                               cfg=_mapper_config(cfg))


def _mapper_config(cfg: harness.RunConfig) -> MapperConfig:
    return MapperConfig(grids.healpix_s2(cfg.mapper_level, "hemisphere"),
                        cfg.dropout_fraction, cfg.edge_decay, cfg.sample_count)


def _init_model(cfg: harness.RunConfig, in_channels: int):
    return specconv.init_toy_model(cfg.init_seed, cfg.bandlimit, in_channels,
                                   cfg.mid_channels, cfg.hidden_channels,
                                   cfg.tap_count, cfg.support_angle,
                                   cfg.nonlin_level)


def _train_set_loss(model, ds, cfg) -> float:
    idx = ds.train_idx
    hidden, _ = specconv.forward_trunk(model, "spherical", ds.inputs[idx], grid=ds.grid)
    psis = specconv.head_wigner(model, hidden)
    gt_psis = wigner.rotations_to_psi(ds.gt[idx], cfg.bandlimit)
    return _batch_loss(psis, gt_psis, cfg.loss_config())[0]


# ---------------------------------------------------------------------------
# train_sphere
# ---------------------------------------------------------------------------

class TrainSphere:
    """One operation is one ``harness.train`` call of one epoch."""

    name = "train_sphere"
    prep = None

    def setup(self, seed: int, workdir: str):
        cfg = harness.RunConfig(bandlimit=BANDLIMIT, dataset_kind="spherical",
                                data_seed=seed, epochs=1,
                                learning_rate=LEARNING_RATE)
        ds = harness.gen_dataset(cfg)
        _warm_trunk(_init_model(cfg, ds.inputs.shape[1]), ds, cfg)
        return {"cfg": cfg, "ds": ds, "losses": [], "model": None}

    def run(self, state, budget_s: float, outcome: Outcome, phase) -> None:
        cfg, ds = state["cfg"], state["ds"]

        def op():
            outcome.attempted += 1
            try:
                model, log = harness.train(cfg, ds)
            except harness.DivergenceError:
                outcome.fail("divergence")
                return
            loss = log[-1]["loss"]
            if not np.isfinite(loss):
                outcome.fail("non_finite")
                return
            state["losses"].append(loss)
            state["model"] = model

        timed_rounds(budget_s, [("train", op, 1)], outcome, phase, min_rounds=2)

    def finish(self, state, outcome: Outcome) -> None:
        cfg, ds, losses = state["cfg"], state["ds"], state["losses"]
        n = len(ds.train_idx) * cfg.epochs
        times = outcome.op_times("train")
        outcome.values["samples_per_s"] = float(np.median([n / t for t in times]))
        outcome.values.update(latency_values(times))
        outcome.values["train_samples_per_s"] = outcome.values["samples_per_s"]
        outcome.check("loss_finite", bool(losses) and _finite(np.array(losses)))
        outcome.check("same_seed_same_loss", len(losses) >= 2 and len(set(losses)) == 1)
        if losses:
            outcome.values["train_final_loss"] = losses[-1]
            before = _train_set_loss(_init_model(cfg, ds.inputs.shape[1]), ds, cfg)
            after = _train_set_loss(state["model"], ds, cfg)
            outcome.values["train_loss_before"] = before
            outcome.values["train_loss_after"] = after
            outcome.check("loss_decreases", np.isfinite(after) and after < before)
            default_cfg = dataclasses.replace(
                cfg, learning_rate=harness.RunConfig.learning_rate)
            try:
                default_after = _train_set_loss(harness.train(default_cfg, ds)[0],
                                                ds, cfg)
            except harness.DivergenceError:
                default_after = np.inf
            if np.isfinite(default_after):
                outcome.values["default_lr_loss_after"] = default_after
            outcome.values["default_lr_loss_decreases"] = float(default_after < before)


# ---------------------------------------------------------------------------
# train_image
# ---------------------------------------------------------------------------

class TrainImage:
    """One operation is one gradient step on a batch of 25 images."""

    name = "train_image"
    prep = None

    def setup(self, seed: int, workdir: str):
        cfg = harness.RunConfig(bandlimit=BANDLIMIT, dataset_kind="image",
                                data_seed=seed)
        ds = harness.gen_dataset(cfg)
        model = _init_model(cfg, ds.inputs.shape[1])
        _warm_trunk(model, ds, cfg)
        order = np.random.default_rng(seed).permutation(ds.train_idx)
        gt_psis = wigner.rotations_to_psi(ds.gt, cfg.bandlimit)
        return {"cfg": cfg, "ds": ds, "model": model, "mapper": _mapper_config(cfg),
                "order": order, "gt_psis": gt_psis, "losses": [], "seed": seed,
                "step": 0}

    def run(self, state, budget_s: float, outcome: Outcome, phase) -> None:
        cfg, ds, model = state["cfg"], state["ds"], state["model"]
        order, batch = state["order"], cfg.batch_size
        loss_cfg = cfg.loss_config()

        def op():
            step = state["step"]
            state["step"] += 1
            start = (step * batch) % len(order)
            idx = order[start:start + batch]
            outcome.attempted += 1
            try:
                hidden, trunk = specconv.forward_trunk(
                    model, "image", ds.inputs[idx], cfg=state["mapper"],
                    mode="train", seed=state["seed"] * 100003 + step)
            except harmonics.IllConditionedError:
                outcome.fail("ill_conditioned")
                return
            psis = specconv.head_wigner(model, hidden)
            loss, d_psi = _batch_loss(psis, state["gt_psis"][idx], loss_cfg)
            d_hidden, d_w = specconv.backward_head_wigner(model, trunk, d_psi)
            d_mixer, d_spectra = specconv.backward_trunk(model, trunk, d_hidden)
            if not (np.isfinite(loss) and _finite(d_w, d_mixer, *d_spectra)):
                outcome.fail("non_finite")
                outcome.check("loss_and_grads_finite", False)
                return
            state["losses"].append(loss)

        timed_rounds(budget_s, [("train", op, 1)], outcome, phase)

    def finish(self, state, outcome: Outcome) -> None:
        times = outcome.op_times("train")
        batch = state["cfg"].batch_size
        outcome.values["samples_per_s"] = float(np.median([batch / t for t in times]))
        outcome.values.update(latency_values(times))
        outcome.values["train_samples_per_s"] = outcome.values["samples_per_s"]
        outcome.check("loss_and_grads_finite", bool(state["losses"]))
        if state["losses"]:
            outcome.values["train_final_loss"] = state["losses"][-1]


# ---------------------------------------------------------------------------
# pose_decode
# ---------------------------------------------------------------------------

def _paths(workdir: str) -> tuple[str, str]:
    return os.path.join(workdir, "dataset.bin"), os.path.join(workdir, "model.ckpt")


class PoseDecode:
    """Batch decode, single-sample evaluate calls and refinement."""

    name = "pose_decode"

    @staticmethod
    def prep(seed: int, workdir: str) -> None:
        cfg = harness.RunConfig(bandlimit=BANDLIMIT, data_seed=seed,
                                n_test_views=DECODE_TEST_VIEWS, epochs=PREP_EPOCHS,
                                learning_rate=LEARNING_RATE, lr_decay_every=0,
                                infer_level=INFER_LEVEL)
        ds = harness.gen_dataset(cfg)
        model, _ = harness.train(cfg, ds)
        ds_path, ckpt_path = _paths(workdir)
        harness.save_dataset(ds_path, ds)
        harness.save_checkpoint(ckpt_path, model, cfg)

    def setup(self, seed: int, workdir: str):
        ds_path, ckpt_path = _paths(workdir)
        ds = harness.load_dataset(ds_path)
        model, cfg = harness.load_checkpoint(ckpt_path)
        harness.inference_grid(cfg.infer_level, cfg.bandlimit)
        _warm_trunk(model, ds, cfg)
        return {"cfg": cfg, "ds": ds, "model": model, "batch": None,
                "single": 0, "refine_at": 0, "refined": {}}

    def run(self, state, budget_s: float, outcome: Outcome, phase) -> None:
        cfg, ds, model = state["cfg"], state["ds"], state["model"]
        test_idx = ds.test_idx

        def evaluate(idx, grad_ascent):
            outcome.attempted += len(idx)
            result = harness.evaluate(model, dataclasses.replace(ds, test_idx=idx),
                                      cfg, split="test", grad_ascent=grad_ascent)
            count_bad_rotations(outcome, result["preds"])
            return result["preds"]

        def batch_op():
            state["batch"] = evaluate(test_idx, False)

        def single_op():
            i = state["single"] % len(test_idx)
            state["single"] += 1
            evaluate(test_idx[i:i + 1], False)

        def refine_op():
            start = state["refine_at"] % len(test_idx)
            state["refine_at"] += REFINE_SPLIT
            idx = test_idx[start:start + REFINE_SPLIT]
            for j, pred in zip(idx, evaluate(idx, True)):
                state["refined"][int(j)] = pred

        timed_rounds(budget_s, [("batch", batch_op, 2),
                                ("latency", single_op, SINGLES_PER_ROUND),
                                ("refine", refine_op, 1)], outcome, phase)

    def finish(self, state, outcome: Outcome) -> None:
        cfg, ds, model = state["cfg"], state["ds"], state["model"]
        n_test = len(ds.test_idx)
        batch_times = outcome.op_times("batch")
        outcome.values["samples_per_s"] = float(np.median([n_test / t for t in batch_times]))
        outcome.values["decode_samples_per_s"] = outcome.values["samples_per_s"]
        outcome.values.update(latency_values(outcome.op_times("latency")))
        outcome.values["decode_latency_ms_p50"] = outcome.values["latency_ms_p50"]
        outcome.values["decode_latency_ms_p90"] = outcome.values["latency_ms_p90"]
        outcome.values["decode_latency_samples"] = len(outcome.op_times("latency"))
        refine_times = outcome.op_times("refine")
        refined_idx = np.array(sorted(state["refined"]))
        outcome.values["refine_samples_per_s"] = float(
            REFINE_SPLIT * len(refine_times) / sum(refine_times))

        ok, median = check_decode(state["batch"], ds.gt[ds.test_idx])
        outcome.check("decode_within_bin_width", ok)
        outcome.values["decode_median_error_deg"] = median

        refined = np.stack([state["refined"][int(j)] for j in refined_idx])
        outcome.values["refine_median_error_deg"] = estimation.metrics(
            refined, ds.gt[refined_idx])["median_error_deg"]
        hidden, _ = specconv.forward_trunk(model, "spherical", ds.inputs[refined_idx],
                                           grid=ds.grid)
        psis = specconv.head_wigner(model, hidden)
        grid = harness.inference_grid(cfg.infer_level, cfg.bandlimit)
        coarse = np.stack([estimation.argmax_pose(estimation.infer_distribution(
            psi, grid, cfg.softmax_temperature)).m for psi in psis])
        outcome.check("refine_not_below_argmax", check_refine(psis, coarse, refined))


def latency_values(times: list[float]) -> dict[str, float]:
    ms = np.asarray(times) * 1e3
    return {"latency_ms_p50": float(np.percentile(ms, 50)),
            "latency_ms_p90": float(np.percentile(ms, 90)),
            "latency_samples": len(ms)}


WORKLOADS = {w.name: w for w in (TrainSphere(), TrainImage(), PoseDecode())}


def no_phase(_name: str):
    return nullcontext()
