"""Dataset generation, training loop, evaluation, checkpoints, and CLI."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from so3harmonics import cli, estimation, grids, harmonics, harness, wigner
from so3harmonics.binio import read_blob, write_blob
from so3harmonics.harness import (DivergenceError, RunConfig, evaluate,
                                  gen_dataset, load_checkpoint, load_dataset,
                                  params_to_matrices, save_checkpoint,
                                  save_dataset, spatial_targets, train)
from so3harmonics.rotations import (AxisAngle, UnitQuaternion,
                                    axis_angles_to_matrices,
                                    geodesic_distances, sample_uniform_matrices)


def per_row_quat(m: np.ndarray) -> UnitQuaternion:
    """Scalar branch method, one matrix at a time."""
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        w, x = 0.25 * s, (m[2, 1] - m[1, 2]) / s
        y, z = (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        w, x = (m[2, 1] - m[1, 2]) / s, 0.25 * s
        y, z = (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        w, x = (m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s
        y, z = 0.25 * s, (m[1, 2] + m[2, 1]) / s
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
        w, x = (m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s
        y, z = (m[1, 2] + m[2, 1]) / s, 0.25 * s
    return UnitQuaternion(w, x, y, z)


def per_row_axis_angle(m: np.ndarray) -> AxisAngle:
    q = per_row_quat(m)
    v = np.array([q.x, q.y, q.z])
    sin_half = np.linalg.norm(v)
    angle = 2.0 * np.arctan2(sin_half, q.w)
    if sin_half < 1e-12:
        return AxisAngle(np.array([0.0, 0.0, 1.0]), 0.0)
    if angle > np.pi:
        angle, v = 2.0 * np.pi - angle, -v
    return AxisAngle(v / sin_half, min(angle, np.pi))


def fast_cfg(**kw):
    base = dict(bandlimit=3, template_bandlimit=3, template_channels=3,
                n_train_views=30, n_test_views=8, epochs=25,
                learning_rate=0.01, lr_decay_every=20, batch_size=15,
                infer_level=2, mid_channels=4, hidden_channels=6,
                tap_count=12)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def spherical_ds():
    return gen_dataset(fast_cfg())


class TestGenDataset:
    def test_shapes_and_split(self, spherical_ds):
        ds = spherical_ds
        assert ds.inputs.shape == (38, 3, 192)
        assert len(ds.train_idx) == 30 and len(ds.test_idx) == 8
        assert ds.gt.shape == (38, 3, 3)

    def test_rotations_disjoint(self, spherical_ds):
        ds = spherical_ds
        cross = geodesic_distances(ds.gt[ds.train_idx][:, None],
                                   ds.gt[ds.test_idx][None, :])
        assert np.min(cross) > 1e-6

    def test_file_round_trip_byte_identical(self, tmp_path, spherical_ds):
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_dataset(p1, spherical_ds)
        save_dataset(p2, gen_dataset(fast_cfg()))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        back = load_dataset(p1)
        assert np.array_equal(back.inputs, spherical_ds.inputs)
        assert np.array_equal(back.gt, spherical_ds.gt)

    def test_image_kind_renders_disk(self):
        cfg = fast_cfg(dataset_kind="image", image_size=16, n_train_views=3,
                       n_test_views=1)
        ds = gen_dataset(cfg)
        assert ds.inputs.shape == (4, 3, 16, 16)
        corner = ds.inputs[:, :, 0, 0]  # outside the unit disk
        assert np.all(corner == 0.0)
        assert np.any(ds.inputs != 0.0)

    def test_few_shot_counts(self):
        for n in (3, 5, 10):
            cfg = fast_cfg(n_train_views=n, n_test_views=2)
            assert len(gen_dataset(cfg).train_idx) == n


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self, spherical_ds):
        cfg = fast_cfg(learning_rate=0.0, epochs=2)
        model, _ = train(cfg, spherical_ds)
        from so3harmonics.specconv import init_toy_model
        fresh = init_toy_model(cfg.init_seed, cfg.bandlimit, 3,
                               cfg.mid_channels, cfg.hidden_channels,
                               cfg.tap_count, cfg.support_angle,
                               cfg.nonlin_level)
        assert np.array_equal(model.mixer, fresh.mixer)
        assert np.array_equal(model.so3.weights, fresh.so3.weights)

    def test_loss_decreases_smoothly_small_lr(self, spherical_ds):
        cfg = fast_cfg(learning_rate=0.002, epochs=12, momentum=0.0)
        _, log = train(cfg, spherical_ds)
        losses = [e["loss"] for e in log]
        assert losses[-1] < losses[0]
        assert all(b <= a * 1.02 + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("head", ["wigner", "rotmat"])
    def test_uncertifiable_relu_grid_fails_before_any_epoch(
            self, spherical_ds, monkeypatch, head):
        # the level-0 ReLU grid (72 rotations) cannot certify at L = 4
        def no_step(*args, **kwargs):
            raise AssertionError("trunk run")

        monkeypatch.setattr(harness, "forward_trunk", no_step)
        cfg = fast_cfg(bandlimit=4, nonlin_level=0, head=head)
        with pytest.raises(harmonics.IllConditionedError,
                           match="nonlin_level 1 is the smallest"):
            train(cfg, spherical_ds)

    def test_divergence_guard(self, spherical_ds):
        cfg = fast_cfg(learning_rate=50.0, epochs=5)
        with pytest.raises(DivergenceError):
            train(cfg, spherical_ds)

    def test_non_finite_gradient_stops_before_the_step(self, spherical_ds,
                                                       monkeypatch):
        # a NaN gradient beside a finite loss on the very last step: no
        # later loss would turn non-finite, so only a gradient check
        # keeps the step from writing NaN into the returned parameters
        cfg = fast_cfg(epochs=2)
        _, clean_log = train(cfg, spherical_ds)
        steps = cfg.epochs * -(-len(spherical_ds.train_idx) // cfg.batch_size)
        calls = []
        backward_trunk = harness.backward_trunk

        def nan_on_last_step(model, state, d_hidden):
            d_mixer, d_spectra = backward_trunk(model, state, d_hidden)
            calls.append(1)
            if len(calls) == steps:
                d_mixer = np.full_like(d_mixer, np.nan)
            return d_mixer, d_spectra

        monkeypatch.setattr(harness, "backward_trunk", nan_on_last_step)
        with pytest.raises(DivergenceError, match="non-finite gradient") as err:
            train(cfg, spherical_ds)
        assert len(calls) == steps
        assert f"last finite epoch loss {clean_log[0]['loss']}" in str(err.value)

    def test_deterministic_given_seeds(self, spherical_ds):
        cfg = fast_cfg(epochs=4)
        m1, log1 = train(cfg, spherical_ds)
        m2, log2 = train(cfg, spherical_ds)
        assert np.array_equal(m1.mixer, m2.mixer)
        assert log1[-1]["loss"] == log2[-1]["loss"]

    def test_image_task_trains(self):
        # the adjoint image lift's norm (0.16 here) is below the
        # full-sphere analysis's (0.26 at L = 3); the small step is a
        # margin for this short run, not a stability limit
        cfg = fast_cfg(dataset_kind="image", image_size=16, n_train_views=12,
                       n_test_views=4, epochs=8, batch_size=6,
                       dropout_fraction=0.3, learning_rate=0.002)
        ds = gen_dataset(cfg)
        _, log = train(cfg, ds)
        assert log[-1]["loss"] < log[0]["loss"]

    @pytest.mark.parametrize("data_seed", range(4))
    def test_default_image_config_trains(self, data_seed):
        # the CLI-default image run, cut to 3 epochs
        cfg = RunConfig(dataset_kind="image", data_seed=data_seed, epochs=3)
        _, log = train(cfg, gen_dataset(cfg))
        assert log[-1]["loss"] < log[0]["loss"]

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="batch size"):
            fast_cfg(batch_size=0)

    def test_non_positive_temperature_rejected(self):
        for temperature in (-1.0, 0.0):
            with pytest.raises(ValueError, match="temperature"):
                fast_cfg(softmax_temperature=temperature)

    def test_empty_training_split_rejected(self):
        cfg = fast_cfg(n_train_views=0, epochs=1)
        with pytest.raises(ValueError, match="no training samples"):
            train(cfg, gen_dataset(cfg))

class TestEvaluate:
    def test_converged_model_metrics(self, spherical_ds):
        cfg = fast_cfg(epochs=40)
        model, _ = train(cfg, spherical_ds)
        rep = evaluate(model, spherical_ds, cfg)
        assert rep["metrics"]["acc_at_30"] == 1.0
        assert rep["metrics"]["median_error_deg"] < 15.0
        assert rep["report"]["config_hash"] == cfg.hash()
        assert "data_seed" in rep["report"]["seeds"]
        assert rep["report"]["library_version"]

    def test_train_split_not_worse_than_test(self, spherical_ds):
        cfg = fast_cfg(epochs=40)
        model, _ = train(cfg, spherical_ds)
        tr = evaluate(model, spherical_ds, cfg, split="train")["metrics"]
        te = evaluate(model, spherical_ds, cfg, split="test")["metrics"]
        assert tr["acc_at_15"] >= te["acc_at_15"] - 0.05
        assert tr["median_error_deg"] <= te["median_error_deg"] + 1.0

    def test_large_infer_level_points_to_refinement(self, spherical_ds):
        model, _ = train(fast_cfg(epochs=1), spherical_ds)
        with pytest.raises(grids.ResourceLimitError,
                           match="refine the argmax") as err:
            evaluate(model, spherical_ds, fast_cfg(infer_level=5))
        assert "--grad-ascent" in str(err.value)
        assert "grad_ascent_steps" in str(err.value)
        assert "allow_large" not in str(err.value)

    def test_training_and_decode_call_no_einsum(self, spherical_ds, monkeypatch):
        # the spectral layers and the decode run as BLAS products
        image_cfg = fast_cfg(dataset_kind="image", image_size=16, epochs=1,
                             learning_rate=1e-4)
        image_ds = gen_dataset(image_cfg)

        def no_einsum(*args, **kwargs):
            raise AssertionError(f"np.einsum called with {args[0]!r}")

        monkeypatch.setattr(np, "einsum", no_einsum)
        cfg = fast_cfg(epochs=1)
        model, _ = train(cfg, spherical_ds)
        train(image_cfg, image_ds)
        evaluate(model, spherical_ds, cfg, grad_ascent=False)
        evaluate(model, spherical_ds, cfg, grad_ascent=True)

    def test_empty_split_errors(self, spherical_ds):
        cfg = fast_cfg()
        ds = harness.SyntheticDataset(
            spherical_ds.kind, spherical_ds.template, spherical_ds.inputs,
            spherical_ds.gt, spherical_ds.train_idx, np.array([], dtype=int),
            spherical_ds.grid, spherical_ds.meta)
        model, _ = train(fast_cfg(epochs=1), ds)
        with pytest.raises(ValueError):
            evaluate(model, ds, cfg)


class TestSpatialHeads:
    def test_targets_and_projections_consistent(self):
        mats = sample_uniform_matrices(3, 12)
        for head in ("euler", "quaternion", "axis_angle", "rotmat"):
            params = spatial_targets(mats, head)
            back = params_to_matrices(params, head)
            err = np.degrees(geodesic_distances(back, mats))
            assert np.max(err) < 1e-4, head  # arccos noise floor ~1e-6 deg

    def test_quaternion_and_axis_angle_targets_match_per_row_loop(self):
        # Haar rotations, the identity and half turns about x, y and z
        mats = np.concatenate([
            sample_uniform_matrices(8, 1000), np.eye(3)[None],
            axis_angles_to_matrices(np.eye(3), np.full(3, np.pi))])
        quats = np.stack([per_row_quat(m).as_array() for m in mats])
        assert spatial_targets(mats, "quaternion").tobytes() == quats.tobytes()
        expect = np.empty((len(mats), 4))
        for i, m in enumerate(mats):
            aa = per_row_axis_angle(m)
            expect[i, :3] = aa.axis
            expect[i, 3] = aa.angle
        assert spatial_targets(mats, "axis_angle").tobytes() == expect.tobytes()

    def test_rotmat_projection_handles_noise(self):
        rng = np.random.default_rng(4)
        mats = sample_uniform_matrices(5, 6)
        noisy = mats.reshape(6, 9) + 0.05 * rng.normal(size=(6, 9))
        proj = params_to_matrices(noisy, "rotmat")
        eye = np.einsum("nij,nkj->nik", proj, proj)
        assert np.max(np.abs(eye - np.eye(3))) < 1e-9

    def test_rotmat_projection_matches_per_row_svd(self):
        params = np.random.default_rng(6).normal(size=(500, 9))
        params[0] = 0.0
        params[1] = np.eye(3).ravel()
        expect = np.empty((500, 3, 3))
        for i, row in enumerate(params):
            u, _, vt = np.linalg.svd(row.reshape(3, 3))
            d = np.sign(np.linalg.det(u @ vt))
            expect[i] = u @ np.diag([1.0, 1.0, d]) @ vt
        assert params_to_matrices(params, "rotmat").tobytes() == expect.tobytes()

    def test_spatial_head_checkpoint_round_trip(self, tmp_path, spherical_ds):
        cfg = fast_cfg(head="rotmat", epochs=2)
        model, _ = train(cfg, spherical_ds)
        path = str(tmp_path / "alt.ckpt")
        save_checkpoint(path, model, cfg)
        back, cfg2 = load_checkpoint(path)
        assert cfg2.head == "rotmat"
        assert np.array_equal(back.head_w, model.head_w)


class TestCheckpointIO:
    def test_wigner_round_trip(self, tmp_path, spherical_ds):
        cfg = fast_cfg(epochs=2)
        model, _ = train(cfg, spherical_ds)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model, cfg)
        back, cfg2 = load_checkpoint(path)
        assert cfg2.hash() == cfg.hash()
        assert np.array_equal(back.mixer, model.mixer)
        rep1 = evaluate(model, spherical_ds, cfg)["metrics"]
        rep2 = evaluate(back, spherical_ds, cfg2)["metrics"]
        assert rep1 == rep2

    def test_checkpoint_file_is_read_once(self, tmp_path, spherical_ds,
                                          monkeypatch):
        cfg = fast_cfg(epochs=1)
        model, _ = train(cfg, spherical_ds)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, model, cfg)
        reads = []
        real = harness.read_blob
        monkeypatch.setattr(harness, "read_blob",
                            lambda *a, **k: reads.append(a) or real(*a, **k))
        back, _ = load_checkpoint(path)
        assert len(reads) == 1
        assert np.array_equal(back.so3.weights, model.so3.weights)

    @pytest.mark.parametrize("head", ["wigner", "rotmat"])
    def test_layout_1_is_pinned(self, tmp_path, spherical_ds, head):
        from so3harmonics.binio import write_blob
        cfg = fast_cfg(head=head, epochs=1)
        model, _ = train(cfg, spherical_ds)
        # the layout-1 field list, written without save_checkpoint
        meta = {"layout_version": 1, "bandlimit": 3, "nonlin_level": 2,
                "head": head, "config": json.loads(cfg.to_json())}
        arrays = {"mixer": model.mixer,
                  **{f"s2_spectra_{l}": model.s2.spectra[l] for l in range(4)}}
        if head == "wigner":
            meta["support_angle"] = cfg.support_angle
            arrays.update(so3_taps=model.so3.taps,
                          so3_weights=model.so3.weights)
        else:
            arrays["head_w"] = model.head_w
        oracle, path = str(tmp_path / "oracle.ckpt"), str(tmp_path / "m.ckpt")
        write_blob(oracle, "checkpoint", meta, arrays)
        save_checkpoint(path, model, cfg)
        assert Path(path).read_bytes() == Path(oracle).read_bytes()
        back, cfg2 = load_checkpoint(oracle)
        assert cfg2.hash() == cfg.hash()
        head_fields = {"so3_taps": back.so3.taps, "so3_weights": back.so3.weights
                       } if head == "wigner" else {"head_w": back.head_w}
        loaded = {"mixer": back.mixer, **head_fields,
                  **{f"s2_spectra_{l}": s for l, s in enumerate(back.s2.spectra)}}
        assert loaded.keys() == arrays.keys()
        for name, arr in arrays.items():
            assert np.array_equal(loaded[name], arr), name

    @pytest.mark.parametrize("field, value", [
        ("bandlimit", 4), ("nonlin_level", 1), ("support_angle", 0.5),
        ("head", "rotmat")])
    def test_writer_rejects_model_config_disagreement(self, tmp_path,
                                                      spherical_ds, field, value):
        cfg = fast_cfg(epochs=1)
        model, _ = train(cfg, spherical_ds)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="disagrees"):
            save_checkpoint(str(path), model, fast_cfg(epochs=1, **{field: value}))
        assert not path.exists()

    def test_incompatible_file_rejected(self, tmp_path, spherical_ds):
        from so3harmonics.binio import IncompatibleFileError
        path = str(tmp_path / "ds.bin")
        save_dataset(path, spherical_ds)
        with pytest.raises(IncompatibleFileError):
            load_checkpoint(path)


class TestAblationRunner:
    def test_grid_size_rows(self, spherical_ds):
        cfg = fast_cfg(epochs=10, infer_level=2)
        rows = harness.run_ablation("grid_size", cfg, spherical_ds)
        assert [r["variant"] for r in rows] == ["level0", "level1", "level2"]
        assert [r["grid_points"] for r in rows] == [72, 576, 4608]
        assert rows[0]["bin_width_deg"] == 60.0
        # finer grids cannot hurt the coarse-threshold accuracy much
        assert rows[-1]["median_error_deg"] <= rows[0]["median_error_deg"] + 1e-9
        table = harness.ablation_to_csv(rows)
        assert table.splitlines()[0].startswith("variant,")

    def test_unknown_kind_rejected(self, spherical_ds):
        with pytest.raises(ValueError):
            harness.run_ablation("optimizer", fast_cfg(), spherical_ds)


class TestLossVariants:
    @pytest.mark.parametrize("kind", ["l1", "huber", "mse_plus_ce"])
    def test_alternative_losses_train(self, spherical_ds, kind):
        cfg = fast_cfg(loss_kind=kind, epochs=8,
                       learning_rate=0.01 if kind != "mse_plus_ce" else 0.005)
        _, log = train(cfg, spherical_ds)
        assert np.isfinite(log[-1]["loss"])
        assert log[-1]["loss"] < log[0]["loss"]


class TestCli:
    def _run(self, *args, stdin=None):
        proc = subprocess.run([sys.executable, "-m", "so3harmonics.cli", *args],
                              capture_output=True, text=True, input=stdin)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_full_pipeline(self, tmp_path):
        ds_path = str(tmp_path / "ds.bin")
        ckpt = str(tmp_path / "model.ckpt")
        csv = str(tmp_path / "err.csv")
        report = str(tmp_path / "report.json")
        common = ["--bandlimit", "3", "--n-train-views", "12",
                  "--n-test-views", "4", "--infer-level", "1"]
        self._run("gen-dataset", "--out", ds_path, *common)
        self._run("train", "--dataset", ds_path, "--out", ckpt,
                  "--epochs", "3", *common)
        out = self._run("eval", "--checkpoint", ckpt, "--dataset", ds_path,
                        "--csv", csv, "--json", report)
        assert "median_error_deg" in out
        rep = json.loads(Path(report).read_text())
        assert "config_hash" in rep and "seeds" in rep
        lines = Path(csv).read_text().splitlines()
        assert lines[0] == ("index,error_deg,top1_prob,entropy,margin,"
                            "manifold_distance")
        assert len(lines) == 5 and all(len(l.split(",")) == 6 for l in lines)
        assert set(rep["readout_medians"]) == set(estimation.READOUTS)
        # refinement run reports both readouts
        self._run("eval", "--checkpoint", ckpt, "--dataset", ds_path,
                  "--grad-ascent", "--json", report)
        rep = json.loads(Path(report).read_text())
        assert rep["grad_ascent"] is True
        assert "argmax_metrics" in rep

    def test_user_errors_exit_2_without_traceback(self, tmp_path, spherical_ds):
        cfg = fast_cfg(epochs=1)
        ckpt, ds_path = str(tmp_path / "model.ckpt"), str(tmp_path / "ds.bin")
        save_checkpoint(ckpt, train(cfg, spherical_ds)[0], cfg)
        save_dataset(ds_path, spherical_ds)
        # the level-0 ReLU grid (72 rotations) cannot certify at L = 4
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({"bandlimit": 4, "nonlin_level": 0}))
        # a dataset whose indices run past its samples
        bad_ds = str(tmp_path / "bad_ds.bin")
        kind, meta, arrays = read_blob(ds_path)
        write_blob(bad_ds, kind, meta, {**arrays, "train_idx": arrays["train_idx"] + 100})
        evaluate = ["eval", "--dataset", ds_path, "--checkpoint"]
        cases = [([*evaluate, ckpt, "--infer-level", "5"], "--grad-ascent"),
                 ([*evaluate, ds_path], f"{ds_path}: kind 'dataset'"),
                 ([*evaluate, str(tmp_path / "none")], "No such file"),
                 (["train", "--config", str(bad_cfg), "--dataset", ds_path,
                   "--out", str(tmp_path / "bad.ckpt")],
                  "nonlin_level 1 is the smallest"),
                 (["train", "--dataset", bad_ds, "--out", str(tmp_path / "b.ckpt")],
                  f"{bad_ds}: train_idx")]
        # config files RunConfig rejects: a float level, an unknown head,
        # an unknown key, malformed JSON, and loss settings that would
        # train on negative losses, write NaN into the checkpoint or
        # reward a wrong pose distribution
        for name, text, message in [
                ("float", '{"nonlin_level": 2.0}', "nonlin_level must be an integer"),
                ("head", '{"head": "nope"}', "unknown head kind 'nope'"),
                ("key", '{"bogus": 1}', "unexpected keyword argument 'bogus'"),
                ("json", '{"bandlimit": ', "Expecting value"),
                ("huber", '{"loss_kind": "huber", "huber_delta": -1}',
                 "huber_delta must be finite and > 0, got -1"),
                ("nan", '{"softmax_temperature": NaN}',
                 "softmax_temperature must be finite and > 0, got nan"),
                ("inf", '{"softmax_temperature": Infinity}',
                 "softmax_temperature must be finite and > 0, got inf"),
                ("lambda", '{"loss_kind": "mse_plus_ce", "ce_lambda": -1}',
                 "ce_lambda must be finite and >= 0, got -1")]:
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            cases.append((["gen-dataset", "--config", str(path), "--out",
                           str(tmp_path / "x.bin")], f"{path}: ", message))
        # integer flags below 0
        gen = ["gen-dataset", "--out", str(tmp_path / "x.bin")]
        below_0 = "must be an integer >= 0, got -"
        cases += [([*gen, "--n-test-views", "-1"], f"n_test_views {below_0}1"),
                  ([*gen, "--n-train-views", "-3"], f"n_train_views {below_0}3"),
                  (["train", "--dataset", ds_path, "--out", str(tmp_path / "b.ckpt"),
                    "--bandlimit", "-1"], f"bandlimit {below_0}1")]
        # grid counts below 1: 0 must not fall back to the level's count
        grid_out = ["grids", "--kind", "random", "--level", "1", "--out",
                    str(tmp_path / "g.bin")]
        cases += [([*grid_out, "--count", "0"], "--count must be >= 1, got 0"),
                  ([*grid_out, "--count", "-5"], "--count must be >= 1, got -5")]
        for args, *messages in cases:
            self._fails(args, messages)
        # malformed convert input, on line 2 after a good line 1
        good = json.dumps({"type": "euler_zyz", "alpha": 0.3, "beta": 0.7,
                           "gamma": -0.2})
        for line, message in [
                ('{"type": ', "Expecting value"),
                ('[1, 2]', "expected a JSON object, got list"),
                ('{"type": "spin"}', "unknown rotation type tag: 'spin'"),
                ('{"type": "euler_zyz", "alpha": 0.1, "beta": 0.2}',
                 "missing key 'gamma'"),
                ('{"type": "quaternion", "w": 1, "x": 1, "y": 0, "z": 0}',
                 "quaternion norm"),
                ('{"type": "matrix", "m": [[1, 0], [0, 1]]}', "3x3 matrix")]:
            self._fails(["convert", "--to", "quaternion"],
                        ["stdin line 2: ", message], stdin=f"{good}\n{line}\n")
        # zero epochs train nothing but still write the checkpoint
        zero = str(tmp_path / "zero.ckpt")
        out = self._run("train", "--dataset", ds_path, "--out", zero,
                        "--epochs", "0")
        assert "trained 0 epochs\n" in out and "final loss" not in out
        load_checkpoint(zero)

    @staticmethod
    def _fails(args, messages, stdin=None):
        proc = subprocess.run([sys.executable, "-m", "so3harmonics.cli", *args],
                              input=stdin, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("so3harmonics: error: ")
        assert all(m in proc.stderr for m in messages), proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_grids_command(self, tmp_path):
        path = str(tmp_path / "grid.bin")
        out = self._run("grids", "--level", "1", "--out", path)
        assert "576 rotations" in out
        from so3harmonics.grids import load_grid
        assert load_grid(path).size == 576

    def test_grids_command_writes_band_limit_0_table(self, tmp_path):
        path = str(tmp_path / "grid.bin")
        self._run("grids", "--level", "0", "--bandlimit", "0", "--out", path)
        g = grids.load_grid(path)
        assert g.psi_bandlimit == 0
        assert g.psi_table.shape == (72, 1)

    def test_convert_command(self):
        src = json.dumps({"type": "euler_zyz", "alpha": 0.3, "beta": 0.7,
                          "gamma": -0.2})
        out = self._run("convert", "--to", "quaternion", stdin=src)
        obj = json.loads(out)
        assert obj["type"] == "quaternion"
        norm = obj["w"] ** 2 + obj["x"] ** 2 + obj["y"] ** 2 + obj["z"] ** 2
        assert norm == pytest.approx(1.0, abs=1e-12)
        back = self._run("convert", "--to", "euler_zyz", stdin=out)
        obj2 = json.loads(back)
        assert obj2["alpha"] == pytest.approx(0.3, abs=1e-9)
        assert obj2["beta"] == pytest.approx(0.7, abs=1e-9)

    def test_print_config(self, tmp_path):
        out = self._run("gen-dataset", "--out", str(tmp_path / "x.bin"),
                        "--print-config", "--bandlimit", "2",
                        "--n-train-views", "3", "--n-test-views", "1")
        assert '"bandlimit": 2' in out

    # a value other than the default for every config flag
    FLAG_VALUES = {"--bandlimit": 3, "--dataset-kind": "image",
                   "--n-train-views": 3, "--n-test-views": 1, "--epochs": 7,
                   "--learning-rate": 0.5, "--batch-size": 5,
                   "--loss-kind": "huber", "--head": "euler",
                   "--infer-level": 2, "--input-noise": 0.25,
                   "--grad-ascent-steps": 4, "--data-seed": 11,
                   "--init-seed": 12, "--train-seed": 13}

    def test_every_config_flag_reaches_its_field(self, tmp_path):
        parser = argparse.ArgumentParser()
        cli._add_config_flags(parser)
        dests = {a.option_strings[0]: a.dest for a in parser._actions
                 if a.dest not in ("help", "config", "print_config")}
        assert set(dests) == set(self.FLAG_VALUES)
        argv = [str(v) for item in self.FLAG_VALUES.items() for v in item]
        out = self._run("gen-dataset", "--out", str(tmp_path / "x.bin"),
                        "--print-config", *argv)
        printed = json.loads(out[:out.index("\nwrote ")])
        expect = RunConfig(**{dests[flag]: value
                              for flag, value in self.FLAG_VALUES.items()})
        assert printed == json.loads(expect.to_json())

    def test_only_config_fields_enter_a_config(self):
        # the eval-, grids- and convert-only arguments, and a name that
        # is a RunConfig method rather than a field
        args = argparse.Namespace(
            command="eval", checkpoint="m.ckpt", dataset="d.bin",
            grad_ascent=True, csv="e.csv", json_out="r.json", kind="random",
            level=3, count=5, allow_large=True, out="g.bin", to="quaternion",
            hash="x", config=None, print_config=False, bandlimit=None)
        assert cli._load_config(args) == RunConfig()

    def test_check_command(self):
        out = self._run("check")
        assert "PASS" in out and "FAIL" not in out
