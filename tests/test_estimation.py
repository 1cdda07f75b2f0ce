"""Losses, pose distributions, readout, and metric computations."""

import tracemalloc

import numpy as np
import pytest

from so3harmonics import estimation, fibers, grids, rotations, wigner
from so3harmonics._cache import LRUCache
from so3harmonics.estimation import (LossConfig, PoseDistribution, argmax_pose,
                                     decode_poses, error_angles_deg,
                                     gradient_ascent_pose, infer_distribution,
                                     loss_and_grad, metrics, write_error_csv,
                                     write_metrics_json)
from so3harmonics.rotations import sample_uniform_matrices, zyz_to_matrices


@pytest.fixture(scope="module")
def small_grid():
    return grids.so3_healpix(1).with_psi_table(4)


class TestMseLoss:
    def test_zero_at_match(self):
        psi = wigner.rotations_to_psi(np.eye(3), 4)
        assert loss_and_grad(psi, psi, LossConfig(4))[0] == 0.0

    def test_single_entry_arithmetic(self):
        cfg = LossConfig(0, level_weights=np.array([1.0]))
        assert loss_and_grad(np.array([2.0]), np.array([1.0]), cfg)[0] == 1.0

    def test_default_weights_equalize_levels(self):
        cfg = LossConfig(6)
        assert np.allclose(cfg.level_weights, 1.0 / (2 * np.arange(7) + 1))

    def test_invariance_under_joint_left_rotation(self):
        # with 1/(2l+1) weights the loss between two rotations' vectors
        # depends only on their relative rotation
        cfg = LossConfig(4)
        mats = sample_uniform_matrices(0, 3)
        r1, r2, r = mats[0], mats[1], mats[2]
        base, _ = loss_and_grad(wigner.rotations_to_psi(r1, 4),
                                wigner.rotations_to_psi(r2, 4), cfg)
        moved, _ = loss_and_grad(wigner.rotations_to_psi(r @ r1, 4),
                                 wigner.rotations_to_psi(r @ r2, 4), cfg)
        assert moved == pytest.approx(base, abs=1e-9)

    def test_bi_invariance_right_too(self):
        cfg = LossConfig(4)
        mats = sample_uniform_matrices(1, 3)
        r1, r2, r = mats
        base, _ = loss_and_grad(wigner.rotations_to_psi(r1, 4),
                                wigner.rotations_to_psi(r2, 4), cfg)
        moved, _ = loss_and_grad(wigner.rotations_to_psi(r1 @ r, 4),
                                 wigner.rotations_to_psi(r2 @ r, 4), cfg)
        assert moved == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("kind", ["mse", "l1", "huber", "cosine"])
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(2)
        cfg = LossConfig(2, kind=kind, huber_delta=0.3)
        pred = rng.normal(size=wigner.m_total(2))
        gt = rng.normal(size=wigner.m_total(2))
        _, grad = loss_and_grad(pred, gt, cfg)
        h = 1e-6
        for idx in rng.integers(0, len(pred), 10):
            up = pred.copy(); up[idx] += h
            dn = pred.copy(); dn[idx] -= h
            fd = (loss_and_grad(up, gt, cfg)[0] - loss_and_grad(dn, gt, cfg)[0]) / (2 * h)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestDistributionCE:
    def test_sharp_softmax_on_grid_vector(self, small_grid):
        q = 37
        pred = small_grid.psi_table[q]
        cfg = LossConfig(4, kind="distribution_ce", softmax_temperature=1e-3)
        loss, _ = loss_and_grad(pred, None, cfg,
                                gt_rotation=small_grid.rotations[q],
                                grid=small_grid)
        assert loss < 1e-9

    def test_uniform_logits_log_q(self, small_grid):
        pred = np.zeros(wigner.m_total(4))
        cfg = LossConfig(4, kind="distribution_ce")
        loss, _ = loss_and_grad(pred, None, cfg,
                                gt_rotation=small_grid.rotations[0],
                                grid=small_grid)
        assert loss == pytest.approx(np.log(small_grid.size), abs=1e-9)

    def test_joint_loss_is_sum_of_parts(self, small_grid):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=wigner.m_total(4))
        gt_m = small_grid.rotations[5]
        gt_psi = wigner.rotations_to_psi(gt_m, 4)
        mse_v, _ = loss_and_grad(pred, gt_psi, LossConfig(4))
        ce_v, _ = loss_and_grad(pred, None, LossConfig(4, kind="distribution_ce"),
                                gt_rotation=gt_m, grid=small_grid)
        joint, _ = loss_and_grad(pred, gt_psi,
                                 LossConfig(4, kind="mse_plus_ce", ce_lambda=1.0),
                                 gt_rotation=gt_m, grid=small_grid)
        assert joint == pytest.approx(mse_v + ce_v, rel=1e-12)



class TestBatchLoss:
    @pytest.mark.parametrize("kind", estimation.LOSS_KINDS)
    def test_batch_is_mean_of_rows(self, kind, small_grid):
        # the loss of a (B, M) batch is the in-order mean of the per-row
        # losses, its gradient the per-row gradients divided by B; row 2
        # is zero, the degenerate cosine case
        rng = np.random.default_rng(21)
        cfg = LossConfig(4, kind=kind, huber_delta=0.3)
        mats = sample_uniform_matrices(21, 5)
        gt = wigner.rotations_to_psi(mats, 4)
        pred = gt + 0.3 * rng.normal(size=gt.shape)
        pred[2] = 0.0
        value, grad = loss_and_grad(pred, gt, cfg, gt_rotation=mats,
                                    grid=small_grid)
        total = 0.0
        rows = []
        for p, g, m in zip(pred, gt, mats):
            v, d = loss_and_grad(p, g, cfg, gt_rotation=m, grid=small_grid)
            total += v
            rows.append(d)
        expect_value = total * (1.0 / 5)
        expect_grad = np.stack(rows) * (1.0 / 5)
        assert grad.shape == pred.shape
        if kind in ("mse", "l1", "huber", "cosine"):
            assert value.hex() == expect_value.hex()
            assert grad.tobytes() == expect_grad.tobytes()
        else:
            # one (B, M) @ (M, Q) product sums in another order than B
            # matrix-vector products
            assert value == pytest.approx(expect_value, rel=1e-12, abs=0)
            assert np.max(np.abs(grad - expect_grad)) <= \
                1e-12 * np.max(np.abs(expect_grad))

    @pytest.mark.parametrize("kind", ["distribution_ce", "mse_plus_ce"])
    def test_ce_kinds_name_a_missing_input(self, kind, small_grid):
        psi = wigner.rotations_to_psi(small_grid.rotations[3], 4)
        cfg = LossConfig(4, kind=kind)
        with pytest.raises(ValueError, match="grid"):
            loss_and_grad(psi, psi, cfg, gt_rotation=small_grid.rotations[3])
        with pytest.raises(ValueError, match="ground-truth rotation"):
            loss_and_grad(psi, psi, cfg, grid=small_grid)

class TestInferDistribution:
    def test_self_query_peaks_at_own_index(self, small_grid):
        for q in (0, 123, 570):
            d = infer_distribution(small_grid.psi_table[q], small_grid)
            assert int(np.argmax(d.probs)) == q

    def test_high_temperature_flattens(self, small_grid):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=wigner.m_total(4))
        d = infer_distribution(pred, small_grid, temperature=1e9)
        assert d.probs.max() - d.probs.min() < 1e-6

    def test_probs_sum_to_one(self, small_grid):
        rng = np.random.default_rng(5)
        d = infer_distribution(rng.normal(size=wigner.m_total(4)), small_grid)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_positive_temperature_rejected(self, small_grid):
        pred = small_grid.psi_table[7]
        for temperature in (-1.0, 0.0):
            with pytest.raises(ValueError, match="temperature"):
                infer_distribution(pred, small_grid, temperature=temperature)

    def test_non_finite_probabilities_rejected(self, small_grid):
        probs = np.full(small_grid.size, 1.0 / small_grid.size)
        probs[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PoseDistribution(small_grid, probs)

    def test_logit_shift_invariance(self, small_grid):
        # adding a constant to every logit is a rescale of the prediction
        # by psi-orthogonal content; check directly on the softmax
        rng = np.random.default_rng(6)
        logits = rng.normal(size=small_grid.size)
        e1 = np.exp(logits - logits.max())
        p1 = e1 / e1.sum()
        shifted = logits + 123.456
        e2 = np.exp(shifted - shifted.max())
        p2 = e2 / e2.sum()
        assert np.allclose(p1, p2, atol=1e-15)


class TestArgmaxPose:
    def test_delta_distribution(self, small_grid):
        probs = np.zeros(small_grid.size)
        probs[99] = 1.0
        pose = argmax_pose(PoseDistribution(small_grid, probs))
        assert np.array_equal(pose.m, small_grid.rotations[99])

    def test_error_bounded_by_covering_radius(self):
        # probe set drawn from the same stream contains every query, so
        # the measured radius is a true bound for them
        grid = grids.so3_healpix(2).with_psi_table(4)
        rad = grids.covering_radius(grid, probes=400, seed=8)
        worst = 0.0
        for m in sample_uniform_matrices(8, 400):
            psi = wigner.rotations_to_psi(m, 4)
            pose = argmax_pose(infer_distribution(psi, grid))
            err = np.degrees(rotations.geodesic_distances(pose.m, m))
            worst = max(worst, float(err))
        assert worst <= rad + 1e-6


class TestBatchedDecode:
    def test_batch_matches_dense_per_sample_argmax(self):
        # criterion 05's queries on the level-3 grid, clean and noisy; the
        # oracle scores each query alone against the dense table
        grid = grids.so3_healpix(3).with_psi_table(6)
        queries = wigner.rotations_to_psi(sample_uniform_matrices(5, 1000), 6)
        noisy = queries + 0.3 * np.random.default_rng(12).normal(size=queries.shape)
        for psis in (queries, noisy):
            for start in range(0, 1000, 250):
                block = psis[start:start + 250]
                poses = argmax_pose(infer_distribution(block, grid))
                expect = [np.argmax(grid.psi_table @ psi) for psi in block]
                assert np.array_equal(poses, grid.rotations[expect])

    def test_batch_rows_match_single_distributions(self, small_grid):
        preds = np.random.default_rng(13).normal(size=(5, wigner.m_total(4)))
        batch = infer_distribution(preds, small_grid, temperature=0.7)
        assert batch.probs.shape == (5, small_grid.size)
        for row, pred in zip(batch.probs, preds):
            single = infer_distribution(pred, small_grid, temperature=0.7)
            assert np.allclose(row, single.probs, rtol=1e-12, atol=1e-300)


class TestFactoredScoring:
    # the dense psi-table product is the reference for the fiber path

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("bandlimit", [1, 2, 4, 6])
    def test_scores_and_adjoint_match_dense_table(self, level, bandlimit):
        # levels 0 and 1 at L = 6 have F = 6, 12 <= 2L fiber angles
        grid = grids.so3_healpix(level)
        table = wigner.rotations_to_psi(grid.rotations, bandlimit)
        rng = np.random.default_rng(level * 10 + bandlimit)
        preds = rng.normal(size=(3, wigner.m_total(bandlimit)))
        weights = rng.normal(size=(3, grid.size))
        assert fibers.fiber_table(grid, bandlimit) is not None
        scores = estimation._scores(preds, grid)
        expect = preds @ table.T
        assert np.max(np.abs(scores - expect)) <= 1e-12 * np.max(np.abs(expect))
        back = estimation._scores_adjoint(weights, grid, bandlimit)
        expect = weights @ table
        assert np.max(np.abs(back - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_level3_table_is_the_fiber_zero_rotations(self):
        grid = grids.so3_healpix(3)
        table = fibers.fiber_table(grid, 6)
        assert table.base_psi.shape == (768, 455)
        assert table.trig.shape == (13, 48)
        # columns in |n| class order: a permutation of the harmonic vector
        assert np.array_equal(np.sort(table.order), np.arange(455))
        assert np.array_equal(table.order[table.order_inverse], np.arange(455))
        # and each class k > 0 splits into equal n = -k and n = +k halves
        assert all((hi - lo) % 2 == 0
                   for lo, hi in zip(table.bounds[1:], table.bounds[2:]))
        assert np.array_equal(table.base_psi,
                              wigner.rotations_to_psi(grid.rotations[::48], 6)[:, table.order])
        # the layout the fancy index gives: the grid ReLU's G_k bits depend on it
        assert table.base_psi.flags.f_contiguous

    def test_ce_value_and_gradient_match_dense_computation(self):
        grid = grids.so3_healpix(2)
        assert grid.psi_table is None
        rng = np.random.default_rng(31)
        mats = sample_uniform_matrices(31, 6)
        preds = wigner.rotations_to_psi(mats, 6) + 0.5 * rng.normal(size=(6, 455))
        cfg = LossConfig(6, kind="distribution_ce", softmax_temperature=0.5)
        value, grad = loss_and_grad(preds, None, cfg, gt_rotation=mats, grid=grid)
        table = wigner.rotations_to_psi(grid.rotations, 6)
        rows = np.arange(6)
        target = grids.nearest_index(grid, mats)
        logits = preds @ table.T / 0.5
        logits -= logits.max(axis=1, keepdims=True)
        logexp = np.log(np.sum(np.exp(logits), axis=1))
        expect_value = np.mean(logexp - logits[rows, target])
        d_logits = np.exp(logits - logexp[:, None])
        d_logits[rows, target] -= 1.0
        expect_grad = d_logits @ table / 0.5 / 6
        assert value == pytest.approx(expect_value, rel=1e-12, abs=0)
        assert np.max(np.abs(grad - expect_grad)) <= \
            1e-12 * np.max(np.abs(expect_grad))

    def test_haar_rotations_labelled_healpix_are_scored_densely(self):
        # the fiber path checks the rotations, not the kind label
        count = grids.so3_healpix_count(1)
        fake = grids.SO3Grid(kind="healpix_hopf",
                             rotations=sample_uniform_matrices(32, count),
                             nominal_resolution_deg=30.0, level=1)
        assert fibers.fiber_table(fake, 4) is None
        preds = np.random.default_rng(32).normal(size=(3, wigner.m_total(4)))
        with pytest.raises(ValueError, match="table"):
            decode_poses(preds, fake)
        with pytest.raises(ValueError, match="table"):
            infer_distribution(preds, fake)
        dense = fake.with_psi_table(4)
        best = np.argmax(preds @ dense.psi_table.T, axis=1)
        assert np.array_equal(decode_poses(preds, dense).rotations,
                              dense.rotations[best])

    def test_a_negative_level_grid_decodes_densely(self):
        # 9 rotations labelled healpix_hopf at level -1: no fiber table
        # for F = 6 * 2^-1, so its dense table scores it
        grid = grids.SO3Grid("healpix_hopf", sample_uniform_matrices(34, 9), 60.0,
                             level=-1).with_psi_table(2)
        preds = np.random.default_rng(34).normal(size=(4, wigner.m_total(2)))
        best = np.argmax(preds @ grid.psi_table.T, axis=1)
        assert np.array_equal(decode_poses(preds, grid).rotations, grid.rotations[best])

    def test_one_moved_rotation_disables_the_fiber_path(self):
        grid = grids.so3_healpix(1)
        mats = grid.rotations.copy()
        mats[300] = mats[300] @ zyz_to_matrices(0.0, 1e-6, 0.0)
        moved = grids.SO3Grid(kind="healpix_hopf", rotations=mats,
                              nominal_resolution_deg=30.0, level=1)
        assert fibers.fiber_table(grid, 4) is not None
        assert fibers.fiber_table(moved, 4) is None


class TestDecodePoses:
    def test_readouts_match_distribution_and_dense_scores(self, small_grid):
        rng = np.random.default_rng(33)
        own = [5, 123, 570]
        preds = np.concatenate([rng.normal(size=(4, wigner.m_total(4))),
                                small_grid.psi_table[own]])
        d = decode_poses(preds, small_grid, temperature=0.7)
        probs = infer_distribution(preds, small_grid, temperature=0.7).probs
        scores = preds @ small_grid.psi_table.T
        best = np.argmax(scores, axis=1)
        top2 = np.sort(scores, axis=1)[:, -2:]
        plogp = np.where(probs > 0, probs * np.log(np.where(probs > 0, probs, 1.0)), 0.0)
        assert np.array_equal(d.rotations, small_grid.rotations[best])
        assert np.max(np.abs(d.top1_prob - probs.max(axis=1))) <= 1e-12
        assert np.max(np.abs(d.entropy + plogp.sum(axis=1))) <= 1e-12
        assert np.max(np.abs(d.margin - (top2[:, 1] - top2[:, 0]))) <= 1e-12
        dist = np.linalg.norm(preds - small_grid.psi_table[best], axis=1)
        assert np.max(np.abs(d.manifold_distance - dist)) <= 1e-12
        assert np.all(d.manifold_distance[4:] <= 1e-12)

    @pytest.mark.parametrize("temperature", [1.0, 0.7])
    @pytest.mark.parametrize("dense", [False, True])
    def test_blocked_decode_matches_whole_score_readouts(self, dense, temperature):
        # batches of one row, of one row past a score block and of one
        # row past a coefficient chunk, read out against the whole
        # (B, size) scores of the batch
        if dense:
            grid, bandlimit = grids.so3_super_fibonacci(576).with_psi_table(4), 4
            sizes = [1, estimation._BLOCK_BYTES // (8 * grid.size) + 1]
        else:
            grid, bandlimit = grids.so3_healpix(3), 6
            table = fibers.fiber_table(grid, bandlimit)
            sizes = [1, estimation._BLOCK_BYTES // (8 * grid.size) + 1,
                     fibers._CHUNK_BYTES
                     // (8 * table.trig.shape[0] * len(table.base_psi)) + 1]
        rng = np.random.default_rng(34)
        for size in sizes:
            mats = sample_uniform_matrices(int(rng.integers(1 << 30)), size)
            preds = (wigner.rotations_to_psi(mats, bandlimit)
                     + 0.3 * rng.normal(size=(size, wigner.m_total(bandlimit))))
            d = decode_poses(preds, grid, temperature=temperature)
            scores = estimation._scores(preds, grid)
            best = np.argmax(scores, axis=1)
            top2 = np.sort(scores, axis=1)[:, -2:]
            logits = (scores - top2[:, 1:]) / temperature
            logz = np.log(np.exp(logits).sum(axis=1))
            probs = np.exp(logits - logz[:, None])
            assert np.array_equal(d.rotations, grid.rotations[best])
            assert np.max(np.abs(d.top1_prob - probs.max(axis=1))) <= 1e-12
            assert np.max(np.abs(d.entropy - (logz - (probs * logits).sum(axis=1)))) <= 1e-12
            assert np.max(np.abs(d.margin - (top2[:, 1] - top2[:, 0]))) <= 1e-12
            psi = wigner.rotations_to_psi(grid.rotations[best], bandlimit)
            assert np.max(np.abs(d.manifold_distance
                                 - np.linalg.norm(preds - psi, axis=1))) <= 1e-12

    def test_empty_batch_gives_empty_readouts(self, small_grid):
        d = decode_poses(np.empty((0, wigner.m_total(4))), small_grid)
        assert d.rotations.shape == (0, 3, 3)
        for name in estimation.READOUTS:
            assert getattr(d, name).shape == (0,)

    def test_single_vector_decodes_as_a_batch_of_one(self, small_grid):
        d = decode_poses(small_grid.psi_table[42], small_grid)
        assert d.rotations.shape == (1, 3, 3) and d.entropy.shape == (1,)
        assert np.array_equal(d.rotations[0], small_grid.rotations[42])

    def test_non_positive_temperature_rejected(self, small_grid):
        with pytest.raises(ValueError, match="temperature"):
            decode_poses(small_grid.psi_table[7], small_grid, temperature=0.0)

    def test_thousand_level3_queries_in_bounded_memory(self, monkeypatch):
        # criterion 05's queries in one call: the (1000, 36864) score
        # array alone would be 295 MB
        monkeypatch.setattr(fibers, "fiber_table_cache", LRUCache(6))
        queries = sample_uniform_matrices(5, 1000)
        psis = wigner.rotations_to_psi(queries, 6)
        grid = grids.so3_healpix(3)
        tracemalloc.start()
        try:
            d = decode_poses(psis, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        errs = np.degrees(rotations.geodesic_distances(d.rotations, queries))
        assert errs.max() <= 7.5


class TestGradientAscent:
    def test_zero_steps_returns_start(self):
        psi = wigner.rotations_to_psi(np.eye(3)[None], 4)
        start = zyz_to_matrices(0.3, 0.0, 0.0)[None]
        out = gradient_ascent_pose(psi, start, steps=0)
        assert np.allclose(out, start)

    def test_single_forms_are_rejected(self):
        psi = wigner.rotations_to_psi(np.eye(3), 4)
        with pytest.raises(ValueError, match=r"\(B, M\)"):
            gradient_ascent_pose(psi, np.eye(3))
        with pytest.raises(ValueError, match=r"\(B, 3, 3\)"):
            gradient_ascent_pose(psi[None], np.eye(3))

    def test_local_convergence(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            m = sample_uniform_matrices(trial + 40, 1)[0]
            psi = wigner.rotations_to_psi(m[None], 4)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            pert = rotations.axis_angles_to_matrices(axis[None],
                                                     np.array([np.radians(3.0)]))
            start = pert @ m
            out = gradient_ascent_pose(psi, start, steps=60, lr=1e-3)
            err = np.degrees(rotations.geodesic_distances(out[0], m))
            assert err < 0.1

    def test_never_scores_below_start(self):
        rng = np.random.default_rng(10)
        pred = rng.normal(size=wigner.m_total(3))
        start = sample_uniform_matrices(50, 1)
        out = gradient_ascent_pose(pred[None], start, steps=5, lr=0.05)
        s0 = wigner.rotations_to_psi(start[0], 3) @ pred
        s1 = wigner.rotations_to_psi(out[0], 3) @ pred
        assert s1 >= s0 - 1e-12

    def test_gradient_matches_central_differences(self):
        # g_k = psi(R) . q_k is d/dt <psi(R exp(t K_k)), pred> at t = 0
        rng = np.random.default_rng(14)
        L, h = 6, 1e-5
        preds = rng.normal(size=(4, wigner.m_total(L)))
        mats = sample_uniform_matrices(15, 4)
        q = estimation._tangent_weights(preds)
        grads = np.einsum("nm,nkm->nk", wigner.rotations_to_psi(mats, L), q)
        for k in range(3):
            step = rotations.axis_angles_to_matrices(np.eye(3)[[k] * 4],
                                                     np.full(4, h))
            up = wigner.rotations_to_psi(mats @ step, L)
            dn = wigner.rotations_to_psi(mats @ step.transpose(0, 2, 1), L)
            fd = np.sum((up - dn) * preds, axis=1) / (2 * h)
            assert np.max(np.abs(grads[:, k] - fd)) <= 1e-9 * np.max(np.abs(grads))

    def test_batch_matches_rows_refined_alone(self):
        rng = np.random.default_rng(16)
        truth = sample_uniform_matrices(17, 6)
        preds = wigner.rotations_to_psi(truth, 4) + 0.2 * rng.normal(
            size=(6, wigner.m_total(4)))
        axes = rng.normal(size=(6, 3))
        starts = rotations.axis_angles_to_matrices(
            axes / np.linalg.norm(axes, axis=1, keepdims=True),
            np.full(6, np.radians(5.0))) @ truth
        batch = gradient_ascent_pose(preds, starts, steps=15, lr=1e-3)
        for pred, start, got in zip(preds, starts, batch):
            alone = gradient_ascent_pose(pred[None], start[None],
                                         steps=15, lr=1e-3)[0]
            # |A - B|_F = 2 sqrt(2) sin(angle / 2); arccos of the trace
            # cannot resolve angles below ~1e-8
            assert np.linalg.norm(alone - got) / np.sqrt(2) <= 1e-12


class TestMetrics:
    def test_perfect_predictions(self):
        mats = sample_uniform_matrices(11, 7)
        out = metrics(mats, mats)
        assert out["median_error_deg"] == pytest.approx(0.0, abs=1e-5)
        for t in estimation.ACCURACY_THRESHOLDS_DEG:
            assert out[f"acc_at_{t:g}"] == 1.0

    def test_single_pair_at_20_degrees(self):
        pred = [np.eye(3)]
        gt = [zyz_to_matrices(0.0, np.radians(20.0), 0.0)]
        out = metrics(pred, gt)
        assert out["median_error_deg"] == pytest.approx(20.0, abs=1e-9)
        assert out["acc_at_15"] == 0.0
        assert out["acc_at_30"] == 1.0

    def test_even_count_averages_middles(self):
        gt = [np.eye(3)] * 4
        pred = [zyz_to_matrices(np.radians(d), 0.0, 0.0) for d in (2, 4, 8, 16)]
        out = metrics(pred, gt)
        assert out["median_error_deg"] == pytest.approx(6.0, abs=1e-9)

    def test_random_pairs_match_uniform_law_median(self):
        # Monte Carlo oracle for the uniform relative-angle law: the CDF
        # (w - sin w)/pi reaches 1/2 at w = 2.309881 rad = 132.35 deg
        a = sample_uniform_matrices(12, 10_000)
        b = sample_uniform_matrices(13, 10_000)
        out = metrics(a, b)
        assert out["median_error_deg"] == pytest.approx(132.35, abs=1.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_angles_deg(sample_uniform_matrices(1, 3),
                             sample_uniform_matrices(1, 4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))


class TestReports:
    def test_csv_and_json_written(self, tmp_path):
        errors = np.array([1.0, 2.5])
        csv_path = tmp_path / "errors.csv"
        json_path = tmp_path / "metrics.json"
        write_error_csv(str(csv_path), errors)
        write_metrics_json(str(json_path), {"median_error_deg": 1.75})
        assert "index,error_deg" in csv_path.read_text()
        assert "median_error_deg" in json_path.read_text()

    def test_csv_has_one_column_per_readout(self, tmp_path):
        csv_path = tmp_path / "errors.csv"
        write_error_csv(str(csv_path), np.array([1.0, 2.5]),
                        {"top1_prob": np.array([0.5, 0.25]),
                         "margin": np.array([3.0, 0.125])})
        assert csv_path.read_text().splitlines() == [
            "index,error_deg,top1_prob,margin", "0,1.000000,0.5,3",
            "1,2.500000,0.25,0.125"]
