"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  The slow trainings (criteria 7 and 8) dominate the
runtime; everything is deterministic.
"""

import dataclasses

import numpy as np
import pytest

from complex_basis import small_d_matrix
from euler_route import via_euler
from gradcheck import batch_loss_and_grads, kink_safe_gradcheck
from so3harmonics import estimation, grids, harness, rotations, wigner
from so3harmonics.harmonics import (PointSet, SphericalCoeffs, SphericalSignal,
                                    analyze, synthesize)
from so3harmonics.rotations import (matrices_to_zyz, sample_uniform_matrices,
                                    zyz_to_matrices)

RESULTS = []


def record(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    RESULTS.append(line)
    assert ok, line


def teardown_module(module):
    print("\n".join(["", "acceptance summary:"] + RESULTS))


def test_criterion_01_wigner_correctness():
    rng = np.random.default_rng(0)
    worst_eye = 0.0
    worst_orth = 0.0
    betas = rng.uniform(0, np.pi, 1000)
    for l in range(7):
        d0 = small_d_matrix(l, 0.0)
        worst_eye = max(worst_eye, float(np.max(np.abs(d0 - np.eye(2 * l + 1)))))
        ds = np.array([small_d_matrix(l, b) for b in betas])
        eye = np.einsum("nij,nkj->nik", ds, ds)
        worst_orth = max(worst_orth, float(np.max(np.abs(eye - np.eye(2 * l + 1)))))

    pairs = sample_uniform_matrices(1, 2000).reshape(1000, 2, 3, 3)
    prod = np.einsum("nij,njk->nik", pairs[:, 0], pairs[:, 1])
    worst_hom = 0.0
    for l in range(7):
        b1 = wigner.wigner_block_stacks_real(pairs[:, 0], l)[l]
        b2 = wigner.wigner_block_stacks_real(pairs[:, 1], l)[l]
        b12 = wigner.wigner_block_stacks_real(prod, l)[l]
        err = np.max(np.abs(np.einsum("nij,njk->nik", b1, b2) - b12))
        worst_hom = max(worst_hom, float(err))
    record(1, worst_eye < 1e-12 and worst_orth < 1e-10 and worst_hom < 1e-9,
           f"d(0)=I err {worst_eye:.2e}, orthogonality {worst_orth:.2e} "
           f"(<1e-10), homomorphism {worst_hom:.2e} (<1e-9)")


def test_criterion_02_shift_theorem():
    grid = grids.healpix_s2(3)
    rng = np.random.default_rng(2)
    coeffs = SphericalCoeffs(4, rng.normal(size=(2, 25)))
    worst = 0.0
    for seed in range(5):
        m = sample_uniform_matrices(seed, 1)[0]
        rotated_coeffs = wigner.rotate_coeffs(coeffs, m)
        pulled_pts = grid.xyz @ m
        theta = np.arccos(np.clip(pulled_pts[:, 2], -1, 1))
        phi = np.arctan2(pulled_pts[:, 1], pulled_pts[:, 0]) % (2 * np.pi)
        resampled = synthesize(coeffs, PointSet(theta, phi))
        analyzed = analyze(SphericalSignal(grid, resampled.values), 4)
        rel = (np.linalg.norm(analyzed.data - rotated_coeffs.data)
               / np.linalg.norm(rotated_coeffs.data))
        worst = max(worst, float(rel))
    record(2, worst < 1e-6,
           f"rotate-then-analyze vs analyze-then-rotate rel L2 {worst:.2e} (<1e-6)")


def test_criterion_03_layer_equivariance():
    from so3harmonics.specconv import (_blocks, forward_trunk, head_wigner,
                                       init_toy_model, s2_conv, so3_conv)
    L = 4
    model = init_toy_model(3, L, in_channels=3, mid_channels=4,
                           hidden_channels=6, tap_count=16)
    rng = np.random.default_rng(3)
    worst_lin = 0.0
    for seed in range(10):
        m = sample_uniform_matrices(200 + seed, 1)[0]
        dmats = [d[0] for d in wigner.wigner_block_stacks_real(via_euler(m)[None], L)]
        c = SphericalCoeffs(L, rng.normal(size=(4, 25)))
        lhs = _blocks(s2_conv(wigner.rotate_coeffs(c, m).data, model.s2), L)
        rhs = _blocks(s2_conv(c.data, model.s2), L)
        for l in range(L + 1):
            err = np.max(np.abs(lhs[l]
                                - np.einsum("mn,cnk->cmk", dmats[l], rhs[l])))
            worst_lin = max(worst_lin, float(err))
        x = rng.normal(size=(6, wigner.m_total(L)))
        xl = np.concatenate([
            np.einsum("mn,cnk->cmk", dmats[l], xb).reshape(6, -1)
            for l, xb in enumerate(_blocks(x, L))], axis=1)
        lhs2 = _blocks(so3_conv(xl, model.so3), L)
        rhs2 = _blocks(so3_conv(x, model.so3), L)
        for l in range(L + 1):
            err = np.max(np.abs(lhs2[l]
                                - np.einsum("mn,cnk->cmk", dmats[l], rhs2[l])))
            worst_lin = max(worst_lin, float(err))

    # end-to-end approximate equivariance under in-plane spins
    grid = grids.healpix_s2(2)
    base = SphericalCoeffs(L, rng.normal(size=(3, 25)))

    def predict(coeffs):
        values = synthesize(coeffs, grid).values[None]
        return head_wigner(model, forward_trunk(model, "spherical", values,
                                                grid=grid)[0])[0]

    worst_e2e = 0.0
    for angle in (0.5, 1.7, 3.0):
        rz = rotations.zyz_to_matrices(angle, 0.0, 0.0)
        psi0 = predict(base)
        psi1 = predict(wigner.rotate_coeffs(base, rz))
        dz = wigner.wigner_block_stacks_real(via_euler(rz)[None], L)
        rot = np.concatenate([(dz[l][0] @ block).ravel()
                              for l, block in enumerate(_blocks(psi0, L))])
        rel = np.linalg.norm(psi1 - rot) / np.linalg.norm(rot)
        worst_e2e = max(worst_e2e, float(rel))
    record(3, worst_lin < 1e-9 and worst_e2e < 0.05,
           f"layer identities {worst_lin:.2e} (<1e-9), end-to-end in-plane "
           f"rel L2 {worst_e2e:.3f} (<0.05)")


def test_criterion_04_grid_fidelity():
    expected = {0: 72, 1: 576, 2: 4608, 3: 36864, 4: 294912, 5: 2359296}
    counts_ok = True
    for r in range(6):
        g = grids.so3_healpix(r, allow_large=r >= 5)
        counts_ok = counts_ok and g.size == expected[r]
        del g
    radii = [grids.covering_radius(grids.so3_healpix(r), probes=400, seed=4)
             for r in range(4)]
    ratios = [radii[i] / radii[i + 1] for i in range(3)]
    shrink_ok = all(1.5 <= q <= 2.5 for q in ratios)
    record(4, counts_ok and shrink_ok,
           f"counts 72..2359296 exact: {counts_ok}; covering radii "
           f"{[round(r, 2) for r in radii]} deg, ratios "
           f"{[round(q, 2) for q in ratios]} within 2x +/- 25%")


def test_criterion_05_inference_precision():
    # the library decoder scores every query against every rotation
    queries = sample_uniform_matrices(5, 1000)
    decoded = estimation.decode_poses(wigner.rotations_to_psi(queries, 6),
                                      grids.so3_healpix(3))
    errs = np.degrees(rotations.geodesic_distances(decoded.rotations, queries))
    worst, med = float(np.max(errs)), float(np.median(errs))

    sub = sample_uniform_matrices(55, 50)
    decoded = estimation.decode_poses(wigner.rotations_to_psi(sub, 6),
                                      grids.so3_healpix(5, allow_large=True))
    worst5 = float(np.max(np.degrees(rotations.geodesic_distances(
        decoded.rotations, sub))))
    record(5, worst <= 7.5 and med <= 4.0 and worst5 <= 1.875,
           f"level-3 argmax: worst {worst:.3f} deg (<=7.5), median {med:.3f} "
           f"(<=4); level-5 worst {worst5:.3f} deg (<=1.875)")


def test_criterion_06_gradient_fidelity():
    from so3harmonics.estimation import LossConfig
    from so3harmonics.specconv import init_toy_model
    L = 4
    model = init_toy_model(6, L, in_channels=3, mid_channels=4,
                           hidden_channels=6, tap_count=16)
    grid = grids.healpix_s2(2)
    rng = np.random.default_rng(6)
    # a batch of one
    values = synthesize(SphericalCoeffs(L, rng.normal(size=(3, 25))),
                        grid).values[None]
    gt = wigner.rotations_to_psi(sample_uniform_matrices(6, 1), L)
    cfg = LossConfig(L)

    def loss_and_mask():
        value, _, mask = batch_loss_and_grads(model, "spherical", values, gt,
                                              cfg, grid=grid)
        return value, mask

    _, grads, _ = batch_loss_and_grads(model, "spherical", values, gt, cfg,
                                       grid=grid)
    checks = [(model.mixer, grads["mixer"]),
              (model.s2.spectra[3], grads["s2_spectra"][3]),
              (model.so3.weights, grads["so3_weights"])]
    worst, skipped = kink_safe_gradcheck(loss_and_mask, checks, rng, 50)
    record(6, worst < 1e-4,
           f"analytic vs central differences over 50 coords: max rel err "
           f"{worst:.2e} (<1e-4); {skipped} draws skipped at ReLU kinks")


TOY_CFG = harness.RunConfig(
    bandlimit=4, template_bandlimit=4, template_channels=3,
    n_train_views=100, n_test_views=20, epochs=80, learning_rate=0.02,
    lr_decay_every=50, batch_size=25, infer_level=3)


@pytest.fixture(scope="module")
def toy_dataset():
    return harness.gen_dataset(TOY_CFG)


def test_criterion_07_toy_convergence(toy_dataset):
    model, log = harness.train(TOY_CFG, toy_dataset)
    rep = harness.evaluate(model, toy_dataset, TOY_CFG)
    med = rep["metrics"]["median_error_deg"]
    acc15 = rep["metrics"]["acc_at_15"]
    record(7, med < 5.0 and acc15 > 0.9,
           f"100-view toy task at L=4: test median {med:.2f} deg (<5), "
           f"Acc@15 {acc15:.2f} (>0.9); final loss {log[-1]['loss']:.2e}")


def test_criterion_08_ablation_directions(toy_dataset):
    # parametrization: harmonic-vector head vs raw Euler head
    rows = {r["variant"]: r for r in harness.run_ablation(
        "parametrization", dataclasses.replace(TOY_CFG, epochs=60),
        toy_dataset)}
    wig_med = rows["wigner"]["median_error_deg"]
    eul_med = rows["euler"]["median_error_deg"]
    param_ok = eul_med >= 5.0 * wig_med
    # losses: fine-scale readout separates cosine from the converging trio
    loss_rows = {r["variant"]: r for r in harness.run_ablation(
        "loss", dataclasses.replace(TOY_CFG, grad_ascent_steps=30),
        toy_dataset)}
    trio_ok = all(loss_rows[k]["acc_at_15"] > 0.9 for k in ("mse", "l1", "huber"))
    cosine_ok = (loss_rows["cosine"]["median_error_deg"]
                 >= 2.0 * loss_rows["mse"]["median_error_deg"])
    # inference grid type: agreement within one percentage point
    grid_rows = {r["variant"]: r for r in harness.run_ablation(
        "grid_type", TOY_CFG, toy_dataset)}
    accs = [grid_rows[k]["acc_at_15"]
            for k in ("healpix_hopf", "random", "super_fibonacci")]
    grid_ok = max(accs) - min(accs) <= 0.01
    # band limit: monotone rise to a plateau on the noisy variant
    noisy_cfg = dataclasses.replace(TOY_CFG, input_noise=0.5,
                                    learning_rate=0.01, bandlimit=6)
    noisy_ds = harness.gen_dataset(noisy_cfg)
    bl_rows = harness.run_ablation("bandlimit", noisy_cfg, noisy_ds)
    seq = [r["acc_at_15"] for r in bl_rows]
    monotone = all(b >= a - 0.03 for a, b in zip(seq, seq[1:]))
    plateau = max(seq[-3:]) - min(seq[-3:]) <= 0.05
    bl_ok = monotone and plateau
    record(8, param_ok and trio_ok and cosine_ok and grid_ok and bl_ok,
           f"euler {eul_med:.1f} vs wigner {wig_med:.2f} deg "
           f"(>=5x: {param_ok}); mse/l1/huber converge {trio_ok}, cosine "
           f"{loss_rows['cosine']['median_error_deg']:.2f} vs mse "
           f"{loss_rows['mse']['median_error_deg']:.2f} deg (>=2x: {cosine_ok}); "
           f"grid-type Acc@15 spread {max(accs) - min(accs):.3f} (<=0.01); "
           f"bandlimit Acc@15 {['%.2f' % a for a in seq]} "
           f"monotone-then-plateau {bl_ok}")


def test_criterion_09_rotation_round_trips():
    mats = sample_uniform_matrices(9, 10_000)
    worst = max(float(np.max(np.abs(back - mats))) for back in (
        zyz_to_matrices(*matrices_to_zyz(mats)),
        rotations.quats_to_matrices(rotations.matrices_to_quats(mats)),
        rotations.axis_angles_to_matrices(*rotations.matrices_to_axis_angles(mats))))
    trips_ok = worst < 1e-9

    trip = sample_uniform_matrices(19, 30000).reshape(10000, 3, 3, 3)
    d1 = rotations.geodesic_distances(
        np.einsum("nij,njk->nik", trip[:, 0], trip[:, 1]),
        np.einsum("nij,njk->nik", trip[:, 0], trip[:, 2]))
    d2 = rotations.geodesic_distances(trip[:, 1], trip[:, 2])
    invariance = float(np.max(np.abs(d1 - d2)))

    a = sample_uniform_matrices(91, 100_000)
    b = sample_uniform_matrices(92, 100_000)
    ang = np.degrees(rotations.geodesic_distances(a, b))
    mean_angle = float(np.mean(ang))
    median_angle = float(np.median(ang))
    # the uniform relative-angle law has mean 126.47 deg (the value the
    # acceptance table quotes, within its +/-1 band) and median 132.35 deg
    angle_ok = abs(mean_angle - 126.9) <= 1.0 and abs(median_angle - 132.35) <= 1.0
    record(9, trips_ok and invariance < 1e-9 and angle_ok,
           f"pairwise round trips {worst:.2e} (<1e-9); left-invariance "
           f"{invariance:.2e} (<1e-9); relative-angle mean {mean_angle:.2f} "
           f"(126.9 +/- 1), median {median_angle:.2f} (132.35 +/- 1)")


def test_criterion_10_m_dimension():
    psi = wigner.rotations_to_psi(sample_uniform_matrices(10, 1), 6)[0]
    norm2 = float(psi @ psi)
    record(10, len(psi) == 455 and abs(norm2 - 49.0) <= 1e-9,
           f"L=6 vector has {len(psi)} entries (=455), |psi|^2 = "
           f"{norm2:.12f} (49 +/- 1e-9)")
