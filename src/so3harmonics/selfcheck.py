"""Quick property suite behind the ``check`` CLI command.

A fast, self-contained subset of the invariants the full pytest suite
covers: conversion round trips, block orthogonality and composition,
the coefficient shift law, grid counts, layer equivariance, and one
finite-difference gradient probe.  Prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import numpy as np

from . import estimation, grids, harmonics, rotations, specconv, wigner


def _check(name: str, err: float, tol: float, results: list, verbose: bool):
    ok = err < tol
    results.append((name, ok))
    if verbose:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {err:.3g} (tol {tol:g})")


def run_property_suite(verbose: bool = True) -> list[str]:
    results: list[tuple[str, bool]] = []
    rng = np.random.default_rng(0)

    mats = rotations.sample_uniform_matrices(123, 200)
    err = 0.0
    for m in mats:
        r = rotations.RotationMatrix(m)
        e = rotations.matrix_to_euler(r)
        q = rotations.matrix_to_quat(r)
        aa = rotations.matrix_to_axis_angle(r)
        for back in (rotations.euler_to_matrix(e), rotations.quat_to_matrix(q),
                     rotations.axis_angle_to_matrix(aa)):
            err = max(err, float(np.max(np.abs(back.m - m))))
    _check("rotation round trips (200 samples)", err, 1e-9, results, verbose)

    L = 4
    errs = []
    for i in range(20):
        r1, r2 = rotations.sample_uniform_matrices(i, 2)
        for l in range(L + 1):
            d1 = wigner.wigner_D_real(l, r1).entries
            d2 = wigner.wigner_D_real(l, r2).entries
            d12 = wigner.wigner_D_real(l, r1 @ r2).entries
            errs.append(np.max(np.abs(d1 @ d2 - d12)))
            errs.append(np.max(np.abs(d1 @ d1.T - np.eye(2 * l + 1))))
    _check("Wigner block homomorphism + orthogonality", max(errs), 1e-9,
           results, verbose)

    grid = grids.healpix_s2(2)
    coeffs = harmonics.SphericalCoeffs(L, rng.normal(size=(1, (L + 1) ** 2)))
    r = rotations.sample_uniform_matrices(7, 1)[0]
    rotated = harmonics.synthesize(wigner.rotate_coeffs(coeffs, r), grid)
    pulled = harmonics.synthesize(
        coeffs, harmonics.PointSet(*_pullback_angles(grid, r)))
    err = (np.linalg.norm(rotated.values - pulled.values)
           / np.linalg.norm(pulled.values))
    _check("coefficient shift law vs pointwise pullback", err, 1e-9,
           results, verbose)

    counts_ok = all(grids.so3_healpix(level).size == 72 * 8 ** level
                    for level in range(3))
    _check("SO(3) grid counts r=0..2", 0.0 if counts_ok else 1.0, 0.5,
           results, verbose)

    model = specconv.init_toy_model(0, L, in_channels=2, mid_channels=3,
                                    hidden_channels=4, tap_count=8)
    c = harmonics.SphericalCoeffs(L, rng.normal(size=(3, (L + 1) ** 2)))
    out0 = specconv._blocks(specconv.s2_conv(c.data, model.s2), L)
    out1 = specconv._blocks(
        specconv.s2_conv(wigner.rotate_coeffs(c, r).data, model.s2), L)
    err = max(
        float(np.max(np.abs(out1[l]
                            - np.einsum("mn,cnk->cmk",
                                        wigner.wigner_D_real(l, r).entries,
                                        out0[l]))))
        for l in range(L + 1))
    _check("sphere-convolution left equivariance", err, 1e-9, results, verbose)

    sig = harmonics.synthesize(
        harmonics.SphericalCoeffs(L, rng.normal(size=(2, (L + 1) ** 2))), grid)
    gt = wigner.rotations_to_psi(r[None], L)
    cfg = estimation.LossConfig(L)

    def loss_and_mixer_grad(mixer):
        # a batch of one through the layer functions harness.train runs
        m = specconv.ToyModel(L, mixer, model.s2, model.so3)
        hidden, state = specconv.forward_trunk(m, "spherical", sig.values[None],
                                               grid=grid)
        value, d_psi = estimation.loss_and_grad(
            specconv.head_wigner(m, hidden), gt, cfg)
        d_hidden, _ = specconv.backward_head_wigner(m, state, d_psi)
        return value, specconv.backward_trunk(m, state, d_hidden)[0]

    _, g = loss_and_mixer_grad(model.mixer)
    eps = 1e-6
    m_up = model.mixer.copy()
    m_up[0, 0] += eps
    m_dn = model.mixer.copy()
    m_dn[0, 0] -= eps
    v_up, _ = loss_and_mixer_grad(m_up)
    v_dn, _ = loss_and_mixer_grad(m_dn)
    fd = (v_up - v_dn) / (2 * eps)
    denom = max(abs(fd), 1e-8)
    _check("gradient probe vs finite difference",
           abs(fd - g[0, 0]) / denom, 1e-4, results, verbose)

    failures = [name for name, ok in results if not ok]
    if verbose:
        print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return failures


def _pullback_angles(grid, r):
    pts = grid.xyz @ r  # rows become r^-1 x
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * np.pi)
    return theta, phi
