"""Wigner blocks, harmonic vectors, and the coefficient shift law."""

import math

import numpy as np
import pytest

from complex_basis import complex_block, small_d_matrix
from so3harmonics import grids, rotations, wigner
from so3harmonics.harmonics import (PointSet, SphericalCoeffs, SphericalSignal,
                                    analyze, synthesize)
from so3harmonics.rotations import (EulerZYZ, RotationMatrix, matrix_to_euler,
                                    sample_uniform_matrices)
from so3harmonics.wigner import (block_offsets, m_total, rotate_coeffs,
                                 rotations_to_psi, wigner_D_real)


def random_eulers(seed, n):
    return [matrix_to_euler(RotationMatrix(m))
            for m in sample_uniform_matrices(seed, n)]


def small_d(l, m, n, beta):
    return float(small_d_matrix(l, beta)[m + l, n + l])


def wigner_D_complex(l, r):
    return complex_block(l, wigner_D_real(l, r).entries)


class TestSmallD:
    def test_identity_at_zero(self):
        for l in range(7):
            for m in range(-l, l + 1):
                for n in range(-l, l + 1):
                    expect = 1.0 if m == n else 0.0
                    assert small_d(l, m, n, 0.0) == pytest.approx(expect, abs=1e-14)

    def test_degree_one_analytic(self):
        # expanding the k-sum at l=1 gives the familiar half-angle forms
        for beta in (0.3, 1.2, 2.8):
            c, s = np.cos(beta), np.sin(beta)
            assert small_d(1, 0, 0, beta) == pytest.approx(c, abs=1e-14)
            assert small_d(1, 1, 1, beta) == pytest.approx((1 + c) / 2, abs=1e-14)
            assert small_d(1, -1, 1, beta) == pytest.approx((1 - c) / 2, abs=1e-14)
            assert small_d(1, 1, 0, beta) == pytest.approx(s / np.sqrt(2), abs=1e-14)

    def test_matrix_orthogonality(self):
        rng = np.random.default_rng(0)
        for l in range(7):
            for beta in rng.uniform(0, np.pi, 25):
                d = small_d_matrix(l, beta)
                err = np.max(np.abs(d @ d.T - np.eye(2 * l + 1)))
                assert err < 1e-10

    def test_matches_closed_form_sum(self):
        # Wigner's factorial sum over k, every factorial argument >= 0
        def closed_form(l, m, n, beta):
            c, s = np.cos(beta / 2), np.sin(beta / 2)
            pre = math.sqrt(math.factorial(l + m) * math.factorial(l - m)
                            * math.factorial(l + n) * math.factorial(l - n))
            return sum(
                (-1) ** k * pre
                / (math.factorial(l - m - k) * math.factorial(l + n - k)
                   * math.factorial(k) * math.factorial(k + m - n))
                * c ** (2 * l - 2 * k + n - m) * s ** (2 * k + m - n)
                for k in range(max(0, n - m), min(l - m, l + n) + 1))

        for beta in (0.0, 0.4, 1.3, 2.9, np.pi):
            for l in range(7):
                d = small_d_matrix(l, beta)
                for m in range(-l, l + 1):
                    for n in range(-l, l + 1):
                        assert d[m + l, n + l] == pytest.approx(
                            closed_form(l, m, n, beta), abs=1e-12), (l, m, n)


class TestWignerBlocks:
    def test_scalar_block(self):
        e = EulerZYZ(0.4, 1.0, -0.2)
        assert wigner_D_complex(0, e)[0, 0] == pytest.approx(1.0)
        assert wigner_D_real(0, e).entries[0, 0] == pytest.approx(1.0)

    def test_identity_rotation(self):
        e = EulerZYZ(0.0, 0.0, 0.0)
        for l in range(7):
            assert np.allclose(wigner_D_complex(l, e), np.eye(2 * l + 1))
            assert np.allclose(wigner_D_real(l, e).entries, np.eye(2 * l + 1))

    def test_unitarity_complex(self):
        for e in random_eulers(1, 50):
            for l in range(7):
                d = wigner_D_complex(l, e)
                err = np.max(np.abs(d @ d.conj().T - np.eye(2 * l + 1)))
                assert err < 1e-10

    def test_orthogonality_and_realness_real_basis(self):
        # realness is asserted inside wigner_D_real at 1e-12; orthogonality here
        for e in random_eulers(2, 1000):
            for l in range(7):
                d = wigner_D_real(l, e).entries
                assert d.dtype == np.float64
                err = np.max(np.abs(d @ d.T - np.eye(2 * l + 1)))
                assert err < 1e-10

    def test_homomorphism_complex_and_real(self):
        mats = sample_uniform_matrices(3, 2000).reshape(1000, 2, 3, 3)
        for m1, m2 in mats:
            e1 = matrix_to_euler(RotationMatrix(m1))
            e2 = matrix_to_euler(RotationMatrix(m2))
            e12 = matrix_to_euler(RotationMatrix(m1 @ m2))
            for l in (1, 3, 6):
                dc = wigner_D_complex(l, e1) @ wigner_D_complex(l, e2)
                assert np.max(np.abs(dc - wigner_D_complex(l, e12))) < 1e-9
                dr = wigner_D_real(l, e1).entries @ wigner_D_real(l, e2).entries
                assert np.max(np.abs(dr - wigner_D_real(l, e12).entries)) < 1e-9

    def test_inverse_is_transpose_real(self):
        for m in sample_uniform_matrices(4, 200):
            e = matrix_to_euler(RotationMatrix(m))
            e_inv = matrix_to_euler(RotationMatrix(m.T))
            for l in (2, 5):
                d = wigner_D_real(l, e).entries
                d_inv = wigner_D_real(l, e_inv).entries
                assert np.max(np.abs(d_inv - d.T)) < 1e-10


def near_pole_matrices(seed, n):
    """Rotations within 1e-12..1e-3 rad of beta = 0 and of beta = pi."""
    rng = np.random.default_rng(seed)
    offset = np.logspace(-12, -3, n)
    beta = np.concatenate([offset, np.pi - offset])
    alpha, gamma = rng.uniform(-np.pi, np.pi, (2, 2 * n))
    return rotations.zyz_to_matrices(alpha, beta, gamma)


class TestRecursionAccuracy:
    def test_homomorphism_near_both_poles(self):
        near = near_pole_matrices(14, 60)
        other = sample_uniform_matrices(14, len(near))
        for m1, m2 in ((near, other), (other, near), (near, near[::-1])):
            b1 = wigner.wigner_block_stacks_real(m1, 6)
            b2 = wigner.wigner_block_stacks_real(m2, 6)
            b12 = wigner.wigner_block_stacks_real(m1 @ m2, 6)
            for l in range(7):
                assert np.max(np.abs(b1[l] @ b2[l] - b12[l])) <= 1e-12, l

    def test_orthogonality_every_degree_to_20(self):
        mats = np.concatenate([sample_uniform_matrices(15, 100),
                               near_pole_matrices(15, 20)])
        blocks = wigner.wigner_block_stacks_real(mats, 20)
        for l, d in enumerate(blocks):
            eye = d @ d.transpose(0, 2, 1)
            assert np.max(np.abs(eye - np.eye(2 * l + 1))) <= 1e-12, l

    def test_degree_one_is_the_permuted_matrix(self):
        mats = sample_uniform_matrices(16, 5)
        d1 = wigner.wigner_block_stacks_real(mats, 1)[1]
        assert np.array_equal(d1, mats[:, [1, 2, 0]][:, :, [1, 2, 0]])


class TestHarmonicVector:
    def test_m_total_formula(self):
        assert [m_total(l) for l in range(7)] == [1, 10, 35, 84, 165, 286, 455]

    def test_identity_vector(self):
        psi = rotations_to_psi(np.eye(3)[None], 6)[0]
        assert len(psi) == 455
        # concatenated identity blocks: 49 unit entries on block diagonals
        assert psi.sum() == pytest.approx(49.0, abs=1e-12)
        assert np.count_nonzero(np.abs(psi) > 1e-12) == 49
        offs = block_offsets(6)
        for l in range(7):
            block = psi[offs[l]:offs[l + 1]].reshape(2 * l + 1, 2 * l + 1)
            assert np.allclose(block, np.eye(2 * l + 1))

    def test_norm_squared_invariant(self):
        psi = rotations_to_psi(sample_uniform_matrices(5, 100), 6)
        assert np.all(np.abs(np.sum(psi * psi, axis=1) - 49.0) <= 1e-9)

    def test_batch_matches_single(self):
        mats = sample_uniform_matrices(6, 10)
        batch = rotations_to_psi(mats, 4)
        for i, m in enumerate(mats):
            single = rotations_to_psi(m, 4)
            assert np.max(np.abs(batch[i] - single)) < 1e-12

    def test_euler_and_matrix_paths_agree(self):
        for m in sample_uniform_matrices(7, 20):
            e = matrix_to_euler(RotationMatrix(m))
            via_euler = np.concatenate([wigner_D_real(l, e).entries.ravel()
                                        for l in range(4)])
            via_matrix = rotations_to_psi(m, 3)
            assert np.max(np.abs(via_euler - via_matrix)) < 1e-12

    def test_injectivity_at_grid_scale(self):
        # distinct rotations >= 2 degrees apart score strictly below the
        # self similarity
        rng = np.random.default_rng(8)
        mats = sample_uniform_matrices(8, 20000).reshape(10000, 2, 3, 3)
        ang = rotations.geodesic_distances(mats[:, 0], mats[:, 1])
        keep = ang >= np.radians(2.0)
        a = rotations_to_psi(mats[keep, 0], 6)
        b = rotations_to_psi(mats[keep, 1], 6)
        cross = np.sum(a * b, axis=1)
        assert np.all(cross < 49.0 - 1e-6)


class TestShiftLaw:
    def test_identity_rotation_fixes_coeffs(self):
        rng = np.random.default_rng(10)
        c = SphericalCoeffs(4, rng.normal(size=(2, 25)))
        out = rotate_coeffs(c, RotationMatrix.identity())
        assert np.max(np.abs(out.data - c.data)) < 1e-12

    def test_constant_component_unchanged(self):
        rng = np.random.default_rng(11)
        c = SphericalCoeffs(3, rng.normal(size=(1, 16)))
        out = rotate_coeffs(c, sample_uniform_matrices(11, 1)[0])
        assert out.data[0, 0] == pytest.approx(c.data[0, 0], abs=1e-12)

    def test_rotate_then_synthesize_equals_pullback(self):
        grid = grids.healpix_s2(2)
        rng = np.random.default_rng(12)
        c = SphericalCoeffs(4, rng.normal(size=(2, 25)))
        m = sample_uniform_matrices(12, 1)[0]
        rotated = synthesize(rotate_coeffs(c, m), grid)
        pulled_pts = grid.xyz @ m  # rows are m^-1 x
        theta = np.arccos(np.clip(pulled_pts[:, 2], -1, 1))
        phi = np.arctan2(pulled_pts[:, 1], pulled_pts[:, 0]) % (2 * np.pi)
        pulled = synthesize(c, PointSet(theta, phi))
        rel = (np.linalg.norm(rotated.values - pulled.values)
               / np.linalg.norm(pulled.values))
        assert rel < 1e-6

    def test_sample_then_rotate_vs_rotate_then_sample(self):
        # analyze the rotated samples and compare against rotated coefficients
        grid = grids.healpix_s2(3)
        rng = np.random.default_rng(13)
        c = SphericalCoeffs(4, rng.normal(size=(1, 25)))
        m = sample_uniform_matrices(13, 1)[0]
        pulled_pts = grid.xyz @ m
        theta = np.arccos(np.clip(pulled_pts[:, 2], -1, 1))
        phi = np.arctan2(pulled_pts[:, 1], pulled_pts[:, 0]) % (2 * np.pi)
        resampled = synthesize(c, PointSet(theta, phi))
        via_samples = analyze(SphericalSignal(grid, resampled.values), 4)
        via_blocks = rotate_coeffs(c, m)
        rel = (np.linalg.norm(via_samples.data - via_blocks.data)
               / np.linalg.norm(via_blocks.data))
        assert rel < 1e-6
