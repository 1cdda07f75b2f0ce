"""Spherical harmonics, the complex-basis bridge, and analysis/synthesis tests."""

import numpy as np
import pytest
from scipy.special import sph_harm_y

from complex_basis import (complex_design, complex_to_real_matrix,
                           sph_harm_complex)
from so3harmonics import fibers, grids, specconv
from so3harmonics._cache import LRUCache
from so3harmonics.harmonics import (RIDGE_LAMBDA, IllConditionedError,
                                    PointSet, SphericalCoeffs, SphericalSignal,
                                    analyze, design_matrix, gram_ridge_inverse,
                                    ridge_solver, synthesize)


def gauss_quadrature_grid(n_theta=24, n_phi=48):
    """Gauss-Legendre x uniform-azimuth quadrature (weights absorbed by caller)."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)
    phi = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ww = np.repeat(w[:, None], n_phi, axis=1) * (2 * np.pi / n_phi)
    return tt.ravel(), pp.ravel(), ww.ravel()


class TestSphericalHarmonics:
    def test_constant_harmonic(self):
        val = sph_harm_complex(0, 0, 1.1, 2.2)
        assert val == pytest.approx(1.0 / np.sqrt(4 * np.pi))

    def test_y10_is_scaled_cosine(self):
        theta = np.linspace(0, np.pi, 7)
        vals = sph_harm_complex(1, 0, theta, np.zeros_like(theta))
        assert np.allclose(vals, np.sqrt(3 / (4 * np.pi)) * np.cos(theta))

    def test_negative_m_conjugation(self):
        v_pos = sph_harm_complex(3, 2, 0.7, 1.3)
        v_neg = sph_harm_complex(3, -2, 0.7, 1.3)
        assert v_neg == pytest.approx((-1) ** 2 * np.conj(v_pos))

    def test_quadrature_orthonormality(self):
        theta, phi, w = gauss_quadrature_grid()
        for (l1, m1, l2, m2) in [(2, 1, 2, 1), (2, 1, 2, -1), (3, 0, 1, 0),
                                 (4, 3, 4, 3), (5, -2, 5, -2), (6, 6, 6, 6)]:
            a = sph_harm_complex(l1, m1, theta, phi)
            b = sph_harm_complex(l2, m2, theta, phi)
            inner = np.sum(w * a * np.conj(b))
            expect = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(inner - expect) < 1e-6

    def test_real_basis_values(self):
        # design-matrix column l^2 + l + m holds the real Y_l^m
        theta, phi = 1.1, 2.0
        row = design_matrix(PointSet(np.array([0.3, theta]),
                                     np.array([0.4, phi])), 1)
        assert row[0, 0] == pytest.approx(1 / np.sqrt(4 * np.pi))
        # real degree-1, order -1 is sqrt(3/4pi) sin(theta) sin(phi)
        assert row[1, 1] == pytest.approx(
            np.sqrt(3 / (4 * np.pi)) * np.sin(theta) * np.sin(phi))

    def test_missing_phi_raises_and_broadcasting_works(self):
        with pytest.raises(TypeError):
            sph_harm_complex(1, 0, 0.3)
        theta, phi = np.array([0.2, 1.1, 2.5]), np.array([0.4, 3.0, 5.9])
        f = sph_harm_complex
        assert np.isscalar(f(3, -2, 1.1, 3.0))
        row = f(3, -2, 1.1, phi)
        col = f(3, -2, theta, 3.0)
        assert row.shape == col.shape == (3,)
        one_by_one = [[f(3, -2, 1.1, p) for p in phi],
                      [f(3, -2, t, 3.0) for t in theta]]
        assert np.allclose([row, col], one_by_one, rtol=0, atol=1e-15)

    def test_design_matrix_matches_scipy(self):
        # the real basis is the recombination of the Condon-Shortley complex
        # basis, checked against an independent implementation, poles included
        rng = np.random.default_rng(4)
        poles = np.array([0.0, 1e-13, 1e-7, 1e-4, np.pi - 1e-7, np.pi])
        theta = np.concatenate([np.arccos(rng.uniform(-1, 1, 200)), poles])
        phi = rng.uniform(0, 2 * np.pi, theta.size)
        grid = PointSet(theta, phi)
        real = design_matrix(grid, 20)
        cplx = complex_design(grid, 20)
        for l in range(21):
            for m in range(-l, l + 1):
                ref = sph_harm_y(l, abs(m), theta, phi)
                if m > 0:
                    ref_real = np.sqrt(2.0) * (-1) ** m * ref.real
                elif m < 0:
                    ref_real = np.sqrt(2.0) * (-1) ** m * ref.imag
                else:
                    ref_real = ref.real
                col = l * l + l + m
                assert np.max(np.abs(real[:, col] - ref_real)) < 1e-13, (l, m)
                assert np.max(np.abs(cplx[:, col] - sph_harm_y(l, m, theta, phi))
                              ) < 1e-13, (l, m)

    def test_real_orthonormality(self):
        theta, phi, w = gauss_quadrature_grid()
        design = design_matrix(PointSet(theta, phi), 6)
        pairs = [(2, 1), (2, -1), (3, 0), (4, -4), (6, 5)]
        for i, (l1, m1) in enumerate(pairs):
            for l2, m2 in pairs[i:]:
                a = design[:, l1 * l1 + l1 + m1]
                b = design[:, l2 * l2 + l2 + m2]
                inner = np.sum(w * a * b)
                expect = 1.0 if (l1, m1) == (l2, m2) else 0.0
                assert abs(inner - expect) < 1e-6


class TestBasisChange:
    def test_unitarity(self):
        for l in range(7):
            u = complex_to_real_matrix(l)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2 * l + 1))) < 1e-12


class TestAnalyzeSynthesize:
    def test_round_trip_band_limited(self):
        # the 1e-8 ridge biases coefficients by ~lambda/sigma_min^2; from
        # level 3 on (768 points) that lands below 1e-9 for L = 4
        grid = grids.healpix_s2(3)
        rng = np.random.default_rng(1)
        coeffs = SphericalCoeffs(4, rng.normal(size=(3, 25)))
        recovered = analyze(synthesize(coeffs, grid), 4)
        assert np.max(np.abs(recovered.data - coeffs.data)) < 1e-9

    def test_constant_signal(self):
        grid = grids.healpix_s2(3)
        signal = SphericalSignal(grid, np.ones((1, grid.size)))
        c = analyze(signal, 3)
        assert c.data[0, 0] == pytest.approx(np.sqrt(4 * np.pi), abs=1e-9)
        assert np.max(np.abs(c.data[0, 1:])) < 1e-9

    def test_zero_coeffs_zero_signal(self):
        grid = grids.healpix_s2(1)
        c = SphericalCoeffs(2, np.zeros((1, 9)))
        assert np.all(synthesize(c, grid).values == 0.0)

    def test_pure_constant_coefficient(self):
        grid = grids.healpix_s2(1)
        data = np.zeros((1, 9))
        data[0, 0] = np.sqrt(4 * np.pi)
        sig = synthesize(SphericalCoeffs(2, data), grid)
        assert np.allclose(sig.values, 1.0)

    def test_underdetermined_hemisphere_returns_ridge_solution(self):
        # 20 points cannot pin down 49 coefficients; the minimum-norm
        # ridge solution must still reproduce the samples it saw.
        hemi = grids.healpix_s2(2, "hemisphere")
        rng = np.random.default_rng(2)
        keep = np.sort(rng.permutation(hemi.size)[:20])
        sub = PointSet(hemi.theta[keep], hemi.phi[keep])
        values = rng.normal(size=(1, 20))
        signal = SphericalSignal(sub, values)
        coeffs = analyze(signal, 6)
        assert np.all(np.isfinite(coeffs.data))
        resampled = synthesize(coeffs, sub)
        assert np.max(np.abs(resampled.values - values)) < 1e-4

    def test_degenerate_grid_raises(self):
        theta = np.full(30, 0.7)
        phi = np.full(30, 0.3)  # 30 copies of one point
        signal = SphericalSignal(PointSet(theta, phi), np.ones((1, 30)))
        with pytest.raises(IllConditionedError):
            analyze(signal, 2)

    def test_design_matrix_shapes(self):
        grid = grids.healpix_s2(1)
        assert design_matrix(grid, 3).shape == (48, 16)

    def test_complex_input_is_rejected(self):
        # a cast to float would silently drop the imaginary part
        grid = grids.healpix_s2(1)
        with pytest.raises(ValueError):
            SphericalCoeffs(2, np.ones((1, 9)) + 1j)
        with pytest.raises(ValueError):
            SphericalSignal(grid, np.ones((1, grid.size)) + 1j)

    def test_complex_point_angles_are_rejected(self):
        with pytest.raises(ValueError, match="real"):
            PointSet(np.array([0.5 + 1j]), np.array([0.1]))
        with pytest.raises(ValueError, match="real"):
            PointSet(np.array([0.5]), np.array([0.1 + 1j]))



def svd_ridge_inverse(a, ridge=1e-8):
    """The SVD formula every ridge_solver route must reproduce."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return (vh.conj().T * (s / (s * s + ridge))) @ u.conj().T


def relu_table(level, bandlimit):
    return grids.so3_healpix(level).with_psi_table(bandlimit).psi_table


class TestRidgeSolverRoutes:
    """Tall, well-conditioned matrices go through the Gram eigensystem;
    everything else through the SVD."""

    def test_gram_route_calls_no_svd(self, monkeypatch):
        table = relu_table(2, 6)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        monkeypatch.setattr(specconv, "nonlin_operator_cache", LRUCache(8))
        assert ridge_solver(table).shape == (455, 4608)
        relu = specconv.nonlin_operator(2, 6)
        assert isinstance(relu, fibers.FiberRelu) and relu.size == 4608

    def test_block_inverse_certifies_all_blocks_together(self):
        # each block alone has kappa 1; together kappa(A) = sqrt(1e5) > 100
        assert gram_ridge_inverse([np.eye(2), 1e5 * np.eye(1)]) is None
        h = gram_ridge_inverse([np.eye(2), 4.0 * np.eye(1)])
        assert np.allclose(h[0], np.eye(2) / (1 + RIDGE_LAMBDA), rtol=1e-15)
        assert np.allclose(h[1], 1 / (4 + RIDGE_LAMBDA), rtol=1e-15)

    @pytest.mark.parametrize("name, bandlimit", [
        ("so3_level2", 2), ("so3_level2", 4), ("so3_level2", 6),
        ("sphere_level2", 6)])
    def test_gram_route_matches_svd_formula(self, name, bandlimit):
        if name == "so3_level2":
            a = relu_table(2, bandlimit)
        else:
            a = design_matrix(grids.healpix_s2(2, "full"), bandlimit)
        p, ref = ridge_solver(a), svd_ridge_inverse(a)
        assert p.shape == ref.shape and p.flags.c_contiguous
        assert np.max(np.abs(p - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gram_route_keeps_the_ridge_bias(self):
        # max|P A - I| is the 1e-8 ridge bias, the same on both routes
        a = relu_table(2, 6)
        eye = np.eye(a.shape[1])
        gram = np.max(np.abs(ridge_solver(a) @ a - eye))
        svd = np.max(np.abs(svd_ridge_inverse(a) @ a - eye))
        assert abs(gram - svd) <= 1e-13

    @pytest.mark.parametrize("case", ["so3_level1_L6", "zeros"])
    def test_ill_conditioned_raises(self, case):
        # the degenerate grid is TestAnalyzeSynthesize's
        if case == "so3_level1_L6":
            a = relu_table(1, 6)                    # kappa ~ 9e15
        else:
            a = np.zeros((4, 2))
        with pytest.raises(IllConditionedError):
            ridge_solver(a)

    def test_tall_matrix_past_gram_bound_takes_svd_route(self, monkeypatch):
        rng = np.random.default_rng(5)
        u = np.linalg.qr(rng.normal(size=(200, 20)))[0]
        v = np.linalg.qr(rng.normal(size=(20, 20)))[0]
        a = (u * np.logspace(0, -3, 20)) @ v.T      # kappa = 1e3
        expect = svd_ridge_inverse(a)
        svd = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert np.array_equal(ridge_solver(a), expect)
        assert calls == [1]
