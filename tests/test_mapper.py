"""Orthographic lifting, edge decay, dropout, and in-plane equivariance."""

import numpy as np
import pytest

from so3harmonics import grids
from so3harmonics.harmonics import PointSet, SphericalCoeffs, design_matrix
from so3harmonics.mapper import FeatureMap, MapperConfig, project, sample_mask


def hemi_cfg(**kw):
    return MapperConfig(grids.healpix_s2(2, "hemisphere"), **kw)


def sized_cfg(size, fraction):
    """Config on the first ``size`` vertices of the level-2 hemisphere."""
    full = grids.healpix_s2(2, "hemisphere")
    grid = grids.S2Grid(full.theta[:size], full.phi[:size], level=2,
                        subset="hemisphere")
    return MapperConfig(grid, dropout_fraction=fraction)


class TestProject:
    def test_constant_map_no_decay(self):
        cfg = hemi_cfg(edge_decay="none", dropout_fraction=0.0)
        f = FeatureMap(np.full((2, 16, 16), 3.5))
        sig = project(f, cfg)
        assert sig.values.shape == (2, cfg.grid.size)
        assert np.allclose(sig.values, 3.5)

    def test_cosine_decay_pole_and_rim(self):
        cfg = hemi_cfg(edge_decay="cosine", dropout_fraction=0.0)
        f = FeatureMap(np.ones((1, 8, 8)))
        sig = project(f, cfg)
        z = cfg.grid.xyz[:, 2]
        assert np.allclose(sig.values[0], z, atol=1e-12)
        rim = z < 1e-12
        if np.any(rim):
            assert np.all(sig.values[0][rim] == 0.0)

    def test_bilinear_plane(self):
        # f(x, y) = x sampled bilinearly reproduces the x coordinate up to
        # one pixel of interpolation error
        w = 64
        xs = np.linspace(-1, 1, w)
        f = FeatureMap(np.tile(xs, (1, w, 1)))
        cfg = hemi_cfg(edge_decay="none")
        sig = project(f, cfg)
        x_true = cfg.grid.xyz[:, 0]
        assert np.max(np.abs(sig.values[0] - x_true)) < 1.0 / (w - 1)

    def test_train_mode_applies_dropout(self):
        cfg = hemi_cfg(dropout_fraction=0.5)
        f = FeatureMap(np.ones((1, 8, 8)))
        sig = project(f, cfg, rng_seed=3, mode="train")
        assert sig.values.shape[1] == cfg.kept_count()
        again = project(f, cfg, rng_seed=3, mode="train")
        assert np.array_equal(sig.values, again.values)

    def test_eval_mode_deterministic_full_grid(self):
        cfg = hemi_cfg(dropout_fraction=0.7)
        f = FeatureMap(np.random.default_rng(0).normal(size=(1, 8, 8)))
        a = project(f, cfg, rng_seed=1, mode="eval")
        b = project(f, cfg, rng_seed=2, mode="eval")
        assert np.array_equal(a.values, b.values)
        assert a.values.shape[1] == cfg.grid.size

    def test_sample_count_override(self):
        cfg = hemi_cfg(sample_count=20)
        assert len(sample_mask(cfg, seed=0)) == 20


class TestSampleMask:
    def test_zero_fraction_keeps_all(self):
        assert np.array_equal(sample_mask(sized_cfg(10, 0.0), 0), np.arange(10))

    def test_half_of_96(self):
        assert len(sample_mask(sized_cfg(96, 0.5), 1)) == 48

    def test_ceiling(self):
        cfg = sized_cfg(10, 0.25)
        assert cfg.kept_count() == 8  # ceil(7.5)
        assert len(sample_mask(cfg, 1)) == 8

    def test_deterministic(self):
        cfg = sized_cfg(50, 0.3)
        assert np.array_equal(sample_mask(cfg, 7), sample_mask(cfg, 7))

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            sized_cfg(10, 1.0)


class TestInPlaneEquivariance:
    def test_rotate_image_matches_rotate_signal(self):
        # band-limited synthetic map evaluated analytically on the pixel
        # lattice; rotating the map about the center then projecting should
        # match projecting then spinning the lifted signal about z, up to
        # bilinear interpolation error
        size = 64
        cfg = hemi_cfg(edge_decay="none")
        rng = np.random.default_rng(5)
        coeffs = SphericalCoeffs(3, rng.normal(size=(1, 16)))
        xs = np.linspace(-1, 1, size)
        xg, yg = np.meshgrid(xs, xs)

        def render(angle):
            # image of the hemisphere function rotated in-plane by +angle
            c, s = np.cos(angle), np.sin(angle)
            xr = c * xg + s * yg
            yr = -s * xg + c * yg
            r2 = np.clip(xr ** 2 + yr ** 2, 0, 1)
            theta = np.arccos(np.sqrt(1 - r2))
            phi = np.arctan2(yr, xr) % (2 * np.pi)
            pts = PointSet(theta.ravel(), phi.ravel())
            vals = coeffs.data @ design_matrix(pts, 3, "real").T
            return FeatureMap(vals.reshape(1, size, size))

        angle = 0.7
        lifted_rotated = project(render(angle), cfg)
        # spun signal evaluated exactly: the true function at z-spun points
        spun = PointSet(cfg.grid.theta, (cfg.grid.phi - angle) % (2 * np.pi))
        vals = coeffs.data @ design_matrix(spun, 3, "real").T
        rel = (np.linalg.norm(lifted_rotated.values - vals)
               / np.linalg.norm(vals))
        assert rel < 0.05
