"""Grid construction, counts, covering radii, and file round trips."""

import numpy as np
import pytest

from so3harmonics import rotations
from so3harmonics.grids import (ResourceLimitError, SO3Grid, covering_radius,
                                healpix_s2, load_grid, nearest_index,
                                save_grid, so3_grid, so3_healpix,
                                so3_healpix_count, so3_random,
                                so3_super_fibonacci)


class TestS2Healpix:
    def test_base_pixel_count(self):
        assert healpix_s2(0).size == 12

    def test_counts_follow_nside(self):
        for r in range(5):
            assert healpix_s2(r).size == 12 * 4 ** r

    def test_level2_hemisphere(self):
        full = healpix_s2(2)
        hemi = healpix_s2(2, "hemisphere")
        assert full.size == 192
        assert np.all(hemi.xyz[:, 2] >= 0)
        keep = full.xyz[:, 2] >= 0
        assert hemi.size == int(np.sum(keep))

    def test_points_unit_norm(self):
        g = healpix_s2(3)
        assert np.max(np.abs(np.linalg.norm(g.xyz, axis=1) - 1.0)) < 1e-12

    def test_isolatitude_ring_structure(self):
        # rings sit at z = 1 - i^2/(3 nside^2) (caps) and equally spaced in
        # the belt; pixels are equal-area by construction.  Check ring
        # populations and z values for nside = 4.
        g = healpix_s2(2)
        z = np.round(np.cos(g.theta), 12)
        rings, counts = np.unique(z, return_counts=True)
        assert len(rings) == 15  # 4 nside - 1 rings
        # cap ring populations grow as 4i
        assert counts[0] == 4 and counts[-1] == 4
        assert counts[1] == 8 and counts[-2] == 8
        nside = 4
        assert rings[-1] == pytest.approx(1 - 1 / (3 * nside ** 2))
        belt = rings[3:-3]
        assert np.allclose(np.diff(belt), belt[1] - belt[0])

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            healpix_s2(9)


class TestSO3Healpix:
    def test_counts_match_published_column(self):
        expected = {0: 72, 1: 576, 2: 4608, 3: 36864, 4: 294912, 5: 2359296}
        for r, n in expected.items():
            assert so3_healpix_count(r) == n
        for r in range(4):
            assert so3_healpix(r).size == expected[r]

    def test_resolution_halves_per_level(self):
        for r in range(4):
            assert so3_healpix(r).nominal_resolution_deg == pytest.approx(60.0 / 2 ** r)

    def test_rotations_valid(self):
        g = so3_healpix(1)
        eye = np.einsum("nij,nkj->nik", g.rotations, g.rotations)
        assert np.max(np.abs(eye - np.eye(3))) < 1e-12
        assert np.allclose(np.linalg.det(g.rotations), 1.0)

    def test_fiber_angles_uniform(self):
        # rotations attached to one sphere pixel differ by z-spins of
        # 2 pi / (6 nside)
        level = 1
        g = so3_healpix(level)
        nfiber = 6 * 2 ** level
        first = g.rotations[:nfiber]  # fibers of pixel 0
        step = first[0].T @ first[1]
        expected = rotations.zyz_to_matrices(2 * np.pi / nfiber, 0.0, 0.0)
        assert np.max(np.abs(step - expected)) < 1e-12

    def test_large_level_needs_flag(self):
        with pytest.raises(ResourceLimitError):
            so3_healpix(5)
        with pytest.raises(ResourceLimitError):
            so3_healpix(6, allow_large=True)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_rotations_at_is_the_stack_bit_for_bit(self, level):
        # read off the pixels and fibers alone, before the stack exists
        g = so3_healpix(level)
        idx = np.random.default_rng(level).integers(-g.size, g.size, 500)
        picked = [g.rotations_at(idx), g.rotations_at(7), g.rotations_at(np.intp(g.size - 1)),
                  g.rotations_at(np.arange(0))]
        assert "rotations" not in vars(g)
        expect = [g.rotations[idx], g.rotations[7], g.rotations[g.size - 1],
                  g.rotations[np.arange(0)]]
        for got, want in zip(picked, expect):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_size_and_digest_come_from_pixels_and_fibers(self):
        g = so3_healpix(2)
        assert g.size == 4608 and g.nfiber == 24 and g.pixels.size == 192
        assert g.content_digest == so3_healpix(2).content_digest
        assert g.content_digest != so3_healpix(1).content_digest
        assert "rotations" not in vars(g)
        assert not g.rotations.flags.writeable

    def test_saved_bytes_equal_an_euler_angle_stack(self, tmp_path):
        # the stack as a rotation list would build it: Rz(phi) Ry(theta)
        # Rz(psi_f) for every pixel and fiber, in the order i F + f
        for level in range(3):
            theta, phi = healpix_s2(level).theta, healpix_s2(level).phi
            nfiber = 6 * 2 ** level
            fiber = 2.0 * np.pi * np.arange(nfiber) / nfiber
            mats = rotations.zyz_to_matrices(
                np.repeat(fiber[None, :], len(theta), axis=0).ravel(),
                np.repeat(theta, nfiber), np.repeat(phi, nfiber))
            lifted, stacked = tmp_path / f"lifted{level}.bin", tmp_path / f"stacked{level}.bin"
            save_grid(str(lifted), so3_healpix(level))
            save_grid(str(stacked), SO3Grid("healpix_hopf", mats, 60.0 / 2 ** level,
                                            level=level))
            assert lifted.read_bytes() == stacked.read_bytes()

    def test_grid_is_read_only_and_takes_one_definition(self):
        g = so3_healpix(0)
        with pytest.raises(AttributeError):
            g.level = 1
        with pytest.raises(ValueError, match="either"):
            SO3Grid("healpix_hopf", g.rotations, 60.0, pixels=g.pixels, nfiber=6)
        with pytest.raises(ValueError, match="either"):
            SO3Grid("healpix_hopf", None, 60.0, pixels=g.pixels)


class TestOtherGrids:
    def test_random_grid_deterministic_and_valid(self):
        a = so3_random(0, 72)
        b = so3_random(0, 72)
        assert np.array_equal(a.rotations, b.rotations)
        eye = np.einsum("nij,nkj->nik", a.rotations, a.rotations)
        assert np.max(np.abs(eye - np.eye(3))) < 1e-12

    def test_super_fibonacci_deterministic_and_valid(self):
        a = so3_super_fibonacci(72)
        b = so3_super_fibonacci(72)
        assert np.array_equal(a.rotations, b.rotations)
        eye = np.einsum("nij,nkj->nik", a.rotations, a.rotations)
        assert np.max(np.abs(eye - np.eye(3))) < 1e-12
        assert np.allclose(np.linalg.det(a.rotations), 1.0)

    def test_negative_level_rejected_for_every_kind(self):
        for kind in ("healpix_hopf", "random", "super_fibonacci"):
            with pytest.raises(ResourceLimitError, match="level -1"):
                so3_grid(kind, -1)

    def test_random_covers_worse_than_structured(self):
        # Monte Carlo covering radius: random placement needs more points
        # for the same cover, so its max gap lands above the lattice's
        rad_hp = covering_radius(so3_healpix(1), probes=400, seed=5)
        rad_rand = np.mean([covering_radius(so3_random(s, 576), probes=400, seed=5)
                            for s in range(5)])
        assert rad_rand > rad_hp


class TestCoveringRadius:
    def test_single_rotation_grid(self):
        g = SO3Grid("random", np.eye(3)[None], 360.0)
        got = covering_radius(g, probes=200, seed=1)
        probes = rotations.sample_uniform_matrices(1, 200)
        worst = np.degrees(np.max(rotations.geodesic_distances(
            probes, np.eye(3)[None])))
        assert got == pytest.approx(worst, abs=1e-9)

    def test_level_zero_magnitude(self):
        # Monte Carlo oracle: the 72-point lattice leaves worst-case gaps
        # slightly under the full 60-degree bin width; measured ~48 deg
        rad = covering_radius(so3_healpix(0), probes=500, seed=2)
        assert 25.0 < rad < 58.0

    def test_shrinks_with_level(self):
        radii = [covering_radius(so3_healpix(r), probes=300, seed=3)
                 for r in range(3)]
        assert radii[0] > radii[1] > radii[2]


class TestGridIO:
    def test_round_trip(self, tmp_path):
        g = so3_healpix(1).with_psi_table(2)
        path = str(tmp_path / "grid.bin")
        save_grid(path, g)
        back = load_grid(path)
        assert back.kind == "healpix_hopf"
        assert back.level == 1
        assert np.array_equal(back.rotations, g.rotations)
        assert np.array_equal(back.psi_table, g.psi_table)
        assert back.psi_bandlimit == 2

    def test_nearest_index(self):
        g = so3_healpix(1)
        for k in (0, 100, 571):
            assert nearest_index(g, g.rotations[k]) == k
