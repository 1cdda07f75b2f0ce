"""Conversion, sampling, and metric tests for the rotation module."""

import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from so3harmonics.rotations import (ROTATION_TYPES, axis_angles_to_matrices,
                                    geodesic_distances, matrices_to_axis_angles,
                                    matrices_to_quats, matrices_to_zyz,
                                    quats_to_matrices, rotation_from_json,
                                    rotation_to_json, sample_uniform_matrices,
                                    zyz_to_matrices)


def zyz_round_trip(m: np.ndarray) -> np.ndarray:
    return zyz_to_matrices(*matrices_to_zyz(m))


def quat_round_trip(m: np.ndarray) -> np.ndarray:
    return quats_to_matrices(matrices_to_quats(m))


def axis_angle_round_trip(m: np.ndarray) -> np.ndarray:
    return axis_angles_to_matrices(*matrices_to_axis_angles(m))


class TestEulerMatrix:
    def test_zero_angles_identity(self):
        assert np.allclose(zyz_to_matrices(0, 0, 0), np.eye(3))

    def test_beta_pi_analytic(self):
        assert np.allclose(zyz_to_matrices(0, np.pi, 0),
                           np.diag([-1.0, 1.0, -1.0]))

    def test_matches_explicit_factor_product(self):
        # oracle: multiply the three axis matrices built inline
        a, b, g = np.pi / 3, np.pi / 4, np.pi / 5
        def rz(t):
            return np.array([[np.cos(t), -np.sin(t), 0],
                             [np.sin(t), np.cos(t), 0], [0, 0, 1]])
        def ry(t):
            return np.array([[np.cos(t), 0, np.sin(t)], [0, 1, 0],
                             [-np.sin(t), 0, np.cos(t)]])
        expected = rz(g) @ ry(b) @ rz(a)
        assert np.allclose(zyz_to_matrices(a, b, g), expected, atol=1e-14)

    def test_matches_scipy_intrinsic_zyz_reversed(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(-np.pi, np.pi)
            b = rng.uniform(0, np.pi)
            g = rng.uniform(-np.pi, np.pi)
            ours = zyz_to_matrices(a, b, g)
            ref = ScipyRotation.from_euler("ZYZ", [g, b, a]).as_matrix()
            assert np.allclose(ours, ref, atol=1e-12)

    def test_output_is_valid_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = zyz_to_matrices(rng.uniform(-np.pi, np.pi),
                                rng.uniform(0, np.pi),
                                rng.uniform(-np.pi, np.pi))
            assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-10
            assert abs(np.linalg.det(m) - 1) < 1e-10


class TestMatrixToEuler:
    def test_identity(self):
        assert tuple(map(float, matrices_to_zyz(np.eye(3)))) == (0.0, 0.0, 0.0)

    def test_round_trip_specific(self):
        e = matrices_to_zyz(zyz_to_matrices(0.3, 1.1, -0.7))
        assert tuple(map(float, e)) == pytest.approx((0.3, 1.1, -0.7))

    def test_gimbal_beta_zero_folds_into_alpha(self):
        e = matrices_to_zyz(zyz_to_matrices(0.5, 0.0, 0.0))
        assert tuple(map(float, e)) == pytest.approx((0.5, 0.0, 0.0))

    def test_gimbal_beta_pi(self):
        m = (zyz_to_matrices(0.4, 0.0, 0.0) @ zyz_to_matrices(0.0, np.pi, 0.0)
             @ zyz_to_matrices(0.3, 0.0, 0.0))
        alpha, beta, gamma = matrices_to_zyz(m)
        assert gamma == 0.0
        assert beta == pytest.approx(np.pi)
        assert np.allclose(zyz_to_matrices(alpha, beta, gamma), m, atol=1e-9)

    def test_round_trip_random(self):
        mats = sample_uniform_matrices(42, 500)
        err = np.max(np.abs(zyz_round_trip(mats) - mats), axis=(1, 2))
        assert np.all(err < 1e-9)

    def test_round_trip_near_both_poles(self):
        rng = np.random.default_rng(43)
        offset = np.logspace(-13, -3, 200)
        for beta in (offset, np.pi - offset):
            alpha, gamma = rng.uniform(-np.pi, np.pi, (2, len(beta)))
            mats = zyz_to_matrices(alpha, beta, gamma)
            assert np.max(np.abs(zyz_round_trip(mats) - mats)) <= 1e-12


class TestQuaternionAndAxisAngle:
    def test_identity_quaternion(self):
        assert np.allclose(quats_to_matrices(np.array([[1.0, 0, 0, 0]]))[0],
                           np.eye(3))

    def test_z_quarter_turn(self):
        m = axis_angles_to_matrices(np.array([[0.0, 0.0, 1.0]]),
                                    np.array([np.pi / 2]))[0]
        assert np.allclose(m, zyz_to_matrices(np.pi / 2, 0.0, 0.0), atol=1e-15)

    def test_quat_round_trip_up_to_sign(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(1000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q *= np.sign(q[:, :1])  # canonical sign: w >= 0
        back = matrices_to_quats(quats_to_matrices(q))
        assert np.allclose(back, q, atol=1e-9)

    def test_axis_angle_round_trip(self):
        rng = np.random.default_rng(4)
        axes = rng.normal(size=(500, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = rng.uniform(1e-5, np.pi - 1e-5, 500)
        back_axes, back_angles = matrices_to_axis_angles(
            axis_angles_to_matrices(axes, angles))
        assert back_angles == pytest.approx(angles, abs=1e-9)
        assert np.allclose(back_axes, axes, atol=1e-8)

    def test_batched_rodrigues_matches_per_rotation_formula(self):
        rng = np.random.default_rng(8)
        angles = np.concatenate([rng.uniform(0, np.pi, 100), [0.0, np.pi]])
        axes = np.array([u / np.linalg.norm(u) for u in rng.normal(size=(102, 3))])
        batched = axis_angles_to_matrices(axes, angles)
        for u, angle, m in zip(axes, angles, batched):
            c, s = np.cos(angle), np.sin(angle)
            ux = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]],
                           [-u[1], u[0], 0]])
            expect = c * np.eye(3) + s * ux + (1 - c) * np.outer(u, u)
            assert np.array_equal(m, expect)

    def test_zero_angle_convention(self):
        axes, angles = matrices_to_axis_angles(np.eye(3)[None])
        assert angles[0] == 0.0
        assert np.allclose(axes[0], [0, 0, 1])

    def test_all_pairwise_round_trips(self):
        mats = sample_uniform_matrices(7, 200)
        paths = [
            zyz_round_trip(mats),
            quat_round_trip(mats),
            axis_angle_round_trip(mats),
            quat_round_trip(zyz_round_trip(mats)),
            axis_angle_round_trip(quat_round_trip(mats)),
            zyz_round_trip(axis_angle_round_trip(mats)),
        ]
        for back in paths:
            assert np.max(np.abs(back - mats)) < 1e-9


class TestGeodesicDistance:
    def test_self_distance_zero(self):
        r = sample_uniform_matrices(0, 1)
        assert geodesic_distances(r, r)[0] == 0.0

    def test_half_turn(self):
        d = geodesic_distances(np.eye(3), zyz_to_matrices(np.pi, 0.0, 0.0))
        assert d == pytest.approx(np.pi)

    def test_single_axis_angle(self):
        d = geodesic_distances(np.eye(3), zyz_to_matrices(0.0, 0.2, 0.0))
        assert d == pytest.approx(0.2)

    def test_symmetry_and_triangle_inequality(self):
        mats = sample_uniform_matrices(5, 150).reshape(50, 3, 3, 3)
        a, b, c = mats[:, 0], mats[:, 1], mats[:, 2]
        dab = geodesic_distances(a, b)
        assert np.all(np.abs(dab - geodesic_distances(b, a)) <= 1e-12)
        assert np.all(dab <= geodesic_distances(a, c)
                      + geodesic_distances(c, b) + 1e-9)

    def test_left_invariance(self):
        mats = sample_uniform_matrices(6, 90).reshape(30, 3, 3, 3)
        for r, s, t in mats:
            d1 = geodesic_distances(r @ s, r @ t)
            d2 = geodesic_distances(s, t)
            assert abs(d1 - d2) < 1e-9


class TestSampleUniform:
    def test_returns_valid_rotation(self):
        (m,) = sample_uniform_matrices(0, 1)
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-8)
        assert abs(np.linalg.det(m) - 1.0) <= 1e-8

    def test_trace_expectation_near_zero(self):
        # Haar expectation of the trace is 0
        mats = sample_uniform_matrices(11, 100_000)
        assert abs(np.mean(np.einsum("nii->n", mats))) < 0.02

    def test_deterministic(self):
        a = sample_uniform_matrices(123, 10)
        b = sample_uniform_matrices(123, 10)
        assert np.array_equal(a, b)

    def test_relative_angle_median_matches_uniform_law(self):
        # analytic oracle: CDF (w - sin w)/pi = 1/2 at w = 2.309881 rad
        a = sample_uniform_matrices(21, 100_000)
        b = sample_uniform_matrices(22, 100_000)
        med = np.degrees(np.median(geodesic_distances(a, b)))
        assert med == pytest.approx(132.3465, abs=1.0)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_uniform_matrices(0, 0)


class TestJsonSerialization:
    def test_all_types_round_trip(self):
        m = zyz_to_matrices(0.1, 0.2, 0.3)
        for target in ROTATION_TYPES:
            text = rotation_to_json(m, target)
            assert json.loads(text)["type"] == target
            assert np.allclose(rotation_from_json(text), m, atol=1e-12)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_json('{"type": "sixd", "data": []}')


class TestInvariantValidation:
    def test_quaternion_norm_enforced(self):
        with pytest.raises(ValueError, match="quaternion norm"):
            rotation_from_json('{"type": "quaternion", "w": 1, "x": 1, "y": 0, "z": 0}')

    def test_canonical_sign(self):
        # w >= 0, ties broken by the first nonzero component positive
        q = np.array([[-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
        assert np.array_equal(matrices_to_quats(quats_to_matrices(q)), -q)
        text = rotation_to_json(quats_to_matrices(q[1:])[0], "quaternion")
        assert json.loads(text)["x"] == 1.0

    def test_matrix_orthogonality_enforced(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            rotation_from_json(json.dumps({"type": "matrix",
                                           "m": (np.eye(3) * 2.0).tolist()}))

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError, match="beta must lie"):
            rotation_from_json('{"type": "euler_zyz", "alpha": 0.0, '
                               '"beta": -0.5, "gamma": 0.0}')
