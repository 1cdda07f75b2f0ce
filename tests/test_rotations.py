"""Conversion, sampling, and metric tests for the rotation module."""

import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from so3harmonics import rotations
from so3harmonics.rotations import (AxisAngle, EulerZYZ, RotationMatrix,
                                    UnitQuaternion, axis_angle_to_matrix,
                                    axis_angles_to_matrices,
                                    euler_to_matrix, geodesic_distances,
                                    matrix_to_axis_angle, matrices_to_zyz,
                                    matrix_to_euler, matrix_to_quat,
                                    quat_to_matrix, rotation_from_json,
                                    rotation_to_json, sample_uniform_matrices,
                                    zyz_to_matrices)


class TestEulerMatrix:
    def test_zero_angles_identity(self):
        assert np.allclose(euler_to_matrix(EulerZYZ(0, 0, 0)).m, np.eye(3))

    def test_beta_pi_analytic(self):
        assert np.allclose(euler_to_matrix(EulerZYZ(0, np.pi, 0)).m,
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
        assert np.allclose(euler_to_matrix(EulerZYZ(a, b, g)).m, expected,
                           atol=1e-14)

    def test_matches_scipy_intrinsic_zyz_reversed(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(-np.pi, np.pi)
            b = rng.uniform(0, np.pi)
            g = rng.uniform(-np.pi, np.pi)
            ours = euler_to_matrix(EulerZYZ(a, b, g)).m
            ref = ScipyRotation.from_euler("ZYZ", [g, b, a]).as_matrix()
            assert np.allclose(ours, ref, atol=1e-12)

    def test_output_is_valid_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = euler_to_matrix(EulerZYZ(rng.uniform(-np.pi, np.pi),
                                         rng.uniform(0, np.pi),
                                         rng.uniform(-np.pi, np.pi))).m
            assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-10
            assert abs(np.linalg.det(m) - 1) < 1e-10


class TestMatrixToEuler:
    def test_identity(self):
        e = matrix_to_euler(RotationMatrix.identity())
        assert (e.alpha, e.beta, e.gamma) == (0.0, 0.0, 0.0)

    def test_round_trip_specific(self):
        e = matrix_to_euler(euler_to_matrix(EulerZYZ(0.3, 1.1, -0.7)))
        assert (e.alpha, e.beta, e.gamma) == pytest.approx((0.3, 1.1, -0.7))

    def test_gimbal_beta_zero_folds_into_alpha(self):
        e = matrix_to_euler(RotationMatrix(zyz_to_matrices(0.5, 0.0, 0.0)))
        assert (e.alpha, e.beta, e.gamma) == pytest.approx((0.5, 0.0, 0.0))

    def test_gimbal_beta_pi(self):
        m = RotationMatrix(zyz_to_matrices(0.4, 0.0, 0.0)
                           @ zyz_to_matrices(0.0, np.pi, 0.0)
                           @ zyz_to_matrices(0.3, 0.0, 0.0))
        e = matrix_to_euler(m)
        assert e.gamma == 0.0
        assert e.beta == pytest.approx(np.pi)
        assert np.allclose(euler_to_matrix(e).m, m.m, atol=1e-9)

    def test_round_trip_random(self):
        for m in sample_uniform_matrices(42, 500):
            r = RotationMatrix(m)
            back = euler_to_matrix(matrix_to_euler(r)).m
            assert np.max(np.abs(back - m)) < 1e-9

    def test_round_trip_near_both_poles(self):
        rng = np.random.default_rng(43)
        offset = np.logspace(-13, -3, 200)
        for beta in (offset, np.pi - offset):
            alpha, gamma = rng.uniform(-np.pi, np.pi, (2, len(beta)))
            mats = zyz_to_matrices(alpha, beta, gamma)
            back = zyz_to_matrices(*matrices_to_zyz(mats))
            assert np.max(np.abs(back - mats)) <= 1e-12
            for m in mats:
                single = euler_to_matrix(matrix_to_euler(RotationMatrix(m))).m
                assert np.max(np.abs(single - m)) <= 1e-12


class TestQuaternionAndAxisAngle:
    def test_identity_quaternion(self):
        assert np.allclose(quat_to_matrix(UnitQuaternion(1, 0, 0, 0)).m,
                           np.eye(3))

    def test_z_quarter_turn(self):
        aa = AxisAngle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
        assert np.allclose(axis_angle_to_matrix(aa).m,
                           zyz_to_matrices(np.pi / 2, 0.0, 0.0), atol=1e-15)

    def test_quat_round_trip_up_to_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            quat = UnitQuaternion(*q)
            back = matrix_to_quat(quat_to_matrix(quat))
            assert np.allclose(back.as_array(), quat.as_array(), atol=1e-9)

    def test_axis_angle_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(1e-5, np.pi - 1e-5)
            aa = AxisAngle(axis, angle)
            back = matrix_to_axis_angle(axis_angle_to_matrix(aa))
            assert back.angle == pytest.approx(angle, abs=1e-9)
            assert np.allclose(back.axis, axis, atol=1e-8)

    def test_batched_rodrigues_matches_per_rotation_formula(self):
        rng = np.random.default_rng(8)
        angles = np.concatenate([rng.uniform(0, np.pi, 100), [0.0, np.pi]])
        aas = [AxisAngle(u / np.linalg.norm(u), angle)
               for u, angle in zip(rng.normal(size=(102, 3)), angles)]
        batched = axis_angles_to_matrices(np.array([aa.axis for aa in aas]),
                                          np.array([aa.angle for aa in aas]))
        for aa, m in zip(aas, batched):
            u = aa.axis
            c, s = np.cos(aa.angle), np.sin(aa.angle)
            ux = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]],
                           [-u[1], u[0], 0]])
            expect = c * np.eye(3) + s * ux + (1 - c) * np.outer(u, u)
            assert np.array_equal(m, expect)
            assert np.array_equal(axis_angle_to_matrix(aa).m, expect)

    def test_zero_angle_convention(self):
        aa = matrix_to_axis_angle(RotationMatrix.identity())
        assert aa.angle == 0.0
        assert np.allclose(aa.axis, [0, 0, 1])

    def test_all_pairwise_round_trips(self):
        for m in sample_uniform_matrices(7, 200):
            r = RotationMatrix(m)
            paths = [
                euler_to_matrix(matrix_to_euler(r)),
                quat_to_matrix(matrix_to_quat(r)),
                axis_angle_to_matrix(matrix_to_axis_angle(r)),
                quat_to_matrix(matrix_to_quat(euler_to_matrix(matrix_to_euler(r)))),
                axis_angle_to_matrix(matrix_to_axis_angle(quat_to_matrix(matrix_to_quat(r)))),
                euler_to_matrix(matrix_to_euler(axis_angle_to_matrix(matrix_to_axis_angle(r)))),
            ]
            for back in paths:
                assert np.max(np.abs(back.m - m)) < 1e-9


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
        RotationMatrix(m)  # raises unless orthogonal with determinant +1

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
        values = [
            EulerZYZ(0.1, 0.2, 0.3),
            UnitQuaternion(1, 0, 0, 0),
            AxisAngle(np.array([0.0, 1.0, 0.0]), 0.5),
            RotationMatrix(zyz_to_matrices(0.7, 0.0, 0.0)),
        ]
        for v in values:
            text = rotation_to_json(v)
            tag = json.loads(text)["type"]
            back = rotation_from_json(text)
            assert type(back) is type(v)
            assert tag in ("euler_zyz", "quaternion", "axis_angle", "matrix")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            rotation_from_json('{"type": "sixd", "data": []}')


class TestInvariantValidation:
    def test_quaternion_norm_enforced(self):
        with pytest.raises(ValueError):
            UnitQuaternion(1.0, 1.0, 0.0, 0.0)

    def test_canonical_sign(self):
        q = UnitQuaternion(-1.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0
        tie = UnitQuaternion(0.0, -1.0, 0.0, 0.0)
        assert tie.x == 1.0

    def test_matrix_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            RotationMatrix(np.eye(3) * 2.0)

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError):
            EulerZYZ(0.0, -0.5, 0.0)
