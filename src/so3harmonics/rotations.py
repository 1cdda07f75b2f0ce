"""3D rotation representations, conversions, Haar sampling, geodesic metric.

Conventions
-----------
- Euler angles are ZYZ with ``matrix = Rz(gamma) @ Ry(beta) @ Rz(alpha)``;
  beta in [0, pi], alpha and gamma wrapped to [-pi, pi).  At gimbal lock
  (sin beta < 1e-12) the full in-plane angle is folded into alpha and
  gamma is set to 0.
- Quaternions are (w, x, y, z) with canonical sign: w >= 0, ties broken
  by the first nonzero component positive.  Canonicalization happens at
  construction so round trips are deterministic.
- Axis-angle keeps angle in [0, pi] with a unit axis; the zero rotation
  maps to axis (0, 0, 1), angle 0 by convention.
- All angles are radians.

Every function here is pure; values are immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi


def _wrap_pi(angle: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return float((angle + np.pi) % _TWO_PI - np.pi)


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


@dataclass(frozen=True)
class EulerZYZ:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not -1e-9 <= self.beta <= np.pi + 1e-9:
            raise ValueError(f"beta must lie in [0, pi], got {self.beta}")
        object.__setattr__(self, "alpha", _wrap_pi(self.alpha))
        object.__setattr__(self, "beta", float(min(max(self.beta, 0.0), np.pi)))
        object.__setattr__(self, "gamma", _wrap_pi(self.gamma))


@dataclass(frozen=True)
class UnitQuaternion:
    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        q = np.array([self.w, self.x, self.y, self.z], dtype=float)
        norm = np.linalg.norm(q)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {norm} is not 1")
        q /= norm
        q = _canonical_quat(q)
        for name, val in zip("wxyz", q):
            object.__setattr__(self, name, float(val))

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])


@dataclass(frozen=True)
class AxisAngle:
    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"axis norm {norm} is not 1")
        if not -1e-12 <= self.angle <= np.pi + 1e-9:
            raise ValueError(f"angle must lie in [0, pi], got {self.angle}")
        axis = axis / norm
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", float(min(max(self.angle, 0.0), np.pi)))


@dataclass(frozen=True)
class RotationMatrix:
    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        if not np.allclose(m.T @ m, np.eye(3), atol=1e-8):
            raise ValueError("matrix is not orthogonal")
        if abs(np.linalg.det(m) - 1.0) > 1e-8:
            raise ValueError("matrix determinant is not +1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @staticmethod
    def identity() -> "RotationMatrix":
        return RotationMatrix(np.eye(3))


def _canonical_quat(q: np.ndarray) -> np.ndarray:
    """Flip sign so w >= 0, ties broken by the first nonzero component."""
    for v in q:
        if v > 0:
            return q
        if v < 0:
            return -q
    return q


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

def euler_to_matrix(e: EulerZYZ) -> RotationMatrix:
    """Matrix for ZYZ angles: Rz(gamma) @ Ry(beta) @ Rz(alpha)."""
    return RotationMatrix(zyz_to_matrices(e.alpha, e.beta, e.gamma))


def matrix_to_euler(r: RotationMatrix) -> EulerZYZ:
    """ZYZ angles of a rotation matrix; gamma = 0 at gimbal lock."""
    return EulerZYZ(*(float(angle) for angle in matrices_to_zyz(r.m)))


def quat_to_matrix(q: UnitQuaternion) -> RotationMatrix:
    return RotationMatrix(quats_to_matrices(q.as_array()[None])[0])


def matrix_to_quat(r: RotationMatrix) -> UnitQuaternion:
    """Quaternion of a matrix via the numerically stable branch method."""
    return UnitQuaternion(*matrices_to_quats(r.m[None])[0])


def axis_angle_to_matrix(aa: AxisAngle) -> RotationMatrix:
    """Rodrigues' formula."""
    return RotationMatrix(
        axis_angles_to_matrices(aa.axis[None], np.array([aa.angle]))[0])


def matrix_to_axis_angle(r: RotationMatrix) -> AxisAngle:
    """Axis and angle of a matrix; angle 0 returns axis (0, 0, 1)."""
    axes, angles = matrices_to_axis_angles(r.m[None])
    return AxisAngle(axes[0], angles[0])


def geodesic_distance(r1: RotationMatrix, r2: RotationMatrix) -> float:
    """Rotation angle of r1 r2^T in radians: arccos((trace - 1) / 2)."""
    t = float(np.sum(r1.m * r2.m))
    return float(np.arccos(np.clip((t - 1.0) / 2.0, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# Batched array helpers (hot paths work on (n, 3, 3) stacks directly)
# ---------------------------------------------------------------------------

def quats_to_matrices(q: np.ndarray) -> np.ndarray:
    """(n, 4) wxyz quaternions (assumed unit) -> (n, 3, 3) matrices."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((len(q), 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def _row_norms(v: np.ndarray) -> np.ndarray:
    """(n, 1) norms of (n, k) rows, each rounded like np.linalg.norm of a
    single vector (a stacked matmul takes the same dot product)."""
    return np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]


def matrices_to_quats(m: np.ndarray) -> np.ndarray:
    """(n, 3, 3) matrices -> (n, 4) canonical unit wxyz quaternions.

    The stable branch method, row by row: the trace branch where the
    trace is positive, else the branch of the largest diagonal entry.
    """
    m = np.asarray(m, dtype=float)
    d0, d1, d2 = m[:, 0, 0], m[:, 1, 1], m[:, 2, 2]
    t = np.trace(m, axis1=1, axis2=2)
    branch = np.where(t > 0, 0, np.where((d0 > d1) & (d0 > d2), 1,
                                         np.where(d1 > d2, 2, 3)))
    rows = np.arange(len(m))
    s = np.sqrt(np.stack([t + 1.0, 1.0 + d0 - d1 - d2, 1.0 + d1 - d0 - d2,
                          1.0 + d2 - d0 - d1], axis=1)[rows, branch]) * 2
    a, p = m - m.transpose(0, 2, 1), m + m.transpose(0, 2, 1)
    wx, wy, wz, xy, xz, yz = (a[:, 2, 1], a[:, 0, 2], a[:, 1, 0],
                              p[:, 0, 1], p[:, 0, 2], p[:, 1, 2])
    # row k holds 4 q_k q_i; the branch's own entry is overwritten below
    pairs = np.array([[wx, wx, wy, wz], [wx, wx, xy, xz],
                      [wy, xy, wy, yz], [wz, xz, yz, wz]])
    q = pairs[branch, :, rows] / s[:, None]
    q[rows, branch] = 0.25 * s
    q /= _row_norms(q)
    first = np.argmax(q != 0, axis=1)
    q *= np.where(q[rows, first] < 0, -1.0, 1.0)[:, None]
    return q


def matrices_to_axis_angles(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 3, 3) matrices -> (n, 3) unit axes and (n,) angles in [0, pi].

    Read from the canonical quaternions, whose w >= 0 keeps every angle
    within [0, pi]; a zero rotation gets axis (0, 0, 1).  Each axis is
    renormalized by its own norm, as the AxisAngle constructor does.
    """
    q = matrices_to_quats(m)
    sin_half = _row_norms(q[:, 1:])
    ok = sin_half[:, 0] >= 1e-12
    axes = np.where(ok[:, None], q[:, 1:] / np.where(ok[:, None], sin_half, 1.0),
                    [0.0, 0.0, 1.0])
    angles = 2.0 * np.arctan2(sin_half[:, 0], q[:, 0])
    return axes / _row_norms(axes), np.where(ok, angles, 0.0)


def axis_angles_to_matrices(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Batched Rodrigues' formula for (n, 3) unit axes and (n,) angles:
    c I + s [u]x + (1 - c) u u^T."""
    u = np.asarray(axes, dtype=float)
    c = np.cos(angles)[:, None, None]
    s = np.sin(angles)[:, None, None]
    zero = np.zeros(len(u))
    ux = np.stack([zero, -u[:, 2], u[:, 1],
                   u[:, 2], zero, -u[:, 0],
                   -u[:, 1], u[:, 0], zero], axis=1).reshape(-1, 3, 3)
    return c * np.eye(3) + s * ux + (1 - c) * (u[:, :, None] * u[:, None, :])


def zyz_to_matrices(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Batched Rz(gamma) @ Ry(beta) @ Rz(alpha)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    m = np.empty(np.broadcast(alpha, beta, gamma).shape + (3, 3))
    m[..., 0, 0] = cg * cb * ca - sg * sa
    m[..., 0, 1] = -cg * cb * sa - sg * ca
    m[..., 0, 2] = cg * sb
    m[..., 1, 0] = sg * cb * ca + cg * sa
    m[..., 1, 1] = -sg * cb * sa + cg * ca
    m[..., 1, 2] = sg * sb
    m[..., 2, 0] = -sb * ca
    m[..., 2, 1] = sb * sa
    m[..., 2, 2] = cb
    return m


def matrices_to_zyz(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched inverse of zyz_to_matrices with the gimbal convention.

    beta = atan2(sin beta, cos beta) with sin beta = |(m02, m12)| keeps
    full precision next to the poles.  Only where sin beta < 1e-12 does
    beta snap to the pole and the in-plane angle fold into alpha with
    gamma = 0.
    """
    sin_beta = np.hypot(m[..., 0, 2], m[..., 1, 2])
    beta = np.arctan2(sin_beta, m[..., 2, 2])
    gamma = np.arctan2(m[..., 1, 2], m[..., 0, 2])
    alpha = np.arctan2(m[..., 2, 1], -m[..., 2, 0])
    lock = sin_beta < 1e-12
    if np.any(lock):
        top = m[..., 2, 2] > 0
        in_plane = np.where(top, np.arctan2(m[..., 1, 0], m[..., 0, 0]),
                            np.arctan2(m[..., 1, 0], m[..., 1, 1]))
        alpha = np.where(lock, in_plane, alpha)
        beta = np.where(lock, np.where(top, 0.0, np.pi), beta)
        gamma = np.where(lock, 0.0, gamma)
    return alpha, beta, gamma


def geodesic_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise (broadcast) geodesic angle between (..., 3, 3) stacks."""
    t = np.sum(a * b, axis=(-2, -1))
    return np.arccos(np.clip((t - 1.0) / 2.0, -1.0, 1.0))


def sample_uniform_matrices(rng_seed: int, n: int) -> np.ndarray:
    """Haar-uniform (n, 3, 3) rotation stack from normalized 4D Gaussians."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng_seed)
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return quats_to_matrices(q)


def sample_uniform(rng_seed: int, n: int) -> list[RotationMatrix]:
    """Haar-uniform rotations, deterministic for a given seed."""
    return [RotationMatrix(m) for m in sample_uniform_matrices(rng_seed, n)]


# ---------------------------------------------------------------------------
# JSON serialization (type-tagged, radians everywhere)
# ---------------------------------------------------------------------------

def rotation_to_json(r) -> str:
    if isinstance(r, EulerZYZ):
        obj = {"type": "euler_zyz", "alpha": r.alpha, "beta": r.beta,
               "gamma": r.gamma}
    elif isinstance(r, UnitQuaternion):
        obj = {"type": "quaternion", "w": r.w, "x": r.x, "y": r.y, "z": r.z}
    elif isinstance(r, AxisAngle):
        obj = {"type": "axis_angle", "axis": list(r.axis), "angle": r.angle}
    elif isinstance(r, RotationMatrix):
        obj = {"type": "matrix", "m": [list(row) for row in r.m]}
    else:
        raise TypeError(f"not a rotation value: {type(r)}")
    return json.dumps(obj)


def rotation_from_json(text: str):
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "euler_zyz":
        return EulerZYZ(obj["alpha"], obj["beta"], obj["gamma"])
    if kind == "quaternion":
        return UnitQuaternion(obj["w"], obj["x"], obj["y"], obj["z"])
    if kind == "axis_angle":
        return AxisAngle(np.asarray(obj["axis"], dtype=float), obj["angle"])
    if kind == "matrix":
        return RotationMatrix(np.asarray(obj["m"], dtype=float))
    raise ValueError(f"unknown rotation type tag: {kind!r}")


def as_matrix(r) -> RotationMatrix:
    """Convert any supported representation to a RotationMatrix."""
    if isinstance(r, RotationMatrix):
        return r
    if isinstance(r, EulerZYZ):
        return euler_to_matrix(r)
    if isinstance(r, UnitQuaternion):
        return quat_to_matrix(r)
    if isinstance(r, AxisAngle):
        return axis_angle_to_matrix(r)
    raise TypeError(f"not a rotation value: {type(r)}")


def convert(r, target: str):
    """Convert between representations by name ('euler_zyz', 'quaternion',
    'axis_angle', 'matrix')."""
    m = as_matrix(r)
    if target == "matrix":
        return m
    if target == "euler_zyz":
        return matrix_to_euler(m)
    if target == "quaternion":
        return matrix_to_quat(m)
    if target == "axis_angle":
        return matrix_to_axis_angle(m)
    raise ValueError(f"unknown target representation: {target!r}")
