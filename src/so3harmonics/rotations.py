"""3D rotations as batched arrays: conversions, Haar sampling, geodesic metric.

A rotation is a 3x3 matrix, and many rotations are an (n, 3, 3) stack;
every converter here works on whole stacks.  The other parametrizations
exist only as arrays at the edges: (alpha, beta, gamma) angle arrays,
(n, 4) quaternions and (n, 3) axes with (n,) angles, and the type-tagged
JSON lines of the ``convert`` command.

Conventions
-----------
- Euler angles are ZYZ with ``matrix = Rz(gamma) @ Ry(beta) @ Rz(alpha)``;
  beta in [0, pi], alpha and gamma in [-pi, pi] (wrapped to [-pi, pi)
  in JSON).  At gimbal lock
  (sin beta < 1e-12) the full in-plane angle is folded into alpha and
  gamma is set to 0.
- Quaternions are (w, x, y, z) with canonical sign: w >= 0, ties broken
  by the first nonzero component positive, so round trips are
  deterministic.
- Axis-angle keeps angle in [0, pi] with a unit axis; the zero rotation
  maps to axis (0, 0, 1), angle 0 by convention.
- All angles are radians.

Every function here is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi


def _wrap_pi(angle: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return float((angle + np.pi) % _TWO_PI - np.pi)


def _checked_matrix(m) -> np.ndarray:
    """``m`` as a float (3, 3) array, rejected unless it is a rotation."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not (np.isfinite(m).all() and np.allclose(m.T @ m, np.eye(3), atol=1e-8)):
        raise ValueError("matrix is not orthogonal")
    if abs(np.linalg.det(m) - 1.0) > 1e-8:
        raise ValueError("matrix determinant is not +1")
    return m


def _unit(v: np.ndarray, name: str) -> np.ndarray:
    """``v`` divided by its norm, rejected unless the norm is 1 to 1e-6
    (a NaN or infinite entry gives a norm that fails too)."""
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"{name} norm {norm} is not 1")
    return v / norm


@dataclass(frozen=True)
class RotationMatrix:
    """One validated, read-only rotation matrix: only the return type of
    ``estimation.argmax_pose`` for one unbatched distribution, whose ``.m``
    the benchmark's pose-decode check reads.  It goes with that form."""

    m: np.ndarray

    def __post_init__(self):
        m = _checked_matrix(self.m).copy()
        m.flags.writeable = False
        object.__setattr__(self, "m", m)


# ---------------------------------------------------------------------------
# Batched conversions between (n, 3, 3) stacks and the other forms
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
    renormalized by its own norm.
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


# ---------------------------------------------------------------------------
# JSON lines (type-tagged, radians everywhere)
# ---------------------------------------------------------------------------

ROTATION_TYPES = ("euler_zyz", "quaternion", "axis_angle", "matrix")


def rotation_from_json(text: str) -> np.ndarray:
    """The (3, 3) matrix of one type-tagged JSON rotation, each value
    checked, then clamped to [0, pi], wrapped to [-pi, pi) or divided by
    its norm as its convention says."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "euler_zyz":
        alpha, beta, gamma = obj["alpha"], obj["beta"], obj["gamma"]
        if not -1e-9 <= beta <= np.pi + 1e-9:
            raise ValueError(f"beta must lie in [0, pi], got {beta}")
        for name, angle in (("alpha", alpha), ("gamma", gamma)):
            if not np.isfinite(angle):
                raise ValueError(f"{name} must be finite, got {angle}")
        return zyz_to_matrices(_wrap_pi(alpha), min(max(beta, 0.0), np.pi),
                               _wrap_pi(gamma))
    if kind == "quaternion":
        q = np.array([obj["w"], obj["x"], obj["y"], obj["z"]], dtype=float)
        return quats_to_matrices(_unit(q, "quaternion")[None])[0]
    if kind == "axis_angle":
        axis, angle = np.asarray(obj["axis"], dtype=float), obj["angle"]
        if axis.shape != (3,):
            raise ValueError(f"axis must hold 3 numbers, got shape {axis.shape}")
        axis = _unit(axis, "axis")
        if not -1e-12 <= angle <= np.pi + 1e-9:
            raise ValueError(f"angle must lie in [0, pi], got {angle}")
        return axis_angles_to_matrices(axis[None],
                                       np.array([min(max(angle, 0.0), np.pi)]))[0]
    if kind == "matrix":
        return _checked_matrix(obj["m"])
    raise ValueError(f"unknown rotation type tag: {kind!r}")


def rotation_to_json(m: np.ndarray, target: str) -> str:
    """One (3, 3) rotation matrix as a type-tagged JSON line of ``target``
    (one of ``ROTATION_TYPES``), normalized as ``rotation_from_json``
    normalizes its input."""
    obj: dict = {"type": target}
    if target == "euler_zyz":
        alpha, beta, gamma = matrices_to_zyz(m)
        obj.update(alpha=_wrap_pi(alpha), beta=float(beta), gamma=_wrap_pi(gamma))
    elif target == "quaternion":
        q = matrices_to_quats(m[None])[0]
        obj.update(zip("wxyz", (q / np.linalg.norm(q)).tolist()))
    elif target == "axis_angle":
        axes, angles = matrices_to_axis_angles(m[None])
        obj.update(axis=(axes[0] / np.linalg.norm(axes[0])).tolist(),
                   angle=float(angles[0]))
    elif target == "matrix":
        obj.update(m=m.tolist())
    else:
        raise ValueError(f"unknown target representation: {target!r}")
    return json.dumps(obj)
