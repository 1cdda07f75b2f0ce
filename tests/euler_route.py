"""Rotations routed through their ZYZ Euler angles, as a caller holding
angles would pass them: alpha and gamma wrapped to [-pi, pi)."""

import numpy as np

from so3harmonics.rotations import matrices_to_zyz, zyz_to_matrices


def via_euler(mats: np.ndarray) -> np.ndarray:
    """(..., 3, 3) rotations rebuilt from their wrapped ZYZ angles."""
    alpha, beta, gamma = matrices_to_zyz(mats)
    return zyz_to_matrices((alpha + np.pi) % (2 * np.pi) - np.pi, beta,
                           (gamma + np.pi) % (2 * np.pi) - np.pi)
