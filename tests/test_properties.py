"""Property tests of the group-theoretic invariants on random rotations.

Rotations are drawn Haar-uniformly and also within 1e-12..1e-3 rad of
both ZYZ poles (beta near 0 or pi), where Euler-angle constructions
lose precision and the real-basis recursion must not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from so3harmonics import wigner
from so3harmonics.harmonics import (PointSet, SphericalCoeffs, design_matrix,
                                    synthesize)
from so3harmonics.rotations import (rot_y, rot_z, sample_uniform_matrices,
                                    zyz_to_matrices)
from so3harmonics.specconv import _blocks, init_toy_model, s2_conv, so3_conv

LMAX = 20
SETTINGS = settings(max_examples=50, deadline=None)

angles = st.floats(0.0, 2 * np.pi)
pole_offsets = st.floats(-12.0, -3.0).map(lambda u: 10.0 ** u)
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def near_pole(draw):
    beta = draw(pole_offsets)
    if draw(st.booleans()):
        beta = np.pi - beta
    return zyz_to_matrices(draw(angles), beta, draw(angles))


rotations = st.one_of(seeds.map(lambda s: sample_uniform_matrices(s, 1)[0]),
                      near_pole())

MODEL = init_toy_model(0, 4, in_channels=2, mid_channels=3,
                       hidden_channels=4, tap_count=12)


def left_translate(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Group signals (..., C, M) with every degree block left-multiplied
    by the real Wigner block of m."""
    bandlimit = wigner.bandlimit_of(x.shape[-1])
    out = np.empty_like(x)
    blocks = wigner.wigner_block_stacks_real(m[None], bandlimit)
    for d, xb, ob in zip(blocks, _blocks(x, bandlimit), _blocks(out, bandlimit)):
        ob[...] = np.einsum("mn,...nk->...mk", d[0], xb)
    return out


@SETTINGS
@given(rotations, rotations)
def test_blocks_orthogonal_and_homomorphic(r1, r2):
    b1 = wigner.wigner_block_stacks_real(r1[None], LMAX)
    b2 = wigner.wigner_block_stacks_real(r2[None], LMAX)
    b12 = wigner.wigner_block_stacks_real((r1 @ r2)[None], LMAX)
    for l in range(LMAX + 1):
        d1, d2, d12 = b1[l][0], b2[l][0], b12[l][0]
        assert np.max(np.abs(d1 @ d1.T - np.eye(2 * l + 1))) < 1e-12, l
        assert np.max(np.abs(d1 @ d2 - d12)) < 1e-12, l


@SETTINGS
@given(rotations, seeds, st.integers(0, 6))
def test_shift_law(r, seed, bandlimit):
    # rotating the coefficients equals pulling the samples back through r^-1
    rng = np.random.default_rng(seed)
    c = SphericalCoeffs(bandlimit, rng.normal(size=(2, (bandlimit + 1) ** 2)))
    theta = np.arccos(rng.uniform(-1, 1, 40))
    phi = rng.uniform(0, 2 * np.pi, 40)
    grid = PointSet(theta, phi)
    pulled = grid.xyz @ r  # rows are r^-1 x
    pulled_grid = PointSet(np.arctan2(np.hypot(pulled[:, 0], pulled[:, 1]),
                                      pulled[:, 2]),
                           np.arctan2(pulled[:, 1], pulled[:, 0]))
    lhs = synthesize(wigner.rotate_coeffs(c, r), grid).values
    rhs = synthesize(c, pulled_grid).values
    assert np.max(np.abs(lhs - rhs)) < 1e-11


@SETTINGS
@given(rotations, seeds)
def test_layer_equivariance(r, seed):
    rng = np.random.default_rng(seed)
    c = SphericalCoeffs(4, rng.normal(size=(3, 25)))
    lhs = s2_conv(wigner.rotate_coeffs(c, r).data, MODEL.s2)
    rhs = left_translate(s2_conv(c.data, MODEL.s2), r)
    assert np.max(np.abs(lhs - rhs)) < 1e-11
    x = rng.normal(size=(3, 4, wigner.m_total(4)))
    lhs = so3_conv(left_translate(x, r), MODEL.so3)
    rhs = left_translate(so3_conv(x, MODEL.so3), r)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


@SETTINGS
@given(st.one_of(st.floats(0.0, np.pi), pole_offsets,
                 pole_offsets.map(lambda e: np.pi - e)), angles, angles)
def test_design_row_is_wigner_centre_column(theta, phi, psi):
    # Y_l^m(R e_z) = sqrt((2l+1)/4pi) D^l(R)[m, 0] for R = Rz(phi) Ry(theta) Rz(psi)
    r = rot_z(phi) @ rot_y(theta) @ rot_z(psi)
    row = design_matrix(PointSet([theta], [phi]), LMAX)[0]
    blocks = wigner.wigner_block_stacks_real(r[None], LMAX)
    for l, d in enumerate(blocks):
        expect = np.sqrt((2 * l + 1) / (4 * np.pi)) * d[0, :, l]
        assert np.max(np.abs(row[l * l:(l + 1) ** 2] - expect)) < 1e-13, l


SO3_GENERATORS = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                           [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                           [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])


@SETTINGS
@given(st.floats(-np.pi, np.pi))
def test_generators_exponentiate_to_blocks(t):
    # expm(t J^l_k) = D^l(exp(t K_k)) for every axis k and degree l <= LMAX
    for k, gen in enumerate(SO3_GENERATORS):
        blocks = wigner.wigner_block_stacks_real(expm(t * gen)[None], LMAX)
        for l, d in enumerate(blocks):
            j = wigner.generators_real(l)[k]
            assert np.array_equal(j + j.T, np.zeros_like(j)), (k, l)
            assert np.max(np.abs(expm(t * j) - d[0])) <= 1e-12, (k, l)
