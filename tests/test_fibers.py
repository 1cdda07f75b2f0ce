"""The Hopf-fiber factorization: class layout, fiber table, grid ReLU."""

import numpy as np
import pytest

from so3harmonics import fibers, grids, wigner
from so3harmonics.harmonics import gram_ridge_inverse
from so3harmonics.specconv import nonlin_operator


def column_degrees_and_orders(bandlimit):
    """(l, m, n) of every column of the harmonic vector at a band limit."""
    return np.array([(l, m, n) for l in range(bandlimit + 1)
                     for m in range(-l, l + 1) for n in range(-l, l + 1)]).T


@pytest.mark.parametrize("bandlimit", range(14))
def test_second_half_of_each_class_holds_the_partners(bandlimit):
    # class k > 0 is [n = -k | n = +k] with both halves in the same (l, m)
    # order, and the sign J_z[n, -n] / k of the generator is +1 on the
    # first half and -1 on the second: the signed partners of a class
    # block [x_A | x_B] are [x_B | -x_A]
    order, bounds = fibers._fiber_classes(bandlimit)
    l, m, n = (c[order] for c in column_degrees_and_orders(bandlimit))
    sign = np.concatenate([
        np.tile(np.fliplr(wigner.generators_real(d)[2]).diagonal()
                / np.maximum(np.abs(np.arange(-d, d + 1)), 1), 2 * d + 1)
        for d in range(bandlimit + 1)])[order]
    assert np.all(n[:bounds[1]] == 0)
    for k, (a, b) in enumerate(fibers._halves(bounds), start=1):
        assert np.all(n[a] == -k) and np.all(n[b] == k)
        assert np.array_equal(l[a], l[b]) and np.array_equal(m[a], m[b])
        assert np.all(sign[a] == 1.0) and np.all(sign[b] == -1.0)


@pytest.mark.parametrize("level, bandlimit", [
    (level, bandlimit) for level in (1, 2, 3) for bandlimit in range(1, 7)
    if 2 * bandlimit < 6 * 2 ** level])  # the fiber angles resolve L
def test_class_ridge_inverse_commutes_with_the_half_swap(level, bandlimit):
    # H_k Pi_k = Pi_k H_k makes G_k Pi_k^T the re-analysis table of the
    # sin row, so the ReLU keeps one table per class
    table = fibers.fiber_table(grids.so3_healpix(level), bandlimit)
    grams = fibers._class_grams(table)
    for k, h in enumerate(gram_ridge_inverse(grams)[1:], start=1):
        half = len(h) // 2
        eye = np.eye(half)
        pi = np.block([[0 * eye, -eye], [eye, 0 * eye]])  # x Pi = [x_B | -x_A]
        x = np.random.default_rng(k).normal(size=len(h))
        assert np.array_equal(x @ pi, np.r_[x[half:], -x[:half]])
        assert np.linalg.norm(h @ pi - pi @ h) <= 1e-13 * np.linalg.norm(h)


@pytest.mark.parametrize("bandlimit", [0, 1, 4, 6])
def test_classes_pair_columns_with_their_trig_rows(bandlimit):
    # class k holds the columns with |n| = k and reads trig rows
    # cos(k psi) and sin(k psi), or the constant row for k = 0
    level = 1
    table = fibers.fiber_table(grids.so3_healpix(level), bandlimit)
    nfiber = 6 * 2 ** level
    psi = 2 * np.pi * np.arange(nfiber) / nfiber
    offs = wigner.block_offsets(bandlimit)
    n = np.concatenate([np.tile(np.arange(-l, l + 1), 2 * l + 1)
                        for l in range(bandlimit + 1)])
    assert len(n) == offs[-1]
    classes = list(fibers._classes(table.bounds))
    assert len(classes) == bandlimit + 1
    for k, (h, j, cols) in enumerate(classes):
        assert np.all(np.abs(n[table.order[cols]]) == k)
        rows = [np.ones(nfiber)] if k == 0 else [np.cos(k * psi), np.sin(k * psi)]
        assert h == len(rows)
        assert np.allclose(table.trig[j:j + h], rows, rtol=0, atol=1e-15)
    assert classes[-1][1] + classes[-1][0] == len(table.trig)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_synthesis_of_a_row_slice_is_that_slice_of_the_whole(level):
    # decode_poses synthesizes each score block from a row slice of its
    # chunk's coefficients: bit for bit that block of the whole synthesis
    table = fibers.fiber_table(grids.so3_healpix(level), 6)
    rows = np.random.default_rng(40 + level).normal(size=(7, wigner.m_total(6)))
    x = table.coefficients(rows)
    whole = table.synthesize(x)
    assert whole.tobytes() == table.scores(rows).tobytes()
    for lo, hi in [(0, 1), (0, 3), (2, 5), (3, 7), (6, 7)]:
        assert table.synthesize(x[:, lo:hi]).tobytes() == whole[lo:hi].tobytes()


def test_relu_takes_any_leading_shape():
    # one sample, a batch and a stack of batches: every row bit for bit
    # what the flat (rows, M) call gives
    op = nonlin_operator(2, 4)
    rng = np.random.default_rng(30)
    x = rng.normal(size=(2, 3, 4, wigner.m_total(4)))
    d_out = rng.normal(size=x.shape)
    flat_out, flat_mask = op.forward(x.reshape(-1, x.shape[-1]))
    flat_back = op.backward(d_out.reshape(-1, x.shape[-1]), flat_mask)
    for lead in [(24,), (6, 4), (2, 3, 4)]:
        xs, ds = x.reshape(lead + x.shape[-1:]), d_out.reshape(lead + x.shape[-1:])
        out, mask = op.forward(xs)
        assert out.shape == xs.shape and mask.shape == lead + (op.size,)
        assert out.tobytes() == flat_out.tobytes()
        assert mask.tobytes() == flat_mask.tobytes()
        assert op.backward(ds, mask).tobytes() == flat_back.tobytes()
    out, mask = op.forward(x[0, 0, 0])
    assert out.shape == x.shape[-1:] and mask.shape == (op.size,)
    assert np.array_equal(mask, flat_mask[0])
    assert op.backward(d_out[0, 0, 0], mask).shape == x.shape[-1:]



def test_every_constructed_rotation_lies_on_its_fiber():
    # what fiber_table no longer checks on a grid built from its pixels
    # and fibers: rotation i F + f is A_i Rz(2 pi f / F) at every level
    # so3_healpix builds, read chunk by chunk through rotations_at
    for level in range(grids.LARGE_GRID_LEVEL + 1):
        grid = grids.so3_healpix(level, allow_large=True)
        assert grid.nfiber == 6 * 2 ** level
        assert fibers.fiber_deviation(grid, grid.nfiber) <= fibers._FIBER_TOL
        assert "rotations" not in vars(grid)


def test_fiber_deviation_sees_one_moved_rotation():
    grid = grids.so3_healpix(1)
    mats = grid.rotations.copy()
    mats[300, 0, 0] += 1e-9
    moved = grids.SO3Grid("healpix_hopf", mats, 30.0, level=1)
    assert fibers.fiber_deviation(grid, 12) <= 1e-15
    assert fibers.fiber_deviation(moved, 12) == pytest.approx(1e-9, rel=1e-6)
    mats = mats.copy()
    mats[5, 1, 2] = np.nan
    assert np.isnan(fibers.fiber_deviation(grids.SO3Grid("healpix_hopf", mats, 30.0,
                                                         level=1), 12))


@pytest.mark.parametrize("level", [-1, -3, 1.0, "1", None])
def test_a_level_that_is_no_int_from_zero_gets_no_fiber_table(level):
    # a hand-built stack labelled healpix_hopf proposes F = 6 * 2^level
    # only for an int level >= 0
    mats = grids.so3_healpix(0).rotations[:9]
    grid = grids.SO3Grid("healpix_hopf", mats, 60.0, level=level)
    assert fibers.fiber_table(grid, 2) is None
