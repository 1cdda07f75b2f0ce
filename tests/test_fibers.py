"""The Hopf-fiber factorization: class layout, fiber table, grid ReLU."""

import numpy as np
import pytest

from so3harmonics import fibers, grids, wigner
from so3harmonics.specconv import nonlin_operator


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

