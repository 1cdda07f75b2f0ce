"""Spectral layer contracts: equivariance, nonlinearity, gradients."""

import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from gradcheck import batch_loss_and_grads, kink_safe_gradcheck
from so3harmonics import fibers, grids, mapper, specconv, wigner
from so3harmonics._cache import LRUCache
from so3harmonics.estimation import LossConfig
from so3harmonics.fibers import FiberRelu, _relu_operator, fiber_table
from so3harmonics.harmonics import (IllConditionedError, SphericalCoeffs,
                                    design_matrix, ridge_solver, synthesize)
from so3harmonics.harness import RunConfig
from so3harmonics.mapper import MapperConfig
from so3harmonics.rotations import (RotationMatrix, matrix_to_euler,
                                    sample_uniform_matrices)
from so3harmonics.specconv import (LocalSO3Filter, S2FilterBank, ToyModel,
                                   _blocks, default_nonlin_grid, forward_trunk,
                                   head_wigner, init_toy_model,
                                   local_tap_rotations, s2_conv, so3_conv)

L = 4


@pytest.fixture(scope="module")
def model():
    return init_toy_model(0, L, in_channels=2, mid_channels=3,
                          hidden_channels=4, tap_count=12)


def left_translate(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Group signals (..., C, M) with every degree block left-multiplied
    by the Wigner block of m."""
    e = matrix_to_euler(RotationMatrix(m))
    bandlimit = wigner.bandlimit_of(x.shape[-1])
    out = np.empty_like(x)
    for l, (xb, ob) in enumerate(zip(_blocks(x, bandlimit),
                                     _blocks(out, bandlimit))):
        ob[...] = np.einsum("mn,...nk->...mk",
                            wigner.wigner_D_real(l, e).entries, xb)
    return out


def predict(model, kind, values, **trunk_kw):
    """(B, M) predictions of a batch: ``forward_trunk``, ``head_wigner``."""
    return head_wigner(model, forward_trunk(model, kind, values, **trunk_kw)[0])


def dense_relu(x, d_out, grid, bandlimit):
    """(out, mask, d_x) of the grid ReLU through the dense psi table and
    ridge_solver, the reference for the fiber path."""
    a = wigner.rotations_to_psi(grid.rotations, bandlimit)
    p = ridge_solver(a)
    s = x @ a.T
    mask = s > 0
    return (s * mask) @ p.T, mask, ((d_out @ p) * mask) @ a


def assert_rows_close(got, ref, rtol=1e-12):
    assert got.shape == ref.shape
    err = np.linalg.norm(got - ref, axis=-1)
    assert np.all(err <= rtol * np.linalg.norm(ref, axis=-1))


# The per-degree einsum contractions the spectral layers ran before they
# became BLAS GEMMs, kept as oracles.

def einsum_s2_conv(c, f):
    out = np.empty(c.shape[:-2] + (f.out_channels, wigner.m_total(f.bandlimit)))
    for l, ob in enumerate(_blocks(out, f.bandlimit)):
        ob[...] = np.einsum("...im,oin->...omn", c[..., l * l:(l + 1) ** 2],
                            f.spectra[l])
    return out


def einsum_so3_conv(x, f):
    out = np.empty(x.shape[:-2] + (f.weights.shape[0], x.shape[-1]))
    for ob, xb, h in zip(_blocks(out, f.bandlimit), _blocks(x, f.bandlimit),
                         f.spectral_blocks()):
        ob[...] = np.einsum("...imn,oipn->...omp", xb, h)
    return out


def einsum_backward_head_wigner(model, state, d_psi):
    L = model.bandlimit
    d_hidden = np.empty_like(state.hidden_flat)
    d_filter = np.empty(model.so3.weights.shape[:2] + d_psi.shape[-1:])
    for d_out, xb, dxb, h, dhb in zip(
            _blocks(d_psi[:, None], L), _blocks(state.hidden_flat, L),
            _blocks(d_hidden, L), model.so3.spectral_blocks(),
            _blocks(d_filter, L)):
        dxb[...] = np.einsum("bomp,oipn->bimn", d_out, h)
        dhb[...] = np.einsum("bomp,bimn->oipn", d_out, xb)
    return d_hidden, d_filter @ model.so3.tap_psi.T


def einsum_backward_trunk(model, state, d_hidden):
    L = model.bandlimit
    d_flat_pre = state.relu.backward(d_hidden, state.relu_mask)
    d_spectra = []
    d_coeffs = np.zeros_like(state.coeffs)
    for l, d_pre in enumerate(_blocks(d_flat_pre, L)):
        d_spectra.append(np.einsum("bomn,bim->oin", d_pre,
                                   state.coeffs[..., l * l:(l + 1) ** 2]))
        d_coeffs[:, :, l * l:(l + 1) ** 2] = np.einsum(
            "bomn,oin->bim", d_pre, model.s2.spectra[l])
    return np.einsum("bim,bjm->ij", state.lifted, d_coeffs), d_spectra


class TestS2Conv:
    def test_zero_signal(self, model):
        out = s2_conv(np.zeros((3, 25)), model.s2)
        assert np.all(out == 0)

    def test_outer_product_structure(self, model):
        rng = np.random.default_rng(0)
        c = SphericalCoeffs(L, rng.normal(size=(3, 25)))
        out = s2_conv(c.data, model.s2)
        l = 2
        expect = np.einsum("im,oin->omn", c.block(l), model.s2.spectra[l])
        assert np.allclose(_blocks(out, L)[l], expect)
        # single input channel gives rank-one degree blocks
        c1 = rng.normal(size=(1, 25))
        bank1 = S2FilterBank(L, tuple(s[:, :1] for s in model.s2.spectra))
        out1 = _blocks(s2_conv(c1, bank1), L)
        for ll in range(1, L + 1):
            ranks = np.linalg.matrix_rank(out1[ll], tol=1e-10)
            assert np.all(ranks <= 1)

    def test_left_equivariance_exact(self, model):
        rng = np.random.default_rng(1)
        for seed in range(10):
            c = SphericalCoeffs(L, rng.normal(size=(3, 25)))
            m = sample_uniform_matrices(seed, 1)[0]
            lhs = s2_conv(wigner.rotate_coeffs(c, m).data, model.s2)
            rhs = left_translate(s2_conv(c.data, model.s2), m)
            err = np.max(np.abs(lhs - rhs))
            assert err < 1e-9

    def test_bandlimit_mismatch(self, model):
        with pytest.raises(ValueError):
            s2_conv(np.zeros((3, 16)), model.s2)


class TestSO3Conv:
    def test_identity_filter(self, model):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, wigner.m_total(L)))
        ident = LocalSO3Filter(L, 0.01, np.eye(3)[None],
                               np.eye(4)[:, :, None])
        out = so3_conv(x, ident)
        assert np.max(np.abs(out - x)) < 1e-12

    def test_zero_input(self, model):
        out = so3_conv(np.zeros((4, wigner.m_total(L))), model.so3)
        assert np.all(out == 0)

    def test_left_equivariance_exact(self, model):
        rng = np.random.default_rng(3)
        for seed in range(10):
            x = rng.normal(size=(4, wigner.m_total(L)))
            m = sample_uniform_matrices(100 + seed, 1)[0]
            lhs = so3_conv(left_translate(x, m), model.so3)
            rhs = left_translate(so3_conv(x, model.so3), m)
            err = np.max(np.abs(lhs - rhs))
            assert err < 1e-9

    def test_taps_stay_within_support(self):
        taps = local_tap_rotations(32, np.pi / 8)
        ang = np.arccos(np.clip(
            (np.trace(taps, axis1=1, axis2=2) - 1) / 2, -1, 1))
        assert np.all(ang <= np.pi / 8 + 1e-12)
        with pytest.raises(ValueError):
            LocalSO3Filter(L, 0.01, taps, np.ones((1, 1, 32)))

    def test_taps_fixed_at_construction(self, model):
        with pytest.raises(ValueError):
            model.so3.taps[0] = np.eye(3)
        with pytest.raises(AttributeError):
            model.so3.taps = np.eye(3)[None]


class TestNonlinearity:
    def test_nonneg_band_limited_signal_unchanged(self):
        # square of a half-bandlimit signal: band-limited at L and
        # non-negative, so ReLU is the identity up to re-analysis error
        rng = np.random.default_rng(4)
        grid = default_nonlin_grid(2)
        half = rng.normal(size=(2, wigner.m_total(L // 2)))
        samples = fiber_table(grid, L // 2).scores(half)
        squared = samples ** 2
        # analysis at L is exact for the square
        coeffs = squared @ ridge_solver(
            wigner.rotations_to_psi(grid.rotations, L)).T
        out, _ = _relu_operator(grid, L).forward(coeffs)
        rel = np.max(np.abs(out - coeffs)) / np.max(np.abs(coeffs))
        assert rel < 1e-6

    def test_zero_input(self):
        x = np.zeros((1, wigner.m_total(L)))
        out, _ = _relu_operator(default_nonlin_grid(2), L).forward(x)
        assert np.max(np.abs(out)) < 1e-12

    def test_freed_grids_never_share_operators(self):
        # a freed grid's rotation array can leave its address to the next
        # grid of the same size; each grid must still get its own operator.
        # Left-rotated copies of a HEALPix-Hopf grid keep its fibers.
        base = grids.so3_healpix(1)
        rng = np.random.default_rng(27)
        x = rng.normal(size=(3, wigner.m_total(2)))
        d_out = rng.normal(size=x.shape)
        for i, turn in enumerate(sample_uniform_matrices(28, 8)):
            grid = grids.SO3Grid("healpix_hopf", turn @ base.rotations,
                                 base.nominal_resolution_deg, level=1)
            ref_out, ref_mask, ref_back = dense_relu(x, d_out, grid, 2)
            op = _relu_operator(grid, 2)
            out, mask = op.forward(x)
            assert np.array_equal(mask, ref_mask), i
            assert_rows_close(out, ref_out)
            assert_rows_close(op.backward(d_out, mask), ref_back)
            del grid, op

    def test_approximate_equivariance(self):
        rng = np.random.default_rng(5)
        relu = _relu_operator(default_nonlin_grid(2), L)
        x = rng.normal(size=(1, wigner.m_total(L)))
        m = sample_uniform_matrices(55, 1)[0]
        lhs, _ = relu.forward(left_translate(x, m))
        rhs = left_translate(relu.forward(x)[0], m)
        num = np.linalg.norm(lhs - rhs)
        den = np.linalg.norm(rhs)
        assert num / den < 0.02



class TestBatchedLayers:
    @pytest.mark.parametrize("layer", ["s2_conv", "so3_conv", "grid_relu"])
    def test_batch_equals_per_sample(self, model, layer):
        # the trunk and head run each layer on a whole batch; every row
        # must be what the per-sample call gives, bit for bit
        m = wigner.m_total(L)
        fn, shape = {
            "s2_conv": (lambda x: s2_conv(x, model.s2), (3, 3, 25)),
            "so3_conv": (lambda x: so3_conv(x, model.so3), (3, 4, m)),
            "grid_relu": (
                lambda x: _relu_operator(default_nonlin_grid(2), L).forward(x)[0],
                (3, 4, m)),
        }[layer]
        x = np.random.default_rng(20).normal(size=shape)
        out = fn(x)
        for b in range(3):
            assert out[b].tobytes() == fn(x[b]).tobytes()

    def test_flat_grid_relu_matches_stacked_products(self):
        # at the training shape (L=6, B=25, C=8, level-2 grid) the ReLU and
        # its backward run on flat (B*C, .) rows; per-sample stacked
        # products with the dense table and its ridge inverse must give
        # the same mask and the same rows up to rounding
        grid = default_nonlin_grid(2)
        op = _relu_operator(grid, 6)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(25, 8, wigner.m_total(6)))
        d_out = rng.normal(size=x.shape)
        ref_out, ref_mask, ref_back = dense_relu(x, d_out, grid, 6)
        out, mask = op.forward(x)
        back = op.backward(d_out, mask)
        assert mask.shape == ref_mask.shape
        assert np.array_equal(mask, ref_mask)
        assert_rows_close(out, ref_out)
        assert_rows_close(back, ref_back)

    def test_nonlinearity_rows_independent_of_leading_shape(self):
        relu = _relu_operator(default_nonlin_grid(2), 6)
        x = np.random.default_rng(22).normal(size=(2, 3, 8, wigner.m_total(6)))
        rows = relu.forward(x)[0].reshape(6, 8, -1)
        stacked, _ = relu.forward(x.reshape(6, 8, -1))
        single = np.stack([relu.forward(xb)[0]
                           for xb in x.reshape(6, 8, -1)])
        for got in (stacked, single):
            err = np.linalg.norm(got - rows, axis=-1)
            assert np.all(err <= 1e-12 * np.linalg.norm(rows, axis=-1))

    def test_signal_size_checked(self, model):
        x = np.zeros((4, wigner.m_total(L) - 1))
        with pytest.raises(ValueError, match="band limit"):
            so3_conv(x, model.so3)
        with pytest.raises(ValueError, match="channel"):
            so3_conv(np.zeros((3, wigner.m_total(L))), model.so3)


class TestGemmLayersMatchEinsum:
    """Each spectral layer runs its per-degree contractions as BLAS GEMMs;
    every row stays within 1e-13 of the einsum it replaced."""

    @pytest.mark.parametrize("bandlimit", [0, 1, 4, 6])
    @pytest.mark.parametrize("lead", [(), (25,), (2, 3), "strided"])
    def test_convolutions(self, bandlimit, lead):
        m = init_toy_model(bandlimit, bandlimit, in_channels=2)
        rng = np.random.default_rng(40 + bandlimit)

        def signal(channels, size):
            if lead != "strided":
                return rng.normal(size=lead + (channels, size))
            x = rng.normal(size=(5, 2 * channels, size + 3))[:, ::2, 1:-2]
            assert not x.flags.c_contiguous
            return x

        c = signal(m.s2.in_channels, (bandlimit + 1) ** 2)
        assert_rows_close(s2_conv(c, m.s2), einsum_s2_conv(c, m.s2), 1e-13)
        x = signal(m.hidden_channels, wigner.m_total(bandlimit))
        assert_rows_close(so3_conv(x, m.so3), einsum_so3_conv(x, m.so3), 1e-13)

    @pytest.mark.parametrize("batch", [1, 25])
    def test_backward(self, batch):
        # the training shapes: L = 6, C_mid = 6, C_h = 8, 32 taps
        m = init_toy_model(4, 6, in_channels=2)
        sphere = grids.healpix_s2(2)
        rng = np.random.default_rng(41 + batch)
        values = rng.normal(size=(batch, 2, sphere.size))
        _, state = forward_trunk(m, "spherical", values, grid=sphere)
        d_psi = rng.normal(size=(batch, wigner.m_total(6)))
        d_hidden, d_w = specconv.backward_head_wigner(m, state, d_psi)
        ref_hidden, ref_w = einsum_backward_head_wigner(m, state, d_psi)
        assert_rows_close(d_hidden, ref_hidden, 1e-13)
        assert_rows_close(d_w, ref_w, 1e-13)
        d_mixer, d_spectra = specconv.backward_trunk(m, state, ref_hidden)
        ref_mixer, ref_spectra = einsum_backward_trunk(m, state, ref_hidden)
        assert_rows_close(d_mixer, ref_mixer, 1e-13)
        # one row per output channel: its gradient over every degree
        assert_rows_close(
            np.concatenate([d.reshape(len(d), -1) for d in d_spectra], axis=1),
            np.concatenate([d.reshape(len(d), -1) for d in ref_spectra], axis=1),
            1e-13)


class TestFiberRelu:
    """HEALPix-Hopf ReLU grids run class by class in fiber coefficients,
    with the ridge inverse of their Gram matrix folded into the tables."""

    def test_class_path_needs_a_block_diagonal_gram(self, monkeypatch):
        # at level 0 (F = 6 fiber angles) and L = 4 the trig rows of
        # classes 2 and 4 are not orthogonal, so T = trig trig^T and the
        # Gram matrix couple them; the check on T rejects the table
        # before inverting
        def no_inverse(gram):
            raise AssertionError("Gram matrix inverted")

        monkeypatch.setattr(fibers, "gram_ridge_inverse", no_inverse)
        with pytest.raises(IllConditionedError, match="couples its"):
            _relu_operator(grids.so3_healpix(0), 4)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("bandlimit", range(1, 7))
    def test_closed_form_gram_matches_dense_table(self, level, bandlimit):
        # the closed-form class blocks of the ReLU build against A^T A of
        # the dense psi table, columns in class order; where the grid
        # certifies, T and A^T A vanish off the class blocks
        grid = grids.so3_healpix(level)
        table = fiber_table(grid, bandlimit)
        a = wigner.rotations_to_psi(grid.rotations, bandlimit)[:, table.order]
        dense = a.T @ a
        t = table.trig @ table.trig.T
        grams = fibers._class_grams(t, table, fibers._class_tables(table))
        scale = np.max(np.abs(dense))
        off = dense.copy()
        for (_, _, cols), gram in zip(fibers._classes(table.bounds), grams):
            assert np.max(np.abs(gram - dense[cols, cols])) <= 1e-13 * scale
            off[cols, cols] = 0.0
        if bandlimit <= self.CERTIFIED_UP_TO[level]:
            classes = (np.arange(len(t)) + 1) // 2
            t_off = np.where(classes[:, None] != classes, t, 0.0)
            assert np.max(np.abs(t_off)) <= 1e-15 * np.max(np.abs(t))
            assert np.max(np.abs(off)) <= 1e-13 * scale

    def test_training_relu_has_no_m_by_m_operand(self):
        op = _relu_operator(default_nonlin_grid(2), 6)
        m = wigner.m_total(6)
        assert isinstance(op, FiberRelu)
        for a in (op.trig, *op.u, *op.g):
            assert a.shape[-1] < m and a.shape[-2] < m, a.shape

    def test_row_chunks_match_one_chunk(self, monkeypatch):
        # one row per chunk, and a last chunk shorter than the others,
        # against all rows in one chunk
        op = _relu_operator(default_nonlin_grid(2), 4)
        assert isinstance(op, FiberRelu)
        rng = np.random.default_rng(26)
        x = rng.normal(size=(7, wigner.m_total(4)))
        d_out = rng.normal(size=x.shape)
        ref_out, ref_mask = op.forward(x)
        ref_back = op.backward(d_out, ref_mask)
        for rows_per_chunk in (1, 3):
            coefficients = len(op.trig) * op.u[0].shape[1]  # J N per row
            monkeypatch.setattr(fibers, "_RELU_CHUNK_BYTES",
                                rows_per_chunk * 8 * coefficients)
            out, mask = op.forward(x)
            assert np.array_equal(mask, ref_mask)
            assert_rows_close(out, ref_out)
            assert_rows_close(op.backward(d_out, mask), ref_back)

    def test_memory_stays_within_the_row_chunks(self):
        # a whole split of 100 views at C_h = 8 runs through the ReLU at
        # once as 800 rows
        op = _relu_operator(default_nonlin_grid(2), 6)
        rng = np.random.default_rng(25)
        x = rng.normal(size=(800, wigner.m_total(6)))
        d_out = rng.normal(size=x.shape)
        tracemalloc.start()
        try:
            out, mask = op.forward(x)
            op.backward(d_out, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * fibers._RELU_CHUNK_BYTES

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("bandlimit", [1, 2, 4, 6])
    def test_matches_dense_table_and_ridge_solver(self, level, bandlimit):
        grid = grids.so3_healpix(level)
        rng = np.random.default_rng(10 * level + bandlimit)
        x = rng.normal(size=(2, 3, wigner.m_total(bandlimit)))
        d_out = rng.normal(size=x.shape)
        # the wide level-0 table (Q = 72 < M) and level 1 at L = 6
        # (kappa(A) > 100) have no certified Gram matrix
        if (level, bandlimit) in ((0, 4), (0, 6), (1, 6)):
            with pytest.raises(IllConditionedError):
                _relu_operator(grid, bandlimit)
            return
        ref_out, ref_mask, ref_back = dense_relu(x, d_out, grid, bandlimit)
        op = _relu_operator(grid, bandlimit)
        assert isinstance(op, FiberRelu)
        out, mask = op.forward(x)
        assert np.array_equal(mask, ref_mask)
        assert_rows_close(out, ref_out)
        assert_rows_close(op.backward(d_out, mask), ref_back)

    @pytest.mark.parametrize("kind", ["random", "moved"])
    def test_random_and_moved_grids_are_rejected(self, kind):
        if kind == "random":
            grid = grids.so3_random(3, grids.so3_healpix_count(1))
        else:
            mats = grids.so3_healpix(1).rotations.copy()
            c, s = np.cos(1e-6), np.sin(1e-6)
            mats[300] = mats[300] @ np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
            grid = grids.SO3Grid("healpix_hopf", mats, 30.0, level=1)
        with pytest.raises(IllConditionedError, match="fiber structure"):
            _relu_operator(grid, 4)

    def test_training_grid_holds_no_dense_table(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("dense psi table built")

        monkeypatch.setattr(fibers, "nonlin_operator_cache", LRUCache(8))
        monkeypatch.setattr(grids.SO3Grid, "with_psi_table", no_table)
        model6 = init_toy_model(2, 6, in_channels=2)
        sphere = grids.healpix_s2(2)
        values = np.random.default_rng(24).normal(size=(3, 2, sphere.size))
        hidden, state = forward_trunk(model6, "spherical", values, grid=sphere)
        specconv.backward_trunk(model6, state, np.ones_like(hidden))
        grid = default_nonlin_grid(2)
        assert grid.psi_table is None
        op = _relu_operator(grid, 6)
        assert state.relu is op and isinstance(op, FiberRelu)
        assert fibers.nonlin_operator_cache.nbytes < 8e6  # dense A and P: 33.6 MB

    # the largest band limit at which each nonlin level's grid certifies
    # (Q = 72, 576, 4,608, 36,864), over L = 0..8
    CERTIFIED_UP_TO = {0: 2, 1: 5, 2: 8, 3: 8}

    @pytest.mark.parametrize("bandlimit", range(9))
    def test_model_construction_rejects_uncertifiable_grids(self, monkeypatch,
                                                            bandlimit):
        monkeypatch.setattr(fibers, "nonlin_operator_cache", LRUCache(8))
        smallest = min(level for level, top in self.CERTIFIED_UP_TO.items()
                       if bandlimit <= top)
        for level, top in self.CERTIFIED_UP_TO.items():
            if bandlimit <= top:
                model = init_toy_model(0, bandlimit, 1, 1, 1, 1,
                                       nonlin_level=level)
                op = specconv.nonlin_operator(model.nonlin_level, bandlimit)
                assert isinstance(op, FiberRelu)
            else:
                with pytest.raises(IllConditionedError,
                                   match=f"nonlin_level {smallest} is the smallest"):
                    init_toy_model(0, bandlimit, 1, 1, 1, 1, nonlin_level=level)


# Trains on spherical L = 6 inputs (4 steps of B = 25 an epoch) and
# decodes 40 rows at level 3, then prints the minor page faults per
# training step of 2 more epochs and of one more decode.
_FAULT_CHILD = """
import resource
import numpy as np
from so3harmonics import grids, harness, wigner
from so3harmonics.estimation import decode_poses

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

cfg = harness.RunConfig(bandlimit=6, epochs=1, learning_rate=0.003)
ds = harness.gen_dataset(cfg)
steps = len(ds.train_idx) // cfg.batch_size
preds = np.random.default_rng(0).normal(size=(40, wigner.m_total(6)))
grid = grids.so3_healpix(3)
for _ in range(2):
    harness.train(cfg, ds)
    decode_poses(preds, grid)
start = faults()
for _ in range(2):
    harness.train(cfg, ds)
per_step = (faults() - start) / (2 * steps)
start = faults()
decode_poses(preds, grid)
print(per_step, faults() - start)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the mmap threshold rule is glibc's")
def test_hot_path_takes_no_page_faults():
    # a fresh process: earlier tests leave this one's malloc thresholds
    # raised.  Without fibers._raise_mmap_threshold the ReLU's
    # coefficient buffer and the decode's score chunks are mapped afresh
    # on every call: 300-500 faults a step and 4,000-5,600 a decode.
    src = os.path.dirname(os.path.dirname(specconv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FAULT_CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    per_step, decode = map(float, proc.stdout.split())
    assert per_step <= 10 and decode <= 10, (per_step, decode)


class TestForward:
    def test_zero_input_zero_output(self, model):
        grid = grids.healpix_s2(2)
        sig = synthesize(SphericalCoeffs(L, np.zeros((2, 25))), grid)
        psi = predict(model, "spherical", sig.values[None], grid=grid)
        assert np.max(np.abs(psi)) < 1e-12

    def test_output_length_455_at_L6(self):
        model6 = init_toy_model(1, 6, in_channels=1, mid_channels=2,
                                hidden_channels=2, tap_count=6)
        grid = grids.healpix_s2(2)
        rng = np.random.default_rng(6)
        sig = synthesize(SphericalCoeffs(6, rng.normal(size=(1, 49))), grid)
        psi = predict(model6, "spherical", sig.values[None], grid=grid)
        assert psi.shape == (1, 455)

    def test_eval_deterministic(self, model):
        grid = grids.healpix_s2(2)
        rng = np.random.default_rng(7)
        sig = synthesize(SphericalCoeffs(L, rng.normal(size=(2, 25))), grid)
        a = predict(model, "spherical", sig.values[None], grid=grid,
                    mode="eval", seed=1)
        b = predict(model, "spherical", sig.values[None], grid=grid,
                    mode="eval", seed=2)
        assert np.array_equal(a, b)

    def test_complex_input_is_rejected(self, model):
        grid = grids.healpix_s2(2)
        values = np.ones((1, 2, grid.size)) + 1j
        with pytest.raises(ValueError, match="real"):
            forward_trunk(model, "spherical", values, grid=grid)

    def test_finite_output_for_finite_input(self, model):
        grid = grids.healpix_s2(2)
        rng = np.random.default_rng(8)
        sig = synthesize(SphericalCoeffs(L, 100.0 * rng.normal(size=(2, 25))), grid)
        psi = predict(model, "spherical", sig.values[None], grid=grid)
        assert np.all(np.isfinite(psi))

    def test_image_path_runs(self, model):
        cfg = MapperConfig(grids.healpix_s2(2, "hemisphere"),
                           dropout_fraction=0.5)
        values = np.random.default_rng(9).normal(size=(1, 2, 16, 16))
        psi_eval = predict(model, "image", values, cfg=cfg, mode="eval")
        psi_train = predict(model, "image", values, cfg=cfg, mode="train",
                            seed=3)
        assert psi_eval.shape == (1, wigner.m_total(L))
        assert not np.array_equal(psi_eval, psi_train)

    def test_ill_conditioned_dropout_draw_is_used_as_drawn(self):
        # the kept points of this train-mode draw (step 229 of seed 37's
        # image benchmark run) give a design with condition > 1e8, which
        # no ridge analysis inverts; the adjoint lift uses them as drawn
        model6 = init_toy_model(0, 6, in_channels=3)
        cfg = MapperConfig(grids.healpix_s2(2, "hemisphere"), 0.5)
        values = np.random.default_rng(25).normal(size=(2, 3, 32, 32))
        seed = 37 * 100003 + 229
        points, weights = mapper.lift(cfg, 32, 32, "train", seed)
        design = design_matrix(points, 6)
        with pytest.raises(IllConditionedError):
            ridge_solver(design)
        adjoint = 2.0 * np.pi / points.size * design.T @ weights
        hidden, state = forward_trunk(model6, "image", values, cfg=cfg,
                                      mode="train", seed=seed)
        assert np.allclose(state.lifted, values.reshape(2, 3, -1) @ adjoint.T,
                           rtol=1e-12, atol=1e-15)
        assert np.all(np.isfinite(hidden))

    def test_image_operator_norm_at_most_one(self):
        # at the CLI defaults, in eval mode and over 200 dropout draws
        cfg = RunConfig(dataset_kind="image")
        mcfg = MapperConfig(grids.healpix_s2(cfg.mapper_level, "hemisphere"),
                            cfg.dropout_fraction, cfg.edge_decay,
                            cfg.sample_count)
        shape = (cfg.image_size, cfg.image_size)
        draws = [("eval", 0)] + [("train", seed) for seed in range(200)]
        norms = [np.linalg.norm(specconv._image_operator(
            mcfg, shape, mode, seed, cfg.bandlimit), 2) for mode, seed in draws]
        assert max(norms) <= 1.0

    @pytest.mark.parametrize("kind", ["spherical", "image"])
    def test_one_sample_equals_batch_row(self, model, kind):
        # one sample is a batch of one; an unbatched array is rejected
        grid = grids.healpix_s2(2)
        cfg = MapperConfig(grids.healpix_s2(2, "hemisphere"))
        shape = (3, 2, grid.size) if kind == "spherical" else (3, 2, 16, 16)
        batch = np.random.default_rng(14).normal(size=shape)
        one, _ = forward_trunk(model, kind, batch[:1], grid=grid, cfg=cfg,
                               mode="train", seed=4)
        rows, _ = forward_trunk(model, kind, batch, grid=grid, cfg=cfg,
                                mode="train", seed=4)
        assert one.shape == rows[:1].shape
        assert np.allclose(one[0], rows[0], rtol=1e-12, atol=1e-14)
        with pytest.raises(ValueError, match=r"\(B, C_in, "):
            forward_trunk(model, kind, batch[0], grid=grid, cfg=cfg)

    def test_end_to_end_z_spin_equivariance(self, model):
        # full-sphere spherical path: spinning the input about z rotates
        # the output harmonic vector blockwise
        grid = grids.healpix_s2(2)
        rng = np.random.default_rng(10)
        base = SphericalCoeffs(L, rng.normal(size=(2, 25)))
        angle = 0.9
        rz = np.array([[np.cos(angle), -np.sin(angle), 0],
                       [np.sin(angle), np.cos(angle), 0], [0, 0, 1]])
        values = np.stack([synthesize(c, grid).values
                           for c in (base, wigner.rotate_coeffs(base, rz))])
        psi0, psi1 = predict(model, "spherical", values, grid=grid)
        e = matrix_to_euler(RotationMatrix(rz))
        rotated = np.concatenate(
            [(wigner.wigner_D_real(l, e).entries @ block).ravel()
             for l, block in enumerate(_blocks(psi0, L))])
        rel = np.linalg.norm(psi1 - rotated) / np.linalg.norm(rotated)
        assert rel < 0.05


class TestBackward:
    def test_zero_loss_zero_gradients(self, model):
        grid = grids.healpix_s2(2)
        rng = np.random.default_rng(11)
        sig = synthesize(SphericalCoeffs(L, rng.normal(size=(2, 25))), grid)
        values = sig.values[None]
        target = predict(model, "spherical", values, grid=grid)
        value, g, _ = batch_loss_and_grads(model, "spherical", values, target,
                                           LossConfig(L), grid=grid)
        assert value == pytest.approx(0.0, abs=1e-18)
        assert np.max(np.abs(g["mixer"])) < 1e-12
        assert np.max(np.abs(g["so3_weights"])) < 1e-12

    @pytest.mark.parametrize("batch", [1, 3])
    def test_gradcheck_50_random_coordinates(self, model, batch):
        # B = 3 also checks loss_and_grad's batch-mean reduction, which
        # harness.train's steps rely on
        grid = grids.healpix_s2(2)
        rng = np.random.default_rng(12)
        sig = synthesize(SphericalCoeffs(L, rng.normal(size=(2 * batch, 25))),
                         grid)
        values = sig.values.reshape(batch, 2, -1)
        gt = wigner.rotations_to_psi(sample_uniform_matrices(12, batch), L)
        cfg = LossConfig(L)

        def loss_and_mask():
            value, _, mask = batch_loss_and_grads(model, "spherical", values,
                                                  gt, cfg, grid=grid)
            return value, mask

        _, grads, _ = batch_loss_and_grads(model, "spherical", values, gt, cfg,
                                           grid=grid)
        checks = [(model.mixer, grads["mixer"]),
                  (model.s2.spectra[2], grads["s2_spectra"][2]),
                  (model.so3.weights, grads["so3_weights"])]
        worst, _ = kink_safe_gradcheck(loss_and_mask, checks, rng, 50)
        assert worst < 1e-4

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_image_path_gradcheck(self, model, mode):
        cfg = MapperConfig(grids.healpix_s2(2, "hemisphere"))
        values = np.random.default_rng(15).normal(size=(1, 2, 16, 16))
        gt = wigner.rotations_to_psi(sample_uniform_matrices(15, 1), L)
        loss_cfg = LossConfig(L)

        def loss_and_mask():
            value, _, mask = batch_loss_and_grads(model, "image", values, gt,
                                                  loss_cfg, cfg=cfg, mode=mode,
                                                  seed=5)
            return value, mask

        _, grads, _ = batch_loss_and_grads(model, "image", values, gt, loss_cfg,
                                           cfg=cfg, mode=mode, seed=5)
        checks = [(model.mixer, grads["mixer"]),
                  (model.s2.spectra[3], grads["s2_spectra"][3]),
                  (model.so3.weights, grads["so3_weights"])]
        worst, _ = kink_safe_gradcheck(loss_and_mask, checks,
                                       np.random.default_rng(16), 30)
        assert worst < 1e-4

    def test_descent_reduces_loss(self, model):
        grid = grids.healpix_s2(2)
        rng = np.random.default_rng(13)
        sig = synthesize(SphericalCoeffs(L, rng.normal(size=(2, 25))), grid)
        gt = wigner.rotations_to_psi(sample_uniform_matrices(13, 1), L)
        cfg = LossConfig(L)
        m = ToyModel(L, model.mixer.copy(),
                     S2FilterBank(L, tuple(s.copy() for s in model.s2.spectra)),
                     LocalSO3Filter(L, model.so3.support_angle,
                                    model.so3.taps.copy(),
                                    model.so3.weights.copy()),
                     model.nonlin_level)
        losses = []
        for _ in range(200):
            value, g, _ = batch_loss_and_grads(m, "spherical", sig.values[None],
                                               gt, cfg, grid=grid)
            losses.append(value)
            m.mixer -= 2e-3 * g["mixer"]
            for s, ds in zip(m.s2.spectra, g["s2_spectra"]):
                s -= 2e-3 * ds
            m.so3.weights -= 2e-3 * g["so3_weights"]
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("kind", ["distribution_ce", "mse_plus_ce"])
    def test_ce_loss_without_grid_is_a_value_error(self, model, kind):
        grid = grids.healpix_s2(2)
        sig = synthesize(SphericalCoeffs(L, np.ones((2, 25))), grid)
        values = sig.values[None]
        target = predict(model, "spherical", values, grid=grid)
        with pytest.raises(ValueError, match="grid"):
            batch_loss_and_grads(model, "spherical", values, target,
                                 LossConfig(L, kind), grid=grid)


class TestCheckpoint:
    def test_round_trip(self, model, tmp_path):
        from so3harmonics.harness import (RunConfig, load_checkpoint,
                                          save_checkpoint)
        cfg = RunConfig(bandlimit=L, template_channels=2, mid_channels=3,
                        hidden_channels=4, tap_count=12)
        path = str(tmp_path / "ckpt.bin")
        save_checkpoint(path, model, cfg)
        back, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert np.array_equal(back.mixer, model.mixer)
        assert np.array_equal(back.so3.weights, model.so3.weights)
        for a, b in zip(back.s2.spectra, model.s2.spectra):
            assert np.array_equal(a, b)
