"""The shared LRU cache and the operators cached through it."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from so3harmonics import fibers, grids, harmonics, harness, specconv
from so3harmonics._cache import LRUCache, digest
from so3harmonics.mapper import MapperConfig
from so3harmonics.specconv import forward_trunk, init_toy_model


def test_lru_evicts_least_recently_used():
    cache = LRUCache(3)
    built = []

    def get(key):
        def build():
            built.append(key)
            return np.zeros(key + 1)
        return cache.get(key, build)

    for key in range(3):
        get(key)
    get(0)                     # 0 is now the most recently used
    get(3)                     # capacity + 1 keys: evicts 1, the oldest
    assert len(cache) == 3
    assert cache.nbytes == 8 * (1 + 3 + 4)
    get(0)
    assert (cache.hits, cache.misses) == (2, 4)
    get(1)
    assert built == [0, 1, 2, 3, 1]
    assert (cache.hits, cache.misses) == (2, 5)


def test_nbytes_counts_lists_tuples_and_fields():
    cache = LRUCache(4)
    cache.get("list", lambda: [np.zeros(3), [np.zeros(2)]])
    cache.get("tuple", lambda: (np.zeros(4), "text"))
    assert cache.nbytes == 8 * (3 + 2 + 4)


def test_relu_operator_bytes_are_its_arrays(monkeypatch):
    # the level-2, L = 6 training ReLU: its per-class tables and the
    # fiber table it shares are counted
    monkeypatch.setattr(specconv, "nonlin_operator_cache", LRUCache(8))
    op = specconv.nonlin_operator(2, 6)
    table = op.table
    arrays = [table.base_psi, table.order, table.order_inverse, table.trig, *op.g]
    assert specconv.nonlin_operator_cache.nbytes == sum(a.nbytes for a in arrays)
    assert specconv.nonlin_operator_cache.nbytes == 1_407_536


def test_rejected_model_build_keeps_nothing(monkeypatch):
    # the level-2 grid's 24 fiber angles do not resolve L = 13: the model
    # build fails before any fiber table or operator is made
    monkeypatch.setattr(specconv, "nonlin_operator_cache", LRUCache(8))
    monkeypatch.setattr(fibers, "fiber_table_cache", LRUCache(6))
    with pytest.raises(harmonics.IllConditionedError,
                       match="nonlin_level 3 is the smallest"):
        init_toy_model(0, 13, 3, nonlin_level=2)
    assert len(specconv.nonlin_operator_cache) == 0
    assert len(fibers.fiber_table_cache) == 0


def test_digest_covers_dtype_and_shape():
    a = np.arange(6, dtype=np.float64)
    assert digest(a) == digest(a.copy())
    assert digest(a) != digest(a.reshape(2, 3))
    assert digest(a) != digest(a.view(np.int64))


def tobytes_digest(*arrays):
    """The copying formula digest must keep matching byte for byte."""
    h = hashlib.blake2b(digest_size=16)
    for a in map(np.asarray, arrays):
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())
    return h.digest()


def test_digest_equals_the_tobytes_formula_on_every_layout():
    base = np.random.default_rng(3).normal(size=(6, 8))
    layouts = [base, np.asfortranarray(base), base.T, base[1::2, ::3],
               np.array(2.5), np.zeros((0, 4)), np.arange(5, dtype=np.int32)]
    for a in layouts:
        assert digest(a) == tobytes_digest(a)
    assert digest(*layouts) == tobytes_digest(*layouts)


def test_digest_hashes_without_copying():
    big = np.ones(4 * 1024 * 1024)              # 32 MB
    tracemalloc.start()
    try:
        digest(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_second_trunk_pass_reuses_the_analysis(monkeypatch):
    calls = []
    solver = harmonics.ridge_solver

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(harmonics, "ridge_solver", counting)
    rng = np.random.default_rng(11)
    points = harmonics.PointSet(np.arccos(rng.uniform(-1, 1, 60)),
                                rng.uniform(0, 2 * np.pi, 60))
    model = init_toy_model(0, 3, in_channels=2, mid_channels=2,
                           hidden_channels=2, tap_count=4)
    values = rng.normal(size=(1, 2, 60))
    first, _ = forward_trunk(model, "spherical", values, grid=points)
    after_first = len(calls)
    assert after_first >= 1
    again, _ = forward_trunk(model, "spherical", values,
                             grid=harmonics.PointSet(points.theta.copy(),
                                                     points.phi.copy()))
    assert len(calls) == after_first
    assert np.array_equal(first, again)


def test_healpix_inference_grid_ignores_count_and_seed():
    default = harness.inference_grid(3, 1)
    assert harness.inference_grid(3, 1, count=36864, seed=99) is default


def test_only_non_healpix_inference_grids_hold_a_dense_table():
    # a HEALPix-Hopf grid decodes through its cached fiber table
    healpix = harness.inference_grid(2, 4)
    assert healpix.psi_table is None
    assert fibers.fiber_table(healpix, 4) is not None
    random = harness.inference_grid(2, 4, kind="random", count=50)
    assert random.psi_table.shape == (50, 165)



def test_ce_training_takes_its_table_from_the_inference_cache(monkeypatch):
    cache = LRUCache(6)
    monkeypatch.setattr(harness, "inference_grid_cache", cache)
    cfg = harness.RunConfig(bandlimit=2, template_bandlimit=2,
                            n_train_views=6, n_test_views=1, epochs=1,
                            batch_size=6, mid_channels=2, hidden_channels=2,
                            tap_count=4, loss_kind="mse_plus_ce",
                            ce_grid_level=1, learning_rate=0.001)
    ds = harness.gen_dataset(cfg)
    harness.train(cfg, ds)
    harness.train(cfg, ds)
    assert (cache.misses, cache.hits) == (1, 1)

def test_image_trunk_rejects_unknown_mode():
    model = init_toy_model(0, 2, in_channels=1, mid_channels=2,
                           hidden_channels=2, tap_count=4)
    cfg = MapperConfig(grids.healpix_s2(1, "hemisphere"))
    with pytest.raises(ValueError, match="mode"):
        forward_trunk(model, "image", np.ones((1, 1, 8, 8)), cfg=cfg,
                      mode="bogus")
