"""Corrupt-input handling of the binary container reader."""

import struct

import numpy as np
import pytest

from so3harmonics.binio import IncompatibleFileError, read_blob, write_blob


def small_blob(path):
    arrays = {"a": np.arange(6, dtype=float).reshape(2, 3),
              "b": np.array([1, 2, 3], dtype=np.int32),
              "e": np.zeros((0, 2))}
    write_blob(str(path), "dataset", {"bandlimit": 2, "note": "x"}, arrays)
    return arrays


def test_round_trip(tmp_path):
    path = tmp_path / "ok.bin"
    arrays = small_blob(path)
    kind, meta, back = read_blob(str(path), expect_kind="dataset")
    assert (kind, meta) == ("dataset", {"bandlimit": 2, "note": "x"})
    for name, arr in arrays.items():
        assert np.array_equal(back[name], arr)


def test_zero_dim_array_keeps_its_shape(tmp_path):
    path = tmp_path / "scalar.bin"
    write_blob(str(path), "dataset", {}, {"s": np.float64(0.5),
                                          "v": np.array([0.5])})
    _, _, back = read_blob(str(path))
    assert back["s"].shape == () and back["s"] == 0.5
    assert back["v"].shape == (1,)


def test_truncation_at_every_offset_raises_typed_error(tmp_path):
    full = tmp_path / "full.bin"
    small_blob(full)
    data = full.read_bytes()
    cut = tmp_path / "cut.bin"
    for offset in range(len(data)):
        cut.write_bytes(data[:offset])
        with pytest.raises(IncompatibleFileError):
            read_blob(str(cut))


def test_shape_larger_than_file_raises_typed_error(tmp_path):
    path = tmp_path / "big.bin"
    write_blob(str(path), "dataset", {}, {"a": np.zeros(4)})
    data = bytearray(path.read_bytes())
    # the last array record ends with its one-entry shape and 32 data bytes
    shape_at = len(data) - 32 - 8
    assert struct.unpack_from("<Q", data, shape_at) == (4,)
    struct.pack_into("<Q", data, shape_at, 10 ** 15)
    path.write_bytes(bytes(data))
    with pytest.raises(IncompatibleFileError, match="needs"):
        read_blob(str(path))


# A well-formed file that lacks a field each loader needs.

def _drop_field(path, field, from_arrays):
    kind, meta, arrays = read_blob(str(path))
    del (arrays if from_arrays else meta)[field]
    write_blob(str(path), kind, meta, arrays)


@pytest.fixture(scope="module")
def trained():
    from so3harmonics import harness
    cfg = harness.RunConfig(bandlimit=2, n_train_views=4, n_test_views=1,
                            epochs=1, tap_count=4)
    ds = harness.gen_dataset(cfg)
    return cfg, ds, harness.train(cfg, ds)[0]


def test_load_model_missing_array(tmp_path, trained):
    from so3harmonics.specconv import load_model, save_model
    path = tmp_path / "m.bin"
    save_model(str(path), trained[2])
    _drop_field(path, "s2_spectra_0", from_arrays=True)
    with pytest.raises(IncompatibleFileError, match="s2_spectra_0"):
        load_model(str(path))


def test_load_checkpoint_missing_header_key(tmp_path, trained):
    from so3harmonics.harness import load_checkpoint, save_checkpoint
    cfg, _, model = trained
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), model, cfg)
    _drop_field(path, "config", from_arrays=False)
    with pytest.raises(IncompatibleFileError, match="config"):
        load_checkpoint(str(path))


def test_load_dataset_missing_header_key(tmp_path, trained):
    from so3harmonics.harness import load_dataset, save_dataset
    path = tmp_path / "d.bin"
    save_dataset(str(path), trained[1])
    _drop_field(path, "template_bandlimit", from_arrays=False)
    with pytest.raises(IncompatibleFileError, match="template_bandlimit"):
        load_dataset(str(path))


def test_load_grid_missing_header_key(tmp_path):
    from so3harmonics.grids import load_grid, save_grid, so3_healpix
    path = tmp_path / "g.bin"
    save_grid(str(path), so3_healpix(0))
    _drop_field(path, "grid_kind", from_arrays=False)
    with pytest.raises(IncompatibleFileError, match="grid_kind"):
        load_grid(str(path))
