"""Corrupt-input handling of the binary container reader."""

import dataclasses
import os
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
    from so3harmonics.harness import load_checkpoint, save_checkpoint
    cfg, _, model = trained
    path = tmp_path / "m.bin"
    save_checkpoint(str(path), model, cfg)
    _drop_field(path, "s2_spectra_0", from_arrays=True)
    with pytest.raises(IncompatibleFileError, match="s2_spectra_0"):
        load_checkpoint(str(path))


def test_load_checkpoint_missing_header_key(tmp_path, trained):
    from so3harmonics.harness import load_checkpoint, save_checkpoint
    cfg, _, model = trained
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), model, cfg)
    _drop_field(path, "config", from_arrays=False)
    with pytest.raises(IncompatibleFileError, match="config"):
        load_checkpoint(str(path))


# A well-formed container holding a checkpoint with one field tampered.

def _set(field, value, config_too=False):
    def edit(meta, arrays):
        meta[field] = value
        if config_too:
            meta["config"][field] = value
    return edit


def _edit_config(edit_config):
    def edit(meta, arrays):
        meta["config"] = edit_config(meta["config"])
    return edit


def _edit_array(field, edit_array):
    def edit(meta, arrays):
        arrays[field] = edit_array(arrays[field])
    return edit


def _quarter_turns(taps):
    return np.tile(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]]), (len(taps), 1, 1))


TAMPERED_CHECKPOINTS = {
    "unknown_config_key": _edit_config(lambda c: {**c, "bogus": 1}),
    "config_not_a_mapping": _edit_config(lambda c: [c]),
    "string_bandlimit": _set("bandlimit", "2", config_too=True),
    "string_nonlin_level": _set("nonlin_level", "2", config_too=True),
    "negative_nonlin_level": _set("nonlin_level", -1, config_too=True),
    "nonlin_level_7": _set("nonlin_level", 7, config_too=True),
    "header_bandlimit_string": _set("bandlimit", "2"),
    "header_bandlimit_differs": _set("bandlimit", 3),
    "header_nonlin_level_differs": _set("nonlin_level", 1),
    "header_support_angle_differs": _set("support_angle", 0.5),
    "header_head_differs": _set("head", "rotmat"),
    "header_head_missing": lambda meta, arrays: meta.pop("head"),
    "s2_spectra_1_shape": _edit_array("s2_spectra_1", lambda a: a[..., :2]),
    "so3_weights_shape": _edit_array("so3_weights", lambda a: a[0]),
    "taps_outside_support": _edit_array("so3_taps", _quarter_turns),
    "mixer_1d": _edit_array("mixer", np.ravel),
    "rotmat_head_w_shape": _edit_array("head_w", lambda a: a[:, :3]),
    "rotmat_mixer_1d": _edit_array("mixer", np.ravel),
    "rotmat_header_head_differs": _set("head", "euler"),
    "rotmat_nonlin_level_7": _set("nonlin_level", 7, config_too=True),
}


@pytest.mark.parametrize("case", TAMPERED_CHECKPOINTS)
def test_load_checkpoint_tampered_field(tmp_path, trained, case):
    from so3harmonics.harness import (init_spatial_head_model,
                                      load_checkpoint, save_checkpoint)
    cfg, _, model = trained
    if case.startswith("rotmat_"):
        cfg = dataclasses.replace(cfg, head="rotmat")
        model = init_spatial_head_model(1, cfg, cfg.template_channels)
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), model, cfg)
    kind, meta, arrays = read_blob(str(path))
    TAMPERED_CHECKPOINTS[case](meta, arrays)
    write_blob(str(path), kind, meta, arrays)
    with pytest.raises(IncompatibleFileError) as err:
        load_checkpoint(str(path))
    assert str(path) in str(err.value)


def test_load_checkpoint_uncertifiable_nonlin_level(tmp_path):
    # level 0 (72 rotations) cannot certify the grid ReLU at L = 4
    from so3harmonics.harness import RunConfig, load_checkpoint, save_checkpoint
    from so3harmonics.specconv import init_toy_model
    cfg = RunConfig(bandlimit=4, tap_count=4)
    model = init_toy_model(0, 4, cfg.template_channels, tap_count=4)
    path = tmp_path / "c.bin"
    save_checkpoint(str(path), model, cfg)
    kind, meta, arrays = read_blob(str(path))
    _set("nonlin_level", 0, config_too=True)(meta, arrays)
    write_blob(str(path), kind, meta, arrays)
    with pytest.raises(IncompatibleFileError,
                       match="nonlin_level 1 is the smallest") as err:
        load_checkpoint(str(path))
    assert str(path) in str(err.value)


def test_load_dataset_missing_header_key(tmp_path, trained):
    from so3harmonics.harness import load_dataset, save_dataset
    path = tmp_path / "d.bin"
    save_dataset(str(path), trained[1])
    _drop_field(path, "template_bandlimit", from_arrays=False)
    with pytest.raises(IncompatibleFileError, match="template_bandlimit"):
        load_dataset(str(path))


# A well-formed container holding a spherical dataset with one field
# tampered: the reader must reject it, not ``train`` or ``evaluate`` later.

def _drop_point_set(meta, arrays):
    del arrays["grid_theta"], arrays["grid_phi"]


TAMPERED_DATASETS = {
    "unknown_input_kind": _set("input_kind", "video"),
    "image_kind_on_sphere_inputs": _set("input_kind", "image"),
    "string_template_bandlimit": _set("template_bandlimit", "4"),
    "template_bandlimit_differs": _set("template_bandlimit", 3),
    "train_idx_past_end": _edit_array("train_idx", lambda a: a + 100),
    "negative_test_idx": _edit_array("test_idx", lambda a: a - 100),
    "float_train_idx": _edit_array("train_idx", lambda a: a.astype(float)),
    "gt_not_3x3": _edit_array("gt", lambda a: a[:, :2]),
    "inputs_fewer_than_gt": _edit_array("inputs", lambda a: a[:2]),
    "inputs_nan": _edit_array("inputs", lambda a: np.where(a > 0, np.nan, a)),
    "no_point_set": _drop_point_set,
    "point_set_short": _edit_array("grid_phi", lambda a: a[:-1]),
}


@pytest.mark.parametrize("case", TAMPERED_DATASETS)
def test_load_dataset_tampered_field(tmp_path, trained, case):
    from so3harmonics.harness import load_dataset, save_dataset
    path = tmp_path / "d.bin"
    save_dataset(str(path), trained[1])
    kind, meta, arrays = read_blob(str(path))
    TAMPERED_DATASETS[case](meta, arrays)
    write_blob(str(path), kind, meta, arrays)
    with pytest.raises(IncompatibleFileError) as err:
        load_dataset(str(path))
    assert str(path) in str(err.value)


@pytest.mark.parametrize("kind", ["spherical", "image"])
def test_load_dataset_reads_files_of_layout_1(kind):
    # files save_dataset wrote at layout version 1 for
    # RunConfig(bandlimit=2, dataset_kind=kind, template_bandlimit=2,
    #           n_train_views=4, n_test_views=1, signal_grid_level=1,
    #           image_size=8)
    from so3harmonics import harness
    path = os.path.join(os.path.dirname(__file__), "data", f"dataset_v1_{kind}.bin")
    ds = harness.load_dataset(path)
    _, meta, arrays = read_blob(path)
    assert ds.kind == kind and ds.meta == meta
    for name in ("inputs", "gt", "train_idx", "test_idx"):
        assert np.array_equal(getattr(ds, name), arrays[name]), name
    assert np.array_equal(ds.template.data, arrays["template"])
    if kind == "spherical":
        assert np.array_equal(ds.grid.theta, arrays["grid_theta"])
        assert np.array_equal(ds.grid.phi, arrays["grid_phi"])
    else:
        assert ds.grid is None
    cfg = harness.RunConfig(bandlimit=2, dataset_kind=kind, template_bandlimit=2,
                            n_train_views=4, n_test_views=1,
                            signal_grid_level=1, image_size=8)
    fresh = harness.gen_dataset(cfg)
    assert np.allclose(ds.inputs, fresh.inputs, rtol=0, atol=1e-12)
    assert np.array_equal(ds.gt, fresh.gt)


def test_load_grid_missing_header_key(tmp_path):
    from so3harmonics.grids import load_grid, save_grid, so3_healpix
    path = tmp_path / "g.bin"
    save_grid(str(path), so3_healpix(0))
    _drop_field(path, "grid_kind", from_arrays=False)
    with pytest.raises(IncompatibleFileError, match="grid_kind"):
        load_grid(str(path))


# A well-formed container holding a grid with one field tampered.

TAMPERED_GRIDS = {
    "rotations_1d": _edit_array("rotations", lambda a: np.zeros(5)),
    "rotations_not_3x3": _edit_array("rotations", lambda a: a[:, :, :2]),
    "rotations_nan": _edit_array(
        "rotations", lambda a: np.where(np.arange(9).reshape(3, 3) == 4, np.nan, a)),
    "level_string": _set("level", "x"),
    "level_float": _set("level", 0.5),
    "unknown_kind": _set("grid_kind", "hopf"),
    "psi_table_shape": _edit_array("psi_table", lambda a: a[:, :-1]),
    "psi_bandlimit_differs": _set("psi_bandlimit", 1),
    "psi_bandlimit_string": _set("psi_bandlimit", "2"),
}


@pytest.mark.parametrize("case", TAMPERED_GRIDS)
def test_load_grid_tampered_field(tmp_path, case):
    from so3harmonics.grids import load_grid, save_grid, so3_healpix
    path = tmp_path / "g.bin"
    save_grid(str(path), so3_healpix(0).with_psi_table(2))
    kind, meta, arrays = read_blob(str(path))
    TAMPERED_GRIDS[case](meta, arrays)
    write_blob(str(path), kind, meta, arrays)
    with pytest.raises(IncompatibleFileError) as err:
        load_grid(str(path))
    assert str(path) in str(err.value)


def test_load_grid_keeps_a_grid_without_level_or_table(tmp_path):
    # the checks above accept what save_grid writes for a random grid
    from so3harmonics.grids import load_grid, save_grid, so3_random
    grid = so3_random(3, 10)
    path = tmp_path / "g.bin"
    save_grid(str(path), grid)
    back = load_grid(str(path))
    assert (back.kind, back.level, back.psi_table, back.psi_bandlimit) == (
        "random", None, None, None)
    assert np.array_equal(back.rotations, grid.rotations)
