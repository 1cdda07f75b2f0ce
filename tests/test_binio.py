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
