"""Deterministic binary container for grids, checkpoints, and datasets.

Layout: magic, format version, a canonical-JSON metadata header (sorted
keys, no timestamps, so identical inputs produce byte-identical files),
then named little-endian arrays.  A kind tag in the header keeps the
different file families apart.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

MAGIC = b"SO3HBIN\x00"
FORMAT_VERSION = 1


class IncompatibleFileError(ValueError):
    """File magic, version, or kind does not match what the reader expects."""


class _Fields(dict):
    """Header or array map whose missing keys raise the typed error."""

    def __init__(self, path: str, items):
        super().__init__(items)
        self.path = path

    def __missing__(self, key):
        raise IncompatibleFileError(f"{self.path}: missing field {key!r}")


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def write_blob(path: str, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    header = dict(meta)
    header["kind"] = kind
    header_bytes = _canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], order="C")  # keeps 0-d arrays 0-d
            dtype = arr.dtype.newbyteorder("<")
            name_b = name.encode()
            dtype_b = dtype.str.encode()
            fh.write(struct.pack("<I", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", len(dtype_b)))
            fh.write(dtype_b)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype(dtype, copy=False).tobytes())


def read_blob(path: str, expect_kind: str | None = None):
    """Returns (kind, meta, arrays).

    Every length, shape and count in the file is checked against the
    bytes still unread, so a truncated or corrupt file raises
    IncompatibleFileError instead of a parser error.  Looking up a field
    the file lacks in ``meta`` or ``arrays`` raises it too.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def take(n: int, what: str) -> bytes:
            nonlocal left
            if n > left:
                raise IncompatibleFileError(
                    f"{path}: {what} needs {n} bytes, {left} left")
            left -= n
            return fh.read(n)

        def u32(what: str) -> int:
            return struct.unpack("<I", take(4, what))[0]

        if left < len(MAGIC) or take(len(MAGIC), "magic") != MAGIC:
            raise IncompatibleFileError(f"{path}: not a recognized container")
        version = u32("format version")
        if version != FORMAT_VERSION:
            raise IncompatibleFileError(
                f"{path}: format version {version}, expected {FORMAT_VERSION}")
        header = take(u32("header length"), "header")
        try:
            meta = json.loads(header)
        except ValueError as exc:
            raise IncompatibleFileError(f"{path}: corrupt header: {exc}") from None
        if not isinstance(meta, dict):
            raise IncompatibleFileError(f"{path}: header is not an object")
        kind = meta.pop("kind", None)
        if expect_kind is not None and kind != expect_kind:
            raise IncompatibleFileError(
                f"{path}: kind {kind!r}, expected {expect_kind!r}")
        arrays = {}
        for _ in range(u32("array count")):
            name_b = take(u32("name length"), "array name")
            dtype_b = take(u32("dtype length"), "dtype")
            try:
                name = name_b.decode()
                dtype = np.dtype(dtype_b.decode())
            except (TypeError, ValueError) as exc:
                raise IncompatibleFileError(
                    f"{path}: corrupt array record: {exc}") from None
            if dtype.hasobject or dtype.itemsize == 0:
                raise IncompatibleFileError(f"{path}: unsupported dtype {dtype}")
            ndim = u32("array rank")
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, "array shape"))
            count = math.prod(shape)
            if count * dtype.itemsize > left:
                raise IncompatibleFileError(
                    f"{path}: array {name!r} of shape {shape} needs "
                    f"{count * dtype.itemsize} bytes, {left} left")
            left -= count * dtype.itemsize
            arrays[name] = np.fromfile(fh, dtype=dtype, count=count).reshape(shape)
        return kind, _Fields(path, meta), _Fields(path, arrays)
