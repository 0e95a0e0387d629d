"""Versioned binary container shared by all persisted artifacts.

Layout (little-endian):

    magic   4 bytes  b"SVBF"
    version u16
    kind    u16 length + utf-8 bytes
    header  u32 length + utf-8 JSON (artifact metadata)
    count   u32 number of named arrays
    per array:
        name  u16 length + utf-8
        dtype u16 length + utf-8 (numpy dtype string)
        ndim  u8, then ndim u32 dims
        data  raw C-order bytes

Features, vector sets, trained networks and back-end models all use this
container with different `kind` tags. Writes go to a temp name in the
same directory and are renamed on completion. `iter_container` reads the
arrays one at a time and `write_container` takes them as they come, so a
file of many arrays can pass through holding one of them in memory.
"""

import json
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError, UsageError

MAGIC = b"SVBF"
VERSION = 1

_ALLOWED_DTYPES = {"float32", "float64", "int32", "int64"}


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_str(f, s):
    raw = s.encode("utf-8")
    f.write(struct.pack("<H", len(raw)))
    f.write(raw)


def _read_exact(f, n, path):
    raw = f.read(n)
    if len(raw) != n:
        raise FormatError(f"{path}: truncated container file")
    return raw


def _read_str(f, path):
    (n,) = struct.unpack("<H", _read_exact(f, 2, path))
    return _read_exact(f, n, path).decode("utf-8")


def _write_array(f, name, arr):
    arr = np.ascontiguousarray(arr)
    if arr.dtype.name not in _ALLOWED_DTYPES:
        raise FormatError(f"unsupported dtype {arr.dtype} for array {name!r}")
    _write_str(f, name)
    _write_str(f, arr.dtype.name)
    f.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<I", d))
    f.write(arr.reshape(-1).view(np.uint8))


def write_container(path, kind, header, arrays, count=None):
    """Atomically write a container file.

    `header` must be JSON-serializable. `arrays` maps names to ndarrays, written in
    sorted name order; or, with `count`, it is an iterable of exactly `count`
    (name, ndarray) pairs, written in the order given as they arrive. A different number
    of pairs is a UsageError, and then, as on any failure, no file is left at `path`
    but the one that was there before.
    """
    if count is None:
        arrays, count = sorted(arrays.items()), len(arrays)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".svbf-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<H", VERSION))
            _write_str(f, kind)
            hjson = json.dumps(header, sort_keys=True, default=_json_default).encode("utf-8")
            f.write(struct.pack("<I", len(hjson)))
            f.write(hjson)
            f.write(struct.pack("<I", count))
            written = 0
            for written, (name, arr) in enumerate(arrays, 1):
                if written > count:
                    raise UsageError(f"{path}: more than the {count} arrays declared")
                _write_array(f, name, arr)
            if written != count:
                raise UsageError(f"{path}: {written} arrays given, {count} declared")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_array(f, path):
    """(name, array) of the next array in `f`, its bytes read straight into the array."""
    name = _read_str(f, path)
    dtype = _read_str(f, path)
    if dtype not in _ALLOWED_DTYPES:
        raise FormatError(f"{path}: unsupported dtype {dtype!r}")
    (ndim,) = struct.unpack("<B", _read_exact(f, 1, path))
    shape = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, path))
    arr = np.empty(shape, dtype=dtype)
    flat, filled = arr.reshape(-1).view(np.uint8), 0
    while filled < arr.nbytes:
        got = f.readinto(flat[filled:])
        if not got:
            raise FormatError(f"{path}: truncated container file")
        filled += got
    return name, arr


def _check_end(f, path, count):
    if f.read(1):
        raise FormatError(f"{path}: bytes after the last of its {count} arrays")


def iter_container(path, expect_kind=None):
    """Yield a container's (kind, header, count), then its `count` (name, array) pairs
    one at a time, in file order.

    Raises FormatError naming `path` on bad magic, version mismatch, a kind other than
    `expect_kind` when given, a file cut short, or bytes after the last array (found as
    the last array is read).
    """
    with open(path, "rb") as f:
        if _read_exact(f, 4, path) != MAGIC:
            raise FormatError(f"{path}: not a svbench container (bad magic)")
        (version,) = struct.unpack("<H", _read_exact(f, 2, path))
        if version != VERSION:
            raise FormatError(f"{path}: container version {version}, expected {VERSION}")
        kind = _read_str(f, path)
        if expect_kind is not None and kind != expect_kind:
            raise FormatError(f"{path}: kind {kind!r}, expected {expect_kind!r}")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4, path))
        header = json.loads(_read_exact(f, hlen, path).decode("utf-8"))
        (count,) = struct.unpack("<I", _read_exact(f, 4, path))
        if count == 0:
            _check_end(f, path, count)
        yield kind, header, count
        for i in range(count):
            item = _read_array(f, path)
            if i == count - 1:
                _check_end(f, path, count)
            yield item


def read_container(path, expect_kind=None):
    """Read a whole container through iter_container; returns (kind, header, arrays),
    the arrays a dict in file order."""
    items = iter_container(path, expect_kind)
    kind, header, _ = next(items)
    return kind, header, dict(items)
