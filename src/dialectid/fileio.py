"""Output files that appear whole or not at all, and the binary container
that feature and model files share: a little-endian header of magic (4
bytes), format version, two sizes (u32 each), then float64 values."""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

_HEADER = struct.Struct("<4sIII")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """File handle (mode "w" text, "wb" binary) whose content lands at path
    only if the block finishes: it writes a temp file beside path, then
    os.replace. On any failure the temp file is removed and an existing path
    stays as it was. A symlink, device or FIFO at path is written in place,
    not replaced."""
    encoding = None if "b" in mode else "utf-8"
    if os.path.lexists(path) and (os.path.islink(path) or not os.path.isfile(path)):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, mode, encoding=encoding)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_container(path, magic: bytes, version: int, sizes, arrays) -> None:
    """Write the header, then each array as little-endian float64, via atomic_open."""
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, version, *sizes))
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_container(path, magic: bytes, version: int, values, error, version_error=None, blob=None):
    """(a, b, payload as a writable float64 copy) of path's bytes, or of blob if given. Raises
    error for a truncated header, another magic, a size below 1 or a length other than the
    header plus 8 * values(a, b) bytes; version_error (default error) for another version."""
    blob = read_bytes(path) if blob is None else blob
    if len(blob) < _HEADER.size:
        raise error(f"{path}: truncated header")
    found, found_version, a, b = _HEADER.unpack_from(blob)
    if found != magic:
        raise error(f"{path}: bad magic {found!r}")
    if found_version != version:
        raise (version_error or error)(f"{path}: unsupported version {found_version}")
    if a < 1 or b < 1:
        raise error(f"{path}: empty payload ({a} x {b})")
    expected = _HEADER.size + 8 * values(a, b)
    if len(blob) != expected:
        raise error(f"{path}: payload is {len(blob)} bytes, expected {expected}")
    return a, b, np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).astype(np.float64)
