"""Output files that appear whole or not at all."""

from __future__ import annotations

import contextlib
import os


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
