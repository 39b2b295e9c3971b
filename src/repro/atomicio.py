"""Atomic file replacement shared by every on-disk writer in the package.

The results cache, the campaign store and the heartbeat files all need
the same guarantee: a reader sees either the old file or the complete new
one, never a torn write.  Callers keep their own error policy -- the
cache degrades an ``OSError`` to a warning, the store raises it.
"""

from __future__ import annotations

import os
import pathlib
import tempfile

__all__ = ["atomic_write_bytes"]


def atomic_write_bytes(path: "str | os.PathLike", payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a sibling tmp file and
    ``os.replace`` (creating the parent directory as needed)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
