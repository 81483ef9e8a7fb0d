"""Filesystem helpers: atomic file writes (the metrics snapshot dump uses them)."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_bytes(path: "str | Path", data: bytes) -> None:
    """Write ``data`` to ``path`` so readers never observe a partial file.

    The bytes land in a temp file in the destination directory and are moved
    into place with ``os.replace`` — atomic on POSIX and Windows for paths on
    the same filesystem (which a sibling temp file guarantees).  A *process*
    crash mid-write leaves at most a stale ``.tmp-*`` file; concurrent
    writers of the same path last-write-win with either side's file complete.
    The temp file is not fsynced before the rename, so this does not defend
    against power loss / kernel crashes — callers whose readers cannot treat
    a corrupt file as a miss need their own durability story.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
