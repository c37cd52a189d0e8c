"""Crash-safe file primitives shared by the sweep cache and the job store.

Every durable record in this package tree — sweep cache entries, job
journal records, shard checkpoints, leases — is written the same way:
serialise to a temp file in the destination directory, flush + ``fsync``,
then ``os.replace`` onto the final path, so a reader never observes a
partially written file no matter when the writer dies.  A file that does
exist but fails to parse is damage (a torn write on a non-atomic
filesystem, a dying disk), not a miss: readers move it aside to
``<name>.corrupt`` and treat it as absent, so one bad file can never
wedge a run or be trusted as data.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

__all__ = ["atomic_write_bytes", "quarantine"]


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-temp + fsync + atomic rename of ``data`` onto ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # Pid + thread id: cooperating writers may be threads of one process,
    # and two writers of the same file must never share a temp.
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        # fsync before the rename: otherwise a crash can leave the rename
        # durable but the contents empty, i.e. a corrupt file.
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def quarantine(path: Path) -> None:
    """Move an unparseable file aside to ``<name>.corrupt`` (never delete
    evidence); the caller counts it and treats the record as absent."""
    try:
        path.replace(Path(f"{path}.corrupt"))
    except OSError:
        # Lost a race with another reader, or the file vanished; either way
        # the record is gone and the miss path handles it.
        pass
