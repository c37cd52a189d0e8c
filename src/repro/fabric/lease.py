"""Worker leases: TTL claims on tasks, renewed by heartbeats.

A scheduler claims a task by *atomically creating* its lease file
(``O_CREAT | O_EXCL`` — the filesystem arbitrates between cooperating
scheduler processes on one host).  While the task runs, the scheduler
heartbeats by rewriting the lease with a fresh expiry; a scheduler that
dies (SIGKILL, OOM) simply stops heartbeating, the lease expires, and any
other scheduler *steals* it — overwriting the stale lease and re-queuing
the shard.

The steal path has a deliberate, documented race: two schedulers that
observe the same expired lease at the same instant can both take it and
both run the shard.  That is safe here because shards are deterministic
and idempotent — ``run_shard(unit, shots, seed)`` produces bit-identical
payloads wherever and however often it runs, and checkpoint writes are
atomic last-writer-wins of identical bytes.  Leases are an *efficiency*
mechanism (don't run work twice when you can help it), never a
correctness mechanism; correctness comes from determinism plus the
journal.  Wall-clock time (``time.time``) is used rather than a monotonic
clock because expiry must be comparable across processes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from ..io.atomic import atomic_write_bytes
from ..obs.metrics import METRICS
from .jobstore import JobStore

__all__ = ["Lease", "LeaseManager"]

_OBS_STOLEN = METRICS.counter(
    "fabric.leases.stolen", "expired leases taken over from a dead owner"
)
_OBS_EXPIRED = METRICS.counter(
    "fabric.leases.expired", "leases observed past their deadline"
)


class Lease:
    """Decoded contents of one lease file."""

    __slots__ = ("owner", "expires", "acquired")

    def __init__(self, owner: str, expires: float, acquired: float) -> None:
        self.owner = owner
        self.expires = expires
        self.acquired = acquired

    def expired(self, now: float | None = None) -> bool:
        return (time.time() if now is None else now) >= self.expires


class LeaseManager:
    """Claim, renew and release task leases in a :class:`JobStore`.

    ``ttl`` is how long a lease lives without a heartbeat; renew at
    ``ttl / 3`` or faster.  ``owner`` defaults to ``host:pid`` so lease
    files are attributable in post-mortems.
    """

    def __init__(self, store: JobStore, owner: str | None = None,
                 ttl: float = 30.0) -> None:
        self.store = store
        self.owner = owner or f"{os.uname().nodename}:{os.getpid()}"
        self.ttl = float(ttl)
        self.acquired = 0
        self.stolen = 0

    # ------------------------------------------------------------------ #
    def _path(self, task_id: str) -> Path:
        return self.store.leases_dir / f"{task_id}.json"

    def peek(self, task_id: str) -> Lease | None:
        """Read a lease without touching it; corrupt leases read as absent."""
        try:
            raw = json.loads(self._path(task_id).read_text())
            return Lease(str(raw["owner"]), float(raw["expires"]),
                         float(raw["acquired"]))
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def try_acquire(self, task_id: str) -> bool:
        """Claim a task: atomic create, or steal if the holder's TTL lapsed."""
        path = self._path(task_id)
        now = time.time()
        body = self._body(now)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            current = self.peek(task_id)
            if current is not None and not current.expired(now):
                return current.owner == self.owner
            # Holder is dead (or the lease is unreadable): take over.  See
            # the module docstring for why the takeover race is benign.
            if current is not None:
                _OBS_EXPIRED.inc()
            atomic_write_bytes(path, body)
            self.acquired += 1
            self.stolen += 1
            _OBS_STOLEN.inc()
            return True
        # No fsync: a host crash kills every holder on the host, so a lease
        # it loses or truncates was stale anyway; it reads as absent and is
        # claimed again, which is safe (see the module docstring).
        try:
            os.write(fd, body)
        finally:
            os.close(fd)
        self.acquired += 1
        return True

    def renew(self, task_id: str) -> bool:
        """Heartbeat: extend our lease; False if we no longer hold it."""
        current = self.peek(task_id)
        if current is None or current.owner != self.owner:
            return False
        atomic_write_bytes(self._path(task_id), self._body(time.time()))
        return True

    def release(self, task_id: str) -> None:
        """Drop our claim (no-op if somebody stole it meanwhile)."""
        current = self.peek(task_id)
        if current is not None and current.owner == self.owner:
            try:
                self._path(task_id).unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    def _body(self, now: float) -> bytes:
        payload: dict[str, Any] = {
            "owner": self.owner,
            "acquired": now,
            "expires": now + self.ttl,
        }
        return json.dumps(payload, sort_keys=True).encode()
