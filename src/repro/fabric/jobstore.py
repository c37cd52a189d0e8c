"""Durable job journal: task records and shard result checkpoints on disk.

One :class:`JobStore` holds the state of one sweep's (unit, shard) tasks
under the cache directory::

    <cache>/fabric/<sweep_id>/
        manifest.json          # what this sweep is (engine version, tasks)
        tasks/<task_id>.json   # journaled state record, atomically rewritten
        results/<task_id>.json # shard payload checkpoint, written once
        leases/<task_id>.json  # worker lease (see repro.fabric.lease)

Every write follows the crash-safe discipline of :mod:`repro.io.atomic`:
serialise to a temp file in the same directory, flush + ``fsync``, then
``os.replace`` onto the final path — a reader never observes a partially
written record, no matter when the writer dies.  Reads are
correspondingly paranoid: a record that fails to parse (torn by a
non-atomic writer, truncated by the chaos harness, or half a file from a
dying disk) is *quarantined* to ``<name>.corrupt`` and reported as absent,
so the scheduler re-queues the task instead of crashing or trusting
garbage.

Shard payloads contain NumPy arrays whose bit-exact round-trip the merge
invariant depends on, so arrays are encoded as ``{"__ndarray__": ...}``
envelopes carrying dtype, shape and base64 of the raw buffer — a resumed
merge sees byte-identical arrays, not float-repr approximations.
"""

from __future__ import annotations

import base64
import json
import time
from pathlib import Path
from typing import Any

import numpy as np

from ..io.atomic import atomic_write_bytes, quarantine
from ..obs.metrics import METRICS
from .chaos import active_chaos

__all__ = [
    "JobStore",
    "TaskSpec",
    "STATES",
    "PENDING",
    "LEASED",
    "DONE",
    "FAILED",
    "encode_payload",
    "decode_payload",
]

SCHEMA = "repro.fabric/v1"
TASK_SCHEMA = "repro.fabric.task/v1"

#: Task journal states.  PENDING -> LEASED -> DONE | FAILED; a task with no
#: record yet is PENDING, and a LEASED task whose lease expires is PENDING
#: again in the eyes of every scheduler.
PENDING = "PENDING"
LEASED = "LEASED"
DONE = "DONE"
FAILED = "FAILED"
STATES = (PENDING, LEASED, DONE, FAILED)

_OBS_CORRUPT = METRICS.counter(
    "fabric.journal.corrupt", "journal files quarantined as corrupt"
)


# --------------------------------------------------------------------- #
# Payload codec: JSON with bit-exact ndarray envelopes
# --------------------------------------------------------------------- #
def encode_payload(value: Any) -> Any:
    """JSON-safe form of a shard payload; arrays keep dtype/shape/bytes."""
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": True,
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "data": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode(),
        }
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): encode_payload(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_payload(v) for v in value]
    return value


def decode_payload(value: Any) -> Any:
    """Inverse of :func:`encode_payload`; arrays come back bit-identical."""
    if isinstance(value, dict):
        if value.get("__ndarray__"):
            raw = base64.b64decode(value["data"])
            array = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            return array.reshape(value["shape"]).copy()
        return {k: decode_payload(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_payload(v) for v in value]
    return value


# --------------------------------------------------------------------- #
# Task specs and the store
# --------------------------------------------------------------------- #
class TaskSpec:
    """Immutable identity of one (unit, shard) task."""

    __slots__ = ("task_id", "unit_index", "shard_index", "shots", "seed")

    def __init__(self, task_id: str, unit_index: int, shard_index: int,
                 shots: int, seed: int) -> None:
        self.task_id = task_id
        self.unit_index = unit_index
        self.shard_index = shard_index
        self.shots = shots
        self.seed = seed

    def fresh_record(self) -> dict[str, Any]:
        return {
            "schema": TASK_SCHEMA,
            "task": self.task_id,
            "state": PENDING,
            "attempts": 0,
            "owner": None,
            "error": None,
            "shots": self.shots,
            "seed": self.seed,
            "updated": time.time(),
        }


class JobStore:
    """Journal + checkpoint store for one sweep under ``root``.

    ``corrupt`` counts quarantined files over this instance's lifetime, and
    ``writes`` the journal writes issued.  Torn-write chaos is sequenced
    *per journal file* (first write of a record, second write, ...) so the
    same spec tears the same transitions regardless of how the scheduler
    interleaved unrelated tasks.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.results_dir = self.root / "results"
        self.leases_dir = self.root / "leases"
        self.corrupt = 0
        self.writes = 0
        self._sequences: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Layout / manifest
    # ------------------------------------------------------------------ #
    def attach(self, manifest: dict[str, Any]) -> bool:
        """Create the layout (and manifest) if new; returns True when fresh.

        Attaching to an existing store validates nothing beyond the
        manifest being readable — task records are the source of truth and
        each is independently recoverable.  A corrupt manifest is
        quarantined and rewritten (the caller re-derives it from the same
        units every time, so nothing is lost).
        """
        for directory in (self.tasks_dir, self.results_dir, self.leases_dir):
            directory.mkdir(parents=True, exist_ok=True)
        path = self.root / "manifest.json"
        existing = self._read_json(path)
        if existing is not None and existing.get("schema") == SCHEMA:
            return False
        payload = {"schema": SCHEMA, **manifest}
        self._write_json(path, payload, chaos_key=None)
        return existing is None

    # ------------------------------------------------------------------ #
    # Task records
    # ------------------------------------------------------------------ #
    def task_path(self, task_id: str) -> Path:
        return self.tasks_dir / f"{task_id}.json"

    def load_task(self, task_id: str) -> dict[str, Any] | None:
        """The journaled record for a task, or None if absent/quarantined."""
        record = self._read_json(self.task_path(task_id))
        if record is None:
            return None
        if record.get("schema") != TASK_SCHEMA or record.get("state") not in STATES:
            self._quarantine(self.task_path(task_id))
            return None
        return record

    def write_task(self, record: dict[str, Any]) -> None:
        """Journal one task state transition (atomic, fsynced)."""
        record = {**record, "updated": time.time()}
        self._write_json(
            self.task_path(record["task"]), record, chaos_key=record["task"]
        )

    # ------------------------------------------------------------------ #
    # Result checkpoints
    # ------------------------------------------------------------------ #
    def result_path(self, task_id: str) -> Path:
        return self.results_dir / f"{task_id}.json"

    def write_result(self, task_id: str, payload: dict[str, Any]) -> None:
        """Checkpoint a completed shard's payload (written exactly once)."""
        body = {"schema": TASK_SCHEMA, "task": task_id,
                "payload": encode_payload(payload)}
        self._write_json(self.result_path(task_id), body,
                         chaos_key=f"result:{task_id}")

    def load_result(self, task_id: str) -> dict[str, Any] | None:
        """A checkpointed shard payload, or None if absent or quarantined."""
        body = self._read_json(self.result_path(task_id))
        if body is None:
            return None
        if body.get("task") != task_id or "payload" not in body:
            self._quarantine(self.result_path(task_id))
            return None
        return decode_payload(body["payload"])

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _read_json(self, path: Path) -> dict[str, Any] | None:
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("journal payload is not an object")
        except (ValueError, json.JSONDecodeError):
            self._quarantine(path)
            return None
        return payload

    def _quarantine(self, path: Path) -> None:
        quarantine(path)
        self.corrupt += 1
        _OBS_CORRUPT.inc()

    def _write_json(self, path: Path, payload: dict[str, Any],
                    chaos_key: str | None) -> None:
        data = json.dumps(payload, sort_keys=True).encode()
        self.writes += 1
        if chaos_key is not None:
            sequence = self._sequences.get(chaos_key, 0)
            self._sequences[chaos_key] = sequence + 1
            chaos = active_chaos()
            torn = None if chaos is None else chaos.torn_write(chaos_key, sequence, data)
            if torn is not None:
                # The truncated bytes land directly at the destination, as
                # after a power cut on a non-atomic filesystem: the writer
                # believes it succeeded, and only a later reader discovers
                # the damage — the failure quarantine exists for.
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(torn)
                return
        atomic_write_bytes(path, data)
