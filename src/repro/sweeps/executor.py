"""The sweep executor: one shard plan, one scheduling loop, two job stores.

The :class:`SweepExecutor` takes the independent work units a
:class:`~repro.sweeps.spec.SweepSpec` compiles to, splits each unit's shot
budget into fixed-size shards, and drives every (unit, shard) task to a
result through one scheduling loop.  Four properties matter:

* **Deterministic sharding** — the shard plan depends only on the unit's
  shot budget and ``shard_shots``: never on the worker count, the job
  store, crashes or resume, so all of those give bit-identical rows.
* **Deterministic seeding** — a unit that fits in one shard keeps its own
  base seed (the legacy serial stream); larger units derive one seed per
  shard from the unit's content hash through
  ``numpy.random.SeedSequence.spawn``.
* **Memoization** — completed units are summarised and written to the
  :class:`~repro.sweeps.cache.SweepCache`; identical re-runs load from disk
  without scheduling anything.
* **Fault tolerance** — a failed shard is retried with backoff under a
  :class:`~repro.fabric.retry.RetryPolicy`; after ``max_attempts`` strikes
  it is quarantined and its unit degrades to an error row instead of
  hanging the grid.  A worker that dies (SIGKILL, OOM) breaks the process
  pool; the loop rebuilds it and counts a strike against the lost shards.

``durable`` picks only where task records and shard results live.  The
default keeps them in memory for the length of one call.  ``durable=True``
journals them to an on-disk :class:`~repro.fabric.jobstore.JobStore` under
:func:`sweep_store_root`: re-running the same sweep after a crash adopts
every checkpointed shard, and several schedulers pointed at one store
split it through file leases (:mod:`repro.fabric.lease`).

With one worker and the in-memory store, shards run inside the scheduler
process itself, so traces show shard interiors and in-process caches stay
warm; every other configuration runs shards on a process pool.  Workers
default to the ``REPRO_WORKERS`` environment variable (``1`` = serial).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    wait,
)
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..fabric.chaos import active_chaos
from ..fabric.jobstore import DONE, FAILED, LEASED, PENDING, JobStore, TaskSpec
from ..fabric.lease import LeaseManager
from ..fabric.retry import RetryPolicy, format_failure
from ..obs.metrics import METRICS
from ..obs.trace import instant, span
from .cache import SweepCache, default_cache_dir
from .spec import SweepSpec
from .units import (
    ENGINE_VERSION,
    WorkUnit,
    apply_unit_labels,
    merge_shards,
    run_shard,
    summarize_unit,
    unit_key,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "SweepExecutor",
    "FabricInterrupted",
    "sweep_store_root",
    "plan_shards",
    "shard_seeds",
    "default_workers",
    "cache_enabled",
]

#: Default shot budget per shard; matches the decoded path's internal batch
#: size so a shard is one decode batch.
DEFAULT_SHARD_SHOTS = 250

#: Sweep telemetry; no-ops unless a telemetry scope is active.  Each event
#: is counted once, whichever store or pool ran it.
_OBS_CACHE_HITS = METRICS.counter(
    "sweep.units.cache_hits", "work units served from the on-disk sweep cache"
)
_OBS_COMPUTED = METRICS.counter("sweep.units.computed", "work units actually simulated")
_OBS_UNITS_FAILED = METRICS.counter(
    "sweep.units.failed", "units degraded to error rows by quarantined shards"
)
_OBS_SHARDS = METRICS.counter(
    "sweep.shards.executed", "shard tasks executed to DONE by this process"
)
_OBS_CHECKPOINT = METRICS.counter(
    "sweep.shards.checkpoint_hits", "shards restored from journal checkpoints"
)
_OBS_ADOPTED = METRICS.counter(
    "sweep.shards.adopted", "shards completed by a cooperating scheduler"
)
_OBS_RETRIED = METRICS.counter(
    "sweep.shards.retried", "shard attempts that failed and were re-queued"
)
_OBS_QUARANTINED = METRICS.counter(
    "sweep.shards.quarantined", "poison shards marked FAILED after max strikes"
)
_OBS_POOL_REBUILDS = METRICS.counter(
    "sweep.pool.rebuilds", "process pools rebuilt after a worker died"
)


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (default 1 = serial)."""
    raw = os.environ.get("REPRO_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from exc


def cache_enabled() -> bool:
    """Whether the ``REPRO_CACHE`` environment knob turns memoization on."""
    return os.environ.get("REPRO_CACHE", "").lower() in ("1", "true", "yes", "on")


def plan_shards(shots: int, shard_shots: int) -> list[int]:
    """Split a shot budget into shard sizes; independent of the worker count."""
    if shots <= 0:
        raise ValueError("shots must be positive")
    if shard_shots <= 0:
        raise ValueError("shard_shots must be positive")
    full, remainder = divmod(shots, shard_shots)
    plan = [shard_shots] * full
    if remainder:
        plan.append(remainder)
    return plan


def shard_seeds(unit: WorkUnit, num_shards: int) -> list[int]:
    """Derive one reproducible RNG seed per shard of a unit.

    The entropy pool is the unit's content hash (so different grid points
    never share streams even with the same base seed) combined with the
    base seed; ``SeedSequence.spawn`` then gives statistically independent
    children, one per shard index.
    """
    digest = unit_key(unit)
    entropy = [int(digest[offset : offset + 8], 16) for offset in range(0, 32, 8)]
    root = np.random.SeedSequence([unit.seed & 0xFFFFFFFF, *entropy])
    return [
        int(child.generate_state(1, dtype=np.uint32)[0])
        for child in root.spawn(num_shards)
    ]


def sweep_store_root(task_ids: Sequence[str], root: str | Path | None = None) -> Path:
    """The durable store directory for one sweep: ``<root>/<digest of task ids>``.

    Derived purely from the task identity set, so every scheduler process
    that compiles the same units attaches to the same store — and a
    different grid can never collide with it.
    """
    base = Path(root) if root is not None else default_cache_dir() / "fabric"
    digest = hashlib.sha256(
        json.dumps({"engine": ENGINE_VERSION, "tasks": sorted(task_ids)}).encode()
    ).hexdigest()[:20]
    return base / digest


class FabricInterrupted(RuntimeError):
    """A budget-bounded scheduling slice ran out before the sweep finished.

    Raised by ``run_units(..., max_new_tasks=N)`` once N tasks completed
    with open tasks remaining.  With ``durable=True`` everything completed
    so far is checkpointed, and re-running the same sweep resumes where
    this slice stopped.  (Tests use this to simulate a scheduler crash
    without killing the test process.)
    """

    def __init__(self, completed: int, open_tasks: int) -> None:
        super().__init__(
            f"sweep slice stopped after {completed} tasks with "
            f"{open_tasks} still open; re-run to resume from the journal"
        )
        self.completed = completed
        self.open_tasks = open_tasks


# --------------------------------------------------------------------- #
# Shard side (runs in pool workers, or inline in the scheduler)
# --------------------------------------------------------------------- #
def _run_task(
    unit: WorkUnit, shots: int, seed: int, task_id: str, attempt: int, scheduler: int
) -> dict[str, Any]:
    """Run one shard, passing through the chaos gauntlet first.

    ``scheduler`` is the scheduling process's pid: a chaos crash kills a
    pool worker, never the scheduler running a shard inline.
    """
    chaos = active_chaos()
    if chaos is not None:
        chaos.maybe_stall(task_id, attempt)
        chaos.maybe_crash(task_id, attempt, kill=os.getpid() != scheduler)
        chaos.maybe_raise(task_id, attempt)
    with span("sweep.shard", task=task_id, shots=shots):
        return run_shard(unit, shots, seed)


def _worker_init(src_path: str) -> None:
    """Make the in-tree package importable in spawned workers."""
    if src_path and src_path not in sys.path:
        sys.path.insert(0, src_path)


class _InlinePool:
    """A one-worker "pool" that runs each task in the calling process and
    hands back an already finished future."""

    def submit(self, fn: Any, *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 — the loop journals every failure
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


# --------------------------------------------------------------------- #
# The in-memory job store
# --------------------------------------------------------------------- #
class MemoryStore:
    """Task records and shard results of one run, held in dictionaries.

    The in-memory peer of :class:`~repro.fabric.jobstore.JobStore`: the same
    record and result calls, nothing survives the process.
    """

    def __init__(self) -> None:
        self.tasks: dict[str, dict[str, Any]] = {}
        self.results: dict[str, dict[str, Any]] = {}

    def load_task(self, task_id: str) -> dict[str, Any] | None:
        return self.tasks.get(task_id)

    def write_task(self, record: dict[str, Any]) -> None:
        self.tasks[record["task"]] = record

    def load_result(self, task_id: str) -> dict[str, Any] | None:
        return self.results.get(task_id)

    def write_result(self, task_id: str, payload: dict[str, Any]) -> None:
        self.results[task_id] = payload


class SoleLease:
    """Leases on a store only its one owner ever sees: every claim succeeds."""

    owner = "local"

    def peek(self, task_id: str) -> None:
        return None

    def try_acquire(self, task_id: str) -> bool:
        return True

    def renew(self, task_id: str) -> bool:
        return True

    def release(self, task_id: str) -> None:
        pass


@dataclass(frozen=True)
class _Task:
    """One schedulable (unit, shard) job."""

    spec: TaskSpec
    unit: WorkUnit


@dataclass(frozen=True)
class _PendingUnit:
    """A unit the cache could not satisfy, with its compiled tasks."""

    index: int
    unit: WorkUnit
    key: str
    task_ids: tuple[str, ...]


class SweepExecutor:
    """Execute work units shard by shard, with retries and memoization.

    Parameters
    ----------
    workers:
        Process count.  ``None`` reads ``REPRO_WORKERS``.  With ``1`` and
        the in-memory store, shards run in the calling process.
    cache:
        A :class:`SweepCache`, a directory path for one, or ``None`` to
        disable memoization entirely.
    shard_shots:
        Shot budget per shard.  Smaller shards give better load balancing;
        larger shards amortise per-process policy preparation.  Rows depend
        on it (it fixes the seeds), never on ``workers`` or ``durable``.
    durable:
        Journal tasks and checkpoint shard results to an on-disk
        :class:`~repro.fabric.jobstore.JobStore` instead of memory, so a
        killed sweep resumes and cooperating schedulers share the work.
    root:
        Directory holding per-sweep durable stores (default
        ``<REPRO_CACHE_DIR>/fabric``).
    retry:
        The :class:`RetryPolicy` wrapped around shard execution.
    lease_ttl:
        Seconds a durable lease survives without a heartbeat; heartbeats
        fire at a third of this.  Size it well above one shard's runtime.
    owner:
        Durable lease owner label (default ``host:pid``).
    poll_interval:
        Scheduler loop granularity in seconds.

    Attributes
    ----------
    Counters across this executor's lifetime: ``units_computed``,
    ``units_from_cache``, ``shards_executed``, ``shards_from_checkpoint``,
    ``shards_retried``, ``shards_quarantined``, ``shards_adopted``,
    ``pool_rebuilds``, and the ``failed_units`` list of ``(unit, error)``
    rows that degraded.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache: SweepCache | str | Path | None = None,
        shard_shots: int = DEFAULT_SHARD_SHOTS,
        *,
        durable: bool = False,
        root: str | Path | None = None,
        retry: RetryPolicy | None = None,
        lease_ttl: float = 30.0,
        owner: str | None = None,
        poll_interval: float = 0.05,
    ) -> None:
        self.workers = default_workers() if workers is None else max(1, int(workers))
        if cache is None or isinstance(cache, SweepCache):
            self.cache: SweepCache | None = cache
        else:
            self.cache = SweepCache(cache)
        self.shard_shots = int(shard_shots)
        self.durable = bool(durable)
        self.root = Path(root) if root is not None else None
        self.retry = retry if retry is not None else RetryPolicy()
        self.lease_ttl = float(lease_ttl)
        self.owner = owner
        self.poll_interval = float(poll_interval)

        self.units_computed = 0
        self.units_from_cache = 0
        self.shards_executed = 0
        self.shards_from_checkpoint = 0
        self.shards_retried = 0
        self.shards_quarantined = 0
        self.shards_adopted = 0
        self.pool_rebuilds = 0
        self.failed_units: list[tuple[WorkUnit, str]] = []

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def run(self, spec: SweepSpec) -> list[dict[str, Any]]:
        """Compile a spec and execute it; returns one summary row per unit."""
        return self.run_units(spec.units())

    def shard_plan(self, unit: WorkUnit) -> list[tuple[int, int]]:
        """(shots, seed) of every shard of a unit.

        A unit that fits in one shard keeps its own base seed, so it agrees
        bit-for-bit with :func:`~repro.sweeps.units.run_unit_serial`.  The
        plan never depends on worker count, store, lease timing, crashes or
        resume.
        """
        sizes = plan_shards(unit.config.execution.shots, self.shard_shots)
        if len(sizes) == 1:
            return [(sizes[0], unit.seed)]
        return list(zip(sizes, shard_seeds(unit, len(sizes))))

    def run_units(
        self,
        units: Sequence[WorkUnit],
        *,
        max_new_tasks: int | None = None,
    ) -> list[dict[str, Any]]:
        """Execute work units; rows come back in the order units were given.

        ``max_new_tasks`` bounds how many shard tasks this call may execute
        before raising :class:`FabricInterrupted` — an operator's budgeted
        slice of a durable sweep, and the tests' simulated scheduler crash.
        """
        rows: list[dict[str, Any] | None] = [None] * len(units)
        pending: list[_PendingUnit] = []
        tasks: list[_Task] = []
        for index, unit in enumerate(units):
            plan = self.shard_plan(unit)
            key = unit_key(unit, tuple(shots for shots, _ in plan))
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                self.units_from_cache += 1
                _OBS_CACHE_HITS.inc()
                instant(
                    "sweep.unit.cache_hit",
                    family=unit.config.code.name,
                    policy=unit.config.policy.name,
                )
                rows[index] = apply_unit_labels(unit, cached)
                continue
            task_ids = []
            for shard_index, (shots, seed) in enumerate(plan):
                task_id = f"{key[:20]}-{shard_index:03d}"
                task_ids.append(task_id)
                tasks.append(
                    _Task(TaskSpec(task_id, index, shard_index, shots, seed), unit)
                )
            pending.append(_PendingUnit(index, unit, key, tuple(task_ids)))

        if not pending:
            return rows  # type: ignore[return-value]

        store: JobStore | MemoryStore
        lease: LeaseManager | SoleLease
        if self.durable:
            store = JobStore(sweep_store_root([t.spec.task_id for t in tasks], self.root))
            store.attach(
                {
                    "engine": ENGINE_VERSION,
                    "tasks": {
                        t.spec.task_id: {"shots": t.spec.shots, "seed": t.spec.seed}
                        for t in tasks
                    },
                }
            )
            lease = LeaseManager(store, owner=self.owner, ttl=self.lease_ttl)
        else:
            store, lease = MemoryStore(), SoleLease()
        with span("sweep.run", tasks=len(tasks), units=len(pending),
                  workers=self.workers, durable=self.durable):
            results, failures = self._drive(store, lease, tasks, max_new_tasks)

        for entry in pending:
            errors = [
                failures[task_id] for task_id in entry.task_ids if task_id in failures
            ]
            if errors:
                self.failed_units.append((entry.unit, errors[0]))
                _OBS_UNITS_FAILED.inc()
                rows[entry.index] = apply_unit_labels(
                    entry.unit,
                    {
                        "error": errors[0].strip().splitlines()[-1],
                        "failed_shards": len(errors),
                        "policy": entry.unit.config.policy.name,
                        "shots": entry.unit.config.execution.shots,
                    },
                )
                continue
            payloads = [results[task_id] for task_id in entry.task_ids]
            row = summarize_unit(
                entry.unit, merge_shards(entry.unit, payloads), apply_labels=False
            )
            if self.cache is not None:
                self.cache.put(entry.key, row)
            self.units_computed += 1
            _OBS_COMPUTED.inc()
            rows[entry.index] = apply_unit_labels(entry.unit, row)
        return rows  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # The scheduling loop
    # ------------------------------------------------------------------ #
    def _drive(
        self,
        store: JobStore | MemoryStore,
        lease: LeaseManager | SoleLease,
        tasks: list[_Task],
        max_new_tasks: int | None,
    ) -> tuple[dict[str, dict[str, Any]], dict[str, str]]:
        """Drive every task to DONE/FAILED; returns (payloads, errors)."""
        results: dict[str, dict[str, Any]] = {}
        failures: dict[str, str] = {}
        attempts: dict[str, int] = {}
        next_try: dict[str, float] = {}

        # Bootstrap from the store: adopt checkpoints, honour quarantines.
        # A task without a record is PENDING.
        for task in tasks:
            task_id = task.spec.task_id
            record = store.load_task(task_id) or task.spec.fresh_record()
            attempts[task_id] = int(record.get("attempts", 0))
            if record["state"] == FAILED:
                failures[task_id] = str(record.get("error") or "failed")
                continue
            # A readable checkpoint is adopted whatever the record says:
            # checkpoints are written once, atomically, and self-validate,
            # so even a scheduler killed between its result write and the
            # DONE transition leaves nothing to recompute.
            # (A DONE record without one is re-queued by the loop below.)
            payload = store.load_result(task_id)
            if payload is not None:
                results[task_id] = payload
                self.shards_from_checkpoint += 1
                _OBS_CHECKPOINT.inc()

        if len(results) + len(failures) == len(tasks):
            return results, failures

        budget = math.inf if max_new_tasks is None else max_new_tasks
        completed_new = 0
        inflight: dict[Future, _Task] = {}
        finished: list[tuple[_Task, dict[str, Any]]] = []
        pool = self._new_pool(len(tasks))
        last_heartbeat = time.time()
        try:
            while len(results) + len(failures) < len(tasks):
                now = time.time()
                # ---------------- submissions / remote adoption ---------- #
                inflight_ids = {task.spec.task_id for task in inflight.values()}
                for task in tasks:
                    task_id = task.spec.task_id
                    if (
                        task_id in results
                        or task_id in failures
                        or task_id in inflight_ids
                    ):
                        continue
                    record = store.load_task(task_id)
                    if record is not None and record["state"] == FAILED:
                        failures[task_id] = str(record.get("error") or "failed")
                        continue
                    if record is not None and record["state"] == DONE:
                        # A cooperating scheduler finished it: adopt.
                        payload = store.load_result(task_id)
                        if payload is not None:
                            results[task_id] = payload
                            self.shards_adopted += 1
                            _OBS_ADOPTED.inc()
                            continue
                        # DONE without a readable checkpoint (torn write,
                        # quarantined file): recompute the shard.
                        store.write_task({**record, "state": PENDING})
                    holder = lease.peek(task_id)
                    if (
                        holder is not None
                        and holder.owner != lease.owner
                        and not holder.expired(now)
                    ):
                        continue  # a cooperating scheduler is on it
                    if next_try.get(task_id, 0.0) > now:
                        continue
                    if completed_new + len(inflight) >= budget:
                        continue
                    if not lease.try_acquire(task_id):
                        continue
                    try:
                        future = pool.submit(
                            _run_task,
                            task.unit,
                            task.spec.shots,
                            task.spec.seed,
                            task_id,
                            attempts[task_id],
                            os.getpid(),
                        )
                    except BrokenExecutor:
                        # A worker died between loop passes; rebuild and let
                        # the next pass re-submit (no strike — the shard
                        # never ran).
                        pool = self._rebuild_pool(pool, len(tasks))
                        lease.release(task_id)
                        break
                    # Journaled after the submit, so the worker is not kept
                    # waiting on the fsync; the lease already claims the task.
                    store.write_task(
                        {
                            **(record or task.spec.fresh_record()),
                            "state": LEASED,
                            "owner": lease.owner,
                            "attempts": attempts[task_id],
                        }
                    )
                    inflight[future] = task
                    inflight_ids.add(task_id)
                # Checkpoint last pass's completions only now that the pool
                # is refilled, so no worker waits on the journal's fsyncs.
                self._checkpoint(store, lease, finished, attempts)

                if not inflight:
                    open_tasks = len(tasks) - len(results) - len(failures)
                    if not open_tasks:
                        break
                    if completed_new >= budget:
                        raise FabricInterrupted(completed_new, open_tasks)
                    time.sleep(self.poll_interval)
                    continue

                # ---------------- completions ---------------------------- #
                done, _ = wait(
                    set(inflight), timeout=self.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                pool_broken = False
                for future in done:
                    task = inflight.pop(future)
                    task_id = task.spec.task_id
                    try:
                        payload = future.result()
                    except (CancelledError, Exception) as exc:  # noqa: BLE001 —
                        # every shard failure (including a future cancelled by
                        # a dying pool) is journaled, retried or quarantined.
                        pool_broken = pool_broken or isinstance(exc, BrokenExecutor)
                        self._record_failure(
                            store, lease, task, exc, attempts, next_try, failures
                        )
                    else:
                        results[task_id] = payload
                        finished.append((task, payload))
                        completed_new += 1
                        self.shards_executed += 1
                        _OBS_SHARDS.inc()
                if pool_broken:
                    # A worker died (SIGKILL/OOM): the pool is unusable.
                    # Remaining in-flight futures resolve exceptionally on
                    # their own; build a fresh pool for the retries.
                    pool = self._rebuild_pool(pool, len(tasks))

                # ---------------- heartbeats ----------------------------- #
                if time.time() - last_heartbeat >= self.lease_ttl / 3.0:
                    for task in inflight.values():
                        lease.renew(task.spec.task_id)
                    last_heartbeat = time.time()
            self._checkpoint(store, lease, finished, attempts)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return results, failures

    @staticmethod
    def _checkpoint(
        store: JobStore | MemoryStore,
        lease: LeaseManager | SoleLease,
        finished: list[tuple[_Task, dict[str, Any]]],
        attempts: dict[str, int],
    ) -> None:
        """Journal completed shards: result checkpoint, DONE, lease release."""
        for task, payload in finished:
            task_id = task.spec.task_id
            store.write_result(task_id, payload)
            store.write_task(
                {
                    **task.spec.fresh_record(),
                    "state": DONE,
                    "owner": lease.owner,
                    "attempts": attempts[task_id],
                }
            )
            lease.release(task_id)
        finished.clear()

    def _record_failure(
        self,
        store: JobStore | MemoryStore,
        lease: LeaseManager | SoleLease,
        task: _Task,
        exc: BaseException,
        attempts: dict[str, int],
        next_try: dict[str, float],
        failures: dict[str, str],
    ) -> None:
        """One strike against a shard: re-queue with backoff or quarantine."""
        task_id = task.spec.task_id
        attempts[task_id] += 1
        if self.retry.exhausted(attempts[task_id]):
            error = format_failure(exc)
            store.write_task(
                {
                    **task.spec.fresh_record(),
                    "state": FAILED,
                    "attempts": attempts[task_id],
                    "error": error,
                }
            )
            failures[task_id] = error
            self.shards_quarantined += 1
            _OBS_QUARANTINED.inc()
            instant("sweep.shard.quarantined", task=task_id)
        else:
            store.write_task(
                {
                    **task.spec.fresh_record(),
                    "state": PENDING,
                    "attempts": attempts[task_id],
                }
            )
            next_try[task_id] = time.time() + self.retry.delay(
                task_id, attempts[task_id]
            )
            self.shards_retried += 1
            _OBS_RETRIED.inc()
            instant("sweep.shard.retried", task=task_id, attempts=attempts[task_id])
        lease.release(task_id)

    def _new_pool(self, open_tasks: int) -> ProcessPoolExecutor | _InlinePool:
        if self.workers == 1 and not self.durable:
            return _InlinePool()
        src_path = str(Path(__file__).resolve().parent.parent.parent)
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        # Attribute access imports the process pool machinery only when a
        # sweep needs it, not with every ``import repro``.
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, max(open_tasks, 1)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(src_path,),
        )

    def _rebuild_pool(
        self, pool: ProcessPoolExecutor | _InlinePool, open_tasks: int
    ) -> ProcessPoolExecutor | _InlinePool:
        pool.shutdown(wait=False, cancel_futures=True)
        self.pool_rebuilds += 1
        _OBS_POOL_REBUILDS.inc()
        instant("sweep.pool.rebuilt")
        return self._new_pool(open_tasks)

