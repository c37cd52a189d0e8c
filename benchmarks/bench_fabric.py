"""Durable-store overhead: the on-disk job store vs the in-memory one.

The ``repro.fabric`` contract is that durability is cheap: journaling
every (unit, shard) task to disk with leases and checkpoints must cost at
most ``DURABLE_CEILING`` (1.25×) over the in-memory store on the reference
d=3 sweep grid.  Both sides are the same :class:`SweepExecutor` and differ
only in ``durable``.  This benchmark pins that contract, and re-asserts the
house bit-identity invariant while it is at it: the store never changes
the shard plans or seeds, so the rows must match bit-for-bit.

Runs are interleaved and each side takes its min-of-N, which strips
scheduler jitter; both sides run the same two-worker process pool and
scheduling loop, so the race isolates the journal/lease overhead.
Every durable repetition gets a fresh store (a resumed store would serve
checkpoints and measure nothing).  Rows land in
``results/BENCH_fabric.json``.
"""

import shutil
import tempfile
import time

import numpy as np

from _common import emit, format_table, run_once, save

from repro.noise import paper_noise
from repro.sweeps import SweepExecutor, WorkUnit

#: The acceptance ceiling: durable execution stays within this factor of
#: the in-memory store on the reference grid.
DURABLE_CEILING = 1.25

#: Interleaved repetitions per side; min-of-N strips scheduler jitter.
REPETITIONS = 3

#: The reference d=3 grid, deliberately *not* scaled by REPRO_SCALE: the
#: overhead bound is asserted on the same workload everywhere.
DISTANCE = 3
POLICIES = ("eraser+m", "gladiator+m")
SHOTS = 6400
ROUNDS = 10
SHARD_SHOTS = 1600
WORKERS = 2


def _units() -> list[WorkUnit]:
    return [
        WorkUnit(
            family="surface",
            distance=DISTANCE,
            noise=paper_noise(),
            policy=policy,
            shots=SHOTS,
            rounds=ROUNDS,
            leakage_sampling=True,
            seed=9,
        )
        for policy in POLICIES
    ]


def _timed_memory(units):
    executor = SweepExecutor(workers=WORKERS, cache=None, shard_shots=SHARD_SHOTS)
    started = time.perf_counter()
    rows = executor.run_units(units)
    return rows, time.perf_counter() - started


def _timed_durable(units):
    # A fresh store per repetition: resuming a finished store would serve
    # checkpoints and measure nothing.
    root = tempfile.mkdtemp(prefix="bench_fabric_")
    try:
        executor = SweepExecutor(
            workers=WORKERS, cache=None, shard_shots=SHARD_SHOTS, durable=True, root=root
        )
        started = time.perf_counter()
        rows = executor.run_units(units)
        elapsed = time.perf_counter() - started
        assert executor.shards_executed == len(units) * (SHOTS // SHARD_SHOTS)
        assert not executor.failed_units
        return rows, elapsed
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _assert_rows_equal(durable_rows, memory_rows):
    for durable, memory in zip(durable_rows, memory_rows):
        assert durable.keys() == memory.keys()
        for key, value in memory.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(durable[key], value), key
            else:
                assert durable[key] == value, key


def test_durable_fabric_overhead(benchmark):
    units = _units()

    def workload():
        memory_seconds = []
        durable_seconds = []
        for _ in range(REPETITIONS):
            # Interleaved A/B: thermal and scheduler drift hits both sides.
            memory_rows, memory_s = _timed_memory(units)
            durable_rows, durable_s = _timed_durable(units)
            memory_seconds.append(memory_s)
            durable_seconds.append(durable_s)
            # Same shard plans, same seeds: the durable run must merge
            # bit-identical to the in-memory one.
            _assert_rows_equal(durable_rows, memory_rows)
        memory_best = min(memory_seconds)
        durable_best = min(durable_seconds)
        return [
            {
                "config": "d3-policy-grid",
                "distance": DISTANCE,
                "policies": len(POLICIES),
                "shots": SHOTS,
                "rounds": ROUNDS,
                "shards_per_unit": SHOTS // SHARD_SHOTS,
                "workers": WORKERS,
                "repetitions": REPETITIONS,
                "memory_seconds": memory_best,
                "durable_seconds": durable_best,
                "overhead_ratio": durable_best / memory_best,
                "ceiling": DURABLE_CEILING,
            }
        ]

    rows = run_once(benchmark, workload)
    emit(
        "Durable-store overhead: on-disk vs in-memory job store",
        format_table(rows),
    )
    save(
        "BENCH_fabric",
        {
            "policies": list(POLICIES),
            "shard_shots": SHARD_SHOTS,
            "ceiling": DURABLE_CEILING,
            "repetitions": REPETITIONS,
        },
        rows,
    )
    assert rows[0]["overhead_ratio"] <= DURABLE_CEILING, rows[0]
