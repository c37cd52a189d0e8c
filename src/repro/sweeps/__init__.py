"""Parallel sweep engine: declarative grids, shot-sharding, memoization.

This package is the scaling layer between the experiment harness and the
simulator.  A sweep is declared as a :class:`SweepSpec` grid (code family x
distance x noise point x policy), compiled into independent
:class:`WorkUnit` jobs, and executed by a :class:`SweepExecutor` that shards
each unit's shot budget with deterministic per-shard seeding, runs the
shards on a process pool (or in-process with one worker), retries failed
shards, and memoizes finished units on disk (:class:`SweepCache`,
``.repro_cache/`` by default).  ``SweepExecutor(durable=True)`` keeps the
task records in the on-disk job store of :mod:`repro.fabric` instead.

The legacy serial entry points (:func:`repro.experiments.compare_policies`
and friends) are thin wrappers over this engine, so setting
``REPRO_WORKERS=4`` parallelises every benchmark script without further
changes; ``python -m repro.sweeps`` runs the named presets directly.

Quick start::

    from repro.sweeps import SweepSpec, SweepExecutor

    spec = SweepSpec(
        name="demo",
        distances=(3, 5, 7),
        policies=("eraser+m", "gladiator+m"),
        shots=1000,
        rounds=30,
    )
    rows = SweepExecutor(workers=4, cache=".repro_cache").run(spec)
"""

from .cache import SweepCache, default_cache_dir
from .executor import (
    SweepExecutor,
    cache_enabled,
    default_executor,
    default_workers,
    plan_shards,
    shard_seeds,
)
from .spec import SweepSpec
from .units import (
    WorkUnit,
    merge_shards,
    run_shard,
    run_unit_serial,
    summarize_unit,
    unit_key,
)

__all__ = [
    "SweepSpec",
    "SweepExecutor",
    "SweepCache",
    "WorkUnit",
    "unit_key",
    "run_shard",
    "run_unit_serial",
    "merge_shards",
    "summarize_unit",
    "plan_shards",
    "shard_seeds",
    "default_executor",
    "default_workers",
    "default_cache_dir",
    "cache_enabled",
]
