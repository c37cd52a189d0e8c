"""Durable sweep fabric: checkpointed jobs, leases, crash-safe resume.

``repro.fabric`` holds the on-disk job store under the sweep engine.  The
one :class:`~repro.sweeps.executor.SweepExecutor` keeps its task records
in memory by default; with ``durable=True`` (or through
:class:`FabricExecutor`, which defaults to it) it journals every
(unit, shard) task to a :class:`JobStore` on disk, hands shards to
workers under TTL :class:`leases <repro.fabric.lease.LeaseManager>`, and
resumes crash-safely: re-running the same sweep loads completed shard
checkpoints instead of recomputing them and merges bit-identical to an
uninterrupted run.  Retries with poison-shard quarantine
(:class:`RetryPolicy`) apply to every sweep, durable or not.

Turn it on with ``execution.durable`` in an
:class:`~repro.api.config.ExperimentConfig` (digest-exempt — durable and
in-memory runs of the same physics share cache entries) or from the CLI::

    python -m repro sweep --distributed --config grid.json --axis code.distance=3,5

Fault injection for tests and CI lives in :mod:`repro.fabric.chaos`,
gated by the ``REPRO_CHAOS`` environment variable.

``repro.sweeps`` imports the store, lease, retry and chaos modules of this
package, so the executor names below resolve lazily: importing this
package never imports ``repro.sweeps``, and either package can be
imported first.
"""

from typing import Any

from .chaos import ChaosConfig, ChaosError, active_chaos
from .jobstore import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    JobStore,
    TaskSpec,
    decode_payload,
    encode_payload,
)
from .lease import Lease, LeaseManager
from .retry import RetryPolicy

__all__ = [
    "FabricExecutor",
    "FabricInterrupted",
    "sweep_store_root",
    "JobStore",
    "TaskSpec",
    "PENDING",
    "LEASED",
    "DONE",
    "FAILED",
    "encode_payload",
    "decode_payload",
    "Lease",
    "LeaseManager",
    "RetryPolicy",
    "ChaosConfig",
    "ChaosError",
    "active_chaos",
]


def __getattr__(name: str) -> Any:
    if name in ("FabricExecutor", "FabricInterrupted", "sweep_store_root"):
        from . import executor

        return getattr(executor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
