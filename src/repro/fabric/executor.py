"""``FabricExecutor``: the sweep executor with the on-disk job store on.

There is one sweep executor, :class:`~repro.sweeps.executor.SweepExecutor`;
its ``durable`` flag picks between the in-memory and the on-disk
:class:`~repro.fabric.jobstore.JobStore`.  This subclass only flips that
default, for callers that name the durable executor directly.
"""

from __future__ import annotations

from typing import Any

from ..sweeps.executor import FabricInterrupted, SweepExecutor, sweep_store_root

__all__ = ["FabricExecutor", "FabricInterrupted", "sweep_store_root"]


class FabricExecutor(SweepExecutor):
    """:class:`SweepExecutor` with ``durable=True`` by default."""

    def __init__(self, *args: Any, durable: bool = True, **kwargs: Any) -> None:
        super().__init__(*args, durable=durable, **kwargs)
