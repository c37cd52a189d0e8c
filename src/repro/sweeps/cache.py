"""On-disk memoization of completed sweep work units.

Every completed unit's summary row is written to
``.repro_cache/<key>.json`` where ``key`` is the stable content hash
produced by :func:`repro.sweeps.units.unit_key` — a digest of the code,
noise parameters, policy (and its configuration), shots, rounds and seed.
Re-running an identical sweep therefore loads rows straight from disk
instead of re-simulating; the 20 benchmark scripts share many identical
(point, policy) runs, which is exactly the duplication this eliminates.

The cache is deliberately dumb: one JSON file per unit, no locking beyond
an fsynced atomic rename on write (:mod:`repro.io.atomic`; concurrent
writers of the same key produce the same bytes).  A corrupt or truncated
entry — e.g. after power loss on a filesystem without ordered
journaling — is quarantined to ``<key>.json.corrupt`` and treated as a
miss, so one bad file can never wedge a sweep or mask itself as a
persistent error.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from ..io.atomic import atomic_write_bytes, quarantine
from ..io.results import _jsonable
from ..obs.metrics import METRICS
from .units import ENGINE_VERSION

__all__ = ["SweepCache", "default_cache_dir"]

#: Default cache location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

_OBS_CORRUPT = METRICS.counter(
    "sweep.cache.corrupt", "sweep cache files quarantined as corrupt"
)


def default_cache_dir() -> Path:
    """Cache directory honouring the ``REPRO_CACHE_DIR`` override."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


class SweepCache:
    """JSON file cache of unit summary rows, keyed by content hash.

    Counters (``hits``, ``misses``, ``stores``, ``corrupt``) are exposed so
    tests and the CLI can assert that a re-run skipped recomputation.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the cached summary row for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict) or "row" not in payload:
                raise ValueError("cache entry is not a summary payload")
        except (json.JSONDecodeError, ValueError):
            # A file that exists but does not parse is damage (torn write,
            # disk corruption), not a plain miss: quarantine it so the next
            # run re-simulates the unit.
            quarantine(path)
            self.corrupt += 1
            _OBS_CORRUPT.inc()
            self.misses += 1
            return None
        if payload.get("engine") != ENGINE_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        row = payload["row"]
        # dlp_per_round is an array in live rows; restore it on load.
        if "dlp_per_round" in row:
            row["dlp_per_round"] = np.asarray(row["dlp_per_round"], dtype=float)
        return row

    def put(self, key: str, row: dict[str, Any]) -> None:
        """Persist one summary row; atomic so readers never see partial JSON."""
        payload = {"engine": ENGINE_VERSION, "key": key, "row": _jsonable(row)}
        atomic_write_bytes(self._path(key), json.dumps(payload, sort_keys=True).encode())
        self.stores += 1
