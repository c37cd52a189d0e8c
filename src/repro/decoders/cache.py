"""Syndrome-keyed correction cache shared by the batched decoders.

At the physical error rates the paper sweeps (p ~ 1e-3) most shots of a
memory batch fire no detectors at all, and the shots that do fire share a
small set of sparse syndromes.  Decoding is therefore massively redundant:
one matching (or union-find peel) serves thousands of shots.  The
:class:`SyndromeCache` exploits that redundancy *across* batches, streams
and decoder instances: it maps ``(decoder configuration, syndrome)`` to the
finished correction — the explicit edge list plus its logical-flip parity —
with least-recently-used eviction.

Keys embed the owning decoder's cache prefix, which includes the
:attr:`~repro.decoders.detector_graph.DetectorGraph.fingerprint` of the
detector graph and the decoder's configuration (method, growth cap), so
one cache instance can safely be shared between decoders over different
graphs — the realtime :class:`~repro.realtime.service.DecodeService` does
exactly that to let multiplexed streams pool their syndromes.  All
operations take an internal lock, so concurrent decode workers can share a
cache without corrupting the LRU order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from ..obs.metrics import METRICS

__all__ = ["SyndromeCache", "DEFAULT_CACHE_ENTRIES"]

#: Process-wide mirrors of the per-instance counters below; no-ops unless a
#: telemetry scope is active.
_OBS_HITS = METRICS.counter(
    "decode.cache.hits", "syndrome-cache lookups served from the cache"
)
_OBS_MISSES = METRICS.counter(
    "decode.cache.misses", "syndrome-cache lookups that had to decode"
)
_OBS_EVICTIONS = METRICS.counter(
    "decode.cache.evictions", "syndrome-cache LRU evictions"
)

#: Default LRU capacity.  Decoders only cache small syndromes (see
#: ``_CACHE_MAX_FIRED`` in :mod:`repro.decoders.base` — heavy leakage-flood
#: syndromes bypass the cache), so entries stay small and the default bound
#: costs at most a few tens of MB while covering far more unique syndromes
#: than a low-p sweep ever produces.
DEFAULT_CACHE_ENTRIES = 65_536


class SyndromeCache:
    """Thread-safe LRU map from (decoder config, syndrome) to corrections.

    ``maxsize`` bounds the number of cached syndromes; ``0`` disables the
    cache entirely (every :meth:`get` misses, :meth:`put` is a no-op), which
    keeps the batched decode path valid — deduplication within a batch still
    happens, only cross-call reuse is lost.
    """

    def __init__(self, maxsize: int | None = None) -> None:
        if maxsize is None:
            maxsize = DEFAULT_CACHE_ENTRIES
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self.maxsize > 0

    def get(self, key: Hashable) -> Any | None:
        """The cached correction for ``key``, or ``None`` (counts a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                _OBS_MISSES.inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            _OBS_HITS.inc()
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert a correction, evicting the least recently used beyond capacity."""
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                _OBS_EVICTIONS.inc()

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss/eviction counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        """Flat counters snapshot (for benchmarks and service reports)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }
