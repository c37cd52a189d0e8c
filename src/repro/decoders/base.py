"""Template base class for matching-style decoders: batching and caching.

Both concrete decoders (:class:`~repro.decoders.matching.MatchingDecoder`
and :class:`~repro.decoders.union_find.UnionFindDecoder`) reduce to the
same skeleton: extract the fired detector nodes of a shot, turn them into a
correction — a list of detector-graph edges — and read the logical-flip
parity off that edge list.  Only the middle step differs, so it is the one
hook subclasses implement (:meth:`_edges_for_syndrome`); everything around
it lives here exactly once:

* **per-shot entry points** — :meth:`decode_shot` (logical parity) and
  :meth:`decode_shot_edges` (explicit edges, used by windowed decoding),
* **the batched fast path** — :meth:`decode_batch` (logical parities) and
  :meth:`decode_edges_unique` (correction edges per unique syndrome plus
  the scatter map, used by windowed decoding) pack the whole
  ``(shots, rounds, detectors)`` record into per-shot syndrome bitstrings
  with whole-batch NumPy ops, deduplicate identical syndromes by a 64-bit
  row hash and decode each unique syndrome once.  At low physical error rates most shots share a handful of
  syndromes, so one decode serves thousands of shots,
* **the cross-call cache** — every decoded syndrome lands in a
  :class:`~repro.decoders.cache.SyndromeCache` keyed by the detector
  graph's fingerprint plus the decoder's own configuration, so repeated
  batches, sliding windows and multiplexed realtime streams all reuse each
  other's work.  Decoders with different configurations (method,
  union-find growth cap) never alias: the configuration is part of the key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import METRICS
from . import _ckernels
from .cache import SyndromeCache
from .detector_graph import DetectorGraph

__all__ = ["DecoderBase"]

#: Batch-dedup telemetry: total shots entering the batched path vs unique
#: syndromes actually decoded; no-ops unless a telemetry scope is active.
_OBS_BATCH_SHOTS = METRICS.counter(
    "decode.batch.shots", "shots entering the batched decode path"
)
_OBS_BATCH_UNIQUE = METRICS.counter(
    "decode.batch.unique", "unique syndromes decoded after deduplication"
)
_OBS_HASH_COLLISIONS = METRICS.counter(
    "decode.batch.hash_collisions",
    "dedup hash collisions demoted to the exact row-sort path",
)

#: Cached entry: (correction edges, logical-flip parity).
_Entry = tuple[tuple[tuple[int, int], ...], int]

#: Syndromes firing more detectors than this bypass the cache entirely.
#: Heavy syndromes (un-mitigated leakage floods) are essentially never
#: repeated, so caching them buys no hits while each entry would hold a
#: large edge list — this bound keeps the cache's memory footprint tied to
#: the small, shareable syndromes it exists for.
_CACHE_MAX_FIRED = 32


@dataclass
class DecoderBase:
    """Shared decode/batch/cache machinery over a :class:`DetectorGraph`.

    ``cache`` is the syndrome->correction store; ``None`` gives the decoder
    a private cache of the default capacity.  Pass an explicit
    :class:`SyndromeCache` to share one across decoders (the realtime
    service does), or ``SyndromeCache(0)`` to disable cross-call reuse.
    """

    graph: DetectorGraph
    cache: SyndromeCache | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = SyndromeCache()
        self._cache_prefix = (self.graph.fingerprint, self._cache_config())
        # Lifetime dedup tallies of this instance's batched entry points.
        self.batch_shots = 0
        self.batch_unique = 0

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #
    def _edges_for_syndrome(self, flagged: np.ndarray) -> list[tuple[int, int]]:
        """Correction edges for one non-empty set of fired detector nodes."""
        raise NotImplementedError

    def _cache_config(self) -> tuple:
        """Hashable decoder configuration mixed into every cache key."""
        raise NotImplementedError

    def _fast_entry(self, flagged: np.ndarray) -> _Entry | None:
        """Optional compiled shortcut producing a whole ``(edges, flip)`` entry.

        Subclasses may return the exact entry the interpreted
        :meth:`_edges_for_syndrome` + parity path would build (bit for bit:
        same edges, same order, same parity) when a kernel can serve this
        syndrome, or ``None`` to take the interpreted path.  Results are
        cached identically either way, so the shortcut is invisible except
        in wall-clock time.
        """
        return None

    # ------------------------------------------------------------------ #
    # Per-shot entry points
    # ------------------------------------------------------------------ #
    def decode_shot(
        self, detector_history: np.ndarray, final_detectors: np.ndarray
    ) -> int:
        """Predict the logical flip (0/1) for one shot."""
        return self._decode_entry(detector_history, final_detectors)[1]

    def decode_shot_edges(
        self, detector_history: np.ndarray, final_detectors: np.ndarray
    ) -> list[tuple[int, int]]:
        """The correction as explicit graph edges (used by windowed decoding).

        Returns the list of ``(node_a, node_b)`` detector-graph edges along
        the corrected error chains; :meth:`decode_shot` is the parity of the
        logical-crossing edges in this list.
        """
        return list(self._decode_entry(detector_history, final_detectors)[0])

    # ------------------------------------------------------------------ #
    # Batched fast path
    # ------------------------------------------------------------------ #
    def decode_batch(
        self, detector_history: np.ndarray, final_detectors: np.ndarray
    ) -> np.ndarray:
        """Predict logical flips for a batch of shots.

        ``detector_history`` has shape ``(shots, rounds, num_z_stabs)`` and
        ``final_detectors`` shape ``(shots, num_z_stabs)``.  Identical
        detector-event bitstrings are decoded once and the result scattered
        back over the batch; bit-identical to looping :meth:`decode_shot`.
        """
        history, final, first, inverse = self._deduplicate(
            detector_history, final_detectors
        )
        flips = np.fromiter(
            (self._decode_entry(history[i], final[i])[1] for i in first),
            dtype=bool,
            count=len(first),
        )
        return flips[inverse]

    def decode_edges_unique(
        self, detector_history: np.ndarray, final_detectors: np.ndarray
    ) -> tuple[list[tuple[tuple[int, int], ...]], np.ndarray]:
        """Correction edges per *unique* syndrome, plus the scatter map.

        Returns ``(entries, inverse)`` where ``entries[inverse[s]]`` is shot
        ``s``'s correction — the representation
        :class:`repro.realtime.window.WindowSession` consumes so per-window
        commit work scales with unique syndromes instead of shots.
        """
        history, final, first, inverse = self._deduplicate(
            detector_history, final_detectors
        )
        entries = [self._decode_entry(history[i], final[i])[0] for i in first]
        return entries, inverse

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    @property
    def decode_identity(self) -> tuple:
        """Hashable (graph fingerprint, decoder tuning) identity.

        Two decoders with equal identity produce bit-identical corrections
        for every syndrome (same graph content, same algorithm tuning) and
        share cache entries — the compatibility key the decode service's
        cross-stream coalescer groups windows by.
        """
        return self._cache_prefix

    @property
    def batch_dedup_ratio(self) -> float:
        """Fraction of batched shots served by another shot's decode.

        ``1 - unique/shots`` over this instance's lifetime; ``0.0`` before
        any batched call.  Perf diagnostic only — never part of results.
        """
        if not self.batch_shots:
            return 0.0
        return 1.0 - self.batch_unique / self.batch_shots

    def decode_stats(self) -> dict:
        """Cache and dedup diagnostics of this decoder instance."""
        assert self.cache is not None  # __post_init__ guarantees it
        return {
            "cache_hit_rate": self.cache.stats()["hit_rate"],
            "dedup_ratio": self.batch_dedup_ratio,
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _deduplicate(
        self, detector_history: np.ndarray, final_detectors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Whole-batch syndrome extraction and deduplication.

        Returns ``(history, final, first, inverse)`` where ``first`` indexes
        one representative shot per unique syndrome and ``inverse`` maps
        every shot back onto its representative.
        """
        history = np.asarray(detector_history, dtype=bool)
        final = np.asarray(final_detectors, dtype=bool)
        shots = history.shape[0]
        if shots == 0:
            empty = np.zeros(0, dtype=np.intp)
            return history, final, empty, empty
        events = np.concatenate([history.reshape(shots, -1), final], axis=1)
        packed = np.packbits(events, axis=1)
        # Group by a 64-bit row hash (compiled, or its bit-identical NumPy
        # fallback) instead of lex-sorting the whole row matrix; the
        # grouping is verified against the raw rows, so a hash collision
        # only costs a demotion to the exact row sort, never a wrong merge.
        # Group *order* differs between the two, but every per-shot output
        # is rebuilt through ``inverse``, which erases the order.
        _, first, inverse = np.unique(
            _ckernels.hash_rows(packed), return_index=True, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        if not np.array_equiv(packed, packed[first[inverse]]):
            _OBS_HASH_COLLISIONS.inc()
            _, first, inverse = np.unique(
                packed, axis=0, return_index=True, return_inverse=True
            )
            inverse = inverse.reshape(-1)
        self.batch_shots += shots
        self.batch_unique += len(first)
        _OBS_BATCH_SHOTS.inc(shots)
        _OBS_BATCH_UNIQUE.inc(len(first))
        return history, final, first, inverse

    def _decode_entry(
        self, detector_history: np.ndarray, final_detectors: np.ndarray
    ) -> _Entry:
        """(edges, flip) for one shot, served from the cache when possible."""
        flagged = self.graph.flagged_nodes(detector_history, final_detectors)
        if flagged.size == 0:
            return ((), 0)
        cacheable = flagged.size <= _CACHE_MAX_FIRED
        if cacheable:
            key = (self._cache_prefix, flagged.astype(np.int64, copy=False).tobytes())
            entry = self.cache.get(key)
            if entry is not None:
                return entry
        entry = self._fast_entry(flagged)
        if entry is None:
            edges = tuple(
                (int(a), int(b)) for a, b in self._edges_for_syndrome(flagged)
            )
            parity = 0
            for node_a, node_b in edges:
                edge = self.graph.edge_between(node_a, node_b)
                if edge is not None and edge.flips_logical:
                    parity ^= 1
            entry = (edges, parity)
        if cacheable:
            self.cache.put(key, entry)
        return entry
