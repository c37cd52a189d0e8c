"""Live SLO accounting for the decode server.

:class:`SloTracker` is the :class:`~repro.realtime.service.ServiceObserver`
every shard reports into.  It maintains the serving-side latency
distribution (decode seconds per committed round, the same per-round unit
:class:`~repro.realtime.accounting.LatencyRecorder` uses) in an always-on
:class:`~repro.obs.metrics.Histogram`, mirrors the headline counters into
the global :data:`~repro.obs.metrics.METRICS` registry under ``serve.*``
names, and renders the p50/p99/p999 tail priced against the
microarchitecture round budget (``ROUND_LATENCY_NS``) — the number a
control system actually cares about: *how many hardware round periods does
one served round cost at the tail?*

Everything here is called from scheduler/worker threads of several shards
concurrently, so state updates take one short lock and snapshots copy
under it.
"""

from __future__ import annotations

import threading

from ..hardware.microarchitecture import ROUND_LATENCY_NS
from ..obs.metrics import METRICS, Histogram

__all__ = ["SloTracker"]

#: Serving telemetry mirrored into the global registry; no-ops unless a
#: telemetry scope is active (the private histogram below is always on).
_OBS_ROUNDS = METRICS.counter("serve.rounds", "syndrome rounds committed by the server")
_OBS_WINDOWS = METRICS.counter("serve.windows", "stream windows decoded by the server")
_OBS_BATCHES = METRICS.counter("serve.batches", "decode dispatches")
_OBS_STREAMS = METRICS.counter("serve.streams", "streams completed by the server")
_OBS_REJECTED = METRICS.counter("serve.admission_rejected", "streams refused admission")
_OBS_QUEUE_DEPTH = METRICS.gauge("serve.queue_depth", "max shard queue depth observed")


class SloTracker:
    """Aggregates per-window observations from every shard into live SLOs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latency = Histogram("serve.round_latency")
        self._wait = Histogram("serve.window_wait")
        self.rounds = 0
        self.windows = 0
        self.batches = 0
        self.streams_done = 0
        self.stream_errors = 0
        self.admission_rejected = 0
        self.queue_depth = 0
        self.max_queue_depth = 0

    # ---------------- ServiceObserver interface ---------------- #
    def on_window(
        self,
        stream_id: int,
        label: str | None,
        committed_rounds: int,
        service_seconds: float,
        wait_seconds: float,
    ) -> None:
        per_round = service_seconds / max(1, committed_rounds)
        with self._lock:
            self.rounds += committed_rounds
            self.windows += 1
            self._latency.observe(per_round)
            self._wait.observe(wait_seconds)
        _OBS_ROUNDS.inc(committed_rounds)
        _OBS_WINDOWS.inc()

    def on_batch(self) -> None:
        with self._lock:
            self.batches += 1
        _OBS_BATCHES.inc()

    def on_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depth = depth
            self.max_queue_depth = max(self.max_queue_depth, depth)
        if METRICS.enabled:
            _OBS_QUEUE_DEPTH.set(depth)

    def on_stream_done(
        self, stream_id: int, label: str | None, error: BaseException | None
    ) -> None:
        with self._lock:
            self.streams_done += 1
            if error is not None:
                self.stream_errors += 1
        _OBS_STREAMS.inc()

    # ---------------- server-side events ---------------- #
    def on_rejected(self) -> None:
        with self._lock:
            self.admission_rejected += 1
        _OBS_REJECTED.inc()

    # ---------------- snapshots ---------------- #
    def percentile(self, q: float) -> float:
        """Per-round decode latency percentile in seconds."""
        return self._latency.percentile(q)

    def snapshot(self) -> dict:
        """Flat live-SLO dictionary (the ``--status`` payload body).

        ``round_latency_*_ns`` are the per-round decode percentiles;
        ``slo_*`` divides them by the hardware round cadence
        (``ROUND_LATENCY_NS``) — 1.0 means that percentile exactly keeps up
        with syndrome extraction.
        """
        with self._lock:
            p50 = self._latency.percentile(50)
            p99 = self._latency.percentile(99)
            p999 = self._latency.percentile(99.9)
            wait_p99 = self._wait.percentile(99)
            windows = self.windows
            batches = self.batches
            snapshot = {
                "rounds": self.rounds,
                "windows": windows,
                "streams_done": self.streams_done,
                "stream_errors": self.stream_errors,
                "admission_rejected": self.admission_rejected,
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
            }
        budget_seconds = ROUND_LATENCY_NS * 1e-9
        snapshot.update(
            {
                "round_latency_p50_ns": p50 * 1e9,
                "round_latency_p99_ns": p99 * 1e9,
                "round_latency_p999_ns": p999 * 1e9,
                "window_wait_p99_ns": wait_p99 * 1e9,
                "hardware_round_ns": ROUND_LATENCY_NS,
                "slo_p50": p50 / budget_seconds,
                "slo_p99": p99 / budget_seconds,
                "slo_p999": p999 / budget_seconds,
                # Windows per decode dispatch; 1.0 when nothing coalesced.
                "coalesce_ratio": windows / max(1, batches),
            }
        )
        return snapshot
