"""Live SLO accounting for the decode server.

:class:`SloTracker` is the observer every shard's
:class:`~repro.realtime.service.DecodeService` reports into.  Its window
books are one :class:`~repro.realtime.accounting.LatencyRecorder` — the
class that books each stream's windows — fed by the same per-window call
from the worker that decoded the window, so the served rounds, windows,
per-round decode latency and queue wait count every window, tail windows
included.  On top it keeps only the dispatch, stream, rejection and
queue-depth counters, mirrors the headline counters into the global
:data:`~repro.obs.metrics.METRICS` registry under ``serve.*`` names, and
renders the p50/p99/p999 tail priced against the microarchitecture round
budget (``ROUND_LATENCY_NS``) — the number a control system actually cares
about: *how many hardware round periods does one served round cost at the
tail?*

Everything here is called from scheduler/worker threads of several shards
concurrently, so state updates take one short lock and snapshots copy
under it.
"""

from __future__ import annotations

import threading

from ..hardware.microarchitecture import ROUND_LATENCY_NS
from ..obs.metrics import METRICS, Histogram
from ..realtime.accounting import LatencyRecorder

__all__ = ["SloTracker"]

#: Serving telemetry mirrored into the global registry; no-ops unless a
#: telemetry scope is active (the recorder's histograms are always on).
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
        self.recorder = LatencyRecorder(
            histogram=Histogram("serve.round_latency"),
            wait_histogram=Histogram("serve.window_wait"),
        )
        self.batches = 0
        self.streams_done = 0
        self.stream_errors = 0
        self.admission_rejected = 0
        self.queue_depth = 0
        self.max_queue_depth = 0

    # ---------------- decode-service events ---------------- #
    def on_window(
        self, committed_rounds: int, service_seconds: float, wait_seconds: float
    ) -> None:
        """One window committed for one stream, tail windows included."""
        with self._lock:
            self.recorder.record(committed_rounds, service_seconds, wait_seconds)
        _OBS_ROUNDS.inc(committed_rounds)
        _OBS_WINDOWS.inc()

    def on_batch(self) -> None:
        """One decode dispatch went out (each of its windows also reports
        through :meth:`on_window`)."""
        with self._lock:
            self.batches += 1
        _OBS_BATCHES.inc()

    def on_queue_depth(self, depth: int) -> None:
        """Pending-window queue depth after an enqueue."""
        with self._lock:
            self.queue_depth = depth
            self.max_queue_depth = max(self.max_queue_depth, depth)
        if METRICS.enabled:
            _OBS_QUEUE_DEPTH.set(depth)

    def on_stream_done(self, error: BaseException | None) -> None:
        """A stream finished (successfully, aborted, or with ``error``)."""
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
    def snapshot(self) -> dict:
        """Flat live-SLO dictionary (the ``--status`` payload body).

        ``round_latency_*_ns`` are the per-round decode percentiles;
        ``slo_*`` divides them by the hardware round cadence
        (``ROUND_LATENCY_NS``) — 1.0 means that percentile exactly keeps up
        with syndrome extraction.
        """
        with self._lock:
            p50 = self.recorder.percentile(50)
            p99 = self.recorder.percentile(99)
            p999 = self.recorder.percentile(99.9)
            wait_p99 = self.recorder.wait_histogram.percentile(99)
            windows = self.recorder.windows
            batches = self.batches
            snapshot = {
                "rounds": self.recorder.rounds_committed,
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
