"""Latency and throughput accounting for streaming decoders.

Measured wall-clock numbers only mean something relative to the cadence the
hardware produces syndrome data at, so every summary is priced against the
microarchitecture cost model (:mod:`repro.hardware.microarchitecture`): one
syndrome-extraction round every ``ROUND_LATENCY_NS`` nanoseconds.  The
headline figure is ``realtime_factor`` — the hardware budget for the rounds
processed divided by the time the decoder actually took.  A factor of 1.0
means the decoder exactly keeps up; pure-Python decoding lands far below
1.0, and the point of recording it is to track the trajectory.

:class:`LatencyRecorder` is the one set of window books: the decode
service's worker books every window it decodes, a stream's tail window
included, with one :meth:`LatencyRecorder.record` call into the stream's
recorder, and the decode server's :class:`~repro.serve.slo.SloTracker`
keeps its served-traffic books in another recorder fed by the same call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.microarchitecture import ROUND_LATENCY_NS, realtime_deadline_ns
from ..obs.metrics import Histogram

__all__ = ["LatencyRecorder", "StreamReport"]


@dataclass
class LatencyRecorder:
    """Running latency books over committed windows, summarised on demand.

    One :meth:`record` call books one window: its committed rounds, its
    decode (service) seconds and its queue wait.  Counts and sums are
    running totals; the per-round latency and the queue-wait distributions
    live in private :class:`~repro.obs.metrics.Histogram` instances (always
    on, metering this recorder's own data independently of the global
    telemetry switch), so the percentiles here and the ones a telemetry
    snapshot reports come from the same primitive.  A stream keeps one,
    and the decode server's :class:`~repro.serve.slo.SloTracker` keeps one
    for every window it serves.
    """

    windows: int = 0
    rounds_committed: int = 0
    decode_seconds: float = 0.0
    wait_seconds: float = 0.0
    histogram: Histogram = field(
        default_factory=lambda: Histogram("realtime.round_latency"), repr=False
    )
    wait_histogram: Histogram = field(
        default_factory=lambda: Histogram("realtime.window_wait"), repr=False
    )

    def record(
        self, committed_rounds: int, service_seconds: float, wait_seconds: float = 0.0
    ) -> None:
        """Book one window's committed rounds, decode time and queue wait."""
        rounds = int(committed_rounds)
        self.windows += 1
        self.rounds_committed += rounds
        self.decode_seconds += float(service_seconds)
        self.wait_seconds += float(wait_seconds)
        self.histogram.observe(float(service_seconds) / max(1, rounds))
        self.wait_histogram.observe(float(wait_seconds))

    def percentile(self, q: float) -> float:
        """Percentile of the per-round decode latency (seconds)."""
        return self.histogram.percentile(q)

    def summary(self) -> dict:
        """Flat latency summary (seconds), priced against the hardware budget."""
        rounds, service = self.rounds_committed, self.decode_seconds
        budget_seconds = realtime_deadline_ns(rounds) * 1e-9 if rounds else 0.0
        return {
            "windows": self.windows,
            "rounds_committed": rounds,
            "decode_seconds": service,
            "round_latency_p50": self.percentile(50),
            "round_latency_p99": self.percentile(99),
            "mean_queue_wait": self.wait_seconds / max(1, self.windows),
            "hardware_round_ns": ROUND_LATENCY_NS,
            "realtime_factor": budget_seconds / service if service > 0 else 0.0,
        }


@dataclass
class StreamReport:
    """Per-stream outcome of a decode-service run."""

    stream_id: int
    shots: int
    rounds: int
    recorder: LatencyRecorder
    failures: int | None = None
    wall_seconds: float = 0.0

    @property
    def logical_error_rate(self) -> float | None:
        """Observed LER of the stream, when the true observable was known."""
        if self.failures is None or self.shots == 0:
            return None
        return self.failures / self.shots

    @property
    def rounds_per_second(self) -> float:
        """Stream throughput in QEC rounds per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.rounds / self.wall_seconds

    def summary(self) -> dict:
        """Flat dictionary: identity, throughput, failures, latency stats."""
        row = {
            "stream": self.stream_id,
            "shots": self.shots,
            "rounds": self.rounds,
            "wall_seconds": self.wall_seconds,
            "rounds_per_second": self.rounds_per_second,
        }
        if self.failures is not None:
            row["failures"] = self.failures
            row["ler"] = self.logical_error_rate
        row.update(self.recorder.summary())
        return row
