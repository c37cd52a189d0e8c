"""Latency and throughput accounting for streaming decoders.

Measured wall-clock numbers only mean something relative to the cadence the
hardware produces syndrome data at, so every summary is priced against the
microarchitecture cost model (:mod:`repro.hardware.microarchitecture`): one
syndrome-extraction round every ``ROUND_LATENCY_NS`` nanoseconds.  The
headline figure is ``realtime_factor`` — the hardware budget for the rounds
processed divided by the time the decoder actually took.  A factor of 1.0
means the decoder exactly keeps up; pure-Python decoding lands far below
1.0, and the point of recording it is to track the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hardware.microarchitecture import ROUND_LATENCY_NS, realtime_deadline_ns
from ..obs.metrics import Histogram

__all__ = ["WindowTiming", "LatencyRecorder", "StreamReport"]


@dataclass(frozen=True)
class WindowTiming:
    """One decoded window: rounds committed, decode time, queue wait."""

    committed_rounds: int
    service_seconds: float
    wait_seconds: float = 0.0


@dataclass
class LatencyRecorder:
    """Collects per-window timings of one stream and summarises them.

    The per-round latency distribution lives in a private
    :class:`~repro.obs.metrics.Histogram` (an always-on instrument metering
    this recorder's own data, independent of the global telemetry switch),
    so the percentiles here and the ones a telemetry snapshot reports come
    from the same primitive.  Summary keys are unchanged from the
    pre-histogram implementation.
    """

    timings: list[WindowTiming] = field(default_factory=list)
    histogram: Histogram = field(
        default_factory=lambda: Histogram("realtime.round_latency"), repr=False
    )

    def record(
        self, committed_rounds: int, service_seconds: float, wait_seconds: float = 0.0
    ) -> None:
        """Append one window's timing."""
        self.timings.append(
            WindowTiming(int(committed_rounds), float(service_seconds), float(wait_seconds))
        )
        self.histogram.observe(float(service_seconds) / max(1, int(committed_rounds)))

    def add_wait(self, wait_seconds: float) -> None:
        """Attach a queue wait to the most recently recorded window."""
        if not self.timings:
            return
        last = self.timings[-1]
        self.timings[-1] = WindowTiming(
            last.committed_rounds, last.service_seconds, last.wait_seconds + float(wait_seconds)
        )

    @property
    def windows(self) -> int:
        """Number of windows decoded."""
        return len(self.timings)

    @property
    def rounds_committed(self) -> int:
        """Total rounds finalised across all windows."""
        return sum(t.committed_rounds for t in self.timings)

    def percentile(self, q: float) -> float:
        """Percentile of the per-round decode latency (seconds)."""
        return self.histogram.percentile(q)

    def summary(self) -> dict:
        """Flat latency summary (seconds), priced against the hardware budget."""
        service = sum(t.service_seconds for t in self.timings)
        waits = [t.wait_seconds for t in self.timings]
        rounds = self.rounds_committed
        budget_seconds = realtime_deadline_ns(rounds) * 1e-9 if rounds else 0.0
        return {
            "windows": self.windows,
            "rounds_committed": rounds,
            "decode_seconds": service,
            "round_latency_p50": self.percentile(50),
            "round_latency_p99": self.percentile(99),
            "mean_queue_wait": float(np.mean(waits)) if waits else 0.0,
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
