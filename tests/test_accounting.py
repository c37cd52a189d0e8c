"""Edge cases of the latency/SLO accounting (``realtime.accounting``, ``serve.slo``).

The percentile machinery feeds both per-stream summaries (golden-fixture
pinned elsewhere) and the server's live SLO snapshot, so its behavior on
degenerate inputs — no windows yet, a single sample, tail percentiles with
far fewer than 1000 observations — must be boring and well-defined.
"""

import numpy as np
import pytest

from repro.hardware.microarchitecture import ROUND_LATENCY_NS, realtime_deadline_ns
from repro.obs.metrics import Histogram
from repro.realtime import LatencyRecorder
from repro.realtime.accounting import StreamReport, WindowTiming
from repro.serve.slo import SloTracker


# --------------------------------------------------------------------- #
# Histogram percentiles
# --------------------------------------------------------------------- #
def test_empty_histogram_percentiles_are_zero():
    histogram = Histogram("t")
    for q in (0, 50, 99, 99.9, 100):
        assert histogram.percentile(q) == 0.0
    assert histogram.count == 0


def test_single_sample_dominates_every_percentile():
    histogram = Histogram("t")
    histogram.observe(3.5e-6)
    for q in (0, 50, 99, 99.9, 100):
        assert histogram.percentile(q) == pytest.approx(3.5e-6)


def test_p999_with_fewer_than_1000_samples_interpolates_to_tail():
    """With N << 1000 the p99.9 sits between the two largest samples."""
    histogram = Histogram("t")
    samples = [float(i) for i in range(1, 11)]  # 1..10
    for value in samples:
        histogram.observe(value)
    p999 = histogram.percentile(99.9)
    assert 9.0 < p999 <= 10.0
    assert histogram.percentile(100) == 10.0
    assert histogram.percentile(99.9) >= histogram.percentile(99)


# --------------------------------------------------------------------- #
# LatencyRecorder
# --------------------------------------------------------------------- #
def test_empty_recorder_summary_is_all_zero():
    summary = LatencyRecorder().summary()
    assert summary["windows"] == 0
    assert summary["rounds_committed"] == 0
    assert summary["decode_seconds"] == 0.0
    assert summary["round_latency_p50"] == 0.0
    assert summary["round_latency_p99"] == 0.0
    assert summary["mean_queue_wait"] == 0.0
    assert summary["realtime_factor"] == 0.0
    assert summary["hardware_round_ns"] == ROUND_LATENCY_NS


def test_single_window_summary():
    recorder = LatencyRecorder()
    recorder.record(committed_rounds=4, service_seconds=8e-6)
    summary = recorder.summary()
    assert summary["windows"] == 1
    assert summary["rounds_committed"] == 4
    # One sample: every percentile is the per-round latency of that window.
    assert summary["round_latency_p50"] == pytest.approx(2e-6)
    assert summary["round_latency_p99"] == pytest.approx(2e-6)
    assert summary["realtime_factor"] == pytest.approx(
        realtime_deadline_ns(4) * 1e-9 / 8e-6
    )


def test_zero_committed_rounds_window_does_not_divide_by_zero():
    recorder = LatencyRecorder()
    recorder.record(committed_rounds=0, service_seconds=5e-6)
    assert recorder.percentile(50) == pytest.approx(5e-6)
    # Zero rounds means zero budget, so the realtime factor collapses to 0.
    assert recorder.summary()["realtime_factor"] == 0.0


def test_add_wait_attaches_to_last_window_only():
    recorder = LatencyRecorder()
    recorder.add_wait(1.0)  # no windows yet: silently ignored
    assert recorder.timings == []
    recorder.record(2, 1e-6)
    recorder.record(2, 1e-6)
    recorder.add_wait(3e-6)
    recorder.add_wait(4e-6)
    assert recorder.timings[0].wait_seconds == 0.0
    assert recorder.timings[1].wait_seconds == pytest.approx(7e-6)


def test_stream_report_failures_are_optional():
    recorder = LatencyRecorder()
    recorder.record(3, 1e-6)
    blind = StreamReport(
        stream_id=1, shots=5, rounds=3, recorder=recorder, wall_seconds=1e-3
    )
    assert blind.logical_error_rate is None
    assert "failures" not in blind.summary()
    scored = StreamReport(
        stream_id=1,
        shots=5,
        rounds=3,
        recorder=recorder,
        failures=2,
        wall_seconds=1e-3,
    )
    assert scored.logical_error_rate == pytest.approx(0.4)
    assert scored.summary()["failures"] == 2


# --------------------------------------------------------------------- #
# SloTracker snapshot math
# --------------------------------------------------------------------- #
def test_empty_tracker_snapshot_is_zeroed():
    snapshot = SloTracker().snapshot()
    assert snapshot["rounds"] == 0
    assert snapshot["windows"] == 0
    assert snapshot["round_latency_p50_ns"] == 0.0
    assert snapshot["round_latency_p999_ns"] == 0.0
    assert snapshot["slo_p99"] == 0.0
    assert snapshot["coalesce_ratio"] == 0.0
    assert snapshot["hardware_round_ns"] == ROUND_LATENCY_NS


def test_tracker_prices_latency_against_round_budget():
    tracker = SloTracker()
    # Two windows, both costing exactly one hardware round per round.
    budget_seconds = ROUND_LATENCY_NS * 1e-9
    tracker.on_window(0, None, 4, 4 * budget_seconds, 0.0)
    tracker.on_window(1, None, 2, 2 * budget_seconds, 0.0)
    snapshot = tracker.snapshot()
    assert snapshot["rounds"] == 6
    assert snapshot["windows"] == 2
    assert snapshot["slo_p50"] == pytest.approx(1.0)
    assert snapshot["slo_p999"] == pytest.approx(1.0)
    assert snapshot["round_latency_p50_ns"] == pytest.approx(ROUND_LATENCY_NS)


def test_coalesce_ratio_counts_solo_dispatches():
    tracker = SloTracker()
    for stream in range(4):
        tracker.on_window(stream, None, 1, 1e-6, 0.0)
    # One dispatch merged 3 of the 4 windows; the fourth went out alone,
    # and every dispatch reports itself, a lone window included.
    tracker.on_batch()
    tracker.on_batch()
    snapshot = tracker.snapshot()
    # 4 windows over 2 dispatches.
    assert snapshot["coalesce_ratio"] == pytest.approx(2.0)


def test_coalesce_ratio_is_one_without_batching():
    tracker = SloTracker()
    for stream in range(5):
        tracker.on_window(stream, None, 1, 1e-6, 0.0)
        tracker.on_batch()
    assert tracker.snapshot()["coalesce_ratio"] == pytest.approx(1.0)


def test_queue_depth_tracks_maximum():
    tracker = SloTracker()
    for depth in (1, 3, 2):
        tracker.on_queue_depth(depth)
    snapshot = tracker.snapshot()
    assert snapshot["queue_depth"] == 2
    assert snapshot["max_queue_depth"] == 3


def test_stream_and_rejection_counters():
    tracker = SloTracker()
    tracker.on_stream_done(0, "a", None)
    tracker.on_stream_done(1, "b", RuntimeError("boom"))
    tracker.on_rejected()
    snapshot = tracker.snapshot()
    assert snapshot["streams_done"] == 2
    assert snapshot["stream_errors"] == 1
    assert snapshot["admission_rejected"] == 1
