"""Edge cases of the latency/SLO accounting (``realtime.accounting``, ``serve.slo``).

The percentile machinery feeds both per-stream summaries (golden-fixture
pinned elsewhere) and the server's live SLO snapshot, so its behavior on
degenerate inputs — no windows yet, a single sample, tail percentiles with
far fewer than 1000 observations — must be boring and well-defined.
"""

import sys
import threading

import numpy as np
import pytest

from repro.hardware.microarchitecture import ROUND_LATENCY_NS, realtime_deadline_ns
from repro.obs.metrics import Histogram
from repro.realtime import LatencyRecorder
from repro.realtime.accounting import StreamReport
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


def test_record_wait_drives_mean_queue_wait():
    recorder = LatencyRecorder()
    recorder.record(2, 1e-6)  # no wait given: books a zero wait
    recorder.record(2, 1e-6, 3e-6)
    recorder.record(3, 1e-6, 6e-6)
    summary = recorder.summary()
    assert summary["windows"] == 3
    assert summary["rounds_committed"] == 7
    assert summary["mean_queue_wait"] == pytest.approx(3e-6)
    assert recorder.wait_histogram.percentile(100) == pytest.approx(6e-6)


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
    tracker.on_window(4, 4 * budget_seconds, 0.0)
    tracker.on_window(2, 2 * budget_seconds, 0.0)
    snapshot = tracker.snapshot()
    assert snapshot["rounds"] == 6
    assert snapshot["windows"] == 2
    assert snapshot["slo_p50"] == pytest.approx(1.0)
    assert snapshot["slo_p999"] == pytest.approx(1.0)
    assert snapshot["round_latency_p50_ns"] == pytest.approx(ROUND_LATENCY_NS)


def test_coalesce_ratio_counts_solo_dispatches():
    tracker = SloTracker()
    for stream in range(4):
        tracker.on_window(1, 1e-6, 0.0)
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
        tracker.on_window(1, 1e-6, 0.0)
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
    tracker.on_stream_done(None)
    tracker.on_stream_done(RuntimeError("boom"))
    tracker.on_rejected()
    snapshot = tracker.snapshot()
    assert snapshot["streams_done"] == 2
    assert snapshot["stream_errors"] == 1
    assert snapshot["admission_rejected"] == 1


def test_tracker_books_concurrent_windows_without_losing_any():
    """Shard workers book windows concurrently; the tracker's lock keeps
    every count, sum and histogram sample."""
    tracker = SloTracker()
    threads_n, per_thread = 8, 400

    def book():
        for _ in range(per_thread):
            tracker.on_window(2, 1e-6, 1e-6)
            tracker.on_batch()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=book) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = threads_n * per_thread
    snapshot = tracker.snapshot()
    assert snapshot["windows"] == tracker.recorder.histogram.count == total
    assert snapshot["rounds"] == 2 * total
    assert tracker.recorder.wait_histogram.count == total
    assert tracker.recorder.decode_seconds == pytest.approx(total * 1e-6)
    assert snapshot["coalesce_ratio"] == pytest.approx(1.0)
