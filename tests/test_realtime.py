"""Tests of the realtime subsystem: streams, sliding windows, decode service."""

import queue
import threading
import time

import numpy as np
import pytest

from repro.codes import color_code, surface_code
from repro.core import make_policy
from repro.decoders import DetectorGraph, SyndromeCache, UnionFindDecoder, make_decoder
from repro.decoders.base import DecoderBase
from repro.experiments import MemoryExperiment
from repro.experiments.memory import PERF_SUMMARY_KEYS
from repro.noise import ideal_noise, paper_noise
from repro.realtime import (
    DecodeService,
    ReplayStream,
    ServiceClosed,
    SimulatorStream,
    WindowedDecoder,
)
from repro.serve.slo import SloTracker
from repro.sim import LeakageSimulator, SimulatorOptions

HEAVY = paper_noise(p=2e-3, leakage_ratio=1.0)


def _recorded_run(code, noise, shots, rounds, seed, policy="eraser+m"):
    simulator = LeakageSimulator(
        code=code,
        noise=noise,
        policy=make_policy(policy),
        options=SimulatorOptions(record_detectors=True),
        seed=seed,
    )
    return simulator.run(shots=shots, rounds=rounds)


# --------------------------------------------------------------------- #
# Streams
# --------------------------------------------------------------------- #
def test_replay_stream_chunks_round_trip(surface_d3):
    result = _recorded_run(surface_d3, HEAVY, shots=12, rounds=5, seed=1)
    stream = ReplayStream.from_run_result(result)
    assert (stream.shots, stream.rounds) == (12, 5)
    chunks = list(stream.chunks())
    assert [c.round_index for c in chunks] == list(range(5))
    for index, chunk in enumerate(chunks):
        assert np.array_equal(chunk.detectors, result.detector_history[:, index, :])
    final = stream.final()
    assert np.array_equal(final.final_detectors, result.final_detectors)
    assert np.array_equal(final.observable_flips, result.observable_flips)


def test_replay_stream_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ReplayStream(np.zeros((3, 4), dtype=bool), np.zeros((3, 4), dtype=bool))
    with pytest.raises(ValueError):
        ReplayStream(np.zeros((3, 4, 2), dtype=bool), np.zeros((3, 5), dtype=bool))


def test_simulator_stream_matches_offline_run(surface_d3):
    """Streaming the simulator is bit-identical to running it offline."""
    offline = _recorded_run(surface_d3, HEAVY, shots=15, rounds=6, seed=9)
    stream = SimulatorStream(
        code=surface_d3,
        noise=HEAVY,
        policy=make_policy("eraser+m"),
        shots=15,
        rounds=6,
        seed=9,
    )
    for chunk in stream.chunks():
        assert np.array_equal(
            chunk.detectors, offline.detector_history[:, chunk.round_index, :]
        )
    final = stream.final()
    assert np.array_equal(final.final_detectors, offline.final_detectors)
    assert np.array_equal(final.observable_flips, offline.observable_flips)
    assert stream.result.summary() == offline.summary()


def test_simulator_stream_final_requires_exhaustion(surface_d3):
    stream = SimulatorStream(
        code=surface_d3, noise=HEAVY, policy=make_policy("no-lrc"), shots=5, rounds=3
    )
    with pytest.raises(RuntimeError):
        stream.final()


# --------------------------------------------------------------------- #
# Windowed decoding: proof-of-equivalence path
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("make_code", [lambda: surface_code(3), lambda: color_code(3)], ids=["surface", "color"])
@pytest.mark.parametrize("method", ["matching", "union_find"])
def test_full_window_matches_offline_memory_experiment(make_code, method):
    """window >= rounds must reproduce offline failure counts bit-for-bit."""
    code = make_code()
    kwargs = dict(
        code=code,
        noise=HEAVY,
        policy=make_policy("eraser+m"),
        decoder_method=method,
        seed=13,
    )
    offline = MemoryExperiment(**kwargs).run(shots=40, rounds=6)
    windowed = MemoryExperiment(**kwargs, window_rounds=6).run(shots=40, rounds=6)
    oversized = MemoryExperiment(**kwargs, window_rounds=50).run(shots=40, rounds=6)
    assert windowed.failures == offline.failures
    assert oversized.failures == offline.failures
    # Perf diagnostics (cache hit rate, dedup ratio) are path-dependent;
    # bit identity is asserted on the physics keys.
    strip = lambda summary: {
        k: v for k, v in summary.items() if k not in PERF_SUMMARY_KEYS
    }
    assert strip(windowed.summary()) == strip(offline.summary())


@pytest.mark.parametrize("method", ["matching", "union_find"])
def test_full_window_stream_pipeline_matches_offline_decode(surface_d3, method):
    """stream -> window -> commit equals offline graph decoding exactly."""
    result = _recorded_run(surface_d3, HEAVY, shots=30, rounds=8, seed=3)
    graph = DetectorGraph(code=surface_d3, rounds=8, noise=HEAVY)
    offline = make_decoder(graph, method).decode_batch(
        result.detector_history, result.final_detectors
    )
    windowed = WindowedDecoder(
        code=surface_d3, noise=HEAVY, rounds=8, window_rounds=8, method=method
    )
    predictions = windowed.decode_stream(ReplayStream.from_run_result(result))
    assert np.array_equal(predictions, offline)


# --------------------------------------------------------------------- #
# Windowed decoding: genuine sliding path
# --------------------------------------------------------------------- #
def test_sliding_window_noiseless_is_perfect(surface_d3):
    result = _recorded_run(
        surface_d3, ideal_noise(), shots=20, rounds=9, seed=2, policy="no-lrc"
    )
    windowed = WindowedDecoder(
        code=surface_d3, noise=paper_noise(), rounds=9, window_rounds=3, commit_rounds=2
    )
    predictions = windowed.decode_stream(ReplayStream.from_run_result(result))
    assert not predictions.any()


@pytest.mark.parametrize("method", ["matching", "union_find"])
def test_sliding_window_tracks_offline_accuracy(surface_d3, method):
    """Short windows lose little accuracy and stay deterministic."""
    result = _recorded_run(surface_d3, HEAVY, shots=80, rounds=12, seed=21)
    graph = DetectorGraph(code=surface_d3, rounds=12, noise=HEAVY)
    offline = make_decoder(graph, method).decode_batch(
        result.detector_history, result.final_detectors
    )
    windowed = WindowedDecoder(
        code=surface_d3, noise=HEAVY, rounds=12, window_rounds=6, commit_rounds=3,
        method=method,
    )
    first = windowed.decode_stream(ReplayStream.from_run_result(result))
    second = windowed.decode_stream(ReplayStream.from_run_result(result))
    assert np.array_equal(first, second)  # deterministic
    offline_failures = int((offline ^ result.observable_flips).sum())
    window_failures = int((first ^ result.observable_flips).sum())
    assert abs(window_failures - offline_failures) <= max(4, offline_failures // 2)


def test_window_session_buffer_stays_bounded_and_records_latency(surface_d3):
    result = _recorded_run(surface_d3, HEAVY, shots=10, rounds=12, seed=4)
    windowed = WindowedDecoder(
        code=surface_d3, noise=HEAVY, rounds=12, window_rounds=4, commit_rounds=2
    )
    session = windowed.session(10)
    max_buffered = 0
    for chunk in ReplayStream.from_run_result(result).chunks():
        session.feed(chunk)
        while session.ready():
            session.step()
        max_buffered = max(max_buffered, session.ring.next_round - session.ring.base)
    session.finish(ReplayStream.from_run_result(result).final())
    # The buffer never holds more than window + 1 context rounds.
    assert max_buffered <= 5


def test_window_session_rejects_out_of_order_chunks(surface_d3):
    result = _recorded_run(surface_d3, HEAVY, shots=5, rounds=4, seed=5)
    stream = ReplayStream.from_run_result(result)
    chunks = list(stream.chunks())
    session = WindowedDecoder(
        code=surface_d3, noise=HEAVY, rounds=4, window_rounds=4
    ).session(5)
    session.feed(chunks[0])
    with pytest.raises(ValueError):
        session.feed(chunks[2])
    with pytest.raises(RuntimeError):
        session.finish(stream.final())  # incomplete stream


def test_windowed_decoder_validates_configuration(surface_d3):
    with pytest.raises(ValueError):
        WindowedDecoder(code=surface_d3, noise=HEAVY, rounds=0, window_rounds=4)
    with pytest.raises(ValueError):
        WindowedDecoder(code=surface_d3, noise=HEAVY, rounds=8, window_rounds=0)
    with pytest.raises(ValueError):
        WindowedDecoder(
            code=surface_d3, noise=HEAVY, rounds=8, window_rounds=4, commit_rounds=5
        )
    default = WindowedDecoder(code=surface_d3, noise=HEAVY, rounds=20, window_rounds=8)
    assert default.commit_rounds == 4
    assert default.effective_window == 8
    assert WindowedDecoder(
        code=surface_d3, noise=HEAVY, rounds=6, window_rounds=8
    ).effective_window == 6


# --------------------------------------------------------------------- #
# Decode service
# --------------------------------------------------------------------- #
def _make_streams(code, count, shots=15, rounds=12):
    return [
        SimulatorStream(
            code=code,
            noise=HEAVY,
            policy=make_policy("gladiator+m"),
            shots=shots,
            rounds=rounds,
            seed=7 + 11 * index,
        )
        for index in range(count)
    ]


def test_service_multiplexes_four_streams(surface_d3):
    reports = DecodeService(window_rounds=6, workers=3, queue_depth=2).run(
        _make_streams(surface_d3, 4)
    )
    assert len(reports) == 4
    for report in reports:
        assert report.failures is not None
        assert report.recorder.rounds_committed == 12
        summary = report.summary()
        assert summary["rounds_per_second"] > 0
        assert summary["round_latency_p99"] >= summary["round_latency_p50"] > 0
        assert "realtime_factor" in summary


def test_service_results_match_serial_windowed_decode(surface_d3):
    """Concurrency must not change any prediction: service == serial."""
    reports = DecodeService(window_rounds=6, workers=4).run(_make_streams(surface_d3, 4))
    for index, stream in enumerate(_make_streams(surface_d3, 4)):
        windowed = WindowedDecoder(
            code=surface_d3, noise=HEAVY, rounds=12, window_rounds=6
        )
        predictions = windowed.decode_stream(stream)
        failures = int((predictions ^ stream.final().observable_flips).sum())
        assert reports[index].failures == failures


def test_service_accepts_replay_streams_with_provenance(surface_d3):
    result = _recorded_run(surface_d3, HEAVY, shots=10, rounds=6, seed=6)
    stream = ReplayStream.from_run_result(result)
    stream.code, stream.noise = surface_d3, HEAVY
    (report,) = DecodeService(window_rounds=6, workers=1).run([stream])
    assert report.failures is not None


def test_service_rejects_streams_without_provenance(surface_d3):
    result = _recorded_run(surface_d3, HEAVY, shots=4, rounds=4, seed=6)
    with pytest.raises(ValueError):
        DecodeService(window_rounds=4).run([ReplayStream.from_run_result(result)])
    with pytest.raises(ValueError):
        DecodeService(window_rounds=4, workers=0)


def test_service_empty_input():
    assert DecodeService(window_rounds=4).run([]) == []


# --------------------------------------------------------------------- #
# Decode service error paths and backpressure
# --------------------------------------------------------------------- #
def test_service_propagates_worker_configuration_error(surface_d3):
    """A decoder that cannot be built fails the run, not just one worker."""
    service = DecodeService(window_rounds=6, workers=2, method="nonexistent")
    with pytest.raises(ValueError, match="unknown decoder"):
        service.run(_make_streams(surface_d3, 2))


def test_service_propagates_mid_decode_exception(surface_d3, monkeypatch):
    """An exception inside a worker's decode surfaces in run() and the pool
    shuts down cleanly instead of hanging."""

    def explode(self, *args):
        raise RuntimeError("decoder blew up mid-window")

    # Every entry point: the compiled rows and the interpreted path they
    # defer to.
    monkeypatch.setattr(UnionFindDecoder, "_decode_rows", explode)
    monkeypatch.setattr(UnionFindDecoder, "_edges_for_syndrome", explode)
    service = DecodeService(window_rounds=6, workers=2, method="union_find")
    with pytest.raises(RuntimeError, match="blew up mid-window"):
        service.run(_make_streams(surface_d3, 3))
    # The pool is gone: only this test's thread remains of the service.
    assert not [t for t in threading.enumerate() if t.name.startswith("decode-")]


def test_service_backpressure_bounds_queue_under_slow_decoder(surface_d3, monkeypatch):
    """With a slow decoder the bounded queue fills (producer blocks) and the
    results still match the serial windowed decode exactly."""
    from repro.realtime import service as service_module

    max_seen = {"depth": 0}
    lock = threading.Lock()
    real_queue = queue.Queue

    class TrackingQueue(real_queue):
        def put(self, item, *args, **kwargs):
            super().put(item, *args, **kwargs)
            with lock:
                max_seen["depth"] = max(max_seen["depth"], self.qsize())

    real_decode = DecoderBase.decode_edges_unique

    def decode_edges_unique(self, *args):
        time.sleep(0.005)
        return real_decode(self, *args)

    monkeypatch.setattr(service_module.queue, "Queue", TrackingQueue)
    monkeypatch.setattr(DecoderBase, "decode_edges_unique", decode_edges_unique)
    service = DecodeService(window_rounds=4, commit_rounds=2, workers=1, queue_depth=1)
    reports = service.run(_make_streams(surface_d3, 3))
    assert max_seen["depth"] == 1  # the queue filled: backpressure engaged
    for index, stream in enumerate(_make_streams(surface_d3, 3)):
        windowed = WindowedDecoder(
            code=surface_d3, noise=HEAVY, rounds=12, window_rounds=4, commit_rounds=2
        )
        predictions = windowed.decode_stream(stream)
        failures = int((predictions ^ stream.final().observable_flips).sum())
        assert reports[index].failures == failures


def test_run_draws_at_most_two_rounds_past_the_window(surface_d3, monkeypatch):
    """With a slow decoder, run() never draws a source more than
    ``effective_window + 2`` rounds ahead of its stream's committed rounds."""
    from repro.realtime.window import WindowSession

    lock = threading.Lock()
    committed: dict[int, int] = {}  # stream shots -> rounds committed
    ahead: list[int] = []
    real_decode = DecoderBase.decode_edges_unique
    real_commit = WindowSession.commit_window

    def decode_edges_unique(self, *args):
        time.sleep(0.005)
        return real_decode(self, *args)

    def commit_window(self, *args, **kwargs):
        # Counted before the commit lands, so the count never trails the
        # session's own committed rounds.
        with lock:
            committed[self.shots] = (
                committed.get(self.shots, 0) + self.windowed.commit_rounds
            )
        return real_commit(self, *args, **kwargs)

    monkeypatch.setattr(DecoderBase, "decode_edges_unique", decode_edges_unique)
    monkeypatch.setattr(WindowSession, "commit_window", commit_window)
    # Distinct shot counts tell the streams' sessions apart.
    streams = [
        _make_streams(surface_d3, 1, shots=shots, rounds=12)[0] for shots in (5, 6, 7)
    ]
    for stream in streams:

        def chunks(source=stream.chunks, shots=stream.shots):
            for drawn, chunk in enumerate(source(), start=1):
                with lock:
                    ahead.append(drawn - committed.get(shots, 0))
                yield chunk

        stream.chunks = chunks
    service = DecodeService(window_rounds=4, commit_rounds=2, workers=1)
    reports = service.run(streams)
    assert [report.rounds for report in reports] == [12, 12, 12]
    assert len(ahead) == 36
    assert max(ahead) <= 4 + 2


def test_run_source_error_fails_only_its_stream(surface_d3):
    """A source raising mid-stream fails its own stream: run() raises that
    error, the other streams still decode, and the pool is joined."""
    streams = _make_streams(surface_d3, 3)
    source = streams[1].chunks

    def failing_chunks():
        for chunk in source():
            if chunk.round_index == 3:
                raise RuntimeError("source died on round 3")
            yield chunk

    streams[1].chunks = failing_chunks
    tracker = SloTracker()
    service = DecodeService(window_rounds=4, workers=2, observer=tracker)
    with pytest.raises(RuntimeError, match="source died on round 3"):
        service.run(streams)
    assert tracker.streams_done == 3
    assert tracker.stream_errors == 1
    assert not [t for t in threading.enumerate() if t.name.startswith("decode-")]


def test_run_walks_entries_once_per_dispatch(surface_d3, monkeypatch):
    """Every dispatch (a coalesced group, a lone window or a tail) is one
    decode call and one ``entries_commit`` walk, not one walk per window."""
    from repro.realtime import service as service_module
    from repro.realtime import window as window_module

    lock = threading.Lock()
    counts = {"decodes": 0, "walks": 0}
    real_decode = DecoderBase.decode_edges_unique
    real_walk = window_module.entries_commit

    def decode_edges_unique(self, *args):
        with lock:
            counts["decodes"] += 1
        time.sleep(0.005)  # slow decodes let other streams' windows pile up
        return real_decode(self, *args)

    def entries_commit(*args):
        with lock:
            counts["walks"] += 1
        return real_walk(*args)

    monkeypatch.setattr(DecoderBase, "decode_edges_unique", decode_edges_unique)
    monkeypatch.setattr(service_module, "entries_commit", entries_commit)
    monkeypatch.setattr(window_module, "entries_commit", entries_commit)
    # Replayed sources are drawn faster than the slow decoder keeps up, so
    # the streams' windows become ready together and coalesce.
    streams = []
    for seed in range(4):
        result = _recorded_run(surface_d3, HEAVY, shots=15, rounds=12, seed=40 + seed)
        streams.append(
            ReplayStream(
                result.detector_history,
                result.final_detectors,
                result.observable_flips,
                code=surface_d3,
                noise=HEAVY,
            )
        )
    tracker = SloTracker()
    service = DecodeService(
        window_rounds=4, commit_rounds=2, workers=1, queue_depth=1, observer=tracker
    )
    reports = service.run(streams)
    windows = sum(report.recorder.windows for report in reports)
    assert windows == tracker.recorder.windows == service.windows_decoded
    assert counts["walks"] == counts["decodes"] == tracker.batches
    # Coalesced windows shared a walk: fewer walks than windows decoded.
    assert len(streams) < counts["walks"] < windows


def test_run_on_started_service_keeps_the_pool(surface_d3):
    """run() on a start()-ed service leaves the pool running for later streams."""
    service = DecodeService(window_rounds=4, workers=2)
    service.start()
    try:
        assert len(service.run(_make_streams(surface_d3, 2))) == 2
        assert [t for t in threading.enumerate() if t.name == "decode-scheduler"]
        result = _recorded_run(surface_d3, HEAVY, shots=5, rounds=6, seed=31)
        handle = service.open_stream(code=surface_d3, noise=HEAVY, shots=5, rounds=6)
        for round_index in range(6):
            handle.feed_round(result.detector_history[:, round_index, :])
        handle.finish(result.final_detectors, result.observable_flips)
        handle.result(timeout=120)
    finally:
        service.close()
    windowed = WindowedDecoder(code=surface_d3, noise=HEAVY, rounds=6, window_rounds=4)
    expected = windowed.decode_stream(ReplayStream.from_run_result(result))
    assert np.array_equal(handle.predictions, expected)
    assert not [t for t in threading.enumerate() if t.name.startswith("decode-")]


# --------------------------------------------------------------------- #
# Push mode and shutdown semantics
# --------------------------------------------------------------------- #
def test_push_mode_matches_serial_decode_with_coalescing(surface_d3):
    """Two identical push-mode streams, coalesced, equal the serial decode."""
    result = _recorded_run(surface_d3, HEAVY, shots=10, rounds=8, seed=23)
    service = DecodeService(window_rounds=4, workers=2)
    service.start()
    try:
        handles = [
            service.open_stream(code=surface_d3, noise=HEAVY, shots=10, rounds=8)
            for _ in range(2)
        ]
        for round_index in range(8):
            for handle in handles:
                handle.feed_round(result.detector_history[:, round_index, :])
        for handle in handles:
            handle.finish(result.final_detectors, result.observable_flips)
        reports = [handle.result(timeout=120) for handle in handles]
    finally:
        service.close()
    windowed = WindowedDecoder(code=surface_d3, noise=HEAVY, rounds=8, window_rounds=4)
    expected = windowed.decode_stream(ReplayStream.from_run_result(result))
    for handle, report in zip(handles, reports):
        assert np.array_equal(handle.predictions, expected)
        assert report.failures == int((expected ^ result.observable_flips).sum())


def test_push_mode_validates_round_feeding(surface_d3):
    result = _recorded_run(surface_d3, HEAVY, shots=5, rounds=6, seed=27)
    width = result.detector_history.shape[2]
    service = DecodeService(window_rounds=3, workers=1)
    service.start()
    try:
        with pytest.raises(ValueError, match="positive"):
            service.open_stream(code=surface_d3, noise=HEAVY, shots=5, rounds=0)
        handle = service.open_stream(code=surface_d3, noise=HEAVY, shots=5, rounds=6)
        with pytest.raises(ValueError, match="round chunk must be"):
            handle.feed_round(np.zeros((5, width + 1), dtype=bool))
        # A rejected chunk must not advance the round counter.
        for round_index in range(6):
            handle.feed_round(result.detector_history[:, round_index, :])
        with pytest.raises(ValueError, match="cannot feed more"):
            handle.feed_round(result.detector_history[:, 0, :])
        handle.finish(result.final_detectors, result.observable_flips)
        with pytest.raises(RuntimeError, match="already finished"):
            handle.finish(result.final_detectors)
        handle.result(timeout=120)
        with pytest.raises(ServiceClosed):
            handle.feed_round(result.detector_history[:, 0, :])
    finally:
        service.close()


def test_push_mode_finish_requires_all_rounds(surface_d3):
    result = _recorded_run(surface_d3, HEAVY, shots=4, rounds=6, seed=28)
    service = DecodeService(window_rounds=3, workers=1)
    service.start()
    try:
        handle = service.open_stream(code=surface_d3, noise=HEAVY, shots=4, rounds=6)
        handle.feed_round(result.detector_history[:, 0, :])
        with pytest.raises(ValueError, match="declared 6 rounds but fed 1"):
            handle.finish(result.final_detectors)
    finally:
        service.close(drain=False)


def test_service_close_is_idempotent_and_raceless(surface_d3):
    """Concurrent close() calls while a stream hangs mid-window all return,
    join every thread exactly once, and leave the handle cleanly aborted."""
    result = _recorded_run(surface_d3, HEAVY, shots=4, rounds=8, seed=29)
    service = DecodeService(window_rounds=4, workers=2)
    service.start()
    handle = service.open_stream(code=surface_d3, noise=HEAVY, shots=4, rounds=8)
    for round_index in range(3):  # mid-window: never finishable
        handle.feed_round(result.detector_history[:, round_index, :])

    barrier = threading.Barrier(3)
    errors = []

    def closer():
        barrier.wait()
        try:
            service.close(drain=True, timeout=1)
        except BaseException as exc:  # pragma: no cover - the assert reports it
            errors.append(exc)

    closers = [threading.Thread(target=closer) for _ in range(3)]
    for thread in closers:
        thread.start()
    for thread in closers:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert errors == []
    assert not [t for t in threading.enumerate() if t.name.startswith("decode-")]
    service.close()  # after full termination: still a no-op
    with pytest.raises(ServiceClosed):
        handle.result(timeout=5)
    with pytest.raises(ServiceClosed):
        service.open_stream(code=surface_d3, noise=HEAVY, shots=4, rounds=8)
    with pytest.raises(ServiceClosed):
        service.run(_make_streams(surface_d3, 1))


def test_service_close_while_streams_backpressured(surface_d3, monkeypatch):
    """Closing while the scheduler is blocked on a full work queue must not
    deadlock: the slow worker drains the queue, aborts land, threads join."""
    real_decode = DecoderBase.decode_edges_unique

    def decode_edges_unique(self, *args):
        time.sleep(0.02)
        return real_decode(self, *args)

    monkeypatch.setattr(DecoderBase, "decode_edges_unique", decode_edges_unique)
    result = _recorded_run(surface_d3, HEAVY, shots=4, rounds=12, seed=31)
    service = DecodeService(window_rounds=2, commit_rounds=1, workers=1, queue_depth=1)
    service.start()
    handles = [
        service.open_stream(code=surface_d3, noise=HEAVY, shots=4, rounds=12)
        for _ in range(3)
    ]
    for round_index in range(12):
        for handle in handles:
            handle.feed_round(result.detector_history[:, round_index, :])
    time.sleep(0.05)  # let the scheduler wedge against the depth-1 queue
    service.close(drain=False)
    assert not [t for t in threading.enumerate() if t.name.startswith("decode-")]
    for handle in handles:
        with pytest.raises(ServiceClosed):
            handle.result(timeout=5)
    assert service.backpressure_stalls >= 0  # counter survived the abort


# --------------------------------------------------------------------- #
# Cached batch decoding through windows and the service
# --------------------------------------------------------------------- #
def test_windowed_decoder_cached_batch_path_reuses_syndromes(surface_d3):
    result = _recorded_run(surface_d3, HEAVY, shots=30, rounds=8, seed=19)
    shared = SyndromeCache()
    kwargs = dict(
        code=surface_d3, noise=HEAVY, rounds=8, window_rounds=4, commit_rounds=2
    )
    first = WindowedDecoder(**kwargs, cache=shared).decode_stream(
        ReplayStream.from_run_result(result)
    )
    stats = shared.stats()
    assert stats["misses"] > 0
    # The cache changes speed only: an uncached decode is bit-identical.
    uncached = WindowedDecoder(**kwargs, cache=SyndromeCache(0)).decode_stream(
        ReplayStream.from_run_result(result)
    )
    assert np.array_equal(first, uncached)
    # Replaying through the same cache decodes nothing new.
    second = WindowedDecoder(**kwargs, cache=shared).decode_stream(
        ReplayStream.from_run_result(result)
    )
    assert np.array_equal(second, first)
    replay_stats = shared.stats()
    assert replay_stats["misses"] == stats["misses"]
    assert replay_stats["hits"] > stats["hits"]


def test_service_streams_share_one_syndrome_cache(surface_d3):
    """Two identical streams through one service: the second is served almost
    entirely from the first one's cached corrections."""
    def twin_streams():
        return [
            SimulatorStream(
                code=surface_d3,
                noise=HEAVY,
                policy=make_policy("gladiator+m"),
                shots=15,
                rounds=12,
                seed=7,
            )
            for _ in range(2)
        ]

    service = DecodeService(window_rounds=6, workers=1)
    reports = service.run(twin_streams())
    stats = service.cache.stats()
    assert stats["hits"] > 0
    assert reports[0].failures == reports[1].failures
    # The shared cache changes speed only: each stream decoded alone through
    # an uncached windowed decoder fails on the same shots.
    plain = []
    for stream in twin_streams():
        predictions = WindowedDecoder(
            code=surface_d3, noise=HEAVY, rounds=12, window_rounds=6,
            cache=SyndromeCache(0),
        ).decode_stream(stream)
        plain.append(int(np.count_nonzero(predictions != stream.final().observable_flips)))
    assert plain == [r.failures for r in reports]


# --------------------------------------------------------------------- #
# MemoryExperiment routing and the CLI
# --------------------------------------------------------------------- #
def test_memory_experiment_sliding_window_path(surface_d3):
    experiment = MemoryExperiment(
        code=surface_d3,
        noise=HEAVY,
        policy=make_policy("eraser+m"),
        seed=17,
        window_rounds=4,
        commit_rounds=2,
    )
    result = experiment.run(shots=30, rounds=10)
    assert result.shots == 30
    assert 0 <= result.failures <= 30


def test_realtime_cli_runs_and_writes_records(tmp_path, capsys):
    from repro.__main__ import main
    from repro.io import load_records

    out = tmp_path / "realtime.json"
    argv = [
        "realtime", "--streams", "4", "--workers", "2", "--out", str(out),
        "--set", "execution.shots=6", "--set", "execution.rounds=8",
        "--set", "execution.window_rounds=4",
    ]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "4 streams" in printed
    records = load_records(out)
    assert len(records) == 4
    assert all(record.metrics["rounds_committed"] == 8 for record in records)


def test_realtime_cli_rejects_bad_arguments(tmp_path):
    from repro.__main__ import main

    windowed = ["--set", "execution.window_rounds=4"]
    assert main(["realtime", "--streams", "0", *windowed]) == 2
    assert main(["realtime", "--set", "code.name=nope", *windowed]) == 2
