"""A batched decode service multiplexing many syndrome streams.

One logical qubit produces one syndrome stream; a control system serves
many.  :class:`DecodeService` models that shape in software: round chunks
are pushed into per-stream :class:`StreamHandle` objects, a scheduler loop
round-robins over the attached streams feeding those chunks into their
window sessions (the multiplexer), window-decode jobs are pushed onto a
*bounded* queue, and a pool of worker threads drains it.  When the queue is
full the scheduler blocks — backpressure — so buffered-but-undecoded
syndrome data stays bounded no matter how many streams are attached,
exactly the guarantee a real-time decoder has to make.

Per-stream ordering is preserved by keeping at most one job per stream in
flight (window ``k+1`` depends on the artifacts window ``k`` committed);
throughput comes from decoding *different* streams concurrently.  Every
stream gets a :class:`~repro.realtime.accounting.LatencyRecorder`, and the
final :class:`StreamReport` prices the measured latencies against the
microarchitecture cost model's round cadence.  The worker that ran a
dispatch times it and books each of its streams' windows, the tail window
included, with one call that writes the stream's recorder and, when one is
attached, the :class:`~repro.serve.slo.SloTracker` observer.

Streams enter through one path, :meth:`DecodeService.open_stream`: it
returns a :class:`StreamHandle` that syndrome rounds are *pushed* into, on a
persistent pool that serves many handles concurrently and is shut down by
:meth:`DecodeService.close` (idempotent, safe to call from several threads,
and raceless against streams closing mid-window).  Two producers use it:

* the :mod:`repro.serve` network front end, pushing rounds as they arrive
  off the wire;
* :meth:`DecodeService.run`, the batch entry point: the calling thread draws
  each :class:`~repro.realtime.stream.SyndromeStream` source's chunks and
  pushes them through handles on an ephemeral thread pool (started for the
  call, fully joined before it returns).

The scheduler coalesces: windows that become ready on the same pass
across streams with equal decoder identity
(:attr:`~repro.decoders.base.DecoderBase.decode_identity`) go out as one
dispatch, and a lone window is a dispatch of one.  Every dispatch takes one
path: a single :meth:`~repro.decoders.base.DecoderBase.decode_edges_unique`
call, a single :func:`~repro.realtime.window.entries_commit` walk of its
per-unique-syndrome entries, and one
:meth:`~repro.realtime.window.WindowSession.commit_window` per session
through that session's ``inverse`` slice.  Because that decode is
deterministic per unique syndrome and independent of batch composition,
coalesced results are bit-identical to decoding each stream alone — the
dispatch cost is amortised, the answers are not changed.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..decoders import SyndromeCache
from ..obs.metrics import METRICS
from ..obs.trace import span
from .accounting import LatencyRecorder, StreamReport
from .stream import FinalChunk, RoundChunk, SyndromeStream
from .window import WindowedDecoder, entries_commit

if TYPE_CHECKING:
    from ..serve.slo import SloTracker

__all__ = ["DecodeService", "ServiceClosed", "StreamHandle"]

_POLL_SECONDS = 0.05

#: Decode-service telemetry; no-ops unless a telemetry scope is active.
_OBS_QUEUE_DEPTH = METRICS.gauge(
    "realtime.queue_depth", "pending-window queue depth after each enqueue"
)
_OBS_BACKPRESSURE = METRICS.counter(
    "realtime.backpressure_stalls", "producer blocks on a full window queue"
)
_OBS_WINDOWS = METRICS.counter(
    "realtime.windows_decoded", "windows committed by the workers, tail windows included",
)
_OBS_COALESCED = METRICS.counter(
    "realtime.windows_coalesced",
    "windows decoded as part of a multi-stream coalesced batch",
)


class ServiceClosed(RuntimeError):
    """Raised when a stream is opened or fed after the service shut down."""


class _StreamTask:
    """Mutable per-stream state shared between the scheduler and workers.

    Rounds arrive through a :class:`StreamHandle` into the ``pending``
    deque.  The session only ever advances on the scheduler thread and
    decodes on a worker thread, never concurrently.
    """

    def __init__(
        self,
        stream_id: int,
        windowed: WindowedDecoder,
        shots: int,
        rounds: int,
        label: str | None = None,
    ):
        self.stream_id = stream_id
        self.label = label
        self.shots = int(shots)
        self.rounds = int(rounds)
        self.num_z_stabs = len(windowed.code.z_stabilizers)
        self.recorder = LatencyRecorder()
        self.session = windowed.session(self.shots)
        self.pending: deque[RoundChunk] = deque()
        self.rounds_submitted = 0
        self.final_chunk: FinalChunk | None = None
        self.finished = False
        self.finalized = False
        self.aborted = False
        self.in_flight = False
        self.error: BaseException | None = None
        self.predictions: np.ndarray | None = None
        self.failures: int | None = None
        self.wall_seconds = 0.0
        self.done_event = threading.Event()
        self.done_callbacks: list[Callable[[], None]] = []
        self._coalesce_key: tuple | None = None
        self._started = time.perf_counter()

    def complete(self) -> None:
        """Decode the tail window and close out the stream (worker thread)."""
        final = self.final_chunk
        assert final is not None
        self.predictions = self.session.finish(final)
        if final.observable_flips is not None:
            self.failures = int((self.predictions ^ final.observable_flips).sum())
        self.wall_seconds = time.perf_counter() - self._started
        self.finished = True

    def coalesce_key(self) -> tuple:
        """Compatibility key: equal keys decode bit-identically when merged."""
        if self._coalesce_key is None:
            windowed = self.session.windowed
            window = windowed.effective_window
            _, decoder = windowed.decoder_for(window)
            self._coalesce_key = (
                decoder.decode_identity,
                window,
                windowed.commit_rounds,
            )
        return self._coalesce_key

    def report(self) -> StreamReport:
        return StreamReport(
            stream_id=self.stream_id,
            shots=self.shots,
            rounds=self.rounds,
            recorder=self.recorder,
            failures=self.failures,
            wall_seconds=self.wall_seconds,
        )


class StreamHandle:
    """Push-mode front door to one stream of a running :class:`DecodeService`.

    The network layer feeds one ``(shots, num_z_stabs)`` boolean round at a
    time via :meth:`feed_round`, closes with :meth:`finish`, and collects
    the decoded predictions from :meth:`result`.  All methods are
    thread-safe; completion callbacks fire on service threads.
    """

    def __init__(self, service: "DecodeService", task: _StreamTask):
        self._service = service
        self._task = task

    @property
    def stream_id(self) -> int:
        return self._task.stream_id

    @property
    def label(self) -> str | None:
        return self._task.label

    @property
    def done(self) -> bool:
        return self._task.done_event.is_set()

    @property
    def error(self) -> BaseException | None:
        return self._task.error

    @property
    def predictions(self) -> np.ndarray | None:
        return self._task.predictions

    @property
    def failures(self) -> int | None:
        return self._task.failures

    def feed_round(self, detectors: np.ndarray) -> None:
        """Append the next round's detector chunk (rounds are sequential)."""
        task = self._task
        chunk = np.asarray(detectors, dtype=bool)
        if chunk.shape != (task.shots, task.num_z_stabs):
            raise ValueError(
                f"round chunk must be ({task.shots}, {task.num_z_stabs}); "
                f"got {chunk.shape}"
            )
        wake = self._service._wake
        with wake:
            if task.finished or task.aborted:
                raise ServiceClosed(f"stream {task.stream_id} is closed")
            if task.final_chunk is not None:
                raise RuntimeError(f"stream {task.stream_id} already finished")
            if task.rounds_submitted >= task.rounds:
                raise ValueError(
                    f"stream {task.stream_id} declared {task.rounds} rounds; "
                    "cannot feed more"
                )
            task.pending.append(RoundChunk(task.rounds_submitted, chunk))
            task.rounds_submitted += 1
            wake.notify_all()

    def finish(
        self,
        final_detectors: np.ndarray,
        observable_flips: np.ndarray | None = None,
    ) -> None:
        """Deliver the final transversal readout; decoding completes async."""
        task = self._task
        final = np.asarray(final_detectors, dtype=bool)
        if final.shape != (task.shots, task.num_z_stabs):
            raise ValueError(
                f"final chunk must be ({task.shots}, {task.num_z_stabs}); "
                f"got {final.shape}"
            )
        flips = None
        if observable_flips is not None:
            flips = np.asarray(observable_flips, dtype=bool)
            if flips.shape != (task.shots,):
                raise ValueError(f"observable_flips must be ({task.shots},)")
        wake = self._service._wake
        with wake:
            if task.finished or task.aborted:
                raise ServiceClosed(f"stream {task.stream_id} is closed")
            if task.final_chunk is not None:
                raise RuntimeError(f"stream {task.stream_id} already finished")
            if task.rounds_submitted != task.rounds:
                raise ValueError(
                    f"stream {task.stream_id} declared {task.rounds} rounds "
                    f"but fed {task.rounds_submitted}"
                )
            task.final_chunk = FinalChunk(final, flips)
            wake.notify_all()

    def abort(self) -> None:
        """Drop the stream: pending work is discarded, no result is produced.

        Safe at any point, including mid-window — a decode already on a
        worker finishes harmlessly and the stream is then retired.
        """
        wake = self._service._wake
        with wake:
            self._task.aborted = True
            wake.notify_all()

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` once the stream finishes (or immediately if done)."""
        with self._service._wake:
            if not self._task.finalized:
                self._task.done_callbacks.append(callback)
                return
        callback()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the stream finishes; ``False`` on timeout."""
        return self._task.done_event.wait(timeout)

    def result(self, timeout: float | None = None) -> StreamReport:
        """Wait for completion and return the report (re-raises stream errors)."""
        if not self.wait(timeout):
            raise TimeoutError(f"stream {self.stream_id} still decoding")
        if self._task.error is not None:
            raise self._task.error
        if self._task.aborted and self._task.predictions is None:
            raise ServiceClosed(f"stream {self.stream_id} was aborted")
        return self._task.report()

    def report(self) -> StreamReport:
        return self._task.report()


class DecodeService:
    """Decode N syndrome streams concurrently through sliding windows.

    Every stream owns one :class:`~repro.realtime.window.WindowSession`,
    whose bit-packed ring bounds the stream's buffered rounds to one window
    plus its context round.

    Parameters
    ----------
    window_rounds / commit_rounds / method:
        Windowed-decoder configuration, applied per stream (see
        :class:`~repro.realtime.window.WindowedDecoder`).
    workers:
        Worker threads decoding windows.  Streams are independent, so
        effective concurrency is ``min(workers, streams)``.
    queue_depth:
        Bound of the pending-window queue; the scheduler blocks when it is
        full (backpressure).  Defaults to ``max(2, workers)``.
    observer:
        Optional :class:`~repro.serve.slo.SloTracker` booking every window,
        dispatch, queue depth and finished stream — the serve layer's SLO
        feed.

    All attached streams decode through one service-wide
    :class:`~repro.decoders.SyndromeCache` — streams of the same code and
    noise overwhelmingly share sparse syndromes, so one stream's decode work
    serves every other stream the service multiplexes — and same-pass ready
    windows of compatible streams are coalesced into one dispatch (see the
    module docstring).
    """

    def __init__(
        self,
        window_rounds: int,
        commit_rounds: int | None = None,
        method: str = "matching",
        workers: int = 4,
        queue_depth: int | None = None,
        observer: "SloTracker | None" = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.window_rounds = int(window_rounds)
        self.commit_rounds = commit_rounds
        self.method = method
        self.observer = observer
        self.workers = int(workers)
        self.queue_depth = int(queue_depth) if queue_depth is not None else max(2, workers)
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.cache = SyndromeCache()
        self.windows_decoded = 0
        self.streams_served = 0
        self.backpressure_stalls = 0
        self._wake = threading.Condition()
        self._tasks: list[_StreamTask] = []
        self._next_stream_id = 0
        self._work: queue.Queue | None = None
        self._threads: list[threading.Thread] = []
        self._scheduler: threading.Thread | None = None
        self._started = False
        self._stopping = False
        self._closed = False
        self._terminated = threading.Event()

    @classmethod
    def from_config(
        cls,
        config,
        *,
        workers: int = 4,
        queue_depth: int | None = None,
        observer: "SloTracker | None" = None,
    ) -> "DecodeService":
        """Build a service from an :class:`~repro.api.config.ExperimentConfig`.

        The window geometry comes from ``execution.window_rounds`` /
        ``commit_rounds`` and the decoder from the ``decoder`` section;
        ``workers`` and ``queue_depth`` stay call-time arguments because
        they describe the serving deployment, not the experiment.  This is
        the construction path :meth:`repro.api.Session.stream` uses.
        """
        execution = config.execution
        if execution.window_rounds is None:
            raise ValueError(
                "DecodeService.from_config requires execution.window_rounds"
            )
        return cls(
            window_rounds=execution.window_rounds,
            commit_rounds=execution.commit_rounds,
            method=config.decoder.name,
            workers=workers,
            queue_depth=queue_depth,
            observer=observer,
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self, streams: Sequence[SyndromeStream]) -> list[StreamReport]:
        """Decode every stream to completion; returns one report per stream.

        The calling thread opens one :class:`StreamHandle` per stream and
        pushes each source's chunks through it, then its final readout.  A
        stream is drawn from only while it is fewer than
        ``effective_window + 2`` rounds ahead of its committed rounds, so
        the rounds buffered per stream stay bounded however fast its source
        is.  A source that raises fails its own stream only; the first
        stream error, in stream order, is raised once every stream is done.

        When the service is not already :meth:`start`-ed, the thread pool
        is created for this call and fully joined before it returns — no
        worker threads outlive the call, even when it raises.
        """
        if not streams:
            return []
        if self._closed:
            raise ServiceClosed("decode service is closed")
        for stream in streams:
            code = getattr(stream, "code", None)
            noise = getattr(stream, "noise", None)
            if code is None or noise is None:
                raise ValueError(
                    "DecodeService needs streams that carry their code and "
                    "noise (e.g. SimulatorStream, or ReplayStream with code= "
                    "and noise= set)"
                )
        ephemeral = not self._started
        if ephemeral:
            self._start_threads(min(self.workers, len(streams)))
        handles: list[StreamHandle] = []
        try:
            for stream in streams:
                handles.append(
                    self._open(
                        code=stream.code,
                        noise=stream.noise,
                        shots=stream.shots,
                        rounds=stream.rounds,
                    )
                )
            self._drive(streams, handles)
        except BaseException:
            for handle in handles:
                handle.abort()
            raise
        finally:
            if ephemeral:
                self._stop_threads()
        for handle in handles:
            if handle.error is not None:
                raise handle.error
        return [handle.report() for handle in handles]

    def start(self) -> None:
        """Start the persistent scheduler/worker pool (idempotent)."""
        with self._wake:
            if self._closed:
                raise ServiceClosed("decode service is closed")
        if not self._started:
            self._start_threads(self.workers)

    def open_stream(
        self,
        *,
        code,
        noise,
        shots: int,
        rounds: int,
        label: str | None = None,
        window_rounds: int | None = None,
        commit_rounds: int | None = None,
        method: str | None = None,
    ) -> StreamHandle:
        """Open a push-mode stream on the persistent pool (auto-starts it).

        Per-stream overrides fall back to the service-wide defaults; the
        syndrome cache is always the shared service-wide one, so every
        tenant's decode work serves every other compatible tenant.
        """
        self.start()
        return self._open(
            code=code,
            noise=noise,
            shots=shots,
            rounds=rounds,
            label=label,
            window_rounds=window_rounds,
            commit_rounds=commit_rounds,
            method=method,
        )

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Shut the service down.  Idempotent and safe from any thread.

        With ``drain=True`` (the default) streams that can still finish —
        their final readout delivered or deliverable — are decoded to
        completion first, bounded by ``timeout`` seconds when given; any
        stream still unfinished after the drain (e.g. a connection that
        went quiet mid-window) is aborted.  With ``drain=False`` every
        unfinished stream is aborted immediately.  Either way all scheduler
        and worker threads are joined before this returns; concurrent and
        repeated calls block until that single shutdown completes.
        """
        with self._wake:
            if self._closed:
                already, was_started = True, self._started
            else:
                already, was_started = False, self._started
                self._closed = True
                self._wake.notify_all()
        if already:
            self._terminated.wait()
            return
        if not was_started:
            self._terminated.set()
            return
        deadline = None if timeout is None else time.monotonic() + timeout
        if drain:
            with self._wake:
                while any(not t.finished for t in self._tasks):
                    wait = _POLL_SECONDS
                    if deadline is not None:
                        wait = min(wait, deadline - time.monotonic())
                        if wait <= 0:
                            break
                    self._wake.wait(wait)
        with self._wake:
            for task in self._tasks:
                if not task.finished:
                    task.aborted = True
            self._wake.notify_all()
            while any(not t.finished for t in self._tasks):
                self._wake.wait(_POLL_SECONDS)
        self._stop_threads()
        self._terminated.set()

    @property
    def active_streams(self) -> int:
        """Streams currently attached and not yet finished."""
        with self._wake:
            return sum(1 for t in self._tasks if not t.finished)

    def stats(self) -> dict:
        """Service-wide counters (backpressure, volume, the syndrome cache).

        The coalescing ratio is the observer's to count (every dispatch
        reports through :meth:`~repro.serve.slo.SloTracker.on_batch`); the
        decode server's tracker publishes it.
        """
        return {
            "streams_served": self.streams_served,
            "windows_decoded": self.windows_decoded,
            "active_streams": self.active_streams,
            "backpressure_stalls": self.backpressure_stalls,
            "cache": self.cache.stats(),
        }

    # ------------------------------------------------------------------ #
    # Scheduler / worker internals
    # ------------------------------------------------------------------ #
    def _open(
        self,
        *,
        code,
        noise,
        shots: int,
        rounds: int,
        label: str | None = None,
        window_rounds: int | None = None,
        commit_rounds: int | None = None,
        method: str | None = None,
    ) -> StreamHandle:
        """Attach a push-mode stream to the running pool."""
        if shots <= 0 or rounds <= 0:
            raise ValueError("shots and rounds must be positive")
        windowed = self._windowed_for(
            code,
            noise,
            rounds,
            window_rounds=window_rounds,
            commit_rounds=commit_rounds,
            method=method,
        )
        with self._wake:
            if self._closed:
                raise ServiceClosed("decode service is closed")
            task = _StreamTask(
                self._next_stream_id,
                windowed,
                shots=shots,
                rounds=rounds,
                label=label,
            )
            self._next_stream_id += 1
            self._tasks.append(task)
            self._wake.notify_all()
        return StreamHandle(self, task)

    def _drive(
        self, streams: Sequence[SyndromeStream], handles: list[StreamHandle]
    ) -> None:
        """Push every source through its handle, then wait for the decodes.

        Runs on the caller's thread.  Each pass feeds one chunk (or the
        final readout) to every stream with room; when none has room the
        driver sleeps until a worker commits a window or retires a stream.
        """
        live = {
            index: (stream, iter(stream.chunks()), handle)
            for index, (stream, handle) in enumerate(zip(streams, handles))
        }

        def due(task: _StreamTask) -> bool:
            """Retired (drop it) or few enough rounds ahead to feed one more."""
            session = task.session
            bound = session.start + session.windowed.effective_window + 2
            return task.finished or task.rounds_submitted < bound

        while live:
            with self._wake:
                self._wake.wait_for(
                    lambda: any(due(h._task) for _, _, h in live.values())
                )
                ready = [i for i, (_, _, h) in live.items() if due(h._task)]
            for index in ready:
                stream, chunks, handle = live[index]
                if handle._task.finished or not self._feed_next(stream, chunks, handle):
                    del live[index]
        for handle in handles:
            handle.wait()

    def _feed_next(self, stream: SyndromeStream, chunks, handle: StreamHandle) -> bool:
        """Push the source's next chunk; ``False`` once nothing more is fed."""
        try:
            chunk = next(chunks, None)
            if chunk is None:
                final = stream.final()
                handle.finish(final.final_detectors, final.observable_flips)
                return False
            handle.feed_round(chunk.detectors)
            return True
        except BaseException as exc:  # the source failed: fail its stream only
            task = handle._task
            with self._wake:
                if not task.finished:
                    task.error = exc
                    task.aborted = True
                    self._wake.notify_all()
            return False

    def _windowed_for(
        self,
        code,
        noise,
        rounds: int,
        *,
        window_rounds: int | None = None,
        commit_rounds: int | None = None,
        method: str | None = None,
    ) -> WindowedDecoder:
        return WindowedDecoder(
            code=code,
            noise=noise,
            rounds=rounds,
            window_rounds=self.window_rounds if window_rounds is None else window_rounds,
            commit_rounds=self.commit_rounds if commit_rounds is None else commit_rounds,
            method=self.method if method is None else method,
            cache=self.cache,
        )

    def _start_threads(self, worker_count: int) -> None:
        self._work = queue.Queue(maxsize=self.queue_depth)
        self._stopping = False
        self._terminated.clear()
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(self._work,),
                daemon=True,
                name=f"decode-{i}",
            )
            for i in range(max(1, worker_count))
        ]
        for thread in self._threads:
            thread.start()
        self._scheduler = threading.Thread(
            target=self._schedule_loop, daemon=True, name="decode-scheduler"
        )
        self._scheduler.start()
        self._started = True

    def _stop_threads(self) -> None:
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        if self._scheduler is not None:
            self._scheduler.join()
            self._scheduler = None
        work = self._work
        if work is not None:
            for _ in self._threads:
                work.put(None)
        for thread in self._threads:
            thread.join()
        self._threads = []
        self._work = None
        self._started = False

    def _schedule_loop(self) -> None:
        """Round-robin multiplexer: drain pushed chunks, schedule ready windows."""
        while True:
            with self._wake:
                self._tasks = [t for t in self._tasks if not t.finished]
                if not self._tasks:
                    if self._stopping:
                        return
                    self._wake.wait(_POLL_SECONDS)
                    continue
                snapshot = list(self._tasks)
            if not self._pass(snapshot):
                with self._wake:
                    if self._stopping and all(t.finished for t in snapshot):
                        continue
                    self._wake.wait(_POLL_SECONDS)

    def _pass(self, tasks: list[_StreamTask]) -> bool:
        progressed = False
        ready: list[_StreamTask] = []
        for task in tasks:
            if task.finished or task.in_flight:
                continue
            if task.aborted:
                self._finalize(task)
                progressed = True
                continue
            try:
                if self._advance(task, ready):
                    progressed = True
            except BaseException as exc:  # surface on the handle, keep serving
                task.error = exc
                self._finalize(task)
                progressed = True
        if ready:
            progressed = True
            groups: dict[tuple, list[_StreamTask]] = {}
            order: list[tuple] = []
            for task in ready:
                try:
                    key = task.coalesce_key()
                except BaseException as exc:
                    task.error = exc
                    self._finalize(task)
                    continue
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(task)
            for key in order:
                self._enqueue("window", tuple(groups[key]))
        return progressed

    def _advance(self, task: _StreamTask, ready: list[_StreamTask]) -> bool:
        """Move one stream forward; append to ``ready`` when a window is due."""
        session = task.session
        if session.ready():
            ready.append(task)
            return True
        progressed = False
        while (
            not session.ready()
            and task.pending
            and session.rounds_fed < task.rounds
        ):
            session.feed(task.pending.popleft())
            progressed = True
        if session.ready():
            ready.append(task)
            return True
        if (
            task.final_chunk is not None
            and not task.pending
            and session.rounds_fed >= task.rounds
        ):
            self._enqueue("final", (task,))
            return True
        return progressed

    def _enqueue(self, kind: str, tasks: tuple[_StreamTask, ...]) -> None:
        # in_flight must flip before the (possibly blocking) put so the
        # scheduler never double-schedules a stream.  The enqueue timestamp
        # is taken before the put either way, so a backpressure stall shows
        # up as queue wait exactly as it did before instrumentation.
        work = self._work
        assert work is not None
        for task in tasks:
            task.in_flight = True
        item = (kind, tasks, time.perf_counter())
        try:
            work.put_nowait(item)
        except queue.Full:
            _OBS_BACKPRESSURE.inc()
            self.backpressure_stalls += 1
            work.put(item)
        depth = work.qsize()
        if METRICS.enabled:
            _OBS_QUEUE_DEPTH.set(depth)
        if self.observer is not None:
            self.observer.on_queue_depth(depth)

    def _worker(self, work: queue.Queue) -> None:
        while True:
            item = work.get()
            if item is None:
                work.task_done()
                return
            kind, tasks, enqueued_at = item
            wait = time.perf_counter() - enqueued_at
            try:
                if kind == "window":
                    self._decode_group(tasks, wait)
                else:
                    self._decode_tail(tasks[0], wait)
            except BaseException as exc:  # surface on run()/handle, keep pool
                for task in tasks:
                    task.error = exc
            finally:
                with self._wake:
                    for task in tasks:
                        task.in_flight = False
                    self._wake.notify_all()
                for task in tasks:
                    if task.finished or task.error is not None:
                        self._finalize(task)
                work.task_done()

    def _decode_group(self, tasks: tuple[_StreamTask, ...], wait: float) -> None:
        """Decode one dispatch: the ready windows of one or more streams."""
        started = time.perf_counter()
        live = [task for task in tasks if not task.aborted]
        if not live:
            return
        # Each session owns its staging buffers, so collecting every
        # window's inputs before concatenating is safe; np.concatenate
        # copies, so reuse of those buffers on commit cannot alias.
        inputs = [task.session.window_inputs() for task in live]
        history = np.concatenate([h for h, _ in inputs], axis=0)
        context = np.concatenate([c for _, c in inputs], axis=0)
        windowed = live[0].session.windowed
        commit = windowed.commit_rounds
        graph, decoder = windowed.decoder_for(windowed.effective_window)
        with span("realtime.window", streams=len(live)):
            entries, inverse = decoder.decode_edges_unique(history, context)
            flips, masks = entries_commit(entries, graph, commit)
            offset = 0
            for task, (chunk, _) in zip(live, inputs):
                shots = chunk.shape[0]
                session_inverse = inverse[offset : offset + shots]
                task.session.commit_window(flips, masks, session_inverse)
                offset += shots
        self._book([(task, commit) for task in live], started, wait)
        if len(live) > 1:
            _OBS_COALESCED.inc(len(live))

    def _decode_tail(self, task: _StreamTask, wait: float) -> None:
        """Decode a stream's tail window and close the stream out."""
        if task.aborted:
            return
        tail = task.rounds - task.session.start
        started = time.perf_counter()
        with span("realtime.final", stream=task.stream_id):
            task.complete()
        self._book([(task, tail)], started, wait)

    def _book(
        self, windows: list[tuple[_StreamTask, int]], started: float, wait: float
    ) -> None:
        """Book one dispatch that began at ``started``, on the worker that ran it.

        Each ``(task, committed_rounds)`` window is one record into its
        stream's recorder and, when attached, the observer; the observer
        also counts the dispatch.
        """
        seconds = time.perf_counter() - started
        observer = self.observer
        for task, rounds in windows:
            task.recorder.record(rounds, seconds, wait)
            if observer is not None:
                observer.on_window(rounds, seconds, wait)
        _OBS_WINDOWS.inc(len(windows))
        if observer is not None:
            observer.on_batch()

    def _finalize(self, task: _StreamTask) -> None:
        """Retire a finished/errored/aborted stream exactly once."""
        with self._wake:
            if task.finalized:
                return
            task.finalized = True
            task.finished = True
            if task.wall_seconds == 0.0:
                task.wall_seconds = time.perf_counter() - task._started
            self.streams_served += 1
            self.windows_decoded += task.session.windows_decoded
            callbacks = list(task.done_callbacks)
            task.done_callbacks.clear()
            task.done_event.set()
            self._wake.notify_all()
        if self.observer is not None:
            self.observer.on_stream_done(task.error)
        for callback in callbacks:
            try:
                callback()
            except Exception:  # a bad callback must not kill the pool
                pass
