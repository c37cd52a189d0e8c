"""Spans recorded from outside the program under test.

The traced run wraps a fixed set of public callables of ``repro`` at class
level (:func:`install`) and restores them afterwards; nothing inside
``src/`` is instrumented.  Each wrapped call becomes a :class:`Span`
charged to one layer:

========== ===========================================================
layer      wrapped calls
========== ===========================================================
core       ``LeakageSimulator.__init__`` (schedule, policy ``prepare``)
sim        every step of ``LeakageSimulator.run_incremental`` (one span
           per QEC round; the last step also covers the final readout)
decoders   ``DecoderBase.decode_edges_unique`` / ``decode_batch``
           (decode) and ``DetectorGraph.__post_init__`` /
           ``DetectorGraph._all_pairs`` (build)
realtime   ``WindowedDecoder.decode_batch`` (stream replay),
           ``WindowSession`` / ``FusedWindowSession`` ``step`` and
           ``finish`` (window) and ``commit_window`` (commit)
serve      ``ClientStream.feed_round`` (client side, asynchronous)
sweeps     ``run_shard`` calls the benchmark makes itself
fabric     the durable ``Session.sweep`` call
========== ===========================================================

A span's self time is its duration minus the time its child spans cover,
so self times of one call tree add up to the root's duration and every
second of a traced run is charged to exactly one layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Span", "SpanRecorder", "covered_seconds", "install", "percentile", "tail_percentile"]


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span's id on this thread;
    ``nested`` is false for spans timed outside the nesting stack."""

    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    process: str = "bench"
    nested: bool = True
    child_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """Keeps spans in memory; written out once, when the run ends."""

    def __init__(self, process: str = "bench") -> None:
        self.process = process
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, **attrs: Any) -> Iterator[Span]:
        """Time a synchronous call nested under this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids),
            name,
            layer,
            start=0.0,
            parent=None if parent is None else parent.id,
            thread=threading.get_ident(),
            process=self.process,
            attrs=attrs,
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.duration
            with self._lock:
                self.spans.append(span)

    def record(self, name: str, layer: str, start: float, end: float, **attrs: Any) -> None:
        """Add a span timed by the caller (coroutines interleave on one
        thread, so they are kept out of the nesting stack)."""
        span = Span(
            next(self._ids),
            name,
            layer,
            start,
            end,
            thread=threading.get_ident(),
            process=self.process,
            nested=False,
            attrs=attrs,
        )
        with self._lock:
            self.spans.append(span)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def layer_table(self, wall: float) -> list[dict[str, Any]]:
        totals: dict[str, list[float]] = {}
        for s in self.spans:
            entry = totals.setdefault(s.layer, [0.0, 0])
            entry[0] += s.self_s
            entry[1] += 1
        return [
            {"layer": layer, "self_s": total, "share": total / wall if wall else 0.0, "spans": n}
            for layer, (total, n) in sorted(totals.items(), key=lambda kv: -kv[1][0])
        ]

    def write_chrome_trace(self, path: Path, origin: float) -> None:
        """Chrome ``trace_event`` JSON (open in Perfetto or chrome://tracing);
        ``perf_counter`` is the system monotonic clock, so spans from the
        server process line up with the benchmark's."""
        pids = {"bench": 0, "server": 1}
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": pids.get(s.process, 2),
                "tid": s.thread,
                "args": s.attrs,
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def covered_seconds(spans: list[Span], start: float, end: float) -> float:
    """Wall in ``[start, end]`` during which at least one root span, on any
    thread or process, was open.  On one thread this equals the sum of all
    self times; for a multi-threaded server it is the time it was busy."""
    intervals = sorted(
        (max(s.start, start), min(s.end, end))
        for s in spans
        if s.nested and s.parent is None and s.end > start and s.start < end
    )
    covered, reach = 0.0, start
    for low, high in intervals:
        if high > reach:
            covered += high - max(low, reach)
            reach = high
    return covered


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Samples a tail percentile must leave beyond it to be reported as such.
TAIL_SAMPLES = 10


def tail_percentile(values: list[float], q: float) -> tuple[float, float]:
    """``(value, q_used)``: the ``q`` percentile, lowered to the highest
    percentile with at least ``TAIL_SAMPLES`` samples beyond it (never below
    the median) when the sample is too small for ``q``."""
    n = len(values)
    used = min(q, max(50.0, 100.0 * (n - TAIL_SAMPLES) / n)) if n else q
    return percentile(values, used), used


# --------------------------------------------------------------------- #
# Wrapping the public calls
# --------------------------------------------------------------------- #
def _timed(recorder: SpanRecorder, name: str, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name, layer):
            return fn(*args, **kwargs)

    return wrapper


def _timed_decode(recorder: SpanRecorder, fn: Callable) -> Callable:
    """Decode span carrying the call's dedup and cache deltas, read from the
    decoder's own public counters before and after the call."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        shots, unique = self.batch_shots, self.batch_unique
        before = self.cache.stats()
        with recorder.span("decoders.decode", "decoders") as span:
            result = fn(self, *args, **kwargs)
        after = self.cache.stats()
        span.attrs.update(
            shots=self.batch_shots - shots,
            unique=self.batch_unique - unique,
            hits=after["hits"] - before["hits"],
            misses=after["misses"] - before["misses"],
        )
        return result

    return wrapper


def _timed_rounds(recorder: SpanRecorder, fn: Callable) -> Callable:
    """One ``sim.round`` span per step of the simulator generator, so the
    consumer's work between rounds is not charged to the simulator."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        inner = fn(self, *args, **kwargs)
        try:
            while True:
                with recorder.span("sim.round", "sim"):
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                yield item
        finally:
            inner.close()

    return wrapper


def _timed_feed(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            recorder.record("serve.feed", "serve", start, time.perf_counter())

    return wrapper


@contextmanager
def install(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap the public calls listed in the module docstring; undo on exit."""
    from repro.decoders.base import DecoderBase
    from repro.decoders.detector_graph import DetectorGraph
    from repro.pipeline.fused import FusedWindowSession
    from repro.realtime.window import WindowedDecoder, WindowSession
    from repro.serve.client import ClientStream
    from repro.sim.simulator import LeakageSimulator

    all_pairs = DetectorGraph.__dict__["_all_pairs"]
    traced_all_pairs = functools.cached_property(
        _timed(recorder, "decoders.all_pairs", "decoders", all_pairs.func)
    )
    traced_all_pairs.__set_name__(DetectorGraph, "_all_pairs")

    patches: list[tuple[type, str, Any]] = [
        (LeakageSimulator, "__init__", _timed(recorder, "core.prepare", "core", LeakageSimulator.__init__)),
        (LeakageSimulator, "run_incremental", _timed_rounds(recorder, LeakageSimulator.run_incremental)),
        (DecoderBase, "decode_edges_unique", _timed_decode(recorder, DecoderBase.decode_edges_unique)),
        (DecoderBase, "decode_batch", _timed_decode(recorder, DecoderBase.decode_batch)),
        (DetectorGraph, "__post_init__", _timed(recorder, "decoders.graph", "decoders", DetectorGraph.__post_init__)),
        (DetectorGraph, "_all_pairs", traced_all_pairs),
        (WindowedDecoder, "decode_batch", _timed(recorder, "realtime.stream", "realtime", WindowedDecoder.decode_batch)),
        (ClientStream, "feed_round", _timed_feed(recorder, ClientStream.feed_round)),
    ]
    for session in (WindowSession, FusedWindowSession):
        patches += [
            (session, "step", _timed(recorder, "realtime.window", "realtime", session.step)),
            (session, "finish", _timed(recorder, "realtime.window", "realtime", session.finish)),
            (session, "commit_window", _timed(recorder, "realtime.commit", "realtime", session.commit_window)),
        ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
