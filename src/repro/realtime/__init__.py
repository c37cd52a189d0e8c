"""Online decoding: syndrome streams, sliding windows, and a decode service.

This package is the repo's first end-to-end *online* scenario: where the
offline harness (:class:`repro.experiments.MemoryExperiment`) collects the
full detector record and decodes after the fact, the realtime layer consumes
syndrome data round by round, the way the paper's control hardware does.

Three pieces stack up:

* :class:`SyndromeStream` — per-round detector chunks for a batch of shots,
  either live from the simulator (:class:`SimulatorStream`) or replayed from
  a recorded run (:class:`ReplayStream`),
* :class:`WindowedDecoder` — overlapping sliding windows over any
  ``repro.decoders`` decoder: a commit region whose corrections are
  finalised and a buffer region whose boundary artifacts carry into the
  next window; ``window >= rounds`` is bit-identical to offline decoding,
* :class:`DecodeService` — N concurrent streams multiplexed over a worker
  pool with bounded queues and backpressure; every dispatch, a lone window
  included, is one decode call, one commit walk and one
  :class:`LatencyRecorder` booking per window (tail windows too), priced
  against the microarchitecture cost model.

Quick start::

    from repro import make_policy, paper_noise, surface_code
    from repro.realtime import DecodeService, SimulatorStream

    code, noise = surface_code(3), paper_noise()
    streams = [
        SimulatorStream(code=code, noise=noise, policy=make_policy("gladiator+m"),
                        shots=50, rounds=24, seed=seed)
        for seed in range(4)
    ]
    reports = DecodeService(window_rounds=8, workers=4).run(streams)
    for report in reports:
        print(report.summary())

``python -m repro realtime`` drives the same pipeline from the command line.
"""

from .accounting import LatencyRecorder, StreamReport
from .service import DecodeService, ServiceClosed, StreamHandle
from .stream import FinalChunk, ReplayStream, RoundChunk, SimulatorStream, SyndromeStream
from .window import WindowedDecoder, WindowSession

__all__ = [
    "RoundChunk",
    "FinalChunk",
    "SyndromeStream",
    "SimulatorStream",
    "ReplayStream",
    "WindowedDecoder",
    "WindowSession",
    "DecodeService",
    "ServiceClosed",
    "StreamHandle",
    "LatencyRecorder",
    "StreamReport",
]
