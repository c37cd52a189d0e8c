"""Syndrome streams: per-round detector chunks for a batch of shots.

The offline harness hands the decoder one big ``(shots, rounds, detectors)``
array after the run ends.  A real control system never sees that array — it
sees one round of syndrome bits at a time and must react before the next
round lands.  A :class:`SyndromeStream` models exactly that interface: an
iterator of :class:`RoundChunk` objects (one per QEC round, batched over
shots) followed by a single :class:`FinalChunk` carrying the transversal
readout.  Two sources are provided:

* :class:`SimulatorStream` drives :meth:`LeakageSimulator.run_incremental`,
  producing chunks as the simulation advances — the closed-loop policy runs
  inside the simulator, the decoder runs outside, round by round,
* :class:`ReplayStream` replays a recorded :class:`RunResult` (or raw
  detector arrays), which is how archived experiments are re-decoded and how
  the offline equivalence tests drive the windowed decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.lrc import LrcGadget, default_lrc
from ..codes.base import StabilizerCode
from ..core.speculator import LeakagePolicy
from ..noise import NoiseParams
from ..sim import LeakageSimulator, RunResult, SimulatorOptions

__all__ = ["RoundChunk", "FinalChunk", "SyndromeStream", "SimulatorStream", "ReplayStream"]


@dataclass(frozen=True)
class RoundChunk:
    """One round of Z-detector flips for every shot of a stream."""

    round_index: int
    detectors: np.ndarray  # (shots, num_z_stabs) bool


@dataclass(frozen=True)
class FinalChunk:
    """The end-of-stream transversal readout.

    ``observable_flips`` is ``None`` when the stream source does not know the
    true logical observable (e.g. replaying bare detector arrays); decoding
    still works, only the failure count is unavailable.
    """

    final_detectors: np.ndarray  # (shots, num_z_stabs) bool
    observable_flips: np.ndarray | None  # (shots,) bool


class SyndromeStream:
    """Iterator protocol of a per-round syndrome source.

    Subclasses expose ``shots``, ``rounds`` and ``num_z_stabs`` up front,
    yield exactly ``rounds`` :class:`RoundChunk` objects in order from
    :meth:`chunks`, and make :meth:`final` available once the chunk iterator
    is exhausted.
    """

    shots: int
    rounds: int
    num_z_stabs: int

    def chunks(self):
        """Iterate the per-round detector chunks, in round order."""
        raise NotImplementedError

    def final(self) -> FinalChunk:
        """The final-readout chunk; only valid after :meth:`chunks` is exhausted."""
        raise NotImplementedError


@dataclass
class ReplayStream(SyndromeStream):
    """Replay recorded detector arrays as a stream.

    ``detector_history`` has shape ``(shots, rounds, num_z_stabs)``,
    ``final_detectors`` shape ``(shots, num_z_stabs)``.  ``code`` and
    ``noise`` are optional provenance; :class:`repro.realtime.DecodeService`
    needs them to build a decoder for the replayed record.
    """

    detector_history: np.ndarray
    final_detectors: np.ndarray
    observable_flips: np.ndarray | None = None
    code: StabilizerCode | None = None
    noise: NoiseParams | None = None

    def __post_init__(self) -> None:
        history = np.asarray(self.detector_history, dtype=bool)
        if history.ndim != 3:
            raise ValueError("detector_history must be (shots, rounds, num_z_stabs)")
        self.detector_history = history
        self.final_detectors = np.asarray(self.final_detectors, dtype=bool)
        if self.final_detectors.shape != (history.shape[0], history.shape[2]):
            raise ValueError("final_detectors must be (shots, num_z_stabs)")
        self.shots, self.rounds, self.num_z_stabs = history.shape

    @classmethod
    def from_run_result(cls, result: RunResult) -> "ReplayStream":
        """Adapt a recorded :class:`RunResult` (needs ``record_detectors=True``)."""
        if result.detector_history is None or result.final_detectors is None:
            raise ValueError(
                "RunResult has no detector record; run the simulator with "
                "record_detectors=True to replay it"
            )
        return cls(
            detector_history=result.detector_history,
            final_detectors=result.final_detectors,
            observable_flips=result.observable_flips,
        )

    def chunks(self):
        for round_index in range(self.rounds):
            yield RoundChunk(round_index, self.detector_history[:, round_index, :])

    def final(self) -> FinalChunk:
        return FinalChunk(self.final_detectors, self.observable_flips)


@dataclass
class SimulatorStream(SyndromeStream):
    """Live per-round chunks from a :class:`LeakageSimulator` run.

    The simulator's closed loop (speculation, LRC scheduling) runs inside as
    usual; only the detector record is streamed out instead of being
    accumulated, so memory stays bounded by the decoder's window — the whole
    point of online operation.  ``result`` holds the finished
    :class:`RunResult` (without detector history) once the stream is
    exhausted.
    """

    code: StabilizerCode
    noise: NoiseParams
    policy: LeakagePolicy
    shots: int
    rounds: int
    gadget: LrcGadget = field(default_factory=default_lrc)
    leakage_sampling: bool = False
    seed: int = 0
    result: RunResult | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self._simulator = LeakageSimulator(
            code=self.code,
            noise=self.noise,
            policy=self.policy,
            gadget=self.gadget,
            options=SimulatorOptions(
                leakage_sampling=self.leakage_sampling, record_detectors=False
            ),
            seed=self.seed,
        )
        self.num_z_stabs = len(self.code.z_stabilizers)

    def chunks(self):
        generator = self._simulator.run_incremental(self.shots, self.rounds)
        while True:
            try:
                round_index, detectors = next(generator)
            except StopIteration as stop:
                self.result = stop.value
                return
            yield RoundChunk(round_index, detectors)

    def final(self) -> FinalChunk:
        if self.result is None:
            raise RuntimeError("stream not exhausted yet; drain chunks() first")
        return FinalChunk(self.result.final_detectors, self.result.observable_flips)
