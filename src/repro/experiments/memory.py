"""Logical memory experiments: simulate, decode, and report LER.

A memory-Z experiment prepares the logical ``|0>`` state, runs ``rounds`` of
syndrome extraction under the leakage noise model with a chosen mitigation
policy, measures all data qubits, decodes the Z-detector record and checks
whether the corrected logical observable flipped.  This is the workload
behind the paper's logical-error-rate figures (4(b), 12 and 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.lrc import LrcGadget, default_lrc
from ..codes.base import StabilizerCode
from ..core.speculator import LeakagePolicy
from ..decoders import DetectorGraph, make_decoder
from ..noise import NoiseParams
from ..sim import LeakageSimulator, RunResult, SimulatorOptions
from .metrics import (
    leakage_equilibrium,
    logical_error_rate,
    per_round_logical_error_rate,
    wilson_interval,
)

__all__ = ["MemoryResult", "MemoryExperiment", "PERF_SUMMARY_KEYS"]

#: Summary keys that report execution-path performance, not physics.  They
#: are inherently path-dependent (a windowed decode sees different batch
#: boundaries than an offline decode of the same record), so bit-identity
#: comparisons across execution paths strip them.
PERF_SUMMARY_KEYS = ("decoder_cache_hit_rate", "batch_dedup_ratio")


@dataclass
class MemoryResult:
    """Aggregated outcome of a decoded memory experiment."""

    code_name: str
    policy_name: str
    shots: int
    rounds: int
    failures: int
    dlp_per_round: np.ndarray
    lrcs_per_round: float
    false_positives_per_round: float
    false_negatives_per_round: float
    total_leakage_events: int
    final_dlp: float
    #: Decoder-performance diagnostics (see :data:`PERF_SUMMARY_KEYS`).
    decoder_cache_hit_rate: float = 0.0
    batch_dedup_ratio: float = 0.0

    @property
    def logical_error_rate(self) -> float:
        """Whole-experiment logical error rate."""
        return logical_error_rate(self.failures, self.shots)

    @property
    def logical_error_rate_interval(self) -> tuple[float, float]:
        """95% Wilson confidence interval of the LER."""
        return wilson_interval(self.failures, self.shots)

    @property
    def per_round_logical_error_rate(self) -> float:
        """Equivalent per-round logical error rate."""
        return per_round_logical_error_rate(self.logical_error_rate, self.rounds)

    @property
    def mean_dlp(self) -> float:
        """Average data-leakage population across the run."""
        return float(self.dlp_per_round.mean()) if self.dlp_per_round.size else 0.0

    @property
    def leakage_equilibrium(self) -> float:
        """Steady-state data-leakage population (trailing-rounds average)."""
        return leakage_equilibrium(self.dlp_per_round)

    @property
    def speculation_inaccuracy(self) -> float:
        """FP + FN per round per shot."""
        return self.false_positives_per_round + self.false_negatives_per_round

    def summary(self) -> dict:
        """Flat dictionary used by the benchmark tables."""
        low, high = self.logical_error_rate_interval
        return {
            "code": self.code_name,
            "policy": self.policy_name,
            "shots": self.shots,
            "rounds": self.rounds,
            "ler": self.logical_error_rate,
            "ler_low": low,
            "ler_high": high,
            "ler_per_round": self.per_round_logical_error_rate,
            "mean_dlp": self.mean_dlp,
            "final_dlp": self.final_dlp,
            "leakage_equilibrium": self.leakage_equilibrium,
            "lrcs_per_round": self.lrcs_per_round,
            "fp_per_round": self.false_positives_per_round,
            "fn_per_round": self.false_negatives_per_round,
            "speculation_inaccuracy": self.speculation_inaccuracy,
            "total_leakage_events": self.total_leakage_events,
            "decoder_cache_hit_rate": self.decoder_cache_hit_rate,
            "batch_dedup_ratio": self.batch_dedup_ratio,
        }


@dataclass
class MemoryExperiment:
    """Run a decoded memory experiment for one (code, noise, policy) triple.

    Decoding is offline by default (whole record at once).  Setting
    ``window_rounds`` routes it through the sliding-window path of
    :mod:`repro.realtime` instead: corrections are committed
    ``commit_rounds`` rounds at a time as the record is replayed, and
    ``window_rounds >= rounds`` is bit-identical to the offline decode.

    ``decode_batch_size`` sets the simulate-and-decode chunk size of
    :meth:`run` (the whole-batch NumPy decode path deduplicates syndromes
    within each chunk); because chunk boundaries determine per-chunk RNG
    seeds it is part of the sweep cache key.

    Every batch takes one path: the simulator records the batch's detector
    history (:meth:`_run_batch`) and the decoder consumes it in one
    ``decode_batch`` call.  A windowed decoder replays that record round by
    round through its bit-packed :class:`~repro.realtime.window.WindowSession`.
    """

    code: StabilizerCode
    noise: NoiseParams
    policy: LeakagePolicy
    decoder_method: str = "matching"
    gadget: LrcGadget = field(default_factory=default_lrc)
    leakage_sampling: bool = False
    seed: int = 0
    window_rounds: int | None = None
    commit_rounds: int | None = None
    decode_batch_size: int | None = None

    #: Default simulate-and-decode chunk size when neither the experiment nor
    #: the ``run`` call overrides it.
    DEFAULT_BATCH_SIZE = 250

    @classmethod
    def from_config(
        cls,
        config,
        *,
        code: StabilizerCode | None = None,
        policy: LeakagePolicy | None = None,
        noise: NoiseParams | None = None,
    ) -> "MemoryExperiment":
        """Construct from an :class:`~repro.api.config.ExperimentConfig`.

        Components default to registry builds from the config's sections;
        pass ``code`` / ``policy`` / ``noise`` to reuse objects the caller
        already holds.  This is the single
        construction path the :class:`~repro.api.session.Session` facade,
        the sweep engine and direct callers share.
        """
        from ..api.session import build_experiment

        return build_experiment(config, code=code, policy=policy, noise=noise)

    def run(self, shots: int, rounds: int, batch_size: int | None = None) -> MemoryResult:
        """Simulate ``shots`` shots (in batches) and decode every one of them."""
        if shots <= 0 or rounds <= 0:
            raise ValueError("shots and rounds must be positive")
        if batch_size is None:
            batch_size = (
                self.decode_batch_size
                if self.decode_batch_size is not None
                else self.DEFAULT_BATCH_SIZE
            )
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        decoder = self._make_decoder(rounds)
        decode_batch = decoder.decode_batch

        failures = 0
        dlp_accumulator = np.zeros(rounds)
        totals = {
            "lrc": 0,
            "fp": 0,
            "fn": 0,
            "leak_events": 0,
            "final_leaked": 0.0,
        }
        remaining = shots
        batch_index = 0
        while remaining > 0:
            batch = min(batch_size, remaining)
            result = self._run_batch(batch, rounds, seed_offset=batch_index)
            predictions = decode_batch(result.detector_history, result.final_detectors)
            failures += int((predictions ^ result.observable_flips).sum())
            dlp_accumulator += result.dlp_per_round * batch
            totals["lrc"] += result.total_data_lrcs
            totals["fp"] += result.total_false_positives
            totals["fn"] += result.total_false_negatives
            totals["leak_events"] += result.total_leakage_events
            totals["final_leaked"] += result.final_dlp * batch
            remaining -= batch
            batch_index += 1

        stats = decoder.decode_stats()
        return MemoryResult(
            code_name=self.code.name,
            policy_name=self.policy.describe(),
            shots=shots,
            rounds=rounds,
            failures=failures,
            dlp_per_round=dlp_accumulator / shots,
            lrcs_per_round=totals["lrc"] / (shots * rounds),
            false_positives_per_round=totals["fp"] / (shots * rounds),
            false_negatives_per_round=totals["fn"] / (shots * rounds),
            total_leakage_events=totals["leak_events"],
            final_dlp=totals["final_leaked"] / shots,
            decoder_cache_hit_rate=stats["cache_hit_rate"],
            batch_dedup_ratio=stats["dedup_ratio"],
        )

    def _make_decoder(self, rounds: int):
        """The batch-decode provider: offline by default, windowed when asked.

        Both return types expose the same protocol: ``decode_batch`` (the
        per-chunk decode callable) and ``decode_stats`` (the cache/dedup
        diagnostics read once after the run).
        """
        if self.window_rounds is not None:
            from ..realtime.window import WindowedDecoder

            return WindowedDecoder(
                code=self.code,
                noise=self.noise,
                rounds=rounds,
                window_rounds=self.window_rounds,
                commit_rounds=self.commit_rounds,
                method=self.decoder_method,
            )
        graph = DetectorGraph(
            code=self.code, rounds=rounds, noise=self.noise, hyperedges="decompose"
        )
        return make_decoder(graph, self.decoder_method)

    def run_undecoded(self, shots: int, rounds: int) -> RunResult:
        """Run the simulator without decoding (leakage-population studies)."""
        simulator = LeakageSimulator(
            code=self.code,
            noise=self.noise,
            policy=self.policy,
            gadget=self.gadget,
            options=SimulatorOptions(
                leakage_sampling=self.leakage_sampling, record_detectors=False
            ),
            seed=self.seed,
        )
        return simulator.run(shots=shots, rounds=rounds)

    def _run_batch(self, shots: int, rounds: int, seed_offset: int) -> RunResult:
        simulator = LeakageSimulator(
            code=self.code,
            noise=self.noise,
            policy=self.policy,
            gadget=self.gadget,
            options=SimulatorOptions(
                leakage_sampling=self.leakage_sampling, record_detectors=True
            ),
            seed=self.seed + 1009 * seed_offset,
        )
        return simulator.run(shots=shots, rounds=rounds)
