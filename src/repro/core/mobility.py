"""Leakage-mobility estimation and regime classification (Section 7.6).

On real hardware both the leakage rate and the *mobility* (how readily
leakage hops between qubits during two-qubit gates) vary.  Mobility decides
which mitigation style wins: low-mobility devices are well served by simple
open-loop schedules (staggered resets, walking codes), high-mobility devices
need feedback-driven policies such as GLADIATOR.

The estimator combines GLADIATOR's speculative data-qubit flags with the
multi-level-readout flags on the adjacent ancillas: the conditional frequency
``P(adjacent ancilla MLR-flagged | data qubit flagged)`` tracks how often
leakage hops to a neighbour, and a 5% threshold (following the paper, which
takes it from the walking-code literature) separates the two regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codes.base import StabilizerCode
from ..noise import NoiseParams
from .speculator import LeakagePolicy, SpeculationInput

__all__ = [
    "MobilityRecordingPolicy",
    "MobilityEstimate",
    "MobilityEstimator",
    "classify_mobility",
]

#: Conditional-probability threshold separating low- from high-mobility devices.
MOBILITY_THRESHOLD = 0.05


@dataclass
class MobilityRecordingPolicy(LeakagePolicy):
    """Wrap another policy and record the statistics needed to estimate mobility."""

    inner: LeakagePolicy = None  # type: ignore[assignment]
    name: str = "mobility-recorder"

    def __post_init__(self) -> None:
        if self.inner is None:
            raise ValueError("MobilityRecordingPolicy requires an inner policy")
        self.uses_mlr = True  # MLR flags are required for the estimate
        self.uses_two_rounds = self.inner.uses_two_rounds
        self.flagged_count = 0
        self.co_flagged_count = 0
        self.rounds_observed = 0

    def prepare(self, code: StabilizerCode, noise: NoiseParams) -> None:
        super().prepare(code, noise)
        self.inner.prepare(code, noise)

    @property
    def emits_ancilla_lrc(self) -> bool:
        """The inner policy's answer: the caller's buffers go straight to it."""
        return self.inner.emits_ancilla_lrc

    def decide_into(
        self,
        ctx: SpeculationInput,
        data_lrc: np.ndarray,
        ancilla_lrc: np.ndarray | None = None,
    ) -> None:
        """Let the inner policy decide into the caller's buffers, then count."""
        self.inner.decide_into(ctx, data_lrc, ancilla_lrc)
        if ctx.mlr_neighbor is not None:
            self.flagged_count += int(np.count_nonzero(data_lrc))
            self.co_flagged_count += int(np.count_nonzero(data_lrc & ctx.mlr_neighbor))
        self.rounds_observed += 1

    @property
    def conditional_probability(self) -> float:
        """``P(adjacent ancilla MLR-flagged | data qubit flagged)`` so far."""
        if self.flagged_count == 0:
            return 0.0
        return self.co_flagged_count / self.flagged_count


@dataclass(frozen=True)
class MobilityEstimate:
    """Result of one mobility-estimation run."""

    conditional_probability: float
    regime: str
    flagged_events: int
    rounds: int


def classify_mobility(
    conditional_probability: float, threshold: float = MOBILITY_THRESHOLD
) -> str:
    """Classify a conditional co-flagging probability into ``"low"`` or ``"high"``."""
    return "high" if conditional_probability >= threshold else "low"


@dataclass
class MobilityEstimator:
    """Estimate the leakage-mobility regime of a (simulated) device.

    The estimator runs the leakage simulator with a recording wrapper around a
    GLADIATOR+M policy and classifies the measured conditional probability.
    The simulator import happens lazily to avoid a circular dependency.
    """

    code: StabilizerCode
    noise: NoiseParams
    policy_name: str = "gladiator+m"
    threshold: float = MOBILITY_THRESHOLD
    seed: int = 0
    extra_policy_kwargs: dict = field(default_factory=dict)

    def estimate(self, shots: int = 200, rounds: int = 50) -> MobilityEstimate:
        """Run the estimation experiment and classify the mobility regime."""
        from ..sim import LeakageSimulator, SimulatorOptions
        from .policies import make_policy

        inner = make_policy(self.policy_name, **self.extra_policy_kwargs)
        recorder = MobilityRecordingPolicy(inner=inner)
        simulator = LeakageSimulator(
            code=self.code,
            noise=self.noise,
            policy=recorder,
            options=SimulatorOptions(leakage_sampling=True),
            seed=self.seed,
        )
        simulator.run(shots=shots, rounds=rounds)
        probability = recorder.conditional_probability
        return MobilityEstimate(
            conditional_probability=probability,
            regime=classify_mobility(probability, self.threshold),
            flagged_events=recorder.flagged_count,
            rounds=rounds,
        )
