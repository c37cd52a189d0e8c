"""Time-structured noise presets: deterministic per-round parameter schedules.

Real devices are not stationary: calibrations drift between recalibration
epochs, two-qubit gate fidelity degrades in correlated bursts (e.g. TLS
couplings wandering through resonance), and cosmic-ray-like events flood the
chip with leakage for a round or two.  The presets here model those three
time structures as *deterministic* functions of the QEC round index, layered
multiplicatively on top of the stationary paper model:

* ``drift`` — piecewise-constant calibration epochs.  Each epoch's rates are
  derived by pushing the base parameters through
  :meth:`repro.core.calibration.CalibrationData.drifted` with a seed fixed
  per epoch, so the schedule is reproducible and expressible as config data.
* ``bursts`` — periodic windows in which only the two-qubit entangling-gate
  error is raised (via :attr:`NoiseParams.gate_error_factor`), the
  correlated-error signature that stresses decoders far more than uniform
  rescaling.
* ``floods`` — rare rounds whose leakage injection rate jumps by a large
  factor, modelling transient leakage showers.

Determinism matters twice over: it keeps runs bit-for-bit reproducible per
seed and ``ENGINE_VERSION``, and it lets the simulator compile one set of
draw rates per distinct epoch.  Every schedule preserves the zero-ness of
each probability (factors are strictly positive and apply
multiplicatively), so a schedule rescales noise channels without switching
any on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

from ..api.registry import register_noise
from .model import NoiseParams

__all__ = [
    "ScheduledNoiseParams",
    "DriftingNoiseParams",
    "BurstNoiseParams",
    "FloodNoiseParams",
    "drifting_noise",
    "burst_noise",
    "flood_noise",
]

_BASE_FIELDS = tuple(field.name for field in fields(NoiseParams))


@dataclass(frozen=True)
class ScheduledNoiseParams(NoiseParams):
    """Base class for noise whose parameters vary deterministically per round.

    Subclasses override :meth:`params_for_round` to return a *flat*
    :class:`NoiseParams` for the given round; the flat view is what the
    simulator consumes for that round's thresholds.  The schedule itself
    (period lengths, factors, epoch seeds) lives in the subclass fields, so
    the whole time structure serialises through ``dataclasses.asdict`` like
    any other noise point.
    """

    @property
    def is_time_structured(self) -> bool:
        return True

    def flat(self, **changes) -> NoiseParams:
        """The stationary base parameters, optionally with fields replaced."""
        values = {name: getattr(self, name) for name in _BASE_FIELDS}
        values.update(changes)
        return NoiseParams(**values)

    def params_for_round(self, round_index: int) -> NoiseParams:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# Drifting calibration epochs
# --------------------------------------------------------------------- #
@lru_cache(maxsize=512)
def _drift_epoch_params(params: "DriftingNoiseParams", epoch: int) -> NoiseParams:
    from ..core.calibration import CalibrationData

    base = params.flat()
    if base.p <= 0:
        # Nothing to drift (and multiplicative scaling must not create
        # probability mass where the base model has none).
        return base
    reference = CalibrationData.from_noise(base)
    drifted = reference.drifted(params.drift_factor, seed=params.drift_seed + epoch)
    p_scale = drifted.data_error / reference.data_error
    p = min(0.5, base.p * p_scale)
    leakage_ratio = base.leakage_ratio
    if reference.leakage_rate > 0:
        # Keep p_leak = leakage_ratio * p tracking the drifted leakage rate
        # independently of the drifted p.
        leak_scale = drifted.leakage_rate / reference.leakage_rate
        leakage_ratio = base.leakage_ratio * leak_scale * (base.p / p)
    return base.with_(p=p, leakage_ratio=leakage_ratio)


@dataclass(frozen=True)
class DriftingNoiseParams(ScheduledNoiseParams):
    """Piecewise-constant calibration drift: one drifted rate set per epoch."""

    drift_factor: float = 1.5
    drift_epoch_rounds: int = 10
    drift_seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.drift_factor < 1:
            raise ValueError("drift_factor must be >= 1")
        if self.drift_epoch_rounds < 1:
            raise ValueError("drift_epoch_rounds must be a positive integer")

    def params_for_round(self, round_index: int) -> NoiseParams:
        return _drift_epoch_params(self, round_index // self.drift_epoch_rounds)


# --------------------------------------------------------------------- #
# Correlated two-qubit gate-error bursts
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BurstNoiseParams(ScheduledNoiseParams):
    """Periodic bursts that raise only the entangling-gate error."""

    burst_period: int = 7
    burst_rounds: int = 2
    burst_gate_factor: float = 8.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.burst_period < 1:
            raise ValueError("burst_period must be a positive integer")
        if not 0 <= self.burst_rounds <= self.burst_period:
            raise ValueError("burst_rounds must lie in [0, burst_period]")
        if self.burst_gate_factor <= 0:
            raise ValueError("burst_gate_factor must be positive")

    def params_for_round(self, round_index: int) -> NoiseParams:
        if round_index % self.burst_period < self.burst_rounds:
            return self.flat(
                gate_error_factor=self.gate_error_factor * self.burst_gate_factor
            )
        return self.flat()


# --------------------------------------------------------------------- #
# Rare leakage floods
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FloodNoiseParams(ScheduledNoiseParams):
    """Rare rounds whose leakage injection rate jumps by a large factor."""

    flood_period: int = 25
    flood_rounds: int = 1
    flood_leak_factor: float = 25.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.flood_period < 1:
            raise ValueError("flood_period must be a positive integer")
        if not 0 <= self.flood_rounds <= self.flood_period:
            raise ValueError("flood_rounds must lie in [0, flood_period]")
        if self.flood_leak_factor <= 0:
            raise ValueError("flood_leak_factor must be positive")

    def params_for_round(self, round_index: int) -> NoiseParams:
        if round_index % self.flood_period < self.flood_rounds:
            ratio = self.leakage_ratio * self.flood_leak_factor
            if self.p > 0:
                # Cap so the per-opportunity leakage probability stays <= 1.
                ratio = min(ratio, 1.0 / self.p)
            return self.flat(leakage_ratio=ratio)
        return self.flat()


# --------------------------------------------------------------------- #
# Registered presets
# --------------------------------------------------------------------- #
@register_noise("drift", rate_parameters=True, time_structured=True,
                description="Calibration drift in deterministic per-epoch steps")
def drifting_noise(
    p: float = 1e-3,
    leakage_ratio: float = 0.1,
    drift_factor: float = 1.5,
    drift_epoch_rounds: int = 10,
    drift_seed: int = 0,
) -> DriftingNoiseParams:
    """The paper's profile with per-epoch calibration drift layered on top."""
    return DriftingNoiseParams(
        p=p,
        leakage_ratio=leakage_ratio,
        mlr_error_factor=10.0,
        drift_factor=drift_factor,
        drift_epoch_rounds=drift_epoch_rounds,
        drift_seed=drift_seed,
    )


@register_noise("bursts", rate_parameters=True, time_structured=True,
                description="Correlated two-qubit gate-error bursts")
def burst_noise(
    p: float = 1e-3,
    leakage_ratio: float = 0.1,
    burst_period: int = 7,
    burst_rounds: int = 2,
    burst_gate_factor: float = 8.0,
) -> BurstNoiseParams:
    """The paper's profile with periodic entangling-gate error bursts."""
    return BurstNoiseParams(
        p=p,
        leakage_ratio=leakage_ratio,
        mlr_error_factor=10.0,
        burst_period=burst_period,
        burst_rounds=burst_rounds,
        burst_gate_factor=burst_gate_factor,
    )


@register_noise("floods", rate_parameters=True, time_structured=True,
                description="Rare leakage-flood rounds (transient showers)")
def flood_noise(
    p: float = 1e-3,
    leakage_ratio: float = 0.1,
    flood_period: int = 25,
    flood_rounds: int = 1,
    flood_leak_factor: float = 25.0,
) -> FloodNoiseParams:
    """The paper's profile with rare high-leakage rounds layered on top."""
    return FloodNoiseParams(
        p=p,
        leakage_ratio=leakage_ratio,
        mlr_error_factor=10.0,
        flood_period=flood_period,
        flood_rounds=flood_rounds,
        flood_leak_factor=flood_leak_factor,
    )
