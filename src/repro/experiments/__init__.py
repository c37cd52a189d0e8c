"""Experiment harness: memory experiments, sweeps, metrics, characterisation."""

from .leakage_injection import (
    InjectionResult,
    QutritCnotModel,
    leakage_growth,
    single_cnot_distribution,
)
from .memory import MemoryExperiment, MemoryResult
from .metrics import (
    average_suppression_factor,
    leakage_equilibrium,
    logical_error_rate,
    per_round_logical_error_rate,
    reduction_factor,
    speculation_inaccuracy,
    suppression_factor,
    wilson_interval,
)
from .runner import (
    ScaleConfig,
    current_scale,
    make_code,
)

__all__ = [
    "MemoryExperiment",
    "MemoryResult",
    "ScaleConfig",
    "current_scale",
    "make_code",
    "logical_error_rate",
    "wilson_interval",
    "per_round_logical_error_rate",
    "suppression_factor",
    "average_suppression_factor",
    "leakage_equilibrium",
    "reduction_factor",
    "speculation_inaccuracy",
    "QutritCnotModel",
    "InjectionResult",
    "single_cnot_distribution",
    "leakage_growth",
]
