"""Named sweep presets runnable as ``python -m repro sweep <name>``.

Each preset is a factory taking the active :class:`ScaleConfig` (the
``REPRO_SCALE`` knob) and returning a :class:`SweepSpec`.  The presets mirror
the paper's figure workloads so a user can regenerate a figure's data
without driving pytest-benchmark, and a ``smoke`` preset keeps CI and the
CLI tests fast.
"""

from __future__ import annotations

from typing import Callable

from .spec import SweepSpec

__all__ = [
    "NAMED_SWEEPS",
    "SWEEP_GROUPS",
    "build_sweep",
    "sweep_names",
    "sweep_subsystem",
]

#: Policies compared in most closed-loop studies, in the paper's order.
CLOSED_LOOP_POLICIES = (
    "eraser",
    "gladiator",
    "gladiator-d",
    "eraser+m",
    "gladiator+m",
    "gladiator-d+m",
)


def _smoke(scale) -> SweepSpec:
    return SweepSpec(
        name="smoke",
        distances=(3,),
        policies=("eraser+m", "gladiator+m"),
        shots=scale.shots(40),
        rounds=scale.rounds(8),
        seed=7,
    )


def _policy_compare_d7(scale) -> SweepSpec:
    return SweepSpec(
        name="policy-compare-d7",
        distances=(7,),
        policies=CLOSED_LOOP_POLICIES,
        shots=scale.shots(300),
        rounds=scale.rounds(70),
        seed=1,
    )


def _dlp_surface(scale) -> SweepSpec:
    # Figure 10: long-run data-leakage population at two leakage ratios.
    return SweepSpec(
        name="dlp-surface",
        distances=(7,) if scale.name != "paper" else (11,),
        leakage_ratios=(0.1, 1.0),
        policies=("eraser+m", "gladiator+m", "gladiator-d+m", "ideal"),
        shots=scale.shots(200),
        rounds=scale.rounds(150),
        seed=10,
    )


def _ler_scaling(scale) -> SweepSpec:
    # Figure 12: decoded logical error rate vs code distance.
    return SweepSpec(
        name="ler-scaling",
        distances=(3, 5) if scale.name != "paper" else (3, 5, 7),
        leakage_ratios=(1.0,),
        policies=("no-lrc", "always-lrc", "eraser+m", "gladiator+m"),
        shots=scale.decoded_shots(400),
        rounds=lambda distance: 4 * distance,
        decoded=True,
        seed=12,
    )


def _error_rate_sensitivity(scale) -> SweepSpec:
    # Figure 13: sensitivity of LRC usage and accuracy to the error rate.
    return SweepSpec(
        name="error-rate-sensitivity",
        distances=(5,),
        error_rates=(1e-3, 1e-4),
        policies=("eraser+m", "gladiator+m", "gladiator-d+m"),
        shots=scale.shots(300),
        rounds=scale.rounds(60),
        seed=13,
    )


def _distance_sensitivity(scale) -> SweepSpec:
    # Figure 14: total leakage events and LRC usage vs distance.
    return SweepSpec(
        name="distance-sensitivity",
        distances=(5, 7, 9) if scale.name != "paper" else (7, 11, 13, 17),
        policies=("eraser+m", "gladiator+m", "ideal"),
        shots=scale.shots(150),
        rounds=lambda distance: scale.rounds(10 * distance),
        seed=14,
    )


def _realtime_ler(scale) -> SweepSpec:
    # Online-decoding accuracy: the same decoded workload routed through the
    # sliding-window path at several window sizes, against the offline
    # baseline (window=None).  window >= rounds reproduces offline exactly.
    return SweepSpec(
        name="realtime-ler",
        distances=(3, 5),
        leakage_ratios=(1.0,),
        policies=("eraser+m", "gladiator+m"),
        shots=scale.decoded_shots(200),
        rounds=lambda distance: 4 * distance,
        decoded=True,
        windows=(None, 8),
        seed=21,
    )


def _realtime_throughput(scale) -> SweepSpec:
    # Window-size sensitivity of the streaming decoder: smaller windows
    # commit sooner (lower latency) but decode more often; the realtime
    # benchmark prices the same axis in wall-clock terms.
    return SweepSpec(
        name="realtime-throughput",
        distances=(3,),
        leakage_ratios=(1.0,),
        policies=("gladiator+m",),
        shots=scale.decoded_shots(150),
        rounds=scale.rounds(24),
        decoded=True,
        windows=(4, 8, 16),
        seed=22,
    )


NAMED_SWEEPS: dict[str, Callable[..., SweepSpec]] = {
    "smoke": _smoke,
    "policy-compare-d7": _policy_compare_d7,
    "dlp-surface": _dlp_surface,
    "ler-scaling": _ler_scaling,
    "error-rate-sensitivity": _error_rate_sensitivity,
    "distance-sensitivity": _distance_sensitivity,
    "realtime-ler": _realtime_ler,
    "realtime-throughput": _realtime_throughput,
}

#: Presets grouped by the subsystem that executes them: ``offline`` sweeps
#: decode (if at all) after the run ends; ``realtime`` sweeps route through
#: the :mod:`repro.realtime` sliding-window pipeline.
SWEEP_GROUPS: dict[str, tuple[str, ...]] = {
    "offline": (
        "distance-sensitivity",
        "dlp-surface",
        "error-rate-sensitivity",
        "ler-scaling",
        "policy-compare-d7",
        "smoke",
    ),
    "realtime": (
        "realtime-ler",
        "realtime-throughput",
    ),
}


def sweep_names() -> list[str]:
    """Names accepted by :func:`build_sweep` and the CLI, sorted."""
    return sorted(NAMED_SWEEPS)


def sweep_subsystem(name: str) -> str:
    """The subsystem group (``offline`` / ``realtime``) a preset belongs to."""
    for group, names in SWEEP_GROUPS.items():
        if name in names:
            return group
    raise ValueError(f"unknown sweep {name!r}; known: {sweep_names()}")


def build_sweep(name: str, scale=None) -> SweepSpec:
    """Instantiate a named sweep at the active (or given) workload scale."""
    if name not in NAMED_SWEEPS:
        raise ValueError(f"unknown sweep {name!r}; known: {sweep_names()}")
    if scale is None:
        from ..experiments.runner import current_scale

        scale = current_scale()
    return NAMED_SWEEPS[name](scale)
