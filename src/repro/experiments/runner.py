"""Workload scaling and the code factory shared by the benchmark harness.

Every figure and table of the paper is some sweep over (code, distance,
physical error rate, leakage ratio, policy); the benchmarks describe those
sweeps as :class:`~repro.sweeps.SweepSpec` grids or
:class:`~repro.api.config.ExperimentConfig` axes and run them on the
:mod:`repro.sweeps` engine (the keys of the summary rows it returns are
documented in :mod:`repro.sweeps.units`).  This module keeps the two helpers
they share:

* :func:`current_scale` reads the ``REPRO_SCALE`` knob (``smoke`` /
  ``quick`` / ``paper``), which switches between CI-sized and paper-sized
  workloads;
* :func:`make_code` builds a code by its registered family name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..api.registry import CODES
from ..codes.base import StabilizerCode

__all__ = [
    "ScaleConfig",
    "current_scale",
    "make_code",
]

_SCALE_PRESETS = {
    # (shot multiplier, round multiplier, decoded-shot multiplier)
    "smoke": (0.1, 0.25, 0.1),
    "quick": (1.0, 1.0, 1.0),
    "paper": (10.0, 4.0, 10.0),
}


@dataclass(frozen=True)
class ScaleConfig:
    """Workload scaling selected through the ``REPRO_SCALE`` environment variable."""

    name: str
    shot_multiplier: float
    round_multiplier: float
    decoded_shot_multiplier: float

    def shots(self, base: int) -> int:
        """Scaled number of (undecoded) shots."""
        return max(10, int(round(base * self.shot_multiplier)))

    def decoded_shots(self, base: int) -> int:
        """Scaled number of decoded shots (decoding dominates wall-clock)."""
        return max(10, int(round(base * self.decoded_shot_multiplier)))

    def rounds(self, base: int) -> int:
        """Scaled number of QEC rounds."""
        return max(5, int(round(base * self.round_multiplier)))


def current_scale() -> ScaleConfig:
    """Read the active scale preset from ``REPRO_SCALE`` (default: ``quick``)."""
    name = os.environ.get("REPRO_SCALE", "quick").lower()
    if name not in _SCALE_PRESETS:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(_SCALE_PRESETS)}, got {name!r}")
    shot_mult, round_mult, decoded_mult = _SCALE_PRESETS[name]
    return ScaleConfig(
        name=name,
        shot_multiplier=shot_mult,
        round_multiplier=round_mult,
        decoded_shot_multiplier=decoded_mult,
    )


def make_code(family: str, distance: int | None = None) -> StabilizerCode:
    """Construct a code by its registered family name.

    A thin lookup over :data:`repro.api.registry.CODES` — the family list,
    per-family default distances, and the unknown-name error (with its
    did-you-mean suggestions) all come from the registry, so they can never
    drift from what is actually registered.  Families without a distance
    knob ignore ``distance``, as the historical factory did.
    """
    entry = CODES.get(family)
    if not entry.metadata.get("accepts_distance", True):
        return entry.obj()
    if distance is None:
        distance = entry.metadata.get("default_distance")
    return entry.obj(distance) if distance is not None else entry.obj()
