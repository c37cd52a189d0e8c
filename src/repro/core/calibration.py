"""Device calibration data used to weight the error-propagation graph.

GLADIATOR's offline stage weights the edges of its syndrome-transition graph
with calibrated error rates (Section 4.2).  :class:`CalibrationData` is the
container for those rates; it can be derived from a :class:`NoiseParams`
(the simulation ground truth), perturbed to emulate drifted calibrations, and
turned back into the effective probabilities the graph builder consumes.
Recalibration only touches these numbers, never the graph structure, which is
exactly the adaptability argument the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..noise import NoiseParams

__all__ = ["CalibrationData"]


@dataclass(frozen=True)
class CalibrationData:
    """Calibrated error rates for one device / one code patch.

    Attributes mirror the error sources of the paper's noise model; all are
    per-operation probabilities.
    """

    gate_error: float
    measurement_error: float
    reset_error: float
    data_error: float
    leakage_rate: float
    leakage_mobility: float = 0.1
    mlr_error: float = 1e-2

    def __post_init__(self) -> None:
        for name in (
            "gate_error",
            "measurement_error",
            "reset_error",
            "data_error",
            "leakage_rate",
            "leakage_mobility",
            "mlr_error",
        ):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be a probability, got {value}")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_noise(cls, noise: NoiseParams) -> "CalibrationData":
        """Calibration that matches the simulated noise model exactly."""
        return cls(
            gate_error=noise.p,
            measurement_error=noise.p,
            reset_error=noise.p,
            data_error=noise.p,
            leakage_rate=noise.p_leak,
            leakage_mobility=noise.leakage_mobility,
            mlr_error=noise.mlr_error,
        )

    def drifted(self, factor: float, seed: int | None = None) -> "CalibrationData":
        """A mis-calibrated copy: every rate multiplied by a random factor.

        ``factor`` bounds the multiplicative drift (e.g. ``2.0`` allows each
        rate to move anywhere within [1/2x, 2x]).  Used by the sensitivity
        studies to show GLADIATOR's labels are robust to calibration error.
        """
        if factor < 1:
            raise ValueError("drift factor must be >= 1")
        rng = np.random.default_rng(seed)
        exponents = rng.uniform(-1.0, 1.0, size=5)
        scales = factor ** exponents
        return replace(
            self,
            gate_error=min(1.0, self.gate_error * scales[0]),
            measurement_error=min(1.0, self.measurement_error * scales[1]),
            reset_error=min(1.0, self.reset_error * scales[2]),
            data_error=min(1.0, self.data_error * scales[3]),
            leakage_rate=min(1.0, self.leakage_rate * scales[4]),
        )

    def with_(self, **changes) -> "CalibrationData":
        """Copy with the given fields replaced."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line calibration summary."""
        return (
            f"gate={self.gate_error:g}, meas={self.measurement_error:g}, "
            f"leak={self.leakage_rate:g}, mobility={self.leakage_mobility:g}"
        )
