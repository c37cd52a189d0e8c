"""FPGA resource model for the leakage-speculation hardware (Section 4.4, Table 3).

GLADIATOR's online stage is a combinational sequence checker matching 5-bit
tagged patterns against minimised Boolean templates; it needs roughly 10 LUTs
per instantiated checker and is replicated just enough to classify all
``d**2`` data qubits within the 100 ns budget of four CNOT layers.  ERASER's
hand-crafted finite-state machine instead grows quickly with code distance.
This module reproduces both cost models: the analytic GLADIATOR formula
``LUTs = 10 * ceil(d**2 / 100)``, the ERASER LUT counts re-synthesised in the
paper (Table 3) with a quadratic fit for other distances, and a generic
LUT estimator for arbitrary minimised expressions (Appendix B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.boolean_minimize import Implicant

__all__ = [
    "GLADIATOR_LUTS_PER_CHECKER",
    "QUBITS_PER_CHECKER",
    "ERASER_TABLE3_LUTS",
    "gladiator_luts",
    "eraser_luts",
    "lut_reduction_factor",
    "luts_for_expression",
    "FpgaReport",
    "resource_report",
]

#: LUTs consumed by one replicated GLADIATOR sequence checker (paper, Section 4.4).
GLADIATOR_LUTS_PER_CHECKER = 10
#: Number of data qubits one sequence checker can serve within the 100 ns deadline.
QUBITS_PER_CHECKER = 100

#: ERASER LUT counts per logical qubit re-synthesised on the Kintex
#: UltraScale+ (xcku3p) FPGA, as reported in Table 3 of the paper.
ERASER_TABLE3_LUTS = {5: 177, 9: 633, 13: 1382, 17: 2434, 21: 3786, 25: 5393}


def gladiator_luts(distance: int) -> int:
    """GLADIATOR LUTs per logical qubit: ``10 * ceil(d**2 / 100)``."""
    if distance < 2:
        raise ValueError("distance must be at least 2")
    checkers = math.ceil(distance * distance / QUBITS_PER_CHECKER)
    return GLADIATOR_LUTS_PER_CHECKER * checkers


def eraser_luts(distance: int) -> int:
    """ERASER FSM LUTs per logical qubit.

    Exact re-synthesised values from Table 3 where available; a quadratic fit
    (``~8.6 d**2``) everywhere else, matching the FSM's per-data-qubit growth.
    """
    if distance < 2:
        raise ValueError("distance must be at least 2")
    if distance in ERASER_TABLE3_LUTS:
        return ERASER_TABLE3_LUTS[distance]
    return int(round(8.6 * distance * distance + 0.3 * distance - 45))


def lut_reduction_factor(distance: int) -> float:
    """How many times fewer LUTs GLADIATOR uses than ERASER at ``distance``."""
    return eraser_luts(distance) / gladiator_luts(distance)


def luts_for_expression(
    implicants: list[Implicant], width: int, inputs_per_lut: int = 6
) -> int:
    """Estimate the LUT cost of one minimised sum-of-products expression.

    Each product term with at most ``inputs_per_lut`` literals fits in one
    LUT; wider terms are decomposed; the OR tree over the terms adds
    ``ceil((terms - 1) / (inputs_per_lut - 1))`` further LUTs.
    """
    if not implicants:
        return 0
    term_luts = 0
    for implicant in implicants:
        literals = max(1, implicant.num_literals(width))
        term_luts += math.ceil(literals / inputs_per_lut)
    or_inputs = len(implicants)
    or_luts = 0
    while or_inputs > 1:
        groups = math.ceil(or_inputs / inputs_per_lut)
        or_luts += groups
        or_inputs = groups
    total = term_luts + or_luts
    # A single-output function never needs fewer than one LUT.
    return max(1, total - (1 if or_inputs == 1 and len(implicants) == 1 else 0))


@dataclass(frozen=True)
class FpgaReport:
    """Per-distance FPGA resource comparison (one row of Table 3)."""

    distance: int
    gladiator_luts: int
    eraser_luts: int

    @property
    def reduction(self) -> float:
        """ERASER-to-GLADIATOR LUT ratio."""
        return self.eraser_luts / self.gladiator_luts


def resource_report(distances: list[int]) -> list[FpgaReport]:
    """Table 3: LUTs per logical qubit for a list of code distances."""
    return [
        FpgaReport(
            distance=d,
            gladiator_luts=gladiator_luts(d),
            eraser_luts=eraser_luts(d),
        )
        for d in distances
    ]
