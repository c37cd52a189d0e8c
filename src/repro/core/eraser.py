"""ERASER baseline speculator (Vittal et al., MICRO 2023; Section 3.2).

ERASER infers data-qubit leakage with a fixed heuristic: whenever at least
half of the parity qubits adjacent to a data qubit flip in one round, the
qubit is flagged and an LRC is scheduled.  The ``+M`` variant additionally
uses multi-level readout on the parity qubits: a flagged parity qubit is
reset and its neighbouring data qubits are also treated as suspects.

The heuristic exploits the surface code's regular 4-ancilla neighbourhoods;
the same rule applied to colour-code qubits (3, 2 or 1 adjacent plaquettes)
flags almost every non-trivial pattern, which is the generalisation failure
the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .speculator import LookupPolicy

__all__ = ["EraserPolicy", "EraserMPolicy"]


@dataclass
class EraserPolicy(LookupPolicy):
    """Closed-loop ERASER policy (syndrome heuristic only, no MLR)."""

    name: str = "eraser"
    uses_mlr: bool = False
    flip_fraction: float = 0.5

    def flag_table(self, qubit: int) -> np.ndarray:
        width = self.code.pattern_width(qubit)
        table = np.zeros(1 << width, dtype=bool)
        for value in range(1, 1 << width):
            ones = bin(value).count("1")
            table[value] = ones >= self.flip_fraction * width
        return table


@dataclass
class EraserMPolicy(EraserPolicy):
    """ERASER+M: the syndrome heuristic plus multi-level readout triggers."""

    name: str = "eraser"
    uses_mlr: bool = True
