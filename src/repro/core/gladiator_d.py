"""GLADIATOR-D: deferred, two-round leakage speculation (Section 5.2).

Where the base speculator classifies each round's pattern in isolation,
GLADIATOR-D waits one extra round and classifies the *pair* of consecutive
patterns.  Persistent leakage keeps randomising the syndrome, whereas a
single Pauli fault produces a partial pattern followed by its deterministic
completion, so the two-round view separates the two far better — especially
for colour codes, whose 1-3 bit single-round patterns carry little
information.  The cost is one round of detection latency and a sequence
checker with twice as many inputs (the paper budgets at most a 4x LUT
increase).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .gladiator import GladiatorPolicy
from .graph_model import labels_for_qubit

__all__ = ["GladiatorDPolicy", "GladiatorDMPolicy"]


@dataclass
class GladiatorDPolicy(GladiatorPolicy):
    """Two-round (deferred) GLADIATOR speculator."""

    name: str = "gladiator-d"
    uses_mlr: bool = False
    uses_two_rounds: bool = True

    #: No previous round yet: the deferred speculator stays silent in the
    #: very first round (the paper applies LRCs "every round except the
    #: first" in the sliding-window scheme).
    silent_first_round: ClassVar[bool] = True

    def flag_table(self, qubit: int) -> np.ndarray:
        return labels_for_qubit(
            self.code,
            qubit,
            calibration=self.calibration,
            config=self.config,
            two_rounds=True,
        )


@dataclass
class GladiatorDMPolicy(GladiatorDPolicy):
    """GLADIATOR-D+M: deferred speculation plus multi-level readout triggers."""

    name: str = "gladiator-d"
    uses_mlr: bool = True
