"""Syndrome-extraction scheduling.

One QEC round consists of: ancilla reset, a sequence of entangling layers
(time slots) in which every ancilla interacts with one data qubit of its
support, and ancilla measurement.  The :class:`RoundSchedule` flattens the
per-stabilizer CNOT orders stored in the code into global time slots so the
simulator (and the cycle-time model) can execute the round layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..codes.base import StabilizerCode

__all__ = ["CnotOperation", "RoundSchedule"]


@dataclass(frozen=True)
class CnotOperation:
    """One data-ancilla entangling gate inside a syndrome-extraction round."""

    stabilizer: int
    data_qubit: int
    time_slot: int
    basis: str


@dataclass
class RoundSchedule:
    """All entangling operations of one round, grouped by time slot."""

    code: StabilizerCode

    @cached_property
    def num_slots(self) -> int:
        """Number of entangling layers in one round."""
        return self.code.num_time_slots

    @cached_property
    def slots(self) -> list[list[CnotOperation]]:
        """Entangling operations grouped by time slot."""
        layers: list[list[CnotOperation]] = [[] for _ in range(self.num_slots)]
        for stab in self.code.stabilizers:
            for slot, data_qubit in zip(stab.slots, stab.data_support):
                layers[slot].append(
                    CnotOperation(
                        stabilizer=stab.index,
                        data_qubit=data_qubit,
                        time_slot=slot,
                        basis=stab.basis,
                    )
                )
        return layers

    @cached_property
    def operations(self) -> list[CnotOperation]:
        """All entangling operations of the round in execution order."""
        return [op for layer in self.slots for op in layer]

    @property
    def num_entangling_gates(self) -> int:
        """Total number of two-qubit gates per round."""
        return len(self.operations)

    def validate(self) -> None:
        """Check that no qubit is used twice within one time slot."""
        for slot_index, layer in enumerate(self.slots):
            seen_data: set[int] = set()
            seen_anc: set[int] = set()
            for op in layer:
                if op.stabilizer in seen_anc:
                    raise ValueError(
                        f"ancilla {op.stabilizer} used twice in slot {slot_index}"
                    )
                seen_anc.add(op.stabilizer)
                # Data qubits may legitimately appear once per slot only.
                if op.data_qubit in seen_data:
                    raise ValueError(
                        f"data qubit {op.data_qubit} used twice in slot {slot_index}"
                    )
                seen_data.add(op.data_qubit)
