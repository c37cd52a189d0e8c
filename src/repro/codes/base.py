"""Base classes describing CSS stabilizer codes for leakage-aware simulation.

A :class:`StabilizerCode` bundles everything the rest of the library needs to
know about a quantum error-correcting code:

* the data qubits and parity (ancilla) qubits,
* the stabilizer supports and the order in which each stabilizer's CNOTs are
  scheduled inside one syndrome-extraction round,
* the logical operators tracked by memory experiments,
* the data-qubit "speculation adjacency" used by leakage speculators
  (ERASER, GLADIATOR, ...) to turn raw syndrome flips into per-data-qubit
  bit patterns,
* a colouring of the data qubits used by the staggered open-loop LRC policy.

Concrete constructions live in :mod:`repro.codes.surface`,
:mod:`repro.codes.color`, :mod:`repro.codes.hgp` and :mod:`repro.codes.bpc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gf2 import gf2_rank

__all__ = ["Stabilizer", "StabilizerCode", "SpeculationGroup"]


@dataclass(frozen=True)
class Stabilizer:
    """One stabilizer generator measured by a dedicated ancilla qubit.

    Attributes
    ----------
    index:
        Position of this stabilizer in the code's stabilizer list.  The
        ancilla qubit measuring it shares the same index.
    basis:
        ``"X"`` or ``"Z"``.  A Z-type stabilizer is a product of Pauli Z
        operators and detects X errors on its support (and vice versa).
    data_support:
        Data-qubit indices touched by this stabilizer, listed in the order in
        which the ancilla interacts with them during syndrome extraction.
    time_slots:
        Global CNOT time slot of each entry of ``data_support``.  When
        ``None`` the slots default to ``0, 1, 2, ...``.  Explicit slots let
        boundary stabilizers keep the layer assignment of the full schedule
        so that no data qubit is touched twice in the same layer.
    coords:
        Optional planar coordinates, used for plotting and for layout-aware
        policies; ``None`` for non-planar codes.
    """

    index: int
    basis: str
    data_support: tuple[int, ...]
    time_slots: tuple[int, ...] | None = None
    coords: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.basis not in ("X", "Z"):
            raise ValueError(f"stabilizer basis must be 'X' or 'Z', got {self.basis!r}")
        if len(set(self.data_support)) != len(self.data_support):
            raise ValueError("stabilizer support contains repeated data qubits")
        if self.time_slots is not None:
            if len(self.time_slots) != len(self.data_support):
                raise ValueError("time_slots must match data_support in length")
            if len(set(self.time_slots)) != len(self.time_slots):
                raise ValueError("a stabilizer cannot use the same time slot twice")

    @property
    def weight(self) -> int:
        """Number of data qubits in the stabilizer support."""
        return len(self.data_support)

    @property
    def slots(self) -> tuple[int, ...]:
        """CNOT time slot of each supported data qubit (defaults to 0, 1, ...)."""
        if self.time_slots is not None:
            return self.time_slots
        return tuple(range(len(self.data_support)))

    def time_slot(self, data_qubit: int) -> int:
        """CNOT time slot at which ``data_qubit`` interacts with this ancilla."""
        return self.slots[self.data_support.index(data_qubit)]


@dataclass(frozen=True)
class SpeculationGroup:
    """One bit of a data qubit's speculation pattern.

    The bit is the OR of the detector flips of the listed stabilizers.  For
    surface codes each group holds a single adjacent ancilla; for colour codes
    a group holds the X/Z ancilla pair of one adjacent plaquette, matching the
    paper's 3-bit colour-code patterns.
    """

    stabilizers: tuple[int, ...]
    time_slot: int


@dataclass
class StabilizerCode:
    """A CSS code plus the scheduling metadata needed for leakage simulation."""

    name: str
    distance: int
    num_data: int
    stabilizers: list[Stabilizer]
    logical_x: np.ndarray
    logical_z: np.ndarray
    data_coords: list[tuple[float, float] | None] = field(default_factory=list)
    speculation_overrides: dict[int, list[SpeculationGroup]] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.logical_x = np.asarray(self.logical_x, dtype=np.uint8) % 2
        self.logical_z = np.asarray(self.logical_z, dtype=np.uint8) % 2
        if not self.data_coords:
            self.data_coords = [None] * self.num_data
        self.validate()

    # ------------------------------------------------------------------ #
    # Basic structure
    # ------------------------------------------------------------------ #
    @property
    def num_ancilla(self) -> int:
        """Number of parity (ancilla) qubits; one per stabilizer generator."""
        return len(self.stabilizers)

    @cached_property
    def x_stabilizers(self) -> list[Stabilizer]:
        """Stabilizers of X type (detect Z errors)."""
        return [s for s in self.stabilizers if s.basis == "X"]

    @cached_property
    def z_stabilizers(self) -> list[Stabilizer]:
        """Stabilizers of Z type (detect X errors)."""
        return [s for s in self.stabilizers if s.basis == "Z"]

    @cached_property
    def parity_check_x(self) -> np.ndarray:
        """Binary matrix of X stabilizer supports (rows) over data qubits (columns)."""
        return self._support_matrix(self.x_stabilizers)

    @cached_property
    def parity_check_z(self) -> np.ndarray:
        """Binary matrix of Z stabilizer supports (rows) over data qubits (columns)."""
        return self._support_matrix(self.z_stabilizers)

    def _support_matrix(self, stabs: list[Stabilizer]) -> np.ndarray:
        matrix = np.zeros((len(stabs), self.num_data), dtype=np.uint8)
        for row, stab in enumerate(stabs):
            matrix[row, list(stab.data_support)] = 1
        return matrix

    @cached_property
    def num_time_slots(self) -> int:
        """Number of entangling layers needed by one syndrome-extraction round."""
        return max(max(s.slots) for s in self.stabilizers) + 1

    # ------------------------------------------------------------------ #
    # Adjacency used by speculation and by the staggered policy
    # ------------------------------------------------------------------ #
    @cached_property
    def data_adjacency(self) -> list[list[tuple[int, int]]]:
        """For each data qubit, the adjacent stabilizers as ``(stab_index, time_slot)``.

        Entries are sorted by time slot (then stabilizer index), which fixes
        the bit order of speculation patterns.
        """
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(self.num_data)]
        for stab in self.stabilizers:
            for slot, data in zip(stab.slots, stab.data_support):
                adjacency[data].append((stab.index, slot))
        for entries in adjacency:
            entries.sort(key=lambda item: (item[1], item[0]))
        return adjacency

    @cached_property
    def speculation_groups(self) -> list[list[SpeculationGroup]]:
        """Per-data-qubit pattern groups consumed by leakage speculators.

        By default each adjacent ancilla contributes one bit, ordered by the
        time slot at which the data qubit interacts with it.  Codes may
        override individual qubits via ``speculation_overrides`` (the colour
        code groups its X/Z plaquette pair into one bit).
        """
        groups: list[list[SpeculationGroup]] = []
        for data in range(self.num_data):
            if data in self.speculation_overrides:
                groups.append(list(self.speculation_overrides[data]))
                continue
            groups.append(
                [
                    SpeculationGroup(stabilizers=(stab_index,), time_slot=slot)
                    for stab_index, slot in self.data_adjacency[data]
                ]
            )
        return groups

    def pattern_width(self, data_qubit: int) -> int:
        """Number of bits in ``data_qubit``'s speculation pattern."""
        return len(self.speculation_groups[data_qubit])

    @cached_property
    def pattern_widths(self) -> list[int]:
        """Pattern width of every data qubit."""
        return [self.pattern_width(q) for q in range(self.num_data)]

    @cached_property
    def data_coloring(self) -> list[int]:
        """A proper colouring of the data interaction graph.

        Used by the staggered Always-LRC policy: qubits of the same colour are
        never adjacent, so resetting one colour group per round avoids
        correlated LRC faults on neighbouring qubits.  Largest-first greedy
        (``networkx.greedy_color(strategy="largest_first")``): qubits in
        stable descending-degree order, each taking the smallest colour its
        neighbours (qubits sharing a stabilizer) lack.
        """
        neighbours: list[set[int]] = [set() for _ in range(self.num_data)]
        for stab in self.stabilizers:
            for qubit in stab.data_support:
                neighbours[qubit].update(stab.data_support)
        for qubit, others in enumerate(neighbours):
            others.discard(qubit)
        coloring: dict[int, int] = {}
        for qubit in sorted(range(self.num_data), key=lambda q: -len(neighbours[q])):
            taken = {coloring[other] for other in neighbours[qubit] if other in coloring}
            coloring[qubit] = next(c for c in range(len(taken) + 1) if c not in taken)
        return [coloring[q] for q in range(self.num_data)]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check CSS commutation relations and logical-operator consistency."""
        for stab in self.stabilizers:
            for qubit in stab.data_support:
                if not 0 <= qubit < self.num_data:
                    raise ValueError(
                        f"stabilizer {stab.index} references data qubit {qubit} "
                        f"outside [0, {self.num_data})"
                    )
        h_x, h_z = self.parity_check_x, self.parity_check_z
        if h_x.size and h_z.size and np.any((h_x @ h_z.T) % 2):
            raise ValueError(f"{self.name}: X and Z stabilizers do not commute")
        if self.logical_x.shape != (self.num_data,):
            raise ValueError("logical_x must be a length-num_data binary vector")
        if self.logical_z.shape != (self.num_data,):
            raise ValueError("logical_z must be a length-num_data binary vector")
        if h_x.size and np.any((h_x @ self.logical_z) % 2):
            raise ValueError(f"{self.name}: logical Z anticommutes with an X stabilizer")
        if h_z.size and np.any((h_z @ self.logical_x) % 2):
            raise ValueError(f"{self.name}: logical X anticommutes with a Z stabilizer")
        if int(self.logical_x @ self.logical_z) % 2 != 1:
            raise ValueError(f"{self.name}: logical X and Z do not anticommute")

    @cached_property
    def num_logical_qubits(self) -> int:
        """Number of encoded logical qubits, ``n - rank(Hx) - rank(Hz)``."""
        rank_x = gf2_rank(self.parity_check_x) if self.parity_check_x.size else 0
        rank_z = gf2_rank(self.parity_check_z) if self.parity_check_z.size else 0
        return self.num_data - rank_x - rank_z

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line human-readable summary of the code."""
        widths = sorted(set(self.pattern_widths))
        return (
            f"{self.name}: distance {self.distance}, {self.num_data} data + "
            f"{self.num_ancilla} ancilla qubits, k={self.num_logical_qubits}, "
            f"pattern widths {widths}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StabilizerCode {self.describe()}>"
