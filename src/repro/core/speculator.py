"""Policy interface shared by all leakage-mitigation strategies.

A policy inspects the per-data-qubit syndrome patterns produced by one QEC
round (plus, optionally, the previous round and the multi-level-readout
flags) and decides which qubits receive a Leakage Reduction Circuit in the
next round.  Open-loop policies ignore the syndrome inputs entirely;
closed-loop policies (ERASER, GLADIATOR, ...) are table lookups from the
pattern to a flag, which is what makes them implementable in a few LUTs of
combinational logic (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..codes.base import StabilizerCode
from ..noise import NoiseParams

__all__ = [
    "SpeculationInput",
    "LeakagePolicy",
    "LookupPolicy",
    "TableLayout",
]


@dataclass
class SpeculationInput:
    """Everything a policy may look at when making its per-round decision.

    Attributes
    ----------
    round_index:
        Zero-based index of the QEC round that just completed.
    pattern_ints:
        ``(shots, num_data)`` packed per-data-qubit detector-flip patterns
        for the current round (bit 0 = earliest adjacent CNOT).
    prev_pattern_ints:
        Same, for the previous round (all zeros in round 0); consumed by the
        deferred GLADIATOR-D speculator.
    mlr_neighbor:
        ``(shots, num_data)`` OR of the multi-level-readout leakage flags of
        each data qubit's adjacent ancillas (``None`` without MLR, or when
        the policy does not read it, see
        :attr:`LeakagePolicy.uses_mlr_neighbor`).
    data_leaked:
        ``(shots, num_data)`` ground-truth leakage state.  Only the IDEAL
        oracle policy may read this; it exists so the paper's "perfect
        speculation" reference curves can be reproduced.
    """

    round_index: int
    pattern_ints: np.ndarray
    prev_pattern_ints: np.ndarray
    mlr_neighbor: np.ndarray | None
    data_leaked: np.ndarray


@dataclass
class LeakagePolicy:
    """Base class for leakage-mitigation policies.

    Subclasses set the class attributes below and implement
    :meth:`decide_into`, the one online decision method.  ``prepare`` is
    called once per run with the code and noise model so policies can build
    their lookup tables offline, mirroring the paper's offline/online split.
    """

    name: str = "base"
    uses_mlr: bool = False
    uses_two_rounds: bool = False

    def prepare(self, code: StabilizerCode, noise: NoiseParams) -> None:
        """Offline stage: build whatever tables the policy needs."""
        self._code = code
        self._noise = noise

    @property
    def emits_ancilla_lrc(self) -> bool:
        """Whether :meth:`decide_into` may request ancilla LRCs.

        The caller passes an ``ancilla_lrc`` buffer exactly when this is
        ``True``; otherwise the simulator freezes a single all-zeros ancilla
        decision and skips the per-round ancilla work.  The base class
        answers ``True`` so third-party policies keep their ancilla
        requests; built-in policies that never emit them answer ``False``.
        """
        return True

    @property
    def uses_mlr_neighbor(self) -> bool:
        """Whether :meth:`decide_into` reads ``ctx.mlr_neighbor``.

        The simulator computes (and allocates) the MLR-neighbour flags only
        for MLR policies that answer ``True``.  The base class does, so
        third-party policies keep their input.
        """
        return True

    def decide_into(
        self,
        ctx: SpeculationInput,
        data_lrc: np.ndarray,
        ancilla_lrc: np.ndarray | None = None,
    ) -> None:
        """Online stage: write one round's LRC requests into the caller's buffers.

        ``data_lrc`` (``(shots, num_data)`` bool) and, passed exactly when
        the policy :attr:`emits_ancilla_lrc`, ``ancilla_lrc``
        (``(shots, num_ancilla)`` bool) must be fully overwritten — never
        OR-accumulated — so a reused buffer cannot leak one round's decision
        into the next.  The arrays in ``ctx`` alias the simulator's round
        workspace and are rewritten every round; policies must copy anything
        they retain.
        """
        raise NotImplementedError

    # Convenience for subclasses -------------------------------------------------
    @property
    def code(self) -> StabilizerCode:
        """The code this policy was prepared for."""
        return self._code

    @property
    def noise(self) -> NoiseParams:
        """The noise model this policy was prepared for."""
        return self._noise

    def describe(self) -> str:
        """Human-readable policy summary."""
        suffix = "+M" if self.uses_mlr else ""
        return f"{self.name}{suffix}"


@dataclass(frozen=True)
class TableLayout:
    """The online half of a :class:`LookupPolicy`, as plain data.

    The NumPy lookup and the simulator's compiled speculation kernel
    (:mod:`repro.sim._ckernels`) read the same layout, so the two cannot
    disagree on a decision.

    Attributes
    ----------
    flat:
        Every data qubit's boolean flag table, back to back.
    offsets:
        ``(num_data,)`` int64 start of each qubit's table in ``flat``.
    shifts:
        ``(num_data,)`` int64 shift of the previous round's pattern in a
        two-round key (the qubit's pattern width), or ``None`` for
        single-round policies, whose key is the pattern itself.
    silent_first_round:
        Whether round 0 flags nothing: a deferred speculator has no
        previous round yet.
    """

    flat: np.ndarray
    offsets: np.ndarray
    shifts: np.ndarray | None
    silent_first_round: bool


@dataclass
class LookupPolicy(LeakagePolicy):
    """Closed-loop policy driven by per-qubit pattern lookup tables.

    Subclasses implement :meth:`flag_table`, returning for each data qubit a
    boolean table indexed by the packed pattern (or, for two-round policies,
    by ``prev_pattern * 2**width + pattern``).  ``prepare`` lays them out
    as one :class:`TableLayout`: the tables back to back in one flat array,
    each qubit's offset into it, each qubit's previous-pattern key shift
    (two-round policies), and whether round 0 is silent.  The online lookup
    of every qubit at once is a single ``np.take(flat, keys + offsets)``,
    and the simulator's compiled speculation step reads the same arrays.
    The decision depends on the syndrome patterns alone: a ``+M`` variant
    uses multi-level readout to reset leaked ancillas, but its lookup never
    reads the MLR-neighbour flags.
    """

    #: Whether round 0 is silent (see :attr:`TableLayout.silent_first_round`).
    silent_first_round: ClassVar[bool] = False

    def flag_table(self, qubit: int) -> np.ndarray:
        """Boolean flag table of one data qubit (size ``2**width`` or ``4**width``)."""
        raise NotImplementedError

    @property
    def uses_mlr_neighbor(self) -> bool:
        """A table lookup never reads ``mlr_neighbor``."""
        return False

    def prepare(self, code: StabilizerCode, noise: NoiseParams) -> None:
        super().prepare(code, noise)
        tables = [np.asarray(self.flag_table(q), dtype=bool) for q in range(code.num_data)]
        sizes = np.array([table.shape[0] for table in tables], dtype=np.int64)
        self.table_layout = TableLayout(
            flat=np.concatenate(tables),
            offsets=np.cumsum(sizes) - sizes,
            shifts=(
                np.asarray(code.pattern_widths, dtype=np.int64)
                if self.uses_two_rounds
                else None
            ),
            silent_first_round=self.silent_first_round,
        )

    @property
    def emits_ancilla_lrc(self) -> bool:
        """Lookup policies only ever request data-qubit LRCs."""
        return False

    def decide_into(
        self,
        ctx: SpeculationInput,
        data_lrc: np.ndarray,
        ancilla_lrc: np.ndarray | None = None,
    ) -> None:
        """Table lookup straight into the caller's decision buffer."""
        layout = self.table_layout
        if layout.silent_first_round and ctx.round_index == 0:
            data_lrc[:] = False
        else:
            keys = ctx.pattern_ints
            if layout.shifts is not None:
                keys = keys + (ctx.prev_pattern_ints << layout.shifts)
            np.take(layout.flat, keys + layout.offsets, out=data_lrc)
