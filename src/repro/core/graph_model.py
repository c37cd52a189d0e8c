"""GLADIATOR's code-aware error-propagation graph model (Section 4.2).

For every data qubit the model enumerates the error mechanisms that can act
during one (or two) syndrome-extraction rounds and the detector-flip pattern
each mechanism produces on the qubit's adjacent ancillas:

* **non-leakage** mechanisms (data Pauli errors injected before any CNOT of
  the qubit's schedule, isolated measurement/reset/ancilla-gate flips, and
  optionally pairs of those) yield *deterministic* patterns,
* **leakage** mechanisms (leakage injected before any CNOT, or leakage that
  persists from earlier rounds) randomise every subsequent CNOT and therefore
  spread their probability over all reachable patterns (uniformly where
  every pattern bit reads one ancilla).

Summing the probabilities of the mechanisms that reach a pattern gives the
leakage super-edge weight ``W_L`` and non-leakage super-edge weight ``W_NL``
of that pattern's node in the merged transition graph; a pattern is labelled
*leakage-critical* when ``W_L > threshold * W_NL``.  The resulting lookup
table is what the online sequence checker matches against.

The same machinery, applied to a two-round window, yields the deferred
GLADIATOR-D tables (Section 5.2).

Every mechanism carries its distribution as arrays: ``patterns`` (int64)
and ``conditionals`` (float64).  A leakage distribution is built one masked
bit at a time, a two-round product is one broadcast (round-1 major), and
each weight table is one scatter-add (``np.bincount``) over the
concatenated outcomes of one kind.  The scatter-add sums each pattern's
contributions in mechanism order, then outcome order, and every product is
taken in the same order as the per-outcome definition; the tables are
therefore byte-stable, which the label tables, goldens and unit keys depend
on (``tests/test_graph_model.py`` pins their SHA-256).
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..codes.base import StabilizerCode
from .calibration import CalibrationData

__all__ = [
    "GraphModelConfig",
    "QubitContext",
    "GroupInfo",
    "qubit_context",
    "TransitionModel",
]

_PAULIS = ("X", "Y", "Z")

#: A pattern distribution: ``(patterns, conditionals)`` (int64, float64).
Outcomes = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class GraphModelConfig:
    """Tunable knobs of the graph model.

    Attributes
    ----------
    threshold:
        A pattern is flagged when ``W_L > threshold * W_NL``.  The default is
        below 1 because false negatives and false positives are not
        symmetric: a missed leakage keeps corrupting syndromes (and can
        spread) for several further rounds, whereas an unnecessary LRC costs
        a single noisy gadget.  The threshold is the FP-to-FN cost ratio;
        lowering it makes speculation more aggressive.
    persistence_rounds:
        Expected number of rounds a leaked data qubit survives before an LRC
        removes it; together with the per-round number of leakage
        opportunities it weights the "already leaked" mechanism.
    gate_error_factor:
        Fraction of a CNOT's depolarising error budget attributed to the data
        operand (produces mid-round data errors).
    isolated_flip_factor:
        Multiple of the physical error rate assigned to mechanisms that flip
        exactly one syndrome bit (measurement + reset + ancilla-side gate
        error).
    include_second_order:
        Whether to include pairs of isolated bit flips as second-order
        non-leakage mechanisms.
    include_prior_round_completion:
        Whether to include detector "completions" of errors that occurred in
        the previous round (they produce the complementary prefix pattern).
    include_neighbor_leakage:
        Whether to model leakage on *neighbouring* data qubits as a benign
        (from this qubit's point of view) cause of partial pattern
        randomisation.  Neighbouring leakage randomises only the ancillas the
        two qubits share, and scheduling an LRC on this qubit would not fix
        it; accounting for it is what keeps GLADIATOR from over-triggering on
        dense qLDPC codes where every check is shared by many data qubits.
    """

    threshold: float = 0.2
    threshold_two_round: float = 0.5
    persistence_rounds: float = 2.0
    gate_error_factor: float = 0.5
    isolated_flip_factor: float = 2.5
    include_second_order: bool = True
    include_prior_round_completion: bool = True
    include_neighbor_leakage: bool = True

    def __post_init__(self) -> None:
        # Options reach here unchecked from JSON configs and ``--set``.
        for name, positive in (
            ("threshold", True),
            ("threshold_two_round", True),
            ("persistence_rounds", False),
            ("gate_error_factor", False),
            ("isolated_flip_factor", False),
        ):
            value = getattr(self, name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (number and math.isfinite(value)) or value < 0 or positive and value == 0:
                bound = "positive" if positive else "non-negative"
                raise ValueError(f"{name} must be a finite {bound} number, got {value!r}")


@dataclass(frozen=True)
class GroupInfo:
    """One bit of a data qubit's speculation pattern.

    ``bases`` are the bases of the stabilizers whose detector flips are OR-ed
    into this bit, and ``weights`` their support sizes; a heavier stabilizer's
    ancilla is touched by more CNOTs per round and therefore flips more often
    for reasons unrelated to this data qubit.
    """

    position: int
    bases: tuple[str, ...]
    weights: tuple[int, ...] = ()

    @property
    def stabilizer_weights(self) -> tuple[int, ...]:
        """Support sizes of the stabilizers in this group (defaults to weight 4)."""
        if self.weights:
            return self.weights
        return tuple(4 for _ in self.bases)


@dataclass(frozen=True)
class QubitContext:
    """Everything the graph model needs to know about one data qubit.

    ``groups`` are in position order.  ``neighbor_overlaps`` lists, for
    every neighbouring data qubit that shares at least one ancilla with this
    one, the bit mask of this qubit's pattern positions that the shared
    ancillas feed.  Leakage on that neighbour can randomise exactly those
    bits and nothing else.
    """

    width: int
    groups: tuple[GroupInfo, ...]
    neighbor_overlaps: tuple[int, ...] = ()

    @property
    def signature(self) -> tuple:
        """Hashable key identifying equivalent qubits (used to share tables)."""
        return (
            tuple((g.position, g.bases, g.stabilizer_weights) for g in self.groups),
            tuple(sorted(self.neighbor_overlaps)),
        )


def qubit_context(code: StabilizerCode, qubit: int) -> QubitContext:
    """Extract the speculation context of ``qubit`` from ``code``."""
    groups = []
    stab_to_position: dict[int, int] = {}
    for position, group in enumerate(code.speculation_groups[qubit]):
        bases = tuple(code.stabilizers[s].basis for s in group.stabilizers)
        weights = tuple(code.stabilizers[s].weight for s in group.stabilizers)
        groups.append(GroupInfo(position=position, bases=bases, weights=weights))
        for stab in group.stabilizers:
            stab_to_position[stab] = position
    # Which of this qubit's pattern bits each neighbouring data qubit can touch.
    overlap_by_neighbor: dict[int, int] = {}
    for stab_index, position in stab_to_position.items():
        for other in code.stabilizers[stab_index].data_support:
            if other == qubit:
                continue
            overlap_by_neighbor[other] = overlap_by_neighbor.get(other, 0) | (1 << position)
    return QubitContext(
        width=len(groups),
        groups=tuple(groups),
        neighbor_overlaps=tuple(sorted(overlap_by_neighbor.values())),
    )


@dataclass(eq=False)
class Mechanism:
    """One error mechanism and its conditional pattern distribution.

    Given the mechanism, pattern ``patterns[i]`` (int64) occurs with
    probability ``conditionals[i]`` (float64); a deterministic mechanism has
    one pattern at conditional probability 1.  Pattern ``patterns[i]``
    gains ``probability * conditionals[i]`` of super-edge weight, which is
    how the aggregated second-order faults (probability 1, their rates as
    ``conditionals``) carry one rate per pattern.
    """

    name: str
    probability: float
    is_leakage: bool
    patterns: np.ndarray
    conditionals: np.ndarray


_BASE_PATTERN = np.zeros(1, dtype=np.int64)
_CERTAIN = np.ones(1)
_NO_PATTERNS = np.zeros(0, dtype=np.int64)
_NO_WEIGHTS = np.zeros(0)
for _shared in (_BASE_PATTERN, _CERTAIN, _NO_PATTERNS, _NO_WEIGHTS):
    _shared.flags.writeable = False


def _certain(name: str, probability: float, pattern: int) -> Mechanism:
    """A deterministic non-leakage mechanism producing ``pattern``."""
    return Mechanism(name, probability, False, np.array([pattern]), _CERTAIN)


@dataclass
class TransitionModel:
    """Per-qubit syndrome-transition model and pattern labeller."""

    context: QubitContext
    calibration: CalibrationData
    config: GraphModelConfig = field(default_factory=GraphModelConfig)

    # ------------------------------------------------------------------ #
    # Pattern algebra
    # ------------------------------------------------------------------ #
    def _pauli_flip_pattern(self, pauli: str, start_position: int) -> int:
        """Pattern produced by a data Pauli error injected before ``start_position``."""
        pattern = 0
        for group in self.context.groups:
            if group.position < start_position:
                continue
            detects = ("Z" in group.bases and pauli in ("X", "Y")) or (
                "X" in group.bases and pauli in ("Z", "Y")
            )
            if detects:
                pattern |= 1 << group.position
        return pattern

    def _suffix_mask(self, start_position: int) -> int:
        """Bit mask of the groups at or after ``start_position``."""
        mask = 0
        for group in self.context.groups:
            if group.position >= start_position:
                mask |= 1 << group.position
        return mask

    # ------------------------------------------------------------------ #
    # Mechanism enumeration: single round
    # ------------------------------------------------------------------ #
    def single_round_mechanisms(self) -> list[Mechanism]:
        """All modelled error mechanisms of one QEC round (base pattern 0)."""
        cal, cfg, width = self.calibration, self.config, self.context.width
        mechanisms: list[Mechanism] = []

        # Data Pauli errors injected before each CNOT position.
        for position in range(width):
            scale = 1.0 if position == 0 else cfg.gate_error_factor
            base_probability = cal.data_error if position == 0 else cal.gate_error
            for pauli in _PAULIS:
                pattern = self._pauli_flip_pattern(pauli, position)
                if pattern == 0:
                    continue
                mechanisms.append(
                    _certain(
                        f"data_{pauli}_t{position}", base_probability * scale / 3.0, pattern
                    )
                )

        # Completion of a data error that occurred mid-way through the
        # previous round (its detector signature this round is the prefix).
        if cfg.include_prior_round_completion:
            for position in range(1, width):
                for pauli in _PAULIS:
                    full = self._pauli_flip_pattern(pauli, 0)
                    suffix = self._pauli_flip_pattern(pauli, position)
                    pattern = full ^ suffix
                    if pattern == 0:
                        continue
                    mechanisms.append(
                        _certain(
                            f"prior_{pauli}_t{position}",
                            cal.gate_error * cfg.gate_error_factor / 3.0,
                            pattern,
                        )
                    )

        # Isolated single-bit flips (measurement, reset, ancilla-side gate error).
        isolated = self._isolated_bit_probabilities()
        for position, probability in isolated.items():
            mechanisms.append(_certain(f"isolated_bit{position}", probability, 1 << position))

        # Second-order: XOR combinations of any two first-order non-leakage
        # mechanisms (two independent faults in the same round).
        if cfg.include_second_order:
            mechanisms.append(self._second_order(mechanisms))

        # Leakage injected before each CNOT position: subsequent CNOTs
        # malfunction and produce uniformly random flips.
        for position in range(width):
            mechanisms.append(
                Mechanism(
                    f"leak_t{position}",
                    cal.leakage_rate,
                    True,
                    *self._leakage_outcomes(self._suffix_mask(position)),
                )
            )

        # Leakage persisting from earlier rounds: the whole pattern is random.
        # The chance of being leaked "now" is the per-round injection rate
        # (one environment plus one opportunity per scheduled CNOT) times the
        # expected number of rounds a leaked qubit survives undetected.
        if cfg.persistence_rounds > 0:
            mechanisms.append(
                Mechanism(
                    "leak_persistent",
                    cal.leakage_rate * (width + 1) * cfg.persistence_rounds,
                    True,
                    *self._leakage_outcomes(self._suffix_mask(0)),
                )
            )

        # Leakage on a *neighbouring* data qubit randomises only the shared
        # ancillas.  An LRC on this qubit would not help, so the mechanism
        # counts as non-leakage for labelling purposes.
        if cfg.include_neighbor_leakage:
            neighbor_leaked = self._neighbor_leak_probability()
            for index, overlap in enumerate(self.context.neighbor_overlaps):
                if overlap == 0:
                    continue
                mechanisms.append(
                    Mechanism(
                        f"neighbor_leak_{index}",
                        neighbor_leaked,
                        False,
                        *self._leakage_outcomes(overlap),
                    )
                )
        return mechanisms

    def _neighbor_leak_probability(self) -> float:
        """Estimated probability that one particular neighbouring data qubit is leaked."""
        width = self.context.width
        return (
            self.calibration.leakage_rate
            * (width + 1)
            * max(1.0, self.config.persistence_rounds)
        )

    @staticmethod
    def _second_order(first_order: list[Mechanism]) -> Mechanism:
        """XOR combinations of two deterministic first-order non-leakage mechanisms.

        One mechanism of probability 1 whose ``conditionals`` are the rates
        of the combined patterns, so each pattern gains exactly its rate: the
        sum of ``p_a * p_b`` over the pairs ``a < b``, in enumeration order.
        """
        deterministic = [m for m in first_order if not m.is_leakage and m.patterns.size == 1]
        rates = np.array([m.probability for m in deterministic])
        patterns = np.concatenate([_NO_PATTERNS] + [m.patterns for m in deterministic])
        upper = np.arange(rates.size)[:, None] < np.arange(rates.size)  # row-major a < b
        combined = (patterns[:, None] ^ patterns)[upper]
        products = (rates[:, None] * rates)[upper]
        keep = combined != 0
        reached = np.flatnonzero(np.bincount(combined[keep]))
        sums = np.bincount(combined[keep], products[keep])
        return Mechanism("second_order", 1.0, False, reached, sums[reached])

    def _isolated_bit_probabilities(self) -> dict[int, float]:
        """Per-bit probability of a flip caused by measurement/reset/ancilla errors.

        Each stabilizer's ancilla can be flipped by its measurement, its
        reset, and by the ancilla-side component of *every* CNOT in its
        support, so the rate scales with the stabilizer weight.  With uniform
        calibration rates and weight-4 checks this is ``isolated_flip_factor
        * p`` per stabilizer (4p by default); heavier qLDPC checks flip
        proportionally more often, which is what keeps the model from
        mistaking their background flicker for leakage.
        """
        cal, cfg = self.calibration, self.config
        scale = cfg.isolated_flip_factor / 2.5
        probabilities: dict[int, float] = {}
        for group in self.context.groups:
            total = 0.0
            for weight in group.stabilizer_weights:
                total += (
                    cal.measurement_error
                    + cal.reset_error
                    + 0.5 * weight * cal.gate_error
                )
            probabilities[group.position] = total * scale
        return probabilities

    def _leakage_outcomes(self, mask: int) -> Outcomes:
        """``(patterns, conditionals)`` of leakage randomising the masked bits.

        A leaked qubit randomises each CNOT partner independently (50% flip),
        so a pattern bit that ORs ``n`` ancillas flips with probability
        ``1 - 0.5**n``; for single-ancilla groups this reduces to the uniform
        distribution, for the colour code's plaquette pairs it is biased
        towards heavier patterns.  The distribution is built one masked bit
        at a time, lowest first, each step appending the flipped copy of the
        outcomes so far: outcome ``i`` sets the masked bits that ``i`` sets,
        and its probability is the product of its per-bit factors taken in
        bit order.
        """
        patterns, conditionals = _BASE_PATTERN, _CERTAIN
        for group in self.context.groups:
            if mask >> group.position & 1:
                flip = 1.0 - 0.5 ** len(group.bases)
                patterns = np.concatenate((patterns, patterns | (1 << group.position)))
                conditionals = np.concatenate(
                    (conditionals * (1.0 - flip), conditionals * flip)
                )
        return patterns, conditionals

    # ------------------------------------------------------------------ #
    # Mechanism enumeration: two-round window (GLADIATOR-D)
    # ------------------------------------------------------------------ #
    def _window(self, first: Outcomes, second: Outcomes) -> Outcomes:
        """Joint distribution of independent round-1 and round-2 outcomes.

        Packed as ``current | (previous << width)``, round-1 major.
        """
        (previous, p1), (current, p2) = first, second
        patterns = (previous[:, None] << self.context.width) | current[None, :]
        return patterns.ravel(), (p1[:, None] * p2[None, :]).ravel()

    def two_round_mechanisms(self) -> list[Mechanism]:
        """Error mechanisms over a two-round window.

        Outcomes are packed as ``current | (previous << width)`` to match the
        lookup key produced online by :class:`~repro.core.speculator.LookupPolicy`.
        """
        cal, cfg, width = self.calibration, self.config, self.context.width
        mechanisms: list[Mechanism] = []

        def pack(previous: int, current: int) -> int:
            return current | (previous << width)

        # Data Pauli errors in the first (previous) round: partial flips in
        # round 1, complementary flips in round 2.
        for position in range(width):
            scale = 1.0 if position == 0 else cfg.gate_error_factor
            probability = (cal.data_error if position == 0 else cal.gate_error) * scale / 3.0
            for pauli in _PAULIS:
                suffix = self._pauli_flip_pattern(pauli, position)
                full = self._pauli_flip_pattern(pauli, 0)
                if suffix == 0 and full == 0:
                    continue
                mechanisms.append(
                    _certain(
                        f"data_{pauli}_r1_t{position}", probability, pack(suffix, full ^ suffix)
                    )
                )
                # Same error occurring in the second (current) round.
                mechanisms.append(
                    _certain(f"data_{pauli}_r2_t{position}", probability, pack(0, suffix))
                )
                # Error from before the window completing in round 1.
                if cfg.include_prior_round_completion and (full ^ suffix) != 0:
                    mechanisms.append(
                        _certain(
                            f"data_{pauli}_r0_t{position}", probability, pack(full ^ suffix, 0)
                        )
                    )

        # Isolated bit flips: a measurement error in round r fires the
        # detector in rounds r and r+1.
        isolated = self._isolated_bit_probabilities()
        for position, probability in isolated.items():
            bit = 1 << position
            mechanisms.append(_certain(f"meas_bit{position}_r1", probability, pack(bit, bit)))
            mechanisms.append(_certain(f"meas_bit{position}_r2", probability, pack(0, bit)))
            mechanisms.append(_certain(f"meas_bit{position}_r0", probability, pack(bit, 0)))

        if cfg.include_second_order:
            mechanisms.append(self._second_order(mechanisms))

        # Leakage: once leaked, every later CNOT in the window is randomised.
        full_outcomes = self._leakage_outcomes(self._suffix_mask(0))
        for position in range(width):
            suffix_outcomes = self._leakage_outcomes(self._suffix_mask(position))
            mechanisms.append(
                Mechanism(
                    f"leak_r1_t{position}",
                    cal.leakage_rate,
                    True,
                    *self._window(suffix_outcomes, full_outcomes),
                )
            )
            mechanisms.append(
                Mechanism(f"leak_r2_t{position}", cal.leakage_rate, True, *suffix_outcomes)
            )
        if cfg.persistence_rounds > 0:
            mechanisms.append(
                Mechanism(
                    "leak_persistent_window",
                    cal.leakage_rate * (width + 1) * cfg.persistence_rounds,
                    True,
                    *self._window(full_outcomes, full_outcomes),
                )
            )

        # Persistent leakage on a neighbouring data qubit randomises the shared
        # bits in both rounds of the window (benign for this qubit's LRC).
        if cfg.include_neighbor_leakage:
            neighbor_leaked = self._neighbor_leak_probability()
            for index, overlap in enumerate(self.context.neighbor_overlaps):
                if overlap == 0:
                    continue
                shared = self._leakage_outcomes(overlap)
                mechanisms.append(
                    Mechanism(
                        f"neighbor_leak_window_{index}",
                        neighbor_leaked,
                        False,
                        *self._window(shared, shared),
                    )
                )
        return mechanisms

    # ------------------------------------------------------------------ #
    # Super-edge weights and labelling
    # ------------------------------------------------------------------ #
    @staticmethod
    def _outcomes(
        mechanisms: list[Mechanism], is_leakage: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every outcome of one kind's mechanisms, in mechanism order.

        Returns the patterns and their unconditional weights
        ``probability * conditional``.
        """
        chosen = [m for m in mechanisms if m.is_leakage == is_leakage]
        patterns = np.concatenate([_NO_PATTERNS] + [m.patterns for m in chosen])
        conditionals = np.concatenate([_NO_WEIGHTS] + [m.conditionals for m in chosen])
        probabilities = np.repeat(
            [m.probability for m in chosen], [m.patterns.size for m in chosen]
        )
        return patterns, probabilities * conditionals

    @classmethod
    def _accumulate(
        cls, mechanisms: list[Mechanism], table_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(W_L, W_NL)``: one scatter-add per kind.

        ``np.bincount`` adds its weights one by one in input order, so each
        pattern's sum runs over its outcomes in mechanism order, then outcome
        order: the summation order is part of the label tables' contract.
        """
        return tuple(
            np.bincount(*cls._outcomes(mechanisms, is_leakage), minlength=table_size)
            for is_leakage in (True, False)
        )

    def super_edge_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``(W_L, W_NL)`` per single-round pattern."""
        return self._accumulate(self.single_round_mechanisms(), 1 << self.context.width)

    def two_round_super_edge_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``(W_L, W_NL)`` per two-round pattern pair."""
        return self._accumulate(
            self.two_round_mechanisms(), 1 << (2 * self.context.width)
        )

    @staticmethod
    def _flag(weights: tuple[np.ndarray, np.ndarray], threshold: float) -> np.ndarray:
        """Patterns with ``W_L > threshold * W_NL``; pattern 0 is never flagged."""
        leakage_weight, nonleakage_weight = weights
        flagged = leakage_weight > threshold * nonleakage_weight
        flagged[0] = False
        return flagged

    def label_patterns(self) -> np.ndarray:
        """Boolean table over single-round patterns: True = leakage-critical."""
        return self._flag(self.super_edge_weights(), self.config.threshold)

    def label_two_round_patterns(self) -> np.ndarray:
        """Boolean table over two-round pattern pairs: True = leakage-critical.

        The deferred speculator sees twice the evidence, so it uses the
        stricter ``threshold_two_round``; this is what lets GLADIATOR-D flag
        a *smaller* fraction of its (much larger) pattern space than the
        single-round speculator, as reported in Section 5.2.
        """
        return self._flag(
            self.two_round_super_edge_weights(), self.config.threshold_two_round
        )


@lru_cache(maxsize=None)
def _cached_labels(
    signature: tuple,
    calibration: CalibrationData,
    config: GraphModelConfig,
    two_rounds: bool,
) -> np.ndarray:
    """Cache labels (read-only) across data qubits that share the same context."""
    group_part, overlap_part = signature
    context = QubitContext(
        width=len(group_part),
        groups=tuple(
            GroupInfo(position=position, bases=bases, weights=weights)
            for position, bases, weights in group_part
        ),
        neighbor_overlaps=tuple(overlap_part),
    )
    model = TransitionModel(context=context, calibration=calibration, config=config)
    table = model.label_two_round_patterns() if two_rounds else model.label_patterns()
    table.flags.writeable = False
    return table


def labels_for_qubit(
    code: StabilizerCode,
    qubit: int,
    calibration: CalibrationData,
    config: GraphModelConfig,
    two_rounds: bool = False,
) -> np.ndarray:
    """Leakage-critical pattern table for one data qubit (cached by context)."""
    return _cached_labels(_signatures(code)[qubit], calibration, config, two_rounds).copy()


#: Per-code context signatures, keyed by ``id(code)`` and dropped when the
#: code is collected (a :class:`StabilizerCode` is unhashable).
_SIGNATURES: dict[int, tuple[tuple, ...]] = {}


def _signatures(code: StabilizerCode) -> tuple[tuple, ...]:
    """Every data qubit's :func:`qubit_context` signature (built once per code)."""
    key = id(code)
    signatures = _SIGNATURES.get(key)
    if signatures is None:
        signatures = tuple(qubit_context(code, q).signature for q in range(code.num_data))
        _SIGNATURES[key] = signatures
        weakref.finalize(code, _SIGNATURES.pop, key, None)
    return signatures
