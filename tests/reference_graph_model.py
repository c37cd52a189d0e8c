"""The frozen per-outcome graph model: the reference for the array form.

:func:`reference_super_edge_weights` is the mechanism algebra of
:class:`~repro.core.graph_model.TransitionModel` as it stood before the
array form, kept verbatim in what it computes: every mechanism holds a
tuple of ``(pattern, conditional)`` pairs, a leakage distribution is
enumerated outcome by outcome, two-round products are nested loops,
second-order pairs are summed in a dict, and ``W_L`` / ``W_NL`` are added
up one outcome at a time.  It reuses only the model's scalar helpers
(flip patterns, suffix masks, isolated-flip and neighbour-leak rates),
which the array form did not touch.  ``tests/test_graph_model.py``
requires the engine's tables to equal it byte for byte.
"""

import numpy as np

from repro.core.graph_model import TransitionModel

__all__ = ["reference_super_edge_weights"]

_PAULIS = ("X", "Y", "Z")


def _leakage_outcomes(model, mask):
    positions = [i for i in range(mask.bit_length()) if mask & (1 << i)]
    group_by_position = {g.position: g for g in model.context.groups}
    flips = [1.0 - 0.5 ** len(group_by_position[p].bases) for p in positions]
    outcomes = []
    for value in range(1 << len(positions)):
        pattern, probability = 0, 1.0
        for bit, position in enumerate(positions):
            if value & (1 << bit):
                pattern |= 1 << position
                probability *= flips[bit]
            else:
                probability *= 1.0 - flips[bit]
        outcomes.append((pattern, probability))
    return outcomes


def _second_order(first_order):
    deterministic = [
        (probability, outcomes[0][0])
        for probability, is_leakage, outcomes in first_order
        if not is_leakage and len(outcomes) == 1
    ]
    pairs = {}
    for index, (prob_a, pattern_a) in enumerate(deterministic):
        for prob_b, pattern_b in deterministic[index + 1 :]:
            combined = pattern_a ^ pattern_b
            if combined:
                pairs[combined] = pairs.get(combined, 0.0) + prob_a * prob_b
    return [(probability, False, ((pattern, 1.0),)) for pattern, probability in pairs.items()]


def _single_round(model):
    cal, cfg, width = model.calibration, model.config, model.context.width
    mechanisms = []
    for position in range(width):
        scale = 1.0 if position == 0 else cfg.gate_error_factor
        base = cal.data_error if position == 0 else cal.gate_error
        for pauli in _PAULIS:
            pattern = model._pauli_flip_pattern(pauli, position)
            if pattern:
                mechanisms.append((base * scale / 3.0, False, ((pattern, 1.0),)))
    if cfg.include_prior_round_completion:
        for position in range(1, width):
            for pauli in _PAULIS:
                pattern = model._pauli_flip_pattern(pauli, 0) ^ model._pauli_flip_pattern(
                    pauli, position
                )
                if pattern:
                    probability = cal.gate_error * cfg.gate_error_factor / 3.0
                    mechanisms.append((probability, False, ((pattern, 1.0),)))
    for position, probability in model._isolated_bit_probabilities().items():
        mechanisms.append((probability, False, ((1 << position, 1.0),)))
    if cfg.include_second_order:
        mechanisms.extend(_second_order(mechanisms))
    for position in range(width):
        outcomes = _leakage_outcomes(model, model._suffix_mask(position))
        mechanisms.append((cal.leakage_rate, True, outcomes))
    if cfg.persistence_rounds > 0:
        probability = cal.leakage_rate * (width + 1) * cfg.persistence_rounds
        mechanisms.append((probability, True, _leakage_outcomes(model, model._suffix_mask(0))))
    if cfg.include_neighbor_leakage:
        neighbor = model._neighbor_leak_probability()
        for overlap in model.context.neighbor_overlaps:
            if overlap:
                mechanisms.append((neighbor, False, _leakage_outcomes(model, overlap)))
    return mechanisms


def _two_round(model):
    cal, cfg, width = model.calibration, model.config, model.context.width

    def pack(previous, current):
        return current | (previous << width)

    def product(first, second):
        return [(pack(r1, r2), p1 * p2) for r1, p1 in first for r2, p2 in second]

    mechanisms = []
    for position in range(width):
        scale = 1.0 if position == 0 else cfg.gate_error_factor
        probability = (cal.data_error if position == 0 else cal.gate_error) * scale / 3.0
        for pauli in _PAULIS:
            suffix = model._pauli_flip_pattern(pauli, position)
            full = model._pauli_flip_pattern(pauli, 0)
            if suffix == 0 and full == 0:
                continue
            mechanisms.append((probability, False, ((pack(suffix, full ^ suffix), 1.0),)))
            mechanisms.append((probability, False, ((pack(0, suffix), 1.0),)))
            if cfg.include_prior_round_completion and full ^ suffix:
                mechanisms.append((probability, False, ((pack(full ^ suffix, 0), 1.0),)))
    for position, probability in model._isolated_bit_probabilities().items():
        bit = 1 << position
        for pattern in (pack(bit, bit), pack(0, bit), pack(bit, 0)):
            mechanisms.append((probability, False, ((pattern, 1.0),)))
    if cfg.include_second_order:
        mechanisms.extend(_second_order(mechanisms))
    full = _leakage_outcomes(model, model._suffix_mask(0))
    for position in range(width):
        suffix = _leakage_outcomes(model, model._suffix_mask(position))
        mechanisms.append((cal.leakage_rate, True, product(suffix, full)))
        mechanisms.append((cal.leakage_rate, True, [(pack(0, r), p) for r, p in suffix]))
    if cfg.persistence_rounds > 0:
        probability = cal.leakage_rate * (width + 1) * cfg.persistence_rounds
        mechanisms.append((probability, True, product(full, full)))
    if cfg.include_neighbor_leakage:
        neighbor = model._neighbor_leak_probability()
        for overlap in model.context.neighbor_overlaps:
            if overlap:
                shared = _leakage_outcomes(model, overlap)
                mechanisms.append((neighbor, False, product(shared, shared)))
    return mechanisms


def reference_super_edge_weights(context, calibration, config, two_rounds=False):
    """``(W_L, W_NL)`` of ``context``, accumulated one outcome at a time."""
    model = TransitionModel(context, calibration, config)
    mechanisms = _two_round(model) if two_rounds else _single_round(model)
    size = 1 << (context.width * (2 if two_rounds else 1))
    leakage_weight, nonleakage_weight = np.zeros(size), np.zeros(size)
    for probability, is_leakage, outcomes in mechanisms:
        target = leakage_weight if is_leakage else nonleakage_weight
        for pattern, conditional in outcomes:
            target[pattern] += probability * conditional
    return leakage_weight, nonleakage_weight
