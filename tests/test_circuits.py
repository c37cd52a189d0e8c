"""Tests of round schedules, LRC gadget models and the cycle-time model."""

import pytest

from repro.circuits import (
    LRC_GADGETS,
    CycleTimeModel,
    RoundCircuit,
    RoundSchedule,
    default_lrc,
)
from repro.codes import bpc_code, color_code, hypergraph_product_code, surface_code
from repro.codes.scheduling import assign_conflict_free_slots
from repro.noise import paper_noise


@pytest.mark.parametrize(
    "code_factory",
    [lambda: surface_code(5), lambda: color_code(5), hypergraph_product_code, bpc_code],
)
def test_schedules_are_conflict_free(code_factory):
    schedule = RoundSchedule(code_factory())
    schedule.validate()


def test_surface_schedule_uses_four_layers(surface_d5):
    schedule = RoundSchedule(surface_d5)
    assert schedule.num_slots == 4


def test_every_stabilizer_edge_is_scheduled(surface_d5):
    schedule = RoundSchedule(surface_d5)
    total_weight = sum(s.weight for s in surface_d5.stabilizers)
    assert schedule.num_entangling_gates == total_weight


def test_data_qubit_slots_query(surface_d5):
    schedule = RoundSchedule(surface_d5)
    entries = [  # a bulk qubit of the d=5 code
        (op.time_slot, op.stabilizer) for op in schedule.operations if op.data_qubit == 12
    ]
    assert len(entries) == 4
    assert len({slot for slot, _ in entries}) == 4


def test_assign_conflict_free_slots_basic():
    supports = [(0, 1, 2), (1, 2, 3), (0, 3)]
    slots = assign_conflict_free_slots(supports)
    # Per stabilizer: no slot reuse.
    for assignment in slots:
        assert len(set(assignment)) == len(assignment)
    # Per data qubit: no slot reuse.
    usage: dict[int, set[int]] = {}
    for support, assignment in zip(supports, slots):
        for qubit, slot in zip(support, assignment):
            assert slot not in usage.setdefault(qubit, set())
            usage[qubit].add(slot)


def test_round_circuit_operation_counts(surface_d5):
    circuit = RoundCircuit(surface_d5)
    resets = [op for op in circuit.operations if op.kind == "reset"]
    measures = [op for op in circuit.operations if op.kind == "measure"]
    cnots = [op for op in circuit.operations if op.kind == "cnot"]
    assert len(resets) == surface_d5.num_ancilla
    assert len(measures) == surface_d5.num_ancilla
    assert len(cnots) == sum(s.weight for s in surface_d5.stabilizers)
    assert circuit.depth == 6


def test_lrc_gadget_costs_scale_with_noise():
    noise = paper_noise()
    for gadget in LRC_GADGETS.values():
        assert gadget.gate_error(noise) > 0
        assert gadget.induced_leakage(noise) >= 0
        assert 0 < gadget.removal_prob <= 1
        assert gadget.latency_ns > 0
        assert gadget.describe()


def test_default_lrc_is_swap_based():
    assert default_lrc().name == "swap"
    assert default_lrc().needs_ancilla


def test_cycle_time_monotone_in_lrc_rate(surface_d7, noise):
    model = CycleTimeModel(surface_d7, noise)
    quiet = model.round_duration_ns(0.0)
    light = model.round_duration_ns(1.0)
    heavy = model.round_duration_ns(49.0)
    assert quiet < light < heavy
    assert model.lrc_overhead_ns(0.0) == 0.0


def test_cycle_time_overhead_ratio_tracks_lrc_ratio(surface_d7, noise):
    # The paper observes a ~50x overhead gap between Always-LRC and GLADIATOR
    # at d=11 because the depth overhead is linear in the LRC rate.
    model = CycleTimeModel(surface_d7, noise)
    ratio = model.lrc_overhead_ns(49.0) / model.lrc_overhead_ns(1.0)
    assert ratio == pytest.approx(49.0)


def test_cycle_time_rejects_negative_rate(surface_d5, noise):
    with pytest.raises(ValueError):
        CycleTimeModel(surface_d5, noise).round_duration_ns(-1.0)
