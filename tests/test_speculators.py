"""Tests of the closed-loop speculation policies (ERASER and GLADIATOR families)."""

import numpy as np
import pytest

from repro.core import (
    CalibrationData,
    EraserMPolicy,
    EraserPolicy,
    GladiatorDMPolicy,
    GladiatorDPolicy,
    GladiatorMPolicy,
    GladiatorPolicy,
    GraphModelConfig,
    make_policy,
)
from repro.core.speculator import SpeculationInput

from decisions import decide_buffers


def make_ctx(code, pattern_ints, prev=None, round_index=1):
    shots = pattern_ints.shape[0]
    return SpeculationInput(
        round_index=round_index,
        pattern_ints=pattern_ints,
        prev_pattern_ints=prev if prev is not None else np.zeros_like(pattern_ints),
        mlr_neighbor=None,
        data_leaked=np.zeros((shots, code.num_data), dtype=bool),
    )


def test_eraser_flag_table_matches_heuristic(surface_d5, noise):
    policy = EraserPolicy()
    policy.prepare(surface_d5, noise)
    qubit = next(q for q in range(surface_d5.num_data) if surface_d5.pattern_width(q) == 4)
    table = policy.flag_table(qubit)
    assert int(table.sum()) == 11
    assert not table[0]
    assert table[0b0011]


def test_eraser_triggers_on_half_flips(surface_d5, noise):
    policy = EraserPolicy()
    policy.prepare(surface_d5, noise)
    qubit = next(q for q in range(surface_d5.num_data) if surface_d5.pattern_width(q) == 4)
    patterns = np.zeros((1, surface_d5.num_data), dtype=np.int64)
    patterns[0, qubit] = 0b0011
    data_lrc, _ = decide_buffers(policy, make_ctx(surface_d5, patterns))
    assert data_lrc[0, qubit]
    patterns[0, qubit] = 0b0001
    data_lrc, _ = decide_buffers(policy, make_ctx(surface_d5, patterns))
    assert not data_lrc[0, qubit]


def test_gladiator_flags_fewer_patterns_than_eraser(surface_d5, noise):
    eraser = EraserPolicy()
    eraser.prepare(surface_d5, noise)
    gladiator = GladiatorPolicy()
    gladiator.prepare(surface_d5, noise)
    for qubit in range(surface_d5.num_data):
        if surface_d5.pattern_width(qubit) == 4:
            assert gladiator.flag_table(qubit).sum() < eraser.flag_table(qubit).sum()


def test_gladiator_quiet_on_zero_syndrome(surface_d5, noise):
    policy = GladiatorPolicy()
    policy.prepare(surface_d5, noise)
    patterns = np.zeros((3, surface_d5.num_data), dtype=np.int64)
    data_lrc, _ = decide_buffers(policy, make_ctx(surface_d5, patterns))
    assert not data_lrc.any()


def test_gladiator_uses_custom_calibration(surface_d5, noise):
    drifted = CalibrationData.from_noise(noise).with_(leakage_rate=5e-3)
    policy = GladiatorPolicy(calibration=drifted)
    policy.prepare(surface_d5, noise)
    default = GladiatorPolicy()
    default.prepare(surface_d5, noise)
    qubit = next(q for q in range(surface_d5.num_data) if surface_d5.pattern_width(q) == 4)
    assert policy.flag_table(qubit).sum() >= default.flag_table(qubit).sum()


def test_gladiator_recalibrate_updates_tables(surface_d5, noise):
    policy = GladiatorPolicy()
    policy.prepare(surface_d5, noise)
    qubit = next(q for q in range(surface_d5.num_data) if surface_d5.pattern_width(q) == 4)
    before = int(policy.flag_table(qubit).sum())
    policy.recalibrate(CalibrationData.from_noise(noise).with_(leakage_rate=1e-2))
    after = int(policy.flag_table(qubit).sum())
    assert after >= before


def test_gladiator_d_uses_two_round_history(surface_d5, noise):
    policy = GladiatorDPolicy()
    policy.prepare(surface_d5, noise)
    assert policy.uses_two_rounds
    qubit = next(q for q in range(surface_d5.num_data) if surface_d5.pattern_width(q) == 4)
    table = policy.flag_table(qubit)
    assert table.shape == (256,)

    # A suffix pattern followed by its complement (a plain data error) must
    # not trigger, whereas the same suffix followed by an unrelated random
    # pattern (the signature of persistent leakage) should.
    patterns = np.zeros((1, surface_d5.num_data), dtype=np.int64)
    prev = np.zeros((1, surface_d5.num_data), dtype=np.int64)
    context_groups = surface_d5.speculation_groups[qubit]
    z_positions = [
        g.time_slot
        for g in context_groups
        if surface_d5.stabilizers[g.stabilizers[0]].basis == "Z"
    ]
    suffix = sum(1 << p for p in z_positions if p >= z_positions[0])
    complement = sum(1 << p for p in z_positions) ^ suffix
    prev[0, qubit] = suffix
    patterns[0, qubit] = complement
    benign, _ = decide_buffers(policy, make_ctx(surface_d5, patterns, prev=prev))
    assert not benign[0, qubit]


def test_gladiator_d_silent_in_round_zero(surface_d5, noise):
    policy = GladiatorDPolicy()
    policy.prepare(surface_d5, noise)
    patterns = np.full((1, surface_d5.num_data), 0, dtype=np.int64)
    qubit = next(q for q in range(surface_d5.num_data) if surface_d5.pattern_width(q) == 4)
    patterns[0, qubit] = 0b0101
    data_lrc, _ = decide_buffers(policy, make_ctx(surface_d5, patterns, round_index=0))
    assert not data_lrc.any()


def test_mlr_variants_report_usage(surface_d5, noise):
    assert EraserMPolicy().uses_mlr
    assert GladiatorMPolicy().uses_mlr
    assert GladiatorDMPolicy().uses_mlr
    assert not EraserPolicy().uses_mlr
    assert not GladiatorPolicy().uses_mlr


def test_make_policy_registry_names():
    for name in ("eraser", "eraser+m", "gladiator", "gladiator+m", "gladiator-d+m"):
        policy = make_policy(name)
        assert policy is not None
    with pytest.raises(ValueError):
        make_policy("not-a-policy")


def test_policy_config_is_forwarded(surface_d5, noise):
    config = GraphModelConfig(threshold=0.05)
    aggressive = make_policy("gladiator", config=config)
    aggressive.prepare(surface_d5, noise)
    default = make_policy("gladiator")
    default.prepare(surface_d5, noise)
    qubit = next(q for q in range(surface_d5.num_data) if surface_d5.pattern_width(q) == 4)
    assert aggressive.flag_table(qubit).sum() >= default.flag_table(qubit).sum()


def test_flagged_fraction_diagnostic(surface_d5, noise):
    policy = GladiatorPolicy()
    policy.prepare(surface_d5, noise)
    # Fraction of patterns flagged, per pattern width.
    per_width: dict[int, list[float]] = {}
    for qubit in range(surface_d5.num_data):
        table = np.asarray(policy.flag_table(qubit), dtype=bool)
        per_width.setdefault(surface_d5.pattern_width(qubit), []).append(table.mean())
    fractions = {width: float(np.mean(values)) for width, values in per_width.items()}
    assert set(fractions) == {2, 3, 4}
    assert all(0 <= fraction <= 1 for fraction in fractions.values())
