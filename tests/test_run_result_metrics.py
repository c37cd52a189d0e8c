"""Additional unit tests: RunResult accounting identities and cycle-time totals."""

import numpy as np
import pytest

from repro.circuits import CycleTimeModel, RoundCircuit
from repro.core import make_policy
from repro.noise import paper_noise
from repro.sim import LeakageSimulator, SimulatorOptions


@pytest.fixture(scope="module")
def gladiator_run(surface_d5=None):
    from repro.codes import surface_code

    code = surface_code(5)
    simulator = LeakageSimulator(
        code=code,
        noise=paper_noise(),
        policy=make_policy("gladiator+m"),
        options=SimulatorOptions(leakage_sampling=True),
        seed=42,
    )
    return code, simulator.run(shots=150, rounds=40)


def test_lrc_accounting_identity(gladiator_run):
    """Applied LRCs equal the (FP + TP) decisions of the preceding rounds.

    Decisions made in the final round are never executed, so the applied
    count can be at most one round's worth below the decision count.
    """
    _, result = gladiator_run
    decisions = result.total_false_positives + result.total_true_positives
    assert result.total_data_lrcs <= decisions
    last_round = result.round_records[-1]
    final_round_decisions = (last_round.false_positives + last_round.true_positives) * result.shots
    assert decisions - result.total_data_lrcs <= final_round_decisions + 1e-6


def test_round_record_rates_are_consistent_with_totals(gladiator_run):
    _, result = gladiator_run
    fp_from_records = sum(r.false_positives for r in result.round_records) * result.shots
    assert fp_from_records == pytest.approx(result.total_false_positives, rel=1e-9)
    fn_from_records = sum(r.false_negatives for r in result.round_records) * result.shots
    assert fn_from_records == pytest.approx(result.total_false_negatives, rel=1e-9)


def test_dlp_is_a_valid_fraction(gladiator_run):
    _, result = gladiator_run
    assert np.all(result.dlp_per_round >= 0)
    assert np.all(result.dlp_per_round <= 1)
    assert 0 <= result.final_dlp <= 1


def test_cycle_time_totals_scale_linearly(gladiator_run):
    code, result = gladiator_run
    model = CycleTimeModel(code, paper_noise())
    one_round = model.round_duration_ns(result.lrcs_per_round)
    assert one_round >= RoundCircuit(code).base_duration_ns()


def test_base_round_duration_matches_layers(gladiator_run):
    code, _ = gladiator_run
    circuit = RoundCircuit(code)
    # Four entangling layers of 25 ns plus a 300 ns measurement window.
    assert circuit.base_duration_ns() == pytest.approx(4 * 25.0 + 300.0)
