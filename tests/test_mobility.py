"""Tests of leakage-mobility estimation and classification (Table 6)."""

import pytest
from reference_sim import assert_results_identical

from repro.codes import color_code, surface_code
from repro.core import MobilityEstimator, classify_mobility
from repro.core.mobility import MOBILITY_THRESHOLD, MobilityRecordingPolicy
from repro.core import make_policy
from repro.noise import paper_noise
from repro.sim import LeakageSimulator, SimulatorOptions


def test_classify_mobility_threshold():
    assert classify_mobility(0.01) == "low"
    assert classify_mobility(0.049) == "low"
    assert classify_mobility(0.05) == "high"
    assert classify_mobility(0.2) == "high"
    assert MOBILITY_THRESHOLD == pytest.approx(0.05)


def test_recording_policy_requires_inner():
    with pytest.raises(ValueError):
        MobilityRecordingPolicy(inner=None)


def test_recording_policy_tracks_conditional_probability(surface_d5, noise):
    recorder = MobilityRecordingPolicy(inner=make_policy("gladiator+m"))
    assert recorder.conditional_probability == 0.0
    assert recorder.uses_mlr


@pytest.mark.parametrize("policy", ["gladiator+m", "eraser+m", "gladiator-d+m"])
@pytest.mark.parametrize("make_code", [surface_code, color_code], ids=["surface", "color"])
def test_recording_leaves_mlr_policy_runs_bit_identical(make_code, policy):
    """Wrapping an MLR policy in the recorder changes no decision and no
    draw: detector history and every round record (DLP, LRCs, FN) match."""
    code, noise = make_code(5), paper_noise().with_(leakage_mobility=0.09)
    options = SimulatorOptions(leakage_sampling=True, record_detectors=True)
    shots, rounds = 64, 12

    def run(built):
        simulator = LeakageSimulator(code=code, noise=noise, policy=built, options=options, seed=5)
        return simulator.run(shots=shots, rounds=rounds)

    plain = run(make_policy(policy))
    recorder = MobilityRecordingPolicy(inner=make_policy(policy))
    recorded = run(recorder)
    assert_results_identical(plain, recorded)
    assert recorded.total_data_lrcs > 0 and recorded.total_false_negatives > 0
    assert recorder.rounds_observed == rounds
    assert recorder.flagged_count == (
        recorded.total_false_positives + recorded.total_true_positives
    )
    assert 0 < recorder.co_flagged_count <= recorder.flagged_count


@pytest.mark.parametrize(
    "mobility,expected",
    [(0.01, "low"), (0.09, "high")],
)
def test_estimator_classifies_extreme_regimes(mobility, expected):
    code = surface_code(5)
    noise = paper_noise().with_(leakage_mobility=mobility)
    estimate = MobilityEstimator(code, noise, seed=7).estimate(shots=150, rounds=50)
    assert estimate.regime == expected
    assert estimate.flagged_events > 0


def test_estimate_probability_increases_with_mobility():
    code = surface_code(5)
    low = MobilityEstimator(code, paper_noise().with_(leakage_mobility=0.01), seed=3)
    high = MobilityEstimator(code, paper_noise().with_(leakage_mobility=0.09), seed=3)
    low_est = low.estimate(shots=150, rounds=40)
    high_est = high.estimate(shots=150, rounds=40)
    assert high_est.conditional_probability > low_est.conditional_probability
