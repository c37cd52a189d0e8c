"""End-to-end integration tests reproducing the paper's headline claims at small scale.

Each test runs the full pipeline (code construction, leakage simulation,
speculation, LRC scheduling, and where needed decoding) and checks the
*direction* of the paper's claims; the benchmark suite reproduces the actual
numbers at larger scale.
"""

import numpy as np
import pytest

from repro.circuits import CycleTimeModel
from repro.codes import surface_code
from repro.core import make_policy
from repro.api import Session
from repro.experiments import MemoryExperiment, reduction_factor
from repro.noise import paper_noise
from repro.sim import LeakageSimulator, SimulatorOptions


def run_policy(code, noise, name, shots=250, rounds=60, seed=0):
    simulator = LeakageSimulator(
        code=code,
        noise=noise,
        policy=make_policy(name),
        options=SimulatorOptions(leakage_sampling=True),
        seed=seed,
    )
    return simulator.run(shots=shots, rounds=rounds)


@pytest.fixture(scope="module")
def surface_runs():
    code = surface_code(7)
    noise = paper_noise()
    return {
        name: run_policy(code, noise, name, seed=21)
        for name in ("always-lrc", "eraser+m", "gladiator+m", "gladiator-d+m", "ideal", "no-lrc")
    }


def test_closed_loop_beats_always_lrc_on_lrc_count(surface_runs):
    always = surface_runs["always-lrc"].lrcs_per_round
    for name in ("eraser+m", "gladiator+m", "gladiator-d+m"):
        assert surface_runs[name].lrcs_per_round < always / 10


def test_gladiator_reduces_fp_and_lrcs_vs_eraser(surface_runs):
    eraser = surface_runs["eraser+m"]
    gladiator = surface_runs["gladiator+m"]
    deferred = surface_runs["gladiator-d+m"]
    assert reduction_factor(eraser.false_positives_per_round, gladiator.false_positives_per_round) > 1.1
    assert reduction_factor(eraser.false_positives_per_round, deferred.false_positives_per_round) > 1.2
    assert reduction_factor(eraser.lrcs_per_round, gladiator.lrcs_per_round) > 1.1
    assert reduction_factor(eraser.lrcs_per_round, deferred.lrcs_per_round) > 1.2
    # The accuracy trade-off: slightly more false negatives, never fewer.
    assert gladiator.false_negatives_per_round >= eraser.false_negatives_per_round


def test_ideal_policy_dominates_everything(surface_runs):
    ideal = surface_runs["ideal"]
    for name in ("eraser+m", "gladiator+m", "gladiator-d+m"):
        assert ideal.mean_dlp <= surface_runs[name].mean_dlp
    assert ideal.total_false_positives == 0


def test_unmitigated_leakage_diverges(surface_runs):
    no_lrc = surface_runs["no-lrc"]
    assert no_lrc.dlp_per_round[-1] > 10 * surface_runs["gladiator+m"].dlp_per_round[-1]


def test_leakage_population_stabilises_under_speculation(surface_runs):
    dlp = surface_runs["gladiator+m"].dlp_per_round
    # After the initial transient the population stays bounded (no runaway).
    assert dlp[-1] < 3 * dlp[len(dlp) // 3]


def test_cycle_time_advantage_tracks_lrc_reduction(surface_runs):
    code = surface_code(7)
    model = CycleTimeModel(code, paper_noise())
    eraser_time = model.round_duration_ns(surface_runs["eraser+m"].lrcs_per_round)
    gladiator_time = model.round_duration_ns(surface_runs["gladiator+m"].lrcs_per_round)
    always_time = model.round_duration_ns(surface_runs["always-lrc"].lrcs_per_round)
    assert gladiator_time < eraser_time < always_time


@pytest.mark.parametrize(
    "family,distance,lrc_margin",
    [
        ("color", 5, 1.0),
        ("hgp", None, 1.0),
        ("bpc", None, 1.3),
    ],
    ids=["color", "hgp", "bpc"],
)
def test_generalisation_beyond_surface_codes(family, distance, lrc_margin):
    """Table 5's qualitative claim: GLADIATOR never needs substantially more LRCs.

    On the colour and HGP codes GLADIATOR inserts strictly fewer LRCs, as in
    the paper.  On the dense two-block (BPC-style) code our richer background
    noise model (weight-9 checks flip often for reasons unrelated to the
    qubit under test) erodes the single-round advantage, so the bound there
    only asserts rough parity; see EXPERIMENTS.md for the discussion.
    """
    session = Session.from_config(
        {"code": {"name": family, "distance": distance},
         "execution": {"shots": 150, "rounds": 40, "seed": 5, "decoded": False}}
    )
    rows = session.sweep({"policy.name": ["eraser+m", "gladiator+m"]})
    by_policy = {row["policy"]: row for row in rows}
    assert (
        by_policy["gladiator+M"]["lrcs_per_round"]
        < lrc_margin * by_policy["eraser+M"]["lrcs_per_round"]
    )


def test_memory_experiment_mitigation_improves_ler_under_heavy_leakage():
    code = surface_code(3)
    noise = paper_noise(p=1.5e-3, leakage_ratio=1.0)
    no_lrc = MemoryExperiment(code, noise, make_policy("no-lrc"), seed=9).run(
        shots=400, rounds=30
    )
    gladiator = MemoryExperiment(code, noise, make_policy("gladiator+m"), seed=9).run(
        shots=400, rounds=30
    )
    # Unmitigated leakage floods the syndrome record and drives the LER
    # towards the random-guessing regime; speculation keeps both the leakage
    # population and the logical error rate well below that.
    assert gladiator.mean_dlp < no_lrc.mean_dlp / 3
    assert gladiator.logical_error_rate < no_lrc.logical_error_rate + 0.02


def test_speculation_policies_scale_to_distance_nine():
    code = surface_code(9)
    noise = paper_noise()
    result = run_policy(code, noise, "gladiator-d+m", shots=60, rounds=30, seed=13)
    assert result.shots == 60
    assert 0 <= result.mean_dlp < 0.05
