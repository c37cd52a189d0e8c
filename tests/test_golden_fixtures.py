"""Golden regression fixtures: pinned end-to-end numbers under ``fixtures/``.

Each fixture (written by ``tools/make_golden_fixtures.py``) freezes one
small recorded run — detector record, decoder predictions per method, and
the full decoded ``MemoryExperiment`` summary.  Replaying them here pins the
whole simulate -> decode -> metrics pipeline against silent drift: a change
in simulator RNG consumption, decoder behaviour or metric definitions fails
these tests instead of quietly shifting every benchmark.

If a change *intentionally* alters the pinned numbers, regenerate with
``PYTHONPATH=src python tools/make_golden_fixtures.py`` and review the diff.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.api.registry import NOISE_PRESETS
from repro.core import make_policy
from repro.decoders import DetectorGraph, make_decoder
from repro.experiments import MemoryExperiment, make_code
from repro.sim import LeakageSimulator, SimulatorOptions

FIXTURES_DIR = Path(__file__).parent / "fixtures"
FIXTURE_PATHS = sorted(FIXTURES_DIR.glob("golden_*.json"))


def _load(path):
    return json.loads(path.read_text())


def _build_code(scenario):
    return make_code(scenario["family"], scenario["distance"])


def _noise(scenario):
    preset = NOISE_PRESETS.get(scenario["noise"]).obj
    return preset(p=scenario["p"], leakage_ratio=scenario["leakage_ratio"])


def test_fixture_set_is_present():
    """The golden set must never silently disappear (e.g. packaging slip)."""
    names = {path.name for path in FIXTURE_PATHS}
    assert {
        "golden_surface_d3_eraser.json",
        "golden_color_d3_gladiator.json",
        "golden_toric_d3_eraser.json",
        "golden_surface_d3_drift.json",
        "golden_surface_d3_bursts.json",
        "golden_toric_d3_floods.json",
        "golden_surface_d3_windowed.json",
        "golden_color_d3_windowed.json",
        "golden_toric_d3_windowed.json",
    } <= names


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_simulator_reproduces_recorded_run(path):
    """Same seed, same record: pins the simulator's RNG consumption order."""
    fixture = _load(path)
    scenario = fixture["scenario"]
    simulator = LeakageSimulator(
        code=_build_code(scenario),
        noise=_noise(scenario),
        policy=make_policy(scenario["policy"]),
        options=SimulatorOptions(record_detectors=True),
        seed=scenario["seed"],
    )
    run = simulator.run(shots=scenario["shots"], rounds=scenario["rounds"])
    assert np.array_equal(
        run.detector_history, np.array(fixture["detector_history"], dtype=bool)
    )
    assert np.array_equal(
        run.final_detectors, np.array(fixture["final_detectors"], dtype=bool)
    )
    assert np.array_equal(
        run.observable_flips, np.array(fixture["observable_flips"], dtype=bool)
    )


@pytest.mark.parametrize("method", ["matching", "union_find"])
@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_decoders_reproduce_pinned_predictions(path, method):
    """Batched decoding of the recorded arrays matches the pinned output."""
    fixture = _load(path)
    scenario = fixture["scenario"]
    history = np.array(fixture["detector_history"], dtype=bool)
    final = np.array(fixture["final_detectors"], dtype=bool)
    observable = np.array(fixture["observable_flips"], dtype=bool)
    graph = DetectorGraph(
        code=_build_code(scenario),
        rounds=scenario["rounds"],
        noise=_noise(scenario),
        hyperedges="decompose",
    )
    predictions = make_decoder(graph, method).decode_batch(history, final)
    pinned = fixture["decoders"][method]
    assert predictions.astype(int).tolist() == pinned["predictions"]
    assert int((predictions ^ observable).sum()) == pinned["failures"]


def _run_pinned_experiment(scenario, method):
    """Replay a fixture's MemoryExperiment (window-aware)."""
    return MemoryExperiment(
        code=_build_code(scenario),
        noise=_noise(scenario),
        policy=make_policy(scenario["policy"]),
        decoder_method=method,
        seed=scenario["seed"],
        window_rounds=scenario.get("window_rounds"),
        commit_rounds=scenario.get("commit_rounds"),
    ).run(shots=scenario["shots"], rounds=scenario["rounds"])


def _assert_summary_matches(summary, pinned):
    assert set(summary) == set(pinned)
    for key, expected in pinned.items():
        actual = summary[key]
        if isinstance(expected, float):
            assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-15), key
        else:
            assert actual == expected, key


@pytest.mark.parametrize("method", ["matching", "union_find"])
@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_memory_experiment_reproduces_pinned_summary(path, method):
    """End-to-end LER/metrics summary matches the pinned JSON exactly."""
    fixture = _load(path)
    result = _run_pinned_experiment(fixture["scenario"], method)
    _assert_summary_matches(result.summary(), fixture["memory_summaries"][method])
