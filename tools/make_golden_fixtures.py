"""Regenerate the golden regression fixtures under ``tests/fixtures/``.

Each fixture pins one small end-to-end pipeline: a recorded simulator run
(detector history, final readout, true observable flips), the per-shot
predictions and failure counts of both decoders on that record, and the full
``MemoryExperiment`` summary for the same configuration.  The tier-1 test
``tests/test_golden_fixtures.py`` replays all of it and compares bit for
bit, so any silent drift in the simulator's RNG consumption, the decoders or
the metrics shows up as a diff against these files.

Run from the repository root (only needed when an *intentional* behaviour
change invalidates the pinned numbers):

    PYTHONPATH=src python tools/make_golden_fixtures.py

``--only NAME`` regenerates a single scenario (e.g. one newly added to
``SCENARIOS``) and leaves every other fixture file byte-identical.

Scenarios may carry ``window_rounds`` / ``commit_rounds`` keys, in which
case the pinned ``MemoryExperiment`` summaries decode through the sliding
window path; the ``decoders`` section always pins the offline batch decode
of the recorded arrays, which is well-defined for every scenario.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api.registry import NOISE_PRESETS  # noqa: E402
from repro.core import make_policy  # noqa: E402
from repro.decoders import DetectorGraph, make_decoder  # noqa: E402
from repro.experiments import MemoryExperiment, make_code  # noqa: E402
from repro.sim import LeakageSimulator, SimulatorOptions  # noqa: E402

FIXTURES_DIR = ROOT / "tests" / "fixtures"

#: The pinned scenarios: small enough to replay in well under a second each,
#: noisy enough that decoding is non-trivial (failures > 0 at these sizes).
#: ``family`` and ``noise`` are registry names, so any registered code or
#: (rate-parameterised) noise preset can be pinned here.
SCENARIOS = [
    {
        "name": "surface_d3_eraser",
        "family": "surface",
        "distance": 3,
        "noise": "paper",
        "p": 2e-3,
        "leakage_ratio": 1.0,
        "policy": "eraser+m",
        "shots": 24,
        "rounds": 5,
        "seed": 11,
    },
    {
        "name": "color_d3_gladiator",
        "family": "color",
        "distance": 3,
        "noise": "paper",
        "p": 2e-3,
        "leakage_ratio": 1.0,
        "policy": "gladiator+m",
        "shots": 24,
        "rounds": 5,
        "seed": 29,
    },
    {
        "name": "toric_d3_eraser",
        "family": "toric",
        "distance": 3,
        "noise": "paper",
        "p": 2e-3,
        "leakage_ratio": 1.0,
        "policy": "eraser+m",
        "shots": 24,
        "rounds": 5,
        "seed": 17,
    },
    {
        "name": "surface_d3_drift",
        "family": "surface",
        "distance": 3,
        "noise": "drift",
        "p": 2e-3,
        "leakage_ratio": 1.0,
        "policy": "gladiator+m",
        "shots": 24,
        "rounds": 5,
        "seed": 41,
    },
    {
        "name": "surface_d3_bursts",
        "family": "surface",
        "distance": 3,
        "noise": "bursts",
        "p": 2e-3,
        "leakage_ratio": 1.0,
        "policy": "eraser+m",
        "shots": 24,
        "rounds": 5,
        "seed": 43,
    },
    {
        "name": "toric_d3_floods",
        "family": "toric",
        "distance": 3,
        "noise": "floods",
        "p": 2e-3,
        "leakage_ratio": 1.0,
        "policy": "gladiator+m",
        "shots": 24,
        "rounds": 5,
        "seed": 47,
    },
    {
        "name": "surface_d3_windowed",
        "family": "surface",
        "distance": 3,
        "noise": "paper",
        "p": 2e-3,
        "leakage_ratio": 1.0,
        "policy": "eraser+m",
        "shots": 24,
        "rounds": 6,
        "seed": 53,
        "window_rounds": 3,
        "commit_rounds": 1,
    },
    # Windowed color and toric runs at twice the rate: every intermediate
    # window of the matching decode deposits boundary artifacts, and the
    # windowed failure counts differ from the offline decode of the record.
    {
        "name": "color_d3_windowed",
        "family": "color",
        "distance": 3,
        "noise": "paper",
        "p": 4e-3,
        "leakage_ratio": 1.0,
        "policy": "gladiator+m",
        "shots": 24,
        "rounds": 6,
        "seed": 59,
        "window_rounds": 3,
        "commit_rounds": 1,
    },
    {
        "name": "toric_d3_windowed",
        "family": "toric",
        "distance": 3,
        "noise": "paper",
        "p": 4e-3,
        "leakage_ratio": 1.0,
        "policy": "eraser+m",
        "shots": 24,
        "rounds": 6,
        "seed": 61,
        "window_rounds": 3,
        "commit_rounds": 1,
    },
]


def build_noise(scenario: dict):
    preset = NOISE_PRESETS.get(scenario["noise"]).obj
    return preset(p=scenario["p"], leakage_ratio=scenario["leakage_ratio"])


def make_fixture(scenario: dict) -> dict:
    code = make_code(scenario["family"], scenario["distance"])
    noise = build_noise(scenario)
    policy = make_policy(scenario["policy"])

    simulator = LeakageSimulator(
        code=code,
        noise=noise,
        policy=policy,
        options=SimulatorOptions(record_detectors=True),
        seed=scenario["seed"],
    )
    run = simulator.run(shots=scenario["shots"], rounds=scenario["rounds"])

    graph = DetectorGraph(
        code=code, rounds=scenario["rounds"], noise=noise, hyperedges="decompose"
    )
    decoders = {}
    for method in ("matching", "union_find"):
        predictions = make_decoder(graph, method).decode_batch(
            run.detector_history, run.final_detectors
        )
        decoders[method] = {
            "predictions": predictions.astype(int).tolist(),
            "failures": int((predictions ^ run.observable_flips).sum()),
        }

    summaries = {}
    for method in ("matching", "union_find"):
        result = MemoryExperiment(
            code=make_code(scenario["family"], scenario["distance"]),
            noise=noise,
            policy=make_policy(scenario["policy"]),
            decoder_method=method,
            seed=scenario["seed"],
            window_rounds=scenario.get("window_rounds"),
            commit_rounds=scenario.get("commit_rounds"),
        ).run(shots=scenario["shots"], rounds=scenario["rounds"])
        summaries[method] = result.summary()

    return {
        "scenario": scenario,
        "detector_history": run.detector_history.astype(int).tolist(),
        "final_detectors": run.final_detectors.astype(int).tolist(),
        "observable_flips": run.observable_flips.astype(int).tolist(),
        "decoders": decoders,
        "memory_summaries": summaries,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        metavar="NAME",
        help="regenerate just this scenario, leaving every other fixture untouched",
    )
    args = parser.parse_args(argv)
    scenarios = SCENARIOS
    if args.only is not None:
        scenarios = [s for s in SCENARIOS if s["name"] == args.only]
        if not scenarios:
            known = ", ".join(s["name"] for s in SCENARIOS)
            parser.error(f"unknown scenario {args.only!r} (known: {known})")
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in scenarios:
        fixture = make_fixture(scenario)
        path = FIXTURES_DIR / f"golden_{scenario['name']}.json"
        path.write_text(json.dumps(fixture, indent=1, sort_keys=True))
        matching = fixture["decoders"]["matching"]["failures"]
        union_find = fixture["decoders"]["union_find"]["failures"]
        print(
            f"wrote {path.relative_to(ROOT)} "
            f"(failures: matching={matching}, union_find={union_find})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
