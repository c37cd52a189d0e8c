"""Simulator round throughput: the workspace hot path vs the frozen baseline.

The simulator core is the substrate every workload sits on — sweeps,
realtime streaming, batched decoding all bottom out in
``LeakageSimulator._run_round``.  The baseline is the pre-workspace
simulator frozen in ``tests/reference_sim.py`` as
:class:`ReferenceLeakageSimulator` (per-round allocation of every
temporary, chained boolean expressions, per-column Python loops over
pattern gathers, the ``2**width`` pattern-accounting scan, and the dense
old draw schedule), so the baseline cannot drift as the library improves.
The benchmark races the optimized engine against it:

* a d=3/5/7 grid, with and without ``record_detectors``, reporting
  rounds/sec and shots*rounds/sec for both implementations,
* the paper's leakage-population configuration (d=5, 100 rounds, 20k shots,
  leakage sampling on — Section 6, "Scaling Simulations using Leakage
  Sampling"), on which a >=2x speedup floor is asserted.

The two implementations draw under different RNG contracts, so their runs
are statistically, not bitwise, equivalent; ``tests/test_sim_equivalence.py``
holds that check.  Rows land in ``results/BENCH_sim.json`` alongside
BENCH_decode / BENCH_realtime.
"""

import sys
import time
from pathlib import Path

from _common import current_scale, emit, format_table, run_once, save

from repro.core import make_policy
from repro.experiments import make_code
from repro.noise import paper_noise
from repro.sim import LeakageSimulator, SimulatorOptions

_TESTS = Path(__file__).resolve().parent.parent / "tests"
if str(_TESTS) not in sys.path:
    sys.path.insert(0, str(_TESTS))

from reference_sim import ReferenceLeakageSimulator  # noqa: E402

#: The acceptance floor: the workspace engine must beat the frozen baseline
#: by at least this factor on the leakage-population configuration.
SPEEDUP_FLOOR = 2.0

GRID_DISTANCES = (3, 5, 7)
GRID_BASE_SHOTS = 5_000
GRID_BASE_ROUNDS = 20

#: The pinned floor configuration (d=5, 100 rounds, 20k shots, leakage
#: sampling on).  Deliberately *not* scaled by REPRO_SCALE: the floor is
#: asserted on the same workload everywhere, laptop and CI alike.
FLOOR_DISTANCE = 5
FLOOR_SHOTS = 20_000
FLOOR_ROUNDS = 100


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #
def _build(simulator_cls, distance, options, seed=202):
    return simulator_cls(
        code=make_code("surface", distance),
        noise=paper_noise(p=1e-3, leakage_ratio=0.1),
        policy=make_policy("gladiator+m"),
        options=options,
        seed=seed,
    )


def _timed_run(simulator, shots, rounds, warmup=True):
    if warmup:
        # Identical tiny warmup on both implementations: primes allocator
        # pools, the compiled-kernel load and the policy tables so the timed
        # section measures steady-state round cost, not first-touch noise.
        simulator.run(shots=128, rounds=2)
    started = time.perf_counter()
    simulator.run(shots=shots, rounds=rounds)
    return time.perf_counter() - started


def test_sim_round_throughput(benchmark):
    scale = current_scale()
    grid_shots = scale.shots(GRID_BASE_SHOTS)
    grid_rounds = scale.rounds(GRID_BASE_ROUNDS)

    def workload():
        rows = []
        for distance in GRID_DISTANCES:
            for record_detectors in (False, True):
                options = SimulatorOptions(record_detectors=record_detectors)
                reference_sim = _build(ReferenceLeakageSimulator, distance, options)
                optimized_sim = _build(LeakageSimulator, distance, options)
                ref_s = _timed_run(reference_sim, grid_shots, grid_rounds)
                opt_s = _timed_run(optimized_sim, grid_shots, grid_rounds)
                rows.append(
                    {
                        "config": "grid",
                        "distance": distance,
                        "shots": grid_shots,
                        "rounds": grid_rounds,
                        "record_detectors": record_detectors,
                        "leakage_sampling": False,
                        "reference_seconds": ref_s,
                        "optimized_seconds": opt_s,
                        "speedup": ref_s / opt_s,
                        "reference_rounds_per_second": grid_rounds / ref_s,
                        "optimized_rounds_per_second": grid_rounds / opt_s,
                        "reference_shot_rounds_per_second": grid_shots * grid_rounds / ref_s,
                        "optimized_shot_rounds_per_second": grid_shots * grid_rounds / opt_s,
                    }
                )

        # The paper's leakage-population configuration, pinned unscaled: this
        # row carries the asserted floor.
        options = SimulatorOptions(leakage_sampling=True, record_detectors=False)
        reference_sim = _build(ReferenceLeakageSimulator, FLOOR_DISTANCE, options)
        optimized_sim = _build(LeakageSimulator, FLOOR_DISTANCE, options)
        ref_s = _timed_run(reference_sim, FLOOR_SHOTS, FLOOR_ROUNDS)
        opt_s = _timed_run(optimized_sim, FLOOR_SHOTS, FLOOR_ROUNDS)
        rows.append(
            {
                "config": "leakage-population",
                "distance": FLOOR_DISTANCE,
                "shots": FLOOR_SHOTS,
                "rounds": FLOOR_ROUNDS,
                "record_detectors": False,
                "leakage_sampling": True,
                "reference_seconds": ref_s,
                "optimized_seconds": opt_s,
                "speedup": ref_s / opt_s,
                "reference_rounds_per_second": FLOOR_ROUNDS / ref_s,
                "optimized_rounds_per_second": FLOOR_ROUNDS / opt_s,
                "reference_shot_rounds_per_second": FLOOR_SHOTS * FLOOR_ROUNDS / ref_s,
                "optimized_shot_rounds_per_second": FLOOR_SHOTS * FLOOR_ROUNDS / opt_s,
            }
        )
        return rows

    rows = run_once(benchmark, workload)
    emit("Simulator round throughput: workspace engine vs frozen baseline", format_table(rows))
    save(
        "BENCH_sim",
        {
            "p": 1e-3,
            "leakage_ratio": 0.1,
            "policy": "gladiator+m",
            "floor": SPEEDUP_FLOOR,
            "floor_config": {
                "distance": FLOOR_DISTANCE,
                "shots": FLOOR_SHOTS,
                "rounds": FLOOR_ROUNDS,
                "leakage_sampling": True,
            },
        },
        rows,
    )

    floor_row = next(row for row in rows if row["config"] == "leakage-population")
    assert floor_row["speedup"] >= SPEEDUP_FLOOR, floor_row
    # Regression canary for the grid: single unwarmed timings at smoke scale
    # are noisy, so allow for scheduler jitter rather than demanding a strict
    # win on every tiny row (the floor row above is the real gate).
    for row in rows:
        assert row["speedup"] >= 0.8, row
