"""Disabled-telemetry overhead: the instrumented round loop vs a frozen bare one.

The ``repro.obs`` contract is that telemetry costs nothing measurable when
it is off: a disabled instrument is one attribute load and one branch, and
the simulator's span hooks reduce to a hoisted ``is not None`` check per
round.  This benchmark pins that contract.  :class:`BareLeakageSimulator`
copies the engine's ``_run_round`` with every tracer hook removed, so the
race isolates exactly what the hooks cost, then races the instrumented
engine against it on the same reference configuration
``bench_sim_round.py`` asserts its speedup floor on (d=5, 100 rounds, 20k
shots, leakage sampling on).

Runs are interleaved and each side takes its min-of-N, which strips
scheduler jitter; the asserted bound is ``OVERHEAD_CEILING`` (<=2%).  Both
sides consume the identical RNG stream — telemetry never touches the
simulation RNG — so the race is also a bit-identity check.  Rows land in
``results/BENCH_obs.json``.
"""

import time

import numpy as np

from _common import emit, format_table, run_once, save

from repro.core import make_policy
from repro.experiments import make_code
from repro.noise import paper_noise
from repro.obs.metrics import METRICS
from repro.obs.trace import current_tracer
from repro.sim import LeakageSimulator, SimulatorOptions
from repro.sim.simulator import RoundRecord

#: The acceptance ceiling: with telemetry disabled, the instrumented round
#: loop must stay within this factor of the frozen uninstrumented baseline.
OVERHEAD_CEILING = 1.02

#: Interleaved repetitions per side; min-of-N strips scheduler jitter.
REPETITIONS = 3

#: The reference configuration of ``bench_sim_round.py``'s speedup floor,
#: deliberately *not* scaled by REPRO_SCALE: the overhead bound is asserted
#: on the same workload everywhere, laptop and CI alike.
FLOOR_DISTANCE = 5
FLOOR_SHOTS = 20_000
FLOOR_ROUNDS = 100


class BareLeakageSimulator(LeakageSimulator):
    """The engine's round loop with every telemetry hook stripped.

    ``_run_round`` is a verbatim copy of :meth:`LeakageSimulator._run_round`
    minus the tracer resolution, the phase ticks and the span emission;
    everything it calls (the compiled round, the NumPy per-phase round, the
    NumPy speculation step) is the engine's own, with the round kernel
    told to read no clock.  Re-derive it whenever the engine's round loop
    changes shape: the signature must stay call-compatible with
    ``run_incremental``, and with no tracer active the two engines draw the
    identical RNG stream.
    """

    def _run_round(
        self,
        state,
        round_index,
        ws,
        source,
        totals,
        detector_history,
        pattern_histogram,
    ):
        noise = self.noise.params_for_round(round_index)
        shots = state.shots

        plan = ws.round_plan
        if plan is not None:
            lrcs_this_round = self._compiled_round(round_index, ws, noise, totals, traced=False)
        else:
            lrcs_this_round = self._numpy_round(state, ws, source, noise, totals, None)

        if plan is None or not plan.speculates:
            self._speculate(state, round_index, ws)
        state.prev_measurement, ws.measurement = ws.measurement, state.prev_measurement
        z_detectors = ws.detectors[:, self._z_stab_indices]
        if detector_history is not None:
            detector_history[:, round_index, :] = z_detectors

        fp, fn, tp, leaked_data, leaked_anc = ws.speculate_counts.tolist()
        totals["fp"] += fp
        totals["fn"] += fn
        totals["tp"] += tp
        ws.pending_data_lrcs = fp + tp
        if self.options.record_patterns:
            self._record_patterns(ws.pattern_a, state.data_leaked, pattern_histogram)
        record = RoundRecord(
            round_index=round_index,
            data_leakage_population=leaked_data / state.data_leaked.size,
            ancilla_leakage_population=leaked_anc / state.anc_leaked.size,
            lrcs_applied=lrcs_this_round / shots,
            false_positives=fp / shots,
            false_negatives=fn / shots,
            true_positives=tp / shots,
        )
        ws.pattern_a, ws.pattern_b = ws.pattern_b, ws.pattern_a
        return record, z_detectors


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #
def _build(simulator_cls):
    return simulator_cls(
        code=make_code("surface", FLOOR_DISTANCE),
        noise=paper_noise(p=1e-3, leakage_ratio=0.1),
        policy=make_policy("gladiator+m"),
        options=SimulatorOptions(leakage_sampling=True, record_detectors=False),
        seed=202,
    )


def _timed_run(simulator_cls):
    simulator = _build(simulator_cls)
    simulator.run(shots=128, rounds=2)  # prime kernels and policy tables
    started = time.perf_counter()
    result = simulator.run(shots=FLOOR_SHOTS, rounds=FLOOR_ROUNDS)
    return result, time.perf_counter() - started


def test_disabled_telemetry_overhead(benchmark):
    # The whole point is the *disabled* path: fail loudly if something left
    # telemetry on, because the measurement would be meaningless.
    assert current_tracer() is None
    assert not METRICS.enabled

    def workload():
        bare_seconds = []
        instrumented_seconds = []
        reference = None
        for _ in range(REPETITIONS):
            # Interleaved A/B: thermal and scheduler drift hits both sides.
            bare_result, bare_s = _timed_run(BareLeakageSimulator)
            inst_result, inst_s = _timed_run(LeakageSimulator)
            bare_seconds.append(bare_s)
            instrumented_seconds.append(inst_s)
            # Telemetry never touches the RNG: identical stream, identical run.
            assert bare_result.round_records == inst_result.round_records
            assert np.array_equal(
                bare_result.final_data_leaked, inst_result.final_data_leaked
            )
            assert np.array_equal(
                bare_result.observable_flips, inst_result.observable_flips
            )
            reference = inst_result
        assert reference is not None
        bare_best = min(bare_seconds)
        instrumented_best = min(instrumented_seconds)
        return [
            {
                "config": "leakage-population",
                "distance": FLOOR_DISTANCE,
                "shots": FLOOR_SHOTS,
                "rounds": FLOOR_ROUNDS,
                "repetitions": REPETITIONS,
                "bare_seconds": bare_best,
                "instrumented_seconds": instrumented_best,
                "overhead_ratio": instrumented_best / bare_best,
                "ceiling": OVERHEAD_CEILING,
            }
        ]

    rows = run_once(benchmark, workload)
    emit(
        "Telemetry-off overhead: instrumented round loop vs frozen bare baseline",
        format_table(rows),
    )
    save(
        "BENCH_obs",
        {
            "p": 1e-3,
            "leakage_ratio": 0.1,
            "policy": "gladiator+m",
            "ceiling": OVERHEAD_CEILING,
            "repetitions": REPETITIONS,
        },
        rows,
    )
    assert rows[0]["overhead_ratio"] <= OVERHEAD_CEILING, rows[0]
