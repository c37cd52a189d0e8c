"""Equivalence of the simulator against an independent oracle and itself.

Two kinds of check:

* **Statistical oracle.**  The engine samples under the sparse draw
  contract (:mod:`repro.sim.draws`); the frozen pre-workspace simulator in
  ``tests/reference_sim.py`` samples the same physics under the dense old
  contract with ``Generator.random`` / ``integers`` and shares no draw
  code with it.  Over independent replicate runs, their DLP, LRCs/round,
  FP/FN per round and leakage-event rates must agree within a two-sample
  ``|z| < 4``.
* **Bit identity.**  The compiled kernels and the NumPy oracle path run
  the same contract, so they must agree exactly across the pinned
  scenario matrix, across back-to-back runs and on the Generator's
  post-state; workspace reuse must not leak state across rounds or runs.
"""

import dataclasses
import os
from contextlib import contextmanager

import numpy as np
import pytest

from decisions import decide_buffers
from reference_sim import ReferenceLeakageSimulator, assert_results_identical

from repro.api.registry import CODES
from repro.circuits.lrc import ResetLrc
from repro.core import make_policy
from repro.core.speculator import LeakagePolicy, LookupPolicy, SpeculationInput
from repro.experiments import make_code
from repro.noise import NoiseParams, burst_noise, drifting_noise, paper_noise
from repro.sim import LeakageSimulator, SimulatorOptions
from repro.sim.draws import DrawSource
from repro.sim.workspace import RoundWorkspace

#: The pinned scenario matrix: surface and colour codes, MLR and non-MLR
#: policies (including the two-round and the ancilla-LRC-emitting ones),
#: leakage sampling on/off, detector/pattern recording on; then noise that
#: changes every round (drift epochs of one round, bursts every other
#: round), stuck leaked readouts, a fair-coin ancilla reset (a fair row),
#: no leakage injection (constant rows that draw nothing), and rates past
#: 1/2 (complement rows: a 95% LRC removal, gate leakage 0.6, fair MLR
#: misses, certain transport).
SCENARIOS = [
    ("surface", 3, "gladiator+m", dict(record_detectors=True)),
    ("surface", 3, "eraser", dict(leakage_sampling=True)),
    ("surface", 5, "gladiator-d+m", dict(leakage_sampling=True)),
    ("surface", 3, "always", dict(record_detectors=True)),
    ("color", 5, "gladiator+m", dict(record_detectors=True, record_patterns=True)),
    ("color", 5, "eraser", dict(leakage_sampling=True, record_patterns=True)),
    ("surface", 3, "ideal", dict(leakage_sampling=True)),
    ("surface", 3, "mlr-only", dict()),
    ("toric", 3, "gladiator+m", dict(record_detectors=True)),
    ("color", 3, "gladiator-d+m", dict(record_patterns=True)),
    ("surface", 3, "gladiator+m", dict(
        noise=drifting_noise(p=2e-3, leakage_ratio=1.0, drift_epoch_rounds=1),
        leakage_sampling=True,
    )),
    ("surface", 3, "eraser+m", dict(
        noise=burst_noise(p=2e-3, leakage_ratio=1.0, burst_period=2, burst_rounds=1),
        record_detectors=True,
    )),
    ("surface", 3, "gladiator+m", dict(
        noise=dataclasses.replace(
            paper_noise(p=2e-3, leakage_ratio=1.0), readout_leak_random=False
        ),
        leakage_sampling=True,
    )),
    ("color", 3, "mlr-only", dict(
        noise=dataclasses.replace(
            paper_noise(p=2e-3, leakage_ratio=1.0), ancilla_reset_removes_leakage=0.5
        ),
        leakage_sampling=True,
    )),
    ("surface", 3, "always", dict(
        noise=paper_noise(p=2e-3, leakage_ratio=0.0), leakage_sampling=True,
    )),
    ("surface", 3, "gladiator-d+m", dict(
        noise=NoiseParams(
            p=0.06, leakage_ratio=10.0, mlr_error_factor=10.0, leakage_mobility=1.0
        ),
        gadget=ResetLrc(), record_patterns=True,
    )),
]


@contextmanager
def _ckernels(value):
    previous = os.environ.get("REPRO_SIM_CKERNELS")
    os.environ["REPRO_SIM_CKERNELS"] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_SIM_CKERNELS", None)
        else:
            os.environ["REPRO_SIM_CKERNELS"] = previous


def _build(
    simulator_cls, family, distance, policy, seed=7, noise=None, gadget=None, **options
):
    return simulator_cls(
        code=make_code(family, distance),
        noise=noise or paper_noise(p=2e-3, leakage_ratio=0.1),
        policy=make_policy(policy),
        gadget=gadget,
        options=SimulatorOptions(**options),
        seed=seed,
    )


def _both_paths(runs, *args, **kwargs):
    """``runs(simulator)`` on fresh simulators with the kernels on and off."""
    results = []
    for value in ("1", "0"):
        with _ckernels(value):
            results.append(runs(_build(LeakageSimulator, *args, **kwargs)))
    return results


# --------------------------------------------------------------------- #
# Statistical oracle: sparse contract vs the frozen dense-contract engine
# --------------------------------------------------------------------- #
#: (family, distance, policy, noise): surface d3 at paper noise, colour d3,
#: one drift and one burst scenario.  Leakage ratio 1 keeps every metric
#: well away from zero at these sizes.
ORACLE_SCENARIOS = {
    "surface-paper": ("surface", 3, "gladiator+m", paper_noise(p=2e-3, leakage_ratio=1.0)),
    "color-paper": ("color", 3, "gladiator+m", paper_noise(p=2e-3, leakage_ratio=1.0)),
    "surface-drift": ("surface", 3, "eraser+m", drifting_noise(p=2e-3, leakage_ratio=1.0)),
    "surface-bursts": ("surface", 3, "gladiator+m", burst_noise(p=2e-3, leakage_ratio=1.0)),
}
ORACLE_REPLICATES, ORACLE_SHOTS, ORACLE_ROUNDS = 10, 600, 14


def _replicate_metrics(simulator) -> np.ndarray:
    """Per-replicate metric rows of back-to-back runs (one RNG stream)."""
    rows = []
    for _ in range(ORACLE_REPLICATES):
        run = simulator.run(shots=ORACLE_SHOTS, rounds=ORACLE_ROUNDS)
        rows.append([
            run.mean_dlp,
            run.lrcs_per_round,
            run.false_positives_per_round,
            run.false_negatives_per_round,
            run.total_leakage_events / (ORACLE_SHOTS * ORACLE_ROUNDS),
        ])
    return np.array(rows)


@pytest.mark.parametrize("scenario", sorted(ORACLE_SCENARIOS))
def test_sparse_contract_matches_old_contract_statistically(scenario):
    family, distance, policy, noise = ORACLE_SCENARIOS[scenario]
    reference = _replicate_metrics(
        _build(ReferenceLeakageSimulator, family, distance, policy, seed=101, noise=noise)
    )
    engine = _replicate_metrics(
        _build(LeakageSimulator, family, distance, policy, seed=202, noise=noise)
    )
    spread = np.sqrt(
        (reference.var(axis=0, ddof=1) + engine.var(axis=0, ddof=1)) / ORACLE_REPLICATES
    )
    z = (engine.mean(axis=0) - reference.mean(axis=0)) / spread
    names = ("mean_dlp", "lrcs_per_round", "fp_per_round", "fn_per_round", "leak_events")
    assert np.all(reference.mean(axis=0) > 0), dict(zip(names, reference.mean(axis=0)))
    assert np.all(np.abs(z) < 4), dict(zip(names, np.round(z, 2)))


# --------------------------------------------------------------------- #
# Bit identity: compiled kernels vs the NumPy oracle path
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("family,distance,policy,options", SCENARIOS)
def test_optimized_matches_reference(family, distance, policy, options):
    """The compiled round reproduces the NumPy oracle path bit for bit and
    leaves the Generator in the same state."""
    compiled, interpreted = _both_paths(
        lambda sim: (sim.run(shots=48, rounds=6), sim.rng.bit_generator.state),
        family, distance, policy, **options,
    )
    assert_results_identical(interpreted[0], compiled[0])
    assert interpreted[1] == compiled[1]


def test_compiled_run_is_one_kernel_call_per_round(monkeypatch):
    """A compiled run of a lookup policy calls the round kernel once per
    round and draws nothing else until the final readout (its two rows)."""
    from repro.sim import _ckernels

    if not _ckernels.available():
        pytest.skip("compiled kernels unavailable")
    calls = {"qec_round": 0, "draw_row": 0, "draw_choices": 0, "speculate": 0}
    for name in calls:
        original = getattr(_ckernels, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_ckernels, name, counted)
    sim = _build(LeakageSimulator, "surface", 3, "gladiator+m", leakage_sampling=True)
    stream = sim.run_incremental(32, 5)
    for round_index in range(5):
        next(stream)
        assert calls["qec_round"] == round_index + 1
        assert calls["draw_row"] == calls["draw_choices"] == calls["speculate"] == 0
    with pytest.raises(StopIteration):
        next(stream)
    assert calls == {"qec_round": 5, "draw_row": 2, "draw_choices": 0, "speculate": 0}


@pytest.mark.parametrize("policy", ["gladiator+m", "mlr-only"])
def test_traced_phases_tile_each_round(policy):
    """With a tracer active each round's five ``sim.phase.*`` spans tile its
    ``sim.round`` span in order, on both paths and whichever step
    speculates: the compiled round's ticks are on ``perf_counter_ns``'s
    clock.  Tracing changes no result."""
    from repro.obs.trace import Tracer, activate, deactivate
    from repro.sim.simulator import PHASE_NAMES

    def traced(sim):
        tracer = Tracer()
        activate(tracer)
        try:
            return sim.run(shots=40, rounds=4), tracer.events()
        finally:
            deactivate()

    untraced = _both_paths(lambda sim: sim.run(shots=40, rounds=4), "surface", 3, policy)
    for (result, events), plain in zip(_both_paths(traced, "surface", 3, policy), untraced):
        assert_results_identical(plain, result)
        rounds = [event for event in events if event["name"] == "sim.round"]
        assert [event["args"]["round"] for event in rounds] == [0, 1, 2, 3]
        for round_event in rounds:
            phases = [
                event for event in events
                if event["name"].startswith("sim.phase.")
                and event["args"]["round"] == round_event["args"]["round"]
            ]
            assert [event["name"] for event in phases] == [
                f"sim.phase.{name}" for name in PHASE_NAMES
            ]
            edge = round_event["ts"]
            for phase in phases:
                assert phase["ts"] == pytest.approx(edge, abs=1e-3)
                assert phase["dur"] >= 0
                edge = phase["ts"] + phase["dur"]
            assert edge == pytest.approx(round_event["ts"] + round_event["dur"], abs=1e-3)


@pytest.mark.parametrize("ckernels", ["0", "1"])
def test_all_execution_modes_are_bit_identical(ckernels):
    """Whichever path runs first, both paths agree on the run and leave the
    Generator in the same state (half-word buffer included: leakage
    sampling's ``integers`` call fills it before the draw source opens)."""
    other = "1" if ckernels == "0" else "0"
    outcomes = []
    for value in (ckernels, other):
        with _ckernels(value):
            sim = _build(
                LeakageSimulator, "surface", 3, "gladiator+m",
                leakage_sampling=True, record_detectors=True,
            )
            outcomes.append((sim.run(shots=40, rounds=5), sim.rng.bit_generator.state))
    (first, first_state), (second, second_state) = outcomes
    assert_results_identical(first, second)
    assert first_state == second_state


def test_constant_draw_advance_preserves_uint32_buffer():
    """Constant rows consume no output, and the source never touches
    PCG64's buffered half-word: closing it leaves the Generator advanced by
    exactly the outputs consumed, on both paths."""
    seed = next(
        s for s in range(100)
        if (lambda r: (r.integers(0, 3, size=7), r.bit_generator.state["has_uint32"])[1])(
            np.random.default_rng(s)
        )
    )
    for value in ("0", "1"):
        with _ckernels(value):
            expected = np.random.default_rng(seed)
            drawn = np.random.default_rng(seed)
            expected.integers(0, 3, size=7)
            drawn.integers(0, 3, size=7)
            assert drawn.bit_generator.state["has_uint32"] == 1
            source = DrawSource(drawn)
            assert source.mask(1.5, (5, 4)).all()  # constant ones
            assert not source.mask(0.0, (5, 4)).any()  # constant zeros
            source.mask(0.5, (5, 26))  # 130 fair bits: three outputs
            source.close()
            expected.bit_generator.random_raw(3)
            assert drawn.bit_generator.state == expected.bit_generator.state
            assert np.array_equal(expected.integers(0, 3, size=9), drawn.integers(0, 3, size=9))


def test_long_run_after_warmup_stays_identical():
    """Back-to-back runs continue one stream on both paths."""
    def runs(sim):
        return sim.run(shots=128, rounds=2), sim.run(shots=2000, rounds=12)

    compiled, interpreted = _both_paths(
        runs, "surface", 5, "gladiator+m", seed=202, leakage_sampling=True
    )
    for left, right in zip(interpreted, compiled):
        assert_results_identical(left, right)


#: Small rates whose tables fill ``GAP_TABLE_MAX``, rates whose tables end
#: early, complements (``p > 1/2``) of both, and the table-free rates
#: ``0``, ``1/2`` and ``1``.
GAP_TABLE_RATES = (
    5e-324, 1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5 - 2**-54,
    0.5 + 2**-53, 0.7, 0.99, 1.0 - 1e-4, 1.0 - 2**-53,
    0.0, 0.5, 1.0,
)


def test_gap_tables_match_python_oracle(monkeypatch):
    """Every rate record, gap table included, is byte-equal whether the
    table is built by the compiled loop or the Python big-integer one."""
    from repro.sim import _ckernels as kernels
    from repro.sim.draws import GAP_TABLE_MAX, rate

    if not kernels.available():
        pytest.skip("compiled kernels unavailable")
    compiled_builds = []
    original = kernels.gap_table

    def counted(keep, limit):
        compiled_builds.append(keep)
        return original(keep, limit)

    monkeypatch.setattr(kernels, "gap_table", counted)
    lengths = []
    for probability in GAP_TABLE_RATES:
        built = {}
        for flag in ("1", "0"):
            with _ckernels(flag):
                built[flag] = rate.__wrapped__(probability)
        compiled, python = built["1"], built["0"]
        assert compiled.table.dtype == python.table.dtype == np.uint64
        assert compiled.table.tobytes() == python.table.tobytes(), probability
        assert compiled.record[:3].tolist() == python.record[:3].tolist(), probability
        lengths.append(python.table.size)
    assert len(compiled_builds) == sum(1 for length in lengths if length)
    assert {0, GAP_TABLE_MAX} <= set(lengths)
    assert len(set(lengths) - {0, GAP_TABLE_MAX}) >= 3  # tables that end early


def test_ckernels_skipped_when_disabled():
    with _ckernels("0"):
        from repro.sim import _ckernels as kernels

        assert not kernels.available()
        assert not DrawSource(np.random.default_rng(0)).compiled


def test_shared_constant_masks_match_numpy_path():
    """With ``p_leak = 0`` both gate-leak rows are constant: they consume
    nothing, and the NumPy path hands out one shared read-only buffer for
    them.  The compiled run must still equal the NumPy path bit for bit."""
    noise = NoiseParams(p=4e-3, leakage_ratio=0.0, leakage_mobility=0.5)
    compiled, interpreted = _both_paths(
        lambda sim: sim.run(shots=64, rounds=8), "surface", 3, "gladiator+m",
        seed=11, noise=noise, leakage_sampling=True, record_detectors=True,
    )
    assert_results_identical(interpreted, compiled)
    assert compiled.total_leakage_events > 0  # transport by sampled leaks

    with _ckernels("0"):
        source = DrawSource(np.random.default_rng(0))
        first, second = source.mask(0.0, (4, 6)), source.mask(0.0, (4, 6))
        assert first is second and not first.flags.writeable
        source.close()


def test_round_plan_rejects_buffers_aliasing_a_plane():
    """The round kernel's planes are ``restrict``-qualified: a plan whose
    output buffer shares a plane's memory is refused."""
    from repro.sim import _ckernels

    if not _ckernels.available():
        pytest.skip("compiled kernels unavailable")
    from repro.sim.state import SimState

    sim = _build(LeakageSimulator, "surface", 3, "gladiator+m")
    shots, code = 4, sim.code
    ws = sim._make_workspace(shots)
    state = SimState(shots, code.num_data, code.num_ancilla)
    source = DrawSource(sim.rng)
    assert sim._round_plan(state, ws, source).speculates
    ws.detectors = ws.anc_pack.view(bool)
    with pytest.raises(AssertionError, match="detectors aliases a plane"):
        sim._round_plan(state, ws, source)
    source.close()


#: (code, policy) pairs of the direct speculation-kernel check: every
#: registered code under the single-round lookup policies, the two-round
#: ones on the small codes (BPC's two-round table build is slow).
KERNEL_CASES = [
    (family, policy)
    for family in CODES.names()
    for policy in ("eraser", "eraser+m", "gladiator", "gladiator+m")
] + [
    (family, policy)
    for family in ("surface", "color", "toric")
    for policy in ("gladiator-d", "gladiator-d+m")
]


@pytest.mark.parametrize("round_index", [0, 3])
@pytest.mark.parametrize("family,policy", KERNEL_CASES)
def test_speculate_kernel_matches_numpy_lookup(family, policy, round_index):
    """The compiled speculation step (the tail of a lookup policy's round
    kernel, run alone on bool leak flags) equals detectors +
    ``_extract_patterns`` + ``decide_into`` + NumPy accuracy counts on
    random inputs, and so does the simulator's NumPy speculation step (the
    only one checked when the kernels are off)."""
    from repro.sim import _ckernels
    from repro.sim.state import SimState

    sim = _build(LeakageSimulator, family, 3, policy)
    code, built, shots = sim.code, sim.policy, 257
    rng = np.random.default_rng(round_index * 1000 + code.num_data)
    state = SimState(shots, code.num_data, code.num_ancilla)
    state.prev_measurement[:] = rng.random(state.prev_measurement.shape) < 0.3
    state.data_leaked[:] = rng.random(state.data_leaked.shape) < 0.1
    state.anc_leaked[:] = rng.random(state.anc_leaked.shape) < 0.1
    ws = sim._make_workspace(shots)
    ws.measurement[:] = rng.random(ws.measurement.shape) < 0.3
    if ws.mlr_flags is not None:
        ws.mlr_flags[:] = rng.random(ws.mlr_flags.shape) < 0.1
    # Valid previous-round patterns, from random detectors.
    sim._extract_patterns(rng.random(ws.detectors.shape) < 0.3, ws.pattern_b, ws)

    outputs = {}
    steps = {"numpy": lambda: sim._speculate(state, round_index, ws)}
    if _ckernels.available():
        plan = sim._speculate_plan()
        assert plan is not None
        steps["kernel"] = lambda: _ckernels.speculate(
            plan, round_index, ws.measurement, state.prev_measurement, ws.detectors,
            ws.pattern_a, ws.pattern_b, state.data_leaked, state.anc_leaked, ws.data_lrc,
            ws.speculate_counts,
        )
    for path, step in steps.items():
        step()
        outputs[path] = [
            ws.detectors.copy(), ws.pattern_a.copy(), ws.data_lrc.copy(),
            ws.speculate_counts.tolist(),
        ]

    detectors = ws.measurement ^ state.prev_measurement
    if round_index == 0:
        detectors[:, sim._x_stab_indices] = False
    patterns = np.zeros_like(ws.pattern_a)
    sim._extract_patterns(detectors, patterns, ws)
    mlr_neighbor = None
    if ws.mlr_flags is not None:
        mlr_neighbor = np.zeros_like(state.data_leaked)
        sim._mlr_neighbor(ws.mlr_flags, mlr_neighbor, ws)
    expected = np.ones_like(ws.data_lrc)
    built.decide_into(
        SpeculationInput(
            round_index=round_index, pattern_ints=patterns,
            prev_pattern_ints=ws.pattern_b, mlr_neighbor=mlr_neighbor,
            data_leaked=state.data_leaked,
        ),
        expected,
    )
    leaked = state.data_leaked
    counts = [
        np.count_nonzero(expected & ~leaked),
        np.count_nonzero(~expected & leaked),
        np.count_nonzero(expected & leaked),
        np.count_nonzero(leaked),
        np.count_nonzero(state.anc_leaked),
    ]
    for path, (got_detectors, got_patterns, got_lrc, got_counts) in outputs.items():
        assert np.array_equal(got_detectors, detectors), path
        assert np.array_equal(got_patterns, patterns), path
        assert np.array_equal(got_lrc, expected), path
        assert got_counts == counts, path
    # Past round 0 (silent for deferred policies) some qubits are flagged.
    assert (~expected).any() and (expected.any() or round_index == 0)


def test_pattern_histograms_match_reference_loop():
    """The bincount accounting reproduces the frozen per-value Python loop
    exactly on the same patterns, including explicit zero entries for
    unobserved patterns."""
    expected: dict = {}

    class Recording(LeakageSimulator):
        def _record_patterns(self, pattern_ints, data_leaked, histogram):
            super()._record_patterns(pattern_ints, data_leaked, histogram)
            ReferenceLeakageSimulator._record_patterns(
                self, pattern_ints.astype(np.int64), data_leaked, expected
            )

    result = _build(
        Recording, "color", 5, "gladiator+m", record_patterns=True, leakage_sampling=True,
    ).run(shots=32, rounds=5)
    assert result.pattern_histogram == expected
    # Structure: every width bucket enumerates all 2**width values.
    code = make_code("color", 5)
    for width in set(code.pattern_widths):
        bucket = result.pattern_histogram[width]
        assert set(bucket) == set(range(1 << width))
        assert all(
            leaked >= 0 and clean >= 0 for leaked, clean in bucket.values()
        )


def test_no_state_leak_across_run_incremental_calls():
    """A reused simulator's later runs match on both paths: nothing persists
    across ``run_incremental`` calls except the RNG."""
    def runs(sim):
        # Second run continues the stream; the differently-shaped third
        # run gets a fresh workspace with no stale buffers.
        return [sim.run(shots=30, rounds=4), sim.run(shots=30, rounds=4),
                sim.run(shots=17, rounds=3)]

    compiled, interpreted = _both_paths(
        runs, "surface", 3, "gladiator+m", leakage_sampling=True
    )
    for left, right in zip(interpreted, compiled):
        assert_results_identical(left, right)


def test_yielded_detector_chunks_are_not_reused_buffers():
    """Streaming consumers may retain yielded chunks across rounds; later
    rounds must never mutate them (no workspace aliasing)."""
    sim = _build(LeakageSimulator, "surface", 3, "gladiator+m")
    stream = sim.run_incremental(25, 6)
    chunks, copies = [], []
    while True:
        try:
            _, detectors = next(stream)
        except StopIteration:
            break
        chunks.append(detectors)
        copies.append(detectors.copy())
    assert len(chunks) == 6
    for held, copy in zip(chunks, copies):
        assert np.array_equal(held, copy)
    # Distinct buffers per round, not one recycled array.
    assert len({id(chunk) for chunk in chunks}) == len(chunks)


def test_frozen_ancilla_decision_buffer_is_immutable():
    """Policies that never emit ancilla LRCs share one read-only zeros
    buffer; writing to it must fail loudly rather than corrupt a round."""
    ws = RoundWorkspace(
        shots=4,
        num_data=5,
        num_ancilla=4,
        layer_is_z=[np.array([True, False])],
        num_pattern_groups=3,
        pattern_needs_threshold=False,
        uses_mlr=False,
        emits_ancilla_lrc=False,
    )
    assert not ws.anc_lrc.flags.writeable
    assert not ws.anc_lrc.any()
    with pytest.raises(ValueError):
        ws.anc_lrc[0, 0] = True


@pytest.mark.parametrize(
    "policy", ["no-lrc", "always", "staggered", "mlr-only", "ideal", "eraser",
               "gladiator+m", "gladiator-d"]
)
def test_decide_into_matches_decide(policy):
    """``decide_into`` decides the same whatever its buffers held before
    (prefilled ``False`` or ``True``), and a lookup policy's
    :class:`TableLayout` answers what its per-qubit flag tables say, in
    round 0 and later."""
    code = make_code("surface", 3)
    noise = NoiseParams(p=2e-3, leakage_ratio=0.1)
    built = make_policy(policy)
    built.prepare(code, noise)
    rng = np.random.default_rng(3)
    shots = 12
    # Patterns must respect each qubit's width or the table lookup is invalid.
    limits = np.array([1 << w for w in code.pattern_widths], dtype=np.int64)
    for round_index in (0, 1):
        ctx = SpeculationInput(
            round_index=round_index,
            pattern_ints=rng.integers(0, limits, (shots, code.num_data)).astype(np.int32),
            prev_pattern_ints=rng.integers(0, limits, (shots, code.num_data)).astype(np.int32),
            mlr_neighbor=rng.random((shots, code.num_data)) < 0.1 if built.uses_mlr else None,
            data_leaked=rng.random((shots, code.num_data)) < 0.05,
        )
        data_out, _ = decide_buffers(built, ctx)
        if isinstance(built, LookupPolicy):
            assert np.array_equal(data_out, _per_qubit_lookup(built, ctx))


def _per_qubit_lookup(policy, ctx):
    """A lookup policy's decision from its per-qubit flag tables alone."""
    code = policy.code
    layout = policy.table_layout
    assert layout.flat.dtype == bool and layout.offsets.shape == (code.num_data,)
    assert (layout.shifts is not None) == policy.uses_two_rounds
    expected = np.zeros(ctx.data_leaked.shape, dtype=bool)
    if not (policy.silent_first_round and ctx.round_index == 0):
        for qubit in range(code.num_data):
            keys = ctx.pattern_ints[:, qubit].astype(np.int64)
            if policy.uses_two_rounds:
                prev = ctx.prev_pattern_ints[:, qubit].astype(np.int64)
                keys += prev << code.pattern_width(qubit)
            expected[:, qubit] = np.asarray(policy.flag_table(qubit), dtype=bool)[keys]
    if policy.uses_mlr_neighbor:
        expected |= ctx.mlr_neighbor
    return expected


def test_uses_mlr_neighbor_trait_gates_the_neighbour_buffer():
    """Only policies that read the MLR-neighbour flags get them."""
    traits = {
        "gladiator+m": False, "eraser+m": False, "gladiator-d+m": False,
        "mlr-only": True, "ideal": False, "eraser": False,
    }
    for name, wanted in traits.items():
        sim = _build(LeakageSimulator, "surface", 3, name)
        assert sim.policy.uses_mlr_neighbor == wanted, name
        assert (sim._make_workspace(4).mlr_neighbor is not None) == wanted, name
    assert LeakagePolicy().uses_mlr_neighbor  # third-party policies keep their input


def test_run_exhaustion_guard():
    """run() raises cleanly if the generator somehow returns no result."""
    sim = _build(LeakageSimulator, "surface", 3, "no-lrc")
    result = sim.run(shots=5, rounds=2)
    assert result.shots == 5 and result.rounds == 2
    with pytest.raises(ValueError):
        sim.run(shots=0, rounds=2)
