"""Bit-identity of the optimized simulator against the frozen reference.

The workspace/C-kernel hot path must produce *exactly* the results of the
pre-optimization simulator — same RNG stream, same arrays, same histograms.
The reference implementation is frozen verbatim inside
``benchmarks/bench_sim_round.py`` (where it also anchors the speedup floor);
these tests race it against the optimized engine across the pinned scenario
matrix and through both execution modes (compiled kernels on/off), and
check that workspace reuse cannot leak state across rounds or across
``run_incremental`` calls.
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from bench_sim_round import ReferenceLeakageSimulator, assert_results_identical  # noqa: E402

from repro.core import make_policy
from repro.experiments import make_code
from repro.noise import NoiseParams, paper_noise
from repro.sim import LeakageSimulator, SimulatorOptions
from repro.sim.workspace import RoundWorkspace

#: The pinned scenario matrix: surface and colour codes, MLR and non-MLR
#: policies (including the two-round and the ancilla-LRC-emitting ones),
#: leakage sampling on/off, detector/pattern recording on.
SCENARIOS = [
    ("surface", 3, "gladiator+m", dict(record_detectors=True)),
    ("surface", 3, "eraser", dict(leakage_sampling=True)),
    ("surface", 5, "gladiator-d+m", dict(leakage_sampling=True)),
    ("surface", 3, "always", dict(record_detectors=True)),
    ("color", 5, "gladiator+m", dict(record_detectors=True, record_patterns=True)),
    ("color", 5, "eraser", dict(leakage_sampling=True, record_patterns=True)),
    ("surface", 3, "ideal", dict(leakage_sampling=True)),
    ("surface", 3, "mlr-only", dict()),
]


def _build(simulator_cls, family, distance, policy, seed=7, **options):
    return simulator_cls(
        code=make_code(family, distance),
        noise=paper_noise(p=2e-3, leakage_ratio=0.1),
        policy=make_policy(policy),
        options=SimulatorOptions(**options),
        seed=seed,
    )


@pytest.mark.parametrize("family,distance,policy,options", SCENARIOS)
def test_optimized_matches_reference(family, distance, policy, options):
    reference = _build(ReferenceLeakageSimulator, family, distance, policy, **options)
    optimized = _build(LeakageSimulator, family, distance, policy, **options)
    ref_result = reference.run(shots=48, rounds=6)
    opt_result = optimized.run(shots=48, rounds=6)
    assert_results_identical(ref_result, opt_result)


@pytest.mark.parametrize("ckernels", ["0", "1"])
def test_all_execution_modes_are_bit_identical(monkeypatch, ckernels):
    """The C kernels never change a single bit."""
    monkeypatch.setenv("REPRO_SIM_CKERNELS", ckernels)
    reference = _build(
        ReferenceLeakageSimulator, "surface", 3, "gladiator+m",
        leakage_sampling=True, record_detectors=True,
    )
    optimized = _build(
        LeakageSimulator, "surface", 3, "gladiator+m",
        leakage_sampling=True, record_detectors=True,
    )
    assert_results_identical(
        reference.run(shots=40, rounds=5), optimized.run(shots=40, rounds=5)
    )


def test_constant_draw_advance_preserves_uint32_buffer(monkeypatch):
    """``advance`` resets PCG64's buffered half-word; the constant-draw fast
    path must keep it (restore it on the NumPy path, never touch it in C),
    or the next bounded ``integers`` call forks from the baseline stream
    (observed as a rare, stream-position-dependent divergence in long runs)."""
    from repro.sim.draws import DrawOp, DrawPlan, DrawSource

    seed = next(
        s for s in range(100)
        if (lambda r: (r.integers(0, 3, size=7), r.bit_generator.state["has_uint32"])[1])(
            np.random.default_rng(s)
        )
    )
    for ckernels in ("0", "1"):
        monkeypatch.setenv("REPRO_SIM_CKERNELS", ckernels)
        baseline = np.random.default_rng(seed)
        optimized = np.random.default_rng(seed)
        baseline.integers(0, 3, size=7)
        optimized.integers(0, 3, size=7)
        assert baseline.bit_generator.state["has_uint32"] == 1
        baseline.random((5, 4))  # consumes 20 doubles, half-word buffer intact
        plan = DrawPlan()
        shape_id = plan.shape_id((5, 4))
        plan.body = [DrawOp("bern", shape_id, threshold=1.5)]  # constant ones
        source = DrawSource(optimized, plan)
        source.start_round(False, False)
        assert source.next().all()
        source.close()
        assert baseline.bit_generator.state == optimized.bit_generator.state
        assert np.array_equal(
            baseline.integers(0, 3, size=9), optimized.integers(0, 3, size=9)
        )


def test_long_run_after_warmup_stays_identical():
    """Back-to-back runs shift the stream into positions where the buffered
    half-word is pending at a constant-draw advance — the exact scenario
    that forked the integer stream before the fix."""
    reference = _build(ReferenceLeakageSimulator, "surface", 5, "gladiator+m",
                       seed=202, leakage_sampling=True)
    optimized = _build(LeakageSimulator, "surface", 5, "gladiator+m",
                       seed=202, leakage_sampling=True)
    assert_results_identical(
        reference.run(shots=128, rounds=2), optimized.run(shots=128, rounds=2)
    )
    assert_results_identical(
        reference.run(shots=2000, rounds=12), optimized.run(shots=2000, rounds=12)
    )


def test_ckernels_skipped_when_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CKERNELS", "0")
    from repro.sim import _ckernels

    assert not _ckernels.available()
    sim = _build(LeakageSimulator, "surface", 3, "eraser")
    assert not sim._use_ckernels


def test_shared_constant_masks_match_numpy_path(monkeypatch):
    """With ``p_leak = 0`` both gate-leak draws of a layer are the *same*
    read-only constant buffer.  The layer kernel's pointers are
    ``restrict``-qualified, which allows read-only aliasing between masks;
    the compiled run must still equal the NumPy path bit for bit."""
    from repro.sim.draws import DrawSource

    def run(ckernels):
        monkeypatch.setenv("REPRO_SIM_CKERNELS", ckernels)
        sim = LeakageSimulator(
            code=make_code("surface", 3),
            noise=NoiseParams(p=4e-3, leakage_ratio=0.0, leakage_mobility=0.5),
            policy=make_policy("gladiator+m"),
            options=SimulatorOptions(leakage_sampling=True, record_detectors=True),
            seed=11,
        )
        return sim, sim.run(shots=64, rounds=8)

    sim, compiled = run("1")
    _, interpreted = run("0")
    assert_results_identical(interpreted, compiled)
    assert compiled.total_leakage_events > 0  # transport by sampled leaks

    plan = sim._build_draw_plan(4, 1)
    # A layer block is (transport, 4 x rand, gate hit, Pauli pair 1..15, 2 x
    # gate leak): locate the first one by its Pauli-pair draw.
    pauli_pair = next(
        i for i, op in enumerate(plan.body) if (op.kind, op.high) == ("randint", 16)
    )
    source = DrawSource(np.random.default_rng(0), plan)
    source.start_round(False, False)
    source.next_block(pauli_pair - 6)
    masks = source.next_block(9)
    assert masks[7] is masks[8] and not masks[7].flags.writeable
    source.close()


def test_layer_kernel_rejects_masks_aliasing_a_plane():
    from repro.sim import _ckernels

    if not _ckernels.available():
        pytest.skip("compiled kernels unavailable")
    data_pack = np.zeros((4, 5), dtype=np.uint8)
    anc_pack = np.zeros((4, 4), dtype=np.uint8)
    masks = [np.zeros((4, 2), dtype=np.uint8) for _ in range(9)]
    masks[3] = data_pack.reshape(-1)[:8].reshape(4, 2)  # contiguous alias
    with pytest.raises(AssertionError, match="aliases"):
        _ckernels.cnot_layer(
            data_pack, anc_pack, np.array([0, 1]), np.array([0, 1]),
            np.zeros((4, 2), dtype=np.uint8), masks, np.zeros(2, dtype=np.int64),
        )


def test_pattern_histograms_match_reference_loop():
    """The bincount accounting reproduces the per-value Python loop exactly,
    including explicit zero entries for unobserved patterns."""
    optimized = _build(
        LeakageSimulator, "color", 5, "gladiator+m", record_patterns=True,
        leakage_sampling=True,
    )
    result = optimized.run(shots=32, rounds=5)

    # Recompute the expectation with the frozen per-value loop on a rerun of
    # the reference simulator (identical stream -> identical patterns).
    reference = _build(
        ReferenceLeakageSimulator, "color", 5, "gladiator+m", record_patterns=True,
        leakage_sampling=True,
    )
    ref_result = reference.run(shots=32, rounds=5)
    assert result.pattern_histogram == ref_result.pattern_histogram
    # Structure: every width bucket enumerates all 2**width values.
    code = make_code("color", 5)
    for width in set(code.pattern_widths):
        bucket = result.pattern_histogram[width]
        assert set(bucket) == set(range(1 << width))
        assert all(
            leaked >= 0 and clean >= 0 for leaked, clean in bucket.values()
        )


def test_no_state_leak_across_run_incremental_calls():
    """A reused simulator's second run matches the reference's second run:
    nothing persists across ``run_incremental`` calls except the RNG."""
    reference = _build(ReferenceLeakageSimulator, "surface", 3, "gladiator+m",
                       leakage_sampling=True)
    optimized = _build(LeakageSimulator, "surface", 3, "gladiator+m",
                       leakage_sampling=True)
    assert_results_identical(
        reference.run(shots=30, rounds=4), optimized.run(shots=30, rounds=4)
    )
    # Second run continues the same RNG stream on both sides.
    assert_results_identical(
        reference.run(shots=30, rounds=4), optimized.run(shots=30, rounds=4)
    )
    # Differently-shaped follow-up run: fresh workspace, no stale buffers.
    assert_results_identical(
        reference.run(shots=17, rounds=3), optimized.run(shots=17, rounds=3)
    )


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
    """The buffered policy fast path fills exactly what decide() returns."""
    from repro.core.speculator import SpeculationInput

    code = make_code("surface", 3)
    noise = NoiseParams(p=2e-3, leakage_ratio=0.1)
    built = make_policy(policy)
    built.prepare(code, noise)
    rng = np.random.default_rng(3)
    shots = 12
    # Patterns must respect each qubit's width or the table lookup is invalid.
    limits = np.array([1 << w for w in code.pattern_widths], dtype=np.int64)
    ctx = SpeculationInput(
        round_index=1,
        pattern_ints=rng.integers(0, limits, (shots, code.num_data)).astype(np.int64),
        prev_pattern_ints=rng.integers(0, limits, (shots, code.num_data)).astype(np.int64),
        detectors=rng.random((shots, code.num_ancilla)) < 0.2,
        mlr_flags=rng.random((shots, code.num_ancilla)) < 0.1 if built.uses_mlr else None,
        mlr_neighbor=rng.random((shots, code.num_data)) < 0.1 if built.uses_mlr else None,
        data_leaked=rng.random((shots, code.num_data)) < 0.05,
    )
    decision = built.decide(ctx)
    data_out = np.ones((shots, code.num_data), dtype=bool)  # must be overwritten
    anc_out = (
        np.ones((shots, code.num_ancilla), dtype=bool)
        if built.emits_ancilla_lrc
        else None
    )
    built.decide_into(ctx, data_out, anc_out)
    assert np.array_equal(data_out, np.asarray(decision.data_lrc, dtype=bool))
    if anc_out is not None and decision.ancilla_lrc is not None:
        assert np.array_equal(anc_out, np.asarray(decision.ancilla_lrc, dtype=bool))


def test_run_exhaustion_guard():
    """run() raises cleanly if the generator somehow returns no result."""
    sim = _build(LeakageSimulator, "surface", 3, "no-lrc")
    result = sim.run(shots=5, rounds=2)
    assert result.shots == 5 and result.rounds == 2
    with pytest.raises(ValueError):
        sim.run(shots=0, rounds=2)
