"""The streaming plumbing behind the window session, and the decoder kernels.

Covers the bit-packed ring buffer (round trip, capacity bound, no aliasing
of the producer's array, packed-domain XOR), the simulator generator's
lifecycle (early close releases the workspace), windowed decoding against
the offline decode on quiet and artifact-heavy records, and the compiled
decoder kernels against their interpreted fallbacks.  Windowed results are
pinned against stored numbers by ``tests/test_golden_fixtures.py``.
"""

import numpy as np
import pytest

from repro.codes import color_code, surface_code, toric_code
from repro.core import make_policy
from repro.decoders import DetectorGraph, make_decoder
from repro.decoders import _ckernels as deckernels
from repro.experiments import MemoryExperiment
from repro.noise import paper_noise
from repro.pipeline import PackedRing, pack_chunk, unpack_chunk
from repro.realtime import ReplayStream, WindowedDecoder
from repro.sim import LeakageSimulator, SimulatorOptions

HEAVY = paper_noise(p=2e-3, leakage_ratio=1.0)

CODES = {
    "surface": lambda: surface_code(3),
    "color": lambda: color_code(3),
    "toric": lambda: toric_code(3),
}


def _windowed_experiment():
    return MemoryExperiment(
        code=surface_code(3),
        noise=HEAVY,
        policy=make_policy("eraser+m"),
        seed=13,
        window_rounds=3,
        commit_rounds=1,
        decode_batch_size=20,
    )


def _simulator(code, seed=7, **options):
    return LeakageSimulator(
        code=code,
        noise=HEAVY,
        policy=make_policy("eraser+m"),
        options=SimulatorOptions(**options),
        seed=seed,
    )


# --------------------------------------------------------------------- #
# The window session: one class, compiled kernels never change results
# --------------------------------------------------------------------- #
def test_decoder_kernels_on_off_agree(monkeypatch):
    """The compiled decoder kernels never change a single prediction."""
    monkeypatch.setenv("REPRO_DECODER_CKERNELS", "0")
    plain = _windowed_experiment().run(shots=60, rounds=6)
    monkeypatch.setenv("REPRO_DECODER_CKERNELS", "1")
    if not deckernels.available():
        pytest.skip("no C toolchain available")
    compiled = _windowed_experiment().run(shots=60, rounds=6)
    assert compiled.summary() == plain.summary()


def test_windowed_decoder_fused_session_type():
    """One session class, reachable under both import paths."""
    from repro.pipeline.fused import FusedWindowSession
    from repro.realtime.window import WindowSession

    assert FusedWindowSession is WindowSession
    windowed = WindowedDecoder(code=surface_code(3), noise=HEAVY, rounds=6, window_rounds=3)
    assert type(windowed.session(5)) is WindowSession


# --------------------------------------------------------------------- #
# Ring-buffer ownership: no aliasing, bounded capacity
# --------------------------------------------------------------------- #
def test_packed_ring_round_trip_and_bounds():
    rng = np.random.default_rng(3)
    ring = PackedRing(capacity=3, shots=5, num_detectors=11)
    rounds = [rng.random((5, 11)) < 0.3 for _ in range(3)]
    for index, chunk in enumerate(rounds):
        ring.push(index, chunk)
    for index, chunk in enumerate(rounds):
        assert np.array_equal(ring.read_round(index), chunk)
    window = ring.window(0, 3)
    assert np.array_equal(window, np.stack(rounds, axis=1))
    with pytest.raises(ValueError):
        ring.push(4, rounds[0])  # out of order
    with pytest.raises(ValueError):
        ring.push(3, rounds[0])  # full: round 0 not released
    ring.release_until(1)
    ring.push(3, rounds[0])
    with pytest.raises(ValueError):
        ring.read_round(0)  # released
    with pytest.raises(ValueError):
        ring.read_round(4)  # not buffered yet


def test_packed_ring_does_not_alias_producer_buffer():
    """``push`` packs the bits out immediately: mutating (or reusing) the
    producer's staging buffer afterwards must not disturb buffered rounds."""
    staging = np.zeros((4, 9), dtype=bool)
    ring = PackedRing(capacity=4, shots=4, num_detectors=9)
    expected = []
    rng = np.random.default_rng(11)
    for round_index in range(4):
        staging[...] = rng.random((4, 9)) < 0.5  # the producer reuses its array
        expected.append(staging.copy())
        ring.push(round_index, staging)
    for round_index in range(4):
        assert np.array_equal(ring.read_round(round_index), expected[round_index])


def test_packed_ring_xor_round_matches_boolean_xor():
    rng = np.random.default_rng(5)
    chunk = rng.random((6, 13)) < 0.4
    mask = rng.random((6, 13)) < 0.2
    ring = PackedRing(capacity=1, shots=6, num_detectors=13)
    ring.push(0, chunk)
    ring.xor_round(0, mask)
    assert np.array_equal(ring.read_round(0), chunk ^ mask)


def test_pack_unpack_validate_out_buffers():
    chunk = np.zeros((3, 10), dtype=bool)
    packed = pack_chunk(chunk)
    assert packed.shape == (3, 2)
    with pytest.raises(ValueError):
        pack_chunk(chunk, out=np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        unpack_chunk(packed, 10, out=np.zeros((3, 9), dtype=bool))
    out = np.empty((3, 10), dtype=bool)
    assert unpack_chunk(packed, 10, out=out) is out


# --------------------------------------------------------------------- #
# Generator lifecycle: early close releases the workspace
# --------------------------------------------------------------------- #
def _capture_workspace(monkeypatch, captured):
    original = LeakageSimulator._make_workspace

    def spy(self, shots):
        workspace = original(self, shots)
        captured.append(workspace)
        return workspace

    monkeypatch.setattr(LeakageSimulator, "_make_workspace", spy)


def test_early_close_releases_pinned_workspace(monkeypatch):
    """Closing a half-consumed ``run_incremental`` generator must free the
    pinned per-round buffers (the mid-stream ``close()`` leak regression)."""
    captured = []
    _capture_workspace(monkeypatch, captured)
    sim = _simulator(surface_code(3))
    generator = sim.run_incremental(6, 5)
    next(generator)
    assert captured and not captured[0].released
    generator.close()
    assert captured[0].released


def test_completed_run_releases_workspace(monkeypatch):
    captured = []
    _capture_workspace(monkeypatch, captured)
    sim = _simulator(surface_code(3))
    result = sim.run(shots=4, rounds=3)
    assert result.shots == 4
    assert captured and all(ws.released for ws in captured)


# --------------------------------------------------------------------- #
# Windowed regressions: empty commit regions, artifact XOR
# --------------------------------------------------------------------- #
def _quiet_record_with_late_defects(code, rounds=6):
    """An all-zero detector record except one stabilizer flagged in the last
    two rounds: early windows see nothing (or only deferred corrections), so
    their commit regions are empty — the artifact-XOR edge case."""
    graph = DetectorGraph(code=code, rounds=rounds, noise=HEAVY, hyperedges="decompose")
    num_z = graph.num_z_stabs
    history = np.zeros((3, rounds, num_z), dtype=bool)
    history[0, rounds - 2, 0] = True
    history[0, rounds - 1, 0] = True
    history[1, rounds - 1, 1] = True  # terminates against the final readout
    final = np.zeros((3, num_z), dtype=bool)
    return history, final, graph


def test_windowed_empty_commit_regions_match_offline():
    """Windows that commit zero corrections (and deposit zero artifacts)
    leave the boundary round untouched; windowed == offline regardless."""
    code = surface_code(3)
    history, final, graph = _quiet_record_with_late_defects(code)
    offline = make_decoder(graph, "matching").decode_batch(history, final)
    windowed = WindowedDecoder(
        code=code,
        noise=HEAVY,
        rounds=history.shape[1],
        window_rounds=3,
        commit_rounds=1,
    )
    assert np.array_equal(windowed.decode_batch(history, final), offline)


@pytest.mark.parametrize("commit", [1, 2])
def test_windowed_artifact_scenarios_match_offline_experiment(commit):
    """A heavy-noise windowed decode (artifacts in most windows) stays equal
    to the offline decode of the same record across commit granularities."""
    code = surface_code(3)
    result = _simulator(code, seed=31, record_detectors=True).run(shots=30, rounds=7)
    graph = DetectorGraph(code=code, rounds=7, noise=HEAVY, hyperedges="decompose")
    offline = make_decoder(graph, "matching").decode_batch(
        result.detector_history, result.final_detectors
    )
    windowed = WindowedDecoder(
        code=code,
        noise=HEAVY,
        rounds=7,
        window_rounds=3,
        commit_rounds=commit,
    )
    stream = ReplayStream.from_run_result(result)
    assert np.array_equal(windowed.decode_stream(stream), offline)


# --------------------------------------------------------------------- #
# Compiled decoder kernels: direct checks of both fast paths
# --------------------------------------------------------------------- #
def test_hash_rows_c_matches_numpy_fallback(monkeypatch):
    packed = np.random.default_rng(9).integers(0, 256, size=(64, 7), dtype=np.uint8)
    monkeypatch.setenv("REPRO_DECODER_CKERNELS", "0")
    fallback = deckernels.hash_rows(packed)
    monkeypatch.setenv("REPRO_DECODER_CKERNELS", "1")
    if not deckernels.available():
        pytest.skip("no C toolchain available")
    compiled = deckernels.hash_rows(packed)
    assert np.array_equal(fallback, compiled)
    # Distinct rows hash apart on real data (FNV-1a, 64-bit).
    assert len(np.unique(fallback)) == len(np.unique(packed, axis=0))


def test_hash_collision_demotes_to_exact_dedup(monkeypatch):
    """If every row hashes identically the dedup must detect the collision
    and fall back to exact row comparison — predictions unchanged."""
    code = surface_code(3)
    result = _simulator(code, seed=17, record_detectors=True).run(shots=20, rounds=5)
    graph = DetectorGraph(code=code, rounds=5, noise=HEAVY, hyperedges="decompose")
    expected = make_decoder(graph, "matching").decode_batch(
        result.detector_history, result.final_detectors
    )
    monkeypatch.setattr(
        deckernels,
        "hash_rows",
        lambda packed: np.zeros(packed.shape[0], dtype=np.uint64),
    )
    collided = make_decoder(graph, "matching").decode_batch(
        result.detector_history, result.final_detectors
    )
    assert np.array_equal(collided, expected)


@pytest.mark.parametrize("family", sorted(CODES))
def test_dp_decode_entry_matches_interpreted_path(monkeypatch, family):
    """The compiled matching behind ``decode_rows`` reproduces the interpreted entry
    construction bit for bit — identical edge sequences (same retrace
    order), identical logical parity — across random syndromes on all
    three code families, including the analytic 1/2-detector rules and
    the toric case where the boundary is unreachable."""
    monkeypatch.setenv("REPRO_DECODER_CKERNELS", "1")
    if not deckernels.available():
        pytest.skip("no C toolchain available")
    code = CODES[family]()
    graph = DetectorGraph(code=code, rounds=4, noise=HEAVY, hyperedges="decompose")
    num_z = graph.num_z_stabs
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(150):
        history = rng.random((4, num_z)) < rng.uniform(0.02, 0.2)
        final = rng.random(num_z) < 0.1
        kernel = make_decoder(graph, "matching")
        kernel_edges = kernel.decode_shot_edges(history, final)
        kernel_flip = kernel.decode_shot(history, final)
        monkeypatch.setenv("REPRO_DECODER_CKERNELS", "0")
        interpreted = make_decoder(graph, "matching")
        assert kernel_edges == interpreted.decode_shot_edges(history, final)
        assert kernel_flip == interpreted.decode_shot(history, final)
        monkeypatch.setenv("REPRO_DECODER_CKERNELS", "1")
        checked += 1
    assert checked == 150
