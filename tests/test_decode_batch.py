"""Tests of the batched decoding engine: dedup, syndrome cache, equivalence.

The batched path (``decode_batch`` / ``decode_edges_unique``) must be
bit-identical to looping the per-shot ``decode_shot`` — over random
syndromes, all-zero batches and duplicate-heavy batches, for both decoders,
on both a matching-native code (surface) and a hyperedge-decomposed one
(colour).  The syndrome cache must deduplicate without ever aliasing
decoders with different graphs or tuning.
"""

import numpy as np
import pytest

from repro.codes import color_code, surface_code
from repro.core import make_policy
from repro.decoders import (
    DetectorGraph,
    MatchingDecoder,
    SyndromeCache,
    UnionFindDecoder,
    make_decoder,
)
from repro.decoders import _ckernels
from repro.api.registry import CODES
from repro.experiments import make_code
from repro.noise import paper_noise
from repro.sim import LeakageSimulator, SimulatorOptions

ROUNDS = 4
CODE_MAKERS = {"surface": lambda: surface_code(3), "color": lambda: color_code(3)}


@pytest.fixture(scope="module")
def graphs():
    noise = paper_noise()
    return {
        name: DetectorGraph(
            code=maker(), rounds=ROUNDS, noise=noise, hyperedges="decompose"
        )
        for name, maker in CODE_MAKERS.items()
    }


def _random_batch(graph, shots, density, seed):
    rng = np.random.default_rng(seed)
    history = rng.random((shots, ROUNDS, graph.num_z_stabs)) < density
    final = rng.random((shots, graph.num_z_stabs)) < density
    return history, final


def _per_shot_reference(graph, method, history, final):
    """Ground truth: an uncached decoder looped shot by shot."""
    decoder = make_decoder(graph, method, cache=SyndromeCache(0))
    return np.array(
        [
            bool(decoder.decode_shot(history[shot], final[shot]))
            for shot in range(history.shape[0])
        ]
    )


def _edges_per_shot(decoder, history, final):
    """Per-shot correction edges: ``decode_edges_unique``'s entries scattered
    through ``inverse``, as windowed decoding consumes them."""
    entries, inverse = decoder.decode_edges_unique(history, final)
    return [entries[j] for j in inverse]


# --------------------------------------------------------------------- #
# Randomized equivalence: batch == per-shot, bit for bit
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("family", ["surface", "color"])
@pytest.mark.parametrize("method", ["matching", "union_find"])
@pytest.mark.parametrize("density", [0.02, 0.08])
def test_batch_matches_per_shot_on_random_syndromes(graphs, family, method, density):
    graph = graphs[family]
    seed = 100 * len(family) + len(method) + int(1000 * density)
    history, final = _random_batch(graph, shots=40, density=density, seed=seed)
    reference = _per_shot_reference(graph, method, history, final)
    batched = make_decoder(graph, method).decode_batch(history, final)
    assert batched.dtype == bool
    assert np.array_equal(batched, reference)


@pytest.mark.parametrize("family", ["surface", "color"])
@pytest.mark.parametrize("method", ["matching", "union_find"])
def test_batch_all_zero_syndromes(graphs, family, method):
    graph = graphs[family]
    history = np.zeros((25, ROUNDS, graph.num_z_stabs), dtype=bool)
    final = np.zeros((25, graph.num_z_stabs), dtype=bool)
    decoder = make_decoder(graph, method)
    assert not decoder.decode_batch(history, final).any()
    # All-zero shots never touch the cache: there is nothing to decode.
    assert decoder.cache.stats()["misses"] == 0


@pytest.mark.parametrize("method", ["matching", "union_find"])
def test_batch_duplicate_heavy_decodes_each_syndrome_once(graphs, method):
    graph = graphs["surface"]
    base_history, base_final = _random_batch(graph, shots=3, density=0.05, seed=17)
    # 3 unique non-trivial syndromes, each repeated 10x, shuffled.
    history = np.tile(base_history, (10, 1, 1))
    final = np.tile(base_final, (10, 1))
    order = np.random.default_rng(5).permutation(30)
    history, final = history[order], final[order]
    reference = _per_shot_reference(graph, method, history, final)
    decoder = make_decoder(graph, method)
    assert np.array_equal(decoder.decode_batch(history, final), reference)
    stats = decoder.cache.stats()
    unique_nontrivial = len(
        {h.tobytes() for h in np.concatenate([base_history.reshape(3, -1), base_final], axis=1)}
    )
    assert stats["misses"] == unique_nontrivial
    assert stats["hits"] == 0  # dedup happens before the cache within a batch


@pytest.mark.parametrize("method", ["matching", "union_find"])
def test_edges_batch_matches_per_shot_edges(graphs, method):
    graph = graphs["surface"]
    history, final = _random_batch(graph, shots=20, density=0.05, seed=23)
    reference = make_decoder(graph, method, cache=SyndromeCache(0))
    batched = make_decoder(graph, method)
    edge_lists = _edges_per_shot(batched, history, final)
    assert len(edge_lists) == 20
    for shot, edges in enumerate(edge_lists):
        expected = reference.decode_shot_edges(history[shot], final[shot])
        assert list(edges) == [(int(a), int(b)) for a, b in expected]


def test_batch_handles_empty_batch(graphs):
    graph = graphs["surface"]
    history = np.zeros((0, ROUNDS, graph.num_z_stabs), dtype=bool)
    final = np.zeros((0, graph.num_z_stabs), dtype=bool)
    decoder = MatchingDecoder(graph)
    assert decoder.decode_batch(history, final).shape == (0,)
    assert _edges_per_shot(decoder, history, final) == []


# --------------------------------------------------------------------- #
# The syndrome cache: reuse, eviction, isolation
# --------------------------------------------------------------------- #
def test_cache_persists_across_calls_and_decoders(graphs):
    graph = graphs["surface"]
    history, final = _random_batch(graph, shots=15, density=0.05, seed=31)
    shared = SyndromeCache()
    first = make_decoder(graph, "matching", cache=shared)
    expected = first.decode_batch(history, final)
    misses_after_first = shared.stats()["misses"]
    assert misses_after_first > 0
    # A different decoder instance over an equal graph reuses every entry.
    twin_graph = DetectorGraph(
        code=surface_code(3), rounds=ROUNDS, noise=paper_noise(), hyperedges="decompose"
    )
    assert twin_graph.fingerprint == graph.fingerprint
    second = make_decoder(twin_graph, "matching", cache=shared)
    assert np.array_equal(second.decode_batch(history, final), expected)
    stats = shared.stats()
    assert stats["misses"] == misses_after_first
    assert stats["hits"] == misses_after_first


def test_cache_never_aliases_different_graphs_or_tuning(graphs):
    graph = graphs["surface"]
    other_rounds = DetectorGraph(code=surface_code(3), rounds=ROUNDS + 1, noise=paper_noise())
    other_noise = DetectorGraph(
        code=surface_code(3), rounds=ROUNDS, noise=paper_noise(p=5e-3)
    )
    assert graph.fingerprint != other_rounds.fingerprint
    assert graph.fingerprint != other_noise.fingerprint

    # Same graph, different decoders: separate cache entries.
    history, final = _random_batch(graph, shots=1, density=0.08, seed=41)
    shared = SyndromeCache()
    make_decoder(graph, "matching", cache=shared).decode_batch(history, final)
    make_decoder(graph, "union_find", cache=shared).decode_batch(history, final)
    stats = shared.stats()
    assert stats["misses"] == 2 and stats["hits"] == 0
    # ...and union-find decoders with different growth caps as well.
    UnionFindDecoder(graph, max_growth_steps=50, cache=shared).decode_batch(
        history, final
    )
    assert shared.stats()["misses"] == 3


def test_cache_lru_eviction_and_disabled_mode(graphs):
    graph = graphs["surface"]
    history, final = _random_batch(graph, shots=30, density=0.06, seed=47)
    reference = _per_shot_reference(graph, "union_find", history, final)

    tiny = SyndromeCache(maxsize=2)
    decoder = make_decoder(graph, "union_find", cache=tiny)
    assert np.array_equal(decoder.decode_batch(history, final), reference)
    assert len(tiny) <= 2
    assert tiny.stats()["evictions"] > 0

    disabled = SyndromeCache(maxsize=0)
    assert not disabled.enabled
    decoder = make_decoder(graph, "union_find", cache=disabled)
    assert np.array_equal(decoder.decode_batch(history, final), reference)
    assert len(disabled) == 0

    with pytest.raises(ValueError):
        SyndromeCache(maxsize=-1)


def test_oversized_syndromes_bypass_the_cache():
    """Leakage-flood syndromes are never shared, so they must not bloat the
    cache — decoding stays correct, the cache stays empty."""
    from repro.decoders.base import _CACHE_MAX_FIRED

    rounds = 12  # enough detector positions to exceed the fired-node bound
    graph = DetectorGraph(code=surface_code(3), rounds=rounds, noise=paper_noise())
    assert graph.num_layers * graph.num_z_stabs > _CACHE_MAX_FIRED + 4
    history = np.zeros((2, rounds, graph.num_z_stabs), dtype=bool)
    final = np.zeros((2, graph.num_z_stabs), dtype=bool)
    history.reshape(2, -1)[:, : _CACHE_MAX_FIRED + 4] = True  # identical heavy shots
    decoder = make_decoder(graph, "union_find")
    reference = make_decoder(graph, "union_find", cache=SyndromeCache(0))
    expected = np.array(
        [bool(reference.decode_shot(history[s], final[s])) for s in range(2)]
    )
    assert np.array_equal(decoder.decode_batch(history, final), expected)
    stats = decoder.cache.stats()
    assert stats["entries"] == 0 and stats["misses"] == 0


def test_shortest_paths_fallback_matches_all_pairs_tables(monkeypatch):
    """Graphs past the all-pairs size gate fall back to per-syndrome
    dijkstra; both code paths must return identical distances/paths."""
    from repro.decoders import detector_graph as dg

    noise = paper_noise()
    tabled = DetectorGraph(code=surface_code(3), rounds=ROUNDS, noise=noise)
    assert tabled._all_pairs is not None
    monkeypatch.setattr(dg, "_ALL_PAIRS_MAX_NODES", 1)
    gated = DetectorGraph(code=surface_code(3), rounds=ROUNDS, noise=noise)
    assert gated._all_pairs is None
    sources = np.array([0, 3, gated.boundary_node - 1])
    table_dist, table_pred = tabled.shortest_paths_from(sources)
    fall_dist, fall_pred = gated.shortest_paths_from(sources)
    assert np.allclose(table_dist, fall_dist)
    assert np.array_equal(table_pred, fall_pred)


@pytest.mark.parametrize("family", sorted(CODES.names()))
def test_past_gate_matching_equals_all_pairs_and_interpreted(monkeypatch, family):
    """Past the all-pairs size gate the compiled entry reads each syndrome's
    own dijkstra rows: every matching entry (edges, their order, parity)
    equals the all-pairs decode and the kernels-off decode, on every
    registered code, including toric syndromes whose unreachable boundary
    ends the DP in its infinite dead end."""
    from repro.decoders import detector_graph as dg

    code = make_code(family, 3)
    noise = paper_noise(p=2e-3, leakage_ratio=1.0)
    tabled = DetectorGraph(code=code, rounds=ROUNDS, noise=noise, hyperedges="decompose")
    assert tabled._all_pairs is not None
    monkeypatch.setattr(dg, "_ALL_PAIRS_MAX_NODES", 1)
    gated = DetectorGraph(code=code, rounds=ROUNDS, noise=noise, hyperedges="decompose")
    assert gated._all_pairs is None
    rng = np.random.default_rng(57)
    shots, detectors = 40, gated.boundary_node
    flat = np.zeros((shots, detectors), dtype=bool)
    for shot in range(shots):  # 1..16 fired: analytic, DP and blossom sizes
        count = int(rng.integers(1, min(16, detectors) + 1))
        flat[shot, rng.choice(detectors, size=count, replace=False)] = True
    history = flat[:, : ROUNDS * gated.num_z_stabs].reshape(shots, ROUNDS, -1)
    final = flat[:, ROUNDS * gated.num_z_stabs :]
    fired = [gated.flagged_nodes(history[s], final[s]) for s in range(shots)]
    assert any(f.size > 8 for f in fired), "no syndrome reaches blossom"

    entries = {}
    for flag in ("1", "0"):
        monkeypatch.setenv("REPRO_DECODER_CKERNELS", flag)
        for name, graph in (("all-pairs", tabled), ("past-gate", gated)):
            decoder = make_decoder(graph, "matching", cache=SyndromeCache(0))
            entries[flag, name] = [
                (decoder.decode_shot_edges(history[s], final[s]),
                 decoder.decode_shot(history[s], final[s]))
                for s in range(shots)
            ]
    for key, value in entries.items():
        assert value == entries["0", "all-pairs"], key

    monkeypatch.setenv("REPRO_DECODER_CKERNELS", "1")
    if family == "toric" and _ckernels.available():
        ctx = gated.context
        dead_ends = [
            f for f in fired
            if 2 < f.size <= 8
            and _ckernels.decode_syndrome(ctx, f, gated.shortest_paths_from(f)) is None
        ]
        assert dead_ends, "no toric syndrome reaches the DP dead end"


def test_cache_clear_resets_counters():
    cache = SyndromeCache(maxsize=4)
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert cache.get("b") is None
    cache.clear()
    stats = cache.stats()
    assert len(cache) == 0
    assert stats["hits"] == stats["misses"] == stats["evictions"] == 0
    assert stats["hit_rate"] == 0.0


# --------------------------------------------------------------------- #
# Compiled kernels on == off over leakage records with heavy syndromes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("family", ["surface", "color"])
@pytest.mark.parametrize("policy", ["gladiator+m", "eraser+m"])
def test_kernels_on_and_off_agree_on_leakage_records(monkeypatch, family, policy):
    """The compiled decode (DP and blossom port) reproduces the
    interpreted/networkx path exactly: same flips, same per-shot edge
    sequences, on d=5 leakage records whose syndromes reach the blossom
    backend (9+ fired detectors)."""
    monkeypatch.setenv("REPRO_DECODER_CKERNELS", "1")
    if not _ckernels.available():
        pytest.skip("no C toolchain available")
    code = {"surface": surface_code, "color": color_code}[family](5)
    noise = paper_noise(p=2e-3, leakage_ratio=1.0)
    rounds = 10
    run = LeakageSimulator(
        code=code,
        noise=noise,
        policy=make_policy(policy),
        options=SimulatorOptions(record_detectors=True),
        seed=41,
    ).run(shots=60, rounds=rounds)
    history, final = run.detector_history, run.final_detectors
    graph = DetectorGraph(code=code, rounds=rounds, noise=noise, hyperedges="decompose")
    fired = [graph.flagged_nodes(history[shot], final[shot]).size for shot in range(60)]
    assert sum(count > 8 for count in fired) >= 10, "records never reach blossom"

    decoded = {}
    for flag in ("1", "0"):
        monkeypatch.setenv("REPRO_DECODER_CKERNELS", flag)
        decoder = make_decoder(graph, "matching", cache=SyndromeCache(0))
        decoded[flag] = (
            decoder.decode_batch(history, final),
            _edges_per_shot(decoder, history, final),
        )
    (flips_on, edges_on), (flips_off, edges_off) = decoded["1"], decoded["0"]
    assert np.array_equal(flips_on, flips_off)
    assert edges_on == edges_off


# --------------------------------------------------------------------- #
# The batch entry against the per-unique _decode_entry oracle
# --------------------------------------------------------------------- #
#: Fired-detector counts of the oracle batches: empty, the analytic one and
#: two, the DP's 3..8, blossom's 9..60 and the greedy pairing past 60
#: (clipped to the graph's detector count; every d=5 graph of
#: ``ORACLE_ROUNDS`` rounds has more than 70 detectors).
ORACLE_SIZES = (0, 1, 1, 2, 2, 3, 4, 6, 8, 9, 13, 24, 60, 61, 70)
ORACLE_ROUNDS = 8

#: Counters the batch must move exactly as the per-unique loop does.
ORACLE_COUNTERS = (
    "decode.batch.shots",
    "decode.batch.unique",
    "decode.cache.hits",
    "decode.cache.misses",
    "decode.cache.evictions",
    "decode.matching.exact",
    "decode.matching.greedy",
    "decode.matching.dp_kernel",
    "decode.matching.blossom_kernel",
)


def _sized_batch(graph, sizes, seed):
    """One shot per entry of ``sizes`` firing that many random detectors,
    every non-empty shot twice, shuffled."""
    rng = np.random.default_rng(seed)
    detectors = graph.boundary_node
    flat = np.zeros((len(sizes), detectors), dtype=bool)
    for shot, size in enumerate(sizes):
        flat[shot, rng.choice(detectors, size=min(size, detectors), replace=False)] = True
    flat = np.concatenate([flat, flat[1:]])[rng.permutation(2 * len(sizes) - 1)]
    layer = graph.num_z_stabs
    history = flat[:, : graph.rounds * layer].reshape(len(flat), graph.rounds, layer)
    return history, flat[:, graph.rounds * layer :]


def _oracle_entries(decoder, history, final):
    """The batched path as the per-unique loop it replaces: dedup, then
    ``_decode_entry`` on every unique syndrome in turn."""
    _, first, inverse = decoder._deduplicate(history, final)
    return [decoder._decode_entry(history[i], final[i]) for i in first], inverse


def _counted(call):
    """``call()`` under a metrics scope, plus the oracle counters it moved."""
    from repro.obs import telemetry_scope
    from repro.obs.metrics import METRICS

    with telemetry_scope("on"):
        result = call()
        snapshot = METRICS.snapshot()
    return result, {name: snapshot[name] for name in ORACLE_COUNTERS}


def _assert_batch_equals_oracle(graph, method, history, final, cache_size):
    batch = make_decoder(graph, method, cache=SyndromeCache(cache_size))
    oracle = make_decoder(graph, method, cache=SyndromeCache(cache_size))
    for _ in range(2):  # the second call finds the first one's entries cached
        got, got_counts = _counted(lambda: batch._unique_entries(history, final))
        want, want_counts = _counted(lambda: _oracle_entries(oracle, history, final))
        (entries, inverse), (expected, expected_inverse) = got, want
        assert entries == expected  # edges, their order and the parity
        assert np.array_equal(inverse, expected_inverse)
        assert got_counts == want_counts
        assert batch.cache.stats() == oracle.cache.stats()
        assert list(batch.cache._entries) == list(oracle.cache._entries)  # LRU order
        assert (batch.batch_shots, batch.batch_unique) == (
            oracle.batch_shots, oracle.batch_unique
        )
    # The public entry points scatter the same entries over every shot.
    per_shot = [expected[j] for j in expected_inverse]
    edges, scatter = batch.decode_edges_unique(history, final)
    assert [edges[j] for j in scatter] == [entry[0] for entry in per_shot]
    assert batch.decode_batch(history, final).tolist() == [
        bool(entry[1]) for entry in per_shot
    ]


@pytest.mark.parametrize("family", ["surface", "color", "toric"])
@pytest.mark.parametrize("distance", [3, 5])
@pytest.mark.parametrize("method", ["matching", "union_find"])
@pytest.mark.parametrize("cache_size", [None, 0, 3])
def test_batch_entry_equals_per_unique_oracle(family, distance, method, cache_size):
    """Every batch entry, counter and cache statistic equals the per-unique
    ``_decode_entry`` loop's: with a cache, without one, under eviction
    pressure (three entries), and on a second call that hits."""
    graph = DetectorGraph(
        code=make_code(family, distance), rounds=ORACLE_ROUNDS, noise=paper_noise(),
        hyperedges="decompose",
    )
    if distance == 5:
        assert graph.boundary_node > max(ORACLE_SIZES)
    history, final = _sized_batch(graph, ORACLE_SIZES, seed=7 * distance + len(family))
    _assert_batch_equals_oracle(graph, method, history, final, cache_size)


@pytest.mark.parametrize("method", ["matching", "union_find"])
def test_batch_entry_equals_oracle_past_the_all_pairs_gate(monkeypatch, method):
    """Past the all-pairs size gate every row takes the per-syndrome path."""
    from repro.decoders import detector_graph as dg

    monkeypatch.setattr(dg, "_ALL_PAIRS_MAX_NODES", 1)
    graph = DetectorGraph(
        code=color_code(5), rounds=ROUNDS, noise=paper_noise(), hyperedges="decompose"
    )
    assert graph.context.all_pairs is None
    history, final = _sized_batch(graph, ORACLE_SIZES, seed=3)
    _assert_batch_equals_oracle(graph, method, history, final, None)


def test_batch_kernel_defers_the_toric_dp_dead_end():
    """An odd syndrome on the boundaryless toric graph has no finite
    matching: the batch kernel defers it, and the batch entry still equals
    the oracle (which demotes it to the greedy pairing)."""
    if not _ckernels.available():
        pytest.skip("no C toolchain available")
    graph = DetectorGraph(code=make_code("toric", 3), rounds=ROUNDS, noise=paper_noise())
    history, final = _sized_batch(graph, (3, 5, 7, 4, 1), seed=11)
    events = np.concatenate([history.reshape(len(history), -1), final], axis=1)
    row_of, nodes = np.nonzero(events)
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(row_of, minlength=len(events)))])
    rows = np.arange(len(events))
    entries, served = _ckernels.decode_rows(graph.context, nodes, row_ptr, rows, max_fired=60)
    sizes = np.diff(row_ptr)
    dead_ends = (sizes > 2) & (sizes % 2 == 1)
    assert dead_ends.any() and not served[dead_ends].any()
    assert all((entry is None) == (not ok) for entry, ok in zip(entries, served))
    _assert_batch_equals_oracle(graph, "matching", history, final, None)


def test_batch_kernel_grows_its_edge_buffer(monkeypatch):
    """Rows whose edges outgrow the first output buffer resume in a larger
    one: the entries equal the per-syndrome kernel's."""
    if not _ckernels.available():
        pytest.skip("no C toolchain available")
    # Room for one worst-case row only: every later row forces a regrowth.
    monkeypatch.setattr(_ckernels, "_EDGES_PER_FIRED", 0)
    graph = DetectorGraph(code=surface_code(5), rounds=ROUNDS, noise=paper_noise())
    history, final = _sized_batch(graph, (60,) * 12 + (1, 2), seed=13)
    events = np.concatenate([history.reshape(len(history), -1), final], axis=1)
    row_of, nodes = np.nonzero(events)
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(row_of, minlength=len(events)))])
    rows = np.arange(len(events))
    for method in ("matching", "union_find"):
        kwargs = {"max_fired": 60} if method == "matching" else {"max_steps": 10_000}
        entries, served = _ckernels.decode_rows(graph.context, nodes, row_ptr, rows, **kwargs)
        assert served.all()
        for row, entry in zip(rows, entries):
            flagged = nodes[row_ptr[row] : row_ptr[row + 1]]
            if method == "matching":
                expected = _ckernels.decode_syndrome(graph.context, flagged)
            else:
                expected = _ckernels.uf_decode(graph.context, flagged, 10_000)
            assert entry == expected


def test_batch_failure_leaves_no_pending_cache_slot(graphs, monkeypatch):
    """A batch whose decode raises releases the cache slots it held."""
    graph = graphs["surface"]
    history, final = _random_batch(graph, shots=10, density=0.05, seed=19)
    decoder = make_decoder(graph, "union_find")

    def explode(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(UnionFindDecoder, "_decode_rows", explode)
    with pytest.raises(RuntimeError, match="boom"):
        decoder.decode_batch(history, final)
    assert len(decoder.cache) == 0
    monkeypatch.undo()
    reference = _per_shot_reference(graph, "union_find", history, final)
    assert np.array_equal(decoder.decode_batch(history, final), reference)


# --------------------------------------------------------------------- #
# One detector graph per process
# --------------------------------------------------------------------- #
def test_shared_graph_is_one_object_per_input():
    """Equal inputs give the same graph object across separately built codes
    and across the offline and windowed decoders."""
    from repro.decoders import shared_graph
    from repro.experiments.memory import MemoryExperiment
    from repro.realtime import WindowedDecoder

    noise = paper_noise()
    graph = shared_graph(make_code("surface", 3), ROUNDS, noise, "decompose")
    assert shared_graph(make_code("surface", 3), ROUNDS, paper_noise(), "decompose") is graph
    experiment = MemoryExperiment(
        code=make_code("surface", 3), noise=noise, policy=make_policy("eraser+m")
    )
    assert experiment._make_decoder(ROUNDS).graph is graph
    windowed = WindowedDecoder(
        code=make_code("surface", 3), noise=noise, rounds=2 * ROUNDS, window_rounds=ROUNDS
    )
    window_graph, decoder = windowed.decoder_for(ROUNDS)
    assert window_graph is graph and decoder.graph is graph
    # Decoders share the graph's pinned context, never their caches.
    assert decoder.cache is not experiment._make_decoder(ROUNDS).cache


def test_shared_graph_tells_inputs_apart_and_stays_bounded():
    from repro.decoders import detector_graph as dg
    from repro.decoders import shared_graph

    noise = paper_noise()
    base = shared_graph(surface_code(3), ROUNDS, noise, "decompose")
    variants = [
        shared_graph(surface_code(3), ROUNDS, paper_noise(p=5e-3), "decompose"),
        shared_graph(surface_code(3), ROUNDS + 1, noise, "decompose"),
        shared_graph(surface_code(5), ROUNDS, noise, "decompose"),
        shared_graph(make_code("toric", 3), ROUNDS, noise, "decompose"),
    ]
    for graph in variants:
        assert graph is not base
        assert graph.fingerprint != base.fingerprint
    # Surface edges never need decomposing, so both settings build the same
    # edges (one fingerprint), but they stay separate graphs.
    rejecting = shared_graph(surface_code(3), ROUNDS, noise, "reject")
    assert rejecting is not base and rejecting.fingerprint == base.fingerprint
    for rounds in range(1, 3 * dg._GRAPH_MEMO_MAX):
        shared_graph(surface_code(3), rounds, noise, "decompose")
        assert len(dg._graph_memo) <= dg._GRAPH_MEMO_MAX


def test_durable_pool_rows_equal_inline_rows(tmp_path):
    """Pool workers forked with a warm graph memo return the inline rows."""
    from repro.api import ExperimentConfig, Session
    from repro.sweeps import SweepExecutor

    config = ExperimentConfig.from_dict(
        {"code": {"name": "surface", "distance": 3},
         "execution": {"shots": 30, "rounds": ROUNDS, "seed": 5}}
    )
    units = Session(config).work_units({"decoder.name": ["matching", "union_find"]})
    inline = SweepExecutor(workers=1, cache=None, shard_shots=15).run_units(units)
    durable = SweepExecutor(
        workers=1, cache=None, shard_shots=15, durable=True, root=tmp_path
    ).run_units(units)
    assert len(inline) == len(durable) == 2
    for inline_row, durable_row in zip(inline, durable):
        assert inline_row.keys() == durable_row.keys()
        for key, value in inline_row.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(durable_row[key], value), key
            else:
                assert durable_row[key] == value, key


def test_batch_kernel_rejects_rows_outside_its_offsets():
    """Row indices and offsets are checked before the kernel reads them."""
    if not _ckernels.available():
        pytest.skip("no C toolchain available")
    graph = DetectorGraph(code=surface_code(3), rounds=ROUNDS, noise=paper_noise())
    nodes = np.array([0, 1, 2], dtype=np.int64)
    row_ptr = np.array([0, 1, 3], dtype=np.int64)
    for rows in ([2], [-1]):
        with pytest.raises(ValueError, match="rows must lie in"):
            _ckernels.decode_rows(graph.context, nodes, row_ptr, np.array(rows), max_steps=10)
    for bad in ([0, 2, 1], [0, 1, 4], [-1, 1, 3]):
        with pytest.raises(ValueError, match="row_ptr"):
            _ckernels.decode_rows(graph.context, nodes, np.array(bad), np.array([0]), max_steps=10)


def test_threads_share_graph_and_cache_without_lost_entries():
    """Threads (more than cores) fetch one shared graph and batch-decode
    overlapping syndromes through one small shared cache: every prediction
    equals the uncached reference, every lookup is counted once, and no
    pending slot outlives its batch."""
    import sys
    import threading

    from repro.decoders import shared_graph
    from repro.decoders.cache import _PENDING

    noise = paper_noise(p=3e-3)
    graph = shared_graph(surface_code(3), ROUNDS, noise, "decompose")
    batches = [_random_batch(graph, shots=30, density=0.05, seed=600 + i % 3) for i in range(12)]
    expected = [_per_shot_reference(graph, "matching", h, f) for h, f in batches]
    cache = SyndromeCache(maxsize=16)
    results: dict[int, object] = {}
    errors: list[BaseException] = []

    def work(index):
        try:
            mine = shared_graph(surface_code(3), ROUNDS, noise, "decompose")
            assert mine is graph
            decoder = make_decoder(mine, "matching", cache=cache)
            results[index] = decoder.decode_batch(*batches[index])
        except BaseException as error:  # surfaced by the main thread below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for index in range(len(batches)):
        assert np.array_equal(results[index], expected[index]), index
    stats = cache.stats()
    assert stats["entries"] <= 16
    assert all(value is not _PENDING for value in cache._entries.values())
    lookups = 0
    for history, final in batches:
        events = np.concatenate([history.reshape(len(history), -1), final], axis=1)
        fired = {row.tobytes() for row in events[events.any(axis=1)]}
        lookups += len(fired)
    assert stats["hits"] + stats["misses"] == lookups
