"""Tests of the detector graph, MWPM decoder and union-find decoder."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import make_policy
from repro.decoders import DetectorGraph, MatchingDecoder, UnionFindDecoder, make_decoder
from repro.decoders import _ckernels as deckernels
from repro.decoders.matching import _EXACT_MAX_FIRED
from repro.noise import ideal_noise, paper_noise
from repro.sim import LeakageSimulator, SimulatorOptions


@pytest.fixture(scope="module")
def graph_d3(surface_d3=None):
    from repro.codes import surface_code

    return DetectorGraph(code=surface_code(3), rounds=4, noise=paper_noise())


def test_graph_node_counts(graph_d3):
    num_z = len([s for s in graph_d3.code.stabilizers if s.basis == "Z"])
    assert graph_d3.num_z_stabs == num_z
    assert graph_d3.num_layers == 5
    assert graph_d3.num_nodes == 5 * num_z + 1
    assert graph_d3.boundary_node == 5 * num_z


def test_graph_edge_kinds(graph_d3):
    kinds = {edge.kind for edge in graph_d3.edges}
    assert kinds == {"space", "time", "boundary"}
    time_edges = [e for e in graph_d3.edges if e.kind == "time"]
    assert len(time_edges) == graph_d3.num_z_stabs * (graph_d3.num_layers - 1)
    assert all(not e.flips_logical for e in time_edges)


def test_some_space_edges_cross_the_logical(graph_d3):
    crossing = [e for e in graph_d3.edges if e.flips_logical]
    assert crossing
    assert all(e.kind in ("space", "boundary") for e in crossing)


def _fired(history, final):
    """Node ids of one shot's fired detectors (rounds first, then final)."""
    return np.flatnonzero(np.concatenate((history.reshape(-1), final)))


def test_flagged_nodes_round_trip(graph_d3):
    history = np.zeros((4, graph_d3.num_z_stabs), dtype=bool)
    final = np.zeros(graph_d3.num_z_stabs, dtype=bool)
    history[2, 1] = True
    final[0] = True
    nodes = _fired(history, final)
    assert graph_d3.node_index(1, 2) in nodes
    assert graph_d3.node_index(0, 4) in nodes
    assert len(nodes) == 2


def test_rejects_codes_with_hyperedge_structure():
    from repro.codes import color_code

    with pytest.raises(ValueError):
        DetectorGraph(code=color_code(5), rounds=3)


def test_trivial_syndrome_decodes_to_identity(graph_d3):
    history = np.zeros((4, graph_d3.num_z_stabs), dtype=bool)
    final = np.zeros(graph_d3.num_z_stabs, dtype=bool)
    assert MatchingDecoder(graph_d3).decode_shot(history, final) == 0
    assert UnionFindDecoder(graph_d3).decode_shot(history, final) == 0


def test_single_measurement_error_is_benign(graph_d3):
    # A measurement error fires the same detector in two consecutive rounds
    # and must decode to "no logical flip".
    history = np.zeros((4, graph_d3.num_z_stabs), dtype=bool)
    final = np.zeros(graph_d3.num_z_stabs, dtype=bool)
    history[1, 2] = True
    history[2, 2] = True
    assert MatchingDecoder(graph_d3).decode_shot(history, final) == 0
    assert UnionFindDecoder(graph_d3).decode_shot(history, final) == 0


def _logical_failure_rate(code, noise, policy_name, decoder_method, shots, rounds, seed=0):
    simulator = LeakageSimulator(
        code=code,
        noise=noise,
        policy=make_policy(policy_name),
        options=SimulatorOptions(record_detectors=True),
        seed=seed,
    )
    result = simulator.run(shots=shots, rounds=rounds)
    graph = DetectorGraph(code=code, rounds=rounds, noise=noise)
    decoder = make_decoder(graph, decoder_method)
    predictions = decoder.decode_batch(result.detector_history, result.final_detectors)
    return float((predictions ^ result.observable_flips).mean())


@pytest.mark.parametrize("decoder_method", ["matching", "union_find"])
def test_decoder_corrects_low_noise_runs(surface_d3, decoder_method):
    noise = paper_noise(p=5e-4, leakage_ratio=0.0)
    failure_rate = _logical_failure_rate(
        surface_d3, noise, "no-lrc", decoder_method, shots=150, rounds=6, seed=7
    )
    assert failure_rate < 0.08


@pytest.mark.parametrize("decoder_method", ["matching", "union_find"])
def test_decoder_perfect_without_noise(surface_d3, decoder_method):
    failure_rate = _logical_failure_rate(
        surface_d3, ideal_noise(), "no-lrc", decoder_method, shots=50, rounds=5
    )
    assert failure_rate == 0.0


def test_higher_distance_improves_ler():
    from repro.codes import surface_code

    noise = paper_noise(p=2e-3, leakage_ratio=0.0)
    ler_d3 = _logical_failure_rate(
        surface_code(3), noise, "no-lrc", "matching", shots=400, rounds=6, seed=8
    )
    ler_d5 = _logical_failure_rate(
        surface_code(5), noise, "no-lrc", "matching", shots=400, rounds=6, seed=8
    )
    assert ler_d5 <= ler_d3


def test_distance_five_beats_three_under_gate_noise():
    """Gate-dominated noise: d=5 must be clearly better than d=3, not tied.

    Regression for a matching LER that plateaued in distance pairs (d=3 ~
    d=5, d=7 ~ d=9) while parallel boundary edges were summed and
    mid-round data faults had no diagonal edge.
    """
    from repro.codes import surface_code

    noise = paper_noise(p=2e-4, leakage_ratio=0.0).with_(gate_error_factor=10.0)
    ler_d3 = _logical_failure_rate(
        surface_code(3), noise, "no-lrc", "matching", shots=6000, rounds=3, seed=40
    )
    ler_d5 = _logical_failure_rate(
        surface_code(5), noise, "no-lrc", "matching", shots=6000, rounds=3, seed=40
    )
    assert ler_d5 < 0.5 * ler_d3


def test_parallel_boundary_edges_cost_one_fault():
    """A Z face on the X boundary has two boundary qubits, hence two parallel
    edges to the boundary node; reaching it must cost one edge, not two."""
    from repro.codes import surface_code

    graph = DetectorGraph(code=surface_code(5), rounds=2, noise=paper_noise())
    weight = float(-np.log(graph.noise.p))
    boundary_faces = sorted(
        {min(e.node_a, e.node_b) for e in graph.edges if e.kind == "boundary"}
    )
    distances, _ = graph.shortest_paths_from(np.array(boundary_faces))
    assert np.allclose(distances[:, graph.boundary_node], weight)


def test_mid_round_data_faults_have_diagonal_edges():
    """An X error between a qubit's two Z-stabilizer CNOTs fires the later
    stabilizer this round and the earlier one next round: one edge."""
    from repro.codes import surface_code

    code = surface_code(3)
    graph = DetectorGraph(code=code, rounds=2, noise=paper_noise())
    z_stabs = [s for s in code.stabilizers if s.basis == "Z"]
    checked = 0
    for qubit in range(code.num_data):
        slots = {
            local: dict(zip(stab.data_support, stab.slots))[qubit]
            for local, stab in enumerate(z_stabs)
            if qubit in stab.data_support
        }
        if len(slots) != 2:
            continue
        early, late = sorted(slots, key=slots.get)
        edge = graph.edge_between(graph.node_index(late, 0), graph.node_index(early, 1))
        assert edge is not None and edge.kind == "space"
        assert edge.flips_logical == bool(code.logical_z[qubit])
        assert graph.edge_between(graph.node_index(early, 0), graph.node_index(late, 1)) is None
        checked += 1
    assert checked


def test_make_decoder_factory(graph_d3):
    assert isinstance(make_decoder(graph_d3, "matching"), MatchingDecoder)
    assert isinstance(make_decoder(graph_d3, "union_find"), UnionFindDecoder)
    assert isinstance(make_decoder(graph_d3, "union-find"), UnionFindDecoder)
    with pytest.raises(ValueError):
        make_decoder(graph_d3, "bp-osd")


@pytest.fixture(scope="module")
def graph_long(surface_d3):
    """Surface d=3 over enough rounds to fire more than the exact bound."""
    graph = DetectorGraph(code=surface_d3, rounds=20, noise=paper_noise())
    assert graph.boundary_node > _EXACT_MAX_FIRED + 1
    return graph


def test_greedy_fallback_used_for_large_syndromes(graph_long):
    rng = np.random.default_rng(9)
    history = rng.random((20, graph_long.num_z_stabs)) < 0.9
    final = rng.random(graph_long.num_z_stabs) < 0.9
    assert _fired(history, final).size > _EXACT_MAX_FIRED
    # Must complete and return a valid parity even through the greedy path.
    assert MatchingDecoder(graph_long).decode_shot(history, final) in (0, 1)


# --------------------------------------------------------------------- #
# Exact -> greedy fallback boundary
# --------------------------------------------------------------------- #
def _spy_on_strategies(decoder, monkeypatch):
    """Count which matching backend a decoder actually invokes.

    A row served by the compiled ``decode_rows`` (always with a
    ``max_fired`` bound for matching) is an exact matching by construction,
    so it counts toward ``"exact"`` — the tallies describe backend
    *selection*, not which implementation (interpreted or C) carried it out.
    """
    calls = {"exact": 0, "greedy": 0}
    exact, greedy = decoder._exact_matching, decoder._greedy_matching
    kernel = deckernels.decode_rows

    def count_exact(*args, **kwargs):
        calls["exact"] += 1
        return exact(*args, **kwargs)

    def count_greedy(*args, **kwargs):
        calls["greedy"] += 1
        return greedy(*args, **kwargs)

    def count_kernel(*args, **kwargs):
        entries, served = kernel(*args, **kwargs)
        calls["exact"] += int(served.sum())
        return entries, served

    decoder._exact_matching = count_exact
    decoder._greedy_matching = count_greedy
    monkeypatch.setattr(deckernels, "decode_rows", count_kernel)
    return calls


def _fire(graph, count):
    """A detector record with exactly ``count`` fired detectors."""
    history = np.zeros((graph.rounds, graph.num_z_stabs), dtype=bool)
    final = np.zeros(graph.num_z_stabs, dtype=bool)
    flat = history.reshape(-1)
    flat[:count] = True
    return history, final


def test_fallback_boundary_empty_at_and_over_threshold(graph_long, monkeypatch):
    # Empty syndrome: neither backend runs, the prediction is trivially 0.
    decoder = MatchingDecoder(graph_long)
    calls = _spy_on_strategies(decoder, monkeypatch)
    assert decoder.decode_shot(*_fire(graph_long, 0)) == 0
    assert calls == {"exact": 0, "greedy": 0}

    # Exactly at the threshold: still exact.
    decoder = MatchingDecoder(graph_long)
    calls = _spy_on_strategies(decoder, monkeypatch)
    assert decoder.decode_shot(*_fire(graph_long, _EXACT_MAX_FIRED)) in (0, 1)
    assert calls == {"exact": 1, "greedy": 0}

    # One over: greedy takes over.
    decoder = MatchingDecoder(graph_long)
    calls = _spy_on_strategies(decoder, monkeypatch)
    assert decoder.decode_shot(*_fire(graph_long, _EXACT_MAX_FIRED + 1)) in (0, 1)
    assert calls == {"exact": 0, "greedy": 1}


def test_hyperedge_decomposition_opt_in():
    from repro.codes import color_code

    code = color_code(3)
    with pytest.raises(ValueError):
        DetectorGraph(code=code, rounds=3)
    graph = DetectorGraph(code=code, rounds=3, hyperedges="decompose")
    assert graph.edges  # chain decomposition produced a connected graph
    history = np.zeros((3, graph.num_z_stabs), dtype=bool)
    final = np.zeros(graph.num_z_stabs, dtype=bool)
    assert MatchingDecoder(graph).decode_shot(history, final) == 0
    with pytest.raises(ValueError):
        DetectorGraph(code=code, rounds=3, hyperedges="maybe")


def test_hyperedge_decomposition_has_no_conflicting_parallel_edges():
    """Equal-weight parallel edges with different flips_logical would be
    collapsed arbitrarily by the edge lookup; the decomposition must not
    create any (regression: colour-code d=5 chains used to)."""
    from collections import defaultdict

    from repro.codes import color_code

    for distance in (3, 5):
        graph = DetectorGraph(
            code=color_code(distance), rounds=2, hyperedges="decompose"
        )
        flips_by_pair = defaultdict(set)
        for edge in graph.edges:
            key = (min(edge.node_a, edge.node_b), max(edge.node_a, edge.node_b), edge.weight)
            flips_by_pair[key].add(edge.flips_logical)
        conflicts = [key for key, flips in flips_by_pair.items() if len(flips) > 1]
        assert not conflicts, f"d={distance}: {len(conflicts)} ambiguous pairs"


# --------------------------------------------------------------------- #
# Blossom entries are process-independent
# --------------------------------------------------------------------- #
SRC = str(Path(__file__).resolve().parent.parent / "src")

_HASH_SEED_PROBE = """
import json
import numpy as np
from repro.codes import surface_code
from repro.decoders import DetectorGraph, MatchingDecoder
from repro.noise import paper_noise

graph = DetectorGraph(code=surface_code(5), rounds=4, noise=paper_noise())
rng = np.random.default_rng(3)
entries = []
while len(entries) < 10:
    history = rng.random((4, graph.num_z_stabs)) < 0.2
    final = rng.random(graph.num_z_stabs) < 0.2
    if np.flatnonzero(np.concatenate((history.reshape(-1), final))).size < 9:
        continue
    decoder = MatchingDecoder(graph)
    entries.append(
        [decoder.decode_shot_edges(history, final), int(decoder.decode_shot(history, final))]
    )
print(json.dumps(entries))
"""


def test_blossom_entries_do_not_depend_on_the_hash_seed():
    """networkx returns its matching as a set of node tuples, whose
    iteration order follows ``PYTHONHASHSEED``; entries for 9+ fired
    detectors must not.  Two networkx-path processes with different hash
    seeds and one compiled-kernel process emit identical edge sequences."""
    outputs = []
    for hash_seed, kernels in (("1", "0"), ("2", "0"), ("3", "1")):
        env = {
            **os.environ,
            "PYTHONPATH": SRC,
            "PYTHONHASHSEED": hash_seed,
            "REPRO_DECODER_CKERNELS": kernels,
        }
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]


@pytest.mark.skipif(not deckernels.uf_available(), reason="no C toolchain available")
def test_decode_rows_rejects_nodes_outside_the_graph(graph_d3):
    """Node ids are bounds-checked before either kernel indexes by them:
    an id of -1 or ``num_nodes`` raises instead of deferring the row."""
    ctx = graph_d3.context
    rows = np.zeros(1, dtype=np.int64)
    for kwargs in ({"max_fired": 60}, {"max_steps": 10}):
        for flagged in ([0, graph_d3.num_nodes], [-1], [-1, 3]):
            row_ptr = np.array([0, len(flagged)])
            with pytest.raises(ValueError, match="must lie in"):
                deckernels.decode_rows(ctx, np.array(flagged), row_ptr, rows, **kwargs)
