"""Decode throughput: the batched engine vs the per-shot decode loop.

One d=5, p=1e-3 memory batch (10k shots at the default scale) is decoded
four ways per decoder backend:

* ``legacy``  — the pre-engine per-shot loop: for matching, reproduced
  verbatim below (per-syndrome dijkstra, blossom matching for every exact
  syndrome, no caching), frozen here so the baseline cannot drift as the
  library improves; for union-find, the interpreted cluster growth and
  peeling (``_interpreted_entry``) called once per shot on its fired
  detectors, with no batch entry, no deduplication and no cache,
* ``per_shot`` — the engine's own ``decode_shot`` looped shot by shot with
  the syndrome cache disabled; each call is a batch of one through the same
  entry ``decode_batch`` uses, so this row prices the per-call overhead of
  that entry,
* ``batch``   — ``decode_batch`` on a cold cache: whole-batch NumPy
  syndrome extraction, deduplication, analytic/DP fast paths and all-pairs
  shortest-path tables,
* ``warm``    — ``decode_batch`` again on the now-populated cache: the
  steady state every later chunk of a sweep (and every multiplexed realtime
  stream) runs at.

All four produce predictions that are checked for consistency; the engine
rows must be bit-identical to each other by construction.  Rows land in
``results/BENCH_decode.json`` so the decode-throughput trajectory has data
points alongside ``BENCH_realtime.json``.
"""

import time

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import dijkstra

from _common import current_scale, emit, format_table, run_once, save

from repro.core import make_policy
from repro.decoders import DetectorGraph, SyndromeCache, make_decoder
from repro.experiments import make_code
from repro.noise import paper_noise
from repro.sim import LeakageSimulator, SimulatorOptions

DISTANCE = 5
BASE_SHOTS = 10_000
BASE_ROUNDS = 10
#: The acceptance floor: the batched engine must beat the legacy per-shot
#: loop by at least this factor on the matching backend.
SPEEDUP_FLOOR = 5.0


# --------------------------------------------------------------------- #
# Frozen baseline: the per-shot matching decode as of the pre-batch engine
# --------------------------------------------------------------------- #
def _legacy_exact_matching(flagged, distances, boundary):
    """Blossom matching with per-detector virtual boundary copies."""
    count = flagged.size
    graph = nx.Graph()
    large = 1e9
    for i in range(count):
        for j in range(i + 1, count):
            graph.add_edge(("d", i), ("d", j), weight=large - distances[i, int(flagged[j])])
        graph.add_edge(("d", i), ("b", i), weight=large - distances[i, boundary])
    for i in range(count):
        for j in range(i + 1, count):
            graph.add_edge(("b", i), ("b", j), weight=large)
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    pairs = []
    for left, right in matching:
        kinds = {left[0], right[0]}
        if kinds == {"d"}:
            pairs.append((int(flagged[left[1]]), int(flagged[right[1]])))
        elif kinds == {"d", "b"}:
            detector = left if left[0] == "d" else right
            pairs.append((int(flagged[detector[1]]), boundary))
    return pairs


def _legacy_decode_shot(graph, greedy_fallback, history, final, max_exact_nodes=60):
    """One shot through the legacy path: dijkstra + blossom, no fast paths."""
    flagged = np.flatnonzero(np.concatenate((history.reshape(-1), final)))
    if flagged.size == 0:
        return 0
    distances, predecessors = dijkstra(
        graph.sparse_weights, directed=False, indices=flagged, return_predecessors=True
    )
    boundary = graph.boundary_node
    if flagged.size <= max_exact_nodes:
        pairs = _legacy_exact_matching(flagged, distances, boundary)
    else:
        pairs = greedy_fallback(flagged, distances, boundary)
    index_of = {int(node): i for i, node in enumerate(flagged)}
    parity = 0
    for node_a, node_b in pairs:
        source_row = predecessors[index_of[node_a]]
        node = int(node_b)
        while True:
            previous = source_row[node]
            if previous < 0:
                break
            edge = graph.edge_between(int(previous), node)
            if edge is not None and edge.flips_logical:
                parity ^= 1
            node = int(previous)
    return parity


def _fired(history, final):
    """The detector-graph nodes one shot fired."""
    return np.flatnonzero(np.concatenate((history.reshape(-1), final)))


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_decode_batch_throughput(benchmark):
    scale = current_scale()
    shots = scale.decoded_shots(BASE_SHOTS)
    rounds = scale.rounds(BASE_ROUNDS)
    code = make_code("surface", DISTANCE)
    noise = paper_noise(p=1e-3, leakage_ratio=0.1)

    simulator = LeakageSimulator(
        code=code,
        noise=noise,
        policy=make_policy("gladiator+m"),
        options=SimulatorOptions(record_detectors=True),
        seed=101,
    )
    run = simulator.run(shots=shots, rounds=rounds)
    history, final = run.detector_history, run.final_detectors
    events = np.concatenate([history.reshape(shots, -1), final], axis=1)
    unique_syndromes = len(np.unique(np.packbits(events, axis=1), axis=0))
    graph = DetectorGraph(code=code, rounds=rounds, noise=noise, hyperedges="decompose")

    def workload():
        rows = []
        for method in ("matching", "union_find"):
            if method == "matching":
                fallback = make_decoder(graph, method, cache=SyndromeCache(0))._greedy_matching
                legacy, legacy_s = _timed(
                    lambda: np.array(
                        [
                            bool(_legacy_decode_shot(graph, fallback, history[i], final[i]))
                            for i in range(shots)
                        ]
                    )
                )
            else:
                # Union-find's algorithm predates the engine unchanged: its
                # legacy loop calls the interpreted decode on each shot's
                # fired detectors directly, bypassing the batch entry and
                # the cache, so the row does not move with the engine.
                uncached = make_decoder(graph, method, cache=SyndromeCache(0))
                legacy, legacy_s = _timed(
                    lambda: np.array(
                        [
                            bool(uncached._interpreted_entry(_fired(h, f))[1])
                            for h, f in zip(history, final)
                        ]
                    )
                )
            per_shot_decoder = make_decoder(graph, method, cache=SyndromeCache(0))
            per_shot, per_shot_s = _timed(
                lambda: np.array(
                    [
                        bool(per_shot_decoder.decode_shot(history[i], final[i]))
                        for i in range(shots)
                    ]
                )
            )
            engine = make_decoder(graph, method)
            batch, batch_s = _timed(lambda: engine.decode_batch(history, final))
            warm, warm_s = _timed(lambda: engine.decode_batch(history, final))

            # Correctness before speed: the engine is bit-identical to its
            # own per-shot loop, warm replay included.
            assert np.array_equal(batch, per_shot)
            assert np.array_equal(batch, warm)
            failures = int((batch ^ run.observable_flips).sum())
            legacy_failures = int((legacy ^ run.observable_flips).sum())
            rows.append(
                {
                    "method": method,
                    "shots": shots,
                    "rounds": rounds,
                    "unique_syndromes": unique_syndromes,
                    "legacy_seconds": legacy_s,
                    "per_shot_seconds": per_shot_s,
                    "batch_seconds": batch_s,
                    "warm_seconds": warm_s,
                    "speedup_vs_legacy": legacy_s / batch_s,
                    "speedup_warm": legacy_s / warm_s,
                    "batch_shots_per_second": shots / batch_s,
                    "warm_shots_per_second": shots / warm_s,
                    "failures": failures,
                    "legacy_failures": legacy_failures,
                    "cache": engine.cache.stats(),
                }
            )
        return rows

    rows = run_once(benchmark, workload)
    table = [{k: v for k, v in row.items() if k != "cache"} for row in rows]
    emit("Batched decode engine vs per-shot loops (d=5, p=1e-3)", format_table(table))
    save(
        "BENCH_decode",
        {
            "distance": DISTANCE,
            "p": 1e-3,
            "leakage_ratio": 0.1,
            "shots": shots,
            "rounds": rounds,
            "policy": "gladiator+m",
        },
        rows,
    )

    for row in rows:
        # Dedup really happened, the cache really filled, results agree.
        assert row["unique_syndromes"] < row["shots"]
        assert row["cache"]["entries"] > 0
        # Tie syndromes may decode to different (equal-weight) corrections
        # across backends; the failure counts must still agree closely.
        assert abs(row["failures"] - row["legacy_failures"]) <= max(
            2, row["shots"] // 500
        )
    matching_row = next(row for row in rows if row["method"] == "matching")
    assert matching_row["speedup_vs_legacy"] >= SPEEDUP_FLOOR, matching_row
    union_find_row = next(row for row in rows if row["method"] == "union_find")
    assert union_find_row["speedup_vs_legacy"] >= 1.0, union_find_row
