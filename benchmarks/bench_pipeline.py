"""End-to-end pipeline throughput: fused zero-copy vs the two-step path.

One d=5 windowed streaming workload (simulate ``rounds`` of syndrome
extraction, decode through overlapping sliding windows) runs twice:

* ``two_step`` — the pre-fusion pipeline, reproduced verbatim below: the
  simulator records the full detector history into a ``RunResult``
  (``record_detectors=True``), the record is replayed round by round into a
  dict-buffered window session, and every window commits with a per-shot
  Python loop.  It runs with ``REPRO_DECODER_CKERNELS=0``, which selects
  the decoder's interpreted fallbacks — the Python bitmask-DP matching and
  the row-sort ``np.unique`` dedup, byte-for-byte the pre-fusion decode
  engine.  Frozen here so the baseline cannot drift as the library
  improves.
* ``fused`` — :class:`repro.pipeline.FusedPipeline`: detector chunks stream
  from ``run_incremental(detector_out=...)`` straight into bit-packed ring
  buffers, windows decode per *unique* syndrome through the compiled
  kernels (row hashing for dedup, the one-call ``decode_syndrome`` entry
  construction for exact syndromes), and no detector history is
  ever materialised.

Both sides consume the identical RNG stream (recording never touches it),
so the predictions must be bit-identical — asserted before any timing
claim.  The fused path must beat the frozen two-step path end-to-end
(simulation included) by at least ``SPEEDUP_FLOOR``; rows land in
``results/BENCH_pipeline.json``.
"""

import os
import time
from contextlib import contextmanager

import numpy as np

from _common import current_scale, emit, format_table, run_once, save

from repro.core import make_policy
from repro.experiments import make_code
from repro.noise import paper_noise
from repro.pipeline import FusedPipeline
from repro.realtime import WindowedDecoder
from repro.sim import LeakageSimulator, SimulatorOptions

DISTANCE = 5
BASE_SHOTS = 6000
BASE_ROUNDS = 12
WINDOW_ROUNDS = 4
COMMIT_ROUNDS = 1
#: Matching tuning for the streaming workload: exact matching up to the
#: bitmask-DP bound, greedy above it.  This mirrors how a realtime decoder
#: is deployed (bounded worst-case latency per window) and keeps the
#: comparison about the pipeline engines rather than the shared
#: Python-blossom cost that would otherwise dominate both sides equally.
MAX_EXACT_NODES = 8
#: The acceptance floor: the fused pipeline must beat the frozen two-step
#: path end-to-end (simulate + decode) by at least this factor.
SPEEDUP_FLOOR = 1.5


@contextmanager
def _decoder_kernels(enabled: bool):
    """Pin the decoder C kernels on or off for one timed region."""
    previous = os.environ.get("REPRO_DECODER_CKERNELS")
    os.environ["REPRO_DECODER_CKERNELS"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_DECODER_CKERNELS"]
        else:
            os.environ["REPRO_DECODER_CKERNELS"] = previous


# --------------------------------------------------------------------- #
# Frozen baseline: the two-step record-then-decode path as of pre-fusion
# --------------------------------------------------------------------- #
def _frozen_commit_edges(edges, graph, commit_layer):
    """Verbatim pre-fusion ``repro.realtime.window._commit_edges``."""
    num_z = graph.num_z_stabs
    boundary_node = graph.boundary_node
    parity = False
    artifacts = []
    for node_a, node_b in edges:
        layer_a = node_a // num_z if node_a != boundary_node else None
        layer_b = node_b // num_z if node_b != boundary_node else None
        if layer_a is None:
            layer_a = layer_b
        if layer_b is None:
            layer_b = layer_a
        low, high = min(layer_a, layer_b), max(layer_a, layer_b)
        if high < commit_layer:
            edge = graph.edge_between(node_a, node_b)
            if edge is not None and edge.flips_logical:
                parity = not parity
        elif low == commit_layer - 1 and high == commit_layer:
            upper = node_a if node_a // num_z == commit_layer else node_b
            artifacts.append(upper % num_z)
    return parity, artifacts


class _FrozenWindowSession:
    """Verbatim pre-fusion ``WindowSession``: dict round buffer, per-shot
    commit loop, fresh ``np.stack`` window assembly every step."""

    def __init__(self, windowed, shots):
        self.windowed = windowed
        self.shots = shots
        self.start = 0
        self._buffer = {}
        self._parity = np.zeros(shots, dtype=bool)
        self._next_round = 0

    def feed(self, round_index, detectors):
        self._buffer[round_index] = np.array(detectors, dtype=bool)
        self._next_round += 1

    def ready(self):
        window = self.windowed.effective_window
        end = self.start + window
        return end < self.windowed.rounds and end in self._buffer

    def step(self):
        window = self.windowed.effective_window
        commit = self.windowed.commit_rounds
        start = self.start
        history = np.stack(
            [self._buffer[r] for r in range(start, start + window)], axis=1
        )
        context = self._buffer[start + window]
        graph, decoder = self.windowed.decoder_for(window)
        artifacts = np.zeros((self.shots, graph.num_z_stabs), dtype=bool)
        for shot, edges in enumerate(decoder.decode_edges_batch(history, context)):
            flip, artifact_stabs = _frozen_commit_edges(edges, graph, commit)
            self._parity[shot] ^= flip
            for z_local in artifact_stabs:
                artifacts[shot, z_local] ^= True
        self._buffer[start + commit] ^= artifacts
        for done in range(start, start + commit):
            del self._buffer[done]
        self.start += commit

    def finish(self, final_detectors):
        while self.ready():
            self.step()
        tail = self.windowed.rounds - self.start
        history = np.stack(
            [self._buffer[r] for r in range(self.start, self.start + tail)], axis=1
        )
        graph, decoder = self.windowed.decoder_for(tail)
        commit_all = graph.num_layers
        for shot, edges in enumerate(
            decoder.decode_edges_batch(history, np.asarray(final_detectors, dtype=bool))
        ):
            flip, artifact_stabs = _frozen_commit_edges(edges, graph, commit_all)
            assert not artifact_stabs
            self._parity[shot] ^= flip
        self._buffer.clear()
        return self._parity.copy()


def _two_step(code, noise, shots, rounds, seed):
    """Record the full detector history, then window-decode the replay."""
    simulator = LeakageSimulator(
        code=code,
        noise=noise,
        policy=make_policy("gladiator+m"),
        options=SimulatorOptions(record_detectors=True),
        seed=seed,
    )
    result = simulator.run(shots=shots, rounds=rounds)
    windowed = _windowed_decoder(code, noise, rounds)
    session = _FrozenWindowSession(windowed, shots)
    for round_index in range(rounds):
        session.feed(round_index, result.detector_history[:, round_index, :])
        while session.ready():
            session.step()
    predictions = session.finish(result.final_detectors)
    return predictions, result


def _fused(code, noise, shots, rounds, seed):
    """Stream chunks straight into the packed rings; no recorded history."""
    simulator = LeakageSimulator(
        code=code,
        noise=noise,
        policy=make_policy("gladiator+m"),
        options=SimulatorOptions(record_detectors=False),
        seed=seed,
    )
    pipeline = FusedPipeline(simulator, shots, rounds)
    run = pipeline.run_windowed(_windowed_decoder(code, noise, rounds))
    return run.predictions, run.result


def _windowed_decoder(code, noise, rounds):
    return WindowedDecoder(
        code=code,
        noise=noise,
        rounds=rounds,
        window_rounds=WINDOW_ROUNDS,
        commit_rounds=COMMIT_ROUNDS,
        method="matching",
        # Realtime tuning: syndromes beyond the bitmask-DP reach fall to the
        # greedy matcher instead of the O(n^3) Python blossom.  Both sides
        # share this decoder configuration (identical corrections either
        # way), so the comparison times the engines, not the blossom.
        max_exact_nodes=MAX_EXACT_NODES,
    )


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def test_fused_pipeline_throughput(benchmark):
    scale = current_scale()
    shots = scale.decoded_shots(BASE_SHOTS)
    rounds = scale.rounds(BASE_ROUNDS)
    code = make_code("surface", DISTANCE)
    noise = paper_noise(p=1e-3, leakage_ratio=1.0)

    # Warm both engines outside the timed region: compiled sim/decoder
    # kernels build on first use and would otherwise bill one side only.
    with _decoder_kernels(False):
        _two_step(code, noise, 8, rounds, seed=1)
    with _decoder_kernels(True):
        _fused(code, noise, 8, rounds, seed=1)

    def workload():
        with _decoder_kernels(False):
            (two_step_pred, two_step_run), two_step_s = _timed(
                lambda: _two_step(code, noise, shots, rounds, seed=101)
            )
        with _decoder_kernels(True):
            (fused_pred, fused_run), fused_s = _timed(
                lambda: _fused(code, noise, shots, rounds, seed=101)
            )

        # Correctness before speed: identical RNG stream, identical windows,
        # identical predictions — bit for bit.
        assert np.array_equal(fused_pred, two_step_pred)
        assert np.array_equal(
            fused_run.observable_flips, two_step_run.observable_flips
        )
        assert fused_run.detector_history is None  # nothing was materialised
        failures = int((fused_pred ^ fused_run.observable_flips).sum())
        return [
            {
                "pipeline": "two_step",
                "shots": shots,
                "rounds": rounds,
                "window_rounds": WINDOW_ROUNDS,
                "commit_rounds": COMMIT_ROUNDS,
                "seconds": two_step_s,
                "shots_per_second": shots / two_step_s,
                "failures": failures,
                "speedup": 1.0,
            },
            {
                "pipeline": "fused",
                "shots": shots,
                "rounds": rounds,
                "window_rounds": WINDOW_ROUNDS,
                "commit_rounds": COMMIT_ROUNDS,
                "seconds": fused_s,
                "shots_per_second": shots / fused_s,
                "failures": failures,
                "speedup": two_step_s / fused_s,
            },
        ]

    rows = run_once(benchmark, workload)
    emit(
        "Fused zero-copy pipeline vs two-step record-then-decode "
        f"(d={DISTANCE} windowed streaming)",
        format_table(rows),
    )
    save(
        "BENCH_pipeline",
        {
            "distance": DISTANCE,
            "p": 1e-3,
            "leakage_ratio": 1.0,
            "policy": "gladiator+m",
            "window_rounds": WINDOW_ROUNDS,
            "commit_rounds": COMMIT_ROUNDS,
            "max_exact_nodes": MAX_EXACT_NODES,
            "speedup_floor": SPEEDUP_FLOOR,
        },
        rows,
    )

    fused_row = next(row for row in rows if row["pipeline"] == "fused")
    assert fused_row["speedup"] >= SPEEDUP_FLOOR, fused_row
