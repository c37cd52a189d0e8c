"""Decode-service capacity curve: sustained streams vs tail round latency.

Drives a real :class:`repro.serve` TCP server (sharded workers, coalescing
on) with growing fleets of concurrent client streams over the wire and
records, per fleet size, the aggregate round throughput and the server's
live SLO percentiles (p50/p99/p999 per-round decode latency priced against
``ROUND_LATENCY_NS``).  The rows land in ``results/BENCH_service.json`` —
the served-capacity twin of ``BENCH_realtime.json`` — and the assertions
pin the capacity floor: the server must sustain ``FLOOR_STREAMS``
concurrent streams with every stream completing, bit-identical failure
accounting, and a bounded p99 round latency.
"""

import time

from _common import current_scale, emit, format_table, run_once, save

from repro.core import make_policy
from repro.experiments import make_code
from repro.noise import paper_noise
from repro.serve import ServerConfig, ServerThread, decode_records
from repro.sim import LeakageSimulator, SimulatorOptions

STREAM_COUNTS = (2, 4, 8)
#: The asserted capacity floor: this many sustained concurrent streams.
FLOOR_STREAMS = 8
#: Generous per-round p99 bound (seconds) for the pure-Python decoder at the
#: floor; the point is a hard regression tripwire, not a absolute target.
P99_BUDGET_SECONDS = 0.25

NOISE = {"p": 1e-3, "leakage_ratio": 1.0}
DISTANCE = 3
SHARDS = 2


def _record(code, shots, rounds, seed):
    simulator = LeakageSimulator(
        code=code,
        noise=paper_noise(**NOISE),
        policy=make_policy("gladiator+m"),
        options=SimulatorOptions(record_detectors=True),
        seed=seed,
    )
    result = simulator.run(shots=shots, rounds=rounds)
    return (
        result.detector_history,
        result.final_detectors,
        result.observable_flips,
    )


def test_service_capacity(benchmark):
    scale = current_scale()
    code = make_code("surface", DISTANCE)
    shots = scale.decoded_shots(30)
    rounds = scale.rounds(16)
    window = 4

    # Two distinct recorded runs, cycled to any fleet size: recording is
    # simulator time, not serving time, so keep it out of the hot loop.
    base = [_record(code, shots, rounds, seed) for seed in (41, 97)]

    def workload():
        rows = []
        for count in STREAM_COUNTS:
            records = [base[index % len(base)] for index in range(count)]
            config = ServerConfig(
                port=0,
                shards=SHARDS,
                workers_per_shard=2,
                window_rounds=window,
                max_streams=4 * FLOOR_STREAMS,
            )
            with ServerThread(config) as server:
                started = time.perf_counter()
                results = decode_records(
                    "127.0.0.1",
                    server.port,
                    records,
                    code={"family": "surface", "distance": DISTANCE},
                    noise=NOISE,
                    tenant="bench",
                )
                elapsed = time.perf_counter() - started
                status = server.status()
            rows.append(
                {
                    "streams": count,
                    "shots": shots,
                    "rounds": rounds,
                    "window": window,
                    "shards": SHARDS,
                    "wall_seconds": elapsed,
                    "streams_per_second": count / elapsed,
                    "rounds_per_second": count * rounds / elapsed,
                    "round_latency_p50_ns": status["round_latency_p50_ns"],
                    "round_latency_p99_ns": status["round_latency_p99_ns"],
                    "round_latency_p999_ns": status["round_latency_p999_ns"],
                    "slo_p99": status["slo_p99"],
                    "coalesce_ratio": status["coalesce_ratio"],
                    "max_queue_depth": status["max_queue_depth"],
                    "streams_done": status["streams_done"],
                    "failures": [result.failures for result in results],
                }
            )
        return rows

    rows = run_once(benchmark, workload)
    table = [{k: v for k, v in row.items() if k != "failures"} for row in rows]
    emit(
        "Decode service capacity: sustained streams vs tail latency",
        format_table(table),
    )
    save(
        "BENCH_service",
        {
            "stream_counts": list(STREAM_COUNTS),
            "floor_streams": FLOOR_STREAMS,
            "p99_budget_seconds": P99_BUDGET_SECONDS,
            "shots": shots,
            "rounds": rounds,
            "shards": SHARDS,
            "noise": NOISE,
        },
        rows,
    )

    # Capacity floor: every fleet size fully served, and at the floor the
    # p99 round latency stays bounded while streams actually coalesced.
    by_streams = {row["streams"]: row for row in rows}
    assert FLOOR_STREAMS in by_streams
    for row in rows:
        assert row["streams_done"] == row["streams"]
        assert all(f is not None for f in row["failures"])
        assert row["round_latency_p99_ns"] >= row["round_latency_p50_ns"] > 0
        # Identical recorded streams must score identical failure counts —
        # the coalesced, sharded, served path cannot change a prediction.
        for index, failures in enumerate(row["failures"]):
            assert failures == row["failures"][index % 2]
    floor = by_streams[FLOOR_STREAMS]
    assert floor["round_latency_p99_ns"] * 1e-9 < P99_BUDGET_SECONDS
    assert floor["coalesce_ratio"] > 1.0
