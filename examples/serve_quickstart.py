"""Quickstart for decode-as-a-service: stream syndromes to a TCP server.

Spins up a :class:`repro.serve.ServerThread` (two decode shards, sliding
windows, cross-stream coalescing), records a handful of noisy
memory runs, streams them to the server as concurrent clients with
:func:`repro.serve.decode_records`, and prints the per-stream logical
error rates next to the server's live SLO snapshot — round latency
percentiles priced against the 1 µs hardware round budget.

Run with::

    python examples/serve_quickstart.py

The same server runs standalone via ``python -m repro serve``; query a
running instance with ``python -m repro serve --status``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.codes import surface_code
from repro.core import make_policy
from repro.io import format_table
from repro.noise import paper_noise
from repro.serve import ServerConfig, ServerThread, decode_records
from repro.sim import LeakageSimulator, SimulatorOptions

DISTANCE = 3
SHOTS = 40
ROUNDS = 12
CLIENTS = 6
NOISE = {"p": 2e-3, "leakage_ratio": 1.0}


def record_stream(seed: int):
    """One recorded memory run -> (detector_history, finals, flips)."""
    simulator = LeakageSimulator(
        code=surface_code(DISTANCE),
        noise=paper_noise(**NOISE),
        policy=make_policy("gladiator+m"),
        options=SimulatorOptions(record_detectors=True),
        seed=seed,
    )
    result = simulator.run(shots=SHOTS, rounds=ROUNDS)
    return (
        result.detector_history,
        result.final_detectors,
        result.observable_flips,
    )


def main() -> None:
    records = [record_stream(seed=100 + 13 * i) for i in range(CLIENTS)]

    config = ServerConfig(port=0, shards=2, workers_per_shard=2, window_rounds=4)
    with ServerThread(config) as server:
        print(f"decode server listening on 127.0.0.1:{server.port}")
        results = decode_records(
            "127.0.0.1",
            server.port,
            records,
            code={"family": "surface", "distance": DISTANCE},
            noise=NOISE,
            tenant="quickstart",
        )
        status = server.status()

    rows = [
        {
            "stream": result.stream,
            "shots": result.predictions.size,
            "failures": result.failures,
            "logical error rate": result.logical_error_rate,
            "windows": result.summary["windows"],
        }
        for result in results
    ]
    print(format_table(rows, title="Decode-as-a-service on the d=3 surface code"))
    print()
    print(
        f"served {status['streams_done']} streams / {status['rounds']} rounds;"
        f" coalesce ratio {status['coalesce_ratio']:.2f}"
    )
    print(
        "round latency p50/p99 ="
        f" {status['round_latency_p50_ns'] / 1e3:.1f} /"
        f" {status['round_latency_p99_ns'] / 1e3:.1f} us"
        f" ({status['slo_p99']:.1f}x the {status['hardware_round_ns']:.0f} ns"
        " hardware round budget)"
    )
    print(
        "Coalescing merges windows from concurrent streams into single"
        " decoder calls without changing a single predicted bit."
    )


if __name__ == "__main__":
    main()
