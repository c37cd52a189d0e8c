"""Profile the simulator hot path: cProfile plus a per-phase breakdown.

Runs one leakage-simulation workload twice: once under ``cProfile`` (where
is the Python/NumPy time going?) and once under a ``repro.obs`` tracer,
deriving the per-phase table from the ``sim.phase.*`` spans the simulator
emits (how do the QEC-round phases — noise channels, CNOT layers,
measurement, speculation, bookkeeping — share the wall-clock?).  This is
the harness the "Simulator performance" notes in ``docs/architecture.md``
were produced with.

Usage::

    PYTHONPATH=src python tools/profile_sim.py                 # default d=5 workload
    PYTHONPATH=src python tools/profile_sim.py -d 7 -s 50000   # bigger batch
    PYTHONPATH=src python tools/profile_sim.py --json          # machine-readable
    PYTHONPATH=src python tools/profile_sim.py --smoke         # CI sanity run

``--smoke`` runs a tiny configuration and asserts the harness end-to-end
(every phase shows up in the span-derived table), so CI keeps the profiler
from rotting without paying for a real profile.  ``--json`` emits the
breakdown as one JSON object on stdout (human tables move to stderr).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import make_policy  # noqa: E402
from repro.experiments import make_code  # noqa: E402
from repro.noise import paper_noise  # noqa: E402
from repro.obs.trace import Tracer, activate, deactivate  # noqa: E402
from repro.sim import LeakageSimulator, SimulatorOptions  # noqa: E402
from repro.sim.simulator import PHASE_NAMES  # noqa: E402


def build_simulator(args: argparse.Namespace) -> LeakageSimulator:
    """Construct the profiled workload (leakage-population configuration)."""
    return LeakageSimulator(
        code=make_code(args.family, args.distance),
        noise=paper_noise(p=args.p, leakage_ratio=args.leakage_ratio),
        policy=make_policy(args.policy),
        options=SimulatorOptions(
            leakage_sampling=True,
            record_detectors=args.record_detectors,
        ),
        seed=args.seed,
    )


def phase_breakdown(
    args: argparse.Namespace, out=sys.stdout
) -> tuple[dict[str, int], int]:
    """Run once under a tracer; print and return (ns-per-phase, wall ns).

    The table is derived from the ``sim.phase.*`` spans the simulator emits,
    so the profiler exercises exactly the instrumentation a traced production
    run records — there is no separate private timing path to rot.
    """
    simulator = build_simulator(args)
    tracer = Tracer()
    activate(tracer)
    try:
        started = time.perf_counter_ns()
        simulator.run(shots=args.shots, rounds=args.rounds)
        wall = time.perf_counter_ns() - started
    finally:
        deactivate()
    totals = {name: 0.0 for name in PHASE_NAMES}
    prefix = "sim.phase."
    for event in tracer.events():
        name = event["name"]
        if name.startswith(prefix):
            # Span durations are microseconds; the table reports nanoseconds.
            totals[name[len(prefix):]] += event["dur"] * 1e3
    accumulator = {name: int(value) for name, value in totals.items()}
    total = sum(accumulator.values()) or 1
    print(
        f"\nPer-phase breakdown ({args.shots} shots x {args.rounds} rounds):",
        file=out,
    )
    print(f"  {'phase':<14}{'ms/round':>10}{'share':>9}", file=out)
    for name in PHASE_NAMES:
        nanoseconds = accumulator[name]
        print(
            f"  {name:<14}{nanoseconds / 1e6 / args.rounds:>10.3f}"
            f"{100.0 * nanoseconds / total:>8.1f}%",
            file=out,
        )
    print(
        f"  {'(wall clock)':<14}{wall / 1e6 / args.rounds:>10.3f}"
        f"   {wall / 1e9:.2f} s total",
        file=out,
    )
    return accumulator, wall


def profile(args: argparse.Namespace, out=sys.stdout) -> None:
    """Run once under cProfile and print the hottest functions."""
    simulator = build_simulator(args)
    profiler = cProfile.Profile()
    profiler.enable()
    simulator.run(shots=args.shots, rounds=args.rounds)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(args.top)
    print(stream.getvalue(), file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-f", "--family", default="surface")
    parser.add_argument("-d", "--distance", type=int, default=5)
    parser.add_argument("-s", "--shots", type=int, default=20_000)
    parser.add_argument("-r", "--rounds", type=int, default=100)
    parser.add_argument("--policy", default="gladiator+m")
    parser.add_argument("--p", type=float, default=1e-3)
    parser.add_argument("--leakage-ratio", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=202)
    parser.add_argument("--record-detectors", action="store_true")
    parser.add_argument("--top", type=int, default=15, help="cProfile rows to print")
    parser.add_argument(
        "--no-cprofile", action="store_true",
        help="skip the cProfile pass (phase breakdown only)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny self-checking run for CI (overrides the workload knobs)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the phase breakdown as JSON on stdout (tables go to stderr)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        args.distance, args.shots, args.rounds, args.top = 3, 200, 6, 5
    human_out = sys.stderr if args.json else sys.stdout
    if not args.no_cprofile:
        profile(args, out=human_out)
    accumulator, wall = phase_breakdown(args, out=human_out)

    if args.json:
        payload = {
            "workload": {
                "family": args.family,
                "distance": args.distance,
                "shots": args.shots,
                "rounds": args.rounds,
                "policy": args.policy,
                "p": args.p,
                "leakage_ratio": args.leakage_ratio,
                "seed": args.seed,
            },
            "phases_ns": accumulator,
            "wall_ns": wall,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))

    if args.smoke:
        assert set(accumulator) == set(PHASE_NAMES)
        assert all(value >= 0 for value in accumulator.values())
        assert sum(accumulator.values()) > 0
        print("smoke ok: phase accounting is live", file=human_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
