"""Regenerate ``pins.json``: each workload's physics outputs per seed.

Run from the repository root when a change is *meant* to alter results
(it then bumps ``ENGINE_VERSION``)::

    python3 perfbench/pin.py --seeds 0-31

Pins are keyed by ``ENGINE_VERSION`` and by each workload's size
fingerprint; ``run.py`` compares every job against them, so a change that
claims to be about speed alone must leave them untouched.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import PINS_PATH


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    run.hermetic_environment()
    run.build_kernels()
    from repro.sweeps.units import ENGINE_VERSION

    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    current = pins.setdefault(str(ENGINE_VERSION), {})
    for name in args.workload or run.WORKLOADS:
        entry = None
        for seed in seeds:
            workload = run.make_workload(name, seed)
            if name == "served_d3":
                workload.record_inputs()
                outputs = workload.outputs()
                workload.loop.close()
            else:
                workload.setup()
                outputs = [workload.job(index) for index in range(workload.inputs)]
            if entry is None:
                entry = {"fingerprint": workload.fingerprint(), "seeds": {}}
            entry["seeds"][str(seed)] = outputs
            print(f"{name} seed {seed}", file=sys.stderr)
        current[name] = entry
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
