"""Statistical equivalence of two simulator builds on the physics they report.

A change to the simulator's draw contract changes every individual run, so
bit-for-bit pins cannot vouch for it.  This tool measures what the pins
stood for instead: decoded memory experiments over surface, colour and
toric codes (d = 3, 5) x ``eraser+m`` / ``gladiator+m`` x paper, drift
and burst noise, each cell repeated over independent seeds, and writes the
mean and 95% confidence interval of LER, LRCs/round, FP/FN per round and
DLP per cell.  Run it once per build and compare the two files::

    PYTHONPATH=src python tools/contract_equivalence.py --out new.json
    PYTHONPATH=/path/to/other/src python tools/contract_equivalence.py --out old.json
    python tools/contract_equivalence.py --compare old.json new.json

``--compare`` prints a Markdown table of both means, their interval
half-widths and the two-sample z-score per metric, and exits non-zero when
any ``|z|`` reaches ``--z-limit`` (default 4: with ~180 comparisons a
4-sigma deviation has a family-wise false-alarm rate near 1%).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import product

FAMILIES = ("surface", "color", "toric")
DISTANCES = (3, 5)
POLICIES = ("eraser+m", "gladiator+m")
NOISES = ("paper", "drift", "bursts")
METRICS = ("ler", "lrcs_per_round", "fp_per_round", "fn_per_round", "mean_dlp")

#: Noise rates of every cell: p = 2e-3 keeps d = 5 LERs measurable at these
#: sizes, leakage ratio 0.1 is the paper's default.
P, LEAKAGE_RATIO = 2e-3, 0.1


def run_replicate(cell: tuple, seed: int, shots: int) -> dict[str, float]:
    """One decoded memory experiment of ``cell`` with ``seed``."""
    from repro.api.registry import NOISE_PRESETS
    from repro.core import make_policy
    from repro.experiments import MemoryExperiment, make_code

    family, distance, policy, noise = cell
    preset = NOISE_PRESETS.get(noise).obj
    summary = MemoryExperiment(
        code=make_code(family, distance),
        noise=preset(p=P, leakage_ratio=LEAKAGE_RATIO),
        policy=make_policy(policy),
        seed=seed,
    ).run(shots=shots, rounds=2 * distance).summary()
    return {name: float(summary[name]) for name in METRICS}


def t95(dof: int) -> float:
    """Two-sided 95% Student-t quantile."""
    from scipy.stats import t

    return float(t.ppf(0.975, dof))


def measure(replicates: int, shots: int, workers: int) -> dict:
    cells = list(product(FAMILIES, DISTANCES, POLICIES, NOISES))
    jobs = [(cell, 1000 + seed, shots) for cell in cells for seed in range(replicates)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run_replicate, *zip(*jobs)))
    rows = []
    for index, cell in enumerate(cells):
        samples = results[index * replicates : (index + 1) * replicates]
        metrics = {}
        for name in METRICS:
            values = [sample[name] for sample in samples]
            mean = statistics.fmean(values)
            sem = statistics.stdev(values) / math.sqrt(replicates)
            half = t95(replicates - 1) * sem
            metrics[name] = {"mean": mean, "sem": sem, "ci95": [mean - half, mean + half]}
        family, distance, policy, noise = cell
        rows.append(
            {"family": family, "distance": distance, "policy": policy, "noise": noise,
             "rounds": 2 * distance, "metrics": metrics}
        )
    return {"p": P, "leakage_ratio": LEAKAGE_RATIO, "replicates": replicates,
            "shots": shots, "cells": rows}


def compare(old: dict, new: dict, z_limit: float) -> int:
    """Print the comparison table; return the number of ``|z| >= z_limit``."""
    print("| cell | metric | old mean ± 95% | new mean ± 95% | z |")
    print("|---|---|---|---|---|")
    worst, failures, beyond_two = 0.0, 0, 0
    for before, after in zip(old["cells"], new["cells"]):
        label = f"{before['family']} d{before['distance']} {before['policy']} {before['noise']}"
        for name in METRICS:
            a, b = before["metrics"][name], after["metrics"][name]
            spread = math.hypot(a["sem"], b["sem"])
            z = (b["mean"] - a["mean"]) / spread if spread else 0.0
            worst = max(worst, abs(z))
            failures += abs(z) >= z_limit
            beyond_two += abs(z) >= 1.96
            half_a = a["ci95"][1] - a["mean"]
            half_b = b["ci95"][1] - b["mean"]
            print(f"| {label} | {name} | {a['mean']:.4g} ± {half_a:.2g} "
                  f"| {b['mean']:.4g} ± {half_b:.2g} | {z:+.2f} |")
    total = len(old["cells"]) * len(METRICS)
    print(f"\n{total} comparisons: max |z| = {worst:.2f}, {beyond_two} with |z| >= 1.96 "
          f"(~{0.05 * total:.0f} expected by chance), {failures} with |z| >= {z_limit:g}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write this build's measurements here")
    parser.add_argument("--replicates", type=int, default=10)
    parser.add_argument("--shots", type=int, default=500)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--z-limit", type=float, default=4.0)
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.load(open(path)) for path in args.compare)
        return 1 if compare(old, new, args.z_limit) else 0
    if not args.out:
        parser.error("--out or --compare is required")
    started = time.perf_counter()
    data = measure(args.replicates, args.shots, args.workers)
    from repro.sweeps.units import ENGINE_VERSION

    data["engine_version"] = ENGINE_VERSION
    data["seconds"] = time.perf_counter() - started
    with open(args.out, "w") as handle:
        json.dump(data, handle, indent=1)
    print(f"wrote {args.out} ({data['seconds']:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
