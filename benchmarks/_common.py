"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it simulates
the relevant workload, prints the same rows/series the paper reports, saves a
JSON record under ``results/`` and asserts the qualitative shape (who wins,
roughly by how much).  Absolute numbers differ from the paper because the
substrate is a pure-Python simulator with scaled-down shot counts; set
``REPRO_SCALE=paper`` for larger runs.

All benchmarks run their workload exactly once through
``benchmark.pedantic`` so that pytest-benchmark reports the wall-clock cost
of regenerating the experiment without re-running it dozens of times.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import ExperimentConfig, Session  # noqa: E402
from repro.experiments import current_scale  # noqa: E402
from repro.io import ResultRecord, banner, format_series, format_table, results_dir, save_records  # noqa: E402
from repro.sweeps import SweepCache, SweepExecutor, SweepSpec, cache_enabled  # noqa: E402

__all__ = [
    "current_scale",
    "run_once",
    "emit",
    "save",
    "run_sweep",
    "run_config",
    "group_rows",
    "ExperimentConfig",
    "Session",
    "SweepSpec",
    "format_table",
    "format_series",
    "banner",
]

#: Policies compared in most closed-loop benchmarks, in the paper's order.
CLOSED_LOOP_POLICIES = (
    "eraser",
    "gladiator",
    "gladiator-d",
    "eraser+m",
    "gladiator+m",
    "gladiator-d+m",
)


def run_once(benchmark, workload):
    """Execute ``workload`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(workload, iterations=1, rounds=1)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Execute a declarative sweep on the sweep engine.

    The executor is built the way :meth:`repro.api.Session.sweep` builds
    one: it honours ``REPRO_WORKERS`` (process pool size; default 1 =
    serial) and ``REPRO_CACHE=1`` (memoize completed units under
    ``REPRO_CACHE_DIR``, default ``.repro_cache/``), so benchmark runs
    parallelise and deduplicate without per-script changes.
    """
    cache = SweepCache() if cache_enabled() else None
    return SweepExecutor(cache=cache).run(spec)


def run_config(config: ExperimentConfig | dict, axes: dict | None = None) -> list[dict]:
    """Execute one declarative config (optionally gridded) on the sweep engine.

    The config-first twin of :func:`run_sweep` for benchmarks that describe
    their workload as an :class:`repro.api.ExperimentConfig` (or its dict
    form) instead of a :class:`SweepSpec`.  ``axes`` maps dotted config
    paths to value lists, exactly as :meth:`repro.api.Session.sweep` takes
    them.
    """
    return Session.from_config(config).sweep(axes)


def group_rows(rows: list[dict], key: str) -> dict:
    """Group summary rows by one of their grid-coordinate labels."""
    grouped: dict = {}
    for row in rows:
        grouped.setdefault(row[key], []).append(row)
    return grouped


#: Tables and series emitted by benchmarks during this session; the
#: benchmarks' conftest prints them in the terminal summary so they appear in
#: the benchmark log even though pytest captures per-test output.
EMITTED: list[tuple[str, str]] = []


def emit(title: str, text: str) -> None:
    """Record and print one reproduced table/figure with a separating banner."""
    EMITTED.append((title, text))
    stream = sys.__stdout__ or sys.stdout
    stream.write("\n" + banner(title) + "\n" + text + "\n")
    stream.flush()


def save(experiment: str, parameters: dict, rows: list[dict]) -> None:
    """Persist benchmark rows as a JSON record under ``results/``."""
    records = [
        ResultRecord(experiment=experiment, parameters=parameters, metrics=row)
        for row in rows
    ]
    save_records(records, results_dir() / f"{experiment}.json")
