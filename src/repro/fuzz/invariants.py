"""The three invariant tiers asserted on every scenario cell.

Each checker returns a list of human-readable violation strings (empty when
the invariant holds); crashes are *not* caught here — the harness wraps
every tier and files an exception as a tier-specific crash, because crash
freedom is itself invariant tier 1.

Comparison semantics: "bit identity" means the flat ``summary()``
dictionaries of two execution paths are **exactly** equal — the floats they
contain are pure functions of integer counters, so any drift in RNG
consumption, decoding or metrics shows up as an exact mismatch, never as a
tolerance question.  Statistical checks, by contrast, are tested through
Wilson-interval overlap, so a fixed-seed run can only flag effects far
outside sampling noise (a genuinely broken decoder or a non-monotone noise
response), never an unlucky sample.
"""

from __future__ import annotations

import json
from typing import Any

from ..api.config import ExperimentConfig
from ..api.session import Session, build_experiment
from ..experiments.memory import PERF_SUMMARY_KEYS
from ..experiments.metrics import wilson_interval
from .matrix import ScenarioCell

__all__ = ["RunCache", "check_schema", "check_bit_identity", "check_statistics"]


class RunCache:
    """Memoised execution results shared across cells of one fuzz run.

    Cells of the same (code, decoder, policy, noise) combination compare
    their execution paths against one shared offline baseline; caching it by
    config digest keeps the full-matrix run affordable.  The cache also
    verifies digest *stability* for free: a second cell arriving at the same
    digest must describe the same experiment, or its comparison fails.
    """

    def __init__(self) -> None:
        self.summaries: dict[str, dict[str, Any]] = {}
        self.undecoded: dict[str, tuple[int, int]] = {}

    def offline_summary(self, config: ExperimentConfig) -> dict[str, Any]:
        """Summary of the direct-construction offline run of ``config``."""
        digest = config.digest()
        if digest not in self.summaries:
            execution = config.execution
            result = build_experiment(config).run(
                shots=execution.shots, rounds=execution.rounds
            )
            self.summaries[digest] = result.summary()
        return self.summaries[digest]

    def undecoded_counts(self, config: ExperimentConfig) -> tuple[int, int]:
        """``(observable flips, shots)`` of the undecoded run of ``config``."""
        undecoded = config.override("execution.decoded", False).override(
            "execution.leakage_sampling", config.execution.effective_leakage_sampling
        )
        digest = undecoded.digest()
        if digest not in self.undecoded:
            execution = undecoded.execution
            run = build_experiment(undecoded).run_undecoded(
                shots=execution.shots, rounds=execution.rounds
            )
            self.undecoded[digest] = (
                int(run.observable_flips.sum()),
                execution.shots,
            )
        return self.undecoded[digest]


# --------------------------------------------------------------------- #
# Tier 1: schema round-trip
# --------------------------------------------------------------------- #
def check_schema(config: ExperimentConfig) -> list[str]:
    """Validation, dict/JSON round-trips and digest stability."""
    violations: list[str] = []
    config.validate()
    as_dict = config.to_dict()
    from_dict = ExperimentConfig.from_dict(as_dict)
    if from_dict != config:
        violations.append("to_dict/from_dict round-trip changed the config")
    from_json = ExperimentConfig.from_json(config.to_json())
    if from_json != config:
        violations.append("to_json/from_json round-trip changed the config")
    if json.loads(json.dumps(as_dict, sort_keys=True)) != as_dict:
        violations.append("to_dict form is not JSON-stable")
    if from_dict.digest() != config.digest():
        violations.append("digest changed across a dict round-trip")
    if ExperimentConfig.from_dict(as_dict) != from_dict:
        violations.append("from_dict is not deterministic")
    return violations


# --------------------------------------------------------------------- #
# Tier 2: cross-path bit identity
# --------------------------------------------------------------------- #
def _diff_summaries(label: str, left: dict, right: dict) -> list[str]:
    # Performance diagnostics (cache hit rate, dedup ratio) are inherently
    # path-dependent — a windowed decode sees different batch boundaries than
    # the offline decode of the same record — so bit identity is asserted on
    # the physics, with the perf keys stripped (see
    # :data:`repro.experiments.memory.PERF_SUMMARY_KEYS`).
    left = {k: v for k, v in left.items() if k not in PERF_SUMMARY_KEYS}
    right = {k: v for k, v in right.items() if k not in PERF_SUMMARY_KEYS}
    if left == right:
        return []
    keys = sorted(
        key
        for key in set(left) | set(right)
        if left.get(key, "<absent>") != right.get(key, "<absent>")
    )
    return [f"{label}: summaries differ on {keys}"]


def check_bit_identity(
    cell: ScenarioCell, config: ExperimentConfig, cache: RunCache
) -> list[str]:
    """The cell's execution mode must reproduce the offline baseline exactly.

    * ``offline`` — ``Session.run`` against direct construction.
    * ``windowed`` — window >= rounds realtime decode against offline.
    * ``batched`` — ``Session.run`` and a workers=1 sweep shard of the
      small-chunk config against its direct construction (chunk boundaries
      set per-chunk seeds, so the batched config is its own baseline).
    * ``sweep-shard`` — a workers=1 shard against the offline baseline.
    """
    execution = config.execution
    if cell.mode == "offline":
        baseline = cache.offline_summary(config)
        via_session = Session(config).run().summary()
        return _diff_summaries("Session.run vs direct construction", via_session, baseline)

    if cell.mode == "windowed":
        baseline = cache.offline_summary(config)
        windowed = config.override("execution.window_rounds", execution.rounds)
        via_window = Session(windowed).run().summary()
        return _diff_summaries(
            "windowed (window >= rounds) vs offline", via_window, baseline
        )

    if cell.mode == "batched":
        batched = config.override("execution.decode_batch_size", 2)
        direct = build_experiment(batched).run(
            shots=execution.shots, rounds=execution.rounds
        ).summary()
        violations = _diff_summaries(
            "batched Session.run vs direct construction",
            Session(batched).run().summary(),
            direct,
        )
        shard_row = _sweep_row(batched)
        violations.extend(
            _diff_summaries("batched sweep shard vs direct construction", shard_row, direct)
        )
        return violations

    if cell.mode == "sweep-shard":
        baseline = cache.offline_summary(config)
        return _diff_summaries(
            "workers=1 sweep shard vs offline", _sweep_row(config), baseline
        )

    raise ValueError(f"unknown execution mode {cell.mode!r}")


def _sweep_row(config: ExperimentConfig) -> dict[str, Any]:
    """Run ``config`` through the sweep engine as a single serial shard."""
    from ..sweeps.units import run_unit_serial

    (unit,) = Session(config).work_units()
    return run_unit_serial(unit)


# --------------------------------------------------------------------- #
# Tier 3: statistical sanity
# --------------------------------------------------------------------- #
#: The two physical error rates of the monotonicity probe.
STAT_P_LOW = 2e-3
STAT_P_HIGH = 2e-2


def _interval_violations(label: str, failures: int, shots: int) -> list[str]:
    low, high = wilson_interval(failures, shots)
    point = failures / shots
    if not 0.0 <= low <= point <= high <= 1.0:
        return [
            f"{label}: Wilson interval disordered "
            f"(low={low}, point={point}, high={high})"
        ]
    return []


def check_statistics(
    config: ExperimentConfig, cache: RunCache, stat_shots: int = 48
) -> list[str]:
    """LER ordering and interval sanity for one (code, decoder, policy, noise).

    All comparisons run through Wilson-interval overlap: with the ~48-shot
    budget the intervals are wide, so only gross inversions — a code whose
    LER *drops* as p rises tenfold, or a decoder significantly worse than
    not decoding at all — can flag.  The ``ideal`` preset (p = 0) asserts
    exact zero failures instead, which is deterministic.
    """
    from ..api.registry import NOISE_PRESETS

    violations: list[str] = []
    base = config.override("execution.shots", stat_shots)
    rate_parameters = NOISE_PRESETS.get(config.noise.preset).metadata.get(
        "rate_parameters", False
    )

    def failures_at(cfg: ExperimentConfig) -> tuple[int, int]:
        summary = cache.offline_summary(cfg)
        shots = summary["shots"]
        # ``summary()`` reports the rate; recover the exact count.
        return round(summary["ler"] * shots), shots

    if rate_parameters:
        low_cfg = base.override("noise.p", STAT_P_LOW)
        high_cfg = base.override("noise.p", STAT_P_HIGH)
        fail_low, shots_low = failures_at(low_cfg)
        fail_high, shots_high = failures_at(high_cfg)
        violations += _interval_violations("LER at low p", fail_low, shots_low)
        violations += _interval_violations("LER at high p", fail_high, shots_high)
        if (
            wilson_interval(fail_low, shots_low)[0]
            > wilson_interval(fail_high, shots_high)[1]
        ):
            violations.append(
                "LER not monotone in p: "
                f"p={STAT_P_LOW} gives {fail_low}/{shots_low} significantly above "
                f"p={STAT_P_HIGH} at {fail_high}/{shots_high}"
            )
        # Decoding must not be significantly worse than no decoding.
        flips, undecoded_shots = cache.undecoded_counts(high_cfg)
        violations += _interval_violations(
            "undecoded flip proportion", flips, undecoded_shots
        )
        if (
            wilson_interval(fail_high, shots_high)[0]
            > wilson_interval(flips, undecoded_shots)[1]
        ):
            violations.append(
                "decoded failure proportion significantly exceeds undecoded: "
                f"{fail_high}/{shots_high} decoded vs {flips}/{undecoded_shots} raw"
            )
    else:
        failures, shots = failures_at(base)
        violations += _interval_violations("LER", failures, shots)
        params = Session(base).noise
        if params.p == 0 and failures:
            violations.append(
                f"noiseless preset produced {failures} failures in {shots} shots"
            )
    return violations
