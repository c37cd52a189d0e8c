"""Work units: the atomic jobs a sweep is compiled into.

A :class:`WorkUnit` is one simulation job: a canonical
:class:`~repro.api.config.ExperimentConfig` (see :func:`canonical_config`)
plus the grid-coordinate labels stamped onto its summary row.  Both
:meth:`repro.api.Session.work_units` and :meth:`repro.sweeps.SweepSpec.units`
build units through :func:`canonical_config`, so one schema describes an
experiment on every path.  The sweep engine shards a unit's shot budget into
independent slices (see :mod:`repro.sweeps.executor`), runs the slices on a
process pool, and merges the shard results back into one summary row.

Every helper in this module is a plain module-level function so that work
units and their shards can be pickled into ``multiprocessing`` workers.

Summary-row units
-----------------
Every sweep returns a list of flat summary dictionaries — the same rows the
sweep cache serialises to disk — whose keys carry these units:

========================  =====================================================
key                       meaning / units
========================  =====================================================
``policy``                canonical policy display name (e.g. ``gladiator+M``)
``code``                  code name (e.g. ``surface_d7``)
``shots`` / ``rounds``    totals for this row's run (counts)
``mean_dlp``              data-leakage population averaged over rounds and
                          shots; fraction of data qubits in [0, 1]
``final_dlp``             data-leakage population after the last round;
                          fraction of data qubits in [0, 1]
``dlp_per_round``         array of per-round leakage fractions (undecoded
                          rows only), length ``rounds``
``lrcs_per_round``        data-qubit LRC gadgets applied, **per round per
                          shot** (average count, not a fraction)
``fp_per_round``          unnecessary LRCs (false positives), per round per
                          shot
``fn_per_round``          undetected leaked qubits (false negatives), per
                          round per shot
``speculation_inaccuracy``  ``fp_per_round + fn_per_round``
``total_leakage_events``  leakage injections summed over **all shots and
                          rounds** of the run (a total, not a rate)
``ler``                   whole-experiment logical error probability in
                          [0, 1] (decoded rows only)
``ler_low`` / ``ler_high``  95% Wilson interval bounds of ``ler``
``ler_per_round``         per-round logical error probability equivalent to
                          ``ler`` (decoded rows only)
``leakage_equilibrium``   trailing-rounds average of the leakage population;
                          fraction of data qubits (decoded rows only)
``distance`` / ``p`` / ``leakage_ratio``  grid coordinates stamped by the
                          sweeps that vary them (``SweepSpec`` grids; a
                          ``Session.sweep`` axis stamps its leaf name)
========================  =====================================================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any

import numpy as np

from ..api.config import (
    CodeConfig,
    DecoderConfig,
    ExecutionConfig,
    ExperimentConfig,
    NoiseConfig,
    PolicyConfig,
)
from ..api.registry import CODES, DECODERS, NOISE_PRESETS, POLICIES
from ..api.session import build_experiment, build_noise
from ..core.graph_model import GraphModelConfig
from ..experiments.memory import MemoryResult
from ..noise import NoiseParams
from ..sim.simulator import RoundRecord, RunResult

__all__ = [
    "WorkUnit",
    "canonical_config",
    "unit_key",
    "run_unit_serial",
    "run_shard",
    "merge_shards",
    "summarize_unit",
    "apply_unit_labels",
]

#: Bump when the shard payload or summary format changes so stale cache
#: entries are never deserialised into the new layout.  v2: decoder tuning
#: and realtime window configuration joined the cache key.  v3: ``decode_batch_size`` joined the key (the chunk plan
#: determines per-chunk simulator seeds, so two batch sizes are different —
#: equally valid — samples).  v4: the key is a digest of the unit's
#: canonical :class:`~repro.api.config.ExperimentConfig` (see
#: :func:`canonical_config`), so every construction route — ``SweepSpec``
#: grids, ``Session.sweep`` — keys the same simulation identically.  v5:
#: decoded payloads and summaries gained the
#: decoder-cache hit-rate and batch-dedup-ratio diagnostics.  v6: the
#: simulator's sparse draw contract (:mod:`repro.sim.draws`) replaced the
#: dense ``Generator.random`` schedule, so every simulated sample changed
#: (statistically equivalent, see ``tools/contract_equivalence.py``), and
#: the detector graph gained diagonal edges for mid-round data faults and
#: stopped summing parallel edges, so decoded results changed too.
ENGINE_VERSION = 6


@dataclass(frozen=True)
class WorkUnit:
    """One simulation job of a sweep: a canonical config plus row labels.

    ``config`` is the output of :func:`canonical_config`; everything the
    shard runner builds and everything the cache key digests comes from it.
    ``labels`` are extra key/value pairs stamped onto the summary row after
    execution; they do not affect the simulation and are therefore excluded
    from the cache key.
    """

    config: ExperimentConfig
    labels: tuple[tuple[str, Any], ...] = ()

    @property
    def seed(self) -> int:
        """The unit's base seed (single-shard units run with it as-is)."""
        return self.config.execution.seed


def canonical_config(config: ExperimentConfig) -> ExperimentConfig:
    """Validate ``config`` and spell what it simulates in exactly one way.

    Two configs that simulate the same experiment canonicalise to equal
    configs, and so get the same cache key, shard seeds and rows:

    * component names are resolved through the registries (aliases, case);
    * the noise point is written out as every
      :class:`~repro.noise.NoiseParams` field in ``overrides``, under the
      ``custom`` preset (time-structured presets keep their own name: their
      schedule is not expressible as overrides);
    * graph-model options are expanded to the full
      :class:`~repro.core.GraphModelConfig` field set;
    * ``leakage_sampling`` is resolved, and undecoded runs reset the decoder
      section and the decoded-only execution fields (they never decode, so
      those cannot change results);
    * the deployment knobs (workers, telemetry, durable, serve_*) are left
      at their defaults: a unit describes a simulation, not how to run it.

    The function is idempotent.  The cosmetic ``name`` is kept.
    """
    config.validate()
    execution = config.execution
    decoded = execution.decoded
    noise = build_noise(config)
    options = config.policy.options
    return ExperimentConfig(
        name=config.name,
        code=CodeConfig(name=CODES.canonical(config.code.name), distance=config.code.distance),
        noise=NoiseConfig(
            preset=(
                NOISE_PRESETS.canonical(config.noise.preset)
                if noise.is_time_structured
                else "custom"
            ),
            overrides={f.name: getattr(noise, f.name) for f in fields(NoiseParams)},
        ),
        policy=PolicyConfig(
            name=POLICIES.canonical(config.policy.name),
            options=asdict(GraphModelConfig(**options)) if options else {},
        ),
        decoder=(
            replace(config.decoder, name=DECODERS.canonical(config.decoder.name))
            if decoded
            else DecoderConfig()
        ),
        execution=ExecutionConfig(
            shots=execution.shots,
            rounds=execution.rounds,
            seed=execution.seed,
            decoded=decoded,
            leakage_sampling=execution.effective_leakage_sampling,
            decode_batch_size=execution.decode_batch_size if decoded else None,
            window_rounds=execution.window_rounds,
            commit_rounds=execution.commit_rounds,
        ),
    )


def unit_key(unit: WorkUnit, shard_sizes: tuple[int, ...] | None = None) -> str:
    """Stable hex cache key of a work unit (labels excluded — they are cosmetic).

    The key digests the unit config's ``cache_payload`` (which drops the
    performance-only knobs — worker count, telemetry and durability never
    change results), with the code section written as
    ``{"family", "distance"}`` and the noise section as every field of the
    built noise, plus three retired LRC fields at their former defaults,
    under the ``custom`` preset.  For stationary noise that is the canonical
    section plus those fields; for a time-structured preset it also carries
    the schedule fields, which is how such units have always been keyed.

    ``shard_sizes`` is the executor's shard plan for the unit.  It is part of
    the *cache* key because the plan determines the RNG streams: a serial row
    and a 4-shard row are different (equally valid) samples, and memoization
    must never substitute one for the other.  Seed derivation
    (:func:`repro.sweeps.executor.shard_seeds`) uses the plan-free key, so
    shard seeds depend only on what is simulated.
    """
    config_payload = unit.config.cache_payload()
    code = config_payload["code"]
    config_payload["code"] = {"family": code["name"], "distance": code["distance"]}
    # Noise points carried these LRC rates until they were found unread (the
    # LRC gadget owns them); their old defaults keep every key, memoised row
    # and shard seed where it was.
    noise = {**asdict(build_noise(unit.config)),
             "lrc_error_factor": 2.0, "lrc_leakage_factor": 1.0, "lrc_removal_prob": 1.0}
    config_payload["noise"] = asdict(NoiseConfig(preset="custom", overrides=noise))
    payload: dict[str, Any] = {
        "engine": ENGINE_VERSION,
        "config": config_payload,
    }
    if shard_sizes is not None and len(shard_sizes) > 1:
        # A single-shard plan is the legacy serial run regardless of pool
        # size or shard_shots setting, so it stays keyed plan-free.
        payload["shards"] = list(shard_sizes)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# --------------------------------------------------------------------- #
# Shard execution (runs inside worker processes)
# --------------------------------------------------------------------- #
def run_shard(unit: WorkUnit, shots: int, seed: int) -> dict[str, Any]:
    """Simulate ``shots`` shots of ``unit`` with ``seed``; return a mergeable payload.

    The payload is a plain dict of NumPy arrays and scalars so it pickles
    cheaply across the process pool.  Undecoded payloads carry the per-round
    record columns plus the final leakage/observable arrays (concatenated at
    merge time); decoded payloads carry the failure count and the already
    shot-normalised per-round rates (weight-averaged at merge time).
    """
    config = unit.config
    # The config this shard executes is exactly the config the unit was
    # keyed under, re-seeded for the shard; Session.run builds the same way.
    experiment = build_experiment(
        replace(config, execution=replace(config.execution, seed=seed))
    )
    rounds = config.execution.rounds
    if config.execution.decoded:
        result = experiment.run(shots=shots, rounds=rounds)
        return {
            "decoded": True,
            "policy_name": result.policy_name,
            "code_name": result.code_name,
            "shots": result.shots,
            "failures": result.failures,
            "dlp_per_round": result.dlp_per_round,
            "lrcs_per_round": result.lrcs_per_round,
            "fp_per_round": result.false_positives_per_round,
            "fn_per_round": result.false_negatives_per_round,
            "total_leakage_events": result.total_leakage_events,
            "final_dlp": result.final_dlp,
            "decoder_cache_hit_rate": result.decoder_cache_hit_rate,
            "batch_dedup_ratio": result.batch_dedup_ratio,
        }

    result = experiment.run_undecoded(shots=shots, rounds=rounds)
    records = result.round_records
    return {
        "decoded": False,
        "policy_name": result.policy_name,
        "code_name": result.code_name,
        "shots": result.shots,
        "round_columns": np.array(
            [
                [
                    r.data_leakage_population,
                    r.ancilla_leakage_population,
                    r.lrcs_applied,
                    r.false_positives,
                    r.false_negatives,
                    r.true_positives,
                ]
                for r in records
            ]
        ),
        "totals": {
            "lrc": result.total_data_lrcs,
            "anc_lrc": result.total_ancilla_lrcs,
            "fp": result.total_false_positives,
            "fn": result.total_false_negatives,
            "tp": result.total_true_positives,
            "leak_events": result.total_leakage_events,
        },
        "final_data_leaked": result.final_data_leaked,
        "observable_flips": result.observable_flips,
    }


# --------------------------------------------------------------------- #
# Shard merging (runs in the parent process)
# --------------------------------------------------------------------- #
def merge_shards(unit: WorkUnit, payloads: list[dict[str, Any]]) -> RunResult | MemoryResult:
    """Combine shard payloads into one result object.

    Totals are summed, detector/observable/final-leakage arrays are
    concatenated along the shot axis, and per-round record columns (which are
    per-shot averages) are weight-averaged by each shard's shot count — so the
    merged object reports exactly what a single run of the combined shot
    budget would, up to sampling noise.
    """
    if not payloads:
        raise ValueError("cannot merge zero shards")
    weights = np.array([p["shots"] for p in payloads], dtype=float)
    total_shots = int(weights.sum())
    rounds = unit.config.execution.rounds

    if unit.config.execution.decoded:
        def wavg(key: str) -> Any:
            # Single-shard merges must be bit-exact (the serial path relies
            # on it), so skip the weighted round-trip entirely.
            if len(payloads) == 1:
                return payloads[0][key]
            return sum(p[key] * w for p, w in zip(payloads, weights)) / total_shots

        return MemoryResult(
            code_name=payloads[0]["code_name"],
            policy_name=payloads[0]["policy_name"],
            shots=total_shots,
            rounds=rounds,
            failures=int(sum(p["failures"] for p in payloads)),
            dlp_per_round=np.asarray(wavg("dlp_per_round")),
            lrcs_per_round=float(wavg("lrcs_per_round")),
            false_positives_per_round=float(wavg("fp_per_round")),
            false_negatives_per_round=float(wavg("fn_per_round")),
            total_leakage_events=int(sum(p["total_leakage_events"] for p in payloads)),
            final_dlp=float(wavg("final_dlp")),
            decoder_cache_hit_rate=float(wavg("decoder_cache_hit_rate")),
            batch_dedup_ratio=float(wavg("batch_dedup_ratio")),
        )

    if len(payloads) == 1:
        columns = payloads[0]["round_columns"]
    else:
        columns = sum(p["round_columns"] * w for p, w in zip(payloads, weights)) / total_shots
    round_records = [
        RoundRecord(
            round_index=index,
            data_leakage_population=float(row[0]),
            ancilla_leakage_population=float(row[1]),
            lrcs_applied=float(row[2]),
            false_positives=float(row[3]),
            false_negatives=float(row[4]),
            true_positives=float(row[5]),
        )
        for index, row in enumerate(columns)
    ]
    totals = {key: int(sum(p["totals"][key] for p in payloads)) for key in payloads[0]["totals"]}
    return RunResult(
        code_name=payloads[0]["code_name"],
        policy_name=payloads[0]["policy_name"],
        shots=total_shots,
        rounds=rounds,
        noise=build_noise(unit.config),
        round_records=round_records,
        total_data_lrcs=totals["lrc"],
        total_ancilla_lrcs=totals["anc_lrc"],
        total_false_positives=totals["fp"],
        total_false_negatives=totals["fn"],
        total_true_positives=totals["tp"],
        total_leakage_events=totals["leak_events"],
        final_data_leaked=np.concatenate([p["final_data_leaked"] for p in payloads], axis=0),
        observable_flips=np.concatenate([p["observable_flips"] for p in payloads], axis=0),
    )


def summarize_unit(
    unit: WorkUnit, result: RunResult | MemoryResult, apply_labels: bool = True
) -> dict[str, Any]:
    """Produce the unit's summary row (see the module docstring for its keys).

    Undecoded rows add the ``code`` name and the per-round ``dlp_per_round``
    array to the result's summary; the unit's ``labels`` are stamped on
    last so sweeps can tag rows with their grid coordinates (distance, p,
    leakage ratio, ...).  The executor caches rows
    *without* labels (they are not part of the cache key) and re-stamps them
    on every hit, which is what ``apply_labels=False`` is for.
    """
    row = result.summary()
    if not unit.config.execution.decoded:
        row["code"] = result.code_name
        row["dlp_per_round"] = result.dlp_per_round
    if apply_labels:
        apply_unit_labels(unit, row)
    return row


def apply_unit_labels(unit: WorkUnit, row: dict[str, Any]) -> dict[str, Any]:
    """Stamp the unit's grid-coordinate labels onto a summary row, in place."""
    for key, value in unit.labels:
        row[key] = value
    return row


def run_unit_serial(unit: WorkUnit) -> dict[str, Any]:
    """Run a unit in-process as one shard with its base seed."""
    payload = run_shard(unit, unit.config.execution.shots, unit.seed)
    return summarize_unit(unit, merge_shards(unit, [payload]))

