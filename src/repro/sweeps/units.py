"""Work units: the atomic jobs a sweep is compiled into.

A :class:`WorkUnit` is one (code, noise, policy, shots, rounds) simulation —
exactly the granularity at which :func:`repro.experiments.compare_policies`
and :func:`repro.experiments.compare_policies_decoded` used to loop
serially.  The sweep engine shards a unit's shot budget into independent
slices (see :mod:`repro.sweeps.executor`), runs the slices on a process
pool, and merges the shard results back into one summary row.

Every helper in this module is a plain module-level function so that work
units and their shards can be pickled into ``multiprocessing`` workers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Any

import numpy as np

from ..codes.base import StabilizerCode
from ..core import make_policy
from ..core.graph_model import GraphModelConfig
from ..experiments.memory import MemoryExperiment, MemoryResult
from ..noise import NoiseParams, paper_noise
from ..sim import LeakageSimulator, SimulatorOptions
from ..sim.simulator import RoundRecord, RunResult

__all__ = [
    "WorkUnit",
    "unit_key",
    "unit_to_config",
    "resolve_code",
    "run_unit_serial",
    "run_shard",
    "merge_shards",
    "summarize_unit",
    "apply_unit_labels",
]

#: Bump when the shard payload or summary format changes so stale cache
#: entries are never deserialised into the new layout.  v2: decoder tuning
#: (max_exact_nodes / strategy) and realtime window configuration joined the
#: cache key.  v3: ``decode_batch_size`` joined the key (the chunk plan
#: determines per-chunk simulator seeds, so two batch sizes are different —
#: equally valid — samples).  v4: the key is a digest of the unit's
#: :class:`~repro.api.config.ExperimentConfig` form (see
#: :func:`unit_to_config`), so every construction route — legacy wrappers,
#: ``SweepSpec`` grids, ``Session.sweep`` — keys the same simulation
#: identically.  v5: decoded payloads and summaries gained the
#: decoder-cache hit-rate and batch-dedup-ratio diagnostics.  v6: the
#: simulator's sparse draw contract (:mod:`repro.sim.draws`) replaced the
#: dense ``Generator.random`` schedule, so every simulated sample changed
#: (statistically equivalent, see ``tools/contract_equivalence.py``), and
#: the detector graph gained diagonal edges for mid-round data faults and
#: stopped summing parallel edges, so decoded results changed too.
ENGINE_VERSION = 6


@dataclass(frozen=True)
class WorkUnit:
    """One (code, noise, policy) simulation job of a sweep.

    The code is named either declaratively by ``(family, distance)`` —
    resolvable through :func:`repro.experiments.make_code` in any worker
    process — or by an explicit :class:`StabilizerCode` object in ``code``
    (used by the legacy ``compare_policies`` wrappers, which receive a code
    instance from the caller).  ``labels`` are extra key/value pairs stamped
    onto the summary row after execution; they do not affect the simulation
    and are therefore excluded from the cache key.
    """

    family: str
    distance: int | None
    noise: NoiseParams
    policy: str
    shots: int
    rounds: int
    decoded: bool = False
    leakage_sampling: bool = True
    decoder_method: str = "matching"
    decoder_max_exact_nodes: int | None = None
    decoder_strategy: str | None = None
    window_rounds: int | None = None
    commit_rounds: int | None = None
    decode_batch_size: int | None = None
    decoder_cache_size: int | None = None
    seed: int = 0
    policy_config: GraphModelConfig | None = None
    code: StabilizerCode | None = None
    labels: tuple[tuple[str, Any], ...] = ()

    def with_shots(self, shots: int, seed: int) -> "WorkUnit":
        """Copy of this unit with a different shot budget and seed (a shard)."""
        return replace(self, shots=shots, seed=seed)


def resolve_code(unit: WorkUnit) -> StabilizerCode:
    """Return the unit's code, constructing it from (family, distance) if needed."""
    if unit.code is not None:
        return unit.code
    from ..experiments.runner import make_code

    return make_code(unit.family, unit.distance)


def _structure_digest(code: StabilizerCode) -> str:
    """Digest of a code's full stabilizer structure (name collisions can't alias)."""
    structure = hashlib.sha256()
    structure.update(repr((code.name, code.distance, code.num_data)).encode())
    for stabilizer in code.stabilizers:
        structure.update(
            repr((stabilizer.basis, stabilizer.data_support, stabilizer.slots)).encode()
        )
    structure.update(code.logical_x.tobytes())
    structure.update(code.logical_z.tobytes())
    return structure.hexdigest()


@lru_cache(maxsize=None)
def _reference_digest(family: str, distance: int | None) -> str | None:
    """Structure digest of ``make_code(family, distance)``, or None if unbuildable."""
    from ..experiments.runner import make_code

    try:
        return _structure_digest(make_code(family, distance))
    except (ValueError, TypeError):
        return None


def _code_fingerprint(unit: WorkUnit) -> dict[str, Any]:
    """Stable, JSON-safe description of the code a unit simulates.

    Declarative units are fingerprinted by (family, distance).  Explicit code
    objects get the same declarative fingerprint when they are structurally
    identical to ``make_code(family, distance)`` — so the legacy wrappers
    (which pass code objects) and :class:`SweepSpec` grids (which pass
    family/distance) share cache entries for the same simulation — and fall
    back to a digest of the full stabilizer structure otherwise, so a custom
    code can never alias a stock construction.
    """
    from ..api.registry import CODES

    family = CODES.canonical(unit.family)
    if unit.code is None:
        return {"family": family, "distance": unit.distance}
    digest = _structure_digest(unit.code)
    if digest == _reference_digest(unit.family, unit.distance):
        return {"family": family, "distance": unit.distance}
    return {"code_name": unit.code.name, "code_digest": digest}


def unit_to_config(unit: WorkUnit, seed: int | None = None) -> "ExperimentConfig":
    """The :class:`~repro.api.config.ExperimentConfig` form of a work unit.

    The noise point is serialised through the ``custom`` preset (the full
    :class:`~repro.noise.NoiseParams` field set as overrides) so *any* noise
    is expressible as plain config data, and the policy name is canonicalised
    through the registry — two spellings of the same simulation produce the
    same config and therefore the same cache key.  Undecoded units zero out
    the decoder section, matching the legacy key semantics (an undecoded run
    never decodes, so decoder tuning cannot change its results).

    ``seed`` substitutes the execution seed (the shard runner passes its
    shard seed so the config it executes is exactly the config it was keyed
    under, re-seeded).
    """
    from ..api.config import (
        CodeConfig,
        DecoderConfig,
        ExecutionConfig,
        ExperimentConfig,
        NoiseConfig,
        PolicyConfig,
    )
    from ..api.registry import CODES, DECODERS, POLICIES

    decoded = unit.decoded
    return ExperimentConfig(
        name=f"unit:{unit.family}:{unit.policy}",
        code=CodeConfig(name=CODES.canonical(unit.family), distance=unit.distance),
        noise=NoiseConfig(preset="custom", overrides=asdict(unit.noise)),
        policy=PolicyConfig(
            name=POLICIES.canonical(unit.policy),
            options=asdict(unit.policy_config) if unit.policy_config else {},
        ),
        decoder=DecoderConfig(
            name=DECODERS.canonical(unit.decoder_method) if decoded else "matching",
            max_exact_nodes=unit.decoder_max_exact_nodes if decoded else None,
            strategy=unit.decoder_strategy if decoded else None,
            cache_size=unit.decoder_cache_size if decoded else None,
        ),
        execution=ExecutionConfig(
            shots=unit.shots,
            rounds=unit.rounds,
            seed=unit.seed if seed is None else seed,
            decoded=decoded,
            leakage_sampling=unit.leakage_sampling,
            decode_batch_size=unit.decode_batch_size if decoded else None,
            window_rounds=unit.window_rounds if decoded else None,
            commit_rounds=unit.commit_rounds if decoded else None,
        ),
    )


def unit_key(unit: WorkUnit, shard_sizes: tuple[int, ...] | None = None) -> str:
    """Stable hex cache key of a work unit (labels excluded — they are cosmetic).

    The key digests the unit's config form (:func:`unit_to_config`, minus
    the performance-only knobs its ``cache_payload`` drops — decoder cache
    size and worker count never change results).  Explicit code objects
    replace the declarative ``code`` section with a structure fingerprint so
    a custom code can never alias a stock construction.

    ``shard_sizes`` is the executor's shard plan for the unit.  It is part of
    the *cache* key because the plan determines the RNG streams: a serial row
    and a 4-shard row are different (equally valid) samples, and memoization
    must never substitute one for the other.  Seed derivation
    (:func:`repro.sweeps.executor.shard_seeds`) uses the plan-free key, so
    shard seeds depend only on what is simulated.
    """
    config_payload = unit_to_config(unit).cache_payload()
    config_payload["code"] = _code_fingerprint(unit)
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
    code = resolve_code(unit)
    policy = make_policy(unit.policy, config=unit.policy_config)
    if unit.decoded:
        # Construct through the api facade: the config this shard executes is
        # exactly the config the unit was keyed under, re-seeded for the shard.
        experiment = MemoryExperiment.from_config(
            unit_to_config(unit, seed=seed), code=code, policy=policy, noise=unit.noise
        )
        result = experiment.run(shots=shots, rounds=unit.rounds)
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

    simulator = LeakageSimulator(
        code=code,
        noise=unit.noise,
        policy=policy,
        options=SimulatorOptions(leakage_sampling=unit.leakage_sampling),
        seed=seed,
    )
    result = simulator.run(shots=shots, rounds=unit.rounds)
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

    if unit.decoded:
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
            rounds=unit.rounds,
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
        rounds=unit.rounds,
        noise=unit.noise,
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
    """Produce the summary row a legacy runner function would have returned.

    Undecoded rows get the extra ``code`` and ``dlp_per_round`` keys that
    :func:`repro.experiments.compare_policies` always added; the unit's
    ``labels`` are stamped on last so sweeps can tag rows with their grid
    coordinates (distance, p, leakage ratio, ...).  The executor caches rows
    *without* labels (they are not part of the cache key) and re-stamps them
    on every hit, which is what ``apply_labels=False`` is for.
    """
    row = result.summary()
    if not unit.decoded:
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
    """Run a unit in-process as one shard — bit-identical to the legacy path."""
    payload = run_shard(unit, unit.shots, unit.seed)
    return summarize_unit(unit, merge_shards(unit, [payload]))


def make_unit_noise(p: float, leakage_ratio: float) -> NoiseParams:
    """The paper's noise profile at one (p, leakage-ratio) grid point."""
    return paper_noise(p=p, leakage_ratio=leakage_ratio)
