"""Parameter sweeps and policy comparisons used by the benchmark harness.

Every figure and table of the paper is some sweep over (code, distance,
physical error rate, leakage ratio, policy).  This module keeps the
historical plain-function API — ``compare_policies``,
``compare_policies_decoded``, ``sweep_distances``, ``sweep_error_rates`` —
but the functions are now thin wrappers over the :mod:`repro.sweeps`
engine: each (point, policy) combination becomes one
:class:`~repro.sweeps.units.WorkUnit` executed by the shared
:func:`~repro.sweeps.executor.default_executor`.  Two environment knobs
change how that engine runs without touching any call site:

* ``REPRO_WORKERS=N`` runs every unit's shot shards on ``N`` worker
  processes (default ``1``: in-process).  Rows never depend on ``N``; a
  unit within one shard (at most 250 shots) is unchanged from the
  historical code, while a larger unit is the merge of its shards.
* ``REPRO_CACHE=1`` memoizes completed units under ``.repro_cache/`` so
  identical runs across the 20 benchmark scripts are not recomputed.

The ``REPRO_SCALE`` knob (``smoke`` / ``quick`` / ``paper``) switches
between CI-sized and paper-sized workloads, as before.

Summary-row units
-----------------
Every function here returns a list of flat summary dictionaries — the same
rows the sweep cache serialises to disk — whose keys carry these units:

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
                          sweep functions that vary them
========================  =====================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..api.registry import CODES
from ..codes.base import StabilizerCode
from ..core.graph_model import GraphModelConfig
from ..noise import NoiseParams, paper_noise
from ..sweeps.executor import default_executor
from ..sweeps.units import WorkUnit

__all__ = [
    "ScaleConfig",
    "current_scale",
    "make_code",
    "compare_policies",
    "compare_policies_decoded",
    "sweep_distances",
    "sweep_error_rates",
]

_SCALE_PRESETS = {
    # (shot multiplier, round multiplier, decoded-shot multiplier)
    "smoke": (0.1, 0.25, 0.1),
    "quick": (1.0, 1.0, 1.0),
    "paper": (10.0, 4.0, 10.0),
}


@dataclass(frozen=True)
class ScaleConfig:
    """Workload scaling selected through the ``REPRO_SCALE`` environment variable."""

    name: str
    shot_multiplier: float
    round_multiplier: float
    decoded_shot_multiplier: float

    def shots(self, base: int) -> int:
        """Scaled number of (undecoded) shots."""
        return max(10, int(round(base * self.shot_multiplier)))

    def decoded_shots(self, base: int) -> int:
        """Scaled number of decoded shots (decoding dominates wall-clock)."""
        return max(10, int(round(base * self.decoded_shot_multiplier)))

    def rounds(self, base: int) -> int:
        """Scaled number of QEC rounds."""
        return max(5, int(round(base * self.round_multiplier)))


def current_scale() -> ScaleConfig:
    """Read the active scale preset from ``REPRO_SCALE`` (default: ``quick``)."""
    name = os.environ.get("REPRO_SCALE", "quick").lower()
    if name not in _SCALE_PRESETS:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(_SCALE_PRESETS)}, got {name!r}")
    shot_mult, round_mult, decoded_mult = _SCALE_PRESETS[name]
    return ScaleConfig(
        name=name,
        shot_multiplier=shot_mult,
        round_multiplier=round_mult,
        decoded_shot_multiplier=decoded_mult,
    )


def make_code(family: str, distance: int | None = None) -> StabilizerCode:
    """Construct a code by its registered family name.

    A thin lookup over :data:`repro.api.registry.CODES` — the family list,
    per-family default distances, and the unknown-name error (with its
    did-you-mean suggestions) all come from the registry, so they can never
    drift from what is actually registered.  Families without a distance
    knob ignore ``distance``, as the historical factory did.
    """
    entry = CODES.get(family)
    if not entry.metadata.get("accepts_distance", True):
        return entry.obj()
    if distance is None:
        distance = entry.metadata.get("default_distance")
    return entry.obj(distance) if distance is not None else entry.obj()


def _code_unit_fields(code: StabilizerCode) -> dict:
    """(family, distance, code) WorkUnit fields for an explicit code object."""
    return {
        "family": str(code.metadata.get("family", code.name)),
        "distance": code.distance,
        "code": code,
    }


def compare_policies(
    code: StabilizerCode,
    noise: NoiseParams,
    policy_names: list[str],
    shots: int,
    rounds: int,
    seed: int = 0,
    leakage_sampling: bool = True,
    policy_config: GraphModelConfig | None = None,
) -> list[dict]:
    """Undecoded comparison: leakage population, LRC usage and FP/FN rates.

    Returns one summary row per entry of ``policy_names`` (see the module
    docstring for the units of every key); each row additionally carries the
    full ``dlp_per_round`` array for time-series figures.
    """
    units = [
        WorkUnit(
            noise=noise,
            policy=policy_name,
            shots=shots,
            rounds=rounds,
            decoded=False,
            leakage_sampling=leakage_sampling,
            seed=seed,
            policy_config=policy_config,
            **_code_unit_fields(code),
        )
        for policy_name in policy_names
    ]
    return default_executor().run_units(units)


def compare_policies_decoded(
    code: StabilizerCode,
    noise: NoiseParams,
    policy_names: list[str],
    shots: int,
    rounds: int,
    seed: int = 0,
    leakage_sampling: bool = False,
    policy_config: GraphModelConfig | None = None,
    decoder_method: str = "matching",
) -> list[dict]:
    """Decoded comparison: logical error rate plus the undecoded metrics.

    Each row reports the whole-experiment ``ler`` (a probability, with its
    95% Wilson interval in ``ler_low``/``ler_high``) and the per-round rates
    documented in the module docstring.
    """
    units = [
        WorkUnit(
            noise=noise,
            policy=policy_name,
            shots=shots,
            rounds=rounds,
            decoded=True,
            leakage_sampling=leakage_sampling,
            decoder_method=decoder_method,
            seed=seed,
            policy_config=policy_config,
            **_code_unit_fields(code),
        )
        for policy_name in policy_names
    ]
    return default_executor().run_units(units)


def sweep_distances(
    distances: list[int],
    noise: NoiseParams,
    policy_names: list[str],
    shots: int,
    rounds_per_distance,
    family: str = "surface",
    decoded: bool = True,
    seed: int = 0,
    leakage_sampling: bool = False,
) -> list[dict]:
    """Run a policy comparison for every code distance in ``distances``.

    ``rounds_per_distance`` is either an integer or a callable mapping the
    distance to the number of rounds (the paper uses ``10 d`` for LER studies
    and ``100 d`` for leakage-population studies).  Every returned row is
    stamped with its ``distance`` grid coordinate.
    """
    units = []
    for distance in distances:
        rounds = (
            rounds_per_distance(distance)
            if callable(rounds_per_distance)
            else int(rounds_per_distance)
        )
        for policy_name in policy_names:
            units.append(
                WorkUnit(
                    family=family,
                    distance=int(distance),
                    noise=noise,
                    policy=policy_name,
                    shots=shots,
                    rounds=rounds,
                    decoded=decoded,
                    leakage_sampling=leakage_sampling,
                    seed=seed,
                    labels=(("distance", int(distance)),),
                )
            )
    return default_executor().run_units(units)


def sweep_error_rates(
    error_rates: list[float],
    leakage_ratio: float,
    policy_names: list[str],
    shots: int,
    rounds: int,
    distance: int = 7,
    family: str = "surface",
    decoded: bool = False,
    seed: int = 0,
    leakage_sampling: bool = True,
) -> list[dict]:
    """Run a policy comparison for every physical error rate in ``error_rates``.

    Every returned row is stamped with its ``p`` and ``leakage_ratio`` grid
    coordinates.
    """
    units = []
    for p in error_rates:
        noise = paper_noise(p=p, leakage_ratio=leakage_ratio)
        for policy_name in policy_names:
            units.append(
                WorkUnit(
                    family=family,
                    distance=int(distance),
                    noise=noise,
                    policy=policy_name,
                    shots=shots,
                    rounds=rounds,
                    decoded=decoded,
                    leakage_sampling=leakage_sampling,
                    seed=seed,
                    labels=(("p", float(p)), ("leakage_ratio", float(leakage_ratio))),
                )
            )
    return default_executor().run_units(units)
