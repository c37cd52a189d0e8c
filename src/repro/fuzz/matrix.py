"""Scenario-space enumeration and small-instance config generation.

The matrix is never written down: :func:`enumerate_cells` reads the live
registries, so any component registered after import — including a dummy
code registered inside a test — is enumerated without touching this module.
:func:`cell_config` turns a cell plus a :class:`SmallInstance` draw into a
concrete :class:`~repro.api.ExperimentConfig` small enough to execute in
milliseconds, which is what lets the harness afford the full cross product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Sequence

from ..api.config import (
    CodeConfig,
    DecoderConfig,
    ExecutionConfig,
    ExperimentConfig,
    NoiseConfig,
    PolicyConfig,
)
from ..api.registry import all_registries

__all__ = [
    "EXECUTION_MODES",
    "ScenarioCell",
    "SmallInstance",
    "enumerate_cells",
    "small_distance",
    "small_instance",
    "cell_config",
]

#: The four execution paths a config can take through the stack.
EXECUTION_MODES = ("offline", "windowed", "batched", "sweep-shard")

#: Distances probed (in order) when sizing a code family for fuzzing.
_DISTANCE_CANDIDATES = (2, 3, 4, 5)

#: Probe results per (family name, registered constructor) pair.  Keyed on
#: the constructor object too, so re-registering a name (plugin tests) can
#: never reuse a stale probe.
_distance_cache: dict[tuple[str, int], int | None] = {}


@dataclass(frozen=True)
class ScenarioCell:
    """One point of the scenario matrix."""

    code: str
    decoder: str
    policy: str
    noise: str
    mode: str

    @property
    def key(self) -> str:
        """Stable ``code/decoder/policy/noise/mode`` identifier."""
        return "/".join((self.code, self.decoder, self.policy, self.noise, self.mode))

    @property
    def combo(self) -> tuple[str, str, str, str]:
        """The mode-independent (code, decoder, policy, noise) combination."""
        return (self.code, self.decoder, self.policy, self.noise)

    def matches(self, patterns: Sequence[str]) -> bool:
        """Whether the cell key matches any of the glob ``patterns``."""
        return any(fnmatchcase(self.key, pattern) for pattern in patterns)


def enumerate_cells(
    modes: Sequence[str] = EXECUTION_MODES,
    patterns: Sequence[str] | None = None,
) -> list[ScenarioCell]:
    """The full scenario matrix, read from the registries at call time."""
    registries = all_registries()
    cells = [
        ScenarioCell(code, decoder, policy, noise, mode)
        for code in registries["codes"].names()
        for decoder in registries["decoders"].names()
        for policy in registries["policies"].names()
        for noise in registries["noise"].names()
        for mode in modes
    ]
    if patterns:
        cells = [cell for cell in cells if cell.matches(patterns)]
    return cells


def small_distance(code_name: str) -> int | None:
    """The smallest distance at which a code family constructs.

    Families without a distance knob return ``None``.  Everything else is
    probed against :data:`_DISTANCE_CANDIDATES` — registry-driven, so a
    newly registered family with unusual constraints (odd-only, >= some
    minimum) is sized correctly without fuzzer changes.  Falls back to the
    family's declared default when no candidate works.
    """
    registries = all_registries()
    entry = registries["codes"].get(code_name)
    if not entry.metadata.get("accepts_distance", True):
        return None
    cache_key = (entry.name, id(entry.obj))
    if cache_key in _distance_cache:
        return _distance_cache[cache_key]
    chosen: int | None = None
    for candidate in _DISTANCE_CANDIDATES:
        try:
            entry.obj(candidate)
        except Exception:
            continue
        chosen = candidate
        break
    if chosen is None:
        chosen = entry.metadata.get("default_distance")
    _distance_cache[cache_key] = chosen
    return chosen


@dataclass(frozen=True)
class SmallInstance:
    """The sampled experiment knobs of one fuzz cell."""

    shots: int = 4
    rounds: int = 3
    seed: int = 0
    p: float = 4e-3
    leakage_ratio: float = 1.0


def small_instance(cell: ScenarioCell, seed: int) -> SmallInstance:
    """Draw a deterministic small instance for ``cell``.

    Seeded by ``(seed, cell.key)``, so the whole matrix varies run to run
    under ``--seed`` while any single cell is exactly reproducible.
    """
    rng = random.Random(f"{seed}:{cell.key}")
    return SmallInstance(
        shots=rng.randint(3, 6),
        rounds=rng.randint(3, 5),
        seed=rng.randint(0, 2**16),
        p=rng.choice((2e-3, 4e-3, 8e-3)),
        leakage_ratio=rng.choice((0.5, 1.0)),
    )


def cell_config(cell: ScenarioCell, instance: SmallInstance) -> ExperimentConfig:
    """The concrete experiment config of one cell at one sampled instance.

    The returned config always describes the *offline* execution of the
    cell's combination; the invariant layer derives the windowed / batched
    variants from it via :meth:`ExperimentConfig.override`, so every mode
    provably runs the same underlying experiment.
    """
    registries = all_registries()
    rate_parameters = registries["noise"].get(cell.noise).metadata.get(
        "rate_parameters", False
    )
    return ExperimentConfig(
        name=f"fuzz-{cell.key.replace('/', '-')}",
        code=CodeConfig(name=cell.code, distance=small_distance(cell.code)),
        noise=NoiseConfig(
            preset=cell.noise,
            p=instance.p if rate_parameters else None,
            leakage_ratio=instance.leakage_ratio if rate_parameters else None,
        ),
        policy=PolicyConfig(name=cell.policy),
        decoder=DecoderConfig(name=cell.decoder),
        execution=ExecutionConfig(
            shots=instance.shots,
            rounds=instance.rounds,
            seed=instance.seed,
            decoded=True,
        ),
    )
