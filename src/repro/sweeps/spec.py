"""Declarative sweep specifications.

A :class:`SweepSpec` names a full experiment grid — code family x distance x
noise point x policy — plus the per-point workload (shots, rounds, decoded
or not).  ``units()`` compiles every grid point to an
:class:`~repro.api.config.ExperimentConfig` and canonicalises it into an
independent :class:`~repro.sweeps.units.WorkUnit`, labelled with its grid
coordinates so the executor's summary rows can be grouped and tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..api.config import (
    CodeConfig,
    DecoderConfig,
    ExecutionConfig,
    ExperimentConfig,
    NoiseConfig,
    PolicyConfig,
)
from ..api.registry import CODES
from .units import WorkUnit, canonical_config

__all__ = ["SweepSpec"]


@dataclass(frozen=True)
class SweepSpec:
    """Grid of (family, distance, error rate, leakage ratio, policy) points.

    Attributes
    ----------
    name:
        Identifier used for result files and progress messages.
    family:
        Code family understood by :func:`repro.experiments.make_code`
        ({code_families}).
    distances:
        Code distances to sweep.  Families without a distance knob
        ({distanceless_families}) should pass a single placeholder entry.
    error_rates / leakage_ratios:
        Physical error rates ``p`` and leakage ratios ``lr`` fed to
        :func:`repro.noise.paper_noise` (so ``p_leak = lr * p``).
    policies:
        Policy names understood by :func:`repro.core.make_policy`.
    shots:
        Shot budget of every grid point (the executor shards this).
    rounds:
        QEC rounds per shot: either an integer or a callable mapping the
        distance to a round count (the paper uses ``10 d`` and ``100 d``).
        Callables are resolved at compile time, so cache keys always see the
        concrete integer.
    decoded:
        If True each point is a decoded memory experiment reporting a
        logical error rate; otherwise an undecoded leakage-population run.
    leakage_sampling:
        Seed one leaked data qubit per shot (Section 6 leakage sampling).
        Defaults to the legacy convention: on for undecoded sweeps, off for
        decoded ones.
    decoder_method:
        Decoder backend for decoded sweeps (``matching`` or ``union_find``;
        matching is exact up to 60 fired detectors, greedy beyond).
    windows:
        Sliding-window axis for decoded sweeps: each entry is a
        ``window_rounds`` value routed through the
        :mod:`repro.realtime` windowed decode path, with ``None`` meaning
        plain offline decoding.  Rows are labelled with their ``window``.
    commit_rounds:
        Rounds committed per window step (``None``: the windowed decoder's
        default of half the window).
    decode_batch_size:
        Simulate-and-decode chunk size of each decoded unit (``None``: the
        :class:`~repro.experiments.memory.MemoryExperiment` default).  Part
        of the cache key — the chunk plan fixes per-chunk simulator seeds.
    seed:
        Base seed; every unit derives its shard seeds from this plus its own
        cache key, so grid points are statistically independent.
    """

    name: str
    family: str = "surface"
    distances: Sequence[int] = (7,)
    error_rates: Sequence[float] = (1e-3,)
    leakage_ratios: Sequence[float] = (0.1,)
    policies: Sequence[str] = ("eraser+m", "gladiator+m")
    shots: int = 200
    rounds: int | Callable[[int], int] = 30
    decoded: bool = False
    leakage_sampling: bool | None = None
    decoder_method: str = "matching"
    windows: Sequence[int | None] = (None,)
    commit_rounds: int | None = None
    decode_batch_size: int | None = None
    seed: int = 0
    extra_labels: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    def rounds_for(self, distance: int) -> int:
        """Resolve the per-distance round count to a concrete integer."""
        if callable(self.rounds):
            return int(self.rounds(distance))
        return int(self.rounds)

    def units(self) -> list[WorkUnit]:
        """Compile the grid into independent work units, in deterministic order."""
        # Legacy single-point sweeps keep their exact historical labels; the
        # window coordinate is only stamped when the spec actually uses it.
        label_windows = len(tuple(self.windows)) > 1 or tuple(self.windows)[0] is not None
        if label_windows and not self.decoded:
            # Undecoded runs never decode, so a window axis would compile to
            # units with identical cache keys under different labels.
            raise ValueError("windows only apply to decoded sweeps (set decoded=True)")
        decoder = DecoderConfig(name=self.decoder_method)
        compiled: list[WorkUnit] = []
        for distance in self.distances:
            rounds = self.rounds_for(distance)
            for p in self.error_rates:
                for leakage_ratio in self.leakage_ratios:
                    for window in self.windows:
                        for policy in self.policies:
                            config = ExperimentConfig(
                                name=self.name,
                                code=CodeConfig(name=self.family, distance=int(distance)),
                                noise=NoiseConfig(
                                    p=float(p), leakage_ratio=float(leakage_ratio)
                                ),
                                policy=PolicyConfig(name=policy),
                                decoder=decoder,
                                execution=ExecutionConfig(
                                    shots=int(self.shots),
                                    rounds=rounds,
                                    seed=int(self.seed),
                                    decoded=self.decoded,
                                    leakage_sampling=self.leakage_sampling,
                                    decode_batch_size=self.decode_batch_size,
                                    window_rounds=window,
                                    commit_rounds=self.commit_rounds if window else None,
                                ),
                            )
                            labels = (
                                ("distance", int(distance)),
                                ("p", float(p)),
                                ("leakage_ratio", float(leakage_ratio)),
                            )
                            if label_windows:
                                labels += (("window", window),)
                            compiled.append(
                                WorkUnit(
                                    canonical_config(config),
                                    labels + tuple(self.extra_labels),
                                )
                            )
        return compiled


# The documented family list is derived from the code registry at import
# time, so the docstring can never disagree with what make_code accepts.
if SweepSpec.__doc__:  # pragma: no branch - docstrings stripped under -OO
    SweepSpec.__doc__ = SweepSpec.__doc__.replace(
        "{code_families}", ", ".join(f"``{name}``" for name in sorted(CODES.names()))
    ).replace(
        "{distanceless_families}",
        ", ".join(
            f"``{entry.name}``"
            for entry in sorted(CODES, key=lambda e: e.name)
            if not entry.metadata.get("accepts_distance", True)
            or "default_distance" not in entry.metadata
        ),
    )
