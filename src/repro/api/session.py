"""The Session facade: one config in, any execution path out.

A :class:`Session` validates an :class:`~repro.api.config.ExperimentConfig`,
builds the concrete components (code, noise, policy) through the registries,
and routes to whichever execution path the call names:

* :meth:`Session.run` — offline decoded memory experiment (or the
  sliding-window realtime decode path when ``execution.window_rounds`` is
  set, or an undecoded simulator run when ``execution.decoded`` is false);
* :meth:`Session.stream` — N concurrent syndrome streams through the
  :class:`~repro.realtime.DecodeService` thread pool;
* :meth:`Session.sweep` — a grid of configs canonicalised into
  :class:`~repro.sweeps.WorkUnit` jobs on the sweep executor.

Construction is shared with the internals: ``MemoryExperiment.from_config``,
the sweep engine's shard runner and ``DecodeService.from_config`` all build
through the module-level ``build_*`` helpers here, so a config means exactly
the same thing on every path — the bit-identity guarantee the tests pin.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .config import ExperimentConfig
from .registry import NOISE_PRESETS

if TYPE_CHECKING:  # imported lazily at runtime to keep startup cheap
    from ..codes.base import StabilizerCode
    from ..core.speculator import LeakagePolicy
    from ..experiments.memory import MemoryExperiment, MemoryResult
    from ..noise import NoiseParams
    from ..realtime.accounting import StreamReport
    from ..sim import RunResult
    from ..sweeps.units import WorkUnit

__all__ = [
    "Session",
    "build_code",
    "build_noise",
    "build_policy",
    "build_experiment",
]


# --------------------------------------------------------------------- #
# Component builders (shared by Session and the subsystem internals)
# --------------------------------------------------------------------- #
def build_code(config: ExperimentConfig | Any) -> "StabilizerCode":
    """Construct the configured code through the code registry.

    Delegates to :func:`repro.experiments.make_code` — the one place the
    registry's distance-default semantics live — so the Session path and
    the legacy factory path can never diverge.
    """
    section = config.code if isinstance(config, ExperimentConfig) else config
    from ..experiments.runner import make_code

    return make_code(section.name, section.distance)


def build_noise(config: ExperimentConfig | Any) -> "NoiseParams":
    """Construct the configured noise parameters through the preset registry."""
    section = config.noise if isinstance(config, ExperimentConfig) else config
    entry = NOISE_PRESETS.get(section.preset)
    kwargs: dict[str, Any] = {}
    if entry.metadata.get("rate_parameters", False):
        if section.p is not None:
            kwargs["p"] = section.p
        if section.leakage_ratio is not None:
            kwargs["leakage_ratio"] = section.leakage_ratio
    params = entry.obj(**kwargs)
    if section.overrides:
        params = params.with_(**section.overrides)
    return params


def build_policy(config: ExperimentConfig | Any) -> "LeakagePolicy":
    """Construct the configured policy through the policy registry."""
    section = config.policy if isinstance(config, ExperimentConfig) else config
    from ..core import make_policy

    if section.options:
        from ..core.graph_model import GraphModelConfig

        return make_policy(section.name, config=GraphModelConfig(**section.options))
    return make_policy(section.name)


def build_experiment(
    config: ExperimentConfig,
    *,
    code: "StabilizerCode | None" = None,
    policy: "LeakagePolicy | None" = None,
    noise: "NoiseParams | None" = None,
) -> "MemoryExperiment":
    """Construct a :class:`~repro.experiments.MemoryExperiment` from a config.

    ``code`` / ``policy`` / ``noise`` short-circuit the registry build when
    the caller already holds the objects (a :class:`Session` reuses its
    lazily built components) — the remaining knobs still come from the
    config, so both routes construct identically.
    """
    from ..experiments.memory import MemoryExperiment

    execution = config.execution
    return MemoryExperiment(
        code=code if code is not None else build_code(config),
        noise=noise if noise is not None else build_noise(config),
        policy=policy if policy is not None else build_policy(config),
        decoder_method=config.decoder.name,
        leakage_sampling=execution.effective_leakage_sampling,
        seed=execution.seed,
        window_rounds=execution.window_rounds,
        commit_rounds=execution.commit_rounds,
        decode_batch_size=execution.decode_batch_size,
    )


class Session:
    """Run, stream or sweep one validated experiment configuration."""

    def __init__(self, config: ExperimentConfig):
        self.config = config.validate()
        self._code: "StabilizerCode | None" = None
        self._noise: "NoiseParams | None" = None
        self._policy: "LeakagePolicy | None" = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_config(cls, config: ExperimentConfig | Mapping[str, Any]) -> "Session":
        """Build a session from a config object or its dict form."""
        if not isinstance(config, ExperimentConfig):
            config = ExperimentConfig.from_dict(dict(config))
        return cls(config)

    @classmethod
    def from_file(cls, path) -> "Session":
        """Build a session from a JSON config file."""
        return cls(ExperimentConfig.load(path))

    # ------------------------------------------------------------------ #
    # Resolved components (built once, lazily)
    # ------------------------------------------------------------------ #
    @property
    def code(self) -> "StabilizerCode":
        if self._code is None:
            self._code = build_code(self.config)
        return self._code

    @property
    def noise(self) -> "NoiseParams":
        if self._noise is None:
            self._noise = build_noise(self.config)
        return self._noise

    @property
    def policy(self) -> "LeakagePolicy":
        if self._policy is None:
            self._policy = build_policy(self.config)
        return self._policy

    def experiment(self) -> "MemoryExperiment":
        """The :class:`MemoryExperiment` this session's config describes."""
        return build_experiment(
            self.config, code=self.code, policy=self.policy, noise=self.noise
        )

    # ------------------------------------------------------------------ #
    # Execution paths
    # ------------------------------------------------------------------ #
    def run(
        self, shots: int | None = None, rounds: int | None = None
    ) -> "MemoryResult | RunResult":
        """Execute the config once, in-process.

        Decoded configs run the (offline or, when ``window_rounds`` is set,
        sliding-window) memory experiment and return a
        :class:`~repro.experiments.MemoryResult`; undecoded configs run the
        bare simulator and return a :class:`~repro.sim.RunResult`.
        ``shots`` / ``rounds`` override the config's execution budget.
        """
        execution = self.config.execution
        shots = execution.shots if shots is None else shots
        rounds = execution.rounds if rounds is None else rounds
        experiment = self.experiment()
        with self._telemetry():
            if execution.decoded:
                return experiment.run(shots=shots, rounds=rounds)
            return experiment.run_undecoded(shots=shots, rounds=rounds)

    def stream(
        self,
        streams: int = 1,
        *,
        workers: int = 4,
        queue_depth: int | None = None,
    ) -> "list[StreamReport]":
        """Decode ``streams`` live simulator streams through the decode service.

        Each stream simulates the configured experiment with seed
        ``execution.seed + 101 * stream_index`` and is window-decoded
        concurrently: this thread pushes each stream's rounds into the
        decode service as the simulator produces them (see
        :meth:`~repro.realtime.service.DecodeService.run`).  Requires
        ``execution.window_rounds``.
        """
        execution = self.config.execution
        if execution.window_rounds is None:
            raise ValueError(
                "Session.stream requires execution.window_rounds "
                "(set it in the config or via override)"
            )
        from ..realtime.service import DecodeService
        from ..realtime.stream import SimulatorStream

        simulator_streams = [
            SimulatorStream(
                code=self.code,
                noise=self.noise,
                # One policy instance per stream: streams decode concurrently
                # and policies carry per-run state.
                policy=build_policy(self.config),
                shots=execution.shots,
                rounds=execution.rounds,
                leakage_sampling=execution.effective_leakage_sampling,
                seed=execution.seed + 101 * index,
            )
            for index in range(streams)
        ]
        service = DecodeService.from_config(
            self.config, workers=workers, queue_depth=queue_depth
        )
        with self._telemetry():
            return service.run(simulator_streams)

    def sweep(
        self,
        axes: Mapping[str, Sequence[Any]] | None = None,
        *,
        executor=None,
    ) -> list[dict[str, Any]]:
        """Run a grid of configs on the shared sweep engine.

        ``axes`` maps dotted config paths to value sequences, e.g.
        ``{"code.distance": [3, 5], "policy.name": ["eraser+m",
        "gladiator+m"]}``.  The cartesian product is taken in insertion
        order, each point's summary row is labelled with the axis leaf
        names (``distance``, ``name``, ...), and execution inherits the
        engine's ``REPRO_WORKERS`` / ``REPRO_CACHE`` behaviour (or the
        config's ``execution.workers``).  With no axes the sweep is the
        single configured point.
        """
        units = self.work_units(axes)
        if executor is None:
            from ..sweeps.cache import SweepCache, default_cache_dir
            from ..sweeps.executor import SweepExecutor, cache_enabled

            cache = SweepCache(default_cache_dir()) if cache_enabled() else None
            executor = SweepExecutor(
                workers=self.config.execution.workers,
                cache=cache,
                durable=self.config.execution.durable,
            )
        with self._telemetry():
            return executor.run_units(units)

    def work_units(
        self, axes: Mapping[str, Sequence[Any]] | None = None
    ) -> "list[WorkUnit]":
        """Compile the (config x axes) grid without executing it.

        Each grid point becomes a :class:`~repro.sweeps.WorkUnit` holding
        its :func:`~repro.sweeps.units.canonical_config`.
        """
        from ..sweeps.units import WorkUnit, canonical_config

        points: list[tuple[ExperimentConfig, tuple[tuple[str, Any], ...]]] = [
            (self.config, ())
        ]
        for path, values in (axes or {}).items():
            leaf = path.rsplit(".", 1)[-1]
            # Grid coordinates are stamped under the axis leaf (distance, p,
            # ...), matching the legacy sweep labels; ``name`` leaves keep
            # their section prefix (policy_name, code_name) so two name axes
            # never collide with each other or the row's display columns.
            label = path.replace(".", "_") if leaf == "name" else leaf
            points = [
                (config.override(path, value), labels + ((label, value),))
                for config, labels in points
                for value in values
            ]
        return [WorkUnit(canonical_config(config), labels) for config, labels in points]

    def _telemetry(self):
        """The telemetry scope of one execution-path call.

        Resolves ``execution.telemetry`` / ``REPRO_TELEMETRY`` once per call
        and wraps the execution in :func:`repro.obs.telemetry_scope`; when
        nothing requests telemetry (the default) the scope is a no-op, and
        when an outer scope is already active this one joins it.
        """
        from ..obs import resolve_telemetry, telemetry_scope

        return telemetry_scope(resolve_telemetry(self.config), config=self.config)

    def __repr__(self) -> str:
        return f"Session(config={self.config.name!r})"
