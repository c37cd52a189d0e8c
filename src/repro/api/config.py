"""Declarative, serializable experiment configuration.

An :class:`ExperimentConfig` is a tree of five small dataclasses — code,
noise, policy, decoder and execution — that fully describes one experiment.
It round-trips losslessly through ``to_dict`` / ``from_dict`` and JSON, so
one config file can drive an offline run, a windowed realtime run and a
sweep grid point (see :class:`repro.api.session.Session`), be cached under a
content digest by the sweep engine, and be reviewed as plain data in a PR.

Validation is registry-backed: every component name is checked against the
registries of :mod:`repro.api.registry`, and an unknown name fails with a
did-you-mean suggestion plus the full list of registered names, so the
error message can never drift from what is actually available.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import types
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

from .registry import CODES, DECODERS, NOISE_PRESETS, POLICIES

__all__ = [
    "CodeConfig",
    "NoiseConfig",
    "PolicyConfig",
    "DecoderConfig",
    "ExecutionConfig",
    "ExperimentConfig",
    "config_schema",
]


@dataclass(frozen=True)
class CodeConfig:
    """Which QEC code to build.

    ``name`` is a registered code family; ``distance`` is optional (each
    family declares its own default, and families without a distance knob
    ignore it).
    """

    name: str = "surface"
    distance: int | None = None

    def validate(self) -> None:
        entry = CODES.get(self.name)  # raises with did-you-mean if unknown
        if self.distance is not None:
            if not entry.metadata.get("accepts_distance", True):
                raise ValueError(
                    f"code family {entry.name!r} has no distance knob "
                    f"(got distance={self.distance})"
                )
            if self.distance < 2:
                raise ValueError(f"distance must be >= 2, got {self.distance}")


@dataclass(frozen=True)
class NoiseConfig:
    """Which noise parameters to simulate under.

    ``preset`` names a registered preset.  ``p`` and ``leakage_ratio``
    override the preset's headline rates when it accepts them (``None``
    keeps the preset default); ``overrides`` replaces any further
    :class:`~repro.noise.NoiseParams` field by name.
    """

    preset: str = "paper"
    p: float | None = None
    leakage_ratio: float | None = None
    overrides: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        entry = NOISE_PRESETS.get(self.preset)
        if not entry.metadata.get("rate_parameters", False):
            if self.p is not None or self.leakage_ratio is not None:
                raise ValueError(
                    f"noise preset {entry.name!r} does not take p/leakage_ratio "
                    "(set them through overrides instead)"
                )
        if self.p is not None and not 0 <= self.p <= 0.5:
            raise ValueError(f"p must lie in [0, 0.5], got {self.p}")
        if self.leakage_ratio is not None and self.leakage_ratio < 0:
            raise ValueError(f"leakage_ratio must be non-negative, got {self.leakage_ratio}")
        from ..noise import NoiseParams

        known = {f.name for f in fields(NoiseParams)}
        for key in self.overrides:
            if key not in known:
                raise ValueError(
                    _unknown_field_message("noise.overrides", key, sorted(known))
                )


@dataclass(frozen=True)
class PolicyConfig:
    """Which leakage-mitigation policy speculates during the run.

    ``options`` holds :class:`~repro.core.GraphModelConfig` overrides for
    the GLADIATOR family (policies without a graph model reject them).
    """

    name: str = "gladiator+m"
    options: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        entry = POLICIES.get(self.name)
        if self.options:
            if not entry.metadata.get("takes_config", False):
                raise ValueError(
                    f"policy {entry.name!r} takes no graph-model options "
                    f"(got {sorted(self.options)})"
                )
            from ..core.graph_model import GraphModelConfig

            known = {f.name for f in fields(GraphModelConfig)}
            for key in self.options:
                if key not in known:
                    raise ValueError(
                        _unknown_field_message("policy.options", key, sorted(known))
                    )


@dataclass(frozen=True)
class DecoderConfig:
    """Which decoder corrects the syndrome record, and its tuning.

    ``max_exact_nodes`` / ``strategy`` are matching-decoder knobs (rejected
    for decoders that have none); ``cache_size`` sizes the cross-call
    syndrome cache (``0`` disables, ``None`` keeps the decoder default) and
    is performance-only — it never changes results and is excluded from the
    sweep cache key.
    """

    name: str = "matching"
    max_exact_nodes: int | None = None
    strategy: str | None = None
    cache_size: int | None = None

    def validate(self) -> None:
        entry = DECODERS.get(self.name)
        if self.max_exact_nodes is not None or self.strategy is not None:
            from ..decoders import ensure_tunable

            ensure_tunable(entry)
        if self.strategy is not None:
            from ..decoders import STRATEGIES

            if self.strategy not in STRATEGIES:
                raise ValueError(
                    f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
                )
        if self.max_exact_nodes is not None and self.max_exact_nodes < 0:
            raise ValueError("max_exact_nodes must be non-negative")
        if self.cache_size is not None and self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")


@dataclass(frozen=True)
class ExecutionConfig:
    """How much to run and through which execution path.

    ``decoded=False`` runs the undecoded simulator (leakage-population
    studies).  ``window_rounds`` routes decoding through the sliding-window
    realtime path (``commit_rounds`` defaults to half the window).
    ``leakage_sampling=None`` keeps the legacy convention: off for decoded
    runs, on for undecoded ones.  ``decode_batch_size`` is the
    simulate-and-decode chunk size (part of the sweep cache key — the chunk
    plan fixes per-chunk RNG seeds); ``workers`` is the sweep process-pool
    size (performance-only, key-exempt, ``None`` = ``REPRO_WORKERS``; the
    shard plan never depends on it, and a unit within one shard runs as the
    legacy single-seed run).
    ``telemetry`` activates the observability layer (``"1"``/``"on"`` for
    metrics only, any other string as the Chrome-trace output path); like
    ``workers`` it is observability-only — it never changes results and is
    excluded from the sweep cache key.  ``serve_shards`` /
    ``serve_max_streams`` shape the network decode server
    (``python -m repro serve``): shard count and the server-wide admission
    cap.  They describe a serving deployment, never an
    experiment — digest-exempt like the other perf knobs.  ``durable``
    keeps a sweep's task records in the on-disk :mod:`repro.fabric` job
    store instead of memory (checkpointed shards, worker leases,
    crash-safe resume).  It picks only the store — the shard plan, and so
    every row, is the same either way — so it too is digest-exempt.
    """

    shots: int = 100
    rounds: int = 10
    seed: int = 0
    decoded: bool = True
    leakage_sampling: bool | None = None
    decode_batch_size: int | None = None
    window_rounds: int | None = None
    commit_rounds: int | None = None
    workers: int | None = None
    telemetry: str | None = None
    durable: bool = False
    serve_shards: int | None = None
    serve_max_streams: int | None = None

    def validate(self) -> None:
        if self.shots <= 0 or self.rounds <= 0:
            raise ValueError("shots and rounds must be positive")
        if self.decode_batch_size is not None and self.decode_batch_size <= 0:
            raise ValueError("decode_batch_size must be positive")
        if self.window_rounds is not None:
            if not self.decoded:
                raise ValueError("window_rounds only applies to decoded runs")
            if self.window_rounds <= 0:
                raise ValueError("window_rounds must be positive")
        if self.commit_rounds is not None:
            if self.window_rounds is None:
                raise ValueError("commit_rounds requires window_rounds")
            if not 0 < self.commit_rounds <= self.window_rounds:
                raise ValueError("commit_rounds must lie in [1, window_rounds]")
        if self.workers is not None and self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.serve_shards is not None and self.serve_shards <= 0:
            raise ValueError("serve_shards must be positive")
        if self.serve_max_streams is not None and self.serve_max_streams <= 0:
            raise ValueError("serve_max_streams must be positive")

    @property
    def effective_leakage_sampling(self) -> bool:
        """Resolved leakage-sampling flag (legacy default: ``not decoded``)."""
        if self.leakage_sampling is not None:
            return self.leakage_sampling
        return not self.decoded


@dataclass(frozen=True)
class ExperimentConfig:
    """The full declarative description of one experiment."""

    name: str = "experiment"
    code: CodeConfig = field(default_factory=CodeConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "ExperimentConfig":
        """Check field types and every section against the registries.

        Returns self.  Type errors (a string where an int belongs — easy to
        produce through ``--set`` overrides or hand-written JSON) and
        unknown component names both raise ``ValueError`` with the field
        path in the message.
        """
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        for where, section in (
            ("code", self.code),
            ("noise", self.noise),
            ("policy", self.policy),
            ("decoder", self.decoder),
            ("execution", self.execution),
        ):
            _check_section_types(section, where)
            section.validate()
        return self

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Nested plain-dict form (JSON-ready, lossless)."""
        return {
            "name": self.name,
            "code": _section_to_dict(self.code),
            "noise": _section_to_dict(self.noise),
            "policy": _section_to_dict(self.policy),
            "decoder": _section_to_dict(self.decoder),
            "execution": _section_to_dict(self.execution),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        """Rebuild from :meth:`to_dict` output; unknown keys fail with help."""
        if not isinstance(data, dict):
            raise ValueError(f"experiment config must be a mapping, got {type(data).__name__}")
        sections = {f.name: f for f in fields(cls)}
        for key in data:
            if key not in sections:
                raise ValueError(
                    _unknown_field_message("experiment config", key, sorted(sections))
                )
        kwargs: dict[str, Any] = {}
        if "name" in data:
            kwargs["name"] = str(data["name"])
        for section, section_cls in (
            ("code", CodeConfig),
            ("noise", NoiseConfig),
            ("policy", PolicyConfig),
            ("decoder", DecoderConfig),
            ("execution", ExecutionConfig),
        ):
            if section in data:
                kwargs[section] = _section_from_dict(section_cls, data[section], section)
        return cls(**kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the JSON form to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        """Read a config saved by :meth:`save` (or written by hand)."""
        return cls.from_json(Path(path).read_text())

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def override(self, path: str, value: Any) -> "ExperimentConfig":
        """Copy with one dotted field replaced, e.g. ``decoder.name``.

        This is the programmatic form of the CLI's ``--set path=value``;
        sweep axes apply their grid coordinates through it too.
        """
        parts = path.split(".")
        if parts[0] == "name" and len(parts) == 1:
            return replace(self, name=str(value))
        section_names = [f.name for f in fields(self) if f.name != "name"]
        if len(parts) != 2 or parts[0] not in section_names:
            raise ValueError(
                _unknown_field_message("override path", path,
                                       ["name"] + [f"{s}.<field>" for s in section_names])
            )
        section, leaf = parts
        current = getattr(self, section)
        if leaf not in {f.name for f in fields(current)}:
            raise ValueError(
                _unknown_field_message(
                    f"{section} config", leaf, [f.name for f in fields(current)]
                )
            )
        return replace(self, **{section: replace(current, **{leaf: value})})

    def cache_payload(self) -> dict[str, Any]:
        """:meth:`to_dict` minus everything that cannot change results.

        Performance-only knobs — ``decoder.cache_size``, ``execution.workers``,
        ``execution.telemetry``, ``execution.durable`` —
        and the cosmetic ``name`` are dropped, and component names are
        canonicalised through the registries (``mwpm`` -> ``matching``,
        ``always`` -> ``always-lrc``, case folded), so two configs that
        simulate the same physics produce the same payload no matter how
        they are spelled or executed.  The sweep engine's work-unit cache
        key is a digest of this payload.
        """
        payload = self.to_dict()
        payload.pop("name")
        payload["decoder"].pop("cache_size")
        payload["execution"].pop("workers")
        payload["execution"].pop("telemetry")
        payload["execution"].pop("durable")
        payload["execution"].pop("serve_shards")
        payload["execution"].pop("serve_max_streams")
        payload["code"]["name"] = CODES.canonical(payload["code"]["name"])
        payload["decoder"]["name"] = DECODERS.canonical(payload["decoder"]["name"])
        payload["policy"]["name"] = POLICIES.canonical(payload["policy"]["name"])
        payload["noise"]["preset"] = NOISE_PRESETS.canonical(payload["noise"]["preset"])
        return payload

    def digest(self) -> str:
        """Content digest of :meth:`cache_payload` (hex SHA-256)."""
        canonical = json.dumps(self.cache_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


# --------------------------------------------------------------------- #
# Section (de)serialization helpers
# --------------------------------------------------------------------- #
def _section_to_dict(section: Any) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in fields(section):
        value = getattr(section, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    return out


def _section_from_dict(cls: type, data: Any, where: str) -> Any:
    if not isinstance(data, dict):
        raise ValueError(f"{where} config must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ValueError(_unknown_field_message(f"{where} config", key, sorted(known)))
    return cls(**data)


#: JSON-schema type names -> the Python types a config field may hold.
_JSON_TO_PY = {
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "object": (dict,),
    "null": (type(None),),
}


def _check_section_types(section: Any, where: str) -> None:
    """Reject values of the wrong type with the offending field path.

    Overrides (``--set execution.shots=abc``) and hand-written JSON can put
    a string where an int belongs; failing here keeps the error a clean
    ``ValueError`` instead of a ``TypeError`` from deep inside a run.
    """
    hints = get_type_hints(type(section))
    for f in fields(section):
        value = getattr(section, f.name)
        names = _type_schema(hints[f.name]).get("type")
        if not names:
            continue
        if isinstance(names, str):
            names = [names]
        allowed = tuple(t for name in names for t in _JSON_TO_PY.get(name, ()))
        if not allowed:
            continue
        # bool subclasses int: only accept it where booleans are declared.
        ok = (
            bool in allowed
            if isinstance(value, bool)
            else isinstance(value, allowed)
        )
        if not ok:
            raise ValueError(
                f"{where}.{f.name} must be {' or '.join(names)}, got {value!r}"
            )


def _unknown_field_message(where: str, key: str, known: list[str]) -> str:
    message = f"unknown {where} field {key!r}"
    close = difflib.get_close_matches(key, known, n=3, cutoff=0.4)
    if close:
        message += f"; did you mean {', '.join(repr(c) for c in close)}?"
    message += f" (known: {', '.join(known)})"
    return message


# --------------------------------------------------------------------- #
# JSON schema
# --------------------------------------------------------------------- #
def _type_schema(annotation: Any) -> dict[str, Any]:
    """JSON-schema fragment for one (possibly optional) field annotation."""
    origin = get_origin(annotation)
    if origin is Union or isinstance(annotation, types.UnionType):
        args = get_args(annotation)
        non_null = [a for a in args if a is not type(None)]
        schemas = [_type_schema(a) for a in non_null]
        type_names: list[Any] = []
        for schema in schemas:
            entry = schema.get("type", "object")
            type_names.extend(entry if isinstance(entry, list) else [entry])
        if type(None) in args:
            type_names.append("null")
        return {"type": sorted(set(type_names), key=type_names.index)}
    if annotation is str:
        return {"type": "string"}
    if annotation is bool:
        return {"type": "boolean"}
    if annotation is int:
        return {"type": "integer"}
    if annotation is float:
        return {"type": "number"}
    if origin is dict or annotation is dict:
        return {"type": "object"}
    if is_dataclass(annotation):
        return _dataclass_schema(annotation)
    return {}


def _dataclass_schema(cls: type) -> dict[str, Any]:
    hints = get_type_hints(cls)
    properties: dict[str, Any] = {}
    for f in fields(cls):
        schema = _type_schema(hints[f.name])
        default = _field_default(f)
        if default is not _MISSING:
            schema = {**schema, "default": default}
        doc = _FIELD_ENUMS.get((cls.__name__, f.name))
        if doc is not None:
            schema["enum"] = doc()
        properties[f.name] = schema
    return {
        "type": "object",
        "description": (cls.__doc__ or "").strip().splitlines()[0],
        "properties": properties,
        "additionalProperties": False,
    }


_MISSING = object()


def _field_default(f: Any) -> Any:
    if f.default is not dataclasses.MISSING:
        return f.default
    if f.default_factory is not dataclasses.MISSING:
        value = f.default_factory()
        return dict(value) if isinstance(value, dict) else _MISSING
    return _MISSING


#: Registry-backed enumerations stamped into the schema so PR reviewers see
#: name-set drift as a schema diff.
_FIELD_ENUMS = {
    ("CodeConfig", "name"): CODES.names,
    ("DecoderConfig", "name"): DECODERS.names,
    ("PolicyConfig", "name"): POLICIES.names,
    ("NoiseConfig", "preset"): NOISE_PRESETS.names,
}


def config_schema() -> dict[str, Any]:
    """JSON schema of :class:`ExperimentConfig`, with registry-backed enums.

    Component-name fields are emitted as ``enum`` lists read from the live
    registries, so the schema artifact CI uploads makes any change to the
    registered name sets reviewable as a plain diff.
    """
    schema = _dataclass_schema(ExperimentConfig)
    schema["$schema"] = "https://json-schema.org/draft/2020-12/schema"
    schema["title"] = "repro ExperimentConfig"
    return schema
