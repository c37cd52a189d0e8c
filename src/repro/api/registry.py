"""Component registries: the single source of truth for component names.

Every pluggable component family of the system — QEC code constructions,
decoders, leakage-mitigation policies and noise presets — is registered in
one of the four module-level :class:`Registry` instances below.  The legacy
factories (:func:`repro.experiments.make_code`,
:func:`repro.decoders.make_decoder`, :func:`repro.core.make_policy`) are
thin lookups over these registries, the declarative
:class:`~repro.api.config.ExperimentConfig` validates against them, and the
``python -m repro list`` CLI prints them — so a name can never exist in one
place and be missing from another.

Third-party code extends the system without touching repro internals::

    from repro.api import register_code

    @register_code("my-lattice", default_distance=5)
    def my_lattice_code(distance):
        return build_my_code(distance)

    # make_code("my-lattice"), ExperimentConfig validation and the CLI all
    # see the new family immediately.

This module deliberately imports nothing from the rest of ``repro`` so the
component-definition modules can register themselves at import time without
creating cycles.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "Registry",
    "RegistryEntry",
    "UnknownNameError",
    "CODES",
    "DECODERS",
    "POLICIES",
    "NOISE_PRESETS",
    "register_code",
    "register_decoder",
    "register_policy",
    "register_noise",
    "all_registries",
]


class UnknownNameError(ValueError):
    """Lookup of a name no component registered, with did-you-mean help."""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: its canonical name, builder and metadata."""

    name: str
    obj: Callable[..., Any]
    aliases: tuple[str, ...] = ()
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def description(self) -> str:
        """One-line description: explicit metadata or the builder's docstring."""
        explicit = self.metadata.get("description")
        if explicit:
            return str(explicit)
        doc = (self.obj.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""


class Registry:
    """A named mapping of component names to builders.

    Names are canonicalised through ``normalize`` before every registration
    and lookup (the policy registry folds ``_`` to ``-``, the decoder
    registry folds ``-`` to ``_``, matching the historical factory
    behaviour).  Registration order is preserved: ``names()`` lists
    canonical names in the order components registered, which keeps derived
    listings (``POLICY_NAMES``, CLI output, docstrings) stable.
    """

    def __init__(
        self,
        kind: str,
        normalize: Callable[[str], str] | None = None,
        plural: str | None = None,
    ):
        self.kind = kind
        self.plural = plural or f"{kind}s"
        self._normalize = normalize or (lambda name: name.lower())
        self._entries: dict[str, RegistryEntry] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self, name: str, *, aliases: tuple[str, ...] = (), **metadata: Any
    ) -> Callable:
        """Decorator registering the decorated callable under ``name``.

        ``aliases`` are alternative lookup spellings (they resolve to the
        canonical entry but are not listed by :meth:`names`).  Arbitrary
        keyword ``metadata`` is stored on the entry for the factories to
        interpret (e.g. ``default_distance`` for code families).
        """

        def decorator(obj: Callable) -> Callable:
            self.add(name, obj, aliases=aliases, **metadata)
            return obj

        return decorator

    def add(
        self,
        name: str,
        obj: Callable,
        *,
        aliases: tuple[str, ...] = (),
        **metadata: Any,
    ) -> RegistryEntry:
        """Imperative registration (the decorator form calls this)."""
        key = self._normalize(name)
        if key in self._entries or key in self._aliases:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        entry = RegistryEntry(
            name=key, obj=obj, aliases=tuple(self._normalize(a) for a in aliases),
            metadata=dict(metadata),
        )
        self._entries[key] = entry
        for alias in entry.aliases:
            if alias in self._entries or alias in self._aliases:
                raise ValueError(f"{self.kind} alias {alias!r} is already registered")
            self._aliases[alias] = key
        return entry

    def unregister(self, name: str) -> None:
        """Remove a registration (primarily for tests of third-party plugins)."""
        key = self._normalize(name)
        entry = self._entries.pop(key, None)
        if entry is None:
            raise self.unknown(name)
        for alias in entry.aliases:
            self._aliases.pop(alias, None)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> RegistryEntry:
        """Resolve a (possibly aliased) name; raise with suggestions if unknown."""
        key = self._normalize(name)
        key = self._aliases.get(key, key)
        entry = self._entries.get(key)
        if entry is None:
            raise self.unknown(name)
        return entry

    def canonical(self, name: str) -> str:
        """Canonical spelling of a (possibly aliased) name.

        Unregistered names come back merely normalized — this never raises,
        so cache-key canonicalisation can run on arbitrary input.  Two
        spellings of the same registered component always map to one string.
        """
        key = self._normalize(name)
        return self._aliases.get(key, key)

    def __contains__(self, name: str) -> bool:
        key = self._normalize(name)
        return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[RegistryEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        """Canonical names, in registration order."""
        return list(self._entries)

    def suggest(self, name: str) -> list[str]:
        """Close matches to a misspelled name (canonical names and aliases)."""
        known = list(self._entries) + list(self._aliases)
        return difflib.get_close_matches(self._normalize(name), known, n=3, cutoff=0.4)

    def unknown(self, name: str) -> UnknownNameError:
        """The error a failed lookup raises: did-you-mean plus the full listing."""
        message = f"unknown {self.kind} {name!r}"
        close = self.suggest(name)
        if close:
            message += f"; did you mean {', '.join(repr(c) for c in close)}?"
        message += f" (registered {self.plural}: {', '.join(self.names())})"
        return UnknownNameError(message)


#: QEC code families, looked up by :func:`repro.experiments.make_code`.
CODES = Registry("code family", plural="code families")

#: Decoder backends, looked up by :func:`repro.decoders.make_decoder`.
DECODERS = Registry("decoder method", normalize=lambda n: n.lower().replace("-", "_"))

#: Leakage-mitigation policies, looked up by :func:`repro.core.make_policy`.
POLICIES = Registry(
    "policy", normalize=lambda n: n.lower().replace("_", "-"), plural="policies"
)

#: Noise-parameter presets, looked up by ``NoiseConfig.preset``.
NOISE_PRESETS = Registry("noise preset")


def register_code(name: str, **kwargs: Any) -> Callable:
    """Register a code-family builder: ``builder(distance) -> StabilizerCode``.

    Metadata knobs: ``default_distance`` (used when no distance is given)
    and ``accepts_distance=False`` for families without a distance knob.
    """
    return CODES.register(name, **kwargs)


def register_decoder(name: str, **kwargs: Any) -> Callable:
    """Register a decoder class: ``cls(graph, cache=...) -> DecoderBase``."""
    return DECODERS.register(name, **kwargs)


def register_policy(name: str, **kwargs: Any) -> Callable:
    """Register a policy class: ``cls(**kwargs) -> LeakagePolicy``.

    Pass ``takes_config=True`` if the class accepts the graph-model
    ``config=`` keyword (the GLADIATOR family).
    """
    return POLICIES.register(name, **kwargs)


def register_noise(name: str, **kwargs: Any) -> Callable:
    """Register a noise preset: ``builder(**rates) -> NoiseParams``.

    Pass ``rate_parameters=True`` if the builder accepts the ``p`` /
    ``leakage_ratio`` keywords of :class:`~repro.api.config.NoiseConfig`.
    """
    return NOISE_PRESETS.register(name, **kwargs)


def all_registries() -> dict[str, Registry]:
    """The four component registries, keyed by a short section label."""
    return {
        "codes": CODES,
        "decoders": DECODERS,
        "policies": POLICIES,
        "noise": NOISE_PRESETS,
    }
