"""Open-loop and reference leakage-mitigation policies, plus the policy registry.

These are the baselines the paper compares against (Sections 3 and 7):

* ``no-lrc``      — never apply an LRC (shows unmitigated leakage accumulation),
* ``always``      — Always-LRC: every qubit gets an LRC every round,
* ``staggered``   — Staggered Always-LRC (Section 3.5): the data qubits are
  partitioned by a proper colouring of the interaction graph and one colour
  group is reset per round, round-robin,
* ``mlr-only``    — use only multi-level readout on the parity qubits,
* ``ideal``       — an oracle with perfect knowledge of which data qubits are
  leaked (the IDEAL curves in Figures 1(c) and 10).

Closed-loop policies (ERASER and the GLADIATOR family) live in their own
modules; :func:`make_policy` builds any of them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.registry import POLICIES
from ..codes.base import StabilizerCode
from ..noise import NoiseParams
from .eraser import EraserMPolicy, EraserPolicy
from .gladiator import GladiatorMPolicy, GladiatorPolicy
from .gladiator_d import GladiatorDMPolicy, GladiatorDPolicy
from .graph_model import GraphModelConfig
from .speculator import LeakagePolicy, SpeculationInput

__all__ = [
    "NoLrcPolicy",
    "AlwaysLrcPolicy",
    "StaggeredLrcPolicy",
    "MlrOnlyPolicy",
    "OraclePolicy",
    "make_policy",
    "POLICY_NAMES",
]


@dataclass
class NoLrcPolicy(LeakagePolicy):
    """Never apply leakage reduction; leakage accumulates unchecked."""

    name: str = "no-lrc"

    @property
    def emits_ancilla_lrc(self) -> bool:
        return False

    def decide_into(
        self,
        ctx: SpeculationInput,
        data_lrc: np.ndarray,
        ancilla_lrc: np.ndarray | None = None,
    ) -> None:
        data_lrc[:] = False


@dataclass
class AlwaysLrcPolicy(LeakagePolicy):
    """Open-loop Always-LRC: reset every qubit every round."""

    name: str = "always-lrc"
    include_ancillas: bool = True

    @property
    def emits_ancilla_lrc(self) -> bool:
        return self.include_ancillas

    def decide_into(
        self,
        ctx: SpeculationInput,
        data_lrc: np.ndarray,
        ancilla_lrc: np.ndarray | None = None,
    ) -> None:
        data_lrc[:] = True
        if ancilla_lrc is not None:
            ancilla_lrc[:] = True


@dataclass
class StaggeredLrcPolicy(LeakagePolicy):
    """Staggered Always-LRC: reset one interaction-graph colour group per round."""

    name: str = "staggered"
    include_ancillas: bool = True

    def prepare(self, code: StabilizerCode, noise: NoiseParams) -> None:
        super().prepare(code, noise)
        coloring = np.asarray(code.data_coloring, dtype=np.int64)
        self._num_groups = int(coloring.max()) + 1 if coloring.size else 1
        self._group_masks = [
            coloring == group for group in range(self._num_groups)
        ]
        ancilla_indices = np.arange(code.num_ancilla)
        self._ancilla_masks = [
            (ancilla_indices % self._num_groups) == group
            for group in range(self._num_groups)
        ]

    @property
    def emits_ancilla_lrc(self) -> bool:
        return self.include_ancillas

    def decide_into(
        self,
        ctx: SpeculationInput,
        data_lrc: np.ndarray,
        ancilla_lrc: np.ndarray | None = None,
    ) -> None:
        group = ctx.round_index % self._num_groups
        np.copyto(data_lrc, self._group_masks[group])
        if ancilla_lrc is not None:
            np.copyto(ancilla_lrc, self._ancilla_masks[group])

    @property
    def num_groups(self) -> int:
        """Number of colour groups in the round-robin schedule."""
        return self._num_groups


@dataclass
class MlrOnlyPolicy(LeakagePolicy):
    """Use only multi-level readout: treat data qubits next to MLR-flagged ancillas."""

    name: str = "mlr-only"
    uses_mlr: bool = True

    @property
    def emits_ancilla_lrc(self) -> bool:
        return False

    def decide_into(
        self,
        ctx: SpeculationInput,
        data_lrc: np.ndarray,
        ancilla_lrc: np.ndarray | None = None,
    ) -> None:
        if ctx.mlr_neighbor is None:
            data_lrc[:] = False
        else:
            np.copyto(data_lrc, ctx.mlr_neighbor)


@dataclass
class OraclePolicy(LeakagePolicy):
    """IDEAL reference: perfect, instantaneous knowledge of leaked data qubits.

    Parity-qubit leakage is handled by multi-level readout, as in the paper's
    IDEAL curves, so the oracle isolates the quality of data-qubit speculation.
    """

    name: str = "ideal"
    uses_mlr: bool = True

    @property
    def uses_mlr_neighbor(self) -> bool:
        return False

    @property
    def emits_ancilla_lrc(self) -> bool:
        return False

    def decide_into(
        self,
        ctx: SpeculationInput,
        data_lrc: np.ndarray,
        ancilla_lrc: np.ndarray | None = None,
    ) -> None:
        np.copyto(data_lrc, ctx.data_leaked)


# ------------------------------------------------------------------ #
# Policy registry
# ------------------------------------------------------------------ #
# Open-loop and reference policies register here; the ERASER/GLADIATOR
# closed-loop families are registered alongside so the registry is the one
# complete listing.  ``takes_config=True`` marks the graph-model-driven
# policies that accept the ``config=GraphModelConfig(...)`` keyword.
POLICIES.add("no-lrc", NoLrcPolicy,
             description="Never apply an LRC (unmitigated leakage)")
POLICIES.add("always-lrc", AlwaysLrcPolicy, aliases=("always",),
             description="Open-loop Always-LRC: every qubit, every round")
POLICIES.add("staggered", StaggeredLrcPolicy,
             description="Staggered Always-LRC: one colour group per round")
POLICIES.add("mlr-only", MlrOnlyPolicy,
             description="Multi-level readout on parity qubits only")
POLICIES.add("ideal", OraclePolicy,
             description="Oracle with perfect leakage knowledge (IDEAL)")
POLICIES.add("eraser", EraserPolicy,
             description="ERASER syndrome-history heuristic")
POLICIES.add("eraser+m", EraserMPolicy,
             description="ERASER with multi-level readout")
POLICIES.add("gladiator", GladiatorPolicy, takes_config=True,
             description="GLADIATOR graph-model speculation")
POLICIES.add("gladiator+m", GladiatorMPolicy, takes_config=True,
             description="GLADIATOR with multi-level readout")
POLICIES.add("gladiator-d", GladiatorDPolicy, takes_config=True,
             description="GLADIATOR-D (differential speculation)")
POLICIES.add("gladiator-d+m", GladiatorDMPolicy, takes_config=True,
             description="GLADIATOR-D with multi-level readout")


#: Canonical policy names, in registration order — a snapshot of the policy
#: registry taken at import time (so the stock listing is never hardcoded).
#: Components registered *after* import appear in ``POLICIES.names()`` but
#: not here; listings that must include third-party policies (the CLIs, the
#: config validator) read the registry directly.
POLICY_NAMES = tuple(POLICIES.names())


def make_policy(
    name: str,
    config: GraphModelConfig | None = None,
    **kwargs,
) -> LeakagePolicy:
    """Build a policy by its registered name (see :data:`POLICY_NAMES`).

    A thin lookup over :data:`repro.api.registry.POLICIES`: unknown names
    fail with a did-you-mean suggestion plus the full registered list, and
    third-party policies registered with
    :func:`repro.api.register_policy` are constructible here immediately.
    """
    entry = POLICIES.get(name)
    if entry.metadata.get("takes_config", False):
        return entry.obj(config=config or GraphModelConfig(), **kwargs)
    return entry.obj(**kwargs)
