"""Circuit-level noise model with leakage (Section 6 of the paper).

The model is parameterised by a single physical error rate ``p`` plus the
leakage ratio ``lr`` (so the leakage probability is ``p_leak = lr * p``) and
the multi-level-readout error factor ``mlr`` (readout error for the leaked
``|2>`` state is ``mlr * p``).  All remaining knobs default to the values
stated or implied by the paper:

* depolarising data error at the start of each round, probability ``p``;
* two-qubit depolarising error after each entangling gate, probability ``p``;
* measurement and reset errors, probability ``p``;
* environment- and gate-induced leakage, probability ``p_leak`` each;
* leakage mobility of 10%: a leaked qubit transports its leakage to the other
  operand of a CNOT with probability 0.1, otherwise the healthy operand picks
  up a uniformly random Pauli (the "leaked control => 50% bit flip" effect
  characterised on IBM hardware in Section 2.3);
* LRC gadgets add extra gate error and can themselves induce leakage; those
  rates belong to the gadget (:class:`repro.circuits.lrc.LrcGadget`), not
  to this container.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..api.registry import register_noise

__all__ = ["NoiseParams", "paper_noise", "ideal_noise"]


@dataclass(frozen=True)
class NoiseParams:
    """All noise knobs used by the leakage simulator.

    Attributes
    ----------
    p:
        Physical (non-leakage) error probability used for depolarisation,
        gate, measurement, reset and initialisation errors.
    leakage_ratio:
        ``lr`` in the paper; the per-opportunity leakage probability is
        ``p_leak = leakage_ratio * p``.
    mlr_error_factor:
        ``mlr`` in the paper; multi-level readout misclassifies a leaked
        ancilla with probability ``mlr_error_factor * p``.
    leakage_mobility:
        Probability that a CNOT with one leaked operand transports the
        leakage onto the other operand (default 10%).
    gate_error_factor:
        Multiplier on the two-qubit depolarising error applied after each
        entangling gate (the gate error is ``gate_error_factor * p``, capped
        at 0.5).  1.0 reproduces the paper's model; time-structured presets
        raise it during correlated burst windows.
    ancilla_reset_removes_leakage:
        Probability that the per-round ancilla measure-and-reset returns a
        leaked parity qubit to the computational subspace.  Parity qubits are
        measured every round, so their leakage is short-lived by default
        (1.0); data qubits have no such escape hatch, which is exactly why
        data-qubit leakage speculation is the hard problem the paper tackles.
    readout_leak_random:
        If True (default), a leaked qubit's standard two-level readout
        returns a uniformly random bit; if False it always reads ``1``.
    """

    p: float = 1e-3
    leakage_ratio: float = 0.1
    mlr_error_factor: float = 10.0
    leakage_mobility: float = 0.1
    gate_error_factor: float = 1.0
    ancilla_reset_removes_leakage: float = 1.0
    readout_leak_random: bool = True

    def __post_init__(self) -> None:
        for field_name in (
            "p",
            "leakage_ratio",
            "mlr_error_factor",
            "leakage_mobility",
            "gate_error_factor",
        ):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be non-negative, got {value}")
        if not 0 <= self.leakage_mobility <= 1:
            raise ValueError("leakage_mobility must lie in [0, 1]")
        if not 0 <= self.ancilla_reset_removes_leakage <= 1:
            raise ValueError("ancilla_reset_removes_leakage must lie in [0, 1]")
        if self.p > 0.5:
            raise ValueError("physical error rate p must be at most 0.5")

    # ------------------------------------------------------------------ #
    # Derived probabilities
    # ------------------------------------------------------------------ #
    @property
    def p_leak(self) -> float:
        """Per-opportunity leakage probability, ``lr * p``."""
        return self.leakage_ratio * self.p

    @property
    def mlr_error(self) -> float:
        """Probability that MLR misclassifies a leaked state, capped at 0.5."""
        return min(0.5, self.mlr_error_factor * self.p)

    @property
    def gate_error(self) -> float:
        """Two-qubit depolarising error per entangling gate, capped at 0.5."""
        return min(0.5, self.gate_error_factor * self.p)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    def with_(self, **changes) -> "NoiseParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Time structure (overridden by scheduled presets)
    # ------------------------------------------------------------------ #
    @property
    def is_time_structured(self) -> bool:
        """Whether the parameters vary from round to round."""
        return False

    def params_for_round(self, round_index: int) -> "NoiseParams":
        """The effective (flat) parameters of one QEC round.

        The base model is stationary, so this returns ``self``.  Scheduled
        presets (:mod:`repro.noise.schedule`) override it with a
        *deterministic* function of the round index; the returned object
        must keep the zero-ness of every probability identical to the base
        parameters: a schedule rescales noise channels, it never switches
        one on or off.
        """
        return self

    def describe(self) -> str:
        """Short human-readable parameter summary."""
        return (
            f"p={self.p:g}, lr={self.leakage_ratio:g} (p_leak={self.p_leak:g}), "
            f"mlr={self.mlr_error_factor:g}, mobility={self.leakage_mobility:g}"
        )


@register_noise("paper", rate_parameters=True,
                description="The paper's default error profile (mlr factor 10)")
def paper_noise(p: float = 1e-3, leakage_ratio: float = 0.1) -> NoiseParams:
    """The default error profile used throughout the paper's evaluation."""
    return NoiseParams(p=p, leakage_ratio=leakage_ratio, mlr_error_factor=10.0)


@register_noise("ideal", description="Noiseless profile (p=0, no leakage)")
def ideal_noise() -> NoiseParams:
    """A noiseless profile, useful for testing circuit plumbing."""
    return NoiseParams(p=0.0, leakage_ratio=0.0)


# Fully explicit parameters: every knob comes through ``NoiseConfig.overrides``
# (the sweep engine serialises arbitrary NoiseParams this way, so any noise
# point is expressible — and cache-keyable — as plain config data).
register_noise("custom", description="NoiseParams built entirely from overrides")(
    NoiseParams
)
