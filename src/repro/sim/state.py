"""Pauli-frame plus leakage-flag state for batched circuit simulation.

The simulator tracks, for every shot in a batch, the X and Z components of
the Pauli frame on each data and ancilla qubit plus a per-qubit boolean
"leaked" flag.  Circuit-level Pauli noise is exact in this representation;
leakage is tracked classically, exactly as in the ERASER/GLADIATOR artifacts
(leaked qubits stop participating in normal gate action and instead
randomise their partners), which is the behavioural model calibrated on IBM
hardware in Section 2.3 of the paper.

Every noise channel comes in two bit-identical flavours:

* the historical allocating path (``rng=...``): fresh arrays per draw,
  kept as the plain-NumPy reference semantics;
* an in-place path (``source=...``, ``scratch=...``) that consumes
  pre-thresholded uint8 masks from a :mod:`repro.sim.draws` source and
  applies them with bitwise kernels on uint8 views of the bool planes
  (bool arrays are byte-backed 0/1, so the views are free).

Both consume the same RNG values in the same order — the in-place path only
changes *where* draws land and *who* generates them, never *what* is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ChannelScratch", "SimState"]


@dataclass
class ChannelScratch:
    """Two reusable uint8 mask temporaries for one register's channels."""

    t1: np.ndarray  # uint8 (shots, n)
    t2: np.ndarray  # uint8 (shots, n)

    @classmethod
    def allocate(cls, shots: int, n: int) -> "ChannelScratch":
        """Allocate scratch for an ``n``-qubit register of ``shots`` shots."""
        return cls(
            t1=np.empty((shots, n), dtype=np.uint8),
            t2=np.empty((shots, n), dtype=np.uint8),
        )


@dataclass
class SimState:
    """Batched Pauli-frame + leakage state.

    All arrays have shape ``(shots, num_data)`` or ``(shots, num_ancilla)``
    and dtype ``bool``.
    """

    shots: int
    num_data: int
    num_ancilla: int
    data_x: np.ndarray = field(init=False)
    data_z: np.ndarray = field(init=False)
    data_leaked: np.ndarray = field(init=False)
    anc_x: np.ndarray = field(init=False)
    anc_z: np.ndarray = field(init=False)
    anc_leaked: np.ndarray = field(init=False)
    prev_measurement: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.data_x = np.zeros((self.shots, self.num_data), dtype=bool)
        self.data_z = np.zeros((self.shots, self.num_data), dtype=bool)
        self.data_leaked = np.zeros((self.shots, self.num_data), dtype=bool)
        self.anc_x = np.zeros((self.shots, self.num_ancilla), dtype=bool)
        self.anc_z = np.zeros((self.shots, self.num_ancilla), dtype=bool)
        self.anc_leaked = np.zeros((self.shots, self.num_ancilla), dtype=bool)
        self.prev_measurement = np.zeros((self.shots, self.num_ancilla), dtype=bool)

    # ------------------------------------------------------------------ #
    # Noise channels (vectorised over shots and qubits)
    # ------------------------------------------------------------------ #
    def depolarize_data(
        self,
        probability: float,
        rng: np.random.Generator | None = None,
        source=None,
        scratch: ChannelScratch | None = None,
    ) -> None:
        """Apply single-qubit depolarising noise to every data qubit."""
        if probability <= 0:
            return
        if source is None:
            assert rng is not None
            hit = rng.random(self.data_x.shape) < probability
            # Choose uniformly among X, Y, Z when the channel fires.
            pauli = rng.integers(0, 3, size=self.data_x.shape)
            self.data_x ^= hit & (pauli != 2)  # X or Y flips the X frame
            self.data_z ^= hit & (pauli != 0)  # Y or Z flips the Z frame
            return
        assert scratch is not None
        hit = source.next()
        pauli = source.next()
        np.not_equal(pauli, 2, out=scratch.t1)
        scratch.t1 &= hit
        self.data_x.view(np.uint8)[...] ^= scratch.t1
        np.not_equal(pauli, 0, out=scratch.t1)
        scratch.t1 &= hit
        self.data_z.view(np.uint8)[...] ^= scratch.t1

    def inject_data_leakage(
        self,
        probability: float,
        rng: np.random.Generator | None = None,
        source=None,
        scratch: ChannelScratch | None = None,
    ) -> np.ndarray | int:
        """Leak data qubits independently with ``probability``.

        The allocating path returns the new-leak mask (baseline semantics);
        the source path applies it in place and returns the event count.
        """
        return self._inject_leakage(self.data_leaked, probability, rng, source, scratch)

    def inject_ancilla_leakage(
        self,
        probability: float,
        rng: np.random.Generator | None = None,
        source=None,
        scratch: ChannelScratch | None = None,
    ) -> np.ndarray | int:
        """Leak ancilla qubits independently with ``probability``."""
        return self._inject_leakage(self.anc_leaked, probability, rng, source, scratch)

    def _inject_leakage(
        self,
        leaked: np.ndarray,
        probability: float,
        rng: np.random.Generator | None,
        source,
        scratch: ChannelScratch | None,
    ) -> np.ndarray | int:
        if probability <= 0:
            return 0 if source is not None else np.zeros_like(leaked)
        if source is None:
            assert rng is not None
            new_leak = (rng.random(leaked.shape) < probability) & ~leaked
            leaked |= new_leak
            return new_leak
        assert scratch is not None
        mask = source.next()
        leaked_u8 = leaked.view(np.uint8)
        np.bitwise_xor(leaked_u8, 1, out=scratch.t1)
        np.bitwise_and(mask, scratch.t1, out=scratch.t2)  # new leaks
        leaked_u8 |= scratch.t2
        return int(np.count_nonzero(scratch.t2))

    def reset_ancillas(
        self,
        flip_probability: float,
        rng: np.random.Generator | None = None,
        leakage_removal_probability: float = 1.0,
        source=None,
        scratch: ChannelScratch | None = None,
    ) -> None:
        """Reset every ancilla frame; imperfect resets start with a Pauli flip.

        ``leakage_removal_probability`` controls how often the measure-and-
        reset also returns a leaked parity qubit to the computational
        subspace (parity qubits are measured every round, so by default
        their leakage survives at most one round).
        """
        self.anc_x[:] = False
        self.anc_z[:] = False
        if source is None:
            assert rng is not None
            if flip_probability > 0:
                self.anc_x ^= rng.random(self.anc_x.shape) < flip_probability
                self.anc_z ^= rng.random(self.anc_z.shape) < flip_probability
            if leakage_removal_probability > 0:
                cleared = self.anc_leaked & (
                    rng.random(self.anc_leaked.shape) < leakage_removal_probability
                )
                self.anc_leaked &= ~cleared
            return
        assert scratch is not None
        if flip_probability > 0:
            mask = source.next()
            self.anc_x.view(np.uint8)[...] ^= mask
            mask = source.next()
            self.anc_z.view(np.uint8)[...] ^= mask
        if leakage_removal_probability > 0:
            mask = source.next()
            leaked_u8 = self.anc_leaked.view(np.uint8)
            np.bitwise_and(mask, leaked_u8, out=scratch.t1)  # cleared
            leaked_u8 ^= scratch.t1  # cleared is a subset of leaked

    def leaked_fraction(self) -> float:
        """Fraction of data qubits currently leaked, averaged over shots."""
        return float(self.data_leaked.mean())

    def leaked_counts(self) -> np.ndarray:
        """Per-shot count of currently leaked data qubits."""
        return self.data_leaked.sum(axis=1)
