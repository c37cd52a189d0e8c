"""Pauli-frame plus leakage-flag state for batched circuit simulation.

The simulator tracks, for every shot in a batch, the X and Z components of
the Pauli frame on each data and ancilla qubit plus a per-qubit boolean
"leaked" flag.  Circuit-level Pauli noise is exact in this representation;
leakage is tracked classically, exactly as in the ERASER/GLADIATOR artifacts
(leaked qubits stop participating in normal gate action and instead
randomise their partners), which is the behavioural model calibrated on IBM
hardware in Section 2.3 of the paper.

Every noise channel draws from a :class:`~repro.sim.draws.DrawSource` (the
run's sparse draw contract) as uint8 masks and applies them with bitwise
kernels on uint8 views of the bool planes (bool arrays are byte-backed 0/1,
so the views are free).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .draws import DrawSource

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
        self, probability: float, source: DrawSource, scratch: ChannelScratch
    ) -> None:
        """Apply single-qubit depolarising noise to every data qubit.

        Draws the hit row, then the Pauli choice (X, Y or Z) at hit sites.
        """
        if probability <= 0:
            return
        hit = source.mask(probability, self.data_x.shape)
        pauli = source.choices(hit, 0, 3)
        np.not_equal(pauli, 2, out=scratch.t1)  # X or Y flips the X frame
        scratch.t1 &= hit
        self.data_x.view(np.uint8)[...] ^= scratch.t1
        np.not_equal(pauli, 0, out=scratch.t1)  # Y or Z flips the Z frame
        scratch.t1 &= hit
        self.data_z.view(np.uint8)[...] ^= scratch.t1

    def inject_data_leakage(
        self, probability: float, source: DrawSource, scratch: ChannelScratch
    ) -> int:
        """Leak data qubits independently with ``probability``; return the
        number of new leaks."""
        return self._inject_leakage(self.data_leaked, probability, source, scratch)

    def inject_ancilla_leakage(
        self, probability: float, source: DrawSource, scratch: ChannelScratch
    ) -> int:
        """Leak ancilla qubits independently with ``probability``."""
        return self._inject_leakage(self.anc_leaked, probability, source, scratch)

    @staticmethod
    def _inject_leakage(
        leaked: np.ndarray, probability: float, source: DrawSource, scratch: ChannelScratch
    ) -> int:
        if probability <= 0:
            return 0
        mask = source.mask(probability, leaked.shape)
        leaked_u8 = leaked.view(np.uint8)
        np.bitwise_xor(leaked_u8, 1, out=scratch.t1)
        np.bitwise_and(mask, scratch.t1, out=scratch.t2)  # new leaks
        leaked_u8 |= scratch.t2
        return int(np.count_nonzero(scratch.t2))

    def reset_ancillas(
        self,
        flip_probability: float,
        leakage_removal_probability: float,
        source: DrawSource,
        scratch: ChannelScratch,
    ) -> None:
        """Reset every ancilla frame; imperfect resets start with a Pauli flip.

        ``leakage_removal_probability`` controls how often the measure-and-
        reset also returns a leaked parity qubit to the computational
        subspace (parity qubits are measured every round, so by default
        their leakage survives at most one round).
        """
        self.anc_x[:] = False
        self.anc_z[:] = False
        shape = self.anc_x.shape
        if flip_probability > 0:
            self.anc_x.view(np.uint8)[...] ^= source.mask(flip_probability, shape)
            self.anc_z.view(np.uint8)[...] ^= source.mask(flip_probability, shape)
        if leakage_removal_probability > 0:
            mask = source.mask(leakage_removal_probability, shape)
            leaked_u8 = self.anc_leaked.view(np.uint8)
            np.bitwise_and(mask, leaked_u8, out=scratch.t1)  # cleared
            leaked_u8 ^= scratch.t1  # cleared is a subset of leaked
