"""Preallocated per-run scratch memory for the simulator hot path.

One QEC round of the baseline simulator allocated ~30 fresh ``(shots, n)``
arrays: every Bernoulli draw materialised a new float64 array, every chained
boolean expression (``a & b & ~c``) two intermediate temporaries, and every
entangling layer a full set of gather copies.  At the 100d-round scale the
paper's leakage-population sweeps run at (Section 6, "Scaling Simulations
using Leakage Sampling"), allocator traffic and redundant passes over
round-shaped arrays — not arithmetic — dominated wall-clock.

:class:`RoundWorkspace` hoists the buffers out of the round loop: the
round-shaped temporaries are allocated once per
:meth:`~repro.sim.LeakageSimulator.run_incremental` call and reused every
round.  On the NumPy path random draws land in buffers the run's
:class:`~repro.sim.draws.DrawSource` owns (or, for an entangling layer's
rows, in the layer scratch below); the compiled round draws its rows into
event buffers its :class:`~repro.sim._ckernels.RoundPlan` owns.

Two further representations live here because they make the hot loops much
cheaper than the public boolean layout:

* ``data_pack`` / ``anc_pack`` are uint8 planes packing each register's
  Pauli frame and leakage flag as ``x | z << 1 | leaked << 2``.  With the
  compiled kernels they *are* the run's state: the simulator packs them
  once, every round (:attr:`RoundWorkspace.round_plan`, one
  :func:`~repro.sim._ckernels.qec_round` call) updates them in place, and
  they are unpacked into the boolean ``SimState`` for the final readout;
  the call writes bool copies of the leak flags only for a caller that
  reads them (the NumPy speculation step, pattern recording).  The NumPy
  path packs them from the boolean state before the entangling layers and
  unpacks them right after, so its other phases (and every policy) keep
  seeing plain ``bool`` arrays; there the CNOT layers gather/scatter
  *one* packed array per register instead of six boolean ones, and apply
  the two-qubit Pauli-pair error with two bitwise ops instead of eight.
* ``det_f32`` / ``counts_f32`` / ``pat_f32`` back the NumPy pattern
  extraction, which is two small float32 matmuls (member-count GEMM,
  OR-threshold, position-weight GEMM) instead of per-group
  gather/shift/scatter loops.  When the compiled round speculates they
  are allocated but never touched.

Nothing in here is shared across ``run_incremental`` calls: a fresh
workspace per call is what keeps concurrent generators (e.g. multiple
:class:`repro.realtime.SimulatorStream` instances over distinct simulators)
isolated without locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .state import ChannelScratch

if TYPE_CHECKING:
    from ._ckernels import RoundPlan

__all__ = ["LayerWorkspace", "RoundWorkspace"]


@dataclass
class LayerWorkspace:
    """Scratch for one entangling layer of ``gates`` CNOTs.

    Layers with the same gate count share one instance: a layer's buffers
    are dead once its write-back completes, so reuse across layers is safe.
    All masks are uint8 holding 0/1 (the packed-plane algebra is bitwise).
    Only the NumPy path uses them.
    """

    ld: np.ndarray  # original data-leak flags (0/1)
    la: np.ndarray  # original ancilla-leak flags (0/1)
    hz: np.ndarray  # healthy & Z-type-column mask
    hnz: np.ndarray  # healthy & X-type-column mask
    t: np.ndarray  # general temporary
    m1: np.ndarray  # mask slots (scramble masks, gate-hit, new leaks, ...)
    m2: np.ndarray
    m4: np.ndarray
    m5: np.ndarray

    @classmethod
    def allocate(cls, shots: int, gates: int) -> "LayerWorkspace":
        """Allocate all buffers for a ``(shots, gates)`` layer."""
        u8 = lambda: np.empty((shots, gates), dtype=np.uint8)  # noqa: E731
        return cls(
            ld=u8(), la=u8(), hz=u8(), hnz=u8(),
            t=u8(), m1=u8(), m2=u8(), m4=u8(), m5=u8(),
        )


class RoundWorkspace:
    """Every round-shaped temporary of one simulator run, allocated once.

    Lifetimes (audited in the simulator, pinned by the no-aliasing tests):

    * ``data_lrc`` / ``anc_lrc`` double as last round's pending-LRC input and
      this round's policy-decision output — the pending mask is fully
      consumed in phase 1 before the policy overwrites it in phase 6.
    * ``pattern_a`` / ``pattern_b`` ping-pong between "current" and
      "previous" round patterns (two-round policies read both), swapped by
      the simulator after each round.
    * ``measurement`` is reference-swapped with ``SimState.prev_measurement``
      each round, so consecutive measurements alternate between two buffers
      without copying.
    * ``pending_data_lrcs`` counts the LRCs in ``data_lrc``'s decision, read
      back from the speculation step's counts instead of recounted.
    * ``anc_lrc`` is a single *frozen* (non-writable) zeros array when the
      policy declares ``emits_ancilla_lrc = False`` — the per-round
      ``np.zeros`` of the baseline hoisted to one allocation per run.
    """

    #: Becomes ``True`` (as an instance attribute) once :meth:`release` runs;
    #: live workspaces read the class-level ``False``.
    released: bool = False

    #: The compiled round's run-constant plan, set by the simulator when
    #: the kernels are available; ``None`` runs the NumPy per-phase path.
    round_plan: RoundPlan | None = None

    def __init__(
        self,
        shots: int,
        num_data: int,
        num_ancilla: int,
        layer_is_z: list[np.ndarray],
        num_pattern_groups: int,
        pattern_needs_threshold: bool,
        uses_mlr: bool,
        emits_ancilla_lrc: bool,
        uses_mlr_neighbor: bool = True,
    ) -> None:
        self.shots = shots
        # Per-channel scratch (two uint8 temporaries).
        self.data = ChannelScratch.allocate(shots, num_data)
        self.anc = ChannelScratch.allocate(shots, num_ancilla)
        # Pending-LRC / decision buffers.
        self.data_lrc = np.zeros((shots, num_data), dtype=bool)
        if emits_ancilla_lrc:
            self.anc_lrc = np.zeros((shots, num_ancilla), dtype=bool)
        else:
            frozen = np.zeros((shots, num_ancilla), dtype=bool)
            frozen.flags.writeable = False
            self.anc_lrc = frozen
        self.emits_ancilla_lrc = emits_ancilla_lrc
        # Speculation-pattern ping-pong (current / previous round).  Patterns
        # are at most 20 bits wide (the GEMM's bound), and lookup keys are
        # built in int64, so int32 holds them.
        self.pattern_a = np.zeros((shots, num_data), dtype=np.int32)
        self.pattern_b = np.zeros((shots, num_data), dtype=np.int32)
        # Measurement round-trip.
        self.measurement = np.empty((shots, num_ancilla), dtype=bool)
        self.detectors = np.empty((shots, num_ancilla), dtype=bool)
        self.mlr_flags = (
            np.empty((shots, num_ancilla), dtype=bool) if uses_mlr else None
        )
        self.mlr_neighbor = (
            np.empty((shots, num_data), dtype=bool)
            if uses_mlr and uses_mlr_neighbor
            else None
        )
        # The compiled round's counts: data LRCs, ancilla LRCs and new leaks,
        # then the speculation step's (false positives, false negatives,
        # true positives, leaked data qubits, leaked ancillas), which the
        # NumPy step writes too; and the LRCs its decision requests.
        self.round_counts = np.zeros(8, dtype=np.int64)
        self.speculate_counts = self.round_counts[3:]
        self.pending_data_lrcs = 0
        # Phase-boundary ticks of a traced round (ends of noise, CNOT
        # layers, measurement, speculation; the compiled round stamps the
        # first three).
        self.ticks = np.zeros(4, dtype=np.int64)
        # Packed Pauli-frame planes (x | z<<1 | leaked<<2) and the uint8
        # shift scratch the NumPy path (un)packs them with around the
        # entangling layers.
        self.data_pack = np.empty((shots, num_data), dtype=np.uint8)
        self.anc_pack = np.empty((shots, num_ancilla), dtype=np.uint8)
        self.data_u8 = np.empty((shots, num_data), dtype=np.uint8)
        self.anc_u8 = np.empty((shots, num_ancilla), dtype=np.uint8)
        # Pattern-extraction GEMM operands.
        self.det_f32 = np.empty((shots, num_ancilla), dtype=np.float32)
        self.pat_f32 = np.empty((shots, num_data), dtype=np.float32)
        self.counts_f32 = (
            np.empty((shots, num_pattern_groups), dtype=np.float32)
            if pattern_needs_threshold
            else None
        )
        # One LayerWorkspace per distinct gate count, shared between layers,
        # plus a full-size 0/1 basis mask per layer: materialised columns
        # beat a broadcast (1, gates) row inside the bitwise kernels.
        by_gates: dict[int, LayerWorkspace] = {}
        self.layers: list[LayerWorkspace | None] = []
        self.layer_is_z_full: list[np.ndarray | None] = []
        for is_z in layer_is_z:
            gates = int(is_z.shape[0])
            if not gates:
                self.layers.append(None)
                self.layer_is_z_full.append(None)
                continue
            if gates not in by_gates:
                by_gates[gates] = LayerWorkspace.allocate(shots, gates)
            self.layers.append(by_gates[gates])
            full = np.empty((shots, gates), dtype=np.uint8)
            full[:] = is_z.astype(np.uint8)[np.newaxis, :]
            self.layer_is_z_full.append(full)

    def release(self) -> None:
        """Drop every pinned buffer so a half-consumed run frees its memory.

        :meth:`~repro.sim.LeakageSimulator.run_incremental` calls this from
        its ``finally`` block: a consumer that ``close()``s the generator
        mid-stream would otherwise keep the entire round-shaped scratch set
        alive for as long as it holds the (exhausted) generator object.
        Clearing the instance ``__dict__`` severs every buffer reference in
        one step; afterwards only :attr:`released` is readable.
        """
        self.__dict__.clear()
        self.released = True
