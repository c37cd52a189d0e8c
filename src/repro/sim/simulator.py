"""Leakage-aware QEC memory simulator.

Executes repeated syndrome-extraction rounds of a CSS code under the
circuit-level noise model of Section 6 (Pauli noise + leakage injection,
leaked-qubit CNOT malfunction, leakage transport, multi-level readout) while
a leakage-mitigation policy decides where to insert Leakage Reduction
Circuits.  Everything is vectorised over a batch of shots with NumPy, which
is what makes the paper's 100d-round sweeps tractable in pure Python.

The per-round hot path runs entirely inside a preallocated
:class:`~repro.sim.workspace.RoundWorkspace`, so a round performs no
round-shaped allocations, and every variate comes from a
:class:`~repro.sim.draws.DrawSource` under the sparse draw contract (only
the variates the round consumes, in call order).  With the compiled
kernels (:mod:`repro.sim._ckernels`) a run packs its state once into the
``x | z<<1 | leaked<<2`` uint8 planes, which stay resident until the final
readout, and each round is one call: pending LRCs, noise, every
entangling layer, measurement and MLR and, for a lookup policy, the
speculation step (detectors, patterns, table lookup, accuracy counts),
with every row applied at its drawn events.  Any other policy gets the
outcomes and the leak flags it reads and runs the NumPy speculation step
(pattern GEMM + ``decide_into``).  Without the kernels the round runs
phase by phase in NumPy on bool state (uint8 masks, in-place bitwise
algebra, the planes packed around the entangling layers); that path is
the kernels' oracle.  Runs are bit-for-bit reproducible per seed and
``ENGINE_VERSION``, with the kernels on or off
(``tests/test_sim_equivalence.py`` pins both modes and checks the engine
statistically against the frozen dense-contract simulator in
``tests/reference_sim.py``).

The simulator reports the evaluation metrics of Section 7: data-leakage
population, LRC usage, false positives/negatives, and (optionally) the full
detector record needed to decode a memory experiment into a logical error
rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Generator as GeneratorType

import numpy as np

from ..circuits.lrc import LrcGadget, default_lrc
from ..circuits.schedule import RoundSchedule
from ..codes.base import StabilizerCode
from ..core.speculator import LeakagePolicy, LookupPolicy, SpeculationInput
from ..noise import NoiseParams
from ..obs.trace import Tracer, current_tracer
from . import _ckernels
from .draws import DrawSource, round_rates
from .state import ChannelScratch, SimState
from .workspace import RoundWorkspace

__all__ = ["SimulatorOptions", "RoundRecord", "RunResult", "LeakageSimulator"]

#: Phase labels of the per-round breakdown (``tools/profile_sim.py``).
PHASE_NAMES = ("noise", "cnot_layers", "measure", "speculate", "bookkeeping")


def _pack_register(
    pack: np.ndarray, x: np.ndarray, z: np.ndarray, leaked: np.ndarray, tmp: np.ndarray
) -> None:
    """Pack one register's bool planes into ``x | z<<1 | leaked<<2`` (uint8).

    Bool arrays are byte-backed 0/1, so their uint8 views feed the bitwise
    ops without any copies.
    """
    np.copyto(pack, x.view(np.uint8))
    np.left_shift(z.view(np.uint8), 1, out=tmp)
    pack |= tmp
    np.left_shift(leaked.view(np.uint8), 2, out=tmp)
    pack |= tmp


def _unpack_register(
    pack: np.ndarray, x: np.ndarray, z: np.ndarray, leaked: np.ndarray, tmp: np.ndarray
) -> None:
    """Split a packed uint8 plane back into the three bool arrays."""
    np.bitwise_and(pack, 1, out=x.view(np.uint8))
    np.right_shift(pack, 1, out=tmp)
    np.bitwise_and(tmp, 1, out=z.view(np.uint8))
    np.right_shift(pack, 2, out=leaked.view(np.uint8))


@dataclass(frozen=True)
class SimulatorOptions:
    """Run-level switches of the leakage simulator.

    Attributes
    ----------
    leakage_sampling:
        Start every shot with one uniformly chosen leaked data qubit
        (Section 6, "Scaling Simulations using Leakage Sampling"); this is
        how the paper makes 100d-round evaluations affordable.
    record_detectors:
        Keep the full Z-detector history needed for decoding; disable for
        long leakage-population sweeps to save memory (the paper's artifact
        does exactly this by commenting out ``stim::write_table_data``).
    record_patterns:
        Keep a histogram of observed speculation patterns, split by whether
        the data qubit was genuinely leaked (used by the Figure 5 / Figure 8
        pattern-breakdown benchmarks).
    """

    leakage_sampling: bool = False
    record_detectors: bool = False
    record_patterns: bool = False


@dataclass
class RoundRecord:
    """Aggregate statistics of one QEC round, averaged over the shot batch."""

    round_index: int
    data_leakage_population: float
    ancilla_leakage_population: float
    lrcs_applied: float
    false_positives: float
    false_negatives: float
    true_positives: float


@dataclass
class RunResult:
    """Everything produced by one simulator run."""

    code_name: str
    policy_name: str
    shots: int
    rounds: int
    noise: NoiseParams
    round_records: list[RoundRecord]
    total_data_lrcs: int
    total_ancilla_lrcs: int
    total_false_positives: int
    total_false_negatives: int
    total_true_positives: int
    total_leakage_events: int
    final_data_leaked: np.ndarray
    detector_history: np.ndarray | None = None
    final_detectors: np.ndarray | None = None
    observable_flips: np.ndarray | None = None
    pattern_histogram: dict[int, dict[int, tuple[int, int]]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Derived metrics (Section 7 of the paper)
    # ------------------------------------------------------------------ #
    @property
    def dlp_per_round(self) -> np.ndarray:
        """Data-leakage population after each round (fraction of data qubits)."""
        return np.array([r.data_leakage_population for r in self.round_records])

    @property
    def mean_dlp(self) -> float:
        """Average data-leakage population over the whole run."""
        return float(self.dlp_per_round.mean()) if self.round_records else 0.0

    @property
    def final_dlp(self) -> float:
        """Data-leakage population at the end of the run (equilibrium estimate)."""
        return float(self.final_data_leaked.mean())

    @property
    def lrcs_per_round(self) -> float:
        """Average number of data-qubit LRCs applied per round per shot."""
        if not self.rounds or not self.shots:
            return 0.0
        return self.total_data_lrcs / (self.rounds * self.shots)

    @property
    def false_positives_per_round(self) -> float:
        """Average unnecessary LRCs per round per shot."""
        if not self.rounds or not self.shots:
            return 0.0
        return self.total_false_positives / (self.rounds * self.shots)

    @property
    def false_negatives_per_round(self) -> float:
        """Average undetected leaked data qubits per round per shot."""
        if not self.rounds or not self.shots:
            return 0.0
        return self.total_false_negatives / (self.rounds * self.shots)

    @property
    def speculation_inaccuracy(self) -> float:
        """Combined FP + FN rate per round per shot (Table 4)."""
        return self.false_positives_per_round + self.false_negatives_per_round

    def summary(self) -> dict[str, float | int | str]:
        """Flat dictionary of headline metrics, convenient for tables.

        Values mix types: ``policy`` is the policy's display name, ``shots``
        / ``rounds`` / ``total_leakage_events`` are exact integer counts, and
        the remaining metrics are per-round floats.
        """
        return {
            "policy": self.policy_name,
            "shots": self.shots,
            "rounds": self.rounds,
            "mean_dlp": self.mean_dlp,
            "final_dlp": self.final_dlp,
            "lrcs_per_round": self.lrcs_per_round,
            "fp_per_round": self.false_positives_per_round,
            "fn_per_round": self.false_negatives_per_round,
            "speculation_inaccuracy": self.speculation_inaccuracy,
            "total_leakage_events": self.total_leakage_events,
        }


class LeakageSimulator:
    """Batched leakage-aware simulator of repeated QEC rounds."""

    def __init__(
        self,
        code: StabilizerCode,
        noise: NoiseParams,
        policy: LeakagePolicy,
        gadget: LrcGadget | None = None,
        options: SimulatorOptions | None = None,
        seed: int = 0,
    ) -> None:
        self.code = code
        self.noise = noise
        self.policy = policy
        self.gadget = gadget or default_lrc()
        self.options = options or SimulatorOptions()
        self.rng = np.random.default_rng(seed)
        self.schedule = RoundSchedule(code)
        self.schedule.validate()
        self.policy.prepare(code, noise)
        # Run-constant gadget rates, hoisted out of the round loop.
        self._lrc_gate_error = self.gadget.gate_error(noise)
        self._lrc_induced_leak = self.gadget.induced_leakage(noise)
        self._round_tracer: Tracer | None = None
        self._build_gather_structures()

    # ------------------------------------------------------------------ #
    # Precomputed index structures
    # ------------------------------------------------------------------ #
    def _build_gather_structures(self) -> None:
        code = self.code
        # Per entangling layer: ancilla / data indices and basis flags.
        self._slot_anc: list[np.ndarray] = []
        self._slot_data: list[np.ndarray] = []
        self._slot_is_z: list[np.ndarray] = []
        for layer in self.schedule.slots:
            self._slot_anc.append(np.array([op.stabilizer for op in layer], dtype=np.int64))
            self._slot_data.append(np.array([op.data_qubit for op in layer], dtype=np.int64))
            self._slot_is_z.append(np.array([op.basis == "Z" for op in layer], dtype=bool))
        # Basis flag per ancilla (True for Z-type stabilizers).
        self._anc_is_z = np.array([s.basis == "Z" for s in code.stabilizers], dtype=bool)
        self._z_stab_indices = np.array(
            [s.index for s in code.z_stabilizers], dtype=np.int64
        )
        self._x_stab_indices = np.nonzero(~self._anc_is_z)[0]
        # Per-ancilla bit shift selecting the measured plane from the packed
        # uint8 representation: bit 0 (X frame) for Z-type checks, bit 1
        # (Z frame) for X-type checks.
        self._measure_shift_row = np.where(self._anc_is_z, 0, 1).astype(np.uint8)[
            np.newaxis, :
        ]
        # Speculation-pattern gather structure: for every bit position and
        # group size, the data qubits having such a group and the ancillas in it.
        self._max_width = max(code.pattern_widths)
        gather: dict[tuple[int, int], tuple[list[int], list[tuple[int, ...]]]] = {}
        for qubit, groups in enumerate(code.speculation_groups):
            for position, group in enumerate(groups):
                key = (position, len(group.stabilizers))
                gather.setdefault(key, ([], []))[0].append(qubit)
                gather[key][1].append(group.stabilizers)
        self._pattern_gather: list[tuple[int, np.ndarray, np.ndarray]] = []
        for (position, _), (qubits, stab_groups) in sorted(gather.items()):
            self._pattern_gather.append(
                (position, np.array(qubits, dtype=np.int64), np.array(stab_groups, dtype=np.int64))
            )
        # GEMM formulation of the pattern extraction: one float32 matmul
        # counts the flipped members of every (qubit, position) group, a
        # threshold turns counts into OR flags, and a second matmul places
        # ``2**position`` weights per qubit.  When every group has a single
        # member (surface codes) the two matrices collapse into one and the
        # threshold disappears.  float32 is exact here: counts are bounded by
        # the stabilizer degree and weights by ``2**max_width`` (both far
        # below 2**24).
        if self._max_width > 20:  # pragma: no cover - no such code family yet
            raise NotImplementedError(
                "pattern widths above 20 bits would overflow the float32 "
                "pattern-extraction GEMM"
            )
        num_groups = sum(len(groups) for groups in code.speculation_groups)
        members = np.zeros((code.num_ancilla, num_groups), dtype=np.float32)
        weights = np.zeros((num_groups, code.num_data), dtype=np.float32)
        column = 0
        single_member = True
        for qubit, groups in enumerate(code.speculation_groups):
            for position, group in enumerate(groups):
                for stab in group.stabilizers:
                    members[stab, column] = 1.0
                weights[column, qubit] = float(1 << position)
                single_member &= len(group.stabilizers) == 1
                column += 1
        self._pattern_num_groups = num_groups
        self._pattern_single_member = single_member
        if single_member:
            self._pattern_matrix = members @ weights
            self._pattern_members = None
            self._pattern_weights = None
        else:
            self._pattern_matrix = None
            self._pattern_members = members
            self._pattern_weights = weights
        # The same groups as fixed slots for the compiled speculation step:
        # (qubit, position, member) ancillas, padded with ``num_ancilla``,
        # which the kernel reads as a detector that never fires.
        group_size = max(stab_groups.shape[1] for _, _, stab_groups in self._pattern_gather)
        self._pattern_slots = np.full(
            (code.num_data, self._max_width, group_size), code.num_ancilla, dtype=np.int32
        )
        for position, qubits, stab_groups in self._pattern_gather:
            self._pattern_slots[qubits, position, : stab_groups.shape[1]] = stab_groups
        # Round 0 defines no X-stabilizer detector (see ``_speculate``).
        self._round0_keep = np.ones(code.num_ancilla, dtype=np.uint8)
        self._round0_keep[self._x_stab_indices] = 0
        # Adjacent-ancilla structure for MLR neighbour flags, grouped by
        # count.
        neighbor_lists = [
            np.array([stab for stab, _ in code.data_adjacency[q]], dtype=np.int64)
            for q in range(code.num_data)
        ]
        by_count: dict[int, tuple[list[int], list[np.ndarray]]] = {}
        for qubit, ancillas in enumerate(neighbor_lists):
            by_count.setdefault(len(ancillas), ([], []))[0].append(qubit)
            by_count[len(ancillas)][1].append(ancillas)
        self._neighbor_gather = [
            (np.array(qubits, dtype=np.int64), np.stack(ancilla_rows))
            for qubits, ancilla_rows in by_count.values()
        ]
        # Data qubits grouped by pattern width, in ascending width order,
        # for the bincount pattern accounting.  (A sorted set, not
        # np.unique, which imports numpy.ma.)
        widths = np.asarray(code.pattern_widths)
        self._width_groups = [
            (width, np.nonzero(widths == width)[0]) for width in sorted(set(code.pattern_widths))
        ]
        # Z-stabilizer support matrix for the final data-readout detectors.
        self._z_support = code.parity_check_z.astype(bool)
        self._z_support_t_u8 = self._z_support.T.astype(np.uint8)
        self._logical_z_support = code.logical_z.astype(bool)

    def _make_workspace(self, shots: int) -> RoundWorkspace:
        """Allocate the per-run workspace matching this code/schedule/policy."""
        return RoundWorkspace(
            shots=shots,
            num_data=self.code.num_data,
            num_ancilla=self.code.num_ancilla,
            layer_is_z=self._slot_is_z,
            num_pattern_groups=self._pattern_num_groups,
            pattern_needs_threshold=not self._pattern_single_member,
            uses_mlr=self.policy.uses_mlr,
            uses_mlr_neighbor=self.policy.uses_mlr_neighbor,
            emits_ancilla_lrc=self.policy.emits_ancilla_lrc,
        )

    def _speculate_plan(self) -> _ckernels.SpeculatePlan | None:
        """The compiled speculation step's plan, or ``None`` for NumPy.

        The kernel implements :meth:`LookupPolicy.decide_into` from the
        policy's :class:`~repro.core.speculator.TableLayout`, so a subclass
        that overrides ``decide_into`` keeps the NumPy path.
        """
        policy = self.policy
        if (
            not isinstance(policy, LookupPolicy)
            or type(policy).decide_into is not LookupPolicy.decide_into
        ):
            return None
        layout = policy.table_layout
        return _ckernels.SpeculatePlan(
            slots=self._pattern_slots,
            keep0=self._round0_keep,
            table=layout.flat,
            offsets=layout.offsets,
            shifts=layout.shifts,
            silent_first_round=layout.silent_first_round,
        )

    def _round_plan(
        self, state: SimState, ws: RoundWorkspace, source: DrawSource
    ) -> _ckernels.RoundPlan:
        """The compiled round's run-constant plan over this run's buffers.

        The NumPy speculation step (any policy without a speculation plan)
        reads the bool leak flags, and ``mlr-only`` the MLR flags; pattern
        recording reads the data leak flags.  The kernel writes exactly
        those each round.
        """
        speculate = self._speculate_plan()
        numpy_speculation = speculate is None
        return _ckernels.RoundPlan(
            gen_address=source.gen_address,
            layers=list(zip(self._slot_data, self._slot_anc, self._slot_is_z)),
            measure_frame=np.left_shift(1, self._measure_shift_row[0]),
            speculate=speculate,
            uses_mlr=self.policy.uses_mlr,
            data_pack=ws.data_pack,
            anc_pack=ws.anc_pack,
            data_lrc=ws.data_lrc,
            anc_lrc=ws.anc_lrc if ws.emits_ancilla_lrc else None,
            # Round 0 measures into the workspace buffer; the end-of-round
            # reference swaps keep these pairs in step with the kernel's.
            measurements=(ws.measurement, state.prev_measurement),
            patterns=(ws.pattern_a, ws.pattern_b),
            detectors=ws.detectors,
            mlr_flags=ws.mlr_flags if ws.mlr_neighbor is not None else None,
            data_leaked=(
                state.data_leaked
                if numpy_speculation or self.options.record_patterns
                else None
            ),
            anc_leaked=state.anc_leaked if numpy_speculation else None,
            ticks=ws.ticks,
            counts=ws.round_counts,
        )

    # ------------------------------------------------------------------ #
    # Phase instrumentation (sim.phase.* spans; tools/profile_sim.py)
    # ------------------------------------------------------------------ #
    def _trace_round(
        self, tracer: Tracer, round_index: int, start: int, ticks: np.ndarray, end: int,
        lrcs: int,
    ) -> None:
        """Emit one round's ``sim.phase.*`` spans and its ``sim.round`` span.

        ``ticks`` holds the ends of the noise, CNOT-layer, measurement and
        speculation phases (``time.perf_counter_ns`` clock; the compiled
        round stamps the first three from inside its call); bookkeeping
        ends at ``end``.  Pure observation: no RNG access, no state
        mutation.
        """
        bounds = [start, *ticks.tolist(), end]
        for phase, begin, finish in zip(PHASE_NAMES, bounds, bounds[1:]):
            tracer.complete_ns(f"sim.phase.{phase}", begin, finish, {"round": round_index})
        tracer.complete_ns("sim.round", start, end, {"round": round_index, "lrcs": lrcs})

    # ------------------------------------------------------------------ #
    # Main entry points
    # ------------------------------------------------------------------ #
    def run(self, shots: int, rounds: int) -> RunResult:
        """Simulate ``rounds`` QEC rounds for a batch of ``shots`` shots."""
        stream = self.run_incremental(shots, rounds)
        try:
            while True:
                next(stream)
        except StopIteration as stop:
            if stop.value is None:  # pragma: no cover - generator contract
                raise RuntimeError(
                    "run_incremental exhausted without producing a RunResult"
                ) from None
            return stop.value

    def run_incremental(
        self, shots: int, rounds: int
    ) -> GeneratorType[tuple[int, np.ndarray], None, RunResult]:
        """Generator variant of :meth:`run` for online (streaming) consumers.

        Yields one ``(round_index, z_detectors)`` pair after every QEC round,
        where ``z_detectors`` is the ``(shots, num_z_stabs)`` boolean array of
        this round's Z-detector flips — the exact per-round chunk the
        :mod:`repro.realtime` streaming pipeline consumes.  Each yielded
        array is freshly allocated (not a workspace view), so consumers may
        retain it across rounds.  The generator's ``StopIteration`` value is the full
        :class:`RunResult` (drive it with ``next`` inside ``try``/``except``
        or through :class:`repro.realtime.SimulatorStream`).  :meth:`run` is
        implemented on top of this generator, so both paths execute the
        identical sequence of RNG draws and are bit-for-bit interchangeable.
        """
        if shots <= 0 or rounds <= 0:
            raise ValueError("shots and rounds must be positive")
        # Resolve the telemetry scope once per run; the round loop then only
        # pays ``is not None`` checks (see benchmarks/bench_obs_overhead.py).
        tracer = self._round_tracer = current_tracer()
        run_start_ns = time.perf_counter_ns() if tracer is not None else 0
        noise, rng, code = self.noise, self.rng, self.code
        state = SimState(shots, code.num_data, code.num_ancilla)
        if self.options.leakage_sampling:
            seeded = rng.integers(0, code.num_data, size=shots)
            state.data_leaked[np.arange(shots), seeded] = True

        ws = self._make_workspace(shots)
        source = DrawSource(rng)
        if source.compiled:
            # The planes stay packed (and the bool state stale) until the
            # final readout.
            ws.round_plan = self._round_plan(state, ws, source)
            _pack_register(ws.data_pack, state.data_x, state.data_z, state.data_leaked, ws.data.t1)
            _pack_register(ws.anc_pack, state.anc_x, state.anc_z, state.anc_leaked, ws.anc.t1)
        detector_history = (
            np.zeros((shots, rounds, len(self._z_stab_indices)), dtype=bool)
            if self.options.record_detectors
            else None
        )
        pattern_histogram: dict[int, dict[int, tuple[int, int]]] = {}

        round_records: list[RoundRecord] = []
        totals = {"lrc": 0, "anc_lrc": 0, "fp": 0, "fn": 0, "tp": 0, "leak_events": 0}

        try:
            for round_index in range(rounds):
                record, z_detectors = self._run_round(
                    state, round_index, ws, source, totals, detector_history,
                    pattern_histogram,
                )
                round_records.append(record)
                yield round_index, z_detectors

            final_tick = time.perf_counter_ns() if tracer is not None else 0
            if ws.round_plan is not None:
                _unpack_register(
                    ws.data_pack, state.data_x, state.data_z, state.data_leaked, ws.data.t1
                )
                _unpack_register(
                    ws.anc_pack, state.anc_x, state.anc_z, state.anc_leaked, ws.anc.t1
                )
            final_detectors, observable_flips = self._final_readout(state, ws, source)
            if tracer is not None:
                now = time.perf_counter_ns()
                tracer.complete_ns("sim.final_readout", final_tick, now)
                tracer.complete_ns(
                    "sim.run", run_start_ns, now,
                    {"code": code.name, "shots": shots, "rounds": rounds},
                )
        finally:
            source.close()
            ws.release()

        return RunResult(
            code_name=code.name,
            policy_name=self.policy.describe(),
            shots=shots,
            rounds=rounds,
            noise=noise,
            round_records=round_records,
            total_data_lrcs=totals["lrc"],
            total_ancilla_lrcs=totals["anc_lrc"],
            total_false_positives=totals["fp"],
            total_false_negatives=totals["fn"],
            total_true_positives=totals["tp"],
            total_leakage_events=totals["leak_events"],
            final_data_leaked=state.data_leaked.copy(),
            detector_history=detector_history,
            final_detectors=final_detectors,
            observable_flips=observable_flips,
            pattern_histogram=pattern_histogram,
        )

    # ------------------------------------------------------------------ #
    # One QEC round (workspace-resident, allocation-free)
    # ------------------------------------------------------------------ #
    def _run_round(
        self,
        state: SimState,
        round_index: int,
        ws: RoundWorkspace,
        source: DrawSource,
        totals: dict[str, int],
        detector_history: np.ndarray | None,
        pattern_histogram: dict[int, dict[int, tuple[int, int]]],
    ) -> tuple[RoundRecord, np.ndarray]:
        # Time-structured presets swap in this round's effective parameters.
        noise = self.noise.params_for_round(round_index)
        shots = state.shots
        tracer = self._round_tracer
        ticks = ws.ticks if tracer is not None else None
        round_start_ns = time.perf_counter_ns() if tracer is not None else 0

        # 1-5. Pending LRCs, noise, entangling layers, measurement (and 6,
        #      speculation, when the compiled round runs it too).
        plan = ws.round_plan
        if plan is not None:
            lrcs_this_round = self._compiled_round(
                round_index, ws, noise, totals, traced=ticks is not None
            )
        else:
            lrcs_this_round = self._numpy_round(state, ws, source, noise, totals, ticks)

        # 6. Speculation: detectors, patterns, the decision and its accuracy.
        if plan is None or not plan.speculates:
            self._speculate(state, round_index, ws)
        # Reference-swap instead of copying: ``prev_measurement`` now points
        # at this round's outcomes, and the retired buffer becomes next
        # round's measurement landing zone.
        state.prev_measurement, ws.measurement = ws.measurement, state.prev_measurement
        z_detectors = ws.detectors[:, self._z_stab_indices]
        if detector_history is not None:
            detector_history[:, round_index, :] = z_detectors
        if ticks is not None:
            ticks[3] = time.perf_counter_ns()

        # 7. Bookkeeping.
        fp, fn, tp, leaked_data, leaked_anc = ws.speculate_counts.tolist()
        totals["fp"] += fp
        totals["fn"] += fn
        totals["tp"] += tp
        # Every LRC requested is a true or a false positive.
        ws.pending_data_lrcs = fp + tp
        if self.options.record_patterns:
            self._record_patterns(ws.pattern_a, state.data_leaked, pattern_histogram)
        record = RoundRecord(
            round_index=round_index,
            data_leakage_population=leaked_data / state.data_leaked.size,
            ancilla_leakage_population=leaked_anc / state.anc_leaked.size,
            lrcs_applied=lrcs_this_round / shots,
            false_positives=fp / shots,
            false_negatives=fn / shots,
            true_positives=tp / shots,
        )
        ws.pattern_a, ws.pattern_b = ws.pattern_b, ws.pattern_a
        if tracer is not None:
            self._trace_round(
                tracer, round_index, round_start_ns, ws.ticks, time.perf_counter_ns(),
                lrcs_this_round,
            )
        return record, z_detectors

    def _compiled_round(
        self,
        round_index: int,
        ws: RoundWorkspace,
        noise: NoiseParams,
        totals: dict[str, int],
        traced: bool,
    ) -> int:
        """Phases 1-5, and 6 for a lookup policy, as one compiled call on
        the resident planes; returns the data LRCs applied."""
        assert ws.round_plan is not None
        rates = round_rates(
            noise.p, noise.p_leak, noise.gate_error, noise.leakage_mobility,
            noise.ancilla_reset_removes_leakage, noise.mlr_error,
            self.gadget.removal_prob, self._lrc_gate_error, self._lrc_induced_leak,
        )
        _ckernels.qec_round(
            ws.round_plan, rates.address, round_index, noise.readout_leak_random, traced
        )
        lrcs, anc_lrcs, leaks = ws.round_counts[:3].tolist()
        totals["lrc"] += lrcs
        totals["anc_lrc"] += anc_lrcs
        totals["leak_events"] += leaks
        return lrcs

    def _numpy_round(
        self,
        state: SimState,
        ws: RoundWorkspace,
        source: DrawSource,
        noise: NoiseParams,
        totals: dict[str, int],
        ticks: np.ndarray | None,
    ) -> int:
        """Phases 1-5 phase by phase on the bool state (the kernels'
        oracle); returns the data LRCs applied."""
        # 1. Apply the LRCs scheduled by last round's decision.  ``ws.data_lrc``
        #    / ``ws.anc_lrc`` still hold that decision; they are fully consumed
        #    here, freeing the buffers for this round's decision in phase 6.
        #    A register without LRCs draws nothing for them.
        lrcs_this_round = ws.pending_data_lrcs
        anc_lrcs_this_round = int(np.count_nonzero(ws.anc_lrc)) if ws.emits_ancilla_lrc else 0
        totals["lrc"] += lrcs_this_round
        totals["anc_lrc"] += anc_lrcs_this_round
        if lrcs_this_round:
            self._apply_lrc(
                ws.data_lrc, state.data_leaked, state.data_x, state.data_z,
                ws.data, source, totals, return_flips=True,
            )
        if anc_lrcs_this_round:
            self._apply_lrc(
                ws.anc_lrc, state.anc_leaked, state.anc_x, state.anc_z,
                ws.anc, source, totals, return_flips=False,
            )

        # 2. Start-of-round data noise: depolarisation plus environment leakage.
        state.depolarize_data(noise.p, source, ws.data)
        totals["leak_events"] += state.inject_data_leakage(noise.p_leak, source, ws.data)

        # 3. Ancilla reset (clears most parity-qubit leakage; data-qubit
        #    leakage has no such escape hatch).
        state.reset_ancillas(noise.p, noise.ancilla_reset_removes_leakage, source, ws.anc)
        totals["leak_events"] += state.inject_ancilla_leakage(noise.p_leak, source, ws.anc)
        if ticks is not None:
            ticks[0] = time.perf_counter_ns()

        # 4. Entangling layers, executed on packed uint8 planes
        #    (x | z<<1 | leaked<<2): one gather/scatter per register per
        #    layer instead of six.  The boolean state is repacked before and
        #    unpacked after, so every other phase sees plain bool arrays.
        _pack_register(ws.data_pack, state.data_x, state.data_z, state.data_leaked, ws.data_u8)
        _pack_register(ws.anc_pack, state.anc_x, state.anc_z, state.anc_leaked, ws.anc_u8)
        for layer_index in range(len(self._slot_anc)):
            totals["leak_events"] += self._apply_cnot_layer(layer_index, ws, source, noise)
        _unpack_register(ws.data_pack, state.data_x, state.data_z, state.data_leaked, ws.data_u8)
        _unpack_register(ws.anc_pack, state.anc_x, state.anc_z, state.anc_leaked, ws.anc_u8)
        if ticks is not None:
            ticks[1] = time.perf_counter_ns()

        # 5. Measurement and MLR.
        self._measure(state, ws, source, noise)
        if ticks is not None:
            ticks[2] = time.perf_counter_ns()
        return lrcs_this_round

    def _speculate(self, state: SimState, round_index: int, ws: RoundWorkspace) -> None:
        """Detectors, patterns, the policy decision and its accuracy counts.

        Fills ``ws.detectors``, ``ws.pattern_a`` (``ws.pattern_b`` still
        holds the previous round's patterns), the decision buffers and
        ``ws.speculate_counts``: false positives, false negatives, true
        positives, leaked data qubits, leaked ancillas.  Draw-free.  This is
        the NumPy step, for any policy: a lookup policy's compiled round
        runs the same step in C, and this path is its oracle.
        """
        np.logical_xor(ws.measurement, state.prev_measurement, out=ws.detectors)
        if round_index == 0:
            # X-stabilizer outcomes are intrinsically random in the first
            # round of a memory-Z experiment; their first detector is defined
            # only from round 1 onwards.
            ws.detectors[:, self._x_stab_indices] = False
        self._extract_patterns(ws.detectors, ws.pattern_a, ws)
        if ws.mlr_flags is not None and ws.mlr_neighbor is not None:
            self._mlr_neighbor(ws.mlr_flags, ws.mlr_neighbor, ws)
        ctx = SpeculationInput(
            round_index=round_index,
            pattern_ints=ws.pattern_a,
            prev_pattern_ints=ws.pattern_b,
            mlr_neighbor=ws.mlr_neighbor,
            data_leaked=state.data_leaked,
        )
        self.policy.decide_into(
            ctx, ws.data_lrc, ws.anc_lrc if ws.emits_ancilla_lrc else None
        )
        lrcs = np.count_nonzero(ws.data_lrc)
        leaked = np.count_nonzero(state.data_leaked)
        np.logical_and(ws.data_lrc, state.data_leaked, out=ws.data.t1.view(bool))
        tp = np.count_nonzero(ws.data.t1)
        ws.speculate_counts[:] = (
            lrcs - tp, leaked - tp, tp, leaked, np.count_nonzero(state.anc_leaked)
        )

    # ------------------------------------------------------------------ #
    # Physical processes
    # ------------------------------------------------------------------ #
    def _apply_lrc(
        self,
        mask: np.ndarray,
        leaked: np.ndarray,
        frame_x: np.ndarray,
        frame_z: np.ndarray,
        scratch: ChannelScratch,
        source,
        totals: dict[str, int],
        return_flips: bool,
    ) -> None:
        """Apply LRC gadgets to the masked qubits of one register, in place.

        Draws: the removal row, the frame flips where leakage was removed
        (data qubits only), the gate-hit row, the Pauli choice where the
        gadget's gate hit, the induced-leakage row.  The caller skips the
        call (and so every draw) when no qubit of the register is treated.
        """
        t1, t2 = scratch.t1, scratch.t2
        shape = mask.shape
        mask_u8 = mask.view(np.uint8)
        leaked_u8 = leaked.view(np.uint8)
        x_u8 = frame_x.view(np.uint8)
        z_u8 = frame_z.view(np.uint8)
        # removed = mask & leaked & (U < removal_prob)
        removal = source.mask(self.gadget.removal_prob, shape)
        np.bitwise_and(mask_u8, leaked_u8, out=t1)
        t1 &= removal
        leaked_u8 ^= t1  # removed is a subset of leaked
        if return_flips:
            # A returned data qubit re-enters the computational subspace in a
            # random state: model as a 50/50 X flip plus full dephasing.
            # (Ancillas are reset right afterwards, so they draw none.)
            flips = source.choices(t1, 0, 4)
            np.bitwise_and(flips, 1, out=t2)
            x_u8 ^= t2
            np.right_shift(flips, 1, out=t2)
            z_u8 ^= t2
        # Gadget noise on every treated qubit (leaked or not).
        hit = source.mask(self._lrc_gate_error, shape)
        np.bitwise_and(hit, mask_u8, out=t2)
        pauli = source.choices(t2, 0, 3)
        np.not_equal(pauli, 2, out=t1)
        t1 &= t2
        x_u8 ^= t1
        np.not_equal(pauli, 0, out=t1)
        t1 &= t2
        z_u8 ^= t1
        # Gadget-induced leakage.
        induced = source.mask(self._lrc_induced_leak, shape)
        np.bitwise_and(induced, mask_u8, out=t1)
        np.bitwise_xor(leaked_u8, 1, out=t2)
        t1 &= t2  # new leaks
        leaked_u8 |= t1
        totals["leak_events"] += int(np.count_nonzero(t1))

    #: Shot rows per tile of the NumPy layer loop: ~20 uint8 buffers of
    #: ``rows * gates`` bytes must stay L2-resident while the op sequence
    #: sweeps over them.
    _LAYER_TILE_ROWS = 2048

    def _apply_cnot_layer(
        self, layer_index: int, ws: RoundWorkspace, source: DrawSource, noise: NoiseParams
    ) -> int:
        """Execute one entangling layer on the packed planes; return new leaks.

        All masks are uint8 0/1 so the whole layer is bitwise arithmetic on
        byte arrays.  Draws (see :mod:`repro.sim.draws`): the gate-hit,
        data-gate-leak and ancilla-gate-leak rows, then, in site order, the
        transport decision and partner flips where exactly one operand is
        leaked and the Pauli pair 1..15 where the gate hit.

        This is the NumPy path (the compiled round runs its own layers): it
        gathers the operand columns, draws, runs the algebra *tiled over
        shot blocks* (every operand stays in cache instead of streaming full
        ``(shots, gates)`` arrays through memory once per op; tiling is pure
        loop blocking) and scatters them back.
        """
        lw = ws.layers[layer_index]
        if lw is None:
            return 0
        anc_idx = self._slot_anc[layer_index]
        data_idx = self._slot_data[layer_index]
        is_z_full = ws.layer_is_z_full[layer_index]
        assert is_z_full is not None  # allocated for every non-empty layer

        shape = is_z_full.shape
        gate_hit = source.mask(noise.gate_error, shape)
        data_gate_leak = source.mask(noise.p_leak, shape)
        anc_gate_leak = source.mask(noise.p_leak, shape)
        pd = ws.data_pack[:, data_idx]
        pa = ws.anc_pack[:, anc_idx]
        np.bitwise_xor(pd, pa, out=lw.t)
        np.right_shift(lw.t, 2, out=lw.t)  # exactly one operand leaked
        transport, flips, pauli_pair = source.layer_draws(
            lw.t, gate_hit, noise.leakage_mobility
        )
        shots = pd.shape[0]
        tile = self._LAYER_TILE_ROWS
        # Hoist the ufuncs: with every operand pre-sliced per tile the loop
        # body is pure C dispatch, ~5 us per op on L2-resident tiles.
        band, bxor, bor = np.bitwise_and, np.bitwise_xor, np.bitwise_or
        rshift, lshift, add, mul = np.right_shift, np.left_shift, np.add, np.multiply
        for start in range(0, shots, tile):
            s = slice(start, min(start + tile, shots))
            cpd, cpa = pd[s], pa[s]
            ld, la = lw.ld[s], lw.la[s]
            hz, hnz = lw.hz[s], lw.hnz[s]
            t = lw.t[s]
            m1, m2, m4, m5 = lw.m1[s], lw.m2[s], lw.m4[s], lw.m5[s]
            tr, fl, pp = transport[s], flips[s], pauli_pair[s]
            dgl, agl = data_gate_leak[s], anc_gate_leak[s]

            rshift(cpd, 2, out=ld)  # original leak flags (3-bit packs)
            rshift(cpa, 2, out=la)
            bor(ld, la, out=t)
            bxor(t, 1, out=t)  # healthy
            band(t, is_z_full[s], out=hz)  # healthy Z-type columns
            bxor(t, hz, out=hnz)  # healthy X-type columns

            # Ideal CNOT propagation where both operands are in the
            # computational subspace.  Z-type checks: control = data,
            # target = ancilla; X-type checks: control = ancilla, target =
            # data.  The four updates run in place because each reads plane
            # bits only at columns the earlier updates did not touch (Z- and
            # X-type columns are disjoint); ANDing with the 0/1 masks both
            # selects the X bit and strips any higher pack bits.
            band(cpd, hz, out=t)  # data_x & healthy & Z-type
            bxor(cpa, t, out=cpa)
            rshift(cpa, 1, out=t)  # anc_z (| leak bit, stripped by hz)
            band(t, hz, out=t)
            add(t, t, out=t)
            bxor(cpd, t, out=cpd)
            band(cpa, hnz, out=t)  # anc_x & healthy & X-type
            bxor(cpd, t, out=cpd)
            rshift(cpd, 1, out=t)  # data_z (| leak bit, stripped by hnz)
            band(t, hnz, out=t)
            add(t, t, out=t)
            bxor(cpa, t, out=cpa)

            # Leaked-operand malfunction: the healthy partner either inherits
            # the leakage (probability = mobility) or picks up a random
            # X/Z flip pair (``flips``, drawn only at these sites).
            bxor(la, 1, out=t)
            band(ld, t, out=m1)  # data_only
            bxor(ld, 1, out=t)
            band(la, t, out=m2)  # anc_only
            band(m1, tr, out=m4)  # anc_gets_leak
            band(m2, tr, out=m5)  # data_gets_leak
            bxor(tr, 1, out=t)
            band(m1, t, out=m1)  # scramble_anc
            band(m2, t, out=m2)  # scramble_data
            mul(m1, 3, out=m1)
            band(m1, fl, out=m1)
            bxor(cpa, m1, out=cpa)
            mul(m2, 3, out=m2)
            band(m2, fl, out=m2)
            bxor(cpd, m2, out=cpd)

            # Two-qubit depolarising gate error: the Pauli pair is zero off
            # the hit sites; its low bits land on the data plane, its high
            # bits on the ancilla plane.
            band(pp, 3, out=t)
            bxor(cpd, t, out=cpd)
            rshift(pp, 2, out=t)
            bxor(cpa, t, out=cpa)

            # Gate-induced leakage on both operands.
            bor(m5, dgl, out=m5)
            bxor(ld, 1, out=t)
            band(m5, t, out=m5)  # new data leaks
            bor(m4, agl, out=m4)
            bxor(la, 1, out=t)
            band(m4, t, out=m4)  # new ancilla leaks
            lshift(m5, 2, out=t)
            bor(cpd, t, out=cpd)
            lshift(m4, 2, out=t)
            bor(cpa, t, out=cpa)

        # Write the packed planes back.
        ws.data_pack[:, data_idx] = pd
        ws.anc_pack[:, anc_idx] = pa
        return int(np.count_nonzero(lw.m5)) + int(np.count_nonzero(lw.m4))

    def _measure(
        self, state: SimState, ws: RoundWorkspace, source: DrawSource, noise: NoiseParams
    ) -> None:
        """Measure every ancilla into ``ws.measurement`` (+ MLR flags)."""
        meas = ws.measurement
        shape = meas.shape
        t1 = ws.anc.t1
        # Select the measured plane per ancilla straight from the packed
        # representation: bit 0 for Z-type checks, bit 1 for X-type.
        meas_u8 = meas.view(np.uint8)
        np.right_shift(ws.anc_pack, self._measure_shift_row, out=meas_u8)
        meas_u8 &= 1
        flip = source.mask(noise.p, shape)
        meas_u8 ^= flip
        leaked_u8 = state.anc_leaked.view(np.uint8)
        if noise.readout_leak_random:
            random_bits = source.mask(0.5, shape)
            np.copyto(meas_u8, random_bits, where=state.anc_leaked)
        else:
            meas_u8 |= leaked_u8

        if self.policy.uses_mlr:
            assert ws.mlr_flags is not None
            mlr_u8 = ws.mlr_flags.view(np.uint8)
            missed = source.mask(noise.mlr_error, shape)
            false_flag = source.mask(noise.p, shape)
            np.bitwise_xor(missed, 1, out=t1)
            np.bitwise_and(leaked_u8, t1, out=mlr_u8)
            np.bitwise_xor(leaked_u8, 1, out=t1)
            t1 &= false_flag
            mlr_u8 |= t1
            # MLR-triggered resets return correctly flagged ancillas to the
            # computational subspace before the next round.
            np.bitwise_xor(mlr_u8, 1, out=t1)
            leaked_u8 &= t1

    # ------------------------------------------------------------------ #
    # Pattern extraction and bookkeeping
    # ------------------------------------------------------------------ #
    def _extract_patterns(
        self, detectors: np.ndarray, out: np.ndarray, ws: RoundWorkspace
    ) -> None:
        """Pack each data qubit's adjacent detector flips into ``out``.

        Runs as float32 GEMMs (see :meth:`_build_gather_structures`): a
        member-count matmul, an OR threshold, and a position-weight matmul —
        no per-group Python loop, no int64 scatter traffic.  The float
        results are small exact integers, so the final cast is lossless.
        """
        np.copyto(ws.det_f32, detectors, casting="unsafe")
        if self._pattern_single_member:
            assert self._pattern_matrix is not None
            np.matmul(ws.det_f32, self._pattern_matrix, out=ws.pat_f32)
        else:
            assert self._pattern_members is not None
            assert self._pattern_weights is not None and ws.counts_f32 is not None
            np.matmul(ws.det_f32, self._pattern_members, out=ws.counts_f32)
            np.not_equal(ws.counts_f32, 0, out=ws.counts_f32)
            np.matmul(ws.counts_f32, self._pattern_weights, out=ws.pat_f32)
        np.copyto(out, ws.pat_f32, casting="unsafe")

    def _mlr_neighbor(
        self, mlr_flags: np.ndarray, out: np.ndarray, ws: RoundWorkspace
    ) -> None:
        """OR of the MLR flags of each data qubit's adjacent ancillas."""
        for qubits, ancilla_rows in self._neighbor_gather:
            flags = mlr_flags[:, ancilla_rows[:, 0]]
            for column in range(1, ancilla_rows.shape[1]):
                flags |= mlr_flags[:, ancilla_rows[:, column]]
            out[:, qubits] = flags

    def _record_patterns(
        self,
        pattern_ints: np.ndarray,
        data_leaked: np.ndarray,
        histogram: dict[int, dict[int, tuple[int, int]]],
    ) -> None:
        """Accumulate per-width pattern counts split by true leakage status.

        One ``np.bincount`` over ``value * 2 + leaked`` replaces the
        baseline's Python loop over all ``2**width`` values (each of which
        scanned the whole batch); the resulting histogram is identical,
        including explicit zero entries for unobserved patterns.
        """
        for width, qubits in self._width_groups:
            values = pattern_ints[:, qubits].ravel()
            leaked = data_leaked[:, qubits].ravel()
            counts = np.bincount(values * 2 + leaked, minlength=2 << width)
            width_hist = histogram.setdefault(width, {})
            for value in range(1 << width):
                leaked_count = int(counts[2 * value + 1])
                clean_count = int(counts[2 * value])
                if value in width_hist:
                    old_leaked, old_clean = width_hist[value]
                    width_hist[value] = (old_leaked + leaked_count, old_clean + clean_count)
                else:
                    width_hist[value] = (leaked_count, clean_count)

    # ------------------------------------------------------------------ #
    # Final readout
    # ------------------------------------------------------------------ #
    def _final_readout(
        self, state: SimState, ws: RoundWorkspace, source
    ) -> tuple[np.ndarray, np.ndarray]:
        """Transversal data readout: final detectors and the logical observable."""
        noise = self.noise
        shape = state.data_x.shape
        flip = source.mask(noise.p, shape)
        data_meas = np.bitwise_xor(state.data_x.view(np.uint8), flip)
        if noise.readout_leak_random:
            random_bits = source.mask(0.5, shape)
            np.copyto(data_meas, random_bits, where=state.data_leaked)
        else:
            data_meas |= state.data_leaked.view(np.uint8)
        # Final-round detectors: parity of the measured data over each
        # Z-stabilizer support, compared against that stabilizer's last
        # in-circuit measurement.  ``data_meas`` is already the 0/1 uint8 the
        # matmul wants.
        z_parity = (data_meas @ self._z_support_t_u8) % 2
        last_z = state.prev_measurement[:, self._z_stab_indices]
        final_detectors = z_parity.astype(bool) ^ last_z
        observable = (
            data_meas[:, self._logical_z_support].sum(axis=1) % 2
        ).astype(bool)
        return final_detectors, observable
