"""The frozen pre-workspace simulator: the old-contract reference.

:class:`ReferenceLeakageSimulator` is the simulator hot path as it stood
before the workspace engine, reproduced verbatim: fresh ``(shots, n)``
arrays for every draw and boolean temporary, gather/scatter copies per
entangling layer, per-column loops in the pattern gathers.  It draws with
``Generator.random`` / ``Generator.integers`` in the dense per-site
schedule that was the simulator's RNG contract up to ``ENGINE_VERSION`` 5,
so it shares no draw code with the engine.  Two users:

* ``tests/test_sim_equivalence.py`` races the engine against it
  statistically (same physics, independent sampling code);
* ``benchmarks/bench_sim_round.py`` times it as the speed-up baseline.

:func:`assert_results_identical` is the bit-for-bit comparison of two
:class:`~repro.sim.simulator.RunResult` objects drawn from one contract.
"""

import numpy as np

from repro.core.speculator import SpeculationInput
from repro.sim import LeakageSimulator
from repro.sim.simulator import RoundRecord, RunResult
from repro.sim.state import SimState

__all__ = ["ReferenceLeakageSimulator", "assert_results_identical"]


def _ref_depolarize_data(state, probability, rng):
    if probability <= 0:
        return
    hit = rng.random(state.data_x.shape) < probability
    pauli = rng.integers(0, 3, size=state.data_x.shape)
    state.data_x ^= hit & (pauli != 2)
    state.data_z ^= hit & (pauli != 0)


def _ref_inject_leakage(leaked, probability, rng):
    if probability <= 0:
        return np.zeros_like(leaked)
    new_leak = (rng.random(leaked.shape) < probability) & ~leaked
    leaked |= new_leak
    return new_leak


def _ref_reset_ancillas(state, flip_probability, rng, leakage_removal_probability):
    state.anc_x[:] = False
    state.anc_z[:] = False
    if flip_probability > 0:
        state.anc_x ^= rng.random(state.anc_x.shape) < flip_probability
        state.anc_z ^= rng.random(state.anc_z.shape) < flip_probability
    if leakage_removal_probability > 0:
        cleared = state.anc_leaked & (
            rng.random(state.anc_leaked.shape) < leakage_removal_probability
        )
        state.anc_leaked &= ~cleared


class ReferenceLeakageSimulator(LeakageSimulator):
    """The pre-workspace simulator on the dense old draw contract.

    Overrides every hot-path method with the historical implementation:
    fresh ``(shots, n)`` arrays for every Bernoulli draw and boolean
    temporary, gather/scatter copies per entangling layer, per-column loops
    in the pattern gathers, a Python loop over ``2**width`` values in the
    pattern accounting, and fresh ``decide_into`` buffers every round.
    Construction (index structures, policy tables) is shared with the
    optimized engine — only the round loop differs.  Like the engine, it
    applies the per-round parameters of time-structured noise and draws
    gate hits at ``gate_error`` (the benchmark-only copy used the
    stationary ``p`` for both, which agreed with the engine on stationary
    paper noise only).
    """

    def run_incremental(self, shots, rounds):
        if shots <= 0 or rounds <= 0:
            raise ValueError("shots and rounds must be positive")
        noise, rng, code = self.noise, self.rng, self.code
        state = SimState(shots, code.num_data, code.num_ancilla)
        if self.options.leakage_sampling:
            seeded = rng.integers(0, code.num_data, size=shots)
            state.data_leaked[np.arange(shots), seeded] = True

        pending_lrc = np.zeros((shots, code.num_data), dtype=bool)
        pending_anc_lrc = np.zeros((shots, code.num_ancilla), dtype=bool)
        prev_pattern_ints = np.zeros((shots, code.num_data), dtype=np.int64)
        detector_history = (
            np.zeros((shots, rounds, len(self._z_stab_indices)), dtype=bool)
            if self.options.record_detectors
            else None
        )
        pattern_histogram = {}

        round_records = []
        totals = {"lrc": 0, "anc_lrc": 0, "fp": 0, "fn": 0, "tp": 0, "leak_events": 0}

        for round_index in range(rounds):
            (
                record,
                pending_lrc,
                pending_anc_lrc,
                prev_pattern_ints,
                z_detectors,
            ) = self._run_round(
                state,
                round_index,
                pending_lrc,
                pending_anc_lrc,
                prev_pattern_ints,
                totals,
                detector_history,
                pattern_histogram,
            )
            round_records.append(record)
            yield round_index, z_detectors

        final_detectors, observable_flips = self._final_readout(state)

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

    def _run_round(
        self,
        state,
        round_index,
        pending_lrc,
        pending_anc_lrc,
        prev_pattern_ints,
        totals,
        detector_history,
        pattern_histogram,
    ):
        # Per-round parameters of time-structured noise, as in the engine.
        noise, rng = self.noise.params_for_round(round_index), self.rng
        shots = state.shots

        lrcs_this_round = int(pending_lrc.sum())
        anc_lrcs_this_round = int(pending_anc_lrc.sum())
        totals["lrc"] += lrcs_this_round
        totals["anc_lrc"] += anc_lrcs_this_round
        self._apply_data_lrc(state, pending_lrc, totals)
        self._apply_ancilla_lrc(state, pending_anc_lrc, totals)

        _ref_depolarize_data(state, noise.p, rng)
        new_leak = _ref_inject_leakage(state.data_leaked, noise.p_leak, rng)
        totals["leak_events"] += int(new_leak.sum())

        _ref_reset_ancillas(state, noise.p, rng, noise.ancilla_reset_removes_leakage)
        new_anc_leak = _ref_inject_leakage(state.anc_leaked, noise.p_leak, rng)
        totals["leak_events"] += int(new_anc_leak.sum())

        for anc_idx, data_idx, is_z in zip(self._slot_anc, self._slot_data, self._slot_is_z):
            totals["leak_events"] += self._apply_cnot_layer(state, anc_idx, data_idx, is_z, noise)

        measurement, mlr_flags = self._measure(state, noise)
        detectors = measurement ^ state.prev_measurement
        if round_index == 0:
            detectors[:, ~self._anc_is_z] = False
        state.prev_measurement = measurement
        z_detectors = detectors[:, self._z_stab_indices]
        if detector_history is not None:
            detector_history[:, round_index, :] = z_detectors

        pattern_ints = self._extract_patterns(detectors)
        mlr_neighbor = self._mlr_neighbor(mlr_flags) if mlr_flags is not None else None
        ctx = SpeculationInput(
            round_index=round_index,
            pattern_ints=pattern_ints,
            prev_pattern_ints=prev_pattern_ints,
            mlr_neighbor=mlr_neighbor,
            data_leaked=state.data_leaked,
        )
        next_lrc = np.zeros((shots, self.code.num_data), dtype=bool)
        next_anc_lrc = np.zeros((shots, self.code.num_ancilla), dtype=bool)
        self.policy.decide_into(
            ctx, next_lrc, next_anc_lrc if self.policy.emits_ancilla_lrc else None
        )

        false_positive = next_lrc & ~state.data_leaked
        false_negative = state.data_leaked & ~next_lrc
        true_positive = next_lrc & state.data_leaked
        totals["fp"] += int(false_positive.sum())
        totals["fn"] += int(false_negative.sum())
        totals["tp"] += int(true_positive.sum())

        if self.options.record_patterns:
            self._record_patterns(pattern_ints, state.data_leaked, pattern_histogram)

        record = RoundRecord(
            round_index=round_index,
            data_leakage_population=float(state.data_leaked.mean()),
            ancilla_leakage_population=float(state.anc_leaked.mean()),
            lrcs_applied=lrcs_this_round / shots,
            false_positives=float(false_positive.sum()) / shots,
            false_negatives=float(false_negative.sum()) / shots,
            true_positives=float(true_positive.sum()) / shots,
        )
        return record, next_lrc, next_anc_lrc, pattern_ints, z_detectors

    def _apply_data_lrc(self, state, mask, totals):
        if not mask.any():
            return
        noise, rng = self.noise, self.rng
        removed = mask & state.data_leaked & (
            rng.random(mask.shape) < self.gadget.removal_prob
        )
        state.data_leaked &= ~removed
        state.data_x ^= removed & (rng.random(mask.shape) < 0.5)
        state.data_z ^= removed & (rng.random(mask.shape) < 0.5)
        gate_error = self.gadget.gate_error(noise)
        hit = mask & (rng.random(mask.shape) < gate_error)
        pauli = rng.integers(0, 3, size=mask.shape)
        state.data_x ^= hit & (pauli != 2)
        state.data_z ^= hit & (pauli != 0)
        induced = mask & (rng.random(mask.shape) < self.gadget.induced_leakage(noise))
        new_leak = induced & ~state.data_leaked
        state.data_leaked |= new_leak
        totals["leak_events"] += int(new_leak.sum())

    def _apply_ancilla_lrc(self, state, mask, totals):
        if not mask.any():
            return
        noise, rng = self.noise, self.rng
        removed = mask & state.anc_leaked & (
            rng.random(mask.shape) < self.gadget.removal_prob
        )
        state.anc_leaked &= ~removed
        gate_error = self.gadget.gate_error(noise)
        hit = mask & (rng.random(mask.shape) < gate_error)
        pauli = rng.integers(0, 3, size=mask.shape)
        state.anc_x ^= hit & (pauli != 2)
        state.anc_z ^= hit & (pauli != 0)
        induced = mask & (rng.random(mask.shape) < self.gadget.induced_leakage(noise))
        new_leak = induced & ~state.anc_leaked
        state.anc_leaked |= new_leak
        totals["leak_events"] += int(new_leak.sum())

    def _apply_cnot_layer(self, state, anc_idx, data_idx, is_z, noise):
        rng = self.rng
        shots = state.shots
        gates = anc_idx.shape[0]
        shape = (shots, gates)

        data_x = state.data_x[:, data_idx]
        data_z = state.data_z[:, data_idx]
        anc_x = state.anc_x[:, anc_idx]
        anc_z = state.anc_z[:, anc_idx]
        data_leak = state.data_leaked[:, data_idx]
        anc_leak = state.anc_leaked[:, anc_idx]
        healthy = ~data_leak & ~anc_leak
        is_z_row = is_z[np.newaxis, :]

        new_anc_x = anc_x ^ (data_x & healthy & is_z_row)
        new_data_z = data_z ^ (anc_z & healthy & is_z_row)
        new_data_x = data_x ^ (anc_x & healthy & ~is_z_row)
        new_anc_z = anc_z ^ (data_z & healthy & ~is_z_row)

        data_only = data_leak & ~anc_leak
        anc_only = anc_leak & ~data_leak
        transport = rng.random(shape) < noise.leakage_mobility
        anc_gets_leak = data_only & transport
        data_gets_leak = anc_only & transport
        scramble_anc = data_only & ~transport
        scramble_data = anc_only & ~transport
        rand_x = rng.random(shape) < 0.5
        rand_z = rng.random(shape) < 0.5
        new_anc_x ^= scramble_anc & rand_x
        new_anc_z ^= scramble_anc & rand_z
        rand_x2 = rng.random(shape) < 0.5
        rand_z2 = rng.random(shape) < 0.5
        new_data_x ^= scramble_data & rand_x2
        new_data_z ^= scramble_data & rand_z2

        gate_hit = rng.random(shape) < noise.gate_error
        pauli_pair = rng.integers(1, 16, size=shape)
        new_data_x ^= gate_hit & ((pauli_pair & 1) != 0)
        new_data_z ^= gate_hit & ((pauli_pair & 2) != 0)
        new_anc_x ^= gate_hit & ((pauli_pair & 4) != 0)
        new_anc_z ^= gate_hit & ((pauli_pair & 8) != 0)

        data_gate_leak = rng.random(shape) < noise.p_leak
        anc_gate_leak = rng.random(shape) < noise.p_leak

        state.data_x[:, data_idx] = new_data_x
        state.data_z[:, data_idx] = new_data_z
        state.anc_x[:, anc_idx] = new_anc_x
        state.anc_z[:, anc_idx] = new_anc_z

        new_data_leak_mask = (data_gets_leak | data_gate_leak) & ~state.data_leaked[:, data_idx]
        new_anc_leak_mask = (anc_gets_leak | anc_gate_leak) & ~state.anc_leaked[:, anc_idx]
        state.data_leaked[:, data_idx] |= new_data_leak_mask
        state.anc_leaked[:, anc_idx] |= new_anc_leak_mask
        return int(new_data_leak_mask.sum()) + int(new_anc_leak_mask.sum())

    def _measure(self, state, noise):
        rng = self.rng
        raw = np.where(self._anc_is_z[np.newaxis, :], state.anc_x, state.anc_z)
        outcome = raw ^ (rng.random(raw.shape) < noise.p)
        if noise.readout_leak_random:
            random_bits = rng.random(raw.shape) < 0.5
            outcome = np.where(state.anc_leaked, random_bits, outcome)
        else:
            outcome = np.where(state.anc_leaked, True, outcome)

        mlr_flags = None
        if self.policy.uses_mlr:
            missed = rng.random(raw.shape) < noise.mlr_error
            false_flag = rng.random(raw.shape) < noise.p
            mlr_flags = (state.anc_leaked & ~missed) | (~state.anc_leaked & false_flag)
            state.anc_leaked &= ~(mlr_flags & state.anc_leaked)
        return outcome, mlr_flags

    def _extract_patterns(self, detectors):
        shots = detectors.shape[0]
        pattern_ints = np.zeros((shots, self.code.num_data), dtype=np.int64)
        for position, qubits, stab_groups in self._pattern_gather:
            if stab_groups.shape[1] == 1:
                bits = detectors[:, stab_groups[:, 0]]
            else:
                bits = detectors[:, stab_groups[:, 0]]
                for column in range(1, stab_groups.shape[1]):
                    bits = bits | detectors[:, stab_groups[:, column]]
            pattern_ints[:, qubits] |= bits.astype(np.int64) << position
        return pattern_ints

    def _mlr_neighbor(self, mlr_flags):
        shots = mlr_flags.shape[0]
        result = np.zeros((shots, self.code.num_data), dtype=bool)
        for qubits, ancilla_rows in self._neighbor_gather:
            flags = mlr_flags[:, ancilla_rows[:, 0]]
            for column in range(1, ancilla_rows.shape[1]):
                flags = flags | mlr_flags[:, ancilla_rows[:, column]]
            result[:, qubits] = flags
        return result

    def _record_patterns(self, pattern_ints, data_leaked, histogram):
        widths = np.asarray(self.code.pattern_widths)
        for width in np.unique(widths):
            qubits = np.nonzero(widths == width)[0]
            values = pattern_ints[:, qubits].ravel()
            leaked = data_leaked[:, qubits].ravel()
            width_hist = histogram.setdefault(int(width), {})
            for value in range(1 << int(width)):
                select = values == value
                leaked_count = int((select & leaked).sum())
                clean_count = int((select & ~leaked).sum())
                if value in width_hist:
                    old_leaked, old_clean = width_hist[value]
                    width_hist[value] = (old_leaked + leaked_count, old_clean + clean_count)
                else:
                    width_hist[value] = (leaked_count, clean_count)

    def _final_readout(self, state):
        noise, rng = self.noise, self.rng
        data_meas = state.data_x ^ (rng.random(state.data_x.shape) < noise.p)
        if noise.readout_leak_random:
            random_bits = rng.random(data_meas.shape) < 0.5
            data_meas = np.where(state.data_leaked, random_bits, data_meas)
        else:
            data_meas = np.where(state.data_leaked, True, data_meas)
        z_parity = (data_meas.astype(np.uint8) @ self._z_support.T.astype(np.uint8)) % 2
        last_z = state.prev_measurement[:, self._z_stab_indices]
        final_detectors = z_parity.astype(bool) ^ last_z
        observable = (
            data_meas[:, self._logical_z_support].sum(axis=1) % 2
        ).astype(bool)
        return final_detectors, observable



def assert_results_identical(reference, optimized):
    """Bit-for-bit comparison of two RunResults (shared RNG contract)."""
    assert reference.round_records == optimized.round_records
    assert reference.total_data_lrcs == optimized.total_data_lrcs
    assert reference.total_ancilla_lrcs == optimized.total_ancilla_lrcs
    assert reference.total_false_positives == optimized.total_false_positives
    assert reference.total_false_negatives == optimized.total_false_negatives
    assert reference.total_true_positives == optimized.total_true_positives
    assert reference.total_leakage_events == optimized.total_leakage_events
    assert np.array_equal(reference.final_data_leaked, optimized.final_data_leaked)
    for attr in ("detector_history", "final_detectors", "observable_flips"):
        left, right = getattr(reference, attr), getattr(optimized, attr)
        assert (left is None) == (right is None), attr
        if left is not None:
            assert np.array_equal(left, right), attr
    assert reference.pattern_histogram == optimized.pattern_histogram
