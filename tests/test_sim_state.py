"""Tests of the batched Pauli-frame + leakage state."""

import numpy as np

from repro.sim import ChannelScratch, SimState
from repro.sim.draws import DrawSource


def make_state(shots=100, num_data=9, num_ancilla=8):
    return SimState(shots=shots, num_data=num_data, num_ancilla=num_ancilla)


def channel(state, seed, register="data"):
    """A draw source and scratch for one register's channels."""
    n = state.num_data if register == "data" else state.num_ancilla
    return DrawSource(np.random.default_rng(seed)), ChannelScratch.allocate(state.shots, n)


def test_initial_state_is_clean():
    state = make_state()
    assert not state.data_x.any()
    assert not state.data_z.any()
    assert not state.data_leaked.any()
    assert not state.anc_leaked.any()


def test_depolarize_zero_probability_is_identity():
    state = make_state()
    state.depolarize_data(0.0, *channel(state, 0))
    assert not state.data_x.any() and not state.data_z.any()


def test_depolarize_hits_expected_fraction():
    state = make_state(shots=4000, num_data=10)
    state.depolarize_data(0.3, *channel(state, 1))
    hit_fraction = float((state.data_x | state.data_z).mean())
    assert 0.25 < hit_fraction < 0.35


def test_depolarize_balances_pauli_types():
    state = make_state(shots=6000, num_data=8)
    state.depolarize_data(1.0, *channel(state, 2))
    x_only = float((state.data_x & ~state.data_z).mean())
    z_only = float((state.data_z & ~state.data_x).mean())
    both = float((state.data_x & state.data_z).mean())
    for fraction in (x_only, z_only, both):
        assert 0.28 < fraction < 0.39


def test_leakage_injection_marks_new_leaks_only():
    state = make_state(shots=2000)
    source, scratch = channel(state, 3)
    first = state.inject_data_leakage(0.5, source, scratch)
    after_first = state.data_leaked.copy()
    second = state.inject_data_leakage(0.5, source, scratch)
    assert first == after_first.sum() > 0
    assert second == (state.data_leaked & ~after_first).sum() > 0
    assert state.data_leaked.sum() == first + second


def test_reset_clears_frames_and_leakage():
    state = make_state()
    state.anc_x[:] = True
    state.anc_leaked[:, 0] = True
    state.reset_ancillas(0.0, 1.0, *channel(state, 4, "anc"))
    assert not state.anc_x.any()
    assert not state.anc_leaked.any()


def test_reset_can_preserve_leakage():
    state = make_state()
    state.anc_leaked[:, 1] = True
    state.reset_ancillas(0.0, 0.0, *channel(state, 5, "anc"))
    assert state.anc_leaked[:, 1].all()


def test_reset_flip_probability():
    state = make_state(shots=4000)
    state.reset_ancillas(0.25, 1.0, *channel(state, 6, "anc"))
    fraction = float(state.anc_x.mean())
    assert 0.2 < fraction < 0.3


