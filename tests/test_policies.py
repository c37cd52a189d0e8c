"""Tests of the open-loop and reference policies."""

import numpy as np
import pytest

from repro.core import (
    AlwaysLrcPolicy,
    MlrOnlyPolicy,
    NoLrcPolicy,
    OraclePolicy,
    POLICY_NAMES,
    StaggeredLrcPolicy,
    make_policy,
)
from repro.core.speculator import SpeculationInput

from decisions import decide_buffers


def make_ctx(code, shots=2, round_index=0, leaked=None, mlr_neighbor=None):
    return SpeculationInput(
        round_index=round_index,
        pattern_ints=np.zeros((shots, code.num_data), dtype=np.int64),
        prev_pattern_ints=np.zeros((shots, code.num_data), dtype=np.int64),
        mlr_neighbor=mlr_neighbor,
        data_leaked=leaked
        if leaked is not None
        else np.zeros((shots, code.num_data), dtype=bool),
    )


def test_no_lrc_never_requests(surface_d5, noise):
    policy = NoLrcPolicy()
    policy.prepare(surface_d5, noise)
    data_lrc, ancilla_lrc = decide_buffers(policy, make_ctx(surface_d5))
    assert not data_lrc.any()
    assert ancilla_lrc is None


def test_always_lrc_requests_everything(surface_d5, noise):
    policy = AlwaysLrcPolicy()
    policy.prepare(surface_d5, noise)
    data_lrc, ancilla_lrc = decide_buffers(policy, make_ctx(surface_d5))
    assert data_lrc.all()
    assert ancilla_lrc is not None and ancilla_lrc.all()


def test_staggered_covers_every_qubit_once_per_cycle(surface_d5, noise):
    policy = StaggeredLrcPolicy()
    policy.prepare(surface_d5, noise)
    coverage = np.zeros(surface_d5.num_data, dtype=int)
    for round_index in range(policy.num_groups):
        data_lrc, _ = decide_buffers(policy, make_ctx(surface_d5, round_index=round_index))
        coverage += data_lrc[0].astype(int)
    assert np.array_equal(coverage, np.ones(surface_d5.num_data, dtype=int))


def test_staggered_groups_are_non_adjacent(surface_d5, noise):
    policy = StaggeredLrcPolicy()
    policy.prepare(surface_d5, noise)
    data_lrc, _ = decide_buffers(policy, make_ctx(surface_d5, round_index=0))
    selected = set(np.nonzero(data_lrc[0])[0].tolist())
    for stab in surface_d5.stabilizers:
        assert len(selected.intersection(stab.data_support)) <= 1


def test_mlr_only_follows_neighbor_flags(surface_d5, noise):
    policy = MlrOnlyPolicy()
    policy.prepare(surface_d5, noise)
    mlr_neighbor = np.zeros((2, surface_d5.num_data), dtype=bool)
    mlr_neighbor[1, 7] = True
    data_lrc, _ = decide_buffers(policy, make_ctx(surface_d5, mlr_neighbor=mlr_neighbor))
    assert not data_lrc[0].any()
    assert data_lrc[1, 7]
    assert data_lrc.sum() == 1


def test_mlr_only_without_flags_is_silent(surface_d5, noise):
    policy = MlrOnlyPolicy()
    policy.prepare(surface_d5, noise)
    data_lrc, _ = decide_buffers(policy, make_ctx(surface_d5))
    assert not data_lrc.any()


def test_oracle_matches_ground_truth(surface_d5, noise):
    policy = OraclePolicy()
    policy.prepare(surface_d5, noise)
    leaked = np.zeros((3, surface_d5.num_data), dtype=bool)
    leaked[0, 2] = True
    leaked[2, [4, 9]] = True
    data_lrc, _ = decide_buffers(policy, make_ctx(surface_d5, shots=3, leaked=leaked))
    assert np.array_equal(data_lrc, leaked)


def test_registry_covers_all_documented_names():
    for name in POLICY_NAMES:
        assert make_policy(name) is not None


def test_registry_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_policy("walking-code")


def test_policy_describe_marks_mlr():
    assert make_policy("eraser+m").describe().endswith("+M")
    assert not make_policy("eraser").describe().endswith("+M")
