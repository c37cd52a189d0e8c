"""Tests for GF(2) linear algebra helpers."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registry import CODES
from repro.codes.classical import hamming_parity_check, repetition_parity_check
from repro.codes.gf2 import (
    _quotient_basis,
    css_logical_operators,
    gf2_nullspace,
    gf2_rank,
    gf2_row_reduce,
    gf2_rowspace,
    gf2_solve,
    in_rowspace,
)
from repro.experiments import make_code


def test_rank_identity():
    assert gf2_rank(np.eye(5, dtype=int)) == 5


def test_rank_repeated_rows():
    matrix = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 1]])
    assert gf2_rank(matrix) == 2


def test_row_reduce_pivots_are_unit_columns():
    matrix = np.array([[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1]])
    reduced, pivots = gf2_row_reduce(matrix)
    for row, col in enumerate(pivots):
        column = reduced[:, col]
        assert column[row] == 1
        assert column.sum() == 1


def test_nullspace_vectors_annihilate():
    matrix = hamming_parity_check()
    basis = gf2_nullspace(matrix)
    assert basis.shape[0] == 4  # Hamming [7,4]
    for vector in basis:
        assert not np.any((matrix @ vector) % 2)


def test_nullspace_plus_rank_is_dimension():
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 2, size=(6, 11))
    assert gf2_rank(matrix) + gf2_nullspace(matrix).shape[0] == 11


def test_rowspace_membership():
    matrix = np.array([[1, 1, 0], [0, 1, 1]])
    assert in_rowspace(np.array([1, 0, 1]), matrix)
    assert not in_rowspace(np.array([1, 0, 0]), matrix)


def test_solve_consistent_system():
    matrix = np.array([[1, 1, 0], [0, 1, 1]])
    target = np.array([1, 0])
    solution = gf2_solve(matrix, target)
    assert solution is not None
    assert np.array_equal((matrix @ solution) % 2, target)


def test_solve_inconsistent_system_returns_none():
    matrix = np.array([[1, 1, 0], [1, 1, 0]])
    assert gf2_solve(matrix, np.array([1, 0])) is None


def test_css_logicals_of_steane_like_construction():
    # Repetition-code HGP-free sanity check: the [[7,1,3]] Steane code built
    # from the Hamming matrix used for both X and Z stabilizers.
    hamming = hamming_parity_check()
    logical_x, logical_z = css_logical_operators(hamming, hamming)
    assert logical_x.shape[0] == 1
    assert logical_z.shape[0] == 1
    assert not np.any((hamming @ logical_z[0]) % 2)
    assert not np.any((hamming @ logical_x[0]) % 2)
    assert (logical_x[0] @ logical_z[0]) % 2 == 1


def test_css_logicals_reject_noncommuting_inputs():
    h_x = np.array([[1, 1, 0]])
    h_z = np.array([[1, 0, 0]])
    with pytest.raises(ValueError):
        css_logical_operators(h_x, h_z)


def test_repetition_code_properties():
    matrix = repetition_parity_check(5)
    assert matrix.shape == (4, 5)
    assert gf2_rank(matrix) == 4
    assert gf2_nullspace(matrix).shape[0] == 1
    assert np.array_equal(gf2_nullspace(matrix)[0], np.ones(5, dtype=np.uint8))


def test_rowspace_basis_is_full_rank():
    matrix = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]])
    basis = gf2_rowspace(matrix)
    assert basis.shape[0] == 2
    assert gf2_rank(basis) == 2


# --------------------------------------------------------------------- #
# Logical-operator representatives
# --------------------------------------------------------------------- #
def _quotient_basis_by_rank(kernel_basis, stabilizer_matrix):
    """Reference: keep a kernel row when stacking it raises ``gf2_rank``."""
    current = gf2_rowspace(stabilizer_matrix)
    representatives = []
    for row in kernel_basis:
        stacked = np.vstack([current, row[np.newaxis, :]])
        if gf2_rank(stacked) > gf2_rank(current):
            representatives.append(row.copy())
            current = stacked
    return np.array(representatives, dtype=np.uint8).reshape(-1, kernel_basis.shape[1])


@st.composite
def css_pairs(draw):
    """A random ``(h_x, h_z)`` pair with ``h_x @ h_z.T = 0`` over GF(2)."""
    qubits = draw(st.integers(min_value=1, max_value=14))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    h_x = rng.integers(0, 2, size=(draw(st.integers(0, qubits)), qubits))
    null = gf2_nullspace(h_x)
    combos = rng.integers(0, 2, size=(draw(st.integers(0, 8)), null.shape[0]))
    return h_x, (combos @ null) % 2


@given(css_pairs())
@settings(max_examples=80, deadline=None)
def test_quotient_basis_equals_the_rank_per_row_reference(pair):
    h_x, h_z = pair
    for kernel, stabilizers in ((gf2_nullspace(h_z), h_x), (gf2_nullspace(h_x), h_z)):
        fast = _quotient_basis(kernel, stabilizers)
        reference = _quotient_basis_by_rank(kernel, stabilizers)
        assert fast.dtype == reference.dtype
        assert np.array_equal(fast, reference)


#: sha256 of ``css_logical_operators`` output (both matrices, shapes, dtype)
#: on each registered code's parity checks, from the rank-per-row algorithm.
_CSS_LOGICAL_DIGESTS = {
    ("bpc", None): "126672ebcd897dddb3c69ee29f9fa5b5bc52a6a12bcfae66f4ec05323cbd13ce",
    ("color", 3): "770b8f780af88d86aa5117c3574c6394670d2e21e90a8be5aa5ce361cd1f6cc5",
    ("color", 5): "2e62860c9778615b4242b3b196274af1906e23bb2efa21ae286a2fad72559dfa",
    ("hgp", None): "4a62acf0d596f7163bc4a35d507d2b9b250c4b62c57d467a5b5a8bfaa735a66e",
    ("surface", 3): "d9036029c76a4f00df3721515bd178a05477be2ebe4fae02753010b22e39ce50",
    ("surface", 5): "bb99d18c9715cf455b880794f0a3ab716bf75f6aa11bca077a6d9ea33595b7c6",
    ("toric", 3): "4ad17570e3c1c5e94025ea3e2a3eb2090621ce1f1bdd8250235aa469783b9c7f",
    ("toric", 5): "fbaf51c31f8fcb31a759f85c3f07b8e90c90b6605d4ae6e9aa1df3b3b2a915eb",
}


def test_css_logical_digests_cover_every_registered_code():
    assert {family for family, _ in _CSS_LOGICAL_DIGESTS} == set(CODES.names())


@pytest.mark.parametrize("family, distance", list(_CSS_LOGICAL_DIGESTS))
def test_css_logical_operators_are_byte_pinned(family, distance):
    code = make_code(family, distance)
    logical_x, logical_z = css_logical_operators(code.parity_check_x, code.parity_check_z)
    digest = hashlib.sha256(
        logical_x.tobytes()
        + logical_z.tobytes()
        + repr((logical_x.shape, logical_z.shape, str(logical_x.dtype))).encode()
    ).hexdigest()
    assert digest == _CSS_LOGICAL_DIGESTS[family, distance]
