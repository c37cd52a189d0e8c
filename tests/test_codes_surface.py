"""Tests of the rotated surface code construction."""

import numpy as np
import pytest

from repro.codes import surface_code
from repro.codes.surface import rotated_surface_layout


@pytest.mark.parametrize("distance", [3, 5, 7, 9])
def test_qubit_counts(distance):
    code = surface_code(distance)
    assert code.num_data == distance**2
    assert code.num_ancilla == distance**2 - 1


@pytest.mark.parametrize("distance", [3, 5, 7])
def test_stabilizer_types_balanced(distance):
    code = surface_code(distance)
    assert len(code.x_stabilizers) == (distance**2 - 1) // 2
    assert len(code.z_stabilizers) == (distance**2 - 1) // 2


@pytest.mark.parametrize("distance", [3, 5, 7])
def test_stabilizer_weights(distance):
    code = surface_code(distance)
    weights = sorted(set(s.weight for s in code.stabilizers))
    assert weights == [2, 4]
    boundary = [s for s in code.stabilizers if s.weight == 2]
    assert len(boundary) == 2 * (distance - 1)


def test_encodes_single_logical_qubit(surface_d5):
    assert surface_d5.num_logical_qubits == 1


def test_logical_operators_have_distance_weight(surface_d5):
    assert int(surface_d5.logical_x.sum()) == 5
    assert int(surface_d5.logical_z.sum()) == 5


def test_css_commutation(surface_d7):
    product = (surface_d7.parity_check_x @ surface_d7.parity_check_z.T) % 2
    assert not np.any(product)


def test_bulk_qubits_have_four_neighbors(surface_d5):
    widths = surface_d5.pattern_widths
    interior = [
        widths[row * 5 + col] for row in range(1, 4) for col in range(1, 4)
    ]
    assert all(width == 4 for width in interior)


def test_corner_qubits_have_two_neighbors(surface_d5):
    corners = [0, 4, 20, 24]
    assert all(surface_d5.pattern_width(q) == 2 for q in corners)


def test_each_data_qubit_touches_both_bases(surface_d5):
    for qubit in range(surface_d5.num_data):
        bases = {
            surface_d5.stabilizers[s].basis
            for s, _ in surface_d5.data_adjacency[qubit]
        }
        assert bases == {"X", "Z"}


def test_data_qubit_slots_are_distinct(surface_d7):
    for qubit in range(surface_d7.num_data):
        slots = [slot for _, slot in surface_d7.data_adjacency[qubit]]
        assert len(slots) == len(set(slots))


def test_layout_matches_code():
    faces = rotated_surface_layout(5)
    assert len(faces) == 24
    for face in faces:
        assert len(face["support"]) in (2, 4)
        assert len(face["support"]) == len(face["slots"])


def test_invalid_distances_rejected():
    with pytest.raises(ValueError):
        surface_code(4)
    with pytest.raises(ValueError):
        surface_code(1)


def test_coloring_is_proper(surface_d5):
    coloring = surface_d5.data_coloring
    for stab in surface_d5.stabilizers:
        colours = [coloring[q] for q in stab.data_support]
        assert len(set(colours)) == len(colours)


def test_x_error_flips_at_most_two_z_stabilizers(surface_d7):
    h_z = surface_d7.parity_check_z
    assert int(h_z.sum(axis=0).max()) <= 2
