"""Linear algebra over GF(2).

Small, dependency-light helpers used by the CSS code constructions
(:mod:`repro.codes.hgp`, :mod:`repro.codes.bpc`) to compute ranks, null
spaces, and logical operators.  All matrices are ``numpy`` integer arrays
whose entries are interpreted modulo 2.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gf2_row_reduce",
    "gf2_rank",
    "gf2_nullspace",
    "gf2_rowspace",
    "gf2_solve",
    "in_rowspace",
    "css_logical_operators",
]


def _as_gf2(matrix: np.ndarray) -> np.ndarray:
    array = np.asarray(matrix, dtype=np.int64) % 2
    if array.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return array.astype(np.uint8)


def gf2_row_reduce(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Return the row-reduced echelon form of ``matrix`` and its pivot columns."""
    reduced = _as_gf2(matrix).copy()
    rows, cols = reduced.shape
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        candidates = np.nonzero(reduced[pivot_row:, col])[0]
        if candidates.size == 0:
            continue
        swap = pivot_row + candidates[0]
        if swap != pivot_row:
            reduced[[pivot_row, swap]] = reduced[[swap, pivot_row]]
        eliminate = np.nonzero(reduced[:, col])[0]
        for row in eliminate:
            if row != pivot_row:
                reduced[row, :] ^= reduced[pivot_row, :]
        pivot_cols.append(col)
        pivot_row += 1
    return reduced, pivot_cols


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over GF(2)."""
    _, pivots = gf2_row_reduce(matrix)
    return len(pivots)


def gf2_rowspace(matrix: np.ndarray) -> np.ndarray:
    """A basis (as rows) for the row space of ``matrix`` over GF(2)."""
    reduced, pivots = gf2_row_reduce(matrix)
    return reduced[: len(pivots)].copy()


def gf2_nullspace(matrix: np.ndarray) -> np.ndarray:
    """A basis (as rows) for the null space ``{x : matrix @ x = 0 (mod 2)}``."""
    reduced, pivots = gf2_row_reduce(matrix)
    rows, cols = reduced.shape
    free_cols = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free_cols), cols), dtype=np.uint8)
    for basis_index, free in enumerate(free_cols):
        basis[basis_index, free] = 1
        for pivot_index, pivot_col in enumerate(pivots):
            if reduced[pivot_index, free]:
                basis[basis_index, pivot_col] = 1
    return basis


def in_rowspace(vector: np.ndarray, matrix: np.ndarray) -> bool:
    """Whether ``vector`` lies in the GF(2) row space of ``matrix``."""
    vector = np.asarray(vector, dtype=np.uint8) % 2
    base_rank = gf2_rank(matrix)
    stacked = np.vstack([_as_gf2(matrix), vector[np.newaxis, :]])
    return gf2_rank(stacked) == base_rank


def gf2_solve(matrix: np.ndarray, target: np.ndarray) -> np.ndarray | None:
    """Solve ``matrix @ x = target`` over GF(2); return ``None`` if inconsistent."""
    matrix = _as_gf2(matrix)
    target = np.asarray(target, dtype=np.uint8) % 2
    rows, cols = matrix.shape
    augmented = np.hstack([matrix, target.reshape(rows, 1)])
    reduced, pivots = gf2_row_reduce(augmented)
    if cols in pivots:
        return None
    solution = np.zeros(cols, dtype=np.uint8)
    for pivot_index, pivot_col in enumerate(pivots):
        solution[pivot_col] = reduced[pivot_index, cols]
    return solution


def css_logical_operators(
    h_x: np.ndarray, h_z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Logical X and Z operators for a CSS code.

    Given parity-check matrices ``h_x`` (X stabilizers) and ``h_z`` (Z
    stabilizers) with ``h_x @ h_z.T = 0`` over GF(2), return matrices whose
    rows are representatives of the logical X and logical Z operators, paired
    so that ``logical_x[i]`` anticommutes with ``logical_z[i]`` and commutes
    with every other returned logical.
    """
    h_x = _as_gf2(h_x)
    h_z = _as_gf2(h_z)
    if h_x.shape[1] != h_z.shape[1]:
        raise ValueError("h_x and h_z must act on the same number of qubits")
    if np.any((h_x @ h_z.T) % 2):
        raise ValueError("h_x and h_z do not commute; not a CSS code")

    # Candidate logical X operators: kernel of h_z, modulo rowspace of h_x.
    x_candidates = _quotient_basis(gf2_nullspace(h_z), h_x)
    z_candidates = _quotient_basis(gf2_nullspace(h_x), h_z)
    if x_candidates.shape[0] != z_candidates.shape[0]:
        raise RuntimeError("mismatched logical dimension; inconsistent CSS inputs")
    k = x_candidates.shape[0]
    if k == 0:
        return x_candidates, z_candidates

    # Pair them: find an invertible pairing via the anticommutation matrix.
    pairing = (x_candidates @ z_candidates.T) % 2
    logical_x = np.zeros_like(x_candidates)
    logical_z = np.zeros_like(z_candidates)
    x_pool = x_candidates.copy()
    z_pool = z_candidates.copy()
    for index in range(k):
        pairing = (x_pool @ z_pool.T) % 2
        found = np.argwhere(pairing == 1)
        if found.size == 0:
            raise RuntimeError("failed to pair logical operators")
        row, col = found[0]
        chosen_x = x_pool[row].copy()
        chosen_z = z_pool[col].copy()
        logical_x[index] = chosen_x
        logical_z[index] = chosen_z
        # Remove the chosen pair and fix up the rest so they commute with it.
        x_pool = np.delete(x_pool, row, axis=0)
        z_pool = np.delete(z_pool, col, axis=0)
        for other in range(x_pool.shape[0]):
            if (x_pool[other] @ chosen_z) % 2:
                x_pool[other] = (x_pool[other] + chosen_x) % 2
        for other in range(z_pool.shape[0]):
            if (z_pool[other] @ chosen_x) % 2:
                z_pool[other] = (z_pool[other] + chosen_z) % 2
    return logical_x, logical_z


def _quotient_basis(kernel_basis: np.ndarray, stabilizer_matrix: np.ndarray) -> np.ndarray:
    """Basis for ``kernel_basis`` rows modulo the row space of ``stabilizer_matrix``.

    Keeps one fully reduced echelon basis of the span so far (each basis row
    is zero at every other row's pivot column), so reducing a row is one
    XOR of the basis rows whose pivots it hits.  A kernel row is kept, in
    order, exactly when its remainder is nonzero — when it raises the rank
    of the stabilizers plus the rows kept before it.
    """
    width = kernel_basis.shape[1]
    basis = np.zeros((width, width), dtype=np.uint8)
    pivots = np.zeros(width, dtype=np.intp)
    rank = 0

    def extend(row: np.ndarray) -> bool:
        nonlocal rank
        hits = row[pivots[:rank]].astype(bool)
        remainder = row ^ np.bitwise_xor.reduce(basis[:rank][hits], axis=0)
        nonzero = np.flatnonzero(remainder)
        if nonzero.size == 0:
            return False
        pivot = nonzero[0]
        basis[:rank][basis[:rank, pivot] == 1] ^= remainder
        basis[rank], pivots[rank] = remainder, pivot
        rank += 1
        return True

    for row in _as_gf2(stabilizer_matrix).reshape(-1, width):
        extend(row)
    representatives = [row.copy() for row in _as_gf2(kernel_basis) if extend(row)]
    if representatives:
        return np.vstack(representatives).astype(np.uint8)
    return np.zeros((0, width), dtype=np.uint8)
