"""Tiny exact linear algebra, fraction-free: nullspace bases over Q by one
integer Gauss-Jordan elimination (Bareiss 1968)."""

from __future__ import annotations

from fractions import Fraction

from .geom import cleared


def nullspace(rows: list[list[Fraction]], ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the right nullspace of the matrix: for each
    non-pivot column c of the (unique) reduced row echelon form, 1 at c and
    minus column c of the reduced rows at their pivot columns."""
    if rows:
        ncols = len(rows[0])
    if ncols is None:
        raise ValueError("need ncols for an empty matrix")
    # clearing each row's denominators scales it by a positive constant,
    # which leaves the row space, hence the RREF, unchanged
    mat = [cleared(row)[1] for row in rows]
    # after each step every entry is a minor of the input, every pivot row
    # holds the same pivot value, and division by the previous pivot is exact
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [(p * a - f * b) // prev for a, b in zip(mat[i], prow)]
        prev = p
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = Fraction(-row[fc], prev)
        basis.append(tuple(vec))
    return basis
