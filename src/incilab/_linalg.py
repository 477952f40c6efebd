"""Tiny exact linear algebra, fraction-free: nullspace bases over Q by one
integer Gauss-Jordan elimination (Bareiss 1968).

The reduced row echelon form of a column prefix is the prefix of the full
one, so the basis vectors of the first free columns are known before the
elimination reaches the later columns; `nullspace(rows, limit=k)` stops at
the k-th free column and returns the first k vectors of the full basis."""

from __future__ import annotations

from fractions import Fraction

from .geom import cleared


def nullspace(
    rows: list[list[Fraction]], ncols: int | None = None, limit: int | None = None
) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of the right nullspace of the matrix: for each
    non-pivot column c of the (unique) reduced row echelon form, 1 at c and
    minus column c of the reduced rows at their pivot columns.  With a
    limit, only the first `limit` vectors: exactly `nullspace(rows)[:limit]`,
    found without eliminating past the column of the last one."""
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
    basis = []
    prev = 1
    r = 0
    for c in range(ncols):
        if len(basis) == limit:
            break
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            # c is free, as is every column once each row is a pivot row.
            # Later pivot rows are 0 at c, so later steps scale column c and
            # prev alike: its vector is already final
            vec = [Fraction(0)] * ncols
            vec[c] = Fraction(1)
            for row, pc in zip(mat, pivots):
                vec[pc] = Fraction(-row[c], prev)
            basis.append(tuple(vec))
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
    return basis
