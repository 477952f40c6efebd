"""Tiny exact linear algebra, fraction-free: nullspace bases over Q by one
integer Gauss-Jordan elimination (Bareiss 1968), run a column at a time.

The elimination is left-looking: each pivot step is recorded (its row swap,
its pivot, the previous pivot and the pivot column's entries) and replayed
on a column only when the scan reaches it, so column c is read after the
steps of the pivots before it and never again.  A replayed column holds the
same minors of the input as the right-looking loop that updates every
column at each step.  The basis vector of a free column needs only the
columns up to it, so `nullspace(..., limit=k)` stops at the k-th free
column, returns the first k vectors of the basis, and neither reads nor
updates a later column.  A caller can hand it the columns of an integer
matrix one at a time (`column=`) and build each only when asked.  The
vectors come back as ints over one least denominator, not one scale per
vector, since a caller that combines two vectors reads their relative scale."""

from __future__ import annotations

import math
from typing import Callable

from .geom import cleared


def nullspace(
    rows: list[list] | None = None,
    ncols: int | None = None,
    limit: int | None = None,
    *,
    column: Callable[[int], list[int]] | None = None,
) -> list[tuple[int, ...]]:
    """Deterministic basis of the right nullspace of a matrix of ints or
    `Fraction`s: for each non-pivot column c of the (unique) reduced row
    echelon form, 1 at c and minus column c of the reduced rows at their
    pivot columns, all times the lcm of the returned vectors' denominators.
    With a limit, only the first `limit`, read up to the last one's column.

    In place of rows, `column(c)` may give column c of an integer matrix
    with ncols columns as a new list; it is called once per column, for
    c = 0, 1, ... in turn, up to the column where the scan stops."""
    if column is None:
        if rows:
            ncols = len(rows[0])
        # clearing each row's denominators scales it by a positive constant,
        # which leaves the row space, hence the RREF, unchanged
        mat = [cleared(row)[1] for row in rows or ()]

        def column(c):
            return [row[c] for row in mat]

    if ncols is None:
        raise ValueError("need ncols for an empty matrix")
    # step r: (row swapped into r, pivot, previous pivot, pivot column's
    # entries).  After the steps before it every entry of a column is a
    # minor of the input, every pivot row holds the same pivot value at its
    # pivot column, and division by the previous pivot is exact
    steps: list[tuple[int, int, int, list[int]]] = []
    pivots: list[int] = []
    free: list[tuple[list[int], int]] = []  # (vector, its denominator)
    prev = 1
    for c in range(ncols):
        if len(free) == limit:
            break
        col = column(c)
        for r, (s, p, q, f) in enumerate(steps):
            col[r], col[s] = col[s], col[r]
            x = col[r]
            col = [(p * a - b * x) // q for a, b in zip(col, f)]
            col[r] = x  # the pivot row is not updated
        r = len(steps)
        pivot_row = next((i for i in range(r, len(col)) if col[i] != 0), None)
        if pivot_row is None:
            # c is free, as is every column once each row is a pivot row.
            # Later pivot rows are 0 at c, so later steps scale column c and
            # prev alike: prev at c and -a at the pivots is prev times c's
            # reduced vector, and final.  Over their gcd, they are p times
            # it, and |p| = |prev| / gcd is that vector's least denominator
            g = math.gcd(prev, *col)
            vec = [0] * ncols
            vec[c] = prev // g
            for a, pc in zip(col, pivots):
                vec[pc] = -a // g
            free.append((vec, prev // g))
            continue
        col[r], col[pivot_row] = col[pivot_row], col[r]
        steps.append((pivot_row, col[r], prev, col))
        prev = col[r]
        pivots.append(c)
    den = math.lcm(*(p for _, p in free))  # positive, the lcm of every |p|
    return [tuple(v * (den // p) for v in vec) for vec, p in free]
