"""Fraction-free nullspace against the Fraction RREF it replaced: the same
basis, cleared over one least denominator."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from incilab._linalg import nullspace
from incilab.geom import cleared


def rref_oracle(rows):
    """Reduced row echelon form over Fraction and its pivot columns."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return mat, []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def nullspace_oracle(rows, ncols=None):
    if rows:
        ncols = len(rows[0])
    mat, pivots = rref_oracle(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def matrices(draw):
    """Rational matrices, often rank-deficient, with zero rows mixed in."""
    ncols = draw(st.integers(1, 7))
    row = st.lists(rational, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=0, max_size=5))
    rows = list(base)
    # rows that are rational combinations of earlier ones lower the rank
    for _ in range(draw(st.integers(0, 3))):
        if not base:
            break
        coeffs = draw(st.lists(rational, min_size=len(base), max_size=len(base)))
        rows.append([sum(c * r[k] for c, r in zip(coeffs, base)) for k in range(ncols)])
    for _ in range(draw(st.integers(0, 2))):
        rows.append([Fraction(0)] * ncols)
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@st.composite
def limited_matrices(draw):
    """A matrix of `matrices()` and a limit: None, or 0 up to one past the
    nullity's largest possible value."""
    rows, ncols = draw(matrices())
    return rows, ncols, draw(st.one_of(st.none(), st.integers(0, ncols + 1)))


@settings(deadline=None, max_examples=300)
@given(limited_matrices())
# rank 2 of 3 rows: the first free column, 1, comes before the last pivot, 2
@example(([[1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]], 4, 1))
# full row rank: both free columns come after the last pivot row
@example(([[1, 0, 2, 3], [0, 1, 4, 5]], 4, None))
# pivots 3 and then 2 * 3 - 0: the first pivot row comes from below, and
# the later columns see the swap and the division by the previous pivot
@example(([[0, 2, 1, 5], [3, 0, 1, 4], [3, 2, 2, 9]], 4, None))
def test_nullspace_matches_fraction_rref(case):
    rows, ncols, limit = case
    got = nullspace(rows, ncols, limit=limit)
    want = nullspace_oracle(rows, ncols)[:limit]
    # the returned vectors together, over the lcm of all their denominators
    _, flat = cleared([v for vec in want for v in vec])
    assert got == [tuple(flat[k : k + ncols]) for k in range(0, len(flat), ncols)]
    for vec in got:
        assert all(type(v) is int for v in vec)
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_nullspace_empty_and_integer_inputs():
    assert nullspace([], 3) == nullspace_oracle([], 3)
    assert nullspace([], 3) == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    assert nullspace([[]]) == []
    assert nullspace([[0, 0]]) == [(1, 0), (0, 1)]
    # full row rank: the free column after the last pivot row
    assert nullspace([[1, 2]]) == [(-2, 1)]
    # a negative pivot: the free column keeps its positive entry
    assert nullspace([[-2, 1]]) == [(1, 2)]
    # denominators 3 and 2: both vectors over 6, not each over its own
    assert nullspace([[6, 2, 3]]) == [(-2, 6, 0), (-3, 0, 6)]
    # ints and Fractions give the same basis
    assert nullspace([[2, 4, 6], [1, 1, 1]]) == nullspace(
        [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(1, 5)] * 3]
    )
    with pytest.raises(ValueError):
        nullspace([])


@settings(deadline=None, max_examples=200)
@given(limited_matrices())
# the first pivot row comes from below, so column 1 is a pivot column only
# after that swap, and the first free column is 2
@example(([[0, 1, 1], [1, 0, 1]], 3, 1))
# column 1 becomes 0 after the first step only if that step divides by the
# pivot -2, not by the previous pivot 1: then it would be read as free
@example(([[-2, -1, 0], [-1, 0, 0]], 3, 1))
def test_column_source_is_read_up_to_the_last_free_column_only(case):
    # the same matrix handed over a column at a time, cleared row by row:
    # the same basis, and the scan reads columns 0, 1, ... once each, up to
    # the limit-th free column when there is one, else every column
    rows, ncols, limit = case
    ints = [cleared(row)[1] for row in rows]
    read = []

    def column(c):
        read.append(c)
        return [row[c] for row in ints]

    got = nullspace(ncols=ncols, limit=limit, column=column)
    assert got == nullspace(rows, ncols, limit=limit)
    _, pivots = rref_oracle(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if limit is None or limit > len(free):
        stop = ncols
    else:
        stop = free[limit - 1] + 1 if limit else 0
    assert read == list(range(stop))
