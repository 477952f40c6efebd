"""Differential and pinned tests of the integer plane predicate
`partition.plane_divides_form` against the `Fraction` long division
`algebra.divides_by_plane`."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from incilab.algebra import TriPoly, X, Y, Z, divides_by_plane, plane_poly
from incilab.geom import RationalPlane
from incilab.partition import PartitionPoly, plane_divides_form

rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
nonzero_rational = rational.filter(bool)
nonzero = st.integers(-4, 4).filter(bool)
coord = st.integers(-4, 4)
shift = st.integers(-3, 3).filter(bool)
plane_coeffs = st.tuples(coord, coord, coord, coord).filter(lambda v: any(v[:3]))
QUADRATIC = [(i, j, k) for i in range(3) for j in range(3 - i) for k in range(3 - i - j)]
quadric_terms = st.dictionaries(st.sampled_from(QUADRATIC), rational, max_size=4)
extra_terms = st.dictionaries(st.sampled_from(QUADRATIC), rational, max_size=3)

# keys for each pivot branch: a != 0; a = 0 and b != 0; a = b = 0
PIVOT_KEYS = {
    "a": st.tuples(nonzero, coord, coord, coord),
    "b": st.tuples(st.just(0), nonzero, coord, coord),
    "c": st.tuples(st.just(0), st.just(0), nonzero, coord),
}


def scaled_plane(coeffs, scale) -> TriPoly:
    return plane_poly(RationalPlane(*coeffs)) * scale


def form_of(g: TriPoly):
    """The form of g kept as given: no primitive scaling, as `PartitionPoly`
    stores levels built by the search."""
    return PartitionPoly(levels=(g,), epsilon=Fraction(0), seed=0).forms[0]


@st.composite
def level_and_key(draw, pivot):
    """A coplanar_buckets key of the pivot's branch and a level built as a
    product of planes and quadrics times one extra random factor: often
    the key's plane (sometimes repeated), planes parallel to it and random
    planes, each scaled by a random rational, so most coefficients are not
    integers."""
    key = RationalPlane(*draw(PIVOT_KEYS[pivot])).coeffs
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["same", "parallel", "plane", "quadric"]))
        scale = draw(nonzero_rational)
        if kind == "same":
            factors += [scaled_plane(key, scale)] * draw(st.integers(1, 2))
        elif kind == "parallel":
            factors.append(scaled_plane((*key[:3], key[3] + draw(shift)), scale))
        elif kind == "plane":
            factors.append(scaled_plane(draw(plane_coeffs), scale))
        else:
            quadric = TriPoly(draw(quadric_terms))
            factors.append(quadric if not quadric.is_zero() else TriPoly.constant(scale))
    extra = TriPoly(draw(extra_terms))
    if extra.is_zero():
        extra = TriPoly.constant(draw(nonzero_rational))
    g = reduce(lambda p, q: p * q, factors, extra)
    if g.is_zero():
        g = scaled_plane(key, Fraction(1, 3))
    return g, key


@pytest.mark.parametrize("pivot", ["a", "b", "c"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_plane_predicate_matches_fraction_division(pivot, data):
    g, key = data.draw(level_and_key(pivot))
    assert plane_divides_form(form_of(g), key) == divides_by_plane(g, RationalPlane(*key))


def near_miss(var: TriPoly, d: int) -> TriPoly:
    """prod_{i<d} (var - i) / 3: zero on the d x d grid {0..d-1}^2 of the
    test planes below, but not on their (d+1) x (d+1) grid."""
    return reduce(lambda p, i: p * (var - TriPoly.constant(i)), range(d), TriPoly.constant(Fraction(1, 3)))


# Each plane through the origin, with the free coordinates of its grid:
# x = 0 is parametrized by (y, z), y = 0 by (x, z) and z = 0 by (x, y).
@pytest.mark.parametrize(
    "key, var",
    [
        ((1, 0, 0, 0), Y),
        ((1, 0, 0, 0), Z),
        ((0, 1, 0, 0), X),
        ((0, 1, 0, 0), Z),
        ((0, 0, 1, 0), X),
        ((0, 0, 1, 0), Y),
    ],
    ids=["a-y", "a-z", "b-x", "b-z", "c-x", "c-y"],
)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_plane_predicate_needs_the_full_grid(key, var, d):
    g = near_miss(var, d)
    assert not divides_by_plane(g, RationalPlane(*key))
    assert not plane_divides_form(form_of(g), key)
    product = g * scaled_plane(key, Fraction(2, 5))
    assert plane_divides_form(form_of(product), key)


# Planes off the origin with a pivot other than 1 and the other entries
# nonzero, times a factor that vanishes at no real point: the predicate must
# evaluate points on the plane itself.
@pytest.mark.parametrize(
    "key", [(2, 3, -1, 5), (0, 2, 3, -5), (0, 0, 3, -2)], ids=["a", "b", "c"]
)
def test_plane_predicate_evaluates_points_of_the_plane(key):
    positive = X * X + Y * Y + Z * Z + TriPoly.constant(Fraction(1, 2))
    plane = scaled_plane(key, Fraction(3, 7))
    assert plane_divides_form(form_of(plane * positive), key)
    assert plane_divides_form(form_of(plane * plane * positive), key)
    assert not plane_divides_form(form_of(positive), key)
    parallel = scaled_plane((*key[:3], key[3] + 1), Fraction(3, 7))
    assert not plane_divides_form(form_of(parallel * positive), key)
