"""Exact rational primitives: canonical lines, planes, and coplanarity."""

import dataclasses
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from incilab.geom import (
    Rational3Point,
    RationalLine,
    RationalPlane,
    canonical_line,
    cleared,
    plane_through_lines,
    point_on_line,
    primitive,
    primitive_int_vector,
)
from incilab.incidence import Quadric

coord = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)


def test_primitive_int_vector():
    assert primitive_int_vector((4, -6, 2)) == (2, -3, 1)
    assert primitive_int_vector((0, -4, -2)) == (0, 2, 1)
    assert primitive_int_vector((Fraction(1, 2), 0, Fraction(3, 4))) == (2, 0, 3)
    with pytest.raises(ValueError):
        primitive_int_vector((0, 0, 0))


# -- integer normal form -------------------------------------------------------


def _cleared_reference(values):
    """The lcm-of-denominators loop `cleared` replaced."""
    fracs = [Fraction(v) for v in values]
    mult = math.lcm(*(f.denominator for f in fracs))
    return mult, [int(f * mult) for f in fracs]


def _primitive_reference(ints):
    """The gcd and first-sign loop `primitive` replaced."""
    g = math.gcd(*ints)
    ints = [c // g for c in ints]
    for c in ints:
        if c != 0:
            if c < 0:
                ints = [-v for v in ints]
            break
    return ints


# ints mixed with Fractions of denominator 1-12, as `_balanced` hands
# `nullspace` int rows and every other caller passes Fractions
entry = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12)),
)
vectors = st.sampled_from([3, 4, 10]).flatmap(lambda k: st.lists(entry, min_size=k, max_size=k))


@given(vectors)
def test_cleared_matches_the_lcm_loop(values):
    L, ints = cleared(values)
    assert (L, ints) == _cleared_reference(values)
    assert all(type(v) is int for v in ints)
    assert all(Fraction(i, L) == v for i, v in zip(ints, values))


@given(vectors.filter(any))
def test_primitive_matches_the_gcd_sign_loop(values):
    ints = cleared(values)[1]
    assert primitive(ints) == _primitive_reference(ints)
    assert primitive_int_vector(values) == tuple(_primitive_reference(ints))


def test_cleared_and_primitive_pinned():
    assert cleared([Fraction(1, 2), 3, Fraction(-5, 6)]) == (6, [3, 18, -5])
    assert cleared([]) == (1, [])
    assert primitive([0, -6, 4, 2]) == [0, 3, -2, -1]
    assert primitive([0, 0, 7]) == [0, 0, 1]


nonzero_scale = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)


@given(st.lists(entry, min_size=4, max_size=4).filter(lambda v: any(v[:3])), nonzero_scale)
def test_plane_is_unchanged_by_scaling(coeffs, k):
    plane = RationalPlane(*coeffs)
    assert RationalPlane(*(k * c for c in coeffs)) == plane
    assert plane.coeffs == primitive_int_vector(coeffs)


@given(st.lists(entry, min_size=10, max_size=10).filter(any), nonzero_scale)
def test_quadric_is_unchanged_by_scaling(coeffs, k):
    quad = Quadric(tuple(coeffs))
    assert Quadric(tuple(k * c for c in coeffs)) == quad
    assert quad.coeffs == primitive_int_vector(coeffs)


def test_point_coords_and_translate():
    p = Rational3Point(1, Fraction(1, 2), -3)
    assert p.coords == (1, Fraction(1, 2), -3)
    q = p.translate((1, 1, 1))
    assert q.coords == (2, Fraction(3, 2), -2)


@given(
    st.tuples(entry, entry, entry),
    st.tuples(*[st.integers(-10**6, 10**6)] * 3).filter(any),
)
def test_integer_direction_skips_clearing_to_the_same_line(base, direction):
    # an int 3-tuple goes straight to `primitive`; as Fractions or a list it
    # is cleared first
    line = RationalLine(Rational3Point(*base), direction)
    assert line == RationalLine(Rational3Point(*base), tuple(map(Fraction, direction)))
    assert line == RationalLine(Rational3Point(*base), list(direction))
    assert line.dir == tuple(_primitive_reference(list(direction)))


def test_integer_direction_pinned():
    line = RationalLine(Rational3Point(1, 2, 3), (-2, 4, -6))
    assert line.dir == (1, -2, 3)
    assert line.base.ints == (0, 4, 0, 1)
    with pytest.raises(ValueError, match="zero vector"):
        RationalLine(Rational3Point(0, 0, 0), (0, 0, 0))


def test_line_canonical_form_is_parametrization_free():
    a = RationalLine(Rational3Point(0, 0, 0), (1, 1, 0))
    b = RationalLine(Rational3Point(2, 2, 0), (-3, -3, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_line_canonicalization_details():
    # direction becomes primitive with positive leading entry; the base point
    # is slid along the line until its pivot coordinate is zero
    l = RationalLine(Rational3Point(Fraction(1, 2), 5, 7), (0, -2, -4))
    assert l.dir == (0, 1, 2)
    assert l.base.coords == (Fraction(1, 2), 0, -3)
    assert canonical_line(Rational3Point(Fraction(1, 2), 5, 7), (0, -2, -4)) == l


def test_line_rejects_zero_direction():
    with pytest.raises(ValueError):
        RationalLine(Rational3Point(0, 0, 0), (0, 0, 0))


def test_point_on_line():
    l = RationalLine(Rational3Point(0, 0, 0), (1, 1, 0))
    assert point_on_line(Rational3Point(7, 7, 0), l)
    assert point_on_line(Rational3Point(Fraction(-1, 3), Fraction(-1, 3), 0), l)
    assert not point_on_line(Rational3Point(7, 6, 0), l)
    assert not point_on_line(Rational3Point(7, 7, 1), l)


def test_line_point_at():
    l = RationalLine(Rational3Point(1, 0, 0), (0, 1, 2))
    p = l.point_at(Fraction(1, 2))
    assert p.coords == (1, Fraction(1, 2), 1)


def test_plane_coeffs_are_canonical():
    assert RationalPlane(0, 0, -3, 6).coeffs == (0, 0, 1, -2)
    assert RationalPlane(Fraction(1, 2), 0, 0, Fraction(-1, 4)).coeffs == (2, 0, 0, -1)
    with pytest.raises(ValueError):
        RationalPlane(0, 0, 0, 5)


def test_plane_predicates():
    pl = RationalPlane.from_point_normal(Rational3Point(0, 0, 2), (0, 0, 1))
    assert pl.coeffs == (0, 0, 1, -2)
    assert pl.normal == (0, 0, 1)
    assert pl.contains_point(Rational3Point(5, -3, 2))
    assert not pl.contains_point(Rational3Point(5, -3, 1))
    inside = RationalLine(Rational3Point(0, 0, 2), (1, 4, 0))
    crossing = RationalLine(Rational3Point(0, 0, 2), (1, 0, 1))
    assert pl.contains_line(inside)
    assert not pl.contains_line(crossing)


def test_plane_through_lines_cases():
    xaxis = RationalLine(Rational3Point(0, 0, 0), (1, 0, 0))
    meet = RationalLine(Rational3Point(0, 0, 0), (0, 1, 0))
    parallel = RationalLine(Rational3Point(0, 5, 0), (1, 0, 0))
    skew = RationalLine(Rational3Point(0, 1, 0), (0, 0, 1))
    same = RationalLine(Rational3Point(9, 0, 0), (-2, 0, 0))

    assert plane_through_lines(xaxis, meet).coeffs == (0, 0, 1, 0)
    assert plane_through_lines(xaxis, parallel).coeffs == (0, 0, 1, 0)
    assert plane_through_lines(xaxis, skew) == "skew"
    assert plane_through_lines(xaxis, same) == "identical"


@given(
    st.tuples(coord, coord, coord),
    st.tuples(coord, coord, coord).filter(lambda v: any(v)),
    st.fractions(min_value=-10, max_value=10, max_denominator=6),
)
def test_any_point_at_lies_on_line(base, direction, t):
    l = RationalLine(Rational3Point(*base), direction)
    assert point_on_line(l.point_at(t), l)


@given(
    st.tuples(coord, coord, coord),
    st.tuples(coord, coord, coord).filter(lambda v: any(v)),
    st.fractions(min_value=-10, max_value=10, max_denominator=6).filter(bool),
)
def test_rebasing_and_rescaling_preserve_identity(base, direction, s):
    l = RationalLine(Rational3Point(*base), direction)
    moved = RationalLine(l.point_at(7), tuple(s * d for d in l.dir))
    assert moved == l


# -- stored integer form of points and lines ------------------------------------

# small values, so that equal points given as ints and as Fractions are drawn
small = st.one_of(
    st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 12))
)
triple = st.tuples(entry, entry, entry)


@given(st.lists(st.tuples(small, small, small), min_size=2, max_size=12))
def test_point_eq_and_hash_agree_with_the_fraction_tuple(coords):
    points = [Rational3Point(*c) for c in coords]
    fracs = [tuple(map(Fraction, c)) for c in coords]
    for p, fp in zip(points, fracs):
        for q, fq in zip(points, fracs):
            assert (p == q) == (fp == fq)
            if fp == fq:
                assert hash(p) == hash(q)
    assert len(set(points)) == len(set(fracs))


@given(triple)
def test_point_ints_are_its_cleared_coordinates(coords):
    X, Y, Z, q = Rational3Point(*coords).ints
    assert q == math.lcm(*(Fraction(c).denominator for c in coords))
    assert (Fraction(X, q), Fraction(Y, q), Fraction(Z, q)) == tuple(map(Fraction, coords))


def _foot_reference(base, direction):
    """The `Fraction` arithmetic `RationalLine` used for its base: slide the
    base along d until the first nonzero axis of d reads 0."""
    d = primitive_int_vector(direction)
    b = tuple(map(Fraction, base))
    pivot = 0 if d[0] != 0 else (1 if d[1] != 0 else 2)
    t = -b[pivot] / Fraction(d[pivot])
    return tuple(b[i] + t * d[i] for i in range(3))


# zero pivots and negative leading entries, ints mixed with Fractions
direction = st.tuples(
    st.sampled_from([0, 0, 1, -1, 3, -4, Fraction(-2, 3), Fraction(5, 12)]), small, small
).filter(any)


@given(triple, direction)
def test_line_base_matches_the_fraction_foot(base, d):
    line = RationalLine(Rational3Point(*base), d)
    foot = _foot_reference(base, d)
    assert line.base.coords == foot
    assert line.dir == primitive_int_vector(d)
    L, ints = cleared(foot)
    assert line.base.ints == (*ints, L)


# -- the integer form is the only stored state -----------------------------------


def test_point_stores_only_its_integer_form():
    assert [f.name for f in dataclasses.fields(Rational3Point)] == ["ints"]
    assert list(inspect.signature(Rational3Point).parameters) == ["x", "y", "z"]
    p = Rational3Point(Fraction(1, 2), 0, Fraction(-2, 3))
    assert p.ints == (3, 0, -4, 6)
    assert p.coords is p.coords  # derived on first use, then cached
    assert (p.x, p.y, p.z) == p.coords == (Fraction(1, 2), 0, Fraction(-2, 3))
    assert repr(p) == "Pt(1/2, 0, -2/3)"


ints = st.integers(-10**6, 10**6)


@given(ints, ints, ints, st.integers(1, 10**4), st.integers(1, 60))
def test_from_ints_matches_the_fraction_constructor(X, Y, Z, W, k):
    p = Rational3Point.from_ints(k * X, k * Y, k * Z, k * W)
    ref = Rational3Point(Fraction(X, W), Fraction(Y, W), Fraction(Z, W))
    assert p.ints == ref.ints
    assert p == ref and hash(p) == hash(ref)
    assert (p.x, p.y, p.z) == (ref.x, ref.y, ref.z) == (Fraction(X, W), Fraction(Y, W), Fraction(Z, W))


@pytest.mark.parametrize("W", [0, -1, -12])
def test_from_ints_rejects_a_nonpositive_denominator(W):
    with pytest.raises(ValueError, match="W > 0"):
        Rational3Point.from_ints(1, 2, 3, W)


@pytest.mark.parametrize("bad", [0.5, 0.1, 2.0, "1", "1/2", None])
def test_geometry_refuses_floats_and_strings(bad):
    origin = Rational3Point(0, 0, 0)
    with pytest.raises(TypeError, match=f"not an int or a Fraction: {bad!r}"):
        Rational3Point(bad, 0, 0)
    with pytest.raises(TypeError):
        RationalLine(origin, (1, bad, 0))
    with pytest.raises(TypeError):
        RationalPlane(1, 0, bad, 0)
    with pytest.raises(TypeError):
        RationalPlane.from_point_normal(Rational3Point(0, 0, 1), (1, bad, 0))
    with pytest.raises(TypeError):
        canonical_line((bad, 0, 0), (1, 0, 0))
    with pytest.raises(TypeError):
        canonical_line((0, 0, 0), (1, bad, 0))
    with pytest.raises(TypeError):
        RationalLine(origin, (1, 2, 3)).point_at(bad)


@given(st.lists(entry, min_size=4, max_size=4).filter(lambda v: any(v[:3])), triple)
def test_plane_eval_matches_the_fraction_expression(coeffs, coords):
    point = Rational3Point(*coords)
    x, y, z = map(Fraction, coords)
    a, b, c, _ = coeffs
    through = RationalPlane(a, b, c, -(a * x + b * y + c * z))
    for plane in (RationalPlane(*coeffs), through):
        a, b, c, d = plane.coeffs
        value = a * x + b * y + c * z + d
        assert plane.contains_point(point) == (value == 0)
    assert through.contains_point(point)
