"""Differential and pinned tests of the integer surface predicates against
their `Fraction` references: the plane predicate
`partition.plane_divides_form` against the long division
`algebra.divides_by_plane`, and the zero-set kernel
`partition.line_in_zero_set` and `Quadric`'s point and line tests against
`algebra.line_in_zero_set` and `TriPoly.evaluate_point`, and the cone
kernel `partition.is_cone_form` against `algebra.is_cone_with_apex`, and the
regulus kernel `partition.regulus_divides_form` against `algebra.tp_divides`."""

from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from incilab import algebra, partition, pipeline
from incilab.algebra import TriPoly, X, Y, Z, divides_by_plane, plane_poly
from incilab.geom import Rational3Point, RationalLine, RationalPlane
from incilab.incidence import Quadric, regulus_through
from incilab.partition import _form, plane_divides_form

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
    assert plane_divides_form(_form(g), key) == divides_by_plane(g, RationalPlane(*key))


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
    assert not plane_divides_form(_form(g), key)
    product = g * scaled_plane(key, Fraction(2, 5))
    assert plane_divides_form(_form(product), key)


# Planes off the origin with a pivot other than 1 and the other entries
# nonzero, times a factor that vanishes at no real point: the predicate must
# evaluate points on the plane itself.
@pytest.mark.parametrize(
    "key", [(2, 3, -1, 5), (0, 2, 3, -5), (0, 0, 3, -2)], ids=["a", "b", "c"]
)
def test_plane_predicate_evaluates_points_of_the_plane(key):
    positive = X * X + Y * Y + Z * Z + TriPoly.constant(Fraction(1, 2))
    plane = scaled_plane(key, Fraction(3, 7))
    assert plane_divides_form(_form(plane * positive), key)
    assert plane_divides_form(_form(plane * plane * positive), key)
    assert not plane_divides_form(_form(positive), key)
    parallel = scaled_plane((*key[:3], key[3] + 1), Fraction(3, 7))
    assert not plane_divides_form(_form(parallel * positive), key)


# -- the zero-set kernel and Quadric against their Fraction references -------------

small = st.integers(-3, 3)
direction = st.tuples(small, small, small).filter(any)
rational_triple = st.tuples(rational, rational, rational)
# lines whose canonical foot is not integral: stored as B/w with w > 1
fractional_lines = st.builds(
    lambda b, d: RationalLine(Rational3Point(*b), d), rational_triple, direction
).filter(lambda line: line.base.ints[3] > 1)
non_integer = st.builds(Fraction, nonzero, st.integers(2, 7)).filter(lambda f: f.denominator > 1)
# nonzero levels of degree at most 2, 3 and 4 with rational coefficients
LEVELS_UP_TO = {
    top: st.dictionaries(
        st.sampled_from([e for e in product(range(top + 1), repeat=3) if sum(e) <= top]),
        rational,
        min_size=1,
        max_size=5,
    )
    .map(TriPoly)
    .filter(lambda g: not g.is_zero())
    for top in (2, 3, 4)
}
level_kind = st.sampled_from(["plane", "ruling", "free", "parallel"])


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _plane(normal, point, shift=0) -> TriPoly:
    """normal . (x - point) + shift; with shift 0, a plane through point."""
    c = shift - sum(n * p for n, p in zip(normal, point))
    return TriPoly({(1, 0, 0): normal[0], (0, 1, 0): normal[1], (0, 0, 1): normal[2], (0, 0, 0): c})


@st.composite
def line_and_level(draw):
    """A line with a non-integral foot and a level of degree 1-4 with
    non-integer rational coefficients, which vanishes on the line in half
    the cases: a plane through the line times a random factor, or
    l1*m1 + l2*m2 with l1, l2 planes through the line and m1, m2 random
    planes (a quadric with the line as a ruling) times a random factor.  The
    other half are random levels, and planes parallel to the line, whose
    restriction is a nonzero constant."""
    line = draw(fractional_lines)
    base = line.base.coords
    n1, n2 = (_cross(line.dir, draw(direction)) for _ in range(2))
    assume(any(_cross(n1, n2)))  # two independent planes through the line
    kind = draw(level_kind)
    if kind == "plane":
        g = _plane(n1, base) * draw(LEVELS_UP_TO[3])
    elif kind == "ruling":
        m1, m2 = (_plane(draw(direction), draw(rational_triple)) for _ in range(2))
        quadric = _plane(n1, base) * m1 + _plane(n2, base) * m2
        assume(not quadric.is_zero())
        g = quadric * draw(LEVELS_UP_TO[2])
    elif kind == "free":
        g = draw(LEVELS_UP_TO[4])
        assume(g.degree >= 1)
    else:
        g = _plane(n1, base, draw(non_integer))
    return line, g * draw(non_integer), kind


@settings(max_examples=200, deadline=None)
@given(line_and_level())
def test_zero_set_kernel_matches_the_fraction_reference(case):
    line, g, kind = case
    want = algebra.line_in_zero_set(g, line)
    assert partition.line_in_zero_set(_form(g), line) == want
    if kind in ("plane", "ruling"):
        assert want
    elif kind == "parallel":
        assert not want


def _transversal(point, l2, l3) -> RationalLine:
    """The line through `point` that meets l2 and l3 (perhaps at infinity):
    the meet of the planes that the point spans with each line."""
    n2, n3 = (_cross([b - p for b, p in zip(l.base.coords, point.coords)], l.dir) for l in (l2, l3))
    return RationalLine(point, _cross(n2, n3))


@st.composite
def quadric_cases(draw):
    """The quadric through three lines with non-integral feet
    (`regulus_through`), with points on it (on the three lines) and off it,
    lines on it (the three, and a transversal of them, which is a ruling of
    the other family) and lines off it (a random line, and a line through a
    point of the quadric).  Each point and line is paired with whether it
    was drawn on the quadric (None: not known)."""
    trio = draw(st.lists(fractional_lines, min_size=3, max_size=3, unique=True))
    try:
        quad = regulus_through(*trio)
    except ValueError:  # not pairwise skew, or no unique quadric
        assume(False)
    on = [draw(st.sampled_from(trio)).point_at(draw(rational)) for _ in range(2)]
    points = [(p, True) for p in on] + [(Rational3Point(*draw(rational_triple)), None)]
    a = trio[0].point_at(draw(rational))  # on neither trio[1] nor trio[2]: they are skew
    lines = [(l, True) for l in trio] + [(_transversal(a, *trio[1:]), True)]
    lines += [(draw(fractional_lines), None), (RationalLine(on[0], draw(direction)), None)]
    return quad, points, lines


@settings(max_examples=150, deadline=None)
@given(quadric_cases())
def test_quadric_tests_match_the_fraction_reference(case):
    quad, points, lines = case
    for p, on in points:
        want = quad.poly.evaluate_point(p) == 0
        assert quad.contains_point(p) == want
        assert want or not on
    for line, on in lines:
        want = algebra.line_in_zero_set(quad.poly, line)
        assert quad.contains_line(line) == want
        assert want or not on


def test_zero_set_kernel_reads_the_constant_term():
    # the line x = 1/2, z = y/2 (foot (1/2, 0, 0) over w = 2), a plane
    # through it and a plane parallel to it
    line = RationalLine(Rational3Point(Fraction(1, 2), 0, 0), (0, 2, 1))
    assert line.base.ints == (1, 0, 0, 2)
    through = X - TriPoly.constant(Fraction(1, 2))
    parallel = X - TriPoly.constant(Fraction(1, 3))
    assert partition.line_in_zero_set(_form(through), line)
    assert not partition.line_in_zero_set(_form(parallel), line)
    assert not partition.line_in_zero_set(_form(parallel * (X * Y + Z)), line)
    assert partition.line_in_zero_set(_form(through * parallel), line)


def test_quadric_decides_points_and_lines_off_the_integer_lattice():
    saddle = Quadric((0, 0, 0, 2, 0, 0, 0, 0, -2, 0))  # z = x y
    assert saddle.form == ((1, 1, 0, 0, 1), (0, 0, 1, 1, -1))
    assert saddle.contains_point(Rational3Point(Fraction(1, 2), 3, Fraction(3, 2)))
    assert not saddle.contains_point(Rational3Point(Fraction(1, 2), 3, 3))
    # the ruling x = 1/2, z = y/2, and the line through its foot along z
    assert saddle.contains_line(RationalLine(Rational3Point(Fraction(1, 2), 0, 0), (0, 2, 1)))
    assert not saddle.contains_line(RationalLine(Rational3Point(Fraction(1, 2), 0, 0), (0, 0, 1)))


# -- the cone kernel against its Fraction reference ---------------------------------

HOMOGENEOUS = {
    d: [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)] for d in (1, 2, 3)
}


def _shifted(G: TriPoly, apex: Rational3Point) -> TriPoly:
    """G(x - apex): a G homogeneous of degree d gives a cone with that apex."""
    px, py, pz = apex.coords
    out = TriPoly.zero()
    for (a, b, c), C in G.terms().items():
        out = out + (X - px) ** a * (Y - py) ** b * (Z - pz) ** c * C
    return out


@st.composite
def cone_cases(draw):
    """A level and an apex: a shifted homogeneous G(v - p) at its apex p, a
    near miss (G(v - p) plus a constant or a lower-degree shifted term), the
    cone at a point off its apex, or a plane (G of degree 1)."""
    apex = Rational3Point(*draw(rational_triple))
    d = draw(st.integers(1, 3))
    exps = draw(st.lists(st.sampled_from(HOMOGENEOUS[d]), min_size=1, max_size=4, unique=True))
    G = TriPoly({e: draw(nonzero_rational) for e in exps})
    g = _shifted(G, apex)
    kind = draw(st.sampled_from(["cone", "constant", "lower", "off"]))
    if kind == "constant":
        g = g + TriPoly.constant(draw(nonzero_rational))
    elif kind == "lower" and d > 1:
        lower = draw(st.integers(1, d - 1))
        g = g + _shifted(TriPoly({draw(st.sampled_from(HOMOGENEOUS[lower])): 1}), apex)
    elif kind == "off":
        apex = Rational3Point(*draw(rational_triple))
    return g, apex


# (x - 1/2)^2 + (y - 1/3)^2 - (z - 2/5)^2, apexed at ints (15, 10, 12, 30)
@example(
    (
        _shifted(X * X + Y * Y - Z * Z, Rational3Point(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))),
        Rational3Point(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)),
    )
)
@settings(max_examples=300, deadline=None)
@given(cone_cases())
def test_cone_kernel_matches_the_fraction_reference(case):
    g, apex = case
    want = algebra.is_cone_with_apex(g, apex)
    form = _form(g)
    assert partition.is_cone_form(form, apex.ints) == want
    # any W != 0 names the same apex
    assert partition.is_cone_form(form, tuple(-c for c in apex.ints)) == want
    if want:  # a cone holds its apex
        assert partition.form_value(form, apex.ints) == 0


def test_cone_kernel_reads_every_coordinate_and_exponent():
    apex = Rational3Point(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
    assert apex.ints == (15, 10, 12, 30)
    cone = _shifted(X * X + Y * Y - Z * Z, apex)
    assert partition.is_cone_form(_form(cone), apex.ints)
    assert not partition.is_cone_form(_form(cone), (0, 0, 0, 1))
    # (x - 1)^2 + y^2 - z^2 at (1, 0, 0): the X and W derivatives cancel
    unit = _shifted(X * X + Y * Y - Z * Z, Rational3Point(1, 0, 0))
    assert partition.is_cone_form(_form(unit), (1, 0, 0, 1))
    assert partition.is_cone_form(_form(unit), (2, 0, 0, 2))
    # x^2 + y^2 - z^2 + 1 at the origin: only its W derivative is nonzero
    lifted = X * X + Y * Y - Z * Z + TriPoly.constant(1)
    assert not partition.is_cone_form(_form(lifted), (0, 0, 0, 1))
    # a plane is a cone at each of its points, and only there
    plane = X + Y - TriPoly.constant(1)
    assert partition.is_cone_form(_form(plane), (1, 1, 0, 2))
    assert not partition.is_cone_form(_form(plane), (0, 0, 0, 1))


def test_pipeline_decides_cones_with_the_integer_kernel():
    assert pipeline.is_cone_with_apex is partition.is_cone_form


# -- the regulus kernel against its Fraction reference ------------------------------

# pairwise skew lines with feet over 6, 15 and 4
PINNED_TRIO = (
    RationalLine(Rational3Point(Fraction(1, 2), Fraction(1, 3), 0), (0, 1, 2)),
    RationalLine(Rational3Point(Fraction(2, 3), 0, Fraction(-1, 5)), (1, 0, 1)),
    RationalLine(Rational3Point(0, Fraction(3, 4), Fraction(1, 2)), (1, -1, 1)),
)


def _near_miss(trio, spans) -> TriPoly:
    """The product of d = len(spans) planes, the t-th holding the transversal
    of the trio through trio[0]'s point at t and spanned with spans[t]: zero
    on the d transversals a degree-d test takes first, but not on the last,
    since a plane holds no two lines of one ruling."""
    g = TriPoly.constant(Fraction(2, 3))
    for t, span in enumerate(spans):
        line = _transversal(trio[0].point_at(t), *trio[1:])
        g = g * _plane(_cross(line.dir, span), line.base.coords)
    return g


@st.composite
def regulus_cases(draw):
    """Three pairwise skew lines with non-integral feet and a level with
    non-integer coefficients, with its kind: the quadric Q through the lines
    times a level h of degree at most 2 ("product"), Q*h plus a random level
    ("perturbed"), a random level ("free"), or `_near_miss` of degree 1-4
    ("near")."""
    trio = tuple(draw(st.lists(fractional_lines, min_size=3, max_size=3, unique=True)))
    try:
        quad = regulus_through(*trio)
    except ValueError:  # not pairwise skew, or no unique quadric
        assume(False)
    kind = draw(st.sampled_from(["product", "perturbed", "free", "near"]))
    if kind == "near":
        g = _near_miss(trio, draw(st.lists(direction, min_size=1, max_size=4)))
    elif kind == "free":
        g = draw(LEVELS_UP_TO[4])
    else:
        g = quad.poly * draw(LEVELS_UP_TO[2])
        if kind == "perturbed":
            g = g + draw(LEVELS_UP_TO[3])
    assume(not g.is_zero())
    return trio, g * draw(non_integer), kind


@example((PINNED_TRIO, _near_miss(PINNED_TRIO, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), "near"))
@example((PINNED_TRIO, regulus_through(*PINNED_TRIO).poly * (X - TriPoly.constant(Fraction(1, 7))), "product"))
@settings(max_examples=200, deadline=None)
@given(regulus_cases())
def test_regulus_kernel_matches_the_fraction_reference(case):
    trio, g, kind = case
    want = algebra.tp_divides(regulus_through(*trio).poly, g)
    assert partition.regulus_divides_form(_form(g), *trio) == want
    if kind == "product":
        assert want
    elif kind == "near":
        assert not want


def test_pipeline_decides_reguli_with_the_integer_kernel():
    assert pipeline.tp_divides is partition.regulus_divides_form
