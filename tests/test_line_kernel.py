"""Differential tests of the integer line kernel in `incilab.partition`
(restrictions, Sturm root counts, gap samples and crossed classes) against
the `Fraction` oracles in `incilab.algebra`."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from incilab.algebra import (
    TriPoly,
    UniPoly,
    _variations_at,
    count_real_roots,
    restrict_to_line,
    sign_gap_samples,
    sturm_chain,
)
from incilab.geom import Rational3Point, RationalLine
from incilab.partition import (
    PartitionPoly,
    _classes_crossed_reference,
    _classify_lines_reference,
    _count_roots,
    _gap_samples,
    _product,
    _form,
    _restrict,
    classes_crossed,
    classify_lines,
)

rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
small_int = st.integers(-3, 3)
direction = st.tuples(small_int, small_int, small_int).filter(any)
lines = st.builds(
    lambda b, d: RationalLine(Rational3Point(*b), d),
    st.tuples(rational, rational, rational),
    direction,
)
EXPONENTS = [(i, j, k) for i in range(4) for j in range(4 - i) for k in range(4 - i - j)]
# strategies the draws below reuse, built once: a strategy made inside a
# draw is built, and its properties computed, again for every example
nonzero_rational = rational.filter(bool)
free_exponents = st.lists(st.sampled_from(EXPONENTS), max_size=5)
level_kind = st.sampled_from(["free", "contains", "square", "constant", "root"])
zero_or_one = st.sampled_from([0, 1])
level_count = st.integers(1, 3)
kernel_lines = st.lists(lines, min_size=1, max_size=3, unique=True)


def partition_of(levels) -> PartitionPoly:
    """The levels as given, cleared to ints without primitive scaling, so
    their signs are kept."""
    return PartitionPoly(tuple(_form(g) for g in levels), Fraction(1, 10), 0)


def _linear(u, c) -> TriPoly:
    return TriPoly({(1, 0, 0): u[0], (0, 1, 0): u[1], (0, 0, 1): u[2], (0, 0, 0): -c})


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@st.composite
def level_for(draw, line: RationalLine) -> TriPoly:
    """A level with rational coefficients, often special along `line`."""
    free = TriPoly({e: draw(rational) for e in draw(free_exponents)})
    if free.is_zero():
        free = TriPoly.constant(draw(nonzero_rational))
    base = line.base.coords
    # a normal to the line's direction: linear forms with it are constant along the line
    normal = _cross(line.dir, draw(direction))
    kind = draw(level_kind)
    if kind == "free" or not any(normal):
        return free
    plane = _linear(normal, _dot(normal, base))  # vanishes on the whole line
    if kind == "contains":
        return plane * (draw(nonzero_rational) + free * draw(zero_or_one))
    shift = draw(nonzero_rational)
    if kind == "constant":
        return _linear(normal, _dot(normal, base) + shift)  # nonzero along the line
    # a linear form vanishing at base + shift * dir but not on the whole line
    u = draw(direction.filter(lambda v: _dot(v, line.dir) != 0))
    point = line.point_at(shift).coords
    root = _linear(u, _dot(u, point)) * draw(nonzero_rational)
    if kind == "square":
        return root * root * (free if draw(zero_or_one) else TriPoly.one())
    return root * free


@st.composite
def kernel_inputs(draw):
    lns = draw(kernel_lines)
    levels = [draw(level_for(draw(st.sampled_from(lns)))) for _ in range(draw(level_count))]
    levels = [g for g in levels if not g.is_zero()] or [TriPoly.variable(0)]
    part = partition_of(tuple(levels))
    return part, lns


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _fractions(samples):
    """Integer (num, den) samples as the `Fraction`s num/den, den > 0."""
    assert all(den > 0 for _, den in samples)
    return [Fraction(num, den) for num, den in samples]


@settings(deadline=None, max_examples=300)
@given(kernel_inputs())
def test_integer_line_kernel_matches_fraction_oracles(inputs):
    part, lns = inputs
    lc = classify_lines(part, lns)
    assert lc == _classify_lines_reference(part, lns)

    levels = part.levels
    for i, roots in lc.crossing:
        line = lns[i]
        # each integer restriction is a positive multiple of the Fraction one
        fraction_restrictions = [restrict_to_line(g, line) for g in levels]
        for h, r in zip(_restrict(part._kernel, line), fraction_restrictions):
            assert len(h) == len(r.coeffs)
            ratio = Fraction(h[-1]) / r.lead
            assert ratio > 0 and all(Fraction(a) == ratio * b for a, b in zip(h, r.coeffs))

        q = reduce(lambda a, b: a * b, fraction_restrictions)
        samples = _fractions(_gap_samples(_product(_restrict(part._kernel, line))))
        assert len(samples) == roots + 1
        assert all(q.evaluate(s) != 0 for s in samples)
        chain = sturm_chain(q)
        for a, b in zip(samples, samples[1:]):
            # exactly one root strictly between consecutive samples
            assert a < b
            assert _variations_at(chain, a) - _variations_at(chain, b) == 1

        expected = {
            tuple(_sign(g.evaluate_point(line.point_at(t))) for g in levels)
            for t in sign_gap_samples(q)
        }
        assert classes_crossed(part, line) == expected


def _plane_through(point, normal) -> TriPoly:
    return _linear(normal, _dot(normal, point.coords))


def _sphere(point, center) -> TriPoly:
    """|x - center|^2 - |point - center|^2: a quadric through `point`."""
    out = TriPoly.constant(-sum((a - c) ** 2 for a, c in zip(point.coords, center)))
    for axis, c in enumerate(center):
        out = out + (TriPoly.variable(axis) - c) ** 2
    return out


@st.composite
def shared_root_inputs(draw):
    """Levels whose roots along `line` coincide: planes and quadrics through
    a few anchor points of the line, planes parallel to it or containing it,
    and squares, plus a second line the levels meet generically."""
    line, other = draw(st.lists(lines, min_size=2, max_size=2, unique=True))
    anchors = [line.point_at(t) for t in draw(st.lists(rational, min_size=1, max_size=3))]
    crossing = direction.filter(lambda v: _dot(v, line.dir) != 0)

    def plane_at_anchor():
        return _plane_through(draw(st.sampled_from(anchors)), draw(crossing))

    def quadric_at_anchor():
        center = draw(st.tuples(rational, rational, rational))
        return _sphere(draw(st.sampled_from(anchors)), center)

    levels = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(
            st.sampled_from(
                ["plane", "plane", "plane", "parallel", "contains", "quadric", "cubic", "square"]
            )
        )
        normal = _cross(line.dir, draw(direction))
        if kind == "plane" or (kind in ("parallel", "contains") and not any(normal)):
            level = plane_at_anchor()
        elif kind == "parallel":
            shift = draw(rational.filter(bool))
            level = _linear(normal, _dot(normal, line.base.coords) + shift)
        elif kind == "contains":
            level = _plane_through(line.base, normal)
        elif kind == "quadric":
            level = quadric_at_anchor()
        elif kind == "cubic":
            level = quadric_at_anchor() * plane_at_anchor()
        else:
            factor = draw(st.sampled_from([plane_at_anchor, quadric_at_anchor]))()
            level = factor * factor
        levels.append(level)
    part = partition_of(tuple(levels))
    return part, [line, other]


@settings(deadline=None, max_examples=150)
@given(shared_root_inputs())
def test_roots_shared_across_levels_are_counted_once(inputs):
    part, lns = inputs
    lc = classify_lines(part, lns)
    assert lc == _classify_lines_reference(part, lns)
    levels = part.levels
    for i, _ in lc.crossing:
        line = lns[i]
        q = reduce(lambda a, b: a * b, (restrict_to_line(g, line) for g in levels))
        expected = {
            tuple(_sign(g.evaluate_point(line.point_at(t))) for g in levels)
            for t in sign_gap_samples(q)
        }
        assert classes_crossed(part, line) == expected


def test_planes_through_one_point_share_one_root():
    line = RationalLine(Rational3Point(Fraction(1, 3), Fraction(-2, 5), 1), (1, 2, -1))
    at = line.point_at(Fraction(3, 7))
    planes = [_plane_through(at, u) for u in [(1, 0, 0), (0, 1, 1), (2, -1, 3)]]
    parallel = _linear((2, -1, 0), 5)  # constant along the line
    part = partition_of((*planes, parallel))
    assert classify_lines(part, [line]).crossing == [(0, 1)]
    # the sphere through the common point adds only its second root
    sphere = _sphere(at, (0, 0, 0))
    part = partition_of((*planes, sphere))
    assert classify_lines(part, [line]).crossing == [(0, 2)]


def test_all_linear_lines_build_no_sturm_chain(monkeypatch):
    def no_chain(p):
        raise AssertionError("a Sturm chain was built")

    monkeypatch.setattr("incilab.partition._sturm_chain", no_chain)
    line = RationalLine(Rational3Point(Fraction(1, 2), 0, Fraction(-4, 3)), (1, -1, 2))
    at = line.point_at(Fraction(-5, 2))
    planes = (
        _plane_through(at, (1, 0, 1)),
        _plane_through(at, (0, 1, 1)),
        _plane_through(line.point_at(2), (1, 0, 0)),
        _linear((1, 1, 0), 7),  # constant along the line
    )
    part = partition_of(planes)
    assert classify_lines(part, [line]).crossing == [(0, 2)]
    # the first two planes change sign at t = -5/2, the third at t = 2
    assert classes_crossed(part, line) == {(-1, -1, -1, -1), (1, 1, -1, -1), (1, 1, 1, -1)}
    # one quadric level: its roots are counted by the discriminant, and the
    # planes' roots t = -5/2 (shared with the sphere) and t = 2 add one
    sphere = _sphere(at, (0, 0, 0))
    quadric = partition_of((*planes, sphere))
    lc = classify_lines(quadric, [line])
    assert lc == _classify_lines_reference(quadric, [line])
    assert lc.crossing == [(0, 3)]
    # two quadric levels: their degree-4 product gets a chain
    second = _sphere(line.point_at(2), (1, 0, 0))
    quartic = partition_of((*planes, sphere, second))
    with pytest.raises(AssertionError, match="Sturm chain"):
        classify_lines(quartic, [line])


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(1, 3)), max_size=4),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 5)), max_size=2),
    st.integers(-7, 7).filter(bool),
)
def test_root_count_and_samples_on_repeated_roots(roots, complex_pairs, lead):
    # (num/den)^mult factors and x^2 + b x + c with b^2 < 4c, times a signed lead
    factors = [UniPoly([-num, den]) for num, den, mult in roots for _ in range(mult)]
    factors += [UniPoly([b * b + c, 2 * b, 1]) for b, c in complex_pairs]
    q = reduce(lambda a, b: a * b, factors, UniPoly([lead]))
    p = [int(c) for c in q.coeffs]
    distinct = len({Fraction(num, den) for num, den, _ in roots})
    assert _count_roots(p) == count_real_roots(q) == distinct
    samples = _fractions(_gap_samples(p))
    assert len(samples) == distinct + 1
    assert all(q.evaluate(s) != 0 for s in samples)
    chain = sturm_chain(q)
    assert all(
        _variations_at(chain, a) - _variations_at(chain, b) == 1
        for a, b in zip(samples, samples[1:])
    )


def test_line_inside_a_level_is_contained_and_has_no_classes():
    line = RationalLine(Rational3Point(Fraction(1, 3), 0, Fraction(2, 7)), (1, 1, 0))
    plane = TriPoly({(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): Fraction(-1, 3)})
    part = partition_of((plane,))
    assert classify_lines(part, [line]).contained == [0]
    with pytest.raises(ValueError):
        classes_crossed(part, line)


@pytest.mark.parametrize("q", [UniPoly([1, 0, 1]), UniPoly([1, 0, 2, 0, 1])])  # x^2+1, its square
def test_no_real_root_gives_one_sample(q):
    roots = count_real_roots(q)
    p = [int(c) for c in q.coeffs]
    assert roots == _count_roots(p) == 0
    assert len(sign_gap_samples(q)) == roots + 1
    assert len(_gap_samples(p)) == roots + 1


@st.composite
def quadratics(draw):
    """Integer c + b*t + a*t^2, a != 0, low to high: free coefficients, a
    square (discriminant 0) or a product of two rational factors, each times
    a common content and a leading sign."""
    kind = draw(st.sampled_from(["free", "square", "split"]))
    if kind == "free":
        c, b = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        p = [c, b, draw(st.integers(-9, 9).filter(bool))]
    else:
        n1, d1 = draw(st.integers(-6, 6)), draw(st.integers(1, 6))
        n2, d2 = (n1, d1) if kind == "square" else (draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
        p = [n1 * n2, -(n1 * d2 + n2 * d1), d1 * d2]  # (d1*t - n1)(d2*t - n2)
    k = draw(st.integers(1, 5)) * draw(st.sampled_from([-1, 1]))
    return [k * c for c in p]


@settings(deadline=None, max_examples=300)
@given(quadratics())
@example([2, -3, 1])  # discriminant 1: two roots
@example([1, 2, 1])  # discriminant 0: one double root
@example([1, 0, 1])  # discriminant -4: none
@example([-2, 3, -1])  # a negative leading coefficient
@example([-20, -20, -5])  # content -5 times (t + 2)^2
def test_quadratic_root_count_matches_sturm(p):
    expected = count_real_roots(UniPoly(p))
    assert _count_roots(p) == expected
    disc = p[1] ** 2 - 4 * p[2] * p[0]
    assert expected == (2 if disc > 0 else 1 if disc == 0 else 0)


@st.composite
def planes_and_one_quadric(draw):
    """Planes and one quadric level, special along `line`: planes through
    anchor points of the line, parallel to it or containing it, and a
    quadric through an anchor (sharing a plane's root), tangent to the line
    at one, or missing it; plus a second line met generically."""
    line, other = draw(st.lists(lines, min_size=2, max_size=2, unique=True))
    anchors = [line.point_at(t) for t in draw(st.lists(rational, min_size=1, max_size=3))]
    crossing = direction.filter(lambda v: _dot(v, line.dir) != 0)
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        normal = _cross(line.dir, draw(direction))
        kind = draw(st.sampled_from(["anchor", "anchor", "free", "parallel", "contains"]))
        if kind == "free":
            level = _linear(draw(direction), draw(rational))
        elif kind == "parallel" and any(normal):
            level = _linear(normal, _dot(normal, line.base.coords) + draw(nonzero_rational))
        elif kind == "contains" and any(normal):
            level = _plane_through(line.base, normal)
        else:
            level = _plane_through(draw(st.sampled_from(anchors)), draw(crossing))
        levels.append(level)
    at = draw(st.sampled_from(anchors))
    normal = _cross(line.dir, draw(direction))
    kind = draw(st.sampled_from(["through", "tangent", "miss"]))
    if kind == "tangent" and any(normal):
        # a sphere whose center lies on a normal to the line at `at`
        quadric = _sphere(at, tuple(a + n for a, n in zip(at.coords, normal)))
    elif kind == "miss":
        # the square of a plane through `at`, lifted off zero
        quadric = _plane_through(at, draw(crossing)) ** 2 + draw(nonzero_rational) ** 2
    else:
        quadric = _sphere(at, draw(st.tuples(rational, rational, rational)))
    levels.insert(draw(st.integers(0, len(levels))), quadric)
    part = partition_of(tuple(levels))
    return part, [line, other]


# the x-axis meets the plane x = 2 where the sphere about (2, 1, 0) touches
# it, and the plane x = -1 once
X_AXIS = RationalLine(Rational3Point(0, 0, 0), (1, 0, 0))
TANGENT_AT_A_PLANE_ROOT = (
    partition_of(
        (
            _linear((1, 0, 0), 2),
            _sphere(Rational3Point(2, 0, 0), (2, 1, 0)),
            _linear((1, 0, 0), -1),
        )
    ),
    [X_AXIS, RationalLine(Rational3Point(1, 1, 0), (1, 1, 1))],
)


def test_linear_roots_sort_by_value():
    # roots 2 and 3/4 along the x-axis: by numerator alone 2 would come first
    planes = (_linear((1, 0, 0), 2), _linear((4, 0, 0), 3))
    part = partition_of(planes)
    assert classify_lines(part, [X_AXIS]).crossing == [(0, 2)]
    assert classes_crossed(part, X_AXIS) == {(-1, -1), (-1, 1), (1, 1)}


@settings(deadline=None, max_examples=200)
@given(planes_and_one_quadric())
@example(TANGENT_AT_A_PLANE_ROOT)
def test_planes_and_one_quadric_match_references(inputs):
    part, lns = inputs
    copy = PartitionPoly.from_json_dict(part.to_json_dict())
    lc = classify_lines(part, lns)
    assert lc == _classify_lines_reference(part, lns)
    assert classify_lines(copy, lns) == lc
    for i, _ in lc.crossing:
        crossed = classes_crossed(part, lns[i])
        assert [crossed] == _classes_crossed_reference(part, [lns[i]])
        assert classes_crossed(copy, lns[i]) == crossed
