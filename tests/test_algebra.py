"""Polynomial layer: exact root counts, restrictions, gcds, cone detection."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from incilab.algebra import (
    NEG_INF,
    TriPoly,
    UniPoly,
    X,
    Y,
    Z,
    common_factor,
    coprimality_certificate,
    count_real_roots,
    directional_system,
    divide_by_plane,
    divides_by_plane,
    homogeneous_parts,
    is_cone_with_apex,
    line_in_zero_set,
    mv_gcd,
    plane_poly,
    primitive_normalize,
    restrict_to_line,
    shift_to_origin,
    sign_gap_samples,
    squarefree_part,
    sturm_chain,
    tp_divides,
    tp_divmod,
)
from incilab.geom import Rational3Point, RationalLine, RationalPlane

ORIGIN = Rational3Point(0, 0, 0)


# -- trivariate arithmetic -----------------------------------------------------


def test_tripoly_arithmetic_identities():
    assert (X + Y) * (X - Y) == X**2 - Y**2
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
    assert (X - X) == TriPoly.zero()
    assert TriPoly.zero().degree == NEG_INF
    assert (X * Y * Z + TriPoly.one()).degree == 3
    assert TriPoly.constant(Fraction(2, 3)) * 3 == TriPoly.constant(2)


def test_tripoly_rejects_negative_exponents():
    with pytest.raises(ValueError):
        TriPoly({(-1, 0, 0): 1})


def test_tripoly_evaluate_point():
    f = X**2 + Y**2 - Z**2
    assert f.evaluate_point(Rational3Point(3, 4, 5)) == 0
    assert f.evaluate_point(Rational3Point(1, 1, 1)) == 1
    assert f.evaluate_point(Rational3Point(Fraction(1, 2), 0, 0)) == Fraction(1, 4)


def test_tripoly_records_round_trip():
    f = 2 * X**2 * Z - Fraction(1, 3) * Y + TriPoly.constant(7)
    recs = f.to_records()
    assert recs == sorted(recs, key=lambda r: r["e"])
    assert all(isinstance(r["c"], str) for r in recs)
    assert TriPoly.from_records(recs) == f
    # coefficients are canonical rational literals, as everywhere else
    with pytest.raises(ValueError, match="canonical"):
        TriPoly.from_records([{"e": [1, 0, 0], "c": " 1.5e0 "}])


def test_primitive_normalize():
    f = Fraction(2, 3) * X - Fraction(4, 3) * Y
    assert primitive_normalize(f) == X - 2 * Y
    # sign fixed by the leading term
    assert primitive_normalize(-2 * X + 4 * Y) == X - 2 * Y
    assert primitive_normalize(TriPoly.zero()) == TriPoly.zero()
    # the lex-largest term decides the sign, not the first term listed
    f = TriPoly({(0, 1, 0): Fraction(-4, 5), (1, 0, 0): Fraction(2, 5)})
    assert primitive_normalize(f).terms() == {(1, 0, 0): 1, (0, 1, 0): -2}


@given(
    st.dictionaries(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        min_size=1,
        max_size=6,
    ),
    st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool),
)
def test_primitive_normalize_lex_largest_term_positive(terms, k):
    f = TriPoly(terms)
    g = primitive_normalize(f)
    assert primitive_normalize(f * k) == g
    if f.is_zero():
        return
    coeffs = g.terms()
    assert coeffs[max(coeffs)] > 0
    assert all(c.denominator == 1 for c in coeffs.values())
    assert math.gcd(*(c.numerator for c in coeffs.values())) == 1
    ratio = coeffs[max(coeffs)] / f.terms()[max(coeffs)]
    assert g == f * ratio


# -- univariate layer ----------------------------------------------------------


def test_unipoly_basics():
    q = UniPoly([2, -3, 0, 1])  # (x-1)^2 (x+2)
    assert q.degree == 3
    assert q.evaluate(1) == 0 and q.evaluate(-2) == 0 and q.evaluate(2) == 4
    assert q.derivative().coeffs == (-3, 0, 3)
    assert UniPoly([1, 2, 0]).degree == 1  # trailing zeros trimmed
    assert UniPoly([]).is_zero()
    assert UniPoly([]).degree == NEG_INF


def test_squarefree_part_drops_multiplicity():
    q = UniPoly([2, -3, 0, 1])
    sf = squarefree_part(q)
    assert sf.degree == 2
    assert sf.evaluate(1) == 0 and sf.evaluate(-2) == 0


def test_sturm_chain_shape():
    chain = sturm_chain(UniPoly([2, -3, 0, 1]))
    assert [p.degree for p in chain] == [2, 1, 0]


def test_count_real_roots_goldens():
    assert count_real_roots(UniPoly([-2, 0, 1])) == 2  # x^2 - 2
    assert count_real_roots(UniPoly([1, 0, 1])) == 0  # x^2 + 1
    assert count_real_roots(UniPoly([2, -3, 0, 1])) == 2  # double root counted once
    assert count_real_roots(UniPoly([0, 0, 0, 1])) == 1  # x^3
    assert count_real_roots(UniPoly([5])) == 0
    with pytest.raises(ValueError):
        count_real_roots(UniPoly([]))


@settings(deadline=None)
@given(
    st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=2),
)
def test_count_real_roots_matches_constructed_factorization(roots, complex_pairs):
    q = UniPoly([1])
    for r in roots:
        q = q * UniPoly([-r, 1])
    for _ in range(complex_pairs):
        q = q * UniPoly([1, 1, 1])  # x^2 + x + 1, no real roots
    assert count_real_roots(q) == len(set(roots))


def test_sign_gap_samples_bracket_roots():
    samples = sign_gap_samples(UniPoly([3, -4, 1]))  # roots 1 and 3
    assert len(samples) == 3
    assert samples[0] < 1 < samples[1] < 3 < samples[2]
    q = UniPoly([3, -4, 1])
    assert [q.evaluate(s) > 0 for s in samples] == [True, False, True]
    assert sign_gap_samples(UniPoly([7])) == [0]
    with pytest.raises(ValueError):
        sign_gap_samples(UniPoly([]))


@settings(deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4, unique=True))
def test_sign_gap_samples_separate_every_root(roots):
    q = UniPoly([1])
    for r in roots:
        q = q * UniPoly([-r, 1])
    samples = sign_gap_samples(q)
    cuts = sorted(roots)
    assert len(samples) == len(cuts) + 1
    for i, s in enumerate(samples):
        lo = cuts[i - 1] if i > 0 else None
        hi = cuts[i] if i < len(cuts) else None
        assert lo is None or lo < s
        assert hi is None or s < hi


# -- restriction to lines ------------------------------------------------------


def test_restrict_to_line_follows_parametrization():
    f = X**2 + Y**2 + Z**2 - TriPoly.constant(1)
    xaxis = RationalLine(ORIGIN, (1, 0, 0))
    q = restrict_to_line(f, xaxis)
    assert q.coeffs == (-1, 0, 1)
    assert count_real_roots(q) == 2


@given(
    st.tuples(*[st.integers(min_value=-5, max_value=5)] * 3),
    st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3).filter(lambda v: any(v)),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
def test_restriction_agrees_with_point_evaluation(base, direction, t):
    f = X**2 * Y - 3 * Z + TriPoly.constant(2)
    line = RationalLine(Rational3Point(*base), direction)
    assert restrict_to_line(f, line).evaluate(t) == f.evaluate_point(line.point_at(t))


def test_line_in_zero_set():
    saddle = X * Y - Z
    ruling = RationalLine(Rational3Point(2, 0, 0), (0, 1, 2))
    assert line_in_zero_set(saddle, ruling)
    assert not line_in_zero_set(saddle, RationalLine(ORIGIN, (1, 1, 1)))


# -- plane division ------------------------------------------------------------


def test_plane_poly():
    assert plane_poly(RationalPlane(0, 0, 1, 0)) == Z
    assert plane_poly(RationalPlane(2, 0, 0, -1)) == 2 * X - TriPoly.constant(1)


def test_divide_by_plane():
    zplane = RationalPlane(0, 0, 1, 0)
    f = Z * (X - TriPoly.constant(1))
    assert divide_by_plane(f, zplane) == X - TriPoly.constant(1)
    assert divides_by_plane(f, zplane)
    g = Z * X + TriPoly.constant(1)
    assert divide_by_plane(g, zplane) is None
    assert not divides_by_plane(g, zplane)


# -- shifted expansions and cones ----------------------------------------------


def test_shift_to_origin_reanchors_evaluation():
    f = X**2 + Y * Z - TriPoly.constant(4)
    p = Rational3Point(1, 2, -1)
    g = shift_to_origin(f, p)
    assert g.evaluate_point(ORIGIN) == f.evaluate_point(p)
    assert g.evaluate_point(Rational3Point(1, 1, 1)) == f.evaluate_point(
        Rational3Point(2, 3, 0)
    )


def test_homogeneous_parts():
    parts = homogeneous_parts(X**2 + Y - TriPoly.constant(5))
    assert parts == {2: X**2, 1: Y, 0: TriPoly.constant(-5)}


def test_directional_system_on_cone():
    cone = X**2 + Y**2 - Z**2
    p = Rational3Point(3, 4, 5)
    sys = directional_system(cone, p)
    assert sys.order == 2
    assert sys.F(1) == 6 * X + 8 * Y - 10 * Z
    assert sys.F(2) == 2 * (X**2 + Y**2 - Z**2)
    # Taylor identity f(p + t v) = sum F_i(v) t^i / i!
    v = Rational3Point(1, 2, 3)
    t = Fraction(3, 7)
    moved = Rational3Point(*(a + t * b for a, b in zip(p.coords, v.coords)))
    total = sum(
        sys.F(i).evaluate_point(v) * t**i / math.factorial(i)
        for i in range(1, sys.order + 1)
    )
    assert total == cone.evaluate_point(moved)


def test_directional_system_needs_surface_point():
    with pytest.raises(ValueError):
        directional_system(X**2 + Y**2 - Z**2, Rational3Point(1, 1, 1))
    with pytest.raises(ValueError):
        directional_system(TriPoly.zero(), ORIGIN)


def test_is_cone_with_apex():
    cone = X**2 + Y**2 - Z**2
    assert is_cone_with_apex(cone, ORIGIN)
    assert not is_cone_with_apex(cone, Rational3Point(3, 4, 5))
    assert not is_cone_with_apex(cone, Rational3Point(1, 1, 1))
    shifted = (X - TriPoly.constant(2)) ** 2 + Y**2 - Z**2
    assert is_cone_with_apex(shifted, Rational3Point(2, 0, 0))
    assert not is_cone_with_apex(shifted, ORIGIN)
    assert not is_cone_with_apex(TriPoly.zero(), ORIGIN)


# -- divisibility and gcd ------------------------------------------------------


def test_tp_divmod_and_divides():
    f = (X + Y) * (X**2 + TriPoly.constant(3))
    q, r = tp_divmod(f, X + Y)
    assert r == TriPoly.zero() and q == X**2 + TriPoly.constant(3)
    assert tp_divides(X + Y, f)
    assert tp_divides(X, X * Y)
    assert not tp_divides(X, X * Y + Z)


def test_mv_gcd():
    assert mv_gcd(X * (X + Y), X * (X + Z)) == X
    assert mv_gcd((X + Y) ** 2, (X + Y) * (X - Y)) == X + Y
    assert mv_gcd(X**2, Y**2).is_constant()


def test_common_factor_goldens():
    u, v, w = X, Y, Z
    assert common_factor([u * (u + v), u * (u + w)]) == u
    assert common_factor([u**2, v**2]) is None
    assert common_factor([(X + Y) * Z, (X + Y) * X, (X + Y) * (X - Z)]) == X + Y


def test_common_factor_input_checks():
    with pytest.raises(ValueError):
        common_factor([])
    with pytest.raises(ValueError):
        common_factor([TriPoly.zero()])
    with pytest.raises(ValueError):
        common_factor([X + TriPoly.constant(1)])  # not homogeneous
    with pytest.raises(ValueError):
        common_factor([X**9], degree_cap=8)


def test_coprimality_certificate():
    cert = coprimality_certificate(X**2, Y**2, 0)
    assert not cert.is_zero()
    shared = coprimality_certificate(X * (X + Y), X * (X + Z), 0)
    assert shared.is_zero()
