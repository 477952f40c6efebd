"""Directed-rounding power arithmetic: exactness flags, bracketing, ordering."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from incilab.powers import (
    PREC_BITS,
    cmp_power_products,
    float_log,
    iroot,
    power_product,
    qpow,
    rational_log,
)

H = Fraction(1, 2)


def test_iroot_goldens():
    assert iroot(27, 3) == (3, True)
    assert iroot(26, 3) == (2, False)
    assert iroot(28, 3) == (3, False)
    assert iroot(2**96, 2) == (2**48, True)
    assert iroot(0, 5) == (0, True)
    assert iroot(1, 7) == (1, True)
    assert iroot(10**30, 1) == (10**30, True)


def test_iroot_rejects_bad_input():
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(4, 0)


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=8))
def test_iroot_is_floor(n, k):
    r, exact = iroot(n, k)
    assert r**k <= n < (r + 1) ** k
    assert exact == (r**k == n)


def test_power_product_exact_values():
    assert power_product([(Fraction(4), H)]) == (Fraction(2), True)
    assert power_product([(Fraction(8), Fraction(2, 3))]) == (Fraction(4), True)
    assert power_product([(Fraction(27, 8), Fraction(1, 3))]) == (Fraction(3, 2), True)
    # two irrational factors that combine to a rational
    assert power_product([(Fraction(2), H), (Fraction(2), H)]) == (Fraction(2), True)
    assert power_product([]) == (Fraction(1), True)
    assert power_product([(Fraction(5), Fraction(-1))]) == (Fraction(1, 5), True)


def test_power_product_brackets_irrational_values():
    lo, exact_lo = power_product([(Fraction(2), H)], "down")
    hi, exact_hi = power_product([(Fraction(2), H)], "up")
    assert not exact_lo and not exact_hi
    assert lo**2 <= 2 <= hi**2
    assert hi - lo <= Fraction(2, 1 << PREC_BITS)


def test_power_product_rejects_bad_input():
    with pytest.raises(ValueError):
        power_product([(Fraction(2), H)], "nearest")
    with pytest.raises(ValueError):
        power_product([(Fraction(0), H)])
    with pytest.raises(ValueError):
        power_product([(Fraction(-3), Fraction(2))])


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
)
def test_power_product_respects_rounding_direction(a, b, p, q):
    factors = [(Fraction(a, b), Fraction(p, q))]
    lo, _ = power_product(factors, "down")
    hi, _ = power_product(factors, "up")
    assert lo <= hi
    # cross-multiplied exact check: lo^q <= (a/b)^p <= hi^q
    assert lo**q * b**p <= a**p
    assert hi**q * b**p >= a**p


def test_qpow_and_qsqrt():
    assert qpow(9, H) == 3
    assert qpow(Fraction(1, 4), H) == H
    assert qpow(4, H, "down") == 2
    lo, hi = qpow(2, H, "down"), qpow(2, H, "up")
    assert lo**2 < 2 < hi**2
    assert hi - lo == Fraction(1, 2**PREC_BITS)


def test_cmp_power_products_goldens():
    assert cmp_power_products([(Fraction(4), H)], [(Fraction(2), Fraction(1))]) == 0
    # 2^(1/2) < 3^(1/3) is false: 2^3 = 8 < 9 = 3^2, so sqrt(2) < cbrt(3)
    assert cmp_power_products([(Fraction(2), H)], [(Fraction(3), Fraction(1, 3))]) == -1
    assert cmp_power_products([(Fraction(5), H)], [(Fraction(2), Fraction(1))]) == 1
    assert cmp_power_products([], []) == 0


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_cmp_power_products_matches_integer_cross_powers(a, b, p, q):
    got = cmp_power_products([(Fraction(a), Fraction(1, p))], [(Fraction(b), Fraction(1, q))])
    lhs, rhs = a**q, b**p  # a^(1/p) vs b^(1/q)  <=>  a^q vs b^p
    want = 0 if lhs == rhs else (1 if lhs > rhs else -1)
    assert got == want


def test_rational_log_goldens():
    assert rational_log(8, 2) == 3
    assert rational_log(Fraction(1, 4), 2) == -2
    assert rational_log(4, 8) == Fraction(2, 3)
    assert rational_log(1, 7) == 0
    assert rational_log(5, 2) is None
    assert rational_log(Fraction(27, 8), Fraction(3, 2)) == 3


def test_rational_log_rejects_bad_input():
    with pytest.raises(ValueError):
        rational_log(0, 2)
    with pytest.raises(ValueError):
        rational_log(5, 1)
    with pytest.raises(ValueError):
        rational_log(5, -2)


def test_float_log_handles_huge_fractions():
    assert float_log(Fraction(2) ** 200, 2) == pytest.approx(200.0)
    assert float_log(Fraction(1, 2**100), 2) == pytest.approx(-100.0)
