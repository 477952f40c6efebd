"""Bound evaluators, exponent ladders, degree plans, and the border range."""

from fractions import Fraction

import pytest

from incilab.bounds import (
    BoundParams,
    DegreePlan,
    MidrangeError,
    OutOfRangeError,
    alpha_recurrence_large,
    alpha_recurrence_small,
    alpha_sequence,
    amn_coefficient,
    degree_plan,
    gk_bound,
    gk_terms,
    midrange_bound,
    st2d_bound,
    trivial_bound,
)
from incilab import bounds
from incilab.powers import cmp_power_products, float_log, qpow, rational_log


# -- closed-form evaluators ------------------------------------------------------


def test_bound_golden_values():
    assert gk_bound(16, 16, 1) == 80
    assert st2d_bound(8, 8) == 32
    assert trivial_bound(2, 100) == 104


def test_gk_bound_constants_scale_each_term():
    assert gk_bound(16, 16, 1, A=2, B=3) == 2 * 48 + 3 * 32
    params = BoundParams(m=16, n=16, s=1, A=2, B=3)
    assert gk_bound(params) == 192


def test_gk_bound_is_upper_rounded_off_perfect_powers():
    val = gk_bound(10, 10, 2)
    # every term was rounded up, so the dyadic value dominates the true one
    assert val > 10 ** Fraction(1, 2) * 0 + 20  # sanity floor: the m + n part
    assert val >= st2d_bound(1, 1)


def test_gk_terms_round_in_the_asked_direction():
    # exact on perfect powers: 16^{1/2} 16^{3/4} = 32 and 16^{2/3} 16^{1/3} = 16
    assert gk_terms(16, 16, 1, "up") == gk_terms(16, 16, 1, "down") == (32, 16)
    lo, hi = gk_terms(10, 10, 2, "down"), gk_terms(10, 10, 2, "up")
    # lead^4 = m^2 n^3 and tail^3 = m^2 n s
    assert lo[0] ** 4 < 10**2 * 10**3 < hi[0] ** 4
    assert lo[1] ** 3 < 10**2 * 10 * 2 < hi[1] ** 3


def test_trivial_bound_formula():
    assert trivial_bound(2, 100) == min(2 * 2 + 100, 100 * 100 + 2)
    assert trivial_bound(100, 2) == 104
    assert trivial_bound(1, 1) == 2


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(m=0, n=5, s=1)
    with pytest.raises(ValueError):
        BoundParams(m=5, n=5, s=0)
    with pytest.raises(ValueError):
        BoundParams(m=5, n=5, s=6)
    with pytest.raises(ValueError):
        BoundParams(m=5, n=5, s=1, b=1)


def test_amn_exponent_goldens():
    e, coeff = amn_coefficient(16, 16)
    assert e == 3 and coeff == 8
    e, coeff = amn_coefficient(128, 16)  # m = n^{7/4}
    assert e == Fraction(5, 2)
    assert coeff == qpow(2, Fraction(5, 2), "up")
    assert coeff**2 >= 32


def test_amn_off_power_inputs_still_evaluate():
    e, coeff = amn_coefficient(100, 7)
    assert e > 0 and coeff > 1
    e, coeff = amn_coefficient(10, 9)
    assert e > 0 and coeff > 1


@pytest.mark.parametrize("log_digits", [None, 5])
def test_amn_off_power_exponents_are_certified_upper_bounds(log_digits, monkeypatch):
    if log_digits is not None:
        # coarse logarithms put some float guesses below the true exponent
        monkeypatch.setattr(
            bounds, "float_log", lambda v: round(float_log(v), log_digits)
        )
    # Within 5% of m^2 = n^3 the exponent grows like 1/log(n^3/m^2) and one
    # exact comparison costs seconds; (226, 37), 0.8% off, stands in for them.
    sweep = [(m, n) for n in range(2, 40, 4) for m in range(3, 300, 13)]
    sweep = [(m, n) for m, n in sweep if abs(m * m - n**3) * 20 > n**3]
    sweep += [(1000, 400), (226, 37), (10**6, 999), (12345, 678)]
    checked = {"below": 0, "above": 0}
    for m, n in sweep:
        if rational_log(m, n) is not None:
            continue
        e, _ = amn_coefficient(m, n)
        assert e.denominator <= 256
        if m * m < n**3:
            base, target = Fraction(n**3, m * m), Fraction(m * m * n)
            checked["below"] += 1
        else:
            base, target = Fraction(m * m, n**3), Fraction(m**3, n**4)
            checked["above"] += 1
        assert cmp_power_products([(base, e)], [(target, 1)]) >= 0
        if log_digits is None:
            # at most one grid step above the tightest dyadic exponent
            assert cmp_power_products([(base, e - Fraction(2, 256))], [(target, 1)]) < 0
    assert checked["below"] > 50 and checked["above"] > 50


def test_amn_boundary_and_validation():
    with pytest.raises(MidrangeError):
        amn_coefficient(8, 4)  # m^2 == n^3
    with pytest.raises(ValueError):
        amn_coefficient(1, 5)
    with pytest.raises(ValueError):
        amn_coefficient(4, 4, b=1)


# -- exponent ladders --------------------------------------------------------------


def test_small_ladder_closed_form_and_recurrence():
    for j in range(1, 65):
        alpha = alpha_sequence("small-m", j)
        assert alpha == Fraction(3, 2) - Fraction(2, j + 2)
        assert alpha < Fraction(3, 2)
        if j > 1:
            assert alpha > alpha_sequence("small-m", j - 1)
            assert alpha == alpha_recurrence_small(alpha_sequence("small-m", j - 1))


def test_large_ladder_closed_form_and_recurrence():
    # j = 0, 1, 2 are pinned start values; the closed form takes over at j = 3
    assert alpha_sequence("large-m", 0) == 2
    assert alpha_sequence("large-m", 1) == Fraction(7, 4)
    assert alpha_sequence("large-m", 2) == Fraction(23, 14)
    assert alpha_sequence("large-m", 4) == Fraction(11, 7)
    for j in range(3, 65):
        alpha = alpha_sequence("large-m", j)
        assert alpha == Fraction(3, 2) + Fraction(1, 4 * j - 2)
        assert alpha > Fraction(3, 2)
        assert alpha < alpha_sequence("large-m", j - 1)
        if j > 3:
            assert alpha == alpha_recurrence_large(alpha_sequence("large-m", j - 1))


def test_alpha_sequence_accepts_regime_aliases():
    assert alpha_sequence("small", 4) == alpha_sequence("small-m", 4)
    assert alpha_sequence("large", 4) == alpha_sequence("large-m", 4)
    with pytest.raises(ValueError):
        alpha_sequence("medium", 1)
    with pytest.raises(ValueError):
        alpha_sequence("small-m", -1)


# -- degree plans -------------------------------------------------------------------


def test_degree_plan_goldens():
    plan = degree_plan(2**20, 2**16)
    assert (plan.regime, plan.j, plan.D_int, plan.D_exact) == ("small-m", 6, 64, True)
    plan = degree_plan(2**30, 2**16)
    assert (plan.regime, plan.j, plan.D_int, plan.D_exact) == ("large-m", 1, 4, True)


def test_equal_counts_window_degenerates_to_a_point():
    n = 2**20
    plan = degree_plan(n, n)
    assert plan.regime == "small-m" and plan.j == 2
    point = ((Fraction(n), Fraction(1, 8)),)
    assert cmp_power_products(plan.e_lo, point) == 0
    assert cmp_power_products(plan.e_hi, point) == 0
    assert plan.window_nonempty
    E, inside = plan.smallest_integer_E()
    assert E == 6 and not inside  # n^{1/8} is irrational, so 6 overshoots


def test_large_regime_window_contains_small_integers():
    plan = degree_plan(2**30, 2**16)
    E, inside = plan.smallest_integer_E()
    assert E == 4 and inside


def test_degree_plan_range_checks():
    with pytest.raises(OutOfRangeError):
        degree_plan(2, 100)  # m < sqrt(n)
    with pytest.raises(OutOfRangeError):
        degree_plan(1000, 10)  # m > n^2
    assert degree_plan(100, 10).regime == "large-m"  # m = n^2 included
    assert degree_plan(4, 16).regime == "small-m"  # m = sqrt(n) included
    assert degree_plan(4, 16).D_int == 1


def test_boundary_counts_defer_to_midrange():
    plan = degree_plan(8, 4)  # m^2 == n^3
    assert plan.regime == "small-m"
    assert plan.j is None
    assert plan.D_int == 2
    assert plan.e_lo is None and plan.window_empty is None
    assert plan.smallest_integer_E() is None
    assert any("midrange" in note for note in plan.notes)


def test_degree_plan_json_shape():
    d = degree_plan(2**20, 2**16).to_json_dict()
    assert d["regime"] == "small-m" and d["D_int"] == 64
    assert set(d) == {
        "regime", "j", "D", "D_exact", "D_int", "E_lo", "E_hi",
        "window_empty", "violated", "notes",
    }


# -- border range ---------------------------------------------------------------------


def test_midrange_bound_golden():
    j0, k, value = midrange_bound(2**24, 2**16, 2**8)
    assert j0 == 4
    assert Fraction(40) <= k < Fraction(41)  # m / n^{7/6} = 2^{16/3}
    assert value == 12901679104


def test_midrange_bound_takes_one_point_and_one_line():
    # log2 1 = 0, so the prefactor 2^0 is exactly 1
    assert midrange_bound(1, 1, 1)[2] == 4


def test_midrange_bound_above_boundary_uses_steeper_variant():
    below = midrange_bound(2**24, 2**16, 1)[2]
    above = midrange_bound(2**25, 2**16, 1)[2]
    assert below > 0 and above > 0
    with pytest.raises(ValueError):
        midrange_bound(4, 4, 1, b=1)
