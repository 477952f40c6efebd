"""Closed-form incidence bound evaluators and the parameter ladders.

Everything here is exact where the inputs allow it: fractional powers of
perfect powers come back as exact rationals, all other powers as dyadic
approximations rounded so that upper bounds stay upper.  Comparisons that
decide regime or window membership never go through floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .powers import (
    Factor,
    cmp_power_products,
    float_log,
    power_product,
    qpow,
    rational_log,
)
from .qformat import qstr


class MidrangeError(ValueError):
    """Raised when m sits exactly on the m = n^{3/2} boundary."""


class OutOfRangeError(ValueError):
    """Raised when (m, n) falls outside sqrt(n) <= m <= n^2."""


@dataclass(frozen=True)
class BoundParams:
    m: int
    n: int
    s: int
    A: Fraction = Fraction(1)
    B: Fraction = Fraction(1)
    b: Fraction = Fraction(2)

    def __post_init__(self):
        object.__setattr__(self, "A", Fraction(self.A))
        object.__setattr__(self, "B", Fraction(self.B))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be at least 1")
        if not (1 <= self.s <= self.n):
            raise ValueError("s must satisfy 1 <= s <= n")
        if self.b <= 1:
            raise ValueError("base constant b must exceed 1")


def st2d_bound(m: int, n: int) -> Fraction:
    """m^{2/3} n^{2/3} + m + n with unit constant, upper-rounded."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    cross, _ = power_product([(m, Fraction(2, 3)), (n, Fraction(2, 3))], "up")
    return cross + m + n


def gk_terms(m: int, n: int, s: int, rounding: str) -> tuple[Fraction, Fraction]:
    """The Guth-Katz terms m^{1/2} n^{3/4} and m^{2/3} n^{1/3} s^{1/3},
    each rounded "up" or "down" (`power_product`)."""
    lead, _ = power_product([(m, Fraction(1, 2)), (n, Fraction(3, 4))], rounding)
    tail, _ = power_product(
        [(m, Fraction(2, 3)), (n, Fraction(1, 3)), (s, Fraction(1, 3))], rounding
    )
    return lead, tail


def gk_bound(params, n=None, s=None, A=Fraction(1), B=Fraction(1)) -> Fraction:
    """A (m^{1/2} n^{3/4} + m) + B (m^{2/3} n^{1/3} s^{1/3} + n)."""
    if not isinstance(params, BoundParams):
        params = BoundParams(m=params, n=n, s=s, A=A, B=B)
    p = params
    lead, tail = gk_terms(p.m, p.n, p.s, "up")
    return p.A * (lead + p.m) + p.B * (tail + p.n)


def trivial_bound(m: int, n: int) -> int:
    return min(m * m + n, n * n + m)


def _dyadic_ceil(x: float, grid: int = 256) -> Fraction:
    """Smallest fraction with denominator `grid` at or above x."""
    return Fraction(math.ceil(x * grid), grid)


def amn_coefficient(m: int, n: int, b=Fraction(2)) -> tuple[Fraction, Fraction]:
    """The leading-coefficient exponent e and the coefficient b^e.

    e = log(m^2 n)/log(n^3/m^2) below the m = n^{3/2} boundary and
    e = log(m^3/n^4)/log(m^2/n^3) above it; exact rationals whenever m is a
    rational power of n.  Otherwise e is the float estimate rounded up to a
    multiple of 1/256 and then raised until the defining inequality,
    (n^3/m^2)^e >= m^2 n below the boundary and (m^2/n^3)^e >= m^3/n^4
    above it, holds exactly.
    """
    if m < 2 or n < 2:
        raise ValueError("m and n must be at least 2")
    b = Fraction(b)
    if b <= 1:
        raise ValueError("base constant b must exceed 1")
    m2, n3 = m * m, n * n * n
    if m2 == n3:
        raise MidrangeError(
            "m equals n^{3/2} exactly; use midrange_bound for the border range"
        )
    t = rational_log(m, n)
    if t is not None:
        e = (2 * t + 1) / (3 - 2 * t) if m2 < n3 else (3 * t - 4) / (2 * t - 3)
    else:
        lm, ln = float_log(m), float_log(n)
        raw = (2 * lm + ln) / (3 * ln - 2 * lm) if m2 < n3 else (
            3 * lm - 4 * ln
        ) / (2 * lm - 3 * ln)
        # round the float exponent up on a coarse dyadic grid, which keeps
        # b^e cheap to extract, and certify the upper bound exactly
        e = _dyadic_ceil(raw)
        if m2 < n3:
            base, target = Fraction(n3, m2), Fraction(m2 * n)
        else:
            base, target = Fraction(m2, n3), Fraction(m**3, n**4)
        while cmp_power_products([(base, e)], [(target, 1)]) < 0:
            e += Fraction(1, 256)
    return e, qpow(b, e, "up")


# -- exponent ladders ---------------------------------------------------------

_LARGE_HAND_SET = (Fraction(2), Fraction(7, 4), Fraction(23, 14))


def alpha_sequence(regime: str, j: int) -> Fraction:
    """Ladder exponent alpha_j; small-m climbs to 3/2, large-m descends."""
    if j < 0:
        raise ValueError("ladder index must be nonnegative")
    if regime in ("small-m", "small"):
        return Fraction(3, 2) - Fraction(2, j + 2)
    if regime in ("large-m", "large"):
        if j < 3:
            return _LARGE_HAND_SET[j]
        return Fraction(3, 2) + Fraction(1, 4 * j - 2)
    raise ValueError(f"unknown regime {regime!r}")


def alpha_recurrence_small(prev: Fraction) -> Fraction:
    prev = Fraction(prev)
    return (9 + 2 * prev) / (2 * (7 - 2 * prev))


def alpha_recurrence_large(prev: Fraction) -> Fraction:
    prev = Fraction(prev)
    return (7 * prev - 9) / (4 * prev - 5)


# -- degree plans -------------------------------------------------------------


def _cmp_m_vs_n_power(m: int, n: int, alpha: Fraction) -> int:
    """Exact sign of m - n^alpha via integer cross powers."""
    lhs = m ** alpha.denominator
    rhs = n ** alpha.numerator
    return (lhs > rhs) - (lhs < rhs)


@dataclass(frozen=True)
class DegreePlan:
    regime: str
    j: int | None
    D: Fraction
    D_exact: bool
    D_int: int
    e_lo: tuple[Factor, ...] | None
    e_hi: tuple[Factor, ...] | None
    e_lo_approx: Fraction | None
    e_hi_approx: Fraction | None
    window_empty: bool | None
    violated: str | None
    notes: tuple[str, ...] = ()

    @property
    def window_nonempty(self) -> bool:
        return self.window_empty is False

    def smallest_integer_E(self) -> tuple[int, bool] | None:
        """Smallest integer at or above the window's lower edge, plus a flag
        telling whether it still sits inside the window."""
        if self.e_lo is None or self.e_hi is None:
            return None
        lo_floor = int(self.e_lo_approx)
        E = max(1, lo_floor - 1)
        while cmp_power_products([(Fraction(E), Fraction(1))], self.e_lo) < 0:
            E += 1
        inside = cmp_power_products([(Fraction(E), Fraction(1))], self.e_hi) <= 0
        return E, inside

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "j": self.j,
            "D": qstr(self.D),
            "D_exact": self.D_exact,
            "D_int": self.D_int,
            "E_lo": None if self.e_lo_approx is None else qstr(self.e_lo_approx),
            "E_hi": None if self.e_hi_approx is None else qstr(self.e_hi_approx),
            "window_empty": self.window_empty,
            "violated": self.violated,
            "notes": list(self.notes),
        }


_LADDER_LIMIT = 64


def degree_plan(m: int, n: int) -> DegreePlan:
    """Regime, ladder index, first-stage degree and second-stage window.

    Valid for sqrt(n) <= m <= n^2.  The boundary m = n^{3/2} lands in the
    small-m regime with no ladder index; its window is deferred to
    midrange_bound.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    if m * m < n or m > n * n:
        raise OutOfRangeError(
            f"m={m} outside [sqrt(n), n^2] for n={n}; the evaluators cover "
            "only that range"
        )
    m2, n3 = m * m, n * n * n
    notes: list[str] = []
    if m2 <= n3:
        regime = "small-m"
        D, D_exact = power_product([(Fraction(m2, n), Fraction(1, 4))], "down")
    else:
        regime = "large-m"
        D, D_exact = Fraction(n * n, m), True
    D_int = max(1, math.floor(D))

    j: int | None = None
    if m2 == n3:
        notes.append(
            "m = n^{3/2} exactly: no ladder index; use the midrange evaluator"
        )
    else:
        for cand in range(1, _LADDER_LIMIT + 1):
            alpha = alpha_sequence(regime, cand)
            cmp_ = _cmp_m_vs_n_power(m, n, alpha)
            if (regime == "small-m" and cmp_ <= 0) or (
                regime == "large-m" and cmp_ >= 0
            ):
                j = cand
                break
        if j is None:
            notes.append(
                f"no ladder index <= {_LADDER_LIMIT} captured m; treat as "
                "midrange"
            )

    e_lo = e_hi = None
    e_lo_approx = e_hi_approx = None
    window_empty: bool | None = None
    violated = None
    if j is not None:
        alpha = alpha_sequence(regime, j - 1)
        if regime == "small-m":
            denom = 3 - 2 * alpha
            e_lo = ((Fraction(m), 1 / denom), (Fraction(n), -alpha / denom))
            uppers = [
                ((Fraction(n), Fraction(3, 8)), (Fraction(m), Fraction(-1, 4))),
                ((Fraction(m), Fraction(1, 2)), (Fraction(n), Fraction(-1, 4))),
            ]
        else:
            denom = 2 * alpha - 3
            e_lo = ((Fraction(n), alpha / denom), (Fraction(m), -1 / denom))
            uppers = [
                ((Fraction(m), Fraction(1, 3)), (Fraction(n), Fraction(-1, 3))),
                ((Fraction(m), Fraction(2)), (Fraction(n), Fraction(-3))),
            ]
        e_hi = uppers[0] if cmp_power_products(uppers[0], uppers[1]) <= 0 else uppers[1]
        e_lo_approx = power_product(e_lo, "down")[0]
        e_hi_approx = power_product(e_hi, "up")[0]
        window_empty = cmp_power_products(e_lo, e_hi) > 0
        if window_empty:
            violated = (
                f"E window empty: lower bound ~{float(e_lo_approx):.6g} exceeds "
                f"upper bound ~{float(e_hi_approx):.6g}"
            )
    return DegreePlan(
        regime=regime,
        j=j,
        D=D,
        D_exact=D_exact,
        D_int=D_int,
        e_lo=e_lo,
        e_hi=e_hi,
        e_lo_approx=e_lo_approx,
        e_hi_approx=e_hi_approx,
        window_empty=window_empty,
        violated=violated,
        notes=tuple(notes),
    )


# -- the border range ---------------------------------------------------------


def _ladder_index(n: int, b: Fraction) -> int:
    """round(sqrt(x)) for x = log_b n, decided on integers, with ties to even
    as `round` takes them.  For k >= 0, sqrt(x) >= k + 1/2 exactly when
    n^4 >= b^((2k+1)^2), so k = round(sqrt(x)) when
    b^((2k-1)^2) <= n^4 < b^((2k+1)^2); n^4 = b^((2k-1)^2) is the tie
    sqrt(x) = k - 1/2, which goes to k - 1 when k is odd."""
    k = 0
    while cmp_power_products([(n, 4)], [(b, (2 * k + 1) ** 2)]) >= 0:
        k += 1
    if k % 2 and cmp_power_products([(n, 4)], [(b, (2 * k - 1) ** 2)]) == 0:
        k -= 1
    return k


def midrange_bound(m: int, n: int, s: int, b=Fraction(2)):
    """Ladder-free bound for m near n^{3/2}.

    Returns (j0, k, value): the ladder depth j0 = sqrt(log n / log b), the
    clamped density k = max(1, m / n^{alpha_j}) at the ladder index
    j = round(j0), decided on integers (`_ladder_index`), and the bound
    2^{2 sqrt(log2 b * log2 n)} (m^{1/2} n^{3/4} + m^{2/3} n^{1/3} s^{1/3}
    + m + n), with the sqrt(4.5) exponent variant above the boundary.
    """
    params = BoundParams(m=m, n=n, s=s, b=b)
    b = params.b
    ln_ratio = rational_log(n, b)
    j0: Fraction | float
    if ln_ratio is not None and ln_ratio > 0:
        val, exact = power_product([(ln_ratio, Fraction(1, 2))], "up")
        j0 = val if exact else math.sqrt(float(ln_ratio))
    else:
        j0 = math.sqrt(float_log(n, float(b)))
    j_index = _ladder_index(n, b)
    alpha = alpha_sequence("small-m", j_index)
    k_val, _ = power_product([(Fraction(m), Fraction(1)), (Fraction(n), -alpha)], "down")
    k = max(Fraction(1), k_val)

    variant = Fraction(9, 2) if m * m > n ** 3 else Fraction(4)
    l2b = rational_log(b, 2)
    l2n = rational_log(n, 2)
    if l2n == 0:  # n = 1: the exponent is 0, and power_product takes no base 0
        prefactor = Fraction(1)
    elif l2b is not None and l2n is not None:
        expo_val, expo_exact = power_product([(variant * l2b * l2n, Fraction(1, 2))], "up")
        if expo_exact:
            prefactor = qpow(2, expo_val, "up")
        else:
            approx = _dyadic_ceil(math.sqrt(float(variant * l2b * l2n)))
            prefactor = qpow(2, approx, "up")
    else:
        approx = _dyadic_ceil(
            math.sqrt(float(variant) * float_log(b, 2) * float_log(n, 2))
        )
        prefactor = qpow(2, approx, "up")

    lead, tail = gk_terms(m, n, s, "up")
    value = prefactor * (lead + tail + m + n)
    return j0, k, value
