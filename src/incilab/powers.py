"""Directed-rounding rational powers and exact power comparisons.

Bound formulas need fractional powers of integer counts.  When the radicand
is a perfect power the value comes back exact; otherwise a high-precision
dyadic approximation is returned, rounded in a caller-chosen direction so
that bound evaluations stay conservative.  Comparisons between products of
rational powers are done by cross-multiplying integer powers, never through
floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .geom import cleared

PREC_BITS = 96

Factor = Tuple[Fraction, Fraction]  # (base, exponent)


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor of the integer k-th root of n >= 0, with an exactness flag."""
    if n < 0:
        raise ValueError("iroot needs a nonnegative radicand")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    # Newton iteration from an overestimate; monotone decreasing to the floor.
    x = 1 << -((-n.bit_length()) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x ** k == n


def _combined_radicand(factors: Iterable[Factor]) -> tuple[int, int, int]:
    """Fold base_i^exp_i into a single (num, den, root) with num/den >= 0."""
    fs = [(Fraction(b), Fraction(e)) for b, e in factors]
    root, ps = cleared([e for _, e in fs])
    num = den = 1
    for (b, _), p in zip(fs, ps):
        if b <= 0:
            raise ValueError("power bases must be positive")
        if p >= 0:
            num *= b.numerator ** p
            den *= b.denominator ** p
        else:
            num *= b.denominator ** (-p)
            den *= b.numerator ** (-p)
    return num, den, root


def power_product(factors: Sequence[Factor], rounding: str = "up") -> tuple[Fraction, bool]:
    """Evaluate prod(base_i^exp_i) for positive rational bases.

    Returns (value, exact).  When exact is False the value is a dyadic
    approximation with PREC_BITS fractional bits, rounded up or down per
    `rounding` so callers can keep upper bounds upper.
    """
    if rounding not in ("up", "down"):
        raise ValueError("rounding must be 'up' or 'down'")
    num, den, root = _combined_radicand(factors)
    rn, en = iroot(num, root)
    rd, ed = iroot(den, root)
    if en and ed:
        return Fraction(rn, rd), True
    scale = 1 << PREC_BITS
    shifted = num * scale ** root
    if rounding == "down":
        r, _ = iroot(shifted // den, root)
        return Fraction(r, scale), False
    r, _ = iroot(-((-shifted) // den), root)
    # Smallest integer u with u^root * den >= shifted gives a true upper bound.
    u = r if r ** root * den >= shifted else r + 1
    return Fraction(u, scale), False


def qpow(base, exponent, rounding: str = "up") -> Fraction:
    """base**exponent for positive rational base, directed rounding."""
    return power_product([(Fraction(base), Fraction(exponent))], rounding)[0]


def cmp_power_products(lhs: Sequence[Factor], rhs: Sequence[Factor]) -> int:
    """Exact sign of prod(lhs) - prod(rhs); no rounding anywhere."""
    moved = [(Fraction(b), Fraction(e)) for b, e in lhs]
    moved += [(Fraction(b), -Fraction(e)) for b, e in rhs]
    num, den, _root = _combined_radicand(moved)
    # prod(lhs)/prod(rhs) = (num/den)^(1/root); the root preserves order vs 1.
    if num == den:
        return 0
    return 1 if num > den else -1


def rational_log(value, base, max_denominator: int = 64) -> Fraction | None:
    """log_base(value) as an exact Fraction when one exists, else None."""
    v = Fraction(value)
    b = Fraction(base)
    if v <= 0 or b <= 0 or b == 1:
        raise ValueError("rational_log needs value > 0 and base > 0, base != 1")
    if v == 1:
        return Fraction(0)
    lv = math.log(v.numerator) - math.log(v.denominator)
    lb = math.log(b.numerator) - math.log(b.denominator)
    for q in range(1, max_denominator + 1):
        p = round(q * lv / lb)
        if p == 0:
            continue
        if v ** q == b ** p:
            return Fraction(p, q)
    return None


def float_log(value, base=math.e) -> float:
    """Logarithm of a possibly huge Fraction via split num/den logs."""
    v = Fraction(value)
    res = math.log(v.numerator) - math.log(v.denominator)
    if base is not math.e:
        res /= math.log(base)
    return res
