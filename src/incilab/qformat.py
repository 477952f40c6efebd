"""Canonical string form for rationals used in every file format."""

from __future__ import annotations

import math
import re
from fractions import Fraction

_QPAT = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def ratio_str(num: int, den: int) -> str:
    """Canonical string of num/den for den > 0: "p" or "p/q" in lowest terms."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def qstr(q: Fraction) -> str:
    return ratio_str(*Fraction(q).as_integer_ratio())


def qparts(text: str) -> tuple[int, int]:
    """Parse "p" or "p/q" with q > 0 into ints (p, q); anything else is rejected."""
    match = _QPAT.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a canonical rational literal: {text!r}")
    num, den = match.groups()
    return int(num), (int(den) if den else 1)


def qparse(text: str) -> Fraction:
    """Parse "p" or "p/q" with q > 0 into a `Fraction`; see `qparts`."""
    return Fraction(*qparts(text))
