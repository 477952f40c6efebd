"""Canonical string form for rationals used in every file format."""

from __future__ import annotations

import re
from fractions import Fraction

_QPAT = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def qstr(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def qparse(text: str) -> Fraction:
    """Parse "p" or "p/q" with q > 0; anything else is rejected."""
    match = _QPAT.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a canonical rational literal: {text!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))
