"""Canonical string form for rationals, and the grammar every file format reads."""

from __future__ import annotations

import math
import re
from fractions import Fraction

# The one literal grammar.  [0-9], not \d: int() also reads "١" and "１".  An
# empty first branch, not "?": re matches an integer literal a sixth faster so.
_QPAT = re.compile(r"-?(?:0|[1-9][0-9]*)(?:|/[1-9][0-9]*)")


def ratio_str(num: int, den: int) -> str:
    """Canonical string of num/den for den > 0: "p" or "p/q" in lowest terms."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def qstr(q: Fraction) -> str:
    return ratio_str(*Fraction(q).as_integer_ratio())


def qparts(text: str) -> tuple[int, int]:
    """Parse "p" or "p/q" with q > 0 into ints (p, q); anything else is rejected."""
    if not isinstance(text, str) or not _QPAT.fullmatch(text):
        raise ValueError(f"not a canonical rational literal: {text!r}")
    num, _, den = text.partition("/")
    return int(num), (int(den) if den else 1)


def qparse(text: str) -> Fraction:
    """Parse "p" or "p/q" with q > 0 into a `Fraction`; see `qparts`."""
    return Fraction(*qparts(text))


def qint(text: str) -> int | None:
    """The int of an integer literal "p", else None."""
    return int(text) if _QPAT.fullmatch(text) and "/" not in text else None


def qliterals(items) -> bool:
    """Whether every item is a literal "p" or "p/q", each checked once."""
    try:
        return all(map(_QPAT.fullmatch, items))
    except TypeError:  # an item is not a str
        return False
