"""Exact rational geometry in affine 3-space.

Points, lines and planes carry arbitrary-precision rational data in canonical
form, so equal geometric objects compare and hash equal.  Every predicate is
decided exactly; no floating point is used anywhere in this module.

The package's integer normal form lives here: `cleared` multiplies rationals
by the lcm of their denominators, and `primitive` divides integers by their
gcd and makes the first nonzero entry positive.  Values carry their integer
form, computed once when they are built: a point stores (X, Y, Z, q) as
`ints`, so a line's base is B/w with `line.base.ints` = (B, w); directions,
planes and quadrics are stored as `primitive_int_vector`, the two composed.
No kernel clears a point or a line again; each reads the stored ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Union

Vec = tuple[Fraction, Fraction, Fraction]
IntVec = tuple[int, int, int]


def _q(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _is_zero_vec(u) -> bool:
    return u[0] == 0 and u[1] == 0 and u[2] == 0


def cleared(values) -> tuple[int, list[int]]:
    """(L, ints): L is the lcm of the values' denominators and ints[i] is
    values[i] * L, for ints and `Fraction`s alike."""
    L = math.lcm(*(v.denominator for v in values))
    return L, [v.numerator * (L // v.denominator) for v in values]


def primitive(ints) -> list[int]:
    """Integers divided by their gcd, the first nonzero entry made positive."""
    g = math.gcd(*ints)
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return [v // g for v in ints]


def primitive_int_vector(vec) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    if not any(vec):
        raise ValueError("cannot normalize the zero vector")
    return tuple(primitive(cleared(vec)[1]))


@dataclass(frozen=True)
class Rational3Point:
    """Point (x, y, z); ints = (X, Y, Z, q) is its integer form, with q the lcm
    of the denominators and (x, y, z) = (X, Y, Z)/q.  It decides == and hash."""

    x: Fraction = field(compare=False)
    y: Fraction = field(compare=False)
    z: Fraction = field(compare=False)
    ints: tuple[int, int, int, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x", _q(self.x))
        object.__setattr__(self, "y", _q(self.y))
        object.__setattr__(self, "z", _q(self.z))
        q, ints = cleared((self.x, self.y, self.z))
        object.__setattr__(self, "ints", (*ints, q))

    @property
    def coords(self) -> Vec:
        return (self.x, self.y, self.z)

    def translate(self, vec) -> "Rational3Point":
        return Rational3Point(self.x + vec[0], self.y + vec[1], self.z + vec[2])

    def __repr__(self):
        return f"Pt({self.x}, {self.y}, {self.z})"


@dataclass(frozen=True)
class RationalLine:
    """Line in canonical form.

    dir is the primitive integer direction whose first nonzero coordinate is
    positive; base is the unique point on the line whose coordinate along
    that first nonzero axis is 0.  Any (base, dir) pair describing the same
    geometric line canonicalizes to identical field values.
    """

    base: Rational3Point
    dir: IntVec

    def __post_init__(self):
        d = primitive_int_vector(self.dir)
        b = self.base if isinstance(self.base, Rational3Point) else Rational3Point(*self.base)
        # b = X/q slides to b - (b_k/d_k)*d = (X*d_k - X_k*d)/(q*d_k), k the pivot
        *X, q = b.ints
        k = 0 if d[0] else (1 if d[1] else 2)
        foot = (Fraction(X[i] * d[k] - X[k] * d[i], q * d[k]) for i in range(3))
        object.__setattr__(self, "base", Rational3Point(*foot))
        object.__setattr__(self, "dir", d)

    def point_at(self, t) -> Rational3Point:
        t = _q(t)
        return self.base.translate((t * self.dir[0], t * self.dir[1], t * self.dir[2]))

    def __repr__(self):
        return f"Line(base={self.base!r}, dir={self.dir})"


def canonical_line(base, direction) -> RationalLine:
    """Build the canonical line through `base` with direction `direction`."""
    if not isinstance(base, Rational3Point):
        base = Rational3Point(*base)
    return RationalLine(base, tuple(_q(c) for c in direction))


def point_on_line(point: Rational3Point, line: RationalLine) -> bool:
    u = (
        point.x - line.base.x,
        point.y - line.base.y,
        point.z - line.base.z,
    )
    return _is_zero_vec(_cross(u, line.dir))


@dataclass(frozen=True)
class RationalPlane:
    """Plane a*x + b*y + c*z + d = 0 with coprime integer coefficients.

    Sign convention: the first nonzero entry of (a, b, c, d) is positive.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if not (self.a or self.b or self.c):
            raise ValueError("plane normal must be nonzero")
        coeffs = primitive_int_vector((self.a, self.b, self.c, self.d))
        for name, val in zip("abcd", coeffs):
            object.__setattr__(self, name, val)

    @classmethod
    def from_point_normal(cls, point: Rational3Point, normal) -> "RationalPlane":
        n = tuple(_q(c) for c in normal)
        d = -_dot(n, point.coords)
        return cls(n[0], n[1], n[2], d)

    @property
    def normal(self) -> IntVec:
        return (self.a, self.b, self.c)

    @property
    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def eval_at(self, point: Rational3Point) -> Fraction:
        return self.a * point.x + self.b * point.y + self.c * point.z + self.d

    def contains_point(self, point: Rational3Point) -> bool:
        return self.eval_at(point) == 0

    def contains_line(self, line: RationalLine) -> bool:
        return _dot(self.normal, line.dir) == 0 and self.contains_point(line.base)

    def __repr__(self):
        return f"Plane({self.a}, {self.b}, {self.c}, {self.d})"


PlaneOrMarker = Union[RationalPlane, Literal["skew", "identical"]]


def plane_through_lines(l1: RationalLine, l2: RationalLine) -> PlaneOrMarker:
    """Common plane of two lines, or "skew"/"identical" markers."""
    if l1 == l2:
        return "identical"
    n = _cross(l1.dir, l2.dir)
    w = (
        l2.base.x - l1.base.x,
        l2.base.y - l1.base.y,
        l2.base.z - l1.base.z,
    )
    if not _is_zero_vec(n):
        if _dot(w, n) != 0:
            return "skew"
        return RationalPlane.from_point_normal(l1.base, n)
    # Parallel distinct lines are always coplanar; w leaves the direction.
    return RationalPlane.from_point_normal(l1.base, _cross(l1.dir, w))
