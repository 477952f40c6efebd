"""Exact rational geometry in affine 3-space.

Points, lines and planes carry arbitrary-precision rational data in canonical
form, so equal geometric objects compare and hash equal.  Every predicate is
decided exactly; no floating point is used anywhere in this module.

The package's integer normal form lives here: `cleared` multiplies rationals
by the lcm of their denominators, and `primitive` divides integers by their
gcd and makes the first nonzero entry positive.  Values carry their integer
form, computed once when built: a point is stored only as (X, Y, Z, q), with
`Fraction` coordinates derived on first use and cached, and a line's base is
B/w with `line.base.ints` = (B, w); directions, planes and quadrics are stored
as `primitive_int_vector`.  Only ints and `Fraction`s are accepted, no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Literal, Union

Vec = tuple[Fraction, Fraction, Fraction]
IntVec = tuple[int, int, int]


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
    values[i] * L, for ints and `Fraction`s alike; anything else is a TypeError."""
    try:
        L = math.lcm(*(v.denominator for v in values))
    except AttributeError:
        bad = next(v for v in values if not hasattr(v, "denominator"))
        raise TypeError(f"not an int or a Fraction: {bad!r}") from None
    return L, [v.numerator * (L // v.denominator) for v in values]


def primitive(ints) -> list[int]:
    """Integers divided by their gcd, the first nonzero entry made positive."""
    g = math.gcd(*ints)
    for v in ints:
        if v:
            if v < 0:
                g = -g
            break
    return [v // g for v in ints]


def primitive_int_vector(vec) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    if not any(vec):
        raise ValueError("cannot normalize the zero vector")
    return tuple(primitive(cleared(vec)[1]))


@dataclass(frozen=True, init=False)
class Rational3Point:
    """Point (x, y, z), stored only as ints = (X, Y, Z, q): q is the lcm of
    the denominators and (x, y, z) = (X, Y, Z)/q.  It decides == and hash."""

    ints: tuple[int, int, int, int]

    def __init__(self, x, y, z):
        q, ints = cleared((x, y, z))
        object.__setattr__(self, "ints", (*ints, q))

    @classmethod
    def from_ints(cls, X: int, Y: int, Z: int, W: int) -> "Rational3Point":
        """The point (X, Y, Z)/W for W > 0, reduced by gcd(X, Y, Z, W)."""
        if W <= 0:
            raise ValueError(f"from_ints needs W > 0, got {W}")
        g = math.gcd(X, Y, Z, W)
        point = object.__new__(cls)
        object.__setattr__(point, "ints", (X // g, Y // g, Z // g, W // g))
        return point

    @classmethod
    def _integral(cls, X: int, Y: int, Z: int) -> "Rational3Point":
        """The integer point (X, Y, Z): over 1 it is already reduced."""
        point = object.__new__(cls)
        object.__setattr__(point, "ints", (X, Y, Z, 1))
        return point

    @cached_property
    def coords(self) -> Vec:
        *X, q = self.ints
        return tuple(Fraction(c, q) for c in X)

    x = property(lambda self: self.coords[0])
    y = property(lambda self: self.coords[1])
    z = property(lambda self: self.coords[2])

    def translate(self, vec) -> "Rational3Point":
        return Rational3Point(*(c + v for c, v in zip(self.coords, vec)))

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
        d = self.dir
        if type(d) is tuple and len(d) == 3 and all(type(c) is int for c in d) and any(d):
            d = tuple(primitive(d))  # ints need no clearing
        else:
            d = primitive_int_vector(d)  # also rejects the zero vector
        b = self.base if isinstance(self.base, Rational3Point) else Rational3Point(*self.base)
        # b = X/q slides to b - (b_k/d_k)*d = (X*d_k - X_k*d)/(q*d_k), k the pivot
        X, Y, Z, q = b.ints
        k = 0 if d[0] else (1 if d[1] else 2)
        dk, Xk = d[k], b.ints[k]
        foot = (X * dk - Xk * d[0], Y * dk - Xk * d[1], Z * dk - Xk * d[2], q * dk)
        object.__setattr__(self, "base", Rational3Point.from_ints(*foot))
        object.__setattr__(self, "dir", d)

    def point_at(self, t) -> Rational3Point:
        return self.base.translate((t * self.dir[0], t * self.dir[1], t * self.dir[2]))

    def __repr__(self):
        return f"Line(base={self.base!r}, dir={self.dir})"


def canonical_line(base, direction) -> RationalLine:
    """Build the canonical line through `base` with direction `direction`."""
    return RationalLine(base, direction)


def point_on_line(point: Rational3Point, line: RationalLine) -> bool:
    (px, py, pz), (bx, by, bz) = point.coords, line.base.coords
    return _is_zero_vec(_cross((px - bx, py - by, pz - bz), line.dir))


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
        *X, q = point.ints
        return cls(*(q * c for c in normal), -_dot(normal, X))

    @property
    def normal(self) -> IntVec:
        return (self.a, self.b, self.c)

    @property
    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def contains_point(self, point: Rational3Point) -> bool:
        return _dot(self.normal, point.ints) + self.d * point.ints[3] == 0

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
    (ax, ay, az), (bx, by, bz) = l1.base.coords, l2.base.coords
    w = (bx - ax, by - ay, bz - az)
    if not _is_zero_vec(n):
        if _dot(w, n) != 0:
            return "skew"
        return RationalPlane.from_point_normal(l1.base, n)
    # Parallel distinct lines are always coplanar; w leaves the direction.
    return RationalPlane.from_point_normal(l1.base, _cross(l1.dir, w))
