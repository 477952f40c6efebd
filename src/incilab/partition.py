"""Space partitioning by a product of low-degree bisecting polynomials.

A partition of depth t is a sequence g_1..g_t where g_j splits every class
of points carved out by the signs of g_1..g_{j-1} into two sides of
near-equal size.  Points where some g_j vanishes migrate to the surface set
Z(f) of the product f = g_1 * ... * g_t.  Cells are the full-sign classes in
{-,+}^t; a line not inside Z(f) meets at most 1 + deg f of them, certified
per line by a real root count.

f is never expanded: Z(f) is the union of the levels' zero sets, and the
restriction of f to a line is the product of the levels' restrictions.

The bisector search is deterministic given the seed.  Every candidate has
one shape: a coefficient vector vec on monomials m(x) of degree at most d,
each class's values v = L^d * vec.m(x) at its search points (below), and a
threshold c, carried as the int 2c.  One routine (`_Search._level`) turns
them into the integer terms 2*L^d*vec.m(x) - 2c of a positive multiple of
the candidate and a lazy `signs()`, sign(2v - 2c) at each class point, that
only the winner calls.  The families enumerate vectors: median planes and
plane sweeps (u on x, y and z at d = 1, whose values are the keys u.X),
slabs (the product of two planes of one direction, at cuts c1 and c2), and
balanced lifted directions on which every class has the same mean.

One routine (`_threshold_candidate`) places every threshold, in one window
with a cap on each side: at most `below` of a class's sz sorted values
under c and at most `above` over it, which holds exactly for c in
[values[sz-1-above], values[below]].  The classes' windows meet in [lo, hi]
with lo a value; a class with below >= sz bounds hi not at all, and when no
class does, the window ends `span` past lo.  A plane or a balanced
combination caps both sides of a class at q, the open sides' cap.  A
slab's first cut c1 lies between two adjacent keys, with n of a class's
keys under it.  Those and the keys over c2 lie outside the slab, so c2 may
have q + n keys under it and q - n over it; no c2 fits when n > q.  When
no class caps the keys under c2, the window ends one unit of x (L key
units) past lo.  The windows certify that no open side exceeds a class's
cap, so candidates are compared only by their zeros: the first one
vanishing on no more points than the caps force wins, otherwise the first
with the fewest zeros.  Each window gives one threshold: lo when lo == hi,
else the midpoint of lo and the next value or hi, which meets no value and
so ends the search.

No value is computed twice in a level: each class's points are gathered
once, each fixed direction's keys are kept in class order next to their
sorted copies for the planes and the slabs (the random directions differ
between the two families, and the kept keys are dropped before the
balanced family), a slab's half-integer first cut c1 is compared with the
keys as floor(c1), and a balanced basis vector's values are computed when a
plan entry first uses it.  `build_partition` divides the winner's terms by
their gcd, negates them and its signs when the lex-largest term is
negative, as `primitive_normalize` would, keeps them as the level, and
evaluates no level at a class point.  The partition records each input
point's cell, its tuple of level signs or a marker that it lies on Z(f),
and `classify_points` and `cell_occupancy` read that record when they are
given the same points; otherwise `_sign_vectors` evaluates every level at
every point.

Every sign is decided on Python ints.  Points and lines carry their
integer form (`geom`), and a partition is its levels' homogeneous integer
forms (`PartitionPoly.forms`): terms C * X^a * Y^b * Z^c * W^k with
k = deg(g) - a - b - c, whose sum at (X, Y, Z, W) with W > 0 is a positive
multiple of g(X/W, Y/W, Z/W).  Only a `TriPoly` that comes in is cleared to
a form (`_form`), and `PartitionPoly.levels` rebuilds the `TriPoly`s for the
references.  That one form is evaluated at a point's stored ints
(X, Y, Z, q); along a line with stored base B/w and direction d at
(B + t*w*d, w), which gives H(t), a positive multiple of the level at
base + t*dir with the same roots and signs; and at the search points
(X_L, Y_L, Z_L, L), each point times L, the lcm of the denominators.  Search
keys are in those units (u.X_L = L*u.x), so they sort and split exactly as
the rational keys would, and a key threshold c is the rational c/L.

The line kernel is prepared once per partition (`PartitionPoly._kernel`):
each plane's four coefficients, each other level's degree and form, and
each axis's top exponent over the non-plane levels, so restricting a line
does only that line's arithmetic.  The roots of f along a line are the
union of the levels' roots, counted level by level.  A linear
H = h0 + h1*t has the exact root -h0/h1, kept as a reduced (num, den) pair
so a set drops roots that several planes share; a constant H has no root.
Only the product P of the nonlinear H's is counted.  A lone quadratic
P = c + b*t + a*t^2 has 2, 1 or 0 distinct real roots as b^2 - 4ac is
positive, zero or negative; a P of degree 3 or more gets a primitive
pseudo-remainder Sturm chain (Collins 1967; Brown-Traub 1971), read as
V(-inf) - V(+inf) from leading signs.  A non-squarefree chain ends
in gcd(P, P'), which divides every element, so the count of distinct roots
is unchanged and no squarefree pass is needed.  The distinct roots number
P's count plus the rational roots where P does not vanish, so a line along
which every H is linear or constant, as on planes, or P is a quadratic,
builds no chain for its count.  An all-linear line's gap samples lie
between its sorted rational roots; on any other line the gap sampler
bisects on the chain of the product of all H's, taking its squarefree part,
since it evaluates the chain at roots.  Its bisection points are dyadic
(num, den) pairs, the format of the all-linear samples.  The `Fraction`
functions in `algebra` are the reference.

The same forms decide which planes divide a level (`plane_divides_form`),
with no polynomial division.  A plane is irreducible, so it divides a level
g of degree d exactly when g vanishes on it.  Solving the plane for its
first nonzero coefficient restricts g to a polynomial h(u, v) of total
degree at most d, and a nonzero such h cannot vanish on a (d+1) x (d+1)
grid (Alon's Combinatorial Nullstellensatz, 1999; Schwartz-Zippel), so g's
form is evaluated at the grid's points and the first nonzero value ends the
test.  For a zero test the sign of W does not matter: the form at
(X, Y, Z, W) is W^d * g(X/W, Y/W, Z/W), zero exactly when g is zero there
for any W != 0.  A line lies in one level's zero set when its restriction
is zero (`line_in_zero_set`), which decides the pipeline's cone and regulus
components; `algebra.line_in_zero_set` is the reference.  A level is a cone
with apex p, g(p + v) homogeneous in v, exactly when F(Xi + s*P) = F(Xi) for
all s, with F its form and P the apex's ints: when the derivative
sum P_i * dF/dXi_i is zero (`is_cone_form`), which at Xi = P is d * F(P) by
Euler's identity, so the apex lies on the level.  The quadric Q through
pairwise skew lines l1, l2, l3 is smooth and doubly ruled, and the lines
meeting all three form one ruling.  If Q does not divide a level g of
degree d, Z(g) meets Q ~ P^1 x P^1 in a curve of bidegree (d, d), which holds
at most d lines of a ruling, so Q divides g exactly when g vanishes on d + 1
such transversals (`regulus_divides_form`).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from operator import mul
from typing import Iterable, Sequence

from ._linalg import nullspace
from .algebra import (
    TriPoly,
    UniPoly,
    count_real_roots,
    primitive_normalize,
    restrict_to_line,
    sign_gap_samples,
)
from .geom import Rational3Point, RationalLine, _cross, cleared
from .qformat import qparse, qstr


class PartitionBudgetError(RuntimeError):
    """The search yielded no candidate at some level: for no plane, slab or
    lifted direction it tried did the classes' windows share a threshold."""


def level_degree_cap(j: int) -> int:
    """Largest bisector degree allowed at level j.

    Level j faces up to 2^j prospective classes; degree d gives
    C(d+3,3) - 1 lifted coordinates to bisect them with, so the cap is the
    smallest d whose lifted dimension reaches 2^j.
    """
    if j < 1:
        raise ValueError("level index starts at 1")
    target = 1 << j
    d = 1
    while math.comb(d + 3, 3) - 1 < target:
        d += 1
    return d


def degree_budget(t: int) -> int:
    return sum(level_degree_cap(j) for j in range(1, t + 1))


def _homogenized(terms: dict) -> tuple[tuple[int, int, int, int, int], ...]:
    """The form of a nonzero level's integer terms {(a, b, c): C}: each
    (a, b, c, k, C) with k = deg(g) - a - b - c, sorted by exponent."""
    d = max(map(sum, terms))
    return tuple(sorted((a, b, c, d - a - b - c, C) for (a, b, c), C in terms.items()))


def _form(g: TriPoly) -> tuple[tuple[int, int, int, int, int], ...]:
    """g's form (`_homogenized`), its coefficients cleared to ints.  The sum of
    C * X^a * Y^b * Z^c * W^k at W > 0 has the sign of g(X/W, Y/W, Z/W)."""
    if g.is_zero():
        raise ValueError("level polynomial must be nonzero")
    terms = g.terms()
    _, ints = cleared(list(terms.values()))
    return _homogenized(dict(zip(terms, ints)))


@dataclass(frozen=True)
class PartitionPoly:
    """Levels g_1..g_t held as their forms (`_homogenized`), `_kernel`, the
    line kernel prepared from them once (`_prepare`), and for a partition
    from `build_partition` `_record`: the points it was built on and each
    point's cell (`_cells`)."""

    forms: tuple[tuple[tuple[int, int, int, int, int], ...], ...]
    epsilon: Fraction
    seed: int
    _kernel: tuple = field(init=False, compare=False, repr=False)
    _record: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.forms:
            raise ValueError("a partition needs at least one level")
        if not all(self.forms):
            raise ValueError("level polynomial must be nonzero")
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "_kernel", _prepare(self.forms))

    @property
    def t(self) -> int:
        return len(self.forms)

    @property
    def degree(self) -> int:
        return sum(sum(form[0][:4]) for form in self.forms)  # a + b + c + k = deg(g)

    @property
    def levels(self) -> tuple[TriPoly, ...]:
        """The levels as `TriPoly`s, rebuilt on each call, for the references."""
        return tuple(TriPoly({(a, b, c): C for a, b, c, _, C in form}) for form in self.forms)

    @classmethod
    def from_levels(cls, levels: Iterable[TriPoly], epsilon=Fraction(1, 10), seed=0):
        """Explicit level polynomials made primitive (testing seam; caps not enforced)."""
        return cls(tuple(_form(primitive_normalize(g)) for g in levels), epsilon, seed)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "eps": qstr(self.epsilon),
            "seed": self.seed,
            "D": self.degree,
            "levels": [[{"e": [a, b, c], "c": str(C)} for a, b, c, _, C in f] for f in self.forms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PartitionPoly":
        """A saved partition; a level with p/q coefficients is held cleared."""
        forms = tuple(_form(TriPoly.from_records(r)) for r in data["levels"])
        part = cls(forms, qparse(data["eps"]), data["seed"])
        for key in ("seed", "t", "D"):
            if type(data[key]) is not int:
                raise ValueError(f"{key} must be an int, got {data[key]!r}")
        if (data["t"], data["D"]) != (part.t, part.degree):
            raise ValueError(f"t, D = {data['t']}, {data['D']}; levels give {part.t}, {part.degree}")
        if not 0 <= part.epsilon < Fraction(1, 2):  # as build_partition requires
            raise ValueError("slack must lie in [0, 1/2)")
        return part


# -- bisector search ----------------------------------------------------------

_STRUCTURED_DIRS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, -1, 0),
    (1, 0, -1),
    (0, 1, -1),
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 1),
    (1, 2, 3),
    (3, 1, 2),
    (2, 3, 1),
)


def _side_caps(classes: Sequence[Sequence[int]], epsilon: Fraction) -> list[int]:
    half = Fraction(1, 2) + epsilon
    return [int(half * len(c)) for c in classes]


def _value_signs(values_by_class, t: int) -> list[list[int]]:
    """Sign of 2v - t at each value v of each class, with t twice a
    threshold: v's side of the threshold, on ints."""
    return [[((d := 2 * v - t) > 0) - (d < 0) for v in vs] for vs in values_by_class]


def _window_pick(values_by_class, lo: int, hi: int) -> tuple[int, int]:
    """(2c, zeros) for a threshold c in [lo, hi], lo a key of the sorted
    per-class keys: lo and the keys equal to it when lo == hi, else the
    zero-free midpoint of lo and the next key above it, or hi if that is
    nearer.  c is the midpoint of two ints, so 2c is their sum."""
    if lo == hi:
        return 2 * lo, sum(
            bisect.bisect_right(vs, lo) - bisect.bisect_left(vs, lo) for vs in values_by_class
        )
    above = [vs[i] for vs in values_by_class if (i := bisect.bisect_right(vs, lo)) < len(vs)]
    return lo + min([hi, *above]), 0


def _threshold_candidate(values_by_class, below, above, span=0):
    """(2c, zeros) for a threshold c with at most below[k] of class k's sz
    sorted keys under it and at most above[k] < sz over it, or None: c in
    the window [keys[sz-1-above], keys[below]].  A class with below >= sz
    leaves the window's top open, and with every top open it ends at
    lo + span."""
    lo = max(vs[len(vs) - 1 - a] for vs, a in zip(values_by_class, above))
    hi = min((vs[b] for vs, b in zip(values_by_class, below) if b < len(vs)), default=lo + span)
    if lo > hi:
        return None
    return _window_pick(values_by_class, lo, hi)


def _product_signs(s, r) -> list[list[int]]:
    """Each class's signs of the product of two candidates, from their
    lazy signs."""
    return [[a * b for a, b in zip(ss, rs)] for ss, rs in zip(s(), r())]


def _times(p: dict, q: dict) -> dict[tuple[int, int, int], int]:
    """Product of two integer term dicts, without zeros."""
    out: dict[tuple[int, int, int], int] = {}
    for (a, b, c), C in p.items():
        for (i, j, k), D in q.items():
            e = (a + i, b + j, c + k)
            out[e] = out.get(e, 0) + C * D
    return {e: C for e, C in out.items() if C}


def _scaled(points) -> tuple[int, list[tuple[int, int, int, int]]]:
    """L, the lcm of the points' denominators, and each search point
    (X_L, Y_L, Z_L, L): the point times L.  Integer points are their ints."""
    ints = [p.ints for p in points]
    L = math.lcm(*(W for *_, W in ints))
    if L == 1:
        return 1, ints
    return L, [(X * s, Y * s, Z * s, L) for X, Y, Z, W in ints for s in (L // W,)]


def _plane_coeffs(form) -> tuple[int, int, int, int]:
    """(cx, cy, cz, cw) of a degree-1 `_form`, valued cx*X + cy*Y + cz*Z + cw*W."""
    coef = [0, 0, 0, 0]
    for *e, C in form:
        coef[e.index(1)] = C
    return tuple(coef)


def form_value(form, pt) -> int:
    """A `_form` at one homogeneous point (X, Y, Z, W), W != 0; zero exactly
    when the level vanishes at (X/W, Y/W, Z/W), whatever the sign of W."""
    x, y, z, w = pt
    return sum(C * x**a * y**b * z**c * w**k for a, b, c, k, C in form)


def _signs(form, pts) -> list[int]:
    """Sign of a `_form` at each homogeneous point (X, Y, Z, W), W > 0."""
    return [((v := form_value(form, pt)) > 0) - (v < 0) for pt in pts]


def _sign_vectors(part: PartitionPoly, points: Sequence[Rational3Point]):
    """Each point's tuple of level signs, read at its stored ints: the
    evaluator, and the reference for the record `_cells` reads."""
    pts = [p.ints for p in points]
    return list(zip(*(_signs(form, pts) for form in part.forms)))


def _cells(part: PartitionPoly, points: Sequence[Rational3Point]) -> list:
    """Each point's cell: its tuple of level signs, or None on Z(f), read from
    the partition's record on the points it was built on, in the same order;
    else from `_sign_vectors`."""
    record = part._record
    if record is not None and record[0] == tuple(points):
        return record[1]
    return [None if 0 in sv else sv for sv in _sign_vectors(part, points)]


def is_cone_form(form, pt) -> bool:
    """Whether the level of `_form` F is a cone with apex at (X, Y, Z, W) = pt,
    W != 0: whether the derivative sum pt_i * dF/dXi_i is zero, term by term.
    The `Fraction` reference is `algebra.is_cone_with_apex`."""
    deriv: dict[tuple[int, ...], int] = {}
    for *e, C in form:
        for i in range(4):
            if e[i]:
                key = (*e[:i], e[i] - 1, *e[i + 1 :])
                deriv[key] = deriv.get(key, 0) + C * e[i] * pt[i]
    return not any(deriv.values())


def plane_divides_form(form, key: tuple[int, int, int, int]) -> bool:
    """Whether the plane a*x + b*y + c*z + d = 0 of a `coplanar_buckets`
    key divides the level whose `_form` is given.

    The key's first nonzero entry of (a, b, c) is the pivot.  For a != 0
    the plane points (-(b*u + c*v + d)/a, u, v) restrict a level of degree n
    to h(u, v) of total degree at most n, which is zero exactly when it
    vanishes on the grid u, v in {0..n}; each grid point is evaluated as
    (-(b*u + c*v + d), a*u, a*v, a), and the first nonzero value ends the
    test.  The b and c pivots solve for y and for z alike.
    """
    a, b, c, d = key
    grid = range(sum(form[0][:4]) + 1)  # a + b + c + k = deg(g)
    if a:
        pts = ((-(b * u + c * v + d), a * u, a * v, a) for u in grid for v in grid)
    elif b:
        pts = ((b * u, -(c * v + d), b * v, b) for u in grid for v in grid)
    else:
        pts = ((c * u, c * v, -d, c) for u in grid for v in grid)
    return all(form_value(form, pt) == 0 for pt in pts)


def regulus_divides_form(form, l1: RationalLine, l2: RationalLine, l3: RationalLine) -> bool:
    """Whether the quadric through the pairwise skew lines l1, l2, l3 divides
    the level of `_form`: whether it holds the d + 1 transversals through l1's
    points X/q at t = 0..d, meets of planes with normals (q*B - w*X) x dir for
    l2's and l3's bases B/w.  The reference is `algebra.tp_divides`."""
    *F, q = l1.base.ints
    def normal(X, line):  # of the plane that X/q spans with the line
        *B, w = line.base.ints
        return _cross([q * b - w * x for b, x in zip(B, X)], line.dir)
    for t in range(sum(form[0][:4]) + 1):  # a + b + c + k = deg(g)
        X = [f + t * q * d for f, d in zip(F, l1.dir)]
        direction = _cross(normal(X, l2), normal(X, l3))
        if not line_in_zero_set(form, RationalLine(Rational3Point.from_ints(*X, q), direction)):
            return False
    return True


class _Search:
    """One level's candidate enumeration over the current classes; values
    are in the units of pts, the search points of `_scaled`, and a threshold
    c is carried as the int 2c (`_window_pick`).

    Each family yields at most one (terms, zeros, signs) per window, built
    by `_level` from a coefficient vector and its values: a plane's or a
    balanced combination's, or the product of a slab's two planes.  Every
    threshold comes from `_threshold_candidate`, inside each class's window
    for caps on each side: (q, q) for a plane or a balanced combination,
    and for a slab's second cut (q + n, q - n), with n the class's keys
    under the first.  So no open side of the candidate exceeds a class's
    cap, and zeros is the number of class points where it vanishes.  Only
    the winner's signs() is called.  No candidate is evaluated as a
    polynomial.
    """

    def __init__(self, pts, L, classes, cap, epsilon, rng):
        self.L = L
        self.classes = [list(c) for c in classes if c]
        # each class's search points, gathered once for every direction
        self.class_pts = [[pts[i] for i in c] for c in self.classes]
        self.cap = cap
        self.rng = rng
        self.qs = _side_caps(self.classes, epsilon)
        # zero-free is impossible for a class whose cap leaves fewer than
        # sz slots across both sides
        self.forced_zeros = sum(
            max(0, len(c) - 2 * q) for c, q in zip(self.classes, self.qs)
        )
        # the structured directions' (values, keys) from `_keys`, built by
        # `_planes` and read again by `_slabs`; the random directions differ
        # between the two
        self.key_memo: dict[tuple[int, int, int], tuple[list[list[int]], list[list[int]]]] = {}

    def directions(self):
        dirs = list(_STRUCTURED_DIRS)
        seen = {d for d in dirs}
        while len(dirs) < len(_STRUCTURED_DIRS) + 8:
            d = tuple(self.rng.randint(-4, 4) for _ in range(3))
            if d == (0, 0, 0) or d in seen:
                continue
            seen.add(d)
            dirs.append(d)
        return dirs

    def run(self):
        """(terms, signs) of the first candidate with at most `forced_zeros`
        zeros, else of the first with the fewest; None if no family yields
        a candidate."""
        best = None
        for fam in (self._planes, self._slabs, self._balanced):
            for terms, zeros, signs in fam():
                if zeros <= self.forced_zeros:
                    return terms, signs
                if best is None or zeros < best[0]:
                    best = (zeros, terms, signs)
        return None if best is None else best[1:]

    def _keys(self, u):
        """(values, keys): each class's keys u.X in class order, and their
        sorted copies."""
        got = self.key_memo.get(u)
        if got is None:
            a, b, c = u
            values = [[a * x + b * y + c * z for x, y, z, _ in P] for P in self.class_pts]
            got = values, [sorted(vs) for vs in values]
            if u in _STRUCTURED_DIRS:
                self.key_memo[u] = got
        return got

    def _level(self, exps, vec, d: int, values, c2: int):
        """(terms, signs) of the candidate v = c, where each class's values v,
        in class order, are L^d * (vec . the monomials exps of x) at the
        search points X = L*x, and c2 = 2c: terms holds 2*L^d*(vec . m(x)) - c2,
        and signs() the signs of 2v - c2."""
        scale = 2 * self.L**d
        terms = {e: scale * k for e, k in zip(exps, vec) if k}
        if c2:
            terms[(0, 0, 0)] = -c2
        return terms, partial(_value_signs, values, c2)

    # family: planes u.x = c (covers the axis median fallback: axes first);
    # the first structured directions are the exponents of x, y and z
    def _planes(self):
        for u in self.directions():
            values, keys = self._keys(u)
            got = _threshold_candidate(keys, self.qs, self.qs)
            if got is not None:
                c2, zeros = got
                terms, signs = self._level(_STRUCTURED_DIRS[:3], u, 1, values, c2)
                yield terms, zeros, signs

    # family: products of two parallel planes (u.x - c1)(u.x - c2)
    def _slabs(self):
        if self.cap < 2:
            return
        for u in self.directions():
            values, keys = self._keys(u)
            distinct = sorted({v for vs in keys for v in vs})
            gaps = list(zip(distinct, distinct[1:]))
            if len(gaps) > 12:
                gaps = [gaps[k * len(gaps) // 12] for k in range(12)]
            for a, b in gaps:
                c1 = a + b  # twice the cut, the midpoint of a and b
                # a class's n keys under c1/2, which meets no key, are those
                # at most floor(c1/2).  They and the keys over c2/2 lie
                # outside the slab c1/2 < u.X < c2/2, so at most q + n keys
                # may lie under c2/2 and q - n over it
                below, above = [], []
                for vs, q in zip(keys, self.qs):
                    n = bisect.bisect_right(vs, c1 // 2)
                    if n > q:  # no c2 fits
                        break
                    below.append(q + n)
                    above.append(q - n)
                else:  # one unit of x past lo when no class caps the inside
                    got = _threshold_candidate(keys, below, above, self.L)
                    if got is not None:
                        c2, zeros = got
                        (t1, s1), (t2, s2) = (
                            self._level(_STRUCTURED_DIRS[:3], u, 1, values, c) for c in (c1, c2)
                        )
                        yield _times(t1, t2), zeros, partial(_product_signs, s1, s2)

    # family: lifted directions whose class means are equal by construction
    # (nullspace of centroid differences), so one constant term can sit in
    # every class's quantile window at once
    def _balanced(self):
        if self.cap < 2 or len(self.classes) < 2:
            return
        self.key_memo.clear()  # the plane and slab keys are not read again
        d = self.cap
        exps = sorted(
            (i, j, k)
            for i in range(d + 1)
            for j in range(d + 1 - i)
            for k in range(d + 1 - i - j)
            if (i, j, k) != (0, 0, 0)
        )
        # only the first 8 basis vectors are used.  The elimination stops at
        # the 8th free column (at most len(classes) + 6, as the rank is at
        # most len(classes) - 1), asks for the columns up to it one at a
        # time, and the basis vectors are zero past the last one read.
        # Monomials of X = L*x lifted to degree d: L^d * x^a, all ints
        Lpow = [self.L**k for k in range(d + 1)]
        lifted_cols = []  # per column read, each class's lifted monomials

        def column(c):
            """Centroid differences c_j - c_0 at monomial c, times n_0 * n_j * L^d > 0."""
            a, b, e = exps[c]
            Lk = Lpow[d - a - b - e]
            ms = [[x**a * y**b * z**e * Lk for x, y, z, _ in P] for P in self.class_pts]
            lifted_cols.append(ms)
            n0, s0 = len(ms[0]), sum(ms[0])
            return [n0 * sum(m) - len(m) * s0 for m in ms[1:]]

        basis = nullspace(ncols=len(exps), limit=8, column=column)
        if not basis:
            return
        exps = exps[: len(lifted_cols)]
        lifted = [list(zip(*cols)) for cols in zip(*lifted_cols)]  # per class, per point
        _, flat = cleared([v for vec in basis for v in vec[: len(exps)]])
        ibasis = [flat[k : k + len(exps)] for k in range(0, len(flat), len(exps))]
        vals: list = [None] * len(ibasis)

        def values(b):
            """Each class's values of basis vector b, computed on first use."""
            if vals[b] is None:
                vec = ibasis[b]
                vals[b] = [[sum(map(mul, vec, m)) for m in ms] for ms in lifted]
            return vals[b]

        plan = [((k,), (1,)) for k in range(len(basis))]
        for _ in range(24):
            take = tuple(
                self.rng.sample(range(len(basis)), min(2, len(basis)))
            )
            coeffs = tuple(self.rng.randint(-3, 3) for _ in take)
            if any(coeffs):
                plan.append((take, coeffs))
        for take, coeffs in plan:
            # a plan entry combines one or two vectors; spelled out, since a
            # sum(map(mul, coeffs, ...)) per point costs about 10% of the build.
            # The values stay in class order for signs(); sorted copies give
            # the windows
            if len(take) == 1:
                (c,) = coeffs
                combo = [[c * v for v in vs] for vs in values(take[0])]
            else:
                (c0, c1) = coeffs
                combo = [
                    [c0 * v + c1 * w for v, w in zip(vs, ws)]
                    for vs, ws in zip(values(take[0]), values(take[1]))
                ]
            got = _threshold_candidate([sorted(vs) for vs in combo], self.qs, self.qs)
            if got is None:
                continue
            c2, zeros = got
            # combo = L^d * (vec . x's monomials); vec != 0: independent basis, some c != 0
            vec = [sum(map(mul, coeffs, col)) for col in zip(*(ibasis[b] for b in take))]
            terms, signs = self._level(exps, vec, d, combo, c2)
            yield terms, zeros, signs


def build_partition(
    points: Sequence[Rational3Point],
    t: int,
    epsilon: Fraction = Fraction(1, 10),
    seed: int = 0,
) -> PartitionPoly:
    """Construct a depth-t partition of the points within slack epsilon.

    Every level's bisector splits each current class so that neither open
    side exceeds (1/2 + epsilon) of the class; points on the bisector leave
    the class pool.  Deterministic given (points, t, epsilon, seed).
    """
    if not points:
        raise ValueError("points must be nonempty")
    if t < 1:
        raise ValueError("need at least one level")
    epsilon = Fraction(epsilon)
    if not (0 <= epsilon < Fraction(1, 2)):
        raise ValueError("slack must lie in [0, 1/2)")
    L, pts = _scaled(points)
    # the nonempty classes, each with its points' signs on the levels so far
    classes: list[tuple[tuple[int, ...], list[int]]] = [((), list(range(len(points))))]
    forms: list[tuple] = []
    for j in range(1, t + 1):
        cap = level_degree_cap(j)
        rng = random.Random(seed * 1000003 + j)
        if not classes:
            # everything already migrated to the surface; any admissible
            # polynomial works, keep the degree low
            forms.append(((1, 0, 0, 0, 1),))  # the form of x
            continue
        got = _Search(pts, L, [c for _, c in classes], cap, epsilon, rng).run()
        if got is None:
            raise PartitionBudgetError(f"level {j}: no bisector met the slack at this level")
        terms, signs = got
        flip = -1 if terms[max(terms)] < 0 else 1  # as primitive_normalize
        g = flip * math.gcd(*terms.values())
        forms.append(_homogenized({e: C // g for e, C in terms.items()}))
        nxt = []
        for (sv, cls_), ss in zip(classes, signs()):
            for side in (-1, 1):
                kept = [i for i, s in zip(cls_, ss) if s == side * flip]
                if kept:
                    nxt.append(((*sv, side), kept))
        classes = nxt
    part = PartitionPoly(tuple(forms), epsilon, seed)
    cells: list = [None] * len(points)  # None: on Z(f)
    for sv, cls_ in classes:
        for i in cls_:
            cells[i] = sv
    object.__setattr__(part, "_record", (tuple(points), cells))
    return part


# -- classification -----------------------------------------------------------


def cell_occupancy(
    part: PartitionPoly, points: Sequence[Rational3Point]
) -> tuple[dict[tuple[int, ...], int], int]:
    """Counts per full-sign class, in order of first appearance among the
    points, plus the count of on-surface points.  On the points the
    partition was built on, the cells are read from its record (`_cells`)."""
    cells: dict[tuple[int, ...], int] = {}
    surface = 0
    for sv in _cells(part, points):
        if sv is None:
            surface += 1
        else:
            cells[sv] = cells.get(sv, 0) + 1
    return cells, surface


def classify_points(
    part: PartitionPoly, points: Sequence[Rational3Point]
) -> tuple[list[int], list[int]]:
    """Indexes of points on Z(f) and of points in open cells, read from the
    partition's record on the points it was built on (`_cells`)."""
    cells = _cells(part, points)
    on_surface = [i for i, sv in enumerate(cells) if sv is None]
    return on_surface, [i for i, sv in enumerate(cells) if sv is not None]


@dataclass
class LineClassification:
    contained: list[int]
    crossing: list[tuple[int, int]]  # (line index, distinct real root count)

    @property
    def max_roots(self) -> int:
        return max((r for _, r in self.crossing), default=0)


# -- the line kernel: restrictions and Sturm chains on ints -------------------


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prepare(forms) -> tuple:
    """The line kernel's per-partition part: (levels, tops).  Each level is a
    plane's (cx, cy, cz, cw) (`_plane_coeffs`) or (deg, form) for any other
    degree; tops holds each axis's top exponent over the non-plane levels,
    or is None when every level is a plane."""
    levels = []
    for form in forms:
        deg = sum(form[0][:4])  # a + b + c + k = deg(g)
        levels.append(_plane_coeffs(form) if deg == 1 else (deg, form))
    others = [lv[1] for lv in levels if len(lv) == 2]  # not planes
    tops = None
    if others:
        tops = tuple(max(e[axis] for form in others for e in form) for axis in range(3))
    return tuple(levels), tops


def _restrict(kernel, line: RationalLine) -> list[list[int]]:
    """Each level's integer restriction H(t) to the line, low to high; [] is
    zero, from a kernel that `_prepare` made.

    With the stored base B/w (w > 0) and direction d, H(t) is the level's
    `_form` at (B + t*w*d, w):
    H(t) = sum C * w^k * prod (B_i + w*d_i*t)^(e_i), a positive multiple of
    the level at base + t*dir, with the same roots and signs in the same
    parameter t as `restrict_to_line`.  A plane C . (x, y, z, 1) gives
    h0 = C . (B, w) and h1 = w * (C_xyz . d) by two dot products; only
    higher levels need the powers of B_i + w*d_i*t.
    """
    levels, tops = kernel
    X, Y, Z, w = line.base.ints
    dx, dy, dz = line.dir
    pows = []
    for c, d, top in zip((X, Y, Z), line.dir, tops or ()):
        lin = [c, w * d]
        cur = [[1]]
        for _ in range(top):
            cur.append(_pmul(cur[-1], lin) if d else [cur[-1][0] * c])
        pows.append(cur)
    out = []
    for lv in levels:
        if len(lv) == 4:
            cx, cy, cz, c0 = lv
            h = [cx * X + cy * Y + cz * Z + c0 * w, w * (cx * dx + cy * dy + cz * dz)]
        else:
            deg, form = lv
            h = [0] * (deg + 1)
            for a, b, c, k, C in form:
                Cw = C * w**k
                prod = pows[0][a]
                if b:  # a zero exponent's power is [1]
                    prod = _pmul(prod, pows[1][b])
                if c:
                    prod = _pmul(prod, pows[2][c])
                for i, v in enumerate(prod):
                    h[i] += Cw * v
        while h and h[-1] == 0:
            h.pop()
        out.append(h)
    return out


def line_in_zero_set(form, line: RationalLine) -> bool:
    """Whether the level whose `_form` is given vanishes on the whole line:
    its integer restriction (`_restrict`) is zero.  The `Fraction`
    reference is `algebra.line_in_zero_set`."""
    return not _restrict(_prepare([form]), line)[0]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Remainder of |lc(b)|^k * a by b for some k >= 0, on ints."""
    m = abs(b[-1])
    s = 1 if b[-1] > 0 else -1
    db = len(b) - 1
    r = list(a)
    while len(r) > db:
        f = s * r[-1]
        k = len(r) - 1 - db
        r = [m * x for x in r]
        for j in range(db):
            r[k + j] -= f * b[j]
        r.pop()  # m * lc(r) - f * lc(b) = 0
        while r and r[-1] == 0:
            r.pop()
    return r


def _primitive(p: list[int]) -> list[int]:
    # not `geom.primitive`: a Sturm chain must keep each element's sign
    g = math.gcd(*p)
    return [c // g for c in p]


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm chain of a nonconstant p by primitive pseudo-remainders.

    Each remainder uses the positive multiplier |lc|^k and has its content
    divided out, so every element is a positive multiple of the Euclidean
    Sturm chain's element and sign variations are unchanged.  For a
    non-squarefree p the chain ends in gcd(p, p'), which divides every
    element: away from the roots of p, dividing it out changes no sign
    variation and leaves a Sturm chain of the squarefree part, so
    V(-inf) - V(+inf) still counts the distinct real roots.
    """
    p = _primitive(p)
    chain = [p, _primitive([k * c for k, c in enumerate(p)][1:])]
    while True:
        r = _prem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append([-c for c in _primitive(r)])


def _changes(signs) -> int:
    signs = [s for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _count_roots(p: list[int]) -> int:
    """Distinct real roots of a nonzero p: V(-inf) - V(+inf) from leading
    signs, or for a quadratic c + b*t + a*t^2 from the sign of b^2 - 4ac."""
    if len(p) == 1:
        return 0
    if len(p) == 3:  # a lone quadratic: the sign of its discriminant
        c, b, a = p
        disc = b * b - 4 * a * c
        return 2 if disc > 0 else 1 if disc == 0 else 0
    chain = _sturm_chain(p)
    plus = [1 if q[-1] > 0 else -1 for q in chain]
    minus = [s if len(q) % 2 else -s for s, q in zip(plus, chain)]
    return _changes(minus) - _changes(plus)


def _sign_at(p: list[int], num: int, den: int) -> int:
    """Sign of p(num/den), den > 0, from sum c_i * num^i * den^(deg-i)."""
    acc = p[-1]
    pw = 1
    for c in reversed(p[:-1]):
        pw *= den
        acc = acc * num + c * pw
    return (acc > 0) - (acc < 0)


def _exact_quo(p: list[int], g: list[int]) -> list[int]:
    """p / g for a primitive g dividing p; integral by Gauss's lemma."""
    r = list(p)
    q = [0] * (len(p) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(g) - 1] // g[-1]
        for j, c in enumerate(g):
            r[k + j] -= q[k] * c
    assert not any(r), "divisor does not divide"
    return q


def _gap_samples(p: list[int]) -> list[tuple[int, int]]:
    """One (num, den), den > 0, inside each maximal open interval where
    p != 0, in order.

    Sturm counts steer a bisection on dyadic num/den, so every sample is
    certified to avoid the roots exactly.  The chain must be evaluated at
    roots of p, where a non-squarefree chain vanishes entirely, so p is
    replaced by its squarefree part when the chain ends in a nonconstant gcd.
    """
    if len(p) == 1:
        return [(0, 1)]
    chain = _sturm_chain(p)
    if len(chain[-1]) > 1:
        chain = _sturm_chain(_exact_quo(chain[0], chain[-1]))
    sf = chain[0]

    def below(num: int, den: int) -> int:  # sign variations at num/den
        return _changes(_sign_at(q, num, den) for q in chain)

    # beyond the Cauchy bound 1 + max|c_i| / |lc|
    hi = 2 + max(abs(c) for c in sf[:-1]) // abs(sf[-1])
    v_lo = below(-hi, 1)
    k = v_lo - below(hi, 1)
    samples = [(-hi, 1)]
    for i in range(1, k):
        a, b, den = -hi, hi, 1  # the i-th gap meets (a/den, b/den)
        while True:
            mid = a + b  # their midpoint is mid/(2*den)
            den *= 2
            c = v_lo - below(mid, den)
            if c == i and _sign_at(sf, mid, den):
                samples.append((mid, den))
                break
            # the half that meets the gap; at c == i, mid is exactly the
            # i-th root and the gap lies to its right
            a, b = (2 * a, mid) if c > i else (mid, 2 * b)
    return samples + [(hi, 1)] if k else samples


def _product(hs: list[list[int]]) -> list[int]:
    return reduce(_pmul, hs, [1])


def _linear_roots(hs: list[list[int]]) -> set[tuple[int, int]]:
    """The exact roots -h0/h1 of the linear restrictions, without repeats, as
    (num, den) in lowest terms with den > 0."""
    roots = set()
    for h in hs:
        if len(h) == 2:
            g = math.gcd(*h) if h[1] > 0 else -math.gcd(*h)
            roots.add((-h[0] // g, h[1] // g))
    return roots


def _linear_gap_samples(hs: list[list[int]]) -> list[tuple[int, int]]:
    """One (num, den), den > 0, inside each root gap of linear or constant
    restrictions: r_1 - 1, the midpoints of the sorted distinct roots
    r_1 < ... < r_k and r_k + 1, or just 0 when there is no root.  The roots
    sort by the exact integer key num * (L / den), L the lcm of the dens."""
    roots = _linear_roots(hs)
    if not roots:
        return [(0, 1)]
    L = math.lcm(*(den for _, den in roots))
    roots = sorted(roots, key=lambda r: r[0] * (L // r[1]))
    (n, d), (m, e) = roots[0], roots[-1]
    mids = [(a * f + c * b, 2 * b * f) for (a, b), (c, f) in zip(roots, roots[1:])]
    return [(n - d, d), *mids, (m + e, e)]


def classify_lines(
    part: PartitionPoly, lines: Sequence[RationalLine]
) -> LineClassification:
    """Split lines into those inside Z(f) and those crossing it.

    Each level is restricted to each line once, on ints, through the
    partition's prepared kernel (`_restrict`), and f is never expanded: a
    line lies in Z(f) when some level's restriction is zero.  The roots of
    f along a crossing line are the union of the levels' roots.  A linear
    restriction gives its root exactly, and a set of reduced (num, den)
    pairs drops the repeats (`_linear_roots`).  The product P of the
    nonlinear restrictions is counted by `_count_roots`: a quadratic by its
    discriminant, a higher degree by a primitive pseudo-remainder Sturm
    chain, which counts P's distinct roots even when P is not squarefree.
    A rational root counts again only where P does not vanish, so the count
    is `_count_roots(P)` plus those roots, and a line whose restrictions are
    all linear or constant builds no chain.  The count is certified to be at
    most deg f.
    """
    d = part.degree
    contained = []
    crossing = []
    for i, line in enumerate(lines):
        hs = _restrict(part._kernel, line)
        if not all(hs):
            contained.append(i)
            continue
        rational = _linear_roots(hs)
        nonlinear = [h for h in hs if len(h) > 2]
        if nonlinear:
            p = _product(nonlinear)
            roots = _count_roots(p) + sum(1 for r in rational if _sign_at(p, *r))
        else:
            roots = len(rational)
        if roots > d:
            raise AssertionError(
                f"root count {roots} exceeds degree {d}; restriction is broken"
            )
        crossing.append((i, roots))
    return LineClassification(contained=contained, crossing=crossing)


def _classify_lines_reference(
    part: PartitionPoly, lines: Sequence[RationalLine]
) -> LineClassification:
    """`classify_lines` on `Fraction` restrictions and `Fraction` Sturm
    chains: the reference that `incilab verify` checks the kernel against."""
    contained = []
    crossing = []
    levels = part.levels
    for i, line in enumerate(lines):
        on_line = reduce(
            lambda a, b: a * b,
            (restrict_to_line(g, line) for g in levels),
            UniPoly([1]),
        )
        if on_line.is_zero():
            contained.append(i)
        else:
            crossing.append((i, count_real_roots(on_line)))
    return LineClassification(contained=contained, crossing=crossing)


def _classes_crossed_reference(
    part: PartitionPoly, lines: Sequence[RationalLine]
) -> list[set[tuple[int, ...]]]:
    """`classes_crossed` of each line from `Fraction` restrictions, sampled
    by `sign_gap_samples` of their product: the reference that `incilab
    verify` checks the kernel against."""
    levels = part.levels
    out = []
    for line in lines:
        hs = [restrict_to_line(g, line) for g in levels]
        values = ([h.evaluate(s) for h in hs] for s in sign_gap_samples(reduce(mul, hs)))
        out.append({tuple((v > 0) - (v < 0) for v in vs) for vs in values})
    return out


def classes_crossed(
    part: PartitionPoly, line: RationalLine
) -> set[tuple[int, ...]]:
    """Full-sign classes met by a line not contained in Z(f).

    Sample parameters are taken strictly inside every root gap of the
    product of the levels' integer restrictions, so each sample sees a
    nonzero sign from every level; signs are read off the integer
    restrictions at num/den.  When every restriction is linear or constant,
    the samples come from the sorted exact roots (`_linear_gap_samples`)
    without a Sturm chain; otherwise `_gap_samples` bisects on the
    product's chain.
    """
    hs = _restrict(part._kernel, line)
    if not all(hs):
        raise ValueError("line lies inside the zero set")
    if all(len(h) <= 2 for h in hs):
        samples = _linear_gap_samples(hs)
    else:
        samples = _gap_samples(_product(hs))
    return {tuple(_sign_at(h, num, den) for h in hs) for num, den in samples}
