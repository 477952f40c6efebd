"""Exact incidence counting and structure detection for point/line sets.

A `Configuration` checks that its points and its lines are distinct when it
is built, so no function here checks it again.

Counting walks each line's lattice points.  Points and lines carry their
integer form (`geom`), so no point or line is cleared here; each point
(X, Y, Z)/q is hashed in its q-group.  A line meets a group only in the
integer points of a line with the same primitive direction, an arithmetic
progression that one Bezout vector locates; the walk steps it through the
group's bounding box and looks each step up in the hash.  A walk longer
than the group is replaced by testing the group's points, so no input costs
more than testing every point against every line.  The pairwise
`point_on_line` count stays as the `Fraction` reference that
`incilab verify` checks the tally against.

Coplanarity reads each line as integer Pluecker data: its stored base B
over w, primitive direction d and moment B x d.  The reciprocal products of
one line with all later lines come from one big-int linear combination of
packed columns (`_plane_buckets`).  The pairs inside a plane already
complete are masked out of that result before it is read, so no pair is
visited in Python unless it is coplanar and needs its key: the primitive
integer coefficients of its plane (`plane_key`).  No `Fraction` or plane
object is built per pair.  `coplanar_buckets` keeps every plane with all
its lines.  `max_coplanar_lines` wants only the richest plane, so it groups
the lines into classes by direction: the filter never reads a parallel
pair, and a plane of one class is found as collinear points in 2D and keyed
only when it can be the answer.  Per-pair `plane_key` and the pairwise
`plane_through_lines` bucketing stay as the references that the tests and
`incilab verify` check both against.  A `Quadric` decides its points and
lines on its integer form, with `algebra` as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from . import algebra
from ._linalg import nullspace
from .geom import (
    Rational3Point,
    RationalLine,
    RationalPlane,
    plane_through_lines,
    point_on_line,
    primitive_int_vector,
)
from .partition import form_value, line_in_zero_set


class InvalidConfigurationError(ValueError):
    pass


class DegeneracyError(ValueError):
    def __init__(self, message: str, dimension: int):
        super().__init__(message)
        self.dimension = dimension


@dataclass(eq=True)
class Configuration:
    """A finite set of distinct points and distinct lines, plus metadata.

    Building one with a repeated point or line raises
    InvalidConfigurationError naming both indexes."""

    points: tuple[Rational3Point, ...]
    lines: tuple[RationalLine, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = tuple(self.points)
        self.lines = tuple(self.lines)
        self.validate()

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        return len(self.lines)

    def validate(self) -> None:
        for kind, items in (("point", self.points), ("line", self.lines)):
            if len(set(items)) == len(items):
                continue
            # some item repeats: find the first repeat and name both indexes
            seen = {}
            for i, x in enumerate(items):
                if x in seen:
                    raise InvalidConfigurationError(
                        f"duplicate {kind} at indexes {seen[x]} and {i}: {x!r}"
                    )
                seen[x] = i


@dataclass
class IncidenceTally:
    total: int
    per_point: list[int]
    per_line: list[int]
    points_by_line: list[list[int]]

    @classmethod
    def of(cls, m: int, points_by_line: list[list[int]]) -> IncidenceTally:
        """The tally of m points whose incidences are `points_by_line`."""
        per_point = [0] * m
        for pl in points_by_line:
            for idx in pl:
                per_point[idx] += 1
        per_line = [len(pl) for pl in points_by_line]
        return cls(sum(per_line), per_point, per_line, points_by_line)


# -- lattice-walk counter ---------------------------------------------------


def _lattice_groups(points: Sequence[Rational3Point]):
    """The points grouped by q, their common denominator: per group
    (q, {(X, Y, Z): index}, lower corner, upper corner of the box)."""
    tables: dict[int, dict[tuple[int, int, int], int]] = {}
    for i, p in enumerate(points):
        x, y, z, q = p.ints
        tables.setdefault(q, {})[(x, y, z)] = i
    return [
        (q, table, tuple(map(min, zip(*table))), tuple(map(max, zip(*table))))
        for q, table in tables.items()
    ]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g and |g| = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return a, x0, y0


def _bezout(d: tuple[int, int, int]) -> tuple[int, int, int]:
    """An integer vector lam with lam . d = 1, for a primitive d."""
    g, a, b = _xgcd(d[0], d[1])
    g, c, e = _xgcd(g, d[2])
    # g is +-1 because d is primitive, so g * g = 1.
    return (g * c * a, g * c * b, g * e)


def _window(p0, d, lo, hi) -> tuple[int, int]:
    """Least and greatest k with lo <= p0 + k*d <= hi componentwise; the
    first exceeds the second when no k fits."""
    k_lo, k_hi = [], []
    for p, di, a, b in zip(p0, d, lo, hi):
        if di < 0:
            a, b = b, a
        if di:
            k_lo.append(-((p - a) // di))
            k_hi.append((b - p) // di)
        elif not a <= p <= b:
            return 1, 0
    return max(k_lo), min(k_hi)


def _points_on_line(line: RationalLine, groups) -> list[int]:
    """Ascending indexes of the grouped points that lie on the line."""
    bx, by, bz, w = line.base.ints
    d = dx, dy, dz = line.dir
    lx, ly, lz = _bezout(d)
    hits = []
    for q, table, lo, hi in groups:
        # The group's points on the line are the integer points q*B/w + u*d.
        # There u = s/w for an integer s, and dotting with lam gives
        # s = r mod w, so there are none unless q*B + r*d is divisible by w;
        # then they are P0 + k*d.
        cx, cy, cz = q * bx, q * by, q * bz
        r = -(lx * cx + ly * cy + lz * cz) % w
        cx, cy, cz = cx + r * dx, cy + r * dy, cz + r * dz
        if cx % w or cy % w or cz % w:
            continue
        p0 = (cx // w, cy // w, cz // w)
        k_lo, k_hi = _window(p0, d, lo, hi)
        if k_hi - k_lo < len(table):
            x, y, z = p0[0] + k_lo * dx, p0[1] + k_lo * dy, p0[2] + k_lo * dz
            for _ in range(k_hi - k_lo + 1):
                i = table.get((x, y, z))
                if i is not None:
                    hits.append(i)
                x, y, z = x + dx, y + dy, z + dz
        else:
            for (x, y, z), i in table.items():
                ux, uy, uz = x - p0[0], y - p0[1], z - p0[2]
                if uy * dz == uz * dy and uz * dx == ux * dz and ux * dy == uy * dx:
                    hits.append(i)
    hits.sort()
    return hits


def count_incidences(cfg: Configuration) -> IncidenceTally:
    """Exact incidence tally, found by walking each line's lattice points.

    The points are hashed per q by their integer form (X, Y, Z)/q.  A
    line meets group q only in the integer points of the line q*B/w + u*d;
    those are P0 + k*d, and one Bezout vector of d finds P0 or shows there
    is none.  The steps k are clipped to the group's bounding box, and the
    walk looks each step up in the group's hash.  When the box allows more
    steps than the group has points, the group's points are tested against
    the line instead, so no (line, group) pair costs more than testing the
    group's points one by one.
    """
    groups = _lattice_groups(cfg.points)
    points_by_line = [_points_on_line(l, groups) for l in cfg.lines]
    return IncidenceTally.of(cfg.m, points_by_line)


def _points_by_line_pairwise(cfg: Configuration) -> list[list[int]]:
    """Reference for `count_incidences`: one `point_on_line` per pair."""
    return [
        [i for i, p in enumerate(cfg.points) if point_on_line(p, l)]
        for l in cfg.lines
    ]


# -- richness and coplanarity -------------------------------------------------


def richness_histogram(tally: IncidenceTally) -> dict[int, int]:
    """Map richness r -> number of points lying on exactly r of the lines."""
    hist: dict[int, int] = {}
    for r in tally.per_point:
        hist[r] = hist.get(r, 0) + 1
    return hist


def plucker_reps(lines: Sequence[RationalLine]):
    """Per line (w, B, d, M): the base is B/w with B integer, d is the
    primitive direction and M = B x d, so the line's moment is M/w."""
    reps = []
    for l in lines:
        (bx, by, bz, w), (dx, dy, dz) = l.base.ints, l.dir
        moment = (by * dz - bz * dy, bz * dx - bx * dz, bx * dy - by * dx)
        reps.append((w, (bx, by, bz), l.dir, moment))
    return reps


def plane_key(ri, rj) -> tuple[int, int, int, int] | None:
    """`RationalPlane.coeffs` of the plane through two lines given by
    `plucker_reps`, or None when they are skew or identical."""
    wi, bi, di, mi = ri
    wj, bj, dj, mj = rj
    # Reciprocal product of the Pluecker coordinates, denominators cleared:
    # zero exactly when the lines meet or are parallel.
    if wi * (di[0] * mj[0] + di[1] * mj[1] + di[2] * mj[2]) + wj * (
        dj[0] * mi[0] + dj[1] * mi[1] + dj[2] * mi[2]
    ):
        return None
    v = dj
    if di == dj:
        # Parallel lines share their canonical direction, so the normal
        # leaves the offset between the bases; identical lines have none.
        v = (wi * bj[0] - wj * bi[0], wi * bj[1] - wj * bi[1], wi * bj[2] - wj * bi[2])
    n0 = di[1] * v[2] - di[2] * v[1]
    n1 = di[2] * v[0] - di[0] * v[2]
    n2 = di[0] * v[1] - di[1] * v[0]
    lead = n0 or n1 or n2
    if not lead:
        return None
    d = -(n0 * bi[0] + n1 * bi[1] + n2 * bi[2])
    a, b, c = wi * n0, wi * n1, wi * n2
    # `geom.primitive`, signed by the normal's first nonzero entry (wi > 0)
    g = math.gcd(a, b, c, d)
    if lead < 0:
        g = -g
    return (a // g, b // g, c // g, d // g)


def _aligned_matches(buf: bytes, pattern: bytes):
    """Ascending indexes k of the len(pattern)-byte fields of buf that equal
    pattern; `bytes.find` also matches across two fields, and those are skipped."""
    width = len(pattern)
    at = buf.find(pattern)
    while at >= 0:
        if at % width == 0:
            yield at // width
        at = buf.find(pattern, (at // width + 1) * width)


def _plane_buckets(reps, classes=()) -> dict[tuple, set[int]]:
    """Plane key -> member indexes, found by the packed filter below, for
    each plane that two lines of `plucker_reps` span, except that no pair
    inside one of `classes` (lists of ascending indexes) is read.

    The skew pairs are filtered out with big-int arithmetic.  With
    u_i = (w_i*d_i, M_i) and v_j = (M_j, w_j*d_j), u_i . v_j is `plane_key`'s
    reciprocal product, so |u_i . v_j| <= 6*A^2 for A the largest |entry|.
    Each of v's six columns is packed into one big int of F-bit signed
    fields, line j at field n-1-j; F is the bit length of 6*A^2 plus a sign
    bit, rounded up to whole bytes.  For line i, the lines after it are the
    low cnt = n-1-i fields, so with R = 2^(F*cnt) the sum over k of
    u_i[k] * (V_k mod R), plus the bias 2^(F-1) in every field, reduced mod
    R, has field j equal to u_i . v_j + 2^(F-1).  Every such value lies in
    [0, 2^F), so the digits are exact; a signed column is reduced mod R,
    never right-shifted, because a floor shift borrows from the field below.
    The zero pairs are the fields equal to 2^(F-1), found by `bytes.find` on
    the big-endian bytes at field-aligned offsets, in ascending j.

    A pair is skipped inside the filter when its two lines share a cover
    mask, bit 0 set in field n-1-x of each line x it covers.  Each class is
    one cover from the start.  When line i creates a key, the bucket gains
    the later lines of i's class that lie in the plane, one integer dot
    product each; if it then holds at least 3 lines, its members become a
    cover too.  Before line i's fields are read, the covers holding it are
    OR'd in.  A covered field of a coplanar pair holds exactly 2^(F-1), so
    it becomes 2^(F-1)+1 and no longer matches; an OR cannot carry, so a
    field covered by several masks reads 2^(F-1)+1 as well.  Every match
    thus reaches `plane_key`.  Two distinct lines in one recorded plane span
    exactly that plane, and identical lines span none, so a pair covered by
    a plane would add nothing and create no key.  A plane of k distinct
    lines thus costs k-1 `plane_key` calls, one fewer for each line of its
    first line's class.  A mask is freed once the scan has passed the line
    it was recorded for.
    """
    n = len(reps)
    buckets: dict[tuple[int, int, int, int], set[int]] = {}
    if n < 2:
        return buckets
    us = [(w * d[0], w * d[1], w * d[2], *m) for w, _b, d, m in reps]
    top = max(abs(c) for u in us for c in u)
    width = ((6 * top * top).bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "big")
    bias = int.from_bytes(zero * n, "big")
    # column k of v holds v_j[k] = u_j[(k + 3) % 6] as signed fields: the
    # biased fields are joined as bytes, then the bias is taken off
    cols = []
    for k in range(6):
        raw = b"".join((u[(k + 3) % 6] + half).to_bytes(width, "big") for u in us)
        cols.append(int.from_bytes(raw, "big") - bias)
    # covers[x]: the cover masks that hold line x
    covers: list[list[int]] = [[] for _ in range(n)]

    def add_cover(members):
        bits = sum(1 << 8 * width * (n - 1 - x) for x in members)
        for x in members:
            covers[x].append(bits)

    for members in classes:
        add_cover(members)
    mates = {x: members for members in classes for x in members}
    for i in range(n - 1):
        cnt = n - 1 - i
        mask = (1 << 8 * width * cnt) - 1
        c0, c1, c2, c3, c4, c5 = cols = [c & mask for c in cols]
        u0, u1, u2, u3, u4, u5 = us[i]
        acc = u0 * c0 + u1 * c1 + u2 * c2 + u3 * c3 + u4 * c4 + u5 * c5
        acc = (acc + (bias & mask)) & mask
        for cover in covers[i]:
            acc |= cover & mask
        created = []
        for k in _aligned_matches(acc.to_bytes(width * cnt, "big"), zero):
            j = i + 1 + k
            key = plane_key(reps[i], reps[j])
            if key is None:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = bucket = {i, j}
                created.append(key)
                a, b, c, e = key
                for x in mates.get(i, ()):
                    w, (bx, by, bz), _d, _m = reps[x]
                    if x > i and a * bx + b * by + c * bz + e * w == 0:
                        bucket.add(x)
            else:
                bucket.update((i, j))
        for key in created:
            if len(buckets[key]) >= 3:
                add_cover(buckets[key])
        covers[i].clear()
    return buckets


def coplanar_buckets(lines: Sequence[RationalLine]) -> dict[tuple, set[int]]:
    """Plane key -> indexes of all input lines in that plane, for each plane
    spanned by two lines, keyed on integer Pluecker data (`plane_key`) in the
    order of each plane's first pair (i, j), i < j, lexicographically.  Every
    coplanar pair goes through the packed filter of `_plane_buckets`."""
    return _plane_buckets(plucker_reps(lines))


def _richest_parallel_plane(reps, members, best):
    """The larger of best and (size, key) for each plane that holds only
    lines of `members`, which share one direction d; (size, key) pairs are
    compared as tuples, so a tie goes to the larger key.

    Three parallel lines are coplanar exactly when their feet are collinear
    in the plane through the origin where d's pivot coordinate is 0, since
    the canonical base lies there.  Each foot's two other coordinates over
    the lcm of the members' w are integer points; repeated lines share a
    point and count once each.  The points are sorted, so the offset from a
    point to each later one has a positive first nonzero entry, and dividing
    it by its gcd gives one key for a direction and its negative.  For each
    point, the later points are grouped by that key: a group and the
    point's own copies are the lines of one plane, and the largest group
    gives the richest plane through the point.  Only a group that reaches
    best is keyed, through its first line.
    """
    d = reps[members[0]][2]
    p, q = (1, 2) if d[0] else ((0, 2) if d[1] else (0, 1))
    lcm = math.lcm(*(reps[x][0] for x in members))
    feet: dict[tuple[int, int], list[int]] = {}  # point -> [copies, a line]
    for x in members:
        w, base, _d, _m = reps[x]
        point = (base[p] * (lcm // w), base[q] * (lcm // w))
        entry = feet.get(point)
        if entry is None:
            feet[point] = [1, x]
        else:
            entry[0] += 1
    points = sorted(feet.items())
    for t in range(len(points) - 1):
        (ax, ay), (here, anchor) = points[t]
        sizes: dict[tuple[int, int], int] = {}
        get = sizes.get
        for (bx, by), (cnt, _x) in points[t + 1 :]:
            g = math.gcd(bx - ax, by - ay)
            key = ((bx - ax) // g, (by - ay) // g)
            sizes[key] = get(key, here) + cnt
        size = max(sizes.values())
        if size < best[0]:
            continue
        for (bx, by), (_cnt, x) in points[t + 1 :]:
            g = math.gcd(bx - ax, by - ay)
            # pop: each group is keyed once, at its first line
            if sizes.pop(((bx - ax) // g, (by - ay) // g), 0) == size:
                best = max(best, (size, plane_key(reps[anchor], reps[x])))
    return best


def max_coplanar_lines(
    lines: Sequence[RationalLine],
) -> tuple[int, RationalPlane | None]:
    """Largest number of input lines lying in one plane, with a witness.

    Returns (0, None) for no lines and (1, None) when no two lines are
    coplanar.  The witness is the plane of the largest coefficient tuple
    among the planes of that size.  The lines are grouped into classes by
    their canonical direction.  A plane that holds two lines of different
    classes comes from `_plane_buckets` with each class as a cover, so no
    parallel pair is read.  A plane that holds lines of one class only is
    found in 2D by `_richest_parallel_plane`, and only a class with at least
    as many lines as the best plane so far is searched.  Only the witness
    becomes a plane.
    """
    if not lines:
        return 0, None
    by_dir: dict[tuple[int, int, int], list[int]] = {}
    for x, line in enumerate(lines):
        by_dir.setdefault(line.dir, []).append(x)
    reps = plucker_reps(lines)
    classes = [members for members in by_dir.values() if len(members) > 1]
    buckets = _plane_buckets(reps, classes)
    best = max(((len(v), key) for key, v in buckets.items()), default=(0, None))
    for members in classes:
        if len(members) >= best[0]:
            best = _richest_parallel_plane(reps, members, best)
    if best[1] is None:
        return 1, None
    return best[0], RationalPlane(*best[1])


def _max_coplanar_lines_pairwise(
    lines: Sequence[RationalLine],
) -> tuple[int, RationalPlane | None]:
    """Reference for `max_coplanar_lines`: one `plane_through_lines` per pair."""
    if not lines:
        return 0, None
    buckets: dict[RationalPlane, set[int]] = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            res = plane_through_lines(lines[i], lines[j])
            if isinstance(res, RationalPlane):
                buckets.setdefault(res, set()).update((i, j))
    if not buckets:
        return 1, None
    best = max(buckets.items(), key=lambda kv: (len(kv[1]), kv[0].coeffs))
    return len(best[1]), best[0]


# -- first-come-first-serve component assignment -----------------------------


@dataclass
class ComponentAssignment:
    point_comp: list[int | None]
    line_comp: list[int | None]
    within_incidences: list[int]
    cross_charges: int


def assign_to_components(
    points: Sequence[Rational3Point],
    lines: Sequence[RationalLine],
    comps: Sequence,
    points_by_line: Sequence[Sequence[int]],
) -> ComponentAssignment:
    """Assign each point/line to the first component containing it.

    A component is anything with `contains_point` and `contains_line`
    (planes, quadrics, the pipeline's surface components).  `points_by_line`
    is the incidence tally of `points` and `lines`.  Cross-charges count
    incidences (p, l) whose point is assigned to a component that l is not
    assigned to.  Together with the within-component incidences and the
    incidences at unassigned points this partitions every incidence of the
    input sets exactly once.
    """
    point_comp = [
        next((k for k, c in enumerate(comps) if c.contains_point(p)), None)
        for p in points
    ]
    line_comp = [
        next((k for k, c in enumerate(comps) if c.contains_line(l)), None)
        for l in lines
    ]
    within = [0] * len(comps)
    cross = 0
    for j, hits in enumerate(points_by_line):
        for i in hits:
            k = point_comp[i]
            if k is None:
                continue
            if line_comp[j] == k:
                within[k] += 1
            else:
                cross += 1
    return ComponentAssignment(
        point_comp=point_comp,
        line_comp=line_comp,
        within_incidences=within,
        cross_charges=cross,
    )


# -- reguli -------------------------------------------------------------------

MONOMIALS_DEG2 = (
    (2, 0, 0),
    (0, 2, 0),
    (0, 0, 2),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (0, 0, 0),
)


@dataclass(frozen=True)
class Quadric:
    """Degree-2 surface, stored as 10 coprime integer coefficients.

    Coefficient order follows MONOMIALS_DEG2; the first nonzero entry is
    positive.  `form` holds the terms (a, b, c, 2 - a - b - c, C) of its
    homogeneous integer form, on which points and lines are decided; `poly`
    is the `Fraction` reference.
    """

    coeffs: tuple[int, ...]
    form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) != 10 or not any(self.coeffs):
            raise ValueError("quadric needs 10 coefficients, not all zero")
        coeffs = primitive_int_vector(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        terms = ((*e, 2 - sum(e), C) for e, C in zip(MONOMIALS_DEG2, coeffs) if C)
        object.__setattr__(self, "form", tuple(terms))

    @property
    def poly(self) -> algebra.TriPoly:
        return algebra.TriPoly(
            {e: c for e, c in zip(MONOMIALS_DEG2, self.coeffs) if c}
        )

    def contains_point(self, p: Rational3Point) -> bool:
        return form_value(self.form, p.ints) == 0

    def contains_line(self, line: RationalLine) -> bool:
        return line_in_zero_set(self.form, line)


def regulus_through(l1: RationalLine, l2: RationalLine, l3: RationalLine) -> Quadric:
    """The unique quadric through three pairwise skew lines.

    A degree-2 polynomial vanishing at three distinct points of a line
    vanishes on the whole line, so nine interpolation conditions pin the
    quadric down.  Raises ValueError for non-skew inputs and
    DegeneracyError if the solution space dimension differs from 1.
    """
    trio = (l1, l2, l3)
    reps = plucker_reps(trio)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if trio[i] == trio[j] or plane_key(reps[i], reps[j]) is not None:
            raise ValueError(
                f"lines {i} and {j} are not skew; a regulus needs pairwise skew lines"
            )
    # rows at each line's points (B + t*w*d)/w, t = 0, 1, 2, times w^2 > 0
    rows = []
    for w, B, d, _ in reps:
        for t in (0, 1, 2):
            X, Y, Z = (p + t * w * e for p, e in zip(B, d))
            rows.append([X**a * Y**b * Z**c * w ** (2 - a - b - c) for a, b, c in MONOMIALS_DEG2])
    basis = nullspace(rows)
    if len(basis) != 1:
        raise DegeneracyError(
            f"quadric solution space has dimension {len(basis)}, expected 1",
            dimension=len(basis),
        )
    return Quadric(coeffs=basis[0])
