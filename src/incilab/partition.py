"""Space partitioning by a product of low-degree bisecting polynomials.

A partition of depth t is a sequence g_1..g_t where g_j splits every class
of points carved out by the signs of g_1..g_{j-1} into two sides of
near-equal size.  Points where some g_j vanishes migrate to the surface set
Z(f) of the product f = g_1 * ... * g_t.  Cells are the full-sign classes in
{-,+}^t; a line not inside Z(f) meets at most 1 + deg f of them, certified
per line by a real root count.

f is never expanded: Z(f) is the union of the levels' zero sets, and the
restriction of f to a line is the product of the levels' restrictions.

The bisector search is deterministic given the seed: candidate polynomials
are enumerated family by family (median planes and plane sweeps, slab
products, spheres, then lifted directions on which every class has the same
mean) and the first candidate within the slack wins, preferring candidates
that vanish on no input point.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from ._linalg import nullspace
from .algebra import (
    TriPoly,
    UniPoly,
    count_real_roots,
    # not called here; kept so the trace target partition.line_in_zero_set
    # in perfbench/tracing.py still resolves
    line_in_zero_set,
    primitive_normalize,
    restrict_to_line,
    sign_gap_samples,
)
from .geom import Rational3Point, RationalLine
from .qformat import qparse, qstr


class PartitionBudgetError(RuntimeError):
    """No candidate met the slack; best_slack is the smallest slack that
    would have admitted some candidate (None if nothing split at all)."""

    def __init__(self, message: str, best_slack: Fraction | None):
        super().__init__(message)
        self.best_slack = best_slack


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


@dataclass(frozen=True)
class PartitionPoly:
    levels: tuple[TriPoly, ...]
    epsilon: Fraction
    seed: int

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a partition needs at least one level")
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))

    @property
    def t(self) -> int:
        return len(self.levels)

    @property
    def degree(self) -> int:
        return sum(g.degree for g in self.levels)

    @classmethod
    def from_levels(cls, levels: Iterable[TriPoly], epsilon=Fraction(1, 10), seed=0):
        """Wrap explicit level polynomials (testing seam; caps not enforced)."""
        lv = tuple(primitive_normalize(g) for g in levels)
        for g in lv:
            if g.is_zero():
                raise ValueError("level polynomial must be nonzero")
        return cls(levels=lv, epsilon=Fraction(epsilon), seed=seed)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "eps": qstr(self.epsilon),
            "seed": self.seed,
            "D": self.degree,
            "levels": [g.to_records() for g in self.levels],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PartitionPoly":
        levels = tuple(TriPoly.from_records(r) for r in data["levels"])
        return cls(levels=levels, epsilon=qparse(data["eps"]), seed=int(data["seed"]))


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


def _window_from_values(values: list[Fraction], q: int):
    # both open sides <= q forces the threshold into a closed order-statistic window
    sz = len(values)
    lo = values[sz - 1 - q] if sz - 1 - q >= 0 else None
    hi = values[q] if q < sz else None
    return lo, hi


def _zero_free_pick(all_values: list[Fraction], lo: Fraction, hi: Fraction):
    """A threshold in [lo, hi] equal to no listed value, or None."""
    inside = sorted({v for v in all_values if lo <= v <= hi})
    if not inside:
        return (lo + hi) / 2
    if lo < inside[0]:
        return (lo + inside[0]) / 2
    for a, b in zip(inside, inside[1:]):
        if a < b:
            return (a + b) / 2
    if inside[-1] < hi:
        return (inside[-1] + hi) / 2
    return None


def _threshold_candidates(values_by_class, qs, all_values):
    """Thresholds splitting every class within its cap: zero-free first."""
    lo = None
    hi = None
    for values, q in zip(values_by_class, qs):
        a, b = _window_from_values(values, q)
        if a is not None:
            lo = a if lo is None else max(lo, a)
        if b is not None:
            hi = b if hi is None else min(hi, b)
    if lo is None or hi is None or lo > hi:
        return []
    out = []
    free = _zero_free_pick(all_values, lo, hi)
    if free is not None:
        out.append(free)
    out.append((lo + hi) / 2)
    return out


def _functional_poly_plane(u) -> TriPoly:
    return (
        TriPoly.variable(0) * u[0]
        + TriPoly.variable(1) * u[1]
        + TriPoly.variable(2) * u[2]
    )


def _sphere_poly(center) -> TriPoly:
    acc = TriPoly.zero()
    for axis, o in enumerate(center):
        v = TriPoly.variable(axis) - TriPoly.constant(o)
        acc = acc + v * v
    return acc


class _Search:
    """One level's candidate enumeration over the current classes."""

    def __init__(self, coords, classes, cap, epsilon, rng):
        self.coords = coords
        self.classes = [list(c) for c in classes if c]
        self.cap = cap
        self.eps = Fraction(epsilon)
        self.rng = rng
        self.qs = _side_caps(self.classes, self.eps)
        # zero-free is impossible for a class whose cap leaves fewer than
        # sz slots across both sides
        self.forced_zeros = sum(
            max(0, len(c) - 2 * q) for c, q in zip(self.classes, self.qs)
        )
        self.best_meeting: tuple[int, int, TriPoly] | None = None
        self.best_slack: Fraction | None = None
        self.order = 0

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

    def grade(self, g: TriPoly) -> TriPoly | None:
        """Score candidate g; return it if it is an immediate winner."""
        self.order += 1
        zeros = 0
        worst = Fraction(0)
        ok = True
        for cls_, q in zip(self.classes, self.qs):
            pos = neg = 0
            for i in cls_:
                x, y, z = self.coords[i]
                v = g.evaluate(x, y, z)
                if v > 0:
                    pos += 1
                elif v < 0:
                    neg += 1
                else:
                    zeros += 1
            if pos > q or neg > q:
                ok = False
            need = Fraction(max(pos, neg), len(cls_)) - Fraction(1, 2)
            if need > worst:
                worst = need
        if self.best_slack is None or worst < self.best_slack:
            self.best_slack = worst
        if not ok:
            return None
        if zeros <= self.forced_zeros:
            return g
        if self.best_meeting is None or (zeros, self.order) < self.best_meeting[:2]:
            self.best_meeting = (zeros, self.order, g)
        return None

    def run(self) -> TriPoly:
        fams = (
            self._planes,
            self._slabs,
            self._spheres,
            self._balanced,
        )
        for fam in fams:
            for g in fam():
                win = self.grade(g)
                if win is not None:
                    return win
        if self.best_meeting is not None:
            return self.best_meeting[2]
        raise PartitionBudgetError(
            "no bisector met the slack at this level", self.best_slack
        )

    # family: planes u.x = c (covers the axis median fallback: axes first)
    def _planes(self):
        for u in self.directions():
            values_by_class = [
                sorted(
                    u[0] * self.coords[i][0]
                    + u[1] * self.coords[i][1]
                    + u[2] * self.coords[i][2]
                    for i in cls_
                )
                for cls_ in self.classes
            ]
            all_values = [v for vs in values_by_class for v in vs]
            for c in _threshold_candidates(values_by_class, self.qs, all_values):
                yield _functional_poly_plane(u) - TriPoly.constant(c)

    # family: products of two parallel planes (u.x - c1)(u.x - c2)
    def _slabs(self):
        if self.cap < 2:
            return
        for u in self.directions():
            values_by_class = [
                sorted(
                    u[0] * self.coords[i][0]
                    + u[1] * self.coords[i][1]
                    + u[2] * self.coords[i][2]
                    for i in cls_
                )
                for cls_ in self.classes
            ]
            distinct = sorted({v for vs in values_by_class for v in vs})
            gaps = [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
            if len(gaps) > 12:
                step = len(gaps) / 12
                gaps = [gaps[int(k * step)] for k in range(12)]
            for c1 in gaps:
                got = self._slab_second_cut(values_by_class, c1)
                if got is None:
                    continue
                lin = _functional_poly_plane(u)
                yield (lin - TriPoly.constant(c1)) * (lin - TriPoly.constant(got))

    def _slab_second_cut(self, values_by_class, c1):
        lo = None
        hi = None
        all_inside = []
        for values, q in zip(values_by_class, self.qs):
            sz = len(values)
            a = bisect.bisect_left(values, c1)  # strictly left of c1
            z1 = bisect.bisect_right(values, c1) - a
            if a > q:
                return None
            # outside count a + #(v > c2) <= q
            spare = q - a
            idx = sz - 1 - spare
            if idx >= 0:
                lo = values[idx] if lo is None else max(lo, values[idx])
            # inside count #(c1 < v < c2) <= q
            idx = q + a + z1
            if idx < sz:
                hi = values[idx] if hi is None else min(hi, values[idx])
            all_inside.extend(values)
        if lo is not None and lo <= c1:
            lo = None
        if hi is not None and hi <= c1:
            return None
        if lo is None and hi is None:
            return None
        if lo is None:
            lo = c1 + Fraction(1)
            lo = min(lo, hi)
        if hi is None:
            hi = lo + Fraction(1)
        if lo > hi:
            return None
        pick = _zero_free_pick(all_inside, lo, hi)
        return pick if pick is not None else (lo + hi) / 2

    # family: spheres |x - o|^2 = c around medians and seeded centers
    def _spheres(self):
        if self.cap < 2:
            return
        centers = []
        flat = [i for cls_ in self.classes for i in cls_]
        med = tuple(
            sorted(self.coords[i][axis] for i in flat)[len(flat) // 2]
            for axis in range(3)
        )
        centers.append(med)
        for _ in range(4):
            centers.append(
                tuple(m + Fraction(self.rng.randint(-7, 7), 3) for m in med)
            )
        for o in centers:
            values_by_class = [
                sorted(
                    sum((self.coords[i][axis] - o[axis]) ** 2 for axis in range(3))
                    for i in cls_
                )
                for cls_ in self.classes
            ]
            all_values = [v for vs in values_by_class for v in vs]
            for c in _threshold_candidates(values_by_class, self.qs, all_values):
                yield _sphere_poly(o) - TriPoly.constant(c)

    # family: lifted directions whose class means are equal by construction
    # (nullspace of centroid differences), so one constant term can sit in
    # every class's quantile window at once
    def _balanced(self):
        if self.cap < 2 or len(self.classes) < 2:
            return
        d = self.cap
        exps = sorted(
            (i, j, k)
            for i in range(d + 1)
            for j in range(d + 1 - i)
            for k in range(d + 1 - i - j)
            if (i, j, k) != (0, 0, 0)
        )
        lifted = {}
        for cls_ in self.classes:
            for i in cls_:
                x, y, z = self.coords[i]
                lifted[i] = [x**a * y**b * z**c for a, b, c in exps]
        cents = []
        for cls_ in self.classes:
            n = len(cls_)
            cents.append(
                [sum(lifted[i][k] for i in cls_) / n for k in range(len(exps))]
            )
        rows = [
            [cj - c0 for cj, c0 in zip(cent, cents[0])] for cent in cents[1:]
        ]
        basis = nullspace(rows)[:8]
        if not basis:
            return
        vals = [
            {i: sum(b * m for b, m in zip(vec, lifted[i])) for i in lifted}
            for vec in basis
        ]
        plan = [((k,), (1,)) for k in range(len(basis))]
        for _ in range(24):
            take = tuple(
                self.rng.sample(range(len(basis)), min(2, len(basis)))
            )
            coeffs = tuple(self.rng.randint(-3, 3) for _ in take)
            if any(coeffs):
                plan.append((take, coeffs))
        for take, coeffs in plan:
            combo = {
                i: sum(c * vals[b][i] for b, c in zip(take, coeffs))
                for i in lifted
            }
            values_by_class = [
                sorted(combo[i] for i in cls_) for cls_ in self.classes
            ]
            all_values = [v for vs in values_by_class for v in vs]
            thresholds = _threshold_candidates(
                values_by_class, self.qs, all_values
            )
            if not thresholds:
                continue
            terms: dict[tuple[int, int, int], Fraction] = {}
            for b, c in zip(take, coeffs):
                for e, coef in zip(exps, basis[b]):
                    if c and coef:
                        terms[e] = terms.get(e, Fraction(0)) + c * coef
            terms = {e: v for e, v in terms.items() if v != 0}
            if not terms:
                continue
            shape = TriPoly(terms)
            for cthr in thresholds:
                yield shape - TriPoly.constant(cthr)


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
    coords = [p.coords for p in points]
    classes: list[list[int]] = [list(range(len(points)))]
    levels: list[TriPoly] = []
    for j in range(1, t + 1):
        cap = level_degree_cap(j)
        rng = random.Random(seed * 1000003 + j)
        live = [c for c in classes if c]
        if not live:
            # everything already migrated to the surface; any admissible
            # polynomial works, keep the degree low
            levels.append(primitive_normalize(TriPoly.variable(0)))
            classes = []
            continue
        search = _Search(coords, live, cap, epsilon, rng)
        try:
            g = search.run()
        except PartitionBudgetError as err:
            raise PartitionBudgetError(
                f"level {j}: {err}", err.best_slack
            ) from None
        g = primitive_normalize(g)
        levels.append(g)
        nxt: list[list[int]] = []
        for cls_ in classes:
            posc: list[int] = []
            negc: list[int] = []
            for i in cls_:
                x, y, z = coords[i]
                v = g.evaluate(x, y, z)
                if v > 0:
                    posc.append(i)
                elif v < 0:
                    negc.append(i)
            nxt.append(negc)
            nxt.append(posc)
        classes = nxt
    return PartitionPoly(levels=tuple(levels), epsilon=epsilon, seed=seed)


# -- classification -----------------------------------------------------------


def sign_vector(part: PartitionPoly, point: Rational3Point) -> tuple[int, ...]:
    out = []
    for g in part.levels:
        v = g.evaluate_point(point)
        out.append(0 if v == 0 else (1 if v > 0 else -1))
    return tuple(out)


def cell_occupancy(
    part: PartitionPoly, points: Sequence[Rational3Point]
) -> tuple[dict[tuple[int, ...], int], int]:
    """Counts per full-sign class, plus the count of on-surface points."""
    cells: dict[tuple[int, ...], int] = {}
    surface = 0
    for p in points:
        sv = sign_vector(part, p)
        if 0 in sv:
            surface += 1
        else:
            cells[sv] = cells.get(sv, 0) + 1
    return cells, surface


def classify_points(
    part: PartitionPoly, points: Sequence[Rational3Point]
) -> tuple[list[int], list[int]]:
    """Indexes of points on Z(f) and of points in open cells."""
    on_surface = []
    in_cells = []
    for i, p in enumerate(points):
        if 0 in sign_vector(part, p):
            on_surface.append(i)
        else:
            in_cells.append(i)
    return on_surface, in_cells


@dataclass
class LineClassification:
    contained: list[int]
    crossing: list[tuple[int, int]]  # (line index, distinct real root count)

    @property
    def max_roots(self) -> int:
        return max((r for _, r in self.crossing), default=0)


def _restrict_levels(
    part: PartitionPoly, line: RationalLine
) -> tuple[list[UniPoly], UniPoly]:
    """Each level restricted to the line, and the restriction of f.

    Restricting to a line is a ring homomorphism, so the restriction of f
    is the product of the levels' restrictions; it is zero exactly when
    some level vanishes on the whole line.
    """
    restrictions = [restrict_to_line(g, line) for g in part.levels]
    return restrictions, reduce(lambda a, b: a * b, restrictions, UniPoly([1]))


def classify_lines(
    part: PartitionPoly, lines: Sequence[RationalLine]
) -> LineClassification:
    """Split lines into those inside Z(f) and those crossing it.

    Each level is restricted to each line once and f is never expanded: a
    line lies in Z(f) when some level's restriction is zero, and for each
    crossing line the number of distinct real roots of f along the line,
    counted on the product of the restrictions, is certified to be at most
    deg f.
    """
    d = part.degree
    contained = []
    crossing = []
    for i, line in enumerate(lines):
        _restrictions, on_line = _restrict_levels(part, line)
        if on_line.is_zero():
            contained.append(i)
            continue
        roots = count_real_roots(on_line)
        if roots > d:
            raise AssertionError(
                f"root count {roots} exceeds degree {d}; restriction is broken"
            )
        crossing.append((i, roots))
    return LineClassification(contained=contained, crossing=crossing)


def classes_crossed(
    part: PartitionPoly, line: RationalLine
) -> set[tuple[int, ...]]:
    """Full-sign classes met by a line not contained in Z(f).

    Sample parameters are taken strictly inside every root gap of f along
    the line, so each sample sees a nonzero sign from every level.
    """
    restrictions, on_line = _restrict_levels(part, line)
    if on_line.is_zero():
        raise ValueError("line lies inside the zero set")
    seen: set[tuple[int, ...]] = set()
    for tval in sign_gap_samples(on_line):
        sv = tuple(
            1 if r.evaluate(tval) > 0 else -1 if r.evaluate(tval) < 0 else 0
            for r in restrictions
        )
        if 0 not in sv:
            seen.add(sv)
    return seen
