"""Certified bisector-ladder partitions of rational point sets."""

import bisect
import itertools
import json
import math
import random
import re
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from incilab.algebra import TriPoly, X, Y, Z, primitive_normalize
from incilab._linalg import nullspace
from incilab.geom import Rational3Point, RationalLine
from incilab.partition import (
    _STRUCTURED_DIRS,
    PartitionBudgetError,
    PartitionPoly,
    _Search,
    _form,
    _homogenized,
    _scaled,
    _sign_vectors,
    _signs,
    _threshold_candidate,
    _window_pick,
    build_partition,
    cell_occupancy,
    classes_crossed,
    classify_lines,
    classify_points,
    degree_budget,
    form_value,
    level_degree_cap,
)

P = Rational3Point
L = RationalLine


def random_points(count, seed, spread=60):
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        seen.add(tuple(rng.randint(-spread, spread) for _ in range(3)))
    return [P(*c) for c in sorted(seen)]


def rational_points(count, seed, spread=60):
    """Distinct points whose coordinates have denominators 2-12."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        seen.add(
            tuple(Fraction(rng.randint(-spread, spread), rng.randint(2, 12)) for _ in range(3))
        )
    return [P(*c) for c in sorted(seen)]


# -- degree bookkeeping ----------------------------------------------------------


def test_level_degree_cap_values():
    # smallest d with C(d+3,3) - 1 >= 2^j
    assert [level_degree_cap(j) for j in range(1, 6)] == [1, 2, 2, 3, 4]
    for j in range(1, 201):
        d = level_degree_cap(j)
        assert math.comb(d + 3, 3) - 1 >= 2**j
        assert d == 1 or math.comb(d + 2, 3) - 1 < 2**j
    with pytest.raises(ValueError):
        level_degree_cap(0)


def test_degree_budget_is_partial_sum_of_caps():
    assert [degree_budget(t) for t in range(1, 5)] == [1, 3, 5, 8]


# -- construction on structured inputs ---------------------------------------------


def test_collinear_sixteen_points_split_exactly():
    pts = [P(i, 0, 0) for i in range(1, 17)]
    part = build_partition(pts, 2, Fraction(0), seed=0)
    g1, g2 = part.levels
    assert g1 == 2 * X - TriPoly.constant(17)  # median plane of 1..16
    # second level splits each half of 8 at its own median, 9/2 and 25/2
    assert g2 == (2 * X - TriPoly.constant(9)) * (2 * X - TriPoly.constant(25))
    occ, surface = cell_occupancy(part, pts)
    assert sorted(occ.values()) == [4, 4, 4, 4]
    assert surface == 0
    assert part.degree == 3 <= degree_budget(2)


def test_odd_count_median_puts_one_point_on_surface():
    pts = [P(i, 0, 0) for i in range(7)]
    part = build_partition(pts, 1, Fraction(0), seed=0)
    occ, surface = cell_occupancy(part, pts)
    assert sorted(occ.values()) == [3, 3]
    assert surface == 1


def test_structured_grid_gets_zero_free_cut():
    pts = [P(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    part = build_partition(pts, 1, Fraction(1, 10), seed=0)
    occ, surface = cell_occupancy(part, pts)
    assert surface == 0
    assert max(occ.values()) <= -(-27 * 6 // 10)  # ceil((1/2 + eps) m)


def test_build_partition_input_validation():
    pts = [P(0, 0, 0), P(1, 0, 0)]
    with pytest.raises(ValueError):
        build_partition([], 1)
    with pytest.raises(ValueError):
        build_partition(pts, 0)
    with pytest.raises(ValueError):
        build_partition(pts, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        build_partition(pts, 1, Fraction(-1, 10))


def test_budget_error_names_its_level():
    # at slack 0 the search finds no candidate for twelve points' level-3 classes
    msg = r"^level 3: no bisector met the slack at this level$"
    with pytest.raises(PartitionBudgetError, match=msg) as exc:
        build_partition(random_points(12, 0), 3, Fraction(0), seed=0)
    assert isinstance(exc.value, RuntimeError)


# -- certified properties over random inputs ----------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
def test_random_cloud_partition_is_certified(seed):
    pts = random_points(256, seed)
    t = 3
    part = build_partition(pts, t, Fraction(1, 10), seed=seed)
    assert part.degree <= degree_budget(t)
    occ, surface = cell_occupancy(part, pts)
    cap = 256
    for _ in range(t):
        cap = -(-cap * 6 // 10)  # ceil((1/2 + eps) * previous)
    assert max(occ.values(), default=0) <= cap
    # every counted point lands in exactly one bucket
    assert sum(occ.values()) + surface == 256

    rng = random.Random(seed + 99)
    lines = [
        L(P(*(rng.randint(-50, 50) for _ in range(3))), d)
        for d in [(1, 0, 0), (1, 1, 1), (2, -3, 5), (0, 1, -4)]
    ]
    lc = classify_lines(part, lines)
    assert lc.max_roots <= part.degree


def test_classify_points_matches_sign_vectors():
    pts = random_points(64, 5)
    part = build_partition(pts, 2, Fraction(1, 10), seed=5)
    on_surface, in_cells = classify_points(part, pts)
    assert sorted(on_surface + in_cells) == list(range(64))
    _assert_cells_are_sign_vectors(part, pts)


def _assert_cells_are_sign_vectors(part, pts):
    """classify_points and cell_occupancy equal what `_sign_vectors` gives,
    the occupancy in order of first appearance among the points."""
    svs = _sign_vectors(part, pts)
    assert classify_points(part, pts) == (
        [i for i, sv in enumerate(svs) if 0 in sv],
        [i for i, sv in enumerate(svs) if 0 not in sv],
    )
    want: dict = {}
    for sv in svs:
        if 0 not in sv:
            want[sv] = want.get(sv, 0) + 1
    occ, surface = cell_occupancy(part, pts)
    assert list(occ.items()) == list(want.items())
    assert surface == sum(1 for sv in svs if 0 in sv)


def test_build_records_each_points_cell():
    # planes win levels 1 and 2, a slab level 3, and level 4 is a balanced
    # cubic that vanishes at one point and whose lex-leading coefficient
    # build_partition makes positive, negating the search's signs
    pts = rational_points(40, 8)
    part = build_partition(pts, 4, Fraction(1, 10), seed=8)
    assert [g.degree for g in part.levels] == [1, 1, 2, 3]
    assert all(g == primitive_normalize(g) for g in part.levels)
    assert part._record[0] == tuple(pts)
    _assert_cells_are_sign_vectors(part, pts)
    assert cell_occupancy(part, pts)[1] == 1
    # other points, or the same points in another order, are evaluated
    for other in (pts[::-1], pts[5:], pts[:1], random_points(20, 8)):
        _assert_cells_are_sign_vectors(part, other)
    # equal points that are other objects read the record
    assert cell_occupancy(part, [P(*p.coords) for p in pts]) == cell_occupancy(part, pts)
    # a partition loaded from JSON has no record
    back = PartitionPoly.from_json_dict(part.to_json_dict())
    assert back == part and back._record is None
    _assert_cells_are_sign_vectors(back, pts)
    assert repr(back) == repr(part)


# Levels built by the Fraction-key search that the integer kernel replaced,
# on point sets whose common denominator L is far from 1: plane, slab and
# balanced winners, and a collinear set split by a slab at slack 0.
RECORDED = json.loads(
    (Path(__file__).with_name("rational_partitions.json")).read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "case", RECORDED, ids=[f"{c['kind']}-{c['count']}-t{c['t']}" for c in RECORDED]
)
def test_rational_point_sets_reproduce_recorded_levels(case):
    if case["kind"] == "random":
        pts = rational_points(case["count"], case["seed"])
    else:
        pts = [P(Fraction(i, 7), Fraction(i, 3), Fraction(1, 2)) for i in range(1, case["count"] + 1)]
    part = build_partition(pts, case["t"], Fraction(case["eps"]), seed=case["seed"])
    assert part.to_json_dict() == case["partition"]


def _first_slab_terms(keys, L):
    """The terms and zeros of the first slab of one class of 4 points whose
    x keys, in units of 1/L, are given: a slab of the x direction, which
    comes first, at its first gap.  The class's cap is 3."""
    pts = [(k, 0, 0, L) for k in keys]
    search = _Search(pts, L, [[0, 1, 2, 3]], 2, Fraction(1, 4), random.Random(0))
    assert search.qs == [3]
    terms, zeros, _ = next(search._slabs())
    return TriPoly(terms), zeros


def test_slab_window_open_side_spans_one_unit_of_x():
    # keys are u.X with X = 6x; one class of 4 with cap 3.  Cut c1 = 5 has
    # n = 1 key under it, so at most 3 + 1 keys may lie under c2 and 3 - 1
    # over it: nothing bounds c2 from above, and the window runs from the
    # key 10 to one unit of x (6 key units) past it.  Cuts are passed and
    # returned twice: 2 * 5 in, 2 * 13 out
    assert _threshold_candidate([[0, 10, 20, 30]], [3 + 1], [3 - 1], 6) == (26, 0)
    # the search's slab is 10/12 < x < 26/12
    assert _first_slab_terms([0, 10, 20, 30], 6) == ((12 * X - 10) * (12 * X - 26), 0)


def test_slab_window_counts_keys_left_of_a_half_integer_cut():
    # consecutive integer keys: c1 = 1/2 (passed as 1) has n = 1 key (0) on
    # its left, and the next key 1 = floor(c1) + 1 is inside the slab
    assert _threshold_candidate([[0, 1, 2, 3]], [3 + 1], [3 - 1], 1) == (3, 0)
    # c1 = 3/2 has n = 2 keys on its left
    assert _threshold_candidate([[0, 1, 2, 3]], [3 + 2], [3 - 2], 1) == (5, 0)
    # the search counts n itself: its slab is 1/2 < x < 3/2
    assert _first_slab_terms([0, 1, 2, 3], 1) == ((2 * X - 1) * (2 * X - 3), 0)


def test_window_pick_takes_one_threshold_per_window():
    # each threshold c comes back as the int 2c.  lo < hi: the midpoint of
    # lo and the next key above it, here another class's key, which meets
    # no key
    assert _window_pick([[0, 2, 7], [3, 9]], 2, 7) == (5, 0)
    # no key between lo and hi, as in a slab window one unit of x wide:
    # the midpoint of lo and hi
    assert _window_pick([[0, 2], [1, 2]], 2, 5) == (7, 0)
    assert _window_pick([[0, 2, 9]], 2, 4) == (6, 0)
    # lo == hi: lo itself, its zeros summed over every class
    assert _window_pick([[2, 2, 5], [1, 2], [0, 3]], 2, 2) == (4, 3)


@st.composite
def capped_classes(draw):
    """1-4 classes of sorted int keys with repeats, each with a cap below in
    [0, sz + 1] and a cap above in [0, sz - 1], and a span >= 0."""
    keys = st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(sorted)
    classes = draw(st.lists(keys, min_size=1, max_size=4))
    below = [draw(st.integers(0, len(vs) + 1)) for vs in classes]
    above = [draw(st.integers(0, len(vs) - 1)) for vs in classes]
    return classes, below, above, draw(st.integers(0, 4))


@settings(deadline=None, max_examples=300)
@given(capped_classes())
# no class caps the keys under c, so the window is open: span 0 keeps lo
@example(([[0, 1, 2, 3]], [4], [2], 0))
def test_threshold_candidate_matches_brute_force(case):
    classes, below, above, span = case

    def meets(c2):  # the caps at the threshold c2/2
        return all(
            sum(2 * v < c2 for v in vs) <= b and sum(2 * v > c2 for v in vs) <= a
            for vs, b, a in zip(classes, below, above)
        )

    def zeros(c2):
        return sum(2 * v == c2 for vs in classes for v in vs)

    # the keys are ints, so every threshold meets the keys as one of these
    # halves does: every key, every midpoint of two adjacent distinct keys,
    # and points past both ends (and up to span past the greatest key)
    least, most = min(map(min, classes)), max(map(max, classes))
    valid = [c2 for c2 in range(2 * least - 1, 2 * (most + span) + 2) if meets(c2)]
    got = _threshold_candidate(classes, below, above, span)
    assert (got is None) == (not valid)
    if got is None:
        return
    c2, z = got
    assert meets(c2) and z == zeros(c2)
    if all(b >= len(vs) for vs, b in zip(classes, below)):
        # open: the window ends span past its least threshold, a key
        valid = [v for v in valid if v <= valid[0] + 2 * span]
        assert c2 in valid
    assert z == min(map(zeros, valid))


def test_key_memo_keeps_structured_directions_until_balanced():
    pts = [(*c, 1) for c in sorted({(i % 5, i * i % 7, i % 3 - i) for i in range(40)})]
    classes = [list(range(0, len(pts), 2)), list(range(1, len(pts), 2))]
    search = _Search(pts, 1, classes, 2, Fraction(1, 10), random.Random(3))
    list(search._planes())
    assert set(search.key_memo) == set(_STRUCTURED_DIRS)
    kept = search.key_memo[(1, 1, 1)]
    list(search._slabs())
    assert set(search.key_memo) == set(_STRUCTURED_DIRS)
    assert search._keys((1, 1, 1)) is kept  # built once per level
    next(search._balanced())
    assert search.key_memo == {}


# The two-pick search, kept as the reference: each window yielded its
# zero-free pick, if any, and then its midpoint, counting the keys equal to it.


def _zero_free_pick(all_values, lo, hi):
    """A threshold in [lo, hi] equal to no listed value, or None."""
    inside = sorted({v for v in all_values if lo <= v <= hi})
    if not inside:
        return Fraction(lo + hi, 2)
    if lo < inside[0]:
        return Fraction(lo + inside[0], 2)
    for a, b in zip(inside, inside[1:]):
        if a < b:
            return Fraction(a + b, 2)
    if inside[-1] < hi:
        return Fraction(inside[-1] + hi, 2)
    return None


def _window_picks(all_values, lo, hi):
    free = _zero_free_pick(all_values, lo, hi)
    if free is not None:
        yield free, 0
    mid = Fraction(lo + hi, 2)
    yield mid, all_values.count(mid)


def _threshold_candidates(values_by_class, qs):
    lo = None
    hi = None
    for values, q in zip(values_by_class, qs):
        sz = len(values)
        if sz - 1 - q >= 0:
            lo = values[sz - 1 - q] if lo is None else max(lo, values[sz - 1 - q])
        if q < sz:
            hi = values[q] if hi is None else min(hi, values[q])
    if lo is None or hi is None or lo > hi:
        return []
    return list(_window_picks([v for vs in values_by_class for v in vs], lo, hi))


class _ReferenceSearch(_Search):
    """`_Search` with keys built point by point, `Fraction` thresholds, the
    slab cut's left count taken against the `Fraction` c1, as before the
    integer search, and the two-pick windows.  Each candidate is a
    `Fraction` `TriPoly` g built by polynomial arithmetic.  The balanced
    family reads `Fraction` values of the first 8 vectors of the full
    nullspace of the centroid differences.  Each candidate's signs are its
    form's signs at the class points."""

    def __init__(self, pts, *args):
        super().__init__(pts, *args)
        self.pts = pts

    def _evaluated(self, g):
        form = _form(g)
        return lambda: [_signs(form, [self.pts[i] for i in cls_]) for cls_ in self.classes]

    def _keys(self, u):
        return [
            sorted(
                u[0] * self.pts[i][0] + u[1] * self.pts[i][1] + u[2] * self.pts[i][2]
                for i in cls_
            )
            for cls_ in self.classes
        ]

    def _planes(self):
        for u in self.directions():
            for c, zeros in _threshold_candidates(self._keys(u), self.qs):
                g = X * u[0] + Y * u[1] + Z * u[2] - TriPoly.constant(Fraction(c, self.L))
                yield g, zeros, self._evaluated(g)

    def _slabs(self):
        if self.cap < 2:
            return
        for u in self.directions():
            values_by_class = self._keys(u)
            distinct = sorted({v for vs in values_by_class for v in vs})
            gaps = list(zip(distinct, distinct[1:]))
            if len(gaps) > 12:
                gaps = [gaps[k * len(gaps) // 12] for k in range(12)]
            for a, b in gaps:
                c1 = Fraction(a + b, 2)
                got = self._slab_second_cut(values_by_class, c1)
                if got is None:
                    continue
                c2, zeros = got
                lin = X * u[0] + Y * u[1] + Z * u[2]
                g = (lin - Fraction(c1, self.L)) * (lin - Fraction(c2, self.L))
                yield g, zeros, self._evaluated(g)

    def _slab_second_cut(self, values_by_class, c1):
        lo = None
        hi = None
        all_inside = []
        for values, q in zip(values_by_class, self.qs):
            sz = len(values)
            a = bisect.bisect_left(values, c1)
            if a > q:
                return None
            idx = sz - 1 - (q - a)
            lo = values[idx] if lo is None else max(lo, values[idx])
            idx = q + a
            if idx < sz:
                hi = values[idx] if hi is None else min(hi, values[idx])
            all_inside.extend(values)
        if hi is None:
            hi = lo + self.L
        if lo > hi:
            return None
        return next(_window_picks(all_inside, lo, hi))

    def _balanced(self):
        if self.cap < 2 or len(self.classes) < 2:
            return
        d = self.cap
        exps = [
            e for e in itertools.product(range(d + 1), repeat=3) if 0 < sum(e) <= d
        ]  # sorted, as product enumerates
        lifted = [
            [
                [Fraction(x, w) ** a * Fraction(y, w) ** b * Fraction(z, w) ** c for a, b, c in exps]
                for x, y, z, w in (self.pts[i] for i in cls_)
            ]
            for cls_ in self.classes
        ]
        means = [[sum(col) / len(ms) for col in zip(*ms)] for ms in lifted]
        basis = nullspace([[a - b for a, b in zip(m, means[0])] for m in means[1:]])[:8]
        if not basis:
            return
        plan = [((k,), (1,)) for k in range(len(basis))]
        for _ in range(24):
            take = tuple(self.rng.sample(range(len(basis)), min(2, len(basis))))
            coeffs = tuple(self.rng.randint(-3, 3) for _ in take)
            if any(coeffs):
                plan.append((take, coeffs))
        for take, coeffs in plan:
            vec = [sum(c * basis[b][i] for b, c in zip(take, coeffs)) for i in range(len(exps))]
            values_by_class = [sorted(sum(map(mul, vec, m)) for m in ms) for ms in lifted]
            thresholds = _threshold_candidates(values_by_class, self.qs)
            terms = {e: v for e, v in zip(exps, vec) if v != 0}
            if not thresholds or not terms:
                continue
            for c, zeros in thresholds:
                g = TriPoly(terms) - TriPoly.constant(c)
                yield g, zeros, self._evaluated(g)


def _pairs(stream):
    """The (g, zeros) of each candidate of a stream."""
    return [(g, zeros) for g, zeros, _ in stream]


def _assert_positive_multiples(fast, ref):
    """Each integer candidate of a stream is a positive multiple of the
    reference stream's `Fraction` g, with the same zeros."""
    assert len(fast) == len(ref)
    for (terms, zeros), (g, want) in zip(fast, ref):
        assert zeros == want
        assert all(type(C) is int for C in terms.values())
        gt = g.terms()
        assert terms.keys() == gt.keys()
        ratio = terms[max(gt)] / gt[max(gt)]
        assert ratio > 0 and all(terms[e] == ratio * C for e, C in gt.items())


def _drop_unread(stream):
    """A two-pick stream's (g, zeros) without each window's midpoint after
    its zero-free pick: `run` returns a candidate with 0 zeros, so it is
    never read."""
    out = []
    it = iter(_pairs(stream))
    for g, zeros in it:
        out.append((g, zeros))
        if zeros == 0:
            next(it)
    return out


search_coords = st.lists(
    st.tuples(*[st.integers(-5, 5)] * 3), min_size=1, max_size=14, unique=True
)
search_eps = st.fractions(0, Fraction(1, 2), max_denominator=12).filter(lambda e: e < Fraction(1, 2))


@settings(deadline=None, max_examples=120)
@given(
    search_coords,
    st.integers(1, 4),
    st.integers(1, 4),
    search_eps,
    st.integers(1, 3),
    st.lists(st.integers(0, 3), min_size=14, max_size=14),
    st.integers(0, 9),
)
# 16 single-point classes on a 4 x 4 grid in z = 0, cap 3: every monomial
# with z is a zero column, so the 8th free column is column 11 of 19, and
# the balanced family's basis, cut there, meets the reference's full one
@example([(x, y, 0) for x in range(4) for y in range(4)], 1, 16, Fraction(0), 3, list(range(16)), 0)
def test_integer_search_matches_reference_candidate_streams(coords, W, k, eps, cap, labels, seed):
    pts = [(*c, W) for c in coords]
    classes = [[i for i in range(len(pts)) if labels[i] % k == j] for j in range(k)]
    fast = _Search(pts, W, classes, cap, eps, random.Random(seed))
    ref = _ReferenceSearch(pts, W, classes, cap, eps, random.Random(seed))
    _assert_positive_multiples(_pairs(fast._planes()), _drop_unread(ref._planes()))
    _assert_positive_multiples(_pairs(fast._slabs()), _pairs(ref._slabs()))
    _assert_positive_multiples(_pairs(fast._balanced()), _drop_unread(ref._balanced()))
    # the same winner, with the signs its form has at the class points
    won = _Search(pts, W, classes, cap, eps, random.Random(seed)).run()
    want = _ReferenceSearch(pts, W, classes, cap, eps, random.Random(seed)).run()
    assert (won is None) == (want is None)
    if won is not None:
        _assert_positive_multiples([(won[0], 0)], [(want[0], 0)])
        assert won[1]() == want[1]()


@st.composite
def small_fraction(draw):
    """A value of st.fractions(-9, 9, max_denominator=6), drawn as an integer
    denominator and numerator, which costs a quarter of st.fractions' draw."""
    d = draw(st.integers(1, 6))
    return Fraction(draw(st.integers(-9 * d, 9 * d)), d)


small_triple = st.tuples(*[small_fraction()] * 3)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(small_triple, min_size=1, max_size=40, unique=True),
    st.integers(1, 4),
    search_eps,
    st.integers(0, 9),
    st.integers(0, 99),
    st.integers(1, 40),
)
# the median plane and then a slab take three of seven points at slack 0
@example([(Fraction(i, 2), Fraction(i, 3), Fraction(0)) for i in range(1, 8)], 2, Fraction(0), 0, 0, 40)
def test_recorded_cells_match_sign_vectors(coords, t, eps, seed, shuffle, keep):
    pts = [P(*c) for c in coords]
    assume(_scaled(pts)[0] > 1)  # mixed denominators
    try:
        part = build_partition(pts, t, eps, seed)
    except PartitionBudgetError:
        return
    # the integer winners are made primitive by primitive_normalize's rule
    assert all(g == primitive_normalize(g) for g in part.levels)
    _assert_cells_are_sign_vectors(part, pts)
    _assert_cells_are_sign_vectors(PartitionPoly.from_json_dict(part.to_json_dict()), pts)
    # a reordered subset must not read the record
    other = list(pts)
    random.Random(shuffle).shuffle(other)
    _assert_cells_are_sign_vectors(part, other[:keep])


@settings(deadline=None, max_examples=120)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * 3).filter(lambda e: sum(e) <= 4),
        st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)).filter(bool),
        min_size=1,
        max_size=10,
    ),
    st.lists(small_triple, min_size=1, max_size=8),
    st.integers(0, 7),
    st.integers(1, 5),
)
def test_sign_kernel_and_form_value_match_evaluate(terms, coords, on, mult):
    pts = [Rational3Point(*c) for c in coords]
    g = TriPoly(terms)
    g -= TriPoly.constant(g.evaluate_point(pts[on % len(pts)]))  # vanish at one point
    assume(not g.is_zero())
    form = _form(g)
    want = [(v > 0) - (v < 0) for v in (g.evaluate_point(p) for p in pts)]
    # the same point at any positive W, and at a negative W for zeros
    W = mult * math.lcm(*(c.denominator for p in coords for c in p))
    homog = [(*(c.numerator * (W // c.denominator) for c in p), W) for p in coords]
    assert _signs(form, homog) == want
    assert [(v > 0) - (v < 0) for v in (form_value(form, h) for h in homog)] == want
    assert [form_value(form, tuple(-c for c in h)) == 0 for h in homog] == [s == 0 for s in want]
    assert want[on % len(pts)] == 0


plane_terms = st.dictionaries(
    st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]),
    st.integers(-30, 30).filter(bool),
    min_size=1,
    max_size=4,
)


@settings(deadline=None, max_examples=200)
@given(
    plane_terms,
    st.lists(st.tuples(*[st.integers(-40, 40)] * 3), min_size=1, max_size=10),
    st.integers(1, 6),
    st.integers(0, 9),
)
def test_plane_signs_match_form_value(terms, coords, W, on):
    # every subset of x, y, z and the constant, at W = 1 and W > 1, with one
    # point moved onto the plane
    assume(set(terms) != {(0, 0, 0)})  # the constant alone is not a plane
    form = _form(TriPoly({e: Fraction(c) for e, c in terms.items()}))
    pts = [(*c, W) for c in coords]
    # slide the chosen point along its pivot axis i by -v/c_i, in homogeneous
    # coordinates scaled by |c_i| so that W stays positive
    i, c = next((e.index(1), C) for *e, C in form if sum(e[:3]) == 1)
    chosen = pts[on % len(pts)]
    v = form_value(form, chosen)
    sign = 1 if c > 0 else -1
    pts.append(tuple(sign * (c * u - (v if axis == i else 0)) for axis, u in enumerate(chosen)))
    assert form_value(form, pts[-1]) == 0 and pts[-1][3] > 0
    want = [(v > 0) - (v < 0) for v in (form_value(form, p) for p in pts)]
    assert _signs(form, pts) == want
    assert want[-1] == 0


def test_plane_signs_on_each_single_term():
    pts = [(2, -3, 5, 1), (0, 0, 0, 4), (-1, 7, -2, 3)]
    for e, want in [
        ((1, 0, 0), [1, 0, -1]),
        ((0, 1, 0), [-1, 0, 1]),
        ((0, 0, 1), [1, 0, -1]),
    ]:
        form = _form(TriPoly({e: Fraction(1)}))
        assert _signs(form, pts) == want
    # w only is a constant, of degree 0: its sign at every point
    assert _signs(_form(TriPoly({(0, 0, 0): Fraction(-5)})), pts) == [-1, -1, -1]
    # w next to x: the plane x + 5 = 0 at (X, Y, Z, W) is X + 5W
    form = _form(TriPoly({(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(5)}))
    assert _signs(form, pts) == [1, 1, 1]
    assert _signs(form, [(-10, 0, 0, 2), (-11, 0, 0, 2)]) == [0, -1]


@settings(deadline=None, max_examples=150)
@given(
    st.lists(small_triple, min_size=1, max_size=12),
    st.booleans(),
)
def test_scaled_matches_the_generic_scaling(coords, integral):
    points = [Rational3Point(*(math.floor(c) if integral else c for c in p)) for p in coords]
    L = math.lcm(*(p.ints[3] for p in points))
    want = [(*(c * (L // p.ints[3]) for c in p.ints[:3]), L) for p in points]
    assert _scaled(points) == (L, want)


def test_scaled_scales_mixed_denominators():
    points = [P(1, 2, 3), P(Fraction(1, 2), 0, 0), P(0, Fraction(2, 3), 1)]
    assert _scaled(points) == (6, [(6, 12, 18, 6), (3, 0, 0, 6), (0, 4, 6, 6)])
    assert _scaled(points[:1]) == (1, [(1, 2, 3, 1)])


@settings(deadline=None, max_examples=120)
@given(
    search_coords,
    st.integers(1, 4),
    st.integers(1, 4),
    search_eps,
    st.integers(1, 3),
    st.lists(st.integers(0, 3), min_size=14, max_size=14),
    st.integers(0, 9),
)
# single-point classes at slack 5/12 have cap 0: a window is one key, and the
# balanced values, equal in every class, meet in it with one zero per class
@example([(0, 0, 0), (1, 2, 3), (2, -1, 4)], 1, 3, Fraction(5, 12), 2, [0, 1, 2] + [0] * 11, 0)
def test_every_search_candidate_is_within_its_caps(coords, W, k, eps, cap, labels, seed):
    # the windows are the search's only certificate: evaluate every candidate
    # of every family and check each class's open sides and the zero count
    pts = [(*c, W) for c in coords]
    classes = [[i for i in range(len(pts)) if labels[i] % k == j] for j in range(k)]
    # and the signs each candidate carries are g's signs at the class points
    search = _Search(pts, W, classes, cap, eps, random.Random(seed))
    for family in (search._planes, search._slabs, search._balanced):
        for terms, zeros, carried in family():
            form = _form(TriPoly(terms))
            got = carried()
            assert len(got) == len(search.classes)
            vanish = 0
            for cls_, q, ss in zip(search.classes, search.qs, got):
                signs = _signs(form, [pts[i] for i in cls_])
                assert ss == signs
                assert signs.count(1) <= q and signs.count(-1) <= q
                vanish += signs.count(0)
            assert zeros == vanish


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 3),
    st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=1, max_size=12, unique=True),
    st.integers(1, 4),
    search_eps,
    st.data(),
)
def test_level_builds_terms_with_the_signs_of_any_vectors_values(d, coords, L, eps, data):
    # `_level` outside the three families: an arbitrary integer vector on
    # monomials of degree at most d, or a pencil qU + pV of two of them with
    # its values qU(x) + pV(x), checked against `form_value` of the terms
    monomial = st.tuples(*[st.integers(0, d)] * 3).filter(lambda e: 0 < sum(e) <= d)
    exps = sorted(data.draw(st.sets(monomial, min_size=1)))
    vector = st.lists(st.integers(-5, 5), min_size=len(exps), max_size=len(exps))
    parts = [(1, data.draw(vector))]
    if data.draw(st.booleans()):
        q, p = data.draw(st.integers(1, 4)), data.draw(st.integers(-4, 4))
        parts = [(q, parts[0][1]), (p, data.draw(vector))]
    vec = [sum(k * w[i] for k, w in parts) for i in range(len(exps))]
    assume(any(vec))
    pts = [(*c, L) for c in coords]
    labels = data.draw(st.lists(st.integers(0, 2), min_size=len(pts), max_size=len(pts)))
    classes = [[i for i, c in enumerate(labels) if c == j] for j in range(3)]
    search = _Search(pts, L, classes, d, eps, random.Random(0))

    def values(w):
        """L^d * w.m(x) at each class's search points X = L*x, in class order."""
        return [
            [
                sum(k * X**a * Y**b * Z**c * L ** (d - a - b - c) for k, (a, b, c) in zip(w, exps))
                for X, Y, Z, _ in P
            ]
            for P in search.class_pts
        ]

    vals = [
        [sum(k * v for (k, _), v in zip(parts, point)) for point in zip(*by_part)]
        for by_part in zip(*(values(w) for _, w in parts))
    ]
    # a threshold inside every window when there is one, else any threshold
    got = _threshold_candidate([sorted(vs) for vs in vals], search.qs, search.qs)
    c2, zeros = got if got is not None else (data.draw(st.integers(-99, 99)), None)
    terms, signs = search._level(exps, vec, d, vals, c2)
    form = _homogenized(terms)
    carried = signs()
    assert len(carried) == len(search.classes)
    for P, q, ss in zip(search.class_pts, search.qs, carried):
        assert ss == [_sign(form_value(form, pt)) for pt in P]
        if got is not None:
            assert ss.count(1) <= q and ss.count(-1) <= q
    if got is not None:
        assert zeros == sum(ss.count(0) for ss in carried)


rat = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
low_exponent = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: sum(e) <= 3)
level_poly = st.dictionaries(low_exponent, rat.filter(bool), min_size=1, max_size=8).map(TriPoly)


def _sign(v):
    return (v > 0) - (v < 0)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(level_poly, min_size=1, max_size=3),
    st.lists(st.tuples(rat, rat, rat), min_size=1, max_size=10),
    st.data(),
)
def test_integer_sign_kernel_matches_evaluate(levels, coords, data):
    pts = [P(*c) for c in coords]
    # shift each level so that it vanishes exactly at one of the points
    on = [data.draw(st.integers(0, len(pts) - 1)) for _ in levels]
    levels = [g - TriPoly.constant(g.evaluate_point(pts[k])) for g, k in zip(levels, on)]
    assume(not any(g.is_zero() for g in levels))
    # normalized levels, and the levels as drawn: Fraction coefficients that
    # only the partition's forms clear, with their signs kept
    for part, gs in (
        (PartitionPoly.from_levels(levels), [primitive_normalize(g) for g in levels]),
        (PartitionPoly(tuple(_form(g) for g in levels), Fraction(1, 10), 0), levels),
    ):
        want = [tuple(_sign(g.evaluate_point(p)) for g in gs) for p in pts]
        assert _sign_vectors(part, pts) == want
        for j, k in enumerate(on):
            assert want[k][j] == 0
        on_surface, in_cells = classify_points(part, pts)
        assert on_surface == [i for i, sv in enumerate(want) if 0 in sv]
        assert in_cells == [i for i, sv in enumerate(want) if 0 not in sv]
        occ, surface = cell_occupancy(part, pts)
        assert surface == len(on_surface)
        assert occ == {sv: want.count(sv) for sv in want if 0 not in sv}


# -- explicit-level seam -------------------------------------------------------------


def test_from_levels_normalizes_and_validates():
    part = PartitionPoly.from_levels([2 * X - 4 * Y, Z])
    assert part.levels[0] == X - 2 * Y
    assert part.t == 2
    assert part.degree == 2
    with pytest.raises(ValueError, match="nonzero"):
        PartitionPoly.from_levels([X, TriPoly.zero()])
    # the constructor itself rejects a zero level, so JSON cannot carry one in
    with pytest.raises(ValueError, match="nonzero"):
        PartitionPoly((_form(X), ()), Fraction(1, 10), 0)
    with pytest.raises(ValueError, match="nonzero"):
        PartitionPoly.from_json_dict({"t": 1, "eps": "1/10", "seed": 0, "levels": [[]]})


def test_classify_lines_against_known_surface():
    part = PartitionPoly.from_levels([Z, X - TriPoly.constant(1)])
    lines = [
        L(P(0, 0, 0), (1, 0, 0)),  # inside z = 0
        L(P(5, 5, -3), (0, 0, 1)),  # pierces z = 0 once, misses x = 1
        L(P(0, 0, 0), (1, 0, 1)),  # crosses both sheets
    ]
    lc = classify_lines(part, lines)
    assert lc.contained == [0]
    assert lc.crossing == [(1, 1), (2, 2)]
    assert lc.max_roots == 2 <= part.degree


def test_classes_crossed_enumerates_sign_cells():
    part = PartitionPoly.from_levels([X, Y])
    line = L(P(-5, Fraction(-9, 2), 3), (1, 1, 0))
    assert classes_crossed(part, line) == {(-1, -1), (-1, 1), (1, 1)}
    # contained lines have no full-sign samples and are rejected outright
    with pytest.raises(ValueError):
        classes_crossed(PartitionPoly.from_levels([Z]), L(P(0, 0, 0), (1, 0, 0)))


def test_partition_json_round_trip():
    pts = [P(i, i * i, 0) for i in range(9)]
    part = build_partition(pts, 2, Fraction(1, 10), seed=3)
    data = part.to_json_dict()
    assert data["t"] == 2 and data["D"] == part.degree
    back = PartitionPoly.from_json_dict(data)
    assert back == part and back.levels == part.levels
    assert json.dumps(back.to_json_dict()) == json.dumps(data)
    # the forms write the records that the TriPoly levels would
    assert data["levels"] == [g.to_records() for g in part.levels]


def test_built_partition_holds_its_levels_as_forms():
    # one point: the first level is a plane through it, which takes the
    # point to Z(f), so the second level is x
    part = build_partition([P(Fraction(1, 2), 3, -1)], 2, Fraction(1, 10), seed=0)
    assert all(isinstance(C, int) for form in part.forms for *_, C in form)
    assert part.forms[1] == ((1, 0, 0, 0, 1),)
    assert part.levels[1] == X
    assert part.degree == 2
    assert part.forms == tuple(_form(g) for g in part.levels)


def test_hand_written_levels_load_as_their_cleared_forms():
    # x/2 - 1/3 and y^2 - 3/4, written unsorted: held as 3x - 2 and 4y^2 - 3
    data = {
        "t": 2,
        "eps": "1/10",
        "seed": 0,
        "D": 3,
        "levels": [
            [{"e": [1, 0, 0], "c": "1/2"}, {"e": [0, 0, 0], "c": "-1/3"}],
            [{"e": [0, 2, 0], "c": "1"}, {"e": [0, 0, 0], "c": "-3/4"}],
        ],
    }
    part = PartitionPoly.from_json_dict(data)
    assert part.forms == (((0, 0, 0, 1, -2), (1, 0, 0, 0, 3)), ((0, 0, 0, 2, -3), (0, 2, 0, 0, 4)))
    written = [TriPoly.from_records(r) for r in data["levels"]]
    pts = [P(Fraction(i, 3), Fraction(j, 2), 0) for i in range(-1, 4) for j in range(-3, 4)]
    want = [tuple(_sign(g.evaluate_point(p)) for g in written) for p in pts]
    assert _sign_vectors(part, pts) == want
    assert {0, 1, -1} <= {s for sv in want for s in sv}
    assert part.to_json_dict()["levels"] == [
        [{"e": [0, 0, 0], "c": "-2"}, {"e": [1, 0, 0], "c": "3"}],
        [{"e": [0, 0, 0], "c": "-3"}, {"e": [0, 2, 0], "c": "4"}],
    ]


def test_partition_json_checks_t_d_and_eps():
    data = PartitionPoly.from_levels([X]).to_json_dict()
    back = PartitionPoly.from_json_dict(data)
    assert (back.t, back.degree, back.epsilon) == (1, 1, Fraction(1, 10))
    assert back.to_json_dict() == data
    for key, value, match in [
        ("t", 5, "t, D"),
        ("D", 99, "t, D"),
        ("eps", "3/4", "slack"),
        ("eps", "1/2", "slack"),
        ("eps", "-1/10", "slack"),
    ]:
        with pytest.raises(ValueError, match=match):
            PartitionPoly.from_json_dict({**data, key: value})
    with pytest.raises(ValueError):
        PartitionPoly.from_json_dict({**data, "t": 5, "D": 99, "eps": "3/4"})


@pytest.mark.parametrize(
    ("level", "match"),
    [
        ([{"e": [1.5, 0, 0], "c": "1"}], "three ints"),
        ([{"e": [True, 0, 0], "c": "1"}], "three ints"),
        ([{"e": ["1", 0, 0], "c": "1"}], "three ints"),
        ([{"e": [1, 0, 0, 7], "c": "1"}], "three ints"),
        # x + 2x - 1, which loaded as its last x term, 2x - 1
        (
            [{"e": [1, 0, 0], "c": "1"}, {"e": [1, 0, 0], "c": "2"}, {"e": [0, 0, 0], "c": "-1"}],
            "repeats",
        ),
    ],
    ids=["float", "bool", "string", "four-entries", "repeated"],
)
def test_saved_level_exponents_are_three_distinct_ints(level, match):
    data = {"t": 1, "eps": "1/10", "seed": 0, "D": 1, "levels": [level]}
    with pytest.raises(ValueError, match=match):
        PartitionPoly.from_json_dict(data)
    with pytest.raises(ValueError, match=match):
        TriPoly.from_records(level)
    # the same level written with three distinct ints loads
    data["levels"] = [[{"e": [1, 0, 0], "c": "3"}, {"e": [0, 0, 0], "c": "-1"}]]
    assert PartitionPoly.from_json_dict(data).levels == (3 * X - 1,)


@pytest.mark.parametrize(
    ("key", "value"),
    [("seed", 2.5), ("seed", True), ("seed", "7"), ("t", 1.0), ("D", True)],
)
def test_saved_seed_t_and_D_are_json_ints(key, value):
    # int() would load these seeds as 2, 1 and 7, and 1.0 == 1 passes the t check
    data = {"t": 1, "eps": "1/10", "seed": 0, "D": 1, "levels": [[{"e": [1, 0, 0], "c": "1"}]]}
    assert PartitionPoly.from_json_dict(data).seed == 0
    data[key] = value
    with pytest.raises(ValueError, match=re.escape(f"{key} must be an int, got {value!r}")):
        PartitionPoly.from_json_dict(data)
