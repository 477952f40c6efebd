"""Exact incidence counting, coplanarity statistics, and quadric helpers."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from incilab._linalg import nullspace
from incilab.configs import GeneratorSpec, generate
from incilab.geom import (
    Rational3Point,
    RationalLine,
    RationalPlane,
    plane_through_lines,
    point_on_line,
    primitive,
)
from incilab.incidence import (
    Configuration,
    DegeneracyError,
    IncidenceTally,
    InvalidConfigurationError,
    MONOMIALS_DEG2,
    Quadric,
    _aligned_matches,
    _bezout,
    _lattice_groups,
    _max_coplanar_lines_pairwise,
    _points_by_line_pairwise,
    _points_on_line,
    assign_to_components,
    coplanar_buckets,
    count_incidences,
    max_coplanar_lines,
    plane_key,
    plucker_reps,
    regulus_through,
    richness_histogram,
)

P = Rational3Point
L = RationalLine


def small_config(pts, lns):
    return Configuration(tuple(pts), tuple(lns), {})


@pytest.fixture
def cross_pair():
    """Two stacked horizontal lines plus one vertical rung through both."""
    pts = (P(0, 0, 0), P(1, 0, 0), P(0, 0, 1), P(1, 0, 1))
    lns = (
        L(P(0, 0, 0), (1, 0, 0)),
        L(P(0, 0, 1), (1, 0, 0)),
        L(P(0, 0, 0), (0, 0, 1)),
    )
    return small_config(pts, lns)


# -- counting ------------------------------------------------------------------


def test_grid3d_counts_by_hand():
    cfg = generate(GeneratorSpec("grid3d", {"N": 2}))
    tally = count_incidences(cfg)
    assert (cfg.m, cfg.n, tally.total) == (8, 12, 24)
    assert all(r == 3 for r in tally.per_point)
    assert all(c == 2 for c in tally.per_line)


def test_strategies_agree_on_generated_families():
    for spec in (
        GeneratorSpec("elekes2d", {"N": 2}),
        GeneratorSpec("grid3d", {"N": 3}),
        GeneratorSpec("random", {"m": 150, "n": 90}, seed=11),
    ):
        cfg = generate(spec)
        assert count_incidences(cfg).points_by_line == _points_by_line_pairwise(cfg)


rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
rpoint = st.builds(P, rational, rational, rational)
direction = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


@st.composite
def incidence_inputs(draw):
    """Rational points (denominators 1-6), possibly none, and lines: free
    ones, lines through two of the points, a concurrent family through one
    point and a parallel family, any of them possibly empty."""
    points = draw(st.lists(rpoint, max_size=12))
    lines = [L(draw(rpoint), draw(direction)) for _ in range(draw(st.integers(0, 3)))]
    if len(points) >= 2:
        for a, b in draw(st.lists(st.tuples(*[st.sampled_from(points)] * 2), max_size=4)):
            if a != b:
                lines.append(L(a, (b.x - a.x, b.y - a.y, b.z - a.z)))
    if points:
        hub = draw(st.sampled_from(points))
        lines += [L(hub, d) for d in draw(st.lists(direction, max_size=4))]
        shared = draw(direction)
        lines += [L(b, shared) for b in draw(st.lists(st.sampled_from(points), max_size=4))]
    return small_config(dict.fromkeys(points), dict.fromkeys(lines))


@settings(deadline=None, max_examples=80)
@given(incidence_inputs())
def test_count_matches_pairwise_on_random_input(cfg):
    tally = count_incidences(cfg)
    assert tally.points_by_line == _points_by_line_pairwise(cfg)
    assert tally.total == sum(tally.per_point) == sum(tally.per_line)


# -- the lattice walk ------------------------------------------------------------


class _Probes(dict):
    """A q-group's hash that counts its lookups and its points scanned."""

    probes = 0

    def get(self, key, default=None):
        self.probes += 1
        return super().get(key, default)

    def items(self):
        self.probes += len(self)
        return super().items()


def _probed_hits(cfg):
    """`_points_on_line` per line over probe-counting groups: (hits, probes
    per line per group)."""
    groups = [
        (q, _Probes(table), lo, hi) for q, table, lo, hi in _lattice_groups(cfg.points)
    ]
    hits, probes = [], []
    for line in cfg.lines:
        before = [table.probes for _, table, _, _ in groups]
        hits.append(_points_on_line(line, groups))
        probes.append([t.probes - b for (_, t, _, _), b in zip(groups, before)])
    return hits, probes


def test_walk_steps_a_short_window():
    pts = [P(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    lns = (L(P(0, 0, 0), (1, 1, 1)), L(P(0, 1, 0), (1, 0, 1)), L(P(0, 0, 5), (1, 1, 0)))
    cfg = small_config(pts, lns)
    hits, probes = _probed_hits(cfg)
    assert hits == _points_by_line_pairwise(cfg) == [[0, 13, 26], [3, 13, 23], []]
    # Three steps through the 3x3x3 box; the third line misses it entirely.
    assert probes == [[3], [3], [0]]


def test_long_window_falls_back_to_the_group_scan():
    pts = (P(0, 0, 0), P(10**6, 0, 0), P(5, 1, 0))
    lns = (L(P(0, 0, 0), (1, 0, 0)), L(P(0, 1, 0), (1, 0, 0)))
    cfg = small_config(pts, lns)
    hits, probes = _probed_hits(cfg)
    assert hits == _points_by_line_pairwise(cfg) == [[0, 1], [2]]
    assert probes == [[3], [3]]


def test_rational_base_leaves_a_group_lattice_empty():
    # Integer points never have y = 1/2; the half-integer group does.
    pts = (P(0, 0, 0), P(1, 0, 0), P(2, 0, 0), P(Fraction(1, 2), Fraction(1, 2), 0))
    lns = (L(P(0, Fraction(1, 2), 0), (1, 0, 0)), L(P(0, 0, 0), (1, 0, 0)))
    cfg = small_config(pts, lns)
    hits, probes = _probed_hits(cfg)
    assert hits == _points_by_line_pairwise(cfg) == [[3], [0, 1, 2]]
    assert probes[0][0] == 0


def test_points_with_mixed_denominators_on_one_line():
    line = L(P(0, Fraction(1, 2), 0), (1, 1, 1))
    params = (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(-3, 10), Fraction(5, 12))
    pts = [line.point_at(t) for t in params] + [P(1, 1, 1), P(*[Fraction(1, 4)] * 3)]
    cfg = small_config(pts, (line, L(P(0, 0, 0), (1, 1, 1))))
    assert sorted({p.ints[3] for p in pts}) == [1, 2, 4, 6, 10, 12]
    pbl = count_incidences(cfg).points_by_line
    assert pbl == _points_by_line_pairwise(cfg) == [[0, 1, 2, 3, 4, 5], [6, 7]]


def test_walk_probes_only_the_box_lattice_points():
    """Each (line, group) pair costs min(lattice points of the line in the
    group's box, group size): the window is clipped to the box exactly."""
    pts = [P(x, y, z) for x in range(4) for y in range(4) for z in range(3)]
    pts += [P(Fraction(x, 2), Fraction(1, 2), 1) for x in range(-2, 9)]
    lns = [
        L(P(0, y, z), d)
        for y in (-1, 0, Fraction(1, 2), 2)
        for z in (0, 1)
        for d in ((1, 0, 0), (1, 1, 0), (1, -1, 1), (2, 1, -1), (0, 1, 1), (0, 0, 1))
    ]
    cfg = small_config(pts, dict.fromkeys(lns))
    hits, probes = _probed_hits(cfg)
    assert hits == _points_by_line_pairwise(cfg)
    for line, row in zip(cfg.lines, probes):
        for (q, table, lo, hi), cost in zip(_lattice_groups(cfg.points), row):
            box = [
                P(Fraction(x, q), Fraction(y, q), Fraction(z, q))
                for x in range(lo[0], hi[0] + 1)
                for y in range(lo[1], hi[1] + 1)
                for z in range(lo[2], hi[2] + 1)
            ]
            window = sum(1 for p in box if point_on_line(p, line))
            assert cost == min(window, len(table)), (line, q)


@settings(deadline=None, max_examples=200)
@given(st.tuples(*[st.integers(-50, 50)] * 3).filter(any))
def test_bezout_vector_dots_a_primitive_direction_to_one(vec):
    d = L(P(0, 0, 0), vec).dir
    assert sum(a * b for a, b in zip(_bezout(d), d)) == 1


wide = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12))
wide_point = st.builds(P, wide, wide, wide)


@st.composite
def wide_inputs(draw):
    """Points with coordinates up to 10^6 and denominators 1-12, lines through
    two of them or through one with a small direction, and more points on
    those lines at such parameters: long windows and many q-groups."""
    points = draw(st.lists(wide_point, min_size=1, max_size=10))
    lines = []
    for a, b in draw(st.lists(st.tuples(*[st.sampled_from(points)] * 2), max_size=3)):
        if a != b:
            lines.append(L(a, (b.x - a.x, b.y - a.y, b.z - a.z)))
    lines += [L(draw(st.sampled_from(points)), d) for d in draw(st.lists(direction, max_size=3))]
    for line in list(lines):
        points += [line.point_at(t) for t in draw(st.lists(wide, max_size=3))]
    return small_config(dict.fromkeys(points), dict.fromkeys(lines))


@settings(deadline=None, max_examples=80)
@given(wide_inputs())
def test_count_matches_pairwise_on_wide_rational_input(cfg):
    assert count_incidences(cfg).points_by_line == _points_by_line_pairwise(cfg)


# -- richness and coplanarity ----------------------------------------------------


def test_richness_statistics(cross_pair):
    hist = richness_histogram(count_incidences(cross_pair))
    assert hist == {1: 2, 2: 2}


def test_max_coplanar_lines_degenerate_inputs():
    assert max_coplanar_lines(()) == (0, None)
    only = L(P(0, 0, 0), (1, 2, 3))
    assert max_coplanar_lines((only,)) == (1, None)


def test_max_coplanar_lines_on_families():
    pack = generate(GeneratorSpec("coplanar_pack", {"k": 2, "N": 2}))
    s, witness = max_coplanar_lines(pack.lines)
    assert s == 8
    assert witness.coeffs == (0, 0, 1, 0)
    grid = generate(GeneratorSpec("grid3d", {"N": 2}))
    assert max_coplanar_lines(grid.lines)[0] == 4


def pairwise_max_coplanar(lines):
    """Oracle: bucket every pair by its `plane_through_lines` plane."""
    if not lines:
        return 0, None
    buckets = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            res = plane_through_lines(lines[i], lines[j])
            if isinstance(res, RationalPlane):
                buckets.setdefault(res, set()).update((i, j))
    if not buckets:
        return 1, None
    best = max(buckets.items(), key=lambda kv: (len(kv[1]), kv[0].coeffs))
    return len(best[1]), best[0]


# rationals with assorted denominators, so line bases clear to different w
rat = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7, 12]))
rat_pt = st.tuples(rat, rat, rat)
small_dir = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


@st.composite
def line_family(draw):
    kind = draw(st.sampled_from(["free", "parallel", "pencil", "planar"]))
    size = draw(st.integers(1, 5))
    if kind == "free":
        return [L(P(*draw(rat_pt)), draw(small_dir)) for _ in range(size)]
    if kind == "parallel":
        d = draw(small_dir)
        return [L(P(*draw(rat_pt)), d) for _ in range(size)]
    if kind == "pencil":
        apex = P(*draw(rat_pt))
        return [L(apex, draw(small_dir)) for _ in range(size)]
    # lines inside the plane through o spanned by u and v
    o, u, v = draw(rat_pt), draw(small_dir), draw(small_dir)
    if not any(_cross(u, v)):
        v = next(e for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if any(_cross(u, e)))
    out = []
    for _ in range(size):
        a, b = draw(rat), draw(rat)
        al, be = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        d = tuple(al * u[k] + be * v[k] for k in range(3))
        if any(d):
            out.append(L(P(*(o[k] + a * u[k] + b * v[k] for k in range(3))), d))
    return out


@settings(deadline=None, max_examples=150)
@given(st.lists(line_family(), min_size=0, max_size=4), st.randoms(use_true_random=False))
def test_max_coplanar_lines_matches_pairwise_oracle(families, rnd):
    lines = [l for fam in families for l in fam]
    rnd.shuffle(lines)
    assert max_coplanar_lines(lines) == pairwise_max_coplanar(lines)


def test_max_coplanar_lines_tie_break_and_rational_bases():
    # two planes with four lines each; the larger coefficient tuple wins
    lo = [L(P(0, Fraction(k, 3), 0), (1, 0, 0)) for k in range(4)]
    hi = [L(P(Fraction(1, 2), 0, Fraction(k + 1, 5)), (0, 1, 0)) for k in range(4)]
    s, witness = max_coplanar_lines(lo + hi)
    assert (s, witness) == pairwise_max_coplanar(lo + hi)
    assert s == 4 and witness.coeffs == (2, 0, 0, -1)
    # pair normals with a negative leading entry still key the canonical plane
    side = [L(P(0, 0, 7), (1, 0, k)) for k in range(3)]
    floor = [L(P(0, 5, 0), d) for d in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
    assert max_coplanar_lines(side + floor) == (3, RationalPlane(0, 1, 0, 0))
    assert pairwise_max_coplanar(side + floor) == (3, RationalPlane(0, 1, 0, 0))
    # a crossing pair whose bases have different denominators
    pair = [
        L(P(Fraction(1, 2), 0, 0), (0, 1, 1)),
        L(P(0, Fraction(1, 3), Fraction(1, 3)), (1, 0, 0)),
    ]
    assert max_coplanar_lines(pair) == pairwise_max_coplanar(pair)
    assert max_coplanar_lines(pair)[0] == 2


def per_pair_buckets(lines):
    """Oracle for `coplanar_buckets`: one `plane_key` per pair, in (i, j) order."""
    reps = plucker_reps(lines)
    buckets = {}
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            key = plane_key(reps[i], reps[j])
            if key is not None:
                buckets.setdefault(key, set()).update((i, j))
    return buckets


@st.composite
def wide_line_family(draw):
    """A free, parallel, pencil or planar family with coordinates up to
    +-scale and base denominators up to 12."""
    scale = draw(st.sampled_from([3, 10**3, 10**9]))
    coord = st.builds(Fraction, st.integers(-scale, scale), st.integers(1, 12))
    point = st.builds(P, coord, coord, coord)
    direction = st.tuples(*[st.integers(-scale, scale)] * 3).filter(any)
    kind = draw(st.sampled_from(["free", "parallel", "pencil", "planar"]))
    size = draw(st.integers(1, 6))
    if kind == "free":
        return [L(draw(point), draw(direction)) for _ in range(size)]
    if kind == "parallel":
        d = draw(direction)
        return [L(draw(point), d) for _ in range(size)]
    if kind == "pencil":
        apex = draw(point)
        return [L(apex, draw(direction)) for _ in range(size)]
    o, u, v = draw(point).coords, draw(direction), draw(direction)
    if not any(_cross(u, v)):
        v = next(e for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if any(_cross(u, e)))
    out = []
    for _ in range(size):
        a, b = draw(coord), draw(coord)
        al, be = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        d = tuple(al * u[k] + be * v[k] for k in range(3))
        if any(d):
            out.append(L(P(*(o[k] + a * u[k] + b * v[k] for k in range(3))), d))
    return out


@st.composite
def wide_lines(draw, max_families=4):
    """Shuffled families, some lines repeated (`coplanar_buckets` takes any
    sequence, not only a `Configuration`'s distinct lines)."""
    families = draw(st.lists(wide_line_family(), max_size=max_families))
    lines = [l for fam in families for l in fam]
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=3))
    return draw(st.permutations(lines))


@settings(deadline=None, max_examples=150)
@given(wide_lines())
def test_coplanar_buckets_match_per_pair_plane_keys(lines):
    fast, ref = coplanar_buckets(lines), per_pair_buckets(lines)
    assert list(fast.items()) == list(ref.items())


@settings(deadline=None, max_examples=25)
@given(wide_lines(max_families=2))
def test_max_coplanar_lines_matches_pairwise_reference_on_wide_input(lines):
    assert max_coplanar_lines(lines) == _max_coplanar_lines_pairwise(lines)


def test_max_coplanar_lines_counts_repeated_lines():
    a = L(P(0, 0, 0), (1, 0, 0))
    c = L(P(0, 1, 0), (1, 2, 0))
    assert max_coplanar_lines([a, a, c]) == _max_coplanar_lines_pairwise([a, a, c])
    assert max_coplanar_lines([a, a, c])[0] == 3


@st.composite
def parallel_classes(draw):
    """Up to three directions with up to eight lines each, bases on a small
    grid with denominators up to 3, some lines repeated, shuffled: many
    planes hold several parallel lines, and many hold only those."""
    coord = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    lines = []
    for d in draw(st.lists(small_dir, min_size=1, max_size=3, unique=True)):
        size = draw(st.integers(1, 8))
        lines += [L(P(draw(coord), draw(coord), draw(coord)), d) for _ in range(size)]
    lines += draw(st.lists(st.sampled_from(lines), max_size=2))
    return draw(st.permutations(lines))


# every line lies in z = 0: the first line keys the plane once per line of
# another class, and its class-mates join the bucket when it is created
_ELEKES = [L(P(0, b, 0), (1, a, 0)) for a in range(3) for b in range(3)]
# z = 0 holds three lines of two classes, and x = 1 three parallel lines:
# the class of x = 1 has exactly s lines and its plane has the larger key
_TIE = [L(P(0, 0, 0), (1, 0, 0)), L(P(0, 1, 0), (1, 0, 0)), L(P(0, 0, 0), (0, 1, 0))] + [
    L(P(1, k, 0), (0, 0, 1)) for k in range(3)
]
# no three lines share a plane; y + 2z = 4 wins, spanned by the second and
# the last foot in sorted order
_PAIRS = [L(P(0, y, z), (1, 0, 0)) for y, z in ((0, 0), (2, 1), (2, 0), (0, 2))]
# the feet (1, 1), (0, 0), (1, 1), (2, 2) of one class, out of order: the
# repeated line makes the plane y = z hold four lines
_REPEATED = [L(P(0, y, y), (1, 0, 0)) for y in (1, 0, 1, 2)] + [L(P(0, 0, 0), (0, 1, 0))]
# z = 0 holds four lines of two classes; the three parallel lines in x = 1
# are fewer, so their class is never searched
_SKIPPED = [L(P(0, y, 0), (1, 0, 0)) for y in (0, 1)] + [
    L(P(x, 0, 0), (0, 1, 0)) for x in (0, 5)
] + [L(P(1, k, 0), (0, 0, 1)) for k in (2, 3, 4)]


@settings(deadline=None, max_examples=150)
@given(parallel_classes())
@example(_ELEKES)
@example(_TIE)
@example(_PAIRS)
@example(_REPEATED)
@example(_SKIPPED)
def test_max_coplanar_lines_matches_pairwise_reference_on_parallel_classes(lines):
    assert max_coplanar_lines(lines) == _max_coplanar_lines_pairwise(lines)


def test_max_coplanar_lines_examples_by_hand():
    assert max_coplanar_lines(_ELEKES) == (9, RationalPlane(0, 0, 1, 0))
    assert max_coplanar_lines(_TIE) == (3, RationalPlane(1, 0, 0, -1))
    assert max_coplanar_lines(_PAIRS) == (2, RationalPlane(0, 1, 2, -4))
    assert max_coplanar_lines(_REPEATED) == (4, RationalPlane(0, 1, -1, 0))
    assert max_coplanar_lines(_SKIPPED) == (4, RationalPlane(0, 0, 1, 0))


@pytest.mark.parametrize(
    "family, params, keys",
    [
        ("elekes2d", {"N": 6}, 180),
        ("grid3d", {"N": 10}, 300),
        ("coplanar_pack", {"k": 3, "N": 4}, 144),
    ],
    ids=["elekes2d-6", "grid3d-10", "coplanar_pack-3-4"],
)
def test_max_coplanar_lines_keys_only_planes_that_can_win(monkeypatch, family, params, keys):
    """No parallel pair reaches the filter, a new plane takes its creator's
    class-mates at once, and a plane of one class is keyed only when it can
    be the answer: grid3d N=10 keys its 30 axis planes 10 times each, and
    none of its 5 700 two-line planes (`coplanar_buckets` keys 9 348)."""
    lines = generate(GeneratorSpec(family, params)).lines
    expected = max_coplanar_lines(lines)
    calls = []

    def counted(ri, rj):
        calls.append(None)
        return plane_key(ri, rj)

    monkeypatch.setattr("incilab.incidence.plane_key", counted)
    assert max_coplanar_lines(lines) == expected
    assert len(calls) == keys


def test_coplanar_buckets_on_hyperbolic_paraboloid():
    # rulings of z = xy with large signed Pluecker entries; a floor shift of
    # a signed packed column loses the pair (3, 4)
    lines = generate(GeneratorSpec("ruled_surface", {"kind": "hp", "k": 8})).lines
    fast = coplanar_buckets(lines)
    assert list(fast.items()) == list(per_pair_buckets(lines).items())
    assert any(bucket == {3, 4} for bucket in fast.values())


def test_coplanar_buckets_fields_hold_products_near_the_bound():
    # the largest |entry| is A = 100, so 6*A^2 = 60000 has 16 bits, and the
    # skew pair (a, c) has reciprocal product 49700 >= 2^15: without a sign
    # bit above those 16 bits its field carries into the zero field of (a, b)
    a = L(P(0, Fraction(1, 100), Fraction(-99, 100)), (1, 1, 1))
    b = L(P(0, Fraction(1, 100), Fraction(-99, 100)), (1, 0, 0))
    c = L(P(0, -1, Fraction(99, 100)), (1, -1, 0))
    assert coplanar_buckets([a, b, c]) == {(0, 1, -1, -1): {0, 1}}


def test_coplanar_buckets_key_a_complete_plane_once_per_other_line(monkeypatch):
    lines = [L(P(0, k, 0), (1, k, 0)) for k in range(600)]
    calls = []

    def counted(ri, rj):
        calls.append(None)
        return plane_key(ri, rj)

    monkeypatch.setattr("incilab.incidence.plane_key", counted)
    assert coplanar_buckets(lines) == {(0, 0, 1, 0): set(range(600))}
    assert len(calls) == len(lines) - 1


@pytest.mark.parametrize(
    "family, params, matches",
    [(None, None, 599), ("elekes2d", {"N": 6}, 215), ("grid3d", {"N": 10}, 9348)],
    ids=["plane600", "elekes2d-6", "grid3d-10"],
)
def test_every_filter_match_gets_a_plane_key(monkeypatch, family, params, matches):
    """The cover masks drop every pair inside a complete plane before the
    fields are read, so each match the filter yields is keyed."""
    if family is None:
        lines = [L(P(0, k, 0), (1, k, 0)) for k in range(600)]
    else:
        lines = generate(GeneratorSpec(family, params)).lines
    seen = {"matches": 0, "keys": 0}

    def counted_matches(buf, pattern):
        for k in _aligned_matches(buf, pattern):
            seen["matches"] += 1
            yield k

    def counted_key(ri, rj):
        seen["keys"] += 1
        return plane_key(ri, rj)

    monkeypatch.setattr("incilab.incidence._aligned_matches", counted_matches)
    monkeypatch.setattr("incilab.incidence.plane_key", counted_key)
    coplanar_buckets(lines)
    assert seen == {"matches": matches, "keys": matches}


lattice_line = st.builds(
    L,
    st.builds(P, *[st.integers(-1, 1)] * 3),
    st.sampled_from(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1), (0, 1, -1), (1, 1, 1)]
    ),
)


@st.composite
def lattice_lines(draw):
    """Lines through the points of [-1, 1]^3 along axis and diagonal
    directions, some repeated, shuffled: many planes hold 3 or more lines,
    and most lines lie in several of them."""
    lines = draw(st.lists(lattice_line, max_size=20))
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=4))
    return draw(st.permutations(lines))


# a, b, c and d lie in z = 0, and a, e and f in y = 0; each of b, c is skew
# to each of e, f
_a = L(P(0, 0, 0), (1, 0, 0))
_b = L(P(0, 1, 0), (1, 1, 0))
_c = L(P(0, 2, 0), (1, -1, 0))
_d = L(P(0, 1, 0), (1, 0, 0))
_e = L(P(5, 0, 1), (1, 0, 2))
_f = L(P(0, 0, 3), (1, 0, -1))


@settings(deadline=None, max_examples=150)
@given(lattice_lines())
# the repeated a joins the plane z = 0 after line 0 recorded it
@example([_a, _c, _d, _a])
# both copies of a are members of both recorded planes, z = 0 and y = 0
@example([_b, _e, _a, _c, _a, _f])
# the copy of a spans nothing with line 0, so it joins z = 0 through (1, 2)
@example([_a, _a, _c])
def test_coplanar_buckets_match_per_pair_keys_on_lattice_lines(lines):
    fast, ref = coplanar_buckets(lines), per_pair_buckets(lines)
    assert list(fast.items()) == list(ref.items())


def raw_plane(ri, rj):
    """The (a, b, c, d) that `plane_key` reduces, for a pair it keys."""
    wi, bi, di, _ = ri
    wj, bj, dj, _ = rj
    v = dj if di != dj else tuple(wi * q - wj * p for p, q in zip(bi, bj))
    n = _cross(di, v)
    return (*(wi * c for c in n), -sum(c * b for c, b in zip(n, bi)))


@pytest.mark.parametrize(
    "pair, raw, key",
    [
        # a = 0, b < 0
        (
            (L(P(0, 0, Fraction(3, 2)), (1, 0, 0)), L(P(1, 2, 2), (1, 0, 0))),
            (0, -2, 8, -12),
            (0, 1, -4, 6),
        ),
        # a = b = 0, c < 0
        (
            (L(P(0, 0, Fraction(3, 2)), (1, 1, 0)), L(P(0, 0, Fraction(3, 2)), (1, -1, 0))),
            (0, 0, -4, 6),
            (0, 0, 2, -3),
        ),
        # only d < 0
        (
            (L(P(0, 0, Fraction(3, 2)), (1, 0, 0)), L(P(0, Fraction(2, 3), 0), (1, 0, 0))),
            (0, 18, 8, -12),
            (0, 9, 4, -6),
        ),
    ],
    ids=["a0-b-neg", "ab0-c-neg", "d-neg"],
)
def test_plane_key_signs_like_primitive(pair, raw, key):
    ri, rj = plucker_reps(pair)
    assert raw_plane(ri, rj) == raw
    assert plane_key(ri, rj) == tuple(primitive(raw)) == RationalPlane(*raw).coeffs == key
    assert plane_through_lines(*pair).coeffs == key


@settings(deadline=None, max_examples=100)
@given(wide_lines(max_families=3))
def test_plane_key_matches_primitive_on_wide_pairs(lines):
    reps = plucker_reps(lines)
    for i, ri in enumerate(reps):
        for rj in reps[i + 1 :]:
            key = plane_key(ri, rj)
            if key is not None:
                raw = raw_plane(ri, rj)
                assert key == tuple(primitive(raw)) == RationalPlane(*raw).coeffs


def test_aligned_matches_skips_matches_across_fields():
    zero = bytes([0x80, 0, 0])
    # fields: 01 80 00 | 00 80 00 | 00 00 01 | 80 00 00
    buf = bytes([1, 0x80, 0, 0, 0x80, 0, 0, 0, 1, 0x80, 0, 0])
    assert list(_aligned_matches(buf, zero)) == [3]
    assert list(_aligned_matches(zero * 2, zero)) == [0, 1]
    assert list(_aligned_matches(b"", zero)) == []


# -- component assignment --------------------------------------------------------


def test_assign_to_components_first_come_first_serve(cross_pair):
    planes = [RationalPlane(0, 0, 1, 0), RationalPlane(0, 0, 1, -1)]
    tally = count_incidences(cross_pair)
    ca = assign_to_components(
        cross_pair.points, cross_pair.lines, planes, tally.points_by_line
    )
    assert ca.point_comp == [0, 0, 1, 1]
    assert ca.line_comp == [0, 1, None]  # the vertical rung fits neither plane
    assert ca.within_incidences == [2, 2]
    assert ca.cross_charges == 2
    assert sum(ca.within_incidences) + ca.cross_charges == tally.total


def test_assign_to_components_duplicate_membership_goes_to_first():
    # a line in both planes of a pencil is charged to the first listed plane
    pts = (P(0, 0, 0),)
    lns = (L(P(0, 0, 0), (1, 0, 0)),)
    planes = [RationalPlane(0, 0, 1, 0), RationalPlane(0, 1, 0, 0)]
    ca = assign_to_components(pts, lns, planes, [[0]])
    assert ca.line_comp == [0]
    assert ca.point_comp == [0]
    assert ca.within_incidences == [1, 0] and ca.cross_charges == 0


def test_assign_to_components_takes_quadrics():
    saddle = Quadric((0, 0, 0, 1, 0, 0, 0, 0, -1, 0))  # z = x y
    plane = RationalPlane(0, 0, 1, 0)
    pts = (P(0, 0, 0), P(2, 3, 6), P(1, 1, 5))
    lns = (L(P(2, 0, 0), (0, 1, 2)), L(P(0, 0, 0), (1, 0, 0)))
    cfg = small_config(pts, lns)
    ca = assign_to_components(
        pts, lns, [saddle, plane], count_incidences(cfg).points_by_line
    )
    assert ca.point_comp == [0, 0, None]
    assert ca.line_comp == [0, 0]
    assert ca.within_incidences == [2, 0] and ca.cross_charges == 0


small = st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3)
PLANES = [RationalPlane(*c) for c in ((0, 0, 1, 0), (0, 0, 1, -1), (1, 0, 0, 0), (1, -1, 0, 0), (1, 1, 1, 0))]
# directions inside one or two of the planes above, and one inside none
DIRS = [(1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, -2), (0, 1, -1), (1, 2, 3)]


@settings(deadline=None, max_examples=60)
@given(
    st.lists(small, min_size=1, max_size=12, unique=True),
    st.lists(st.tuples(st.integers(0, 11), st.sampled_from(DIRS)), min_size=1, max_size=10),
    st.permutations(PLANES),
    st.integers(min_value=0, max_value=len(PLANES)),
)
def test_assign_to_components_matches_pairwise_oracle(pts, raw_lines, planes, k):
    # lines through configuration points, so assigned points carry incidences
    planes = planes[:k]
    lines = {L(P(*pts[i % len(pts)]), d) for i, d in raw_lines}
    cfg = small_config([P(*c) for c in pts], lines)
    ca = assign_to_components(
        cfg.points, cfg.lines, planes, count_incidences(cfg).points_by_line
    )

    def first(test):
        return next((c for c, pl in enumerate(planes) if test(pl)), None)

    point_comp = [first(lambda pl: pl.contains_point(p)) for p in cfg.points]
    line_comp = [first(lambda pl: pl.contains_line(l)) for l in cfg.lines]
    within, cross = [0] * len(planes), 0
    for p, pc in zip(cfg.points, point_comp):
        for l, lc in zip(cfg.lines, line_comp):
            if pc is not None and point_on_line(p, l):
                if pc == lc:
                    within[pc] += 1
                else:
                    cross += 1
    assert (ca.point_comp, ca.line_comp) == (point_comp, line_comp)
    assert (ca.within_incidences, ca.cross_charges) == (within, cross)


# -- configuration validation ------------------------------------------------------


def test_validate_rejects_duplicate_points():
    with pytest.raises(InvalidConfigurationError, match="indexes 0 and 1"):
        small_config([P(0, 0, 0), P(0, 0, 0)], [L(P(0, 0, 0), (1, 0, 0))])


def test_validate_rejects_duplicate_lines_up_to_parametrization():
    with pytest.raises(InvalidConfigurationError, match="indexes 0 and 1"):
        small_config(
            [P(0, 0, 0)],
            [L(P(0, 0, 0), (1, 0, 0)), L(P(5, 0, 0), (-2, 0, 0))],
        )


# -- quadrics and reguli -----------------------------------------------------------


def test_quadric_canonicalizes_scaling():
    a = Quadric((0, 0, 0, 2, 0, 0, 0, 0, -2, 0))
    b = Quadric((0, 0, 0, -1, 0, 0, 0, 0, 1, 0))
    assert a == b
    assert a.coeffs == (0, 0, 0, 1, 0, 0, 0, 0, -1, 0)


def test_quadric_membership():
    saddle = Quadric((0, 0, 0, 1, 0, 0, 0, 0, -1, 0))  # z = x y
    assert saddle.contains_point(P(2, 3, 6))
    assert not saddle.contains_point(P(2, 3, 5))
    assert saddle.contains_line(L(P(2, 0, 0), (0, 1, 2)))
    assert not saddle.contains_line(L(P(0, 0, 0), (1, 1, 1)))
    assert len(MONOMIALS_DEG2) == 10


def test_regulus_through_three_rulings():
    rulings = [L(P(a, 0, 0), (0, 1, a)) for a in (0, 1, 2)]
    quad = regulus_through(*rulings)
    assert quad.coeffs == (0, 0, 0, 1, 0, 0, 0, 0, -1, 0)
    # the regulus contains the opposite family too
    assert quad.contains_line(L(P(0, 5, 0), (1, 0, 5)))


def test_regulus_rejects_non_skew_input():
    meet1 = L(P(0, 0, 0), (1, 0, 0))
    meet2 = L(P(0, 0, 0), (0, 1, 0))
    far = L(P(0, 0, 7), (1, 1, 0))
    with pytest.raises(ValueError):
        regulus_through(meet1, meet2, far)
    parallel = L(P(0, 0, 1), (1, 0, 0))
    for trio in ((far, meet1, parallel), (far, meet1, meet1)):
        with pytest.raises(ValueError, match="not skew"):
            regulus_through(*trio)


def regulus_oracle(trio):
    """The quadric's nullspace from `Fraction` rows: the degree-2 monomials
    at `point_at(t)` of each line for t = 0, 1, 2."""
    rows = []
    for line in trio:
        for t in (0, 1, 2):
            x, y, z = line.point_at(t).coords
            rows.append([x**a * y**b * z**c for a, b, c in MONOMIALS_DEG2])
    return nullspace(rows)


q_coord = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
small_dir = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


@st.composite
def line_trios(draw):
    """Three lines with rational bases; the third one is sometimes made to
    meet the first, parallel to it, or equal to it."""
    trio = [L(P(*draw(st.tuples(q_coord, q_coord, q_coord))), draw(small_dir)) for _ in range(3)]
    how = draw(st.sampled_from(["free", "meet", "parallel", "same"]))
    if how == "meet":
        trio[2] = L(trio[0].point_at(draw(q_coord)), trio[2].dir)
    elif how == "parallel":
        trio[2] = L(trio[2].base, trio[0].dir)
    elif how == "same":
        trio[2] = trio[0]
    return trio


@settings(deadline=None, max_examples=150)
@given(line_trios())
@example([L(P(Fraction(1, 2), 0, 0), (0, 1, 1)), L(P(0, Fraction(-1, 3), 0), (1, 0, 2)),
          L(P(0, 0, Fraction(2, 5)), (1, 1, 0))])
def test_regulus_rows_on_ints_match_fraction_points(trio):
    # integer rows X^a Y^b Z^c w^(2-a-b-c) against Fraction points, and the
    # plane_key skew test against plane_through_lines
    if any(plane_through_lines(a, b) != "skew" for a, b in itertools.combinations(trio, 2)):
        with pytest.raises(ValueError, match="not skew"):
            regulus_through(*trio)
        return
    (want,) = regulus_oracle(trio)
    quad = regulus_through(*trio)
    assert quad == Quadric(want)
    assert all(quad.contains_line(line) for line in trio)
