"""Two-stage pruning pipeline: accounting identities, components, reports."""

import json
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from incilab.algebra import (
    TriPoly,
    X,
    Y,
    Z,
    count_real_roots,
    divides_by_plane,
    line_in_zero_set,
    restrict_to_line,
    sign_gap_samples,
)
from incilab.bounds import OutOfRangeError
from incilab.configs import GeneratorSpec, generate
from incilab.geom import Rational3Point, RationalLine, RationalPlane, plane_through_lines
from incilab.incidence import (
    Configuration,
    coplanar_buckets,
    count_incidences,
    max_coplanar_lines,
)
from incilab.partition import (
    PartitionPoly,
    classes_crossed,
    classify_lines,
    classify_points,
    degree_budget,
)
from incilab.pipeline import (
    CSV_COLUMNS,
    PipelineError,
    WindowError,
    _detect_planes,
    _levels_for_degree,
    full_report,
    ratio_denominator,
    run_stage1,
    run_stage2,
    write_csv,
    write_report_json,
)


def gen(family, seed=0, **params):
    return generate(GeneratorSpec(family, params, seed=seed))


# -- stage 1 -----------------------------------------------------------------------


def test_level_count_tracks_degree_budget():
    cfg = gen("random", m=40, n=10, seed=2)
    assert run_stage1(cfg, D_override=1).t == 1
    assert run_stage1(cfg, D_override=3).t == 2
    big = gen("random", m=400, n=20, seed=2)
    assert run_stage1(big, D_override=8).t == 4


def test_levels_for_degree_is_the_largest_budget_within_d():
    budgets = [degree_budget(t) for t in range(1, 31)]
    assert budgets[-1] > 2000
    for d in range(1, 2001):
        t = _levels_for_degree(d)
        assert t >= 1
        assert t == max(k for k, b in enumerate(budgets, 1) if b <= d)
    with pytest.raises(ValueError):
        _levels_for_degree(0)


def test_deep_ladder_on_tiny_cloud_fails_honestly():
    # forcing four levels onto 40 points leaves classes too small to bisect
    # without zeros, and the search refuses to certify such a cut
    from incilab.partition import PartitionBudgetError

    cfg = gen("random", m=40, n=10, seed=2)
    with pytest.raises(PartitionBudgetError) as exc:
        run_stage1(cfg, D_override=8)
    assert "level" in str(exc.value)


def test_planar_family_crosses_cells_without_pruning():
    st = run_stage1(gen("elekes2d", N=2))
    assert st.identity == {
        "I": 16,
        "surface_surface": 0,
        "surface_crossing": 0,
        "cells_crossing": 16,
        "cells_contained": 0,
    }
    assert st.pruned_total == 0 and st.residual_incidences == 16
    assert st.components == []


def test_forced_plane_surface_prunes_planar_family():
    cfg = gen("elekes2d", N=2)
    override = PartitionPoly.from_levels([Z, X - TriPoly.constant(1)])
    st = run_stage1(cfg, partition_override=override)
    assert st.pruned_by_cause == {"planar": 16, "conic": 0, "regulus": 0}
    assert st.cross_charges == 0 and st.residual_incidences == 0
    assert st.components == [("planar", "plane (0, 0, 1, 0)")]
    assert st.residual.m == 0 and st.residual.n == 0
    assert st.residual_contained_max_coplanar == 0
    assert st.residual_coplanar_within_degree


def _cone_off_the_origin():
    """Five lines through (1/2, -1, 2/3) with directions (1, i, i^2), whose
    feet have w = 3 and w = 6, the apex as the only point, and the cone
    (y + 1)^2 - (x - 1/2)(z - 2/3) that holds them."""
    apex = Rational3Point(Fraction(1, 2), -1, Fraction(2, 3))
    lines = tuple(RationalLine(apex, (1, i, i * i)) for i in range(5))
    assert {line.base.ints[3] for line in lines} == {3, 6}
    x, y, z = (v - TriPoly.constant(c) for v, c in zip((X, Y, Z), apex.coords))
    return Configuration((apex,), lines, {}), y * y - x * z


@pytest.mark.parametrize(
    "cfg, level, apex",
    [
        (gen("concurrent", k=5), Y * Y - X * Z, "(0,0,0)"),
        (*_cone_off_the_origin(), "(1/2,-1,2/3)"),
    ],
    ids=["origin", "off-the-origin"],
)
def test_forced_cone_surface_prunes_concurrent_family(cfg, level, apex):
    st = run_stage1(cfg, partition_override=PartitionPoly.from_levels([level]))
    assert st.pruned_by_cause["conic"] == 5
    assert st.cross_charges == 0 and st.residual_incidences == 0
    assert st.components == [("conic", f"cone apex {apex}")]


@pytest.mark.parametrize(
    # x = 100 misses every point of the configuration (1 <= x <= 4)
    "levels",
    [[X * Y - Z], [X * Y - Z, X - TriPoly.constant(100)]],
    ids=["saddle", "saddle-and-far-plane"],
)
def test_forced_saddle_surface_prunes_both_rulings_as_regulus(levels):
    cfg = gen("ruled_surface", kind="hp", k=8)
    override = PartitionPoly.from_levels(levels)
    st = run_stage1(cfg, partition_override=override, include_reguli=True)
    assert st.pruned_by_cause["regulus"] == 32
    assert st.residual_incidences == 0
    assert st.components == [("regulus", "regulus (0, 0, 0, 1, 0, 0, 0, 0, -1, 0)")]


def _saddle_grid(side: int) -> Configuration:
    """The 4 + 4 rulings x = a and y = b (1 <= a, b <= 4) of z = x y, and the
    side x side points (a, b, a b) of the saddle, 1 <= a, b <= side."""
    rulings = [RationalLine(Rational3Point(a, 0, 0), (0, 1, a)) for a in range(1, 5)]
    rulings += [RationalLine(Rational3Point(0, b, 0), (1, 0, b)) for b in range(1, 5)]
    points = [Rational3Point(a, b, a * b) for a in range(1, side + 1) for b in range(1, side + 1)]
    return Configuration(tuple(points), tuple(rulings), {})


@pytest.mark.parametrize(
    # m^2 > n^3 (36 points, 8 lines) turns the regulus search on; m^2 <= n^3 leaves it off
    "side, regime, reguli",
    [(6, "large-m", True), (4, "small-m", False)],
    ids=["large-m", "small-m"],
)
def test_the_degree_plan_gates_the_regulus_search(side, regime, reguli):
    cfg = _saddle_grid(side)
    total = count_incidences(cfg).total
    st = run_stage1(cfg, partition_override=PartitionPoly.from_levels([X * Y - Z]))
    assert st.plan.regime == regime
    pruned = total if reguli else 0
    assert st.pruned_by_cause == {"planar": 0, "conic": 0, "regulus": pruned}
    assert st.residual_incidences == total - pruned
    saddle = ("regulus", "regulus (0, 0, 0, 1, 0, 0, 0, 0, -1, 0)")
    assert st.components == ([saddle] if reguli else [])


def test_stage1_accounting_on_random_config():
    cfg = gen("random", m=200, n=50, seed=3)
    st = run_stage1(cfg, seed=3)
    total = count_incidences(cfg).total
    ident = st.identity
    assert ident["I"] == total
    assert ident["cells_contained"] == 0
    assert (
        ident["surface_surface"] + ident["surface_crossing"] + ident["cells_crossing"]
        == total
    )
    assert st.pruned_total + st.cross_charges + st.residual_incidences == total
    assert st.occupancy_max <= st.occupancy_bound
    assert st.max_cross_roots <= st.degree_used


def test_plane_search_scans_every_contained_pair():
    # 40 lines in each level plane z, z - 1, x - 100, listed plane by plane:
    # 6360 pairs come before the first pair inside x = 100
    part = PartitionPoly.from_levels(
        [Z, Z - TriPoly.constant(1), X - TriPoly.constant(100)]
    )
    lines = (
        [RationalLine(Rational3Point(0, i, 0), (1, 0, 0)) for i in range(40)]
        + [RationalLine(Rational3Point(0, i, 1), (1, 1, 0)) for i in range(40)]
        + [RationalLine(Rational3Point(100, i, 0), (0, 0, 1)) for i in range(40)]
    )
    planes = _detect_planes(part, coplanar_buckets(lines))
    assert [p.coeffs for p in planes] == [(0, 0, 1, 0), (0, 0, 1, -1), (1, 0, 0, -100)]


def test_stage1_requires_a_degree_source():
    cfg = gen("concurrent", k=5)  # m = 1 sits outside the plan range
    with pytest.raises(OutOfRangeError):
        run_stage1(cfg)
    st = run_stage1(cfg, D_override=2)
    assert st.identity["I"] == 5


@pytest.mark.parametrize("bad", [2.5, True, 2.0])
def test_degree_overrides_must_be_ints(bad):
    # refused by name, not truncated (E 2.5 ran as 2) nor written into the
    # report as it came (D 2.5 was the degree target 2.5, True was true)
    cfg = gen("grid3d", N=3)
    with pytest.raises(ValueError, match="D_override must be an int"):
        run_stage1(cfg, D_override=bad)
    st1 = run_stage1(cfg, seed=0)
    with pytest.raises(ValueError, match="E_override must be an int"):
        run_stage2(st1.residual, plan=st1.plan, E_override=bad)
    for name in ("D_override", "E_override"):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            full_report(cfg, **{name: bad})


def test_stage1_empty_input_yields_zero_report():
    st = run_stage1(Configuration((), (), {}), D_override=1)
    assert st.identity["I"] == 0
    assert st.residual.m == 0


def _recount(cfg, point_idx, line_idx):
    """Incidences between two index subsets, counted on the sub-configuration."""
    sub = Configuration(
        tuple(cfg.points[i] for i in point_idx),
        tuple(cfg.lines[i] for i in line_idx),
        {},
    )
    return count_incidences(sub).total if sub.m and sub.n else 0


ONE = TriPoly.constant(1)
# (level, point on its zero set at parameters (a, b), a line through that
# point lying in the zero set): two planes, a saddle and a cone at the origin
SURFACES = (
    (Z, lambda a, b: (a, b, 0), lambda a, b: ((a, b, 0), (1, a, 0))),
    (X - ONE, lambda a, b: (1, a, b), lambda a, b: ((1, a, b), (0, 1, b))),
    (X * Y - Z, lambda a, b: (a, b, a * b), lambda a, b: ((a, b, a * b), (0, 1, a))),
    (
        Y * Y - X * Z,
        lambda a, b: (a * a, a * b, b * b),
        lambda a, b: ((0, 0, 0), (a * a, a * b, b * b) if a or b else (1, 0, 0)),
    ),
)
rational = st.sampled_from(
    [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)]
)
rpoint = st.builds(Rational3Point, rational, rational, rational)
direction = st.sampled_from([d for d in product(range(-2, 3), repeat=3) if any(d)])


@st.composite
def ledger_inputs(draw):
    """Points and lines on and off one or two low-degree level surfaces,
    with integer and non-integer coordinates, concurrent and parallel lines."""
    surfaces = draw(st.lists(st.sampled_from(SURFACES), min_size=1, max_size=2, unique=True))
    points = draw(st.lists(rpoint, max_size=6))
    lines = []
    for _ in range(draw(st.integers(1, 10))):
        _level, on_surface, ruling = draw(st.sampled_from(surfaces))
        a, b = draw(rational), draw(rational)
        points.append(Rational3Point(*on_surface(a, b)))
        if draw(st.booleans()):
            base, d = ruling(a, b)
            points.append(Rational3Point(*base))
            lines.append(RationalLine(Rational3Point(*base), d))
    points = list(dict.fromkeys(points))
    for _ in range(draw(st.integers(0, 3))):
        lines.append(RationalLine(draw(st.sampled_from(points)), draw(direction)))
    hub = draw(st.sampled_from(points))  # concurrent lines through one point
    lines += [RationalLine(hub, d) for d in draw(st.lists(direction, max_size=3))]
    shared = draw(direction)  # parallel lines
    lines += [RationalLine(b, shared) for b in draw(st.lists(rpoint, max_size=3))]
    lines = list(dict.fromkeys(lines)) or [RationalLine(points[0], (1, 0, 0))]
    cfg = Configuration(tuple(points), tuple(lines), {})
    return cfg, [level for level, _p, _r in surfaces]


@settings(deadline=None, max_examples=80)
@given(ledger_inputs())
def test_stage1_ledger_matches_sub_configuration_recount(inputs):
    cfg, levels = inputs
    part = PartitionPoly.from_levels(levels)
    st1 = run_stage1(cfg, partition_override=part, include_reguli=True)

    surface, cells = classify_points(part, cfg.points)
    lc = classify_lines(part, cfg.lines)
    crossing = [i for i, _ in lc.crossing]
    total = count_incidences(cfg).total
    assert st1.identity == {
        "I": total,
        "surface_surface": _recount(cfg, surface, lc.contained),
        "surface_crossing": _recount(cfg, surface, crossing),
        "cells_crossing": _recount(cfg, cells, crossing),
        "cells_contained": _recount(cfg, cells, lc.contained),
    }
    assert st1.pruned_total + st1.cross_charges + st1.residual_incidences == total
    assert st1.residual_cell_incidences == _recount(cfg, cells, range(cfg.n))
    assert min(st1.residual_surface_incidences, st1.cross_charges) >= 0


def _sign(v):
    return (v > 0) - (v < 0)


@settings(deadline=None, max_examples=80)
@given(ledger_inputs())
def test_level_wise_zero_set_matches_expanded_product(inputs):
    # oracle: multiply the levels out and work on the product f
    cfg, levels = inputs
    part = PartitionPoly.from_levels(levels)
    levels = part.levels
    f = reduce(lambda a, b: a * b, levels)
    contained = [i for i, line in enumerate(cfg.lines) if line_in_zero_set(f, line)]
    crossing = [
        (i, count_real_roots(restrict_to_line(f, line)))
        for i, line in enumerate(cfg.lines)
        if i not in contained
    ]
    lc = classify_lines(part, cfg.lines)
    assert (lc.contained, lc.crossing) == (contained, crossing)

    for i, _roots in crossing:
        line = cfg.lines[i]
        expected = set()
        for t in sign_gap_samples(restrict_to_line(f, line)):
            sv = tuple(_sign(g.evaluate_point(line.point_at(t))) for g in levels)
            assert 0 not in sv
            expected.add(sv)
        assert classes_crossed(part, line) == expected

    spanned = []
    for a, b in combinations(contained, 2):
        plane = plane_through_lines(cfg.lines[a], cfg.lines[b])
        if isinstance(plane, RationalPlane) and plane not in spanned:
            spanned.append(plane)
    buckets = coplanar_buckets([cfg.lines[i] for i in contained])
    assert _detect_planes(part, buckets) == [
        plane for plane in spanned if divides_by_plane(f, plane)
    ]


# -- stage 2 -----------------------------------------------------------------------


def test_stage2_with_explicit_degree():
    cfg = gen("grid3d", N=3)
    st1 = run_stage1(cfg, seed=0)
    res = st1.residual
    st2 = run_stage2(res, plan=st1.plan, E_override=2, seed=0)
    assert st2.stage == "2" and st2.E == 2
    assert st2.class_point_quota == Fraction(res.m, 8)
    assert st2.class_line_quota == Fraction(res.n, 4)
    assert set(st2.flagged_classes) <= set(st2.class_line_counts)
    ident = st2.identity
    assert ident["I"] == count_incidences(res).total
    assert sum(st2.class_line_counts.values()) >= 0


def test_stage2_flags_out_of_window_degrees():
    cfg = gen("grid3d", N=3)
    st1 = run_stage1(cfg, seed=0)
    low = run_stage2(st1.residual, plan=st1.plan, E_override=1)
    assert any("below lower bound" in f for f in low.flags)
    natural = run_stage2(st1.residual, plan=st1.plan)
    assert any(f.startswith("window-violated") for f in natural.flags)
    assert natural.E == 2


def test_stage2_needs_a_window_or_override():
    res = gen("random", m=10, n=5, seed=1)
    with pytest.raises(WindowError):
        run_stage2(res, plan=None)
    with pytest.raises(ValueError):
        run_stage2(res, plan=None, E_override=0)


# -- one count and one plane bucketing per report -------------------------------------


def _assert_residual_facts_match_recounts(st1):
    """Stage 1's renumbered residual tally and bucket-derived residual `s`
    equal a fresh count and a fresh coplanarity pass on the residual."""
    res = st1.residual
    assert st1.residual_tally == count_incidences(res)
    res_contained = classify_lines(st1.partition, res.lines).contained
    s_res, _witness = max_coplanar_lines([res.lines[i] for i in res_contained])
    assert st1.residual_contained_max_coplanar == s_res


small_families = st.one_of(
    st.builds(lambda N: ("grid3d", {"N": N}), st.integers(2, 4)),
    st.builds(
        lambda k, N: ("coplanar_pack", {"k": k, "N": N}), st.integers(1, 3), st.integers(1, 2)
    ),
    st.builds(lambda N: ("elekes2d", {"N": N}), st.integers(1, 3)),
    st.builds(
        lambda kind, k: ("ruled_surface", {"kind": kind, "k": k}),
        st.sampled_from(["plane", "cone", "hp"]),
        st.integers(2, 8),
    ),
)


@settings(deadline=None, max_examples=60)
@given(
    small_families,
    st.sampled_from([None, 2, 4, 8, 12]),
    st.sampled_from([None, 2]),
    st.integers(0, 3),
)
@example(("coplanar_pack", {"k": 3, "N": 2}), 12, None, 0)  # stage 1 prunes one plane
def test_report_reuses_its_tally_and_buckets_exactly(family, D, E, seed):
    cfg = gen(family[0], **family[1])
    try:
        rep = full_report(cfg, D_override=D, E_override=E, seed=seed)
    except PipelineError as err:
        # only stage 1's plan may fail here: a stage-2 fault is a failure
        assert err.stage == "stage1", err
        with pytest.raises(OutOfRangeError):
            run_stage1(cfg, D_override=D, seed=seed)
        return
    # standalone stages count for themselves
    st1 = run_stage1(cfg, D_override=D, seed=seed)
    _assert_residual_facts_match_recounts(st1)
    assert rep.stages[0].to_json_dict() == st1.to_json_dict()
    if len(rep.stages) == 2:
        st2 = run_stage2(st1.residual, plan=st1.plan, E_override=E, seed=seed)
        assert rep.stages[1].to_json_dict() == st2.to_json_dict()


@settings(deadline=None, max_examples=80)
@given(ledger_inputs(), st.booleans())
def test_residual_tally_and_coplanarity_survive_pruning(inputs, reguli):
    # regulus pruning on or off changes which surface lines stay residual
    cfg, levels = inputs
    part = PartitionPoly.from_levels(levels)
    st1 = run_stage1(cfg, partition_override=part, include_reguli=reguli)
    _assert_residual_facts_match_recounts(st1)
    given_tally = run_stage1(
        cfg, partition_override=part, include_reguli=reguli, tally=count_incidences(cfg)
    )
    assert given_tally.to_json_dict() == st1.to_json_dict()
    assert given_tally.residual_tally == st1.residual_tally


def test_residual_coplanarity_counts_only_unpruned_lines_of_a_bucket():
    # z = 0 meets the saddles xy = z and (x - 1)(y - 1) = z in four lines that
    # stay residual; the plane z = 5 divides f and prunes the five lines in it
    saddles = [X * Y - Z, (X - ONE) * (Y - ONE) - Z]
    part = PartitionPoly.from_levels([Z - TriPoly.constant(5)] + saddles)
    low = [
        ((0, 0, 0), (1, 0, 0)),
        ((0, 0, 0), (0, 1, 0)),
        ((0, 1, 0), (1, 0, 0)),
        ((1, 0, 0), (0, 1, 0)),
    ]
    high = [((0, i, 5), (1, i, 0)) for i in range(5)]
    lines = tuple(RationalLine(Rational3Point(*b), d) for b, d in low + high)
    points = (Rational3Point(0, 0, 0), Rational3Point(1, 1, 0), Rational3Point(2, 3, 5))
    cfg = Configuration(points, lines, {})
    st1 = run_stage1(cfg, partition_override=part, include_reguli=False)
    assert st1.components == [("planar", "plane (0, 0, 1, -5)")]
    assert st1.residual.n == 4
    assert st1.residual_contained_max_coplanar == 4
    _assert_residual_facts_match_recounts(st1)
    # one low line left: it is skew to the pruned ones and in no bucket of its
    # own, so the residual's coplanarity is 1
    one = Configuration(points, lines[3:], {})
    st1 = run_stage1(one, partition_override=part, include_reguli=False)
    assert st1.residual.n == 1
    assert st1.residual_contained_max_coplanar == 1


def test_stages_reject_a_tally_of_another_configuration():
    cfg = gen("grid3d", N=2)
    other = count_incidences(gen("grid3d", N=3))
    with pytest.raises(ValueError):
        run_stage1(cfg, tally=other)
    with pytest.raises(ValueError):
        run_stage2(cfg, E_override=2, tally=other)


# -- aggregate report -----------------------------------------------------------------


def test_ratio_denominator_exact_on_perfect_powers():
    assert ratio_denominator(16, 16, 1) == 80


def test_full_report_assembles_bounds_and_stages():
    cfg = gen("elekes2d", N=2)
    rep = full_report(cfg, seed=0)
    assert (rep.family, rep.m, rep.n, rep.s, rep.I) == ("elekes2d", 16, 8, 8, 16)
    assert rep.witness_plane == (0, 0, 1, 0)
    assert rep.max_richness == 2
    assert rep.ratio == Fraction(rep.I) / ratio_denominator(16, 8, 8)
    assert rep.bound_trivial == 80  # min(m^2 + n, n^2 + m)
    assert rep.bound_midrange is None  # 16^2 != 8^3
    assert [st.stage for st in rep.stages] == ["1", "2"]


def test_full_report_on_the_boundary_regime():
    # m^2 == n^3 defers the ladder and reports the border-range bound
    cfg = gen("random", m=8, n=4, seed=6)
    rep = full_report(cfg, seed=6)
    assert rep.bound_midrange is not None
    st1 = rep.stages[0]
    assert st1.plan.j is None
    assert len(rep.stages) == 1
    assert any("stage 2 skipped" in f for f in rep.flags)


def test_full_report_wraps_plan_failures():
    with pytest.raises(PipelineError) as exc:
        full_report(gen("concurrent", k=5))
    assert exc.value.stage == "stage1"
    rep = full_report(gen("concurrent", k=5), D_override=2)
    assert rep.I == 5


def test_report_files_round_trip(tmp_path):
    rep = full_report(gen("grid3d", N=2), seed=0)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    write_report_json(rep, jpath)
    data = json.loads(jpath.read_text())
    assert data["I"] == 24
    assert data["bounds"]["trivial"] == rep.bound_trivial
    assert isinstance(data["ratio_float"], float)

    write_csv([rep], cpath)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    row = lines[1].split(",")
    assert row[0] == "grid3d"
    assert [int(v) for v in row[1:5]] == [8, 12, 4, 24]
