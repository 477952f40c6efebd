"""Two-stage partitioning experiment harness with exact accounting.

Stage 1 partitions the points with a polynomial of the planned degree,
splits entities by the zero set, prunes plane/cone/regulus components of
the surface under first-come-first-serve assignment, and buckets every
incidence of the input into pruned / cross-charge / residual.  Each
component decides its points and lines on integer forms; `algebra` holds
the `Fraction` references.  Stage 2 repeats the partitioning on the
residual at the window degree E and reports per-class occupancy and
line-crossing counts against their target quotas.

Both stages share one skeleton, which walks points_by_line of the report's
single incidence count (renumbered for the residual in stage 2) once to
bucket every incidence by the surface/cell and contained/crossing index
sets.  The books balance when those buckets add up to the count, which
checks that the split covers every point and line exactly once.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import bounds as bounds_mod
from .bounds import DegreePlan, OutOfRangeError, degree_plan
from .geom import RationalLine, RationalPlane, Rational3Point
from .incidence import (
    Configuration,
    IncidenceTally,
    assign_to_components,
    coplanar_buckets,
    count_incidences,
    max_coplanar_lines,
    regulus_through,
    richness_histogram,
)
from .partition import (
    PartitionPoly,
    build_partition,
    cell_occupancy,
    classes_crossed,
    classify_lines,
    classify_points,
    degree_budget,
    form_value,
    # bound as the names perfbench/tracing.py wraps
    is_cone_form as is_cone_with_apex,
    line_in_zero_set,
    plane_divides_form as divides_by_plane,
    regulus_divides_form as tp_divides,
)
from .powers import cmp_power_products
from .qformat import qstr


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


class LedgerError(AssertionError):
    """A stage's incidences do not balance across its point and line buckets."""


class WindowError(ValueError):
    """No usable window for the second-stage degree E."""


def _check_override(name: str, value) -> None:
    """A degree override is None or an int; a bool or a float is refused,
    not truncated or written into the report as it came."""
    if value is not None and type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _levels_for_degree(d: int) -> int:
    """Number of bisection levels for degree target d: the largest t >= 1
    whose per-level degree budget stays within d."""
    if d < 1:
        raise ValueError("degree target must be >= 1")
    t = 1
    while degree_budget(t + 1) <= d:
        t += 1
    return t


@dataclass
class StageReport:
    stage: str
    degree_target: int | None
    degree_used: int
    t: int
    E: int | None = None
    partition: PartitionPoly | None = None
    plan: DegreePlan | None = None
    counts: dict = field(default_factory=dict)
    identity: dict = field(default_factory=dict)
    pruned_by_cause: dict = field(default_factory=dict)
    cross_charges: int = 0
    residual_surface_incidences: int = 0
    residual_cell_incidences: int = 0
    components: list = field(default_factory=list)
    occupancy: dict = field(default_factory=dict)
    occupancy_max: int = 0
    occupancy_bound: int = 0
    on_surface_points: int = 0
    max_cross_roots: int = 0
    residual: Configuration | None = None
    residual_tally: IncidenceTally | None = None  # not serialized
    residual_contained_max_coplanar: int | None = None
    residual_coplanar_within_degree: bool | None = None
    class_point_quota: Fraction | None = None
    class_line_quota: Fraction | None = None
    class_line_counts: dict = field(default_factory=dict)
    flagged_classes: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    @property
    def pruned_total(self) -> int:
        return sum(self.pruned_by_cause.values())

    @property
    def residual_incidences(self) -> int:
        return self.residual_surface_incidences + self.residual_cell_incidences

    def to_json_dict(self) -> dict:
        return _jsonable(
            {
                "stage": self.stage,
                "degree_target": self.degree_target,
                "degree_used": self.degree_used,
                "t": self.t,
                "E": self.E,
                "partition": None
                if self.partition is None
                else self.partition.to_json_dict(),
                "plan": None if self.plan is None else self.plan.to_json_dict(),
                "counts": self.counts,
                "identity": self.identity,
                "pruned_by_cause": self.pruned_by_cause,
                "pruned_total": self.pruned_total,
                "cross_charges": self.cross_charges,
                "residual_surface_incidences": self.residual_surface_incidences,
                "residual_cell_incidences": self.residual_cell_incidences,
                "components": self.components,
                "occupancy": {
                    _sign_str(k): v for k, v in sorted(self.occupancy.items())
                },
                "occupancy_max": self.occupancy_max,
                "occupancy_bound": self.occupancy_bound,
                "on_surface_points": self.on_surface_points,
                "max_cross_roots": self.max_cross_roots,
                "residual_sizes": None
                if self.residual is None
                else {"m": self.residual.m, "n": self.residual.n},
                "residual_contained_max_coplanar": self.residual_contained_max_coplanar,
                "residual_coplanar_within_degree": self.residual_coplanar_within_degree,
                "class_point_quota": self.class_point_quota,
                "class_line_quota": self.class_line_quota,
                "class_line_counts": {
                    _sign_str(k): v for k, v in sorted(self.class_line_counts.items())
                },
                "flagged_classes": [_sign_str(k) for k in self.flagged_classes],
                "flags": self.flags,
            }
        )


def _sign_str(sv) -> str:
    return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in sv)


def _occupancy_bound(m: int, t: int, epsilon: Fraction) -> int:
    return math.ceil((Fraction(1, 2) + Fraction(epsilon)) ** t * m)


# A plane or regulus divides f = g_1 * ... * g_t exactly when it divides some
# level: a linear form is prime in Q[x,y,z], and a quadric through three
# pairwise skew lines is irreducible over Q, since two rational planes
# holding the three lines would hold two of them together, making those two
# coplanar.  So f is never expanded, and every component is decided on the
# levels' integer forms by `partition`'s kernels (`plane_divides_form`,
# `is_cone_form`, `regulus_divides_form`, `form_value`, `line_in_zero_set`);
# `algebra` holds their `Fraction` references.


def _detect_planes(part: PartitionPoly, buckets: dict):
    """The planes of `coplanar_buckets` keys that divide f, in key order."""
    return [
        RationalPlane(*key)
        for key in buckets
        if any(divides_by_plane(form, key) for form in part.forms)
    ]


@dataclass
class _Cone:
    """A cone-shaped level of f, as its `_form`, and the cone's apex."""

    form: tuple
    apex: Rational3Point

    def contains_point(self, p: Rational3Point) -> bool:
        return form_value(self.form, p.ints) == 0

    def contains_line(self, line: RationalLine) -> bool:
        return line_in_zero_set(self.form, line)


def _detect_cones(
    part: PartitionPoly,
    points: Sequence[Rational3Point],
    surface_idx: list[int],
    richness: dict[int, int],
) -> list[_Cone]:
    """Cone-shaped levels of degree 2 or more apexed at rich surface points."""
    candidates = sorted(
        (i for i in surface_idx if richness.get(i, 0) >= 2),
        key=lambda i: (-richness.get(i, 0), i),
    )[:8]
    out = []
    seen = set()
    for form in part.forms:
        if sum(form[0][:4]) < 2:  # a + b + c + k = deg(g)
            continue
        for p in (points[i] for i in candidates):
            if is_cone_with_apex(form, p.ints) and (form, p) not in seen:
                seen.add((form, p))
                out.append(_Cone(form, p))
    return out


def _detect_reguli(
    part: PartitionPoly, lines: Sequence[RationalLine], contained: list[int], seed: int
):
    """Quadrics through seeded skew triples of contained lines dividing f,
    each decided on the levels' forms by the triple's transversals."""
    if len(contained) < 3:
        return []
    rng = random.Random(seed * 7919 + 1)
    out = []
    seen = set()
    for _ in range(20):
        trio = [lines[i] for i in rng.sample(contained, 3)]
        try:
            quad = regulus_through(*trio)
        except ValueError:  # DegeneracyError among them
            continue
        if quad in seen:
            continue
        seen.add(quad)
        if any(tp_divides(form, *trio) for form in part.forms):
            out.append(quad)
    return out


def _split_and_ledger(
    report: StageReport,
    cfg: Configuration,
    epsilon: Fraction,
    seed: int,
    part: PartitionPoly | None = None,
    tally: IncidenceTally | None = None,
):
    """The skeleton both stages share.

    Builds a partition at the report's degree target unless one is given,
    splits the points and lines by its zero set, fills the counts, occupancy
    and root certificate, and buckets the incidences of `tally`, the count of
    `cfg` (made here if not given).  Returns (tally, surface_idx, cell_idx,
    contained, crossing_idx), or None for an input without points or lines.
    """
    if tally is None:
        tally = count_incidences(cfg)
    elif len(tally.points_by_line) != cfg.n or len(tally.per_point) != cfg.m:
        raise ValueError("the incidence tally does not match the configuration")
    if cfg.m == 0 or cfg.n == 0:
        report.identity = {
            "I": 0,
            "surface_surface": 0,
            "surface_crossing": 0,
            "cells_crossing": 0,
            "cells_contained": 0,
        }
        return None
    if part is None:
        t = _levels_for_degree(report.degree_target)
        part = build_partition(cfg.points, t, epsilon, seed)
    report.partition = part
    report.t = part.t
    report.degree_used = part.degree

    surface_idx, cell_idx = classify_points(part, cfg.points)
    lc = classify_lines(part, cfg.lines)
    contained = lc.contained
    crossing_idx = [i for i, _ in lc.crossing]
    report.max_cross_roots = lc.max_roots
    report.counts = {
        "P_surface": len(surface_idx),
        "P_cells": len(cell_idx),
        "L_contained": len(contained),
        "L_crossing": len(crossing_idx),
    }

    occ, on_surface = cell_occupancy(part, cfg.points)
    report.occupancy = occ
    report.on_surface_points = on_surface
    report.occupancy_max = max(occ.values(), default=0)
    report.occupancy_bound = _occupancy_bound(cfg.m, part.t, epsilon)

    # Bucket every incidence by membership of its point in the surface or
    # cell set and of its line in the contained or crossing set, so a point
    # or line in both sets or in neither breaks I == ss + sc + cc.
    surface, cells = set(surface_idx), set(cell_idx)
    contained_set, crossing_set = set(contained), set(crossing_idx)
    ss = sc = cc = c1 = 0
    for li, hits in enumerate(tally.points_by_line):
        at_surface = sum(1 for pi in hits if pi in surface)
        at_cells = sum(1 for pi in hits if pi in cells)
        if li in contained_set:
            ss += at_surface
            c1 += at_cells
        if li in crossing_set:
            sc += at_surface
            cc += at_cells
    report.identity = {
        "I": tally.total,
        "surface_surface": ss,
        "surface_crossing": sc,
        "cells_crossing": cc,
        "cells_contained": c1,
    }
    if c1 != 0:
        raise LedgerError(
            f"stage {report.stage}: a cell point claims to lie on a fully "
            "contained line"
        )
    if tally.total != ss + sc + cc:
        raise LedgerError(f"stage-{report.stage} accounting identity failed")
    return tally, surface_idx, cell_idx, contained, crossing_idx


def run_stage1(
    cfg: Configuration,
    D_override: int | None = None,
    seed: int = 0,
    epsilon: Fraction = Fraction(1, 10),
    partition_override: PartitionPoly | None = None,
    include_reguli: bool | None = None,
    tally: IncidenceTally | None = None,
) -> StageReport:
    """First-stage partition, surface pruning, and exact incidence ledger."""
    _check_override("D_override", D_override)
    m, n = cfg.m, cfg.n
    plan = None
    if m >= 1 and n >= 1:
        try:
            plan = degree_plan(m, n)
        except OutOfRangeError:
            if D_override is None and partition_override is None:
                raise
    if D_override is not None:
        D = D_override
    elif plan is not None:
        D = plan.D_int
    elif partition_override is not None:
        D = max(1, partition_override.degree)
    else:
        raise PipelineError("stage1", "no degree plan and no override")
    if D < 1:
        raise ValueError("degree target must be >= 1")

    report = StageReport(
        stage="1", degree_target=D, degree_used=0, t=0, plan=plan
    )
    split = _split_and_ledger(report, cfg, epsilon, seed, partition_override, tally)
    if split is None:
        report.residual = Configuration((), (), {})
        return report
    tally, surface_idx, cell_idx, contained, _crossing = split
    part = report.partition

    # component inventory, first-come-first-serve
    richness_l1: dict[int, int] = {}
    for li in contained:
        for pi in tally.points_by_line[li]:
            richness_l1[pi] = richness_l1.get(pi, 0) + 1
    buckets = coplanar_buckets([cfg.lines[i] for i in contained])
    comps = [("planar", f"plane {pl.coeffs}", pl) for pl in _detect_planes(part, buckets)]
    comps += [
        ("conic", f"cone apex ({','.join(map(qstr, c.apex.coords))})", c)
        for c in _detect_cones(part, cfg.points, surface_idx, richness_l1)
    ]
    if include_reguli is None:
        include_reguli = plan is not None and plan.regime == "large-m"
    if include_reguli:
        reguli = _detect_reguli(part, cfg.lines, contained, seed)
        comps += [("regulus", f"regulus {quad.coeffs}", quad) for quad in reguli]
    report.components = [(cause, description) for cause, description, _ in comps]

    # Every component divides f, so only surface points and contained lines
    # can be assigned; cell incidences are residual by the identity.
    surfaces = [surface for *_, surface in comps]
    assign = assign_to_components(cfg.points, cfg.lines, surfaces, tally.points_by_line)
    if any(assign.point_comp[i] is not None for i in cell_idx):
        raise AssertionError("a cell point lies on a pruned surface component")
    pruned: dict[str, int] = {"planar": 0, "conic": 0, "regulus": 0}
    for (cause, *_), within in zip(comps, assign.within_incidences):
        pruned[cause] += within
    ident = report.identity
    report.pruned_by_cause = pruned
    report.cross_charges = assign.cross_charges
    report.residual_surface_incidences = (
        ident["surface_surface"]
        + ident["surface_crossing"]
        - report.pruned_total
        - assign.cross_charges
    )
    report.residual_cell_incidences = ident["cells_crossing"]

    # The residual keeps points and lines in order: its tally is this one renumbered.
    kept_points = [i for i, c in enumerate(assign.point_comp) if c is None]
    kept_lines = [j for j, c in enumerate(assign.line_comp) if c is None]
    renumber = {i: k for k, i in enumerate(kept_points)}
    report.residual = Configuration(
        points=tuple(cfg.points[i] for i in kept_points),
        lines=tuple(cfg.lines[j] for j in kept_lines),
        meta={"residual_of": cfg.meta.get("family", "custom")},
    )
    report.residual_tally = IncidenceTally.of(
        len(kept_points),
        [[renumber[i] for i in tally.points_by_line[j] if i in renumber] for j in kept_lines],
    )
    # `kept` holds the residual's positions in `contained`; a plane through
    # two of them is a bucket key, and its bucket holds every one in it.
    kept = {a for a, i in enumerate(contained) if assign.line_comp[i] is None}
    s_res = max([len(b & kept) for b in buckets.values()] + [min(len(kept), 1)])
    report.residual_contained_max_coplanar = s_res
    report.residual_coplanar_within_degree = s_res <= max(part.degree, 1)
    return report


def run_stage2(
    residual: Configuration,
    plan: DegreePlan | None = None,
    E_override: int | None = None,
    seed: int = 0,
    epsilon: Fraction = Fraction(1, 10),
    tally: IncidenceTally | None = None,
) -> StageReport:
    """Second-stage partition of the residual at the window degree E."""
    flags: list[str] = []
    _check_override("E_override", E_override)
    if E_override is not None:
        E = E_override
        if E < 1:
            raise ValueError("E must be >= 1")
        if plan is not None and plan.e_lo is not None:
            if cmp_power_products([(Fraction(E), Fraction(1))], plan.e_lo) < 0:
                flags.append(
                    f"window-violated: E={E} below lower bound "
                    f"~{float(plan.e_lo_approx):.6g}"
                )
            elif cmp_power_products([(Fraction(E), Fraction(1))], plan.e_hi) > 0:
                flags.append(
                    f"window-violated: E={E} above upper bound "
                    f"~{float(plan.e_hi_approx):.6g}"
                )
    else:
        if plan is None or plan.e_lo is None:
            raise WindowError(
                "no degree window available (midrange or missing plan); pass "
                "an explicit E"
            )
        if plan.window_empty:
            raise WindowError(plan.violated or "empty E window")
        E, inside = plan.smallest_integer_E()
        if not inside:
            flags.append(
                f"window-violated: smallest integer E={E} exceeds upper bound "
                f"~{float(plan.e_hi_approx):.6g}"
            )

    report = StageReport(
        stage="2", degree_target=E, degree_used=0, t=0, E=E, plan=plan, flags=flags
    )
    split = _split_and_ledger(report, residual, epsilon, seed, tally=tally)
    if split is None:
        return report
    _tally, _surface, _cells, _contained, crossing_idx = split
    part = report.partition
    report.class_point_quota = Fraction(residual.m, E ** 3)
    report.class_line_quota = Fraction(residual.n, E * E)

    class_lines: dict[tuple, int] = {key: 0 for key in report.occupancy}
    for i in crossing_idx:
        for sv in classes_crossed(part, residual.lines[i]):
            class_lines[sv] = class_lines.get(sv, 0) + 1
    report.class_line_counts = class_lines
    report.flagged_classes = [
        sv for sv, cnt in sorted(class_lines.items()) if cnt > report.class_line_quota
    ]
    return report


# -- aggregate report ---------------------------------------------------------


@dataclass
class IncidenceReport:
    family: str
    m: int
    n: int
    s: int
    witness_plane: tuple | None
    I: int
    richness: dict
    max_richness: int
    bound_st2d: Fraction | None
    bound_gk: Fraction | None
    bound_trivial: int | None
    bound_midrange: Fraction | None
    ratio: Fraction | None
    stages: list
    flags: list

    def to_json_dict(self) -> dict:
        return _jsonable(
            {
                "family": self.family,
                "m": self.m,
                "n": self.n,
                "s": self.s,
                "witness_plane": self.witness_plane,
                "I": self.I,
                "richness": {str(k): v for k, v in sorted(self.richness.items())},
                "max_richness": self.max_richness,
                "bounds": {
                    "st2d": self.bound_st2d,
                    "gk_A1_B1": self.bound_gk,
                    "trivial": self.bound_trivial,
                    "midrange": self.bound_midrange,
                },
                "ratio": self.ratio,
                "ratio_float": None if self.ratio is None else float(self.ratio),
                "stages": [st.to_json_dict() for st in self.stages],
                "flags": self.flags,
            }
        )

    def csv_row(self) -> list:
        return [
            self.family,
            self.m,
            self.n,
            self.s,
            self.I,
            self.max_richness,
            _csv_num(self.bound_st2d),
            _csv_num(self.bound_gk),
            _csv_num(self.bound_trivial),
            _csv_num(self.ratio),
        ]


CSV_COLUMNS = [
    "family",
    "m",
    "n",
    "s",
    "I",
    "max_richness",
    "bound_st2d",
    "bound_gk_A1_B1",
    "bound_trivial",
    "ratio",
]


def _csv_num(v):
    if v is None:
        return ""
    if isinstance(v, int):
        return v
    return repr(float(v))


def ratio_denominator(m: int, n: int, s: int) -> Fraction:
    """m^{1/2} n^{3/4} + m^{2/3} n^{1/3} s^{1/3} + m + n, rounded down so the
    reported ratio errs on the large side."""
    lead, tail = bounds_mod.gk_terms(m, n, s, "down")
    return lead + tail + m + n


def full_report(
    cfg: Configuration,
    D_override: int | None = None,
    E_override: int | None = None,
    seed: int = 0,
    epsilon: Fraction = Fraction(1, 10),
) -> IncidenceReport:
    """Counting, coplanarity, bounds, and the two-stage pipeline when m, n >= 1.
    `incilab verify` checks the count and the coplanarity against their
    pairwise `Fraction` references."""
    _check_override("D_override", D_override)
    _check_override("E_override", E_override)
    m, n = cfg.m, cfg.n
    flags: list[str] = []
    tally = count_incidences(cfg)
    I = tally.total
    s, witness = max_coplanar_lines(cfg.lines)
    hist = richness_histogram(tally)
    max_rich = max((k for k, v in hist.items() if v and k > 0), default=0)

    bound_st2d = bound_gk = bound_trivial = bound_mid = ratio = None
    if m >= 1 and n >= 1:
        s_eff = max(s, 1)
        bound_st2d = bounds_mod.st2d_bound(m, n)
        bound_gk = bounds_mod.gk_bound(m, n, s_eff)
        bound_trivial = bounds_mod.trivial_bound(m, n)
        if m * m == n ** 3:
            bound_mid = bounds_mod.midrange_bound(m, n, s_eff)[2]
        ratio = Fraction(I) / ratio_denominator(m, n, s_eff)

    stages: list[StageReport] = []
    if m >= 1 and n >= 1:
        try:
            st1 = run_stage1(
                cfg,
                D_override=D_override,
                seed=seed,
                epsilon=epsilon,
                tally=tally,
            )
        except AssertionError:
            raise
        except Exception as err:
            raise PipelineError("stage1", str(err)) from err
        stages.append(st1)
        residual = st1.residual
        if residual is not None and residual.m and residual.n:
            try:
                st2 = run_stage2(
                    residual,
                    plan=st1.plan,
                    E_override=E_override,
                    seed=seed,
                    epsilon=epsilon,
                    tally=st1.residual_tally,
                )
                stages.append(st2)
            except WindowError as err:
                flags.append(f"stage 2 skipped: {err}")
            except AssertionError:
                raise
            except Exception as err:
                raise PipelineError("stage2", str(err)) from err
        else:
            flags.append("stage 2 skipped: empty residual")

    return IncidenceReport(
        family=cfg.meta.get("family", "custom"),
        m=m,
        n=n,
        s=s,
        witness_plane=None if witness is None else witness.coeffs,
        I=I,
        richness=hist,
        max_richness=max_rich,
        bound_st2d=bound_st2d,
        bound_gk=bound_gk,
        bound_trivial=bound_trivial,
        bound_midrange=bound_mid,
        ratio=ratio,
        stages=stages,
        flags=flags,
    )


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return qstr(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_report_json(report: IncidenceReport, path) -> None:
    Path(path).write_text(
        json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )


def write_csv(reports: Sequence[IncidenceReport], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rep in reports:
            writer.writerow(rep.csv_row())
