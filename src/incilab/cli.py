"""Command-line front end: generate, count, bounds, partition, pipeline,
verify.  All output is JSON on stdout unless a path is given."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from .algebra import divides_by_plane
from .bounds import MidrangeError, OutOfRangeError
from .configs import GeneratorSpec, generate, load_config, save_config
from .geom import RationalPlane
from .incidence import (
    _max_coplanar_lines_pairwise,
    _points_by_line_pairwise,
    coplanar_buckets,
    count_incidences,
    max_coplanar_lines,
    richness_histogram,
)
from .partition import (
    PartitionBudgetError,
    _classes_crossed_reference,
    _classify_lines_reference,
    build_partition,
    cell_occupancy,
    classes_crossed,
    classify_lines,
)
from .pipeline import (
    LedgerError,
    PipelineError,
    _detect_planes,
    _jsonable,
    _sign_str,
    full_report,
    ratio_denominator,
    run_stage1,
    write_csv,
    write_report_json,
)
from .qformat import qint


def _parse_params(items):
    """key=value pairs; a value is an int exactly when it is an integer
    literal of the file grammar (`qint`), and stays a string otherwise."""
    params = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"parameter {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        params[key] = value if (num := qint(value)) is None else num
    return params


def _emit(data):
    sys.stdout.write(json.dumps(_jsonable(data), indent=2) + "\n")


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        family=args.family, params=_parse_params(args.params), seed=args.seed
    )
    cfg = generate(spec)
    save_config(cfg, args.out)
    sys.stdout.write(f"wrote {args.out}: m={cfg.m} n={cfg.n}\n")
    return 0


def _cmd_count(args) -> int:
    cfg = load_config(args.config)
    tally = count_incidences(cfg)
    hist = richness_histogram(tally)
    _emit(
        {
            "m": cfg.m,
            "n": cfg.n,
            "I": tally.total,
            "max_richness": max((k for k in hist if k > 0), default=0),
            "richness": {str(k): v for k, v in sorted(hist.items())},
        }
    )
    return 0


def _cmd_bounds(args) -> int:
    out = {
        "m": args.m,
        "n": args.n,
        "s": args.s,
        "st2d": bounds_mod.st2d_bound(args.m, args.n),
        "gk": bounds_mod.gk_bound(args.m, args.n, args.s, A=args.A, B=args.B),
        "trivial": bounds_mod.trivial_bound(args.m, args.n),
    }
    try:
        e, A = bounds_mod.amn_coefficient(args.m, args.n, args.b)
        out["amn"] = {"e": e, "A": A}
    except (MidrangeError, ValueError) as err:
        out["amn"] = {"error": str(err)}
    try:
        j0, k, value = bounds_mod.midrange_bound(args.m, args.n, args.s, args.b)
        out["midrange"] = {
            "j0": j0 if isinstance(j0, Fraction) else float(j0),
            "k": k,
            "value": value,
        }
    except ValueError as err:
        out["midrange"] = {"error": str(err)}
    try:
        out["degree_plan"] = bounds_mod.degree_plan(args.m, args.n).to_json_dict()
    except OutOfRangeError as err:
        out["degree_plan"] = {"error": str(err)}
    _emit(out)
    return 0


def _cmd_partition(args) -> int:
    cfg = load_config(args.config)
    part = build_partition(cfg.points, args.levels, args.eps, args.seed)
    occ, surface = cell_occupancy(part, cfg.points)
    lc = classify_lines(part, cfg.lines)
    _emit(
        {
            "partition": part.to_json_dict(),
            "occupancy": {_sign_str(k): v for k, v in sorted(occ.items())},
            "on_surface": surface,
            "lines_contained": len(lc.contained),
            "lines_crossing": len(lc.crossing),
            "max_roots": lc.max_roots,
        }
    )
    return 0


def _cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    report = full_report(
        cfg,
        D_override=args.D,
        E_override=args.E,
        seed=args.seed,
        epsilon=args.eps,
    )
    if args.out:
        write_report_json(report, args.out)
        sys.stdout.write(f"wrote {args.out}\n")
    else:
        _emit(report.to_json_dict())
    if args.csv:
        write_csv([report], args.csv)
        sys.stdout.write(f"wrote {args.csv}\n")
    return 0


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail))

    tally = count_incidences(cfg)
    check(
        "incidences agree",
        tally.points_by_line == _points_by_line_pairwise(cfg),
        f"I={tally.total}",
    )
    s, witness = max_coplanar_lines(cfg.lines)
    check(
        "coplanarity agrees",
        (s, witness) == _max_coplanar_lines_pairwise(cfg.lines),
        f"s={s}",
    )
    if cfg.m >= 1 and cfg.n >= 1:
        denom = ratio_denominator(cfg.m, cfg.n, max(s, 1))
        ratio = Fraction(tally.total) / denom
        check("ratio finite", True, f"ratio={float(ratio):.4f}")
        try:
            st1 = run_stage1(cfg, D_override=args.D, seed=args.seed, tally=tally)
            check(
                "occupancy within surrogate",
                st1.occupancy_max <= st1.occupancy_bound,
                f"{st1.occupancy_max} <= {st1.occupancy_bound}",
            )
            lc = classify_lines(st1.partition, cfg.lines)
            check(
                "line classification agrees",
                lc == _classify_lines_reference(st1.partition, cfg.lines),
                f"contained={len(lc.contained)} crossing={len(lc.crossing)}",
            )
            crossing = [cfg.lines[i] for i, _ in lc.crossing]
            crossed = [classes_crossed(st1.partition, line) for line in crossing]
            check(
                "crossed classes agree",
                crossed == _classes_crossed_reference(st1.partition, crossing),
                f"classes={sum(map(len, crossed))}",
            )
            buckets = coplanar_buckets([cfg.lines[i] for i in lc.contained])
            planes = _detect_planes(st1.partition, buckets)
            levels = st1.partition.levels
            reference = [
                pl
                for pl in (RationalPlane(*key) for key in buckets)
                if any(divides_by_plane(g, pl) for g in levels)
            ]
            check("plane components agree", planes == reference, f"planes={len(planes)}")
            check(
                "crossing roots within degree",
                st1.max_cross_roots <= max(st1.degree_used, 1),
                f"{st1.max_cross_roots} <= {st1.degree_used}",
            )
            if st1.residual_coplanar_within_degree is not None:
                check(
                    "residual coplanarity within degree",
                    st1.residual_coplanar_within_degree,
                    f"s_res={st1.residual_contained_max_coplanar}",
                )
        except (OutOfRangeError, PipelineError) as err:
            check("stage-1 skipped", True, str(err))
        except PartitionBudgetError as err:
            check("stage-1 partition", False, str(err))
        except LedgerError as err:
            check("stage-1 ledger", False, str(err))
    failures = 0
    for name, ok, detail in checks:
        tag = "ok" if ok else "FAIL"
        line = f"[{tag}] {name}"
        if detail:
            line += f": {detail}"
        sys.stdout.write(line + "\n")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incilab",
        description="exact point-line incidence experiments in 3-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a generated configuration")
    p.add_argument("--family", required=True)
    p.add_argument("--params", nargs="*", metavar="key=value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("count", help="count incidences in a configuration")
    p.add_argument("config")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("bounds", help="evaluate the closed-form bounds")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--A", type=Fraction, default=Fraction(1))
    p.add_argument("--B", type=Fraction, default=Fraction(1))
    p.add_argument("--b", type=Fraction, default=Fraction(2))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("partition", help="build and report a partition")
    p.add_argument("config")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--eps", type=Fraction, default=Fraction(1, 10))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("pipeline", help="full two-stage report")
    p.add_argument("config")
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--E", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=Fraction, default=Fraction(1, 10))
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", help="run the invariant suite on a config")
    p.add_argument("config")
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PipelineError, PartitionBudgetError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
