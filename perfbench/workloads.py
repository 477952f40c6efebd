"""The benchmark's workloads: how each one's inputs are made from the seed,
what one op runs, and how each op's output is checked.

Report workloads run what ``incilab pipeline CONFIG -o REPORT --csv CSV``
runs: load_config, full_report, then JSON and CSV serialization.  The
partition workload runs what ``incilab partition CONFIG --levels 4`` runs on
the acceptance suite's criterion-7 point sets.  Every op's output is read
back from disk and checked against the ledger invariants that
``incilab verify`` checks; at the default seed its bytes must also match the
digests in digests.json.

The workload seed drives the generated inputs (random_config and the lines
certified in partition_cert).  The program itself runs with the CLI's
default seed, as ``incilab pipeline`` does without --seed: the partition
search's cost depends on its seed by up to 1.8x (grid3d N=4 --D 32 takes
2.9-5.2 s over seeds 0-9), which would swamp the run-to-run spread.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from incilab import configs, geom, partition, pipeline

DEFAULT_SEED = 0
PROGRAM_SEED = 0  # the --seed default of `incilab pipeline`
DIGESTS_PATH = Path(__file__).with_name("digests.json")

# The configurations the acceptance suite ships, with the degree override the
# single-point families need (family, params, generator seed, --D).  Copied
# rather than imported so the benchmark does not depend on tests/.
SHIPPED = (
    ("elekes2d", {"N": 2}, 0, None),
    ("elekes2d", {"N": 3}, 0, None),
    ("coplanar_pack", {"k": 2, "N": 2}, 0, None),
    ("grid3d", {"N": 2}, 0, None),
    ("grid3d", {"N": 3}, 0, None),
    ("ruled_surface", {"kind": "plane", "k": 5}, 0, 2),
    ("ruled_surface", {"kind": "cone", "k": 6}, 0, 2),
    ("ruled_surface", {"kind": "hp", "k": 8}, 0, None),
    ("concurrent", {"k": 7}, 0, 2),
    ("random", {"m": 200, "n": 50}, 3, None),
)

# Why these inputs: report_random is counting-bound with about n distinct
# directions; report_structured has 3-6 direction classes, dense incidences
# and big coplanar buckets, so coplanarity dominates; report_forced_degree
# is the one input where --D drives Z(f) through every point and pruning
# does real work.  Larger rungs (grid3d N=5 --D 32, random m=n=2000,
# ruled_surface hp k=20) cost 15-200 s per pass and are left out.
REPORT_INPUTS = {
    "report_random": (("random", {"m": 1000, "n": 400}, 0, None),),
    "report_structured": (
        ("grid3d", {"N": 10}, 0, None),
        ("elekes2d", {"N": 6}, 0, None),
        ("coplanar_pack", {"k": 3, "N": 4}, 0, None),
    )
    + SHIPPED,
    "report_forced_degree": (("grid3d", {"N": 4}, 0, 32),),
}

# criterion-7 shape: distinct integer points in [-R, R]^3, a depth-4
# partition at slack 1/10, and 50 seeded lines certified against it.  The
# point sets are criterion 7's seeds 0 and 1, not drawn from the workload
# seed: over seeds 0-9 the search lands on degree 5 (1.3-1.6 s) or degree 6
# (4.0-4.7 s) about half the time each, so drawn sets would make the
# run-to-run spread about 100%.  These two are one of each.
CERT_SET_SEEDS = (0, 1)
CERT_POINTS = 1024
CERT_RADIUS = 400
CERT_LINES = 50
CERT_LEVELS = 4
CERT_EPS = Fraction(1, 10)
CERT_OCCUPANCY_BOUND = 133

WORKLOADS = tuple(REPORT_INPUTS) + ("partition_cert",)


@dataclass
class Op:
    """One unit a user waits for: a config on disk and the seed the program
    gets.  ``D`` is the pipeline's --D override; None for partition ops."""

    name: str
    kind: str  # "report" | "partition"
    config: Path
    seed: int
    D: int | None = None

    def run(self, out_dir: Path) -> list[Path]:
        """Run the op and return the files it wrote."""
        cfg = configs.load_config(self.config)
        if self.kind == "report":
            rep = pipeline.full_report(cfg, D_override=self.D, seed=self.seed)
            json_path = out_dir / f"{self.name}.json"
            csv_path = out_dir / f"{self.name}.csv"
            pipeline.write_report_json(rep, json_path)
            pipeline.write_csv([rep], csv_path)
            return [json_path, csv_path]
        part = partition.build_partition(cfg.points, CERT_LEVELS, CERT_EPS, self.seed)
        occ, surface = partition.cell_occupancy(part, cfg.points)
        lc = partition.classify_lines(part, cfg.lines)
        out = {
            "partition": part.to_json_dict(),
            "occupancy": {
                "".join("+" if s > 0 else "-" for s in k): v
                for k, v in sorted(occ.items())
            },
            "on_surface": surface,
            "lines_contained": len(lc.contained),
            "lines_crossing": len(lc.crossing),
            "max_roots": lc.max_roots,
        }
        path = out_dir / f"{self.name}.json"
        path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
        return [path]

    def check(self, outputs: list[Path], digests: dict | None) -> list[str]:
        """Problems with the op's output; empty when it is correct."""
        problems = []
        if digests is not None:
            want = digests.get(self.name)
            got = [_sha256(p) for p in outputs]
            if want != got:
                problems.append(f"digest mismatch: want {want}, got {got}")
        data = json.loads(outputs[0].read_text(encoding="utf-8"))
        if self.kind == "report":
            problems += _check_report(data, outputs[1])
        else:
            problems += _check_partition(data)
        return [f"{self.name}: {p}" for p in problems]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_report(rep: dict, csv_path: Path) -> list[str]:
    problems = []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2 or rows[0] != pipeline.CSV_COLUMNS:
        problems.append("CSV is not one header and one row")
    elif int(rows[1][rows[0].index("I")]) != rep["I"]:
        problems.append("CSV I differs from the report's")
    for st in rep["stages"]:
        tag = f"stage {st['stage']}"
        ident = st["identity"]
        split = (
            ident["surface_surface"]
            + ident["surface_crossing"]
            + ident["cells_crossing"]
            + ident["cells_contained"]
        )
        if split != ident["I"]:
            problems.append(f"{tag}: split identity {split} != I={ident['I']}")
        charged = (
            st["pruned_total"]
            + st["cross_charges"]
            + st["residual_surface_incidences"]
            + st["residual_cell_incidences"]
        )
        # only stage 1 prunes; stage 2 reports occupancy and crossings
        if st["stage"] == "1" and charged != ident["I"]:
            problems.append(f"{tag}: pruned+cross+residual {charged} != I={ident['I']}")
        if st["occupancy_max"] > st["occupancy_bound"]:
            problems.append(f"{tag}: occupancy {st['occupancy_max']} > {st['occupancy_bound']}")
        if st["max_cross_roots"] > max(st["degree_used"], 1):
            problems.append(f"{tag}: roots {st['max_cross_roots']} > deg {st['degree_used']}")
    if rep["stages"] and rep["stages"][0]["identity"]["I"] != rep["I"]:
        problems.append("stage 1 ledger does not cover every incidence")
    return problems


def _check_partition(out: dict) -> list[str]:
    problems = []
    degree = out["partition"]["D"]
    if degree > partition.degree_budget(CERT_LEVELS):
        problems.append(f"degree {degree} over budget")
    worst = max(out["occupancy"].values(), default=0)
    if worst > CERT_OCCUPANCY_BOUND:
        problems.append(f"class of {worst} points > {CERT_OCCUPANCY_BOUND}")
    if out["max_roots"] > degree:
        problems.append(f"roots {out['max_roots']} > deg {degree}")
    if out["lines_contained"] + out["lines_crossing"] != CERT_LINES:
        problems.append("not every line was classified")
    return problems


def _op_name(family: str, params: dict, D: int | None) -> str:
    name = "-".join([family] + [f"{k}{v}" for k, v in params.items()])
    return name if D is None else f"{name}-D{D}"


def _cert_config(set_seed: int, line_seed: int) -> configs.Configuration:
    """Criterion 7's point set for one seed, and lines drawn as it draws
    them but from their own seed (duplicate lines, which it never draws in
    practice, are skipped so the file loads)."""
    rng = random.Random(set_seed)
    points, seen = [], set()
    while len(points) < CERT_POINTS:
        c = tuple(Fraction(rng.randint(-CERT_RADIUS, CERT_RADIUS)) for _ in range(3))
        if c not in seen:
            seen.add(c)
            points.append(geom.Rational3Point(*c))
    rng = random.Random(line_seed)
    lines, seen_lines = [], set()
    while len(lines) < CERT_LINES:
        base = tuple(Fraction(rng.randint(-50, 50)) for _ in range(3))
        dirv = tuple(rng.randint(-9, 9) for _ in range(3))
        if dirv == (0, 0, 0):
            continue
        line = geom.canonical_line(base, dirv)
        if line not in seen_lines:
            seen_lines.add(line)
            lines.append(line)
    meta = {"family": "criterion7", "params": {"seed": set_seed, "line_seed": line_seed}}
    return configs.Configuration(tuple(points), tuple(lines), meta)


def make_ops(workload: str, seed: int, work_dir: Path) -> list[Op]:
    """Generate the workload's inputs from the seed and write them as config
    JSON; the program sees only these files."""
    ops = []
    if workload == "partition_cert":
        for set_seed in CERT_SET_SEEDS:
            name = f"criterion7-set{set_seed}"
            path = work_dir / f"{name}.config.json"
            line_seed = seed * len(CERT_SET_SEEDS) + set_seed
            configs.save_config(_cert_config(set_seed, line_seed), path)
            ops.append(Op(name, "partition", path, set_seed))
        return ops
    for family, params, gen_seed, D in REPORT_INPUTS[workload]:
        name = _op_name(family, params, D)
        cfg = configs.generate(configs.GeneratorSpec(family, params, seed=gen_seed + seed))
        path = work_dir / f"{name}.config.json"
        configs.save_config(cfg, path)
        ops.append(Op(name, "report", path, PROGRAM_SEED, D))
    return ops


def load_digests(workload: str) -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))[workload]
