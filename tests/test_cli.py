"""End-to-end coverage of the command line entry points."""

import csv
import json

import pytest

from incilab.cli import main
from incilab.configs import load_config
from incilab.incidence import count_incidences
from incilab.partition import (
    PartitionPoly,
    classes_crossed,
    classify_lines,
    classify_points,
    degree_budget,
)
from incilab.pipeline import _detect_planes, full_report, write_report_json


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def grid_cfg(tmp_path, capsys):
    path = tmp_path / "grid.json"
    code, out, _ = run(
        capsys, "generate", "--family", "grid3d", "--params", "N=3", "-o", str(path)
    )
    assert code == 0 and "m=27 n=27" in out
    return path


def test_generate_writes_loadable_config(grid_cfg):
    cfg = load_config(grid_cfg)
    assert (cfg.m, cfg.n) == (27, 27)
    assert cfg.meta["family"] == "grid3d"


def test_generate_accepts_string_params(tmp_path, capsys):
    path = tmp_path / "hp.json"
    code, out, _ = run(
        capsys, "generate", "--family", "ruled_surface",
        "--params", "kind=hp", "k=6", "-o", str(path),
    )
    assert code == 0
    assert load_config(path).meta["params"] == {"kind": "hp", "k": 6}


@pytest.mark.parametrize("value", ["١", "+3", "007"])
def test_generate_params_read_ints_by_the_literal_grammar(tmp_path, capsys, value):
    # int() would read each of these as N = 1, 3 or 7
    path = tmp_path / "grid.json"
    code, out, err = run(
        capsys, "generate", "--family", "grid3d", "--params", f"N={value}", "-o", str(path)
    )
    assert code == 2 and out == ""
    assert err == f"error: grid3d parameter N must be int, got {value!r}\n"
    assert not path.exists()


def test_params_without_equals_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "grid.json"
    code, out, err = run(
        capsys, "generate", "--family", "grid3d", "--params", "N", "-o", str(path)
    )
    assert code == 2 and out == ""
    assert err == "error: parameter 'N' is not of the form key=value\n"
    assert not path.exists()


def test_count_reports_tally(grid_cfg, capsys):
    code, out, _ = run(capsys, "count", str(grid_cfg))
    assert code == 0
    assert json.loads(out) == {
        "m": 27,
        "n": 27,
        "I": 81,
        "max_richness": 3,
        "richness": {"3": 27},
    }


def test_bounds_reports_golden_values(capsys):
    code, out, _ = run(capsys, "bounds", "--m", "16", "--n", "16", "--s", "1")
    assert code == 0
    data = json.loads(out)
    assert data["gk"] == "80"
    assert data["trivial"] == 272
    assert data["amn"] == {"e": "3", "A": "8"}
    assert data["degree_plan"]["regime"] == "small-m"


def test_bounds_reports_errors_in_band(capsys):
    # m^2 == n^3 has no ladder coefficient; the field carries the reason
    code, out, _ = run(capsys, "bounds", "--m", "8", "--n", "4", "--s", "1")
    assert code == 0
    data = json.loads(out)
    assert "midrange" in str(data["amn"])


def test_partition_command_stays_in_budget(grid_cfg, capsys):
    code, out, _ = run(
        capsys, "partition", str(grid_cfg), "--levels", "2", "--eps", "1/10",
        "--seed", "0",
    )
    assert code == 0
    data = json.loads(out)
    part = PartitionPoly.from_json_dict(data["partition"])
    assert part.t == 2
    assert part.degree <= degree_budget(2)
    assert sum(data["occupancy"].values()) + data["on_surface"] == 27


def test_pipeline_writes_report_and_csv(grid_cfg, tmp_path, capsys):
    jpath = tmp_path / "rep.json"
    cpath = tmp_path / "rep.csv"
    code, out, _ = run(
        capsys, "pipeline", str(grid_cfg), "-o", str(jpath), "--csv", str(cpath)
    )
    assert code == 0
    report = json.loads(jpath.read_text())
    assert report["I"] == 81
    assert report["family"] == "grid3d"
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["I"] == "81"
    assert float(rows[0]["ratio"]) < 4


def test_pipeline_file_is_write_report_json_output(grid_cfg, tmp_path, capsys):
    jpath = tmp_path / "cli.json"
    code, out, _ = run(capsys, "pipeline", str(grid_cfg), "-o", str(jpath))
    assert code == 0 and out == f"wrote {jpath}\n"
    want = tmp_path / "lib.json"
    write_report_json(full_report(load_config(grid_cfg)), want)
    assert jpath.read_bytes() == want.read_bytes()
    # without -o the same bytes go to stdout
    code, out, _ = run(capsys, "pipeline", str(grid_cfg))
    assert code == 0 and out.encode() == want.read_bytes()


def test_verify_passes_on_shipped_config(grid_cfg, capsys):
    code, out, _ = run(capsys, "verify", str(grid_cfg))
    assert code == 0
    assert "[ok] incidences agree: I=81" in out
    assert "[ok] coplanarity agrees: s=6" in out
    assert "[ok] line classification agrees: contained=0 crossing=27" in out
    assert "[ok] crossed classes agree: classes=54" in out
    assert "[ok] plane components agree: planes=0" in out
    assert "[FAIL]" not in out


def test_verify_fails_when_coplanarity_disagrees(grid_cfg, capsys, monkeypatch):
    monkeypatch.setattr("incilab.cli.max_coplanar_lines", lambda lines: (10, None))
    code, out, _ = run(capsys, "verify", str(grid_cfg))
    assert code == 1
    assert "[FAIL] coplanarity agrees: s=10" in out


def test_verify_fails_when_count_disagrees(grid_cfg, capsys, monkeypatch):
    def drop_one(cfg):
        tally = count_incidences(cfg)
        tally.points_by_line[0].pop()
        tally.total -= 1
        return tally

    monkeypatch.setattr("incilab.cli.count_incidences", drop_one)
    code, out, _ = run(capsys, "verify", str(grid_cfg))
    assert code == 1
    assert "[FAIL] incidences agree: I=80" in out


def test_verify_fails_when_line_classification_disagrees(grid_cfg, capsys, monkeypatch):
    def drop_one_root(part, lines):
        lc = classify_lines(part, lines)
        i, roots = lc.crossing[0]
        lc.crossing[0] = (i, roots - 1)
        return lc

    monkeypatch.setattr("incilab.cli.classify_lines", drop_one_root)
    code, out, _ = run(capsys, "verify", str(grid_cfg))
    assert code == 1
    assert "[FAIL] line classification agrees: contained=0 crossing=27" in out


def test_verify_fails_when_crossed_classes_disagree(grid_cfg, capsys, monkeypatch):
    def drop_one_class(part, line):
        classes = classes_crossed(part, line)
        classes.remove(max(classes))
        return classes

    monkeypatch.setattr("incilab.cli.classes_crossed", drop_one_class)
    code, out, _ = run(capsys, "verify", str(grid_cfg))
    assert code == 1
    assert "[FAIL] crossed classes agree: classes=27" in out


def test_verify_fails_when_planes_disagree(tmp_path, capsys, monkeypatch):
    # at --D 8, three planes of grid3d N=3 divide a level of f
    path = tmp_path / "grid3.json"
    run(capsys, "generate", "--family", "grid3d", "--params", "N=3", "-o", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--D", "8")
    assert code == 0
    assert "[ok] plane components agree: planes=3" in out

    def drop_one_plane(part, buckets):
        return _detect_planes(part, buckets)[:-1]

    monkeypatch.setattr("incilab.cli._detect_planes", drop_one_plane)
    code, out, _ = run(capsys, "verify", str(path), "--D", "8")
    assert code == 1
    assert "[FAIL] plane components agree: planes=2" in out


def test_verify_reports_a_failed_stage1_ledger(grid_cfg, capsys, monkeypatch):
    def drop_one_cell_point(part, points):
        surface_idx, cell_idx = classify_points(part, points)
        return surface_idx, cell_idx[:-1]

    monkeypatch.setattr("incilab.pipeline.classify_points", drop_one_cell_point)
    code, out, _ = run(capsys, "verify", str(grid_cfg))
    assert code == 1
    assert "[FAIL] stage-1 ledger: stage-1 accounting identity failed" in out.splitlines()
    assert "occupancy within surrogate" not in out


def test_verify_skips_stage1_outside_plan_range(tmp_path, capsys):
    path = tmp_path / "conc.json"
    run(capsys, "generate", "--family", "concurrent", "--params", "k=5", "-o", str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "stage-1 skipped" in out


@pytest.fixture
def random40_cfg(tmp_path, capsys):
    path = tmp_path / "random40.json"
    code, out, _ = run(
        capsys, "generate", "--family", "random", "--params", "m=40", "n=400", "-o", str(path)
    )
    assert code == 0 and "m=40 n=400" in out
    return path


def test_verify_reports_a_partition_budget_failure(random40_cfg, capsys):
    # at --D 8 the search finds no level-4 bisector for these 40 points
    code, out, _ = run(capsys, "verify", str(random40_cfg), "--D", "8")
    assert code == 1
    assert out.splitlines() == [
        "[ok] incidences agree: I=400",
        "[ok] coplanarity agrees: s=3",
        "[ok] ratio finite: ratio=0.3540",
        "[FAIL] stage-1 partition: level 4: no bisector met the slack at this level",
    ]


def test_partition_budget_failure_is_a_clean_error(random40_cfg, capsys):
    code, out, err = run(
        capsys, "partition", str(random40_cfg), "--levels", "4", "--eps", "0"
    )
    assert code == 2
    assert out == ""
    assert err == "error: level 3: no bisector met the slack at this level\n"


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, "count", "no-such-file.json")
    assert code == 2
    assert err.startswith("error:")


def test_bad_usage_exits_with_argparse_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "grid3d"])  # no -o
    assert exc.value.code == 2


def test_unknown_family_is_reported(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--family", "squares", "--params", "N=2",
        "-o", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error:" in err
