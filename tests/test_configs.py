"""Generator families, JSON round trips, and input validation."""

import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from incilab.configs import (
    FAMILIES,
    ConfigParseError,
    GeneratorSpec,
    config_to_json_dict,
    generate,
    load_config,
    save_config,
)
from incilab.geom import Rational3Point, RationalLine
from incilab.qformat import qparse
from incilab.incidence import (
    Configuration,
    InvalidConfigurationError,
    count_incidences,
    max_coplanar_lines,
)


def gen(family, seed=0, **params):
    return generate(GeneratorSpec(family, params, seed=seed))


# -- family shapes -----------------------------------------------------------------


def test_family_registry():
    assert set(FAMILIES) == {
        "elekes2d", "coplanar_pack", "grid3d", "ruled_surface", "concurrent", "random",
    }


@pytest.mark.parametrize("N", [1, 2, 3])
def test_elekes2d_sizes(N):
    cfg = gen("elekes2d", N=N)
    assert (cfg.m, cfg.n) == (2 * N**3, N**3)
    assert count_incidences(cfg).total == N**4
    # the whole configuration is planar by construction
    assert all(p.z == 0 for p in cfg.points)


@pytest.mark.parametrize(("k", "N"), [(1, 2), (2, 2), (3, 3)])
def test_coplanar_pack_sizes(k, N):
    cfg = gen("coplanar_pack", k=k, N=N)
    assert (cfg.m, cfg.n) == (2 * k * N**3, k * N**3)
    assert count_incidences(cfg).total == k * N**4
    assert max_coplanar_lines(cfg.lines)[0] == N**3


@pytest.mark.parametrize("N", [1, 2, 4])
def test_grid3d_sizes(N):
    cfg = gen("grid3d", N=N)
    assert (cfg.m, cfg.n) == (N**3, 3 * N**2)
    assert count_incidences(cfg).total == 3 * N**3


def test_ruled_surface_plane_is_a_pencil():
    cfg = gen("ruled_surface", kind="plane", k=7)
    assert (cfg.m, cfg.n) == (1, 7)
    assert max_coplanar_lines(cfg.lines)[0] == 7


def test_ruled_surface_cone_directions_satisfy_the_cone():
    cfg = gen("ruled_surface", kind="cone", k=9)
    assert (cfg.m, cfg.n) == (1, 9)
    for line in cfg.lines:
        dx, dy, dz = line.dir
        assert dx * dx + dy * dy == dz * dz


def test_ruled_surface_hp_lies_on_the_saddle():
    cfg = gen("ruled_surface", kind="hp", k=5)
    assert (cfg.m, cfg.n) == (6, 5)
    for p in cfg.points:
        assert p.x * p.y == p.z
    for l in cfg.lines:
        for t in (0, 1, -2):
            q = l.point_at(t)
            assert q.x * q.y == q.z
    # 3 lines of one ruling carry 2 points each, 2 of the other carry 3
    assert count_incidences(cfg).total == 12


def test_concurrent_all_through_origin():
    cfg = gen("concurrent", k=12)
    assert (cfg.m, cfg.n) == (1, 12)
    assert count_incidences(cfg).total == 12


def test_random_config_sizes_and_forced_rich_lines():
    cfg = gen("random", m=30, n=14, seed=5)
    assert (cfg.m, cfg.n) == (30, 14)
    cfg.validate()
    # half of the lines are drawn through sampled point pairs
    assert count_incidences(cfg).total >= 2 * (14 // 2)


def test_random_config_seed_determinism():
    a = gen("random", m=25, n=10, seed=3)
    b = gen("random", m=25, n=10, seed=3)
    c = gen("random", m=25, n=10, seed=4)
    assert a == b
    assert a != c


# -- spec validation -----------------------------------------------------------------


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("triangles", {})
    with pytest.raises(ValueError):
        generate(GeneratorSpec("elekes2d", {}))  # missing N
    with pytest.raises(ValueError):
        generate(GeneratorSpec("elekes2d", {"N": 2, "k": 1}))  # stray k
    with pytest.raises(ValueError):
        gen("ruled_surface", kind="torus", k=3)
    with pytest.raises(ValueError):
        gen("elekes2d", N=0)
    with pytest.raises(ValueError):
        gen("concurrent", k=0)


@pytest.mark.parametrize(
    ("family", "params", "want"),
    [
        ("grid3d", {"N": 2.5}, "grid3d parameter N must be int, got 2.5"),
        ("grid3d", {"N": True}, "grid3d parameter N must be int, got True"),
        ("grid3d", {"N": "+3"}, "grid3d parameter N must be int, got '+3'"),
        ("ruled_surface", {"kind": 5, "k": 3}, "ruled_surface parameter kind must be str, got 5"),
    ],
    ids=["float", "bool", "string", "int-for-str"],
)
def test_generate_takes_a_parameter_only_of_its_declared_type(family, params, want):
    # int() would build the first three as grid3d N=2, N=1 and N=3
    with pytest.raises(ValueError, match=re.escape(want)):
        generate(GeneratorSpec(family, params))


# -- file round trip -------------------------------------------------------------------


def test_json_dict_schema():
    d = config_to_json_dict(gen("grid3d", N=2))
    assert sorted(d) == ["lines", "meta", "points"]
    assert d["meta"]["family"] == "grid3d"
    assert all(len(p) == 3 and all(isinstance(c, str) for c in p) for p in d["points"])
    assert all(sorted(l) == ["base", "dir"] for l in d["lines"])


def test_meta_seed_is_zero_for_deterministic_families():
    # only the random family consumes the seed; others stamp 0
    assert gen("grid3d", N=2, seed=9).meta["seed"] == 0
    assert gen("random", m=4, n=2, seed=9).meta["seed"] == 9


def test_save_load_round_trip(tmp_path):
    cfg = gen("ruled_surface", kind="hp", k=6)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


rational = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
rational_point = st.builds(Rational3Point, rational, rational, rational)


@st.composite
def rational_configurations(draw):
    points = draw(st.lists(rational_point, max_size=8, unique=True))
    direction = st.tuples(rational, rational, rational).filter(any)
    lines = draw(
        st.lists(st.builds(RationalLine, rational_point, direction), max_size=8, unique=True)
    )
    meta = draw(
        st.dictionaries(
            st.text(max_size=6), st.one_of(st.integers(), st.text(max_size=6)), max_size=3
        )
    )
    return Configuration(tuple(points), tuple(lines), meta)


@settings(deadline=None, max_examples=150)
@given(rational_configurations())
def test_random_rational_configurations_round_trip(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save_config(cfg, first)
        loaded = load_config(first)
        assert loaded == cfg
        save_config(loaded, second)
        assert second.read_bytes() == first.read_bytes()


# literals as files carry them: mixed denominators 1-12, negatives, values not
# in lowest terms, and "-0"
literal = st.one_of(
    st.builds(str, st.integers(-40, 40)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-40, 40), st.integers(1, 12)),
    st.just("-0"),
)
literals = st.lists(literal, min_size=3, max_size=3)


@settings(deadline=None)
@given(literals, literals, literals.filter(lambda d: any(map(qparse, d))))
def test_load_config_builds_the_points_qparse_gives(point, base, direction):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cfg.json")
        raw = {"points": [point], "lines": [{"base": base, "dir": direction}]}
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
    ref = Rational3Point(*map(qparse, point))
    (p,), (line,) = cfg.points, cfg.lines
    assert p.ints == ref.ints and p == ref and hash(p) == hash(ref)
    assert p.coords == tuple(map(qparse, point))
    assert line == RationalLine(Rational3Point(*map(qparse, base)), tuple(map(qparse, direction)))


def test_literals_load_normalized_and_save_canonical(tmp_path):
    # README: fractions not in lowest terms and a signed zero are accepted and
    # normalized, and saved files always write lowest terms
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"points": [["4/2", "-0", "-6/4"]], "lines": []}))
    cfg = load_config(path)
    assert cfg.points[0].coords == (2, 0, Fraction(-3, 2))
    assert config_to_json_dict(cfg)["points"] == [["2", "0", "-3/2"]]


def test_save_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_config(gen("random", m=12, n=8, seed=7), p1)
    save_config(gen("random", m=12, n=8, seed=7), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_loading_saved_rational_bases_never_walks_the_entries(tmp_path, monkeypatch):
    cfg = gen("random", m=30, n=14, seed=5)
    path = tmp_path / "random.json"
    save_config(cfg, path)
    bases = [c for line in config_to_json_dict(cfg)["lines"] for c in line["base"]]
    assert any("/" in c for c in bases)

    def walk(*args):
        raise AssertionError("the per-entry walk ran on a well-formed file")

    monkeypatch.setattr("incilab.configs._check_triple", walk)
    monkeypatch.setattr("incilab.configs._raise_first_error", walk)
    assert load_config(path) == cfg


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"meta": {}, "points": [\n  ["1", "2"]\n]}')
    with pytest.raises(ConfigParseError):
        load_config(path)
    path.write_text("{nope")
    with pytest.raises(ConfigParseError) as exc:
        load_config(path)
    assert "line" in str(exc.value)


def test_load_rejects_bad_geometry(tmp_path):
    path = tmp_path / "bad.json"
    base = config_to_json_dict(gen("grid3d", N=1))
    broken = json.loads(json.dumps(base))
    broken["lines"][0]["dir"] = ["0", "0", "0"]
    path.write_text(json.dumps(broken))
    with pytest.raises(ConfigParseError):
        load_config(path)

    dupes = json.loads(json.dumps(base))
    dupes["points"].append(dupes["points"][0])
    path.write_text(json.dumps(dupes))
    last = len(dupes["points"]) - 1
    with pytest.raises(InvalidConfigurationError, match=f"indexes 0 and {last}"):
        load_config(path)


@pytest.mark.parametrize("bad", ["1\n", " 1", "1 ", "\t1"])
def test_load_rejects_whitespace_in_rationals(tmp_path, bad):
    path = tmp_path / "bad.json"
    base = config_to_json_dict(gen("grid3d", N=1))
    base["lines"][0]["base"][1] = bad
    path.write_text(json.dumps(base))
    with pytest.raises(ConfigParseError, match=r"lines\[0\]\.base\.y"):
        load_config(path)


def test_load_rejects_non_canonical_rationals(tmp_path):
    path = tmp_path / "bad.json"
    base = config_to_json_dict(gen("grid3d", N=1))
    base["points"][0][0] = "1.5"
    path.write_text(json.dumps(base))
    with pytest.raises(ConfigParseError):
        load_config(path)


@pytest.mark.parametrize(
    "raw", [b"[" * 100000, b'{"meta": {}, "points": [["\xff", "0", "0"]], "lines": []}']
)
def test_load_names_the_file_for_deep_nesting_and_bad_utf8(tmp_path, raw):
    path = tmp_path / "odd.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigParseError) as exc:
        load_config(path)
    assert str(path) in str(exc.value)


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
# rational literals, canonical or not, and anything else in a coordinate slot
coordinate = st.one_of(
    st.sampled_from([str(a) for a in range(-3, 4)]),
    st.sampled_from([f"{a}/{b}" for a in range(-4, 5) for b in range(-2, 5)]),
    st.sampled_from(["-0", "4/2", "1.5", " 1", "1e3", "x"]),
    json_values,
)
triple = st.one_of(st.lists(coordinate, min_size=3, max_size=3), json_values)
shaped = st.fixed_dictionaries(
    {
        "points": st.lists(triple, max_size=4),
        "lines": st.lists(
            st.one_of(st.fixed_dictionaries({"base": triple, "dir": triple}), json_values),
            max_size=3,
        ),
    },
    optional={"meta": json_values},
)


@settings(deadline=None, max_examples=300)
@given(
    st.one_of(
        st.binary(max_size=64),
        st.builds(lambda v: json.dumps(v).encode(), json_values | shaped),
    )
)
def test_load_config_only_parses_or_raises_config_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "fuzz.json")
        path.write_bytes(raw)
        try:
            cfg = load_config(path)
        except (ConfigParseError, InvalidConfigurationError):
            return
        assert isinstance(cfg, Configuration)


def test_readme_configuration_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration files", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.json"
    path.write_text(example, encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.m, cfg.n) == (3, 1)
    assert count_incidences(cfg).total == 2

    # the object form the README once showed is rejected
    data = json.loads(example)
    data["points"][0] = {"x": "1/2", "y": "0", "z": "-3"}
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigParseError):
        load_config(path)


# -- the loader against a reference built through qparse ----------------------------


def reference_load(data: dict) -> Configuration:
    """What load_config makes of parsed JSON data with 'points' and 'lines'
    lists: every point and line built through qparse, Rational3Point and
    RationalLine, and the errors load_config names."""

    def coords(raw, where):
        if not isinstance(raw, list) or len(raw) != 3:
            raise ConfigParseError(f"{where}: expected a 3-element list, got {raw!r}")
        out = []
        for axis, item in zip("xyz", raw):
            try:
                out.append(qparse(item))
            except ValueError as err:
                raise ConfigParseError(f"{where}.{axis}: {err}") from None
        return out

    points = [Rational3Point(*coords(raw, f"points[{i}]")) for i, raw in enumerate(data["points"])]
    lines = []
    for i, raw in enumerate(data["lines"]):
        if not isinstance(raw, dict) or "base" not in raw or "dir" not in raw:
            raise ConfigParseError(f"lines[{i}]: expected an object with 'base' and 'dir'")
        base = Rational3Point(*coords(raw["base"], f"lines[{i}].base"))
        direction = coords(raw["dir"], f"lines[{i}].dir")
        if not any(direction):
            raise ConfigParseError(f"lines[{i}].dir: zero direction")
        lines.append(RationalLine(base, tuple(direction)))
    return Configuration(tuple(points), tuple(lines), data.get("meta", {}))


def outcome(load):
    """The ints of every point and line a loader returns, or the type and
    message of what it raises."""
    try:
        cfg = load()
    except (ConfigParseError, InvalidConfigurationError) as err:
        return type(err), str(err)
    return (
        [p.ints for p in cfg.points],
        [(l.base.ints, l.dir) for l in cfg.lines],
    )


def load_both(tmp, data):
    path = Path(tmp, "cfg.json")
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    got = outcome(lambda: load_config(path))
    assert got == outcome(lambda: reference_load(data))
    return got


HUGE = "7" * 5000  # over int()'s 4300-digit limit
# mostly strings that int() reads but a canonical literal may not be
bad_literal = st.sampled_from(
    ["١", "1١", "１", "2１", "+1", "01", "-00", "1_0", "1\n", " 1", "1.5", "", "1/0", HUGE]
) | st.sampled_from([1, None, ["1"]])
# each literal set as one sampled_from: a single draw per literal, where a
# one_of over built strings takes three
INT_LITERALS = [*map(str, range(-3, 4)), "-0"]
int_literal = st.sampled_from(INT_LITERALS)
any_literal = st.sampled_from(
    [*INT_LITERALS, *(f"{p}/{q}" for p in range(-6, 7) for q in range(1, 5)), "4/2"]
)
bad_triple = st.sampled_from([[], ["1", "2"], ["1", "2", "3", "4"], "123", 5, None, {"x": "1"}])
# the strategies loader_inputs draws from, built once rather than per example
literal_kind = st.sampled_from([int_literal, any_literal])
blocks = {
    (literal, size): st.lists(st.lists(literal, min_size=3, max_size=3), max_size=size)
    for literal in (int_literal, any_literal)
    for size in (5, 6)
}
zero_to_two = st.integers(0, 2)
swap_literal_first = st.sampled_from([True, True, True, False])
bad_line = st.sampled_from([{"base": ["0", "0", "0"]}, {"dir": ["1", "0", "0"]}, [], "line"])


@st.composite
def loader_inputs(draw):
    """Blocks of mostly valid literals, all-integer or mixed with p/q, with
    a few entries or literals swapped for invalid ones."""

    def block(literal, size):
        triples = draw(blocks[literal, size])
        for _ in range(draw(zero_to_two) if triples else 0):
            i = draw(st.integers(0, len(triples) - 1))
            if draw(swap_literal_first) and isinstance(triples[i], list) and len(triples[i]) == 3:
                triples[i] = list(triples[i])
                triples[i][draw(zero_to_two)] = draw(bad_literal)
            else:
                triples[i] = draw(bad_triple)
        return triples

    literal = draw(literal_kind)
    points = block(literal, 6)
    lines = [
        {"base": b, "dir": d}
        for b, d in zip(block(draw(literal_kind), 5), block(literal, 5))
    ]
    if lines and draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(bad_line)
    return {"points": points, "lines": lines}


def _int_points_pq_base(base):
    """An integer points block next to a line base block with p/q literals."""
    return {"points": [["1", "-2", "0"]], "lines": [{"base": base, "dir": ["0", "1", "2"]}]}


@settings(deadline=None, max_examples=400)
@given(loader_inputs())
@example(_int_points_pq_base(["1/2", "0", "-3/4"]))
@example(_int_points_pq_base(["1/2", "0", "1١"]))
def test_load_config_matches_the_qparse_reference(data):
    with tempfile.TemporaryDirectory() as tmp:
        load_both(tmp, data)


def _point(literals):
    return {"points": [literals], "lines": []}


def _line(base, direction):
    return {"points": [], "lines": [{"base": base, "dir": direction}]}


@pytest.mark.parametrize(
    ("data", "want"),
    [
        (_point(["0", "١", "0"]), "points[0].y: not a canonical rational literal: '١'"),
        (_point(["１", "0", "0"]), "points[0].x: not a canonical rational literal: '１'"),
        (_point(["1١", "0", "0"]), "points[0].x: not a canonical rational literal: '1١'"),
        (_point(["0", "0", "2１"]), "points[0].z: not a canonical rational literal: '2１'"),
        (_point(["+1", "0", "0"]), "points[0].x: not a canonical"),
        (_point(["0", "01", "0"]), "points[0].y: not a canonical"),
        (_line(["0", "0", "0"], ["-00", "1", "0"]), "lines[0].dir.x: not a canonical"),
        (_point(["0", "0", "1_0"]), "points[0].z: not a canonical"),
        (_point(["1\n", "0", "0"]), "points[0].x: not a canonical"),
        (_point([HUGE, "0", "0"]), "points[0].x: Exceeds the limit"),
        (_line(["0", "0", "0"], ["1", "2", HUGE]), "lines[0].dir.z: Exceeds the limit"),
        (_point([1, "0", "0"]), "points[0].x: not a canonical rational literal: 1"),
        (_point(["1", "2"]), "points[0]: expected a 3-element list, got ['1', '2']"),
        (_point(["1", "2", "3", "4"]), "points[0]: expected a 3-element list"),
        (_line(["1", "2", "3"], ["0", "-0", "0"]), "lines[0].dir: zero direction"),
        (
            {"points": [["1", "2", "3"], ["0", "0", "0"], ["1", "2", "3"]], "lines": []},
            "duplicate point at indexes 0 and 2",
        ),
        (
            _int_points_pq_base(["1/2", "0", "1١"]),
            "lines[0].base.z: not a canonical rational literal: '1١'",
        ),
    ],
)
def test_load_config_rejects_what_the_reference_rejects(tmp_path, data, want):
    kind, message = load_both(tmp_path, data)
    assert message.startswith(want)
    duplicate = message.startswith("duplicate")
    assert kind is (InvalidConfigurationError if duplicate else ConfigParseError)


def test_load_config_reads_signed_zero_and_unreduced_literals(tmp_path):
    line = {"base": ["-0", "1", "0"], "dir": ["4/2", "0", "2"]}
    points, lines = load_both(tmp_path, {"points": [["-0", "4/2", "3"]], "lines": [line]})
    assert points == [(0, 2, 3, 1)]
    assert lines == [((0, 1, 0, 1), (1, 0, 1))]
