"""Deterministic point/line configuration generators and file round-trip.

Families with exactly derivable counts (products of grids and packs of
planar grids), ruled-surface families kept rational by construction, and a
seeded random family.  Serialization keeps every coordinate as a canonical
rational string so round trips are identities, byte for byte.  Loading reads
each block (the points, the line bases, the line directions) in one pass on
`qformat`'s grammar, and walks its entries only to name the first bad one.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import starmap
from pathlib import Path

from .geom import Rational3Point, RationalLine, primitive_int_vector
from .incidence import Configuration
from .qformat import qliterals, qparse, qparts, ratio_str

RULED_KINDS = ("plane", "cone", "hp")


class ConfigParseError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; choose from {FAMILIES}"
            )


def _meta(family: str, params: dict, seed: int = 0) -> dict:
    return {"family": family, "params": dict(params), "seed": seed}


def _planar_copies(k: int, N: int) -> tuple[tuple, tuple]:
    """The points and lines of k copies of elekes2d(N), in planes z = 0..k-1."""
    points = tuple(
        Rational3Point(i, j, c)
        for c in range(k)
        for i in range(1, N + 1)
        for j in range(1, 2 * N * N + 1)
    )
    lines = tuple(
        RationalLine(Rational3Point(0, b, c), (1, a, 0))
        for c in range(k)
        for a in range(1, N + 1)
        for b in range(1, N * N + 1)
    )
    return points, lines


def elekes2d(N: int) -> Configuration:
    """2N^3 grid points and N^3 low-slope lines in z=0; every line holds
    exactly N of the points, so I = N^4."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return Configuration(*_planar_copies(1, N), _meta("elekes2d", {"N": N}))


def coplanar_pack(k: int, N: int) -> Configuration:
    """k parallel planar copies of elekes2d(N), in planes z = 0..k-1."""
    if k < 1 or N < 1:
        raise ValueError("k and N must be >= 1")
    return Configuration(*_planar_copies(k, N), _meta("coplanar_pack", {"k": k, "N": N}))


def grid3d(N: int) -> Configuration:
    """The integer grid [1,N]^3 with all 3N^2 axis-parallel lines."""
    if N < 1:
        raise ValueError("N must be >= 1")
    rng1 = range(1, N + 1)
    points = tuple(Rational3Point(i, j, k) for i in rng1 for j in rng1 for k in rng1)
    lines = []
    for a in rng1:
        for b in rng1:
            lines.append(RationalLine(Rational3Point(0, a, b), (1, 0, 0)))
            lines.append(RationalLine(Rational3Point(a, 0, b), (0, 1, 0)))
            lines.append(RationalLine(Rational3Point(a, b, 0), (0, 0, 1)))
    return Configuration(points, tuple(lines), _meta("grid3d", {"N": N}))


def _pythagorean_directions(count: int) -> list[tuple[int, int, int]]:
    """Primitive integer directions with a^2 + b^2 = c^2, in a fixed order."""
    out: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    c = 0
    while len(out) < count:
        c += 1
        if c > 10000:
            raise ValueError("ran out of rational cone directions")
        for a in range(-c, c + 1):
            b2 = c * c - a * a
            b = math.isqrt(b2)
            if b * b != b2:
                continue
            for bb in sorted({b, -b}):
                d = primitive_int_vector((a, bb, c))
                if d not in seen:
                    seen.add(d)
                    out.append(d)
                if len(out) == count:
                    return out
    return out


def ruled_surface(kind: str, k: int) -> Configuration:
    """k lines on a doubly- or singly-ruled surface plus their rational
    pairwise intersection points.

    plane: a pencil of k lines through the origin in z = 0.
    cone:  k rulings of x^2 + y^2 = z^2 through the apex.
    hp:    rulings of z = xy, split between the two families.
    """
    if kind not in RULED_KINDS:
        raise ValueError(f"unknown ruled kind {kind!r}; choose from {RULED_KINDS}")
    if k < 1:
        raise ValueError("k must be >= 1")
    origin = Rational3Point(0, 0, 0)
    if kind == "plane":
        lines = tuple(
            RationalLine(origin, (1, i, 0)) for i in range(k)
        )
        points = (origin,)
    elif kind == "cone":
        lines = tuple(
            RationalLine(origin, d) for d in _pythagorean_directions(k)
        )
        points = (origin,)
    else:
        na = -(-k // 2)
        nb = k - na
        fam_a = [RationalLine(Rational3Point(a, 0, 0), (0, 1, a)) for a in range(1, na + 1)]
        fam_b = [RationalLine(Rational3Point(0, b, 0), (1, 0, b)) for b in range(1, nb + 1)]
        lines = tuple(fam_a + fam_b)
        points = tuple(
            Rational3Point(a, b, a * b)
            for a in range(1, na + 1)
            for b in range(1, nb + 1)
        )
    return Configuration(
        points, lines, _meta("ruled_surface", {"kind": kind, "k": k})
    )


def concurrent(k: int) -> Configuration:
    """k lines through the origin with moment-curve directions (1, i, i^2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lines = tuple(RationalLine(Rational3Point(0, 0, 0), (1, i, i * i)) for i in range(k))
    return Configuration((Rational3Point(0, 0, 0),), lines, _meta("concurrent", {"k": k}))


def random_config(m: int, n: int, seed: int = 0) -> Configuration:
    """m distinct integer points and n distinct lines; about half the lines
    pass through two of the points, the rest are unconstrained."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    rng = random.Random(seed)
    radius = 50
    while (2 * radius + 1) ** 3 < 8 * (m + 1):
        radius *= 2
    points: list[Rational3Point] = []
    seen_pts = set()
    guard = 0
    while len(points) < m:
        guard += 1
        if guard > 200 * (m + 1):
            raise ValueError("point sampling stalled; lower m")
        c = tuple(rng.randint(-radius, radius) for _ in range(3))
        if c in seen_pts:
            continue
        seen_pts.add(c)
        points.append(Rational3Point(*c))
    lines: list[RationalLine] = []
    seen_lines = set()
    forced = n // 2 if m >= 2 else 0
    guard = 0
    while len(lines) < n:
        guard += 1
        if guard > 400 * (n + 1):
            raise ValueError("line sampling stalled; lower n")
        if len(lines) < forced:
            i, j = rng.sample(range(m), 2)
            a, b = points[i], points[j]
            direction = tuple(u - v for u, v in zip(b.ints[:3], a.ints[:3]))
            line = RationalLine(a, direction)
        else:
            base = Rational3Point(*(rng.randint(-radius, radius) for _ in range(3)))
            direction = tuple(rng.randint(-5, 5) for _ in range(3))
            if direction == (0, 0, 0):
                continue
            line = RationalLine(base, direction)
        if line in seen_lines:
            continue
        seen_lines.add(line)
        lines.append(line)
    return Configuration(
        tuple(points), tuple(lines), _meta("random", {"m": m, "n": n}, seed)
    )


# each family's builder and its parameters, each with the one type it takes
# (no bool or float for an int); the random family's builder also takes the seed
_GENERATORS = {
    "elekes2d": (elekes2d, {"N": int}),
    "coplanar_pack": (coplanar_pack, {"k": int, "N": int}),
    "grid3d": (grid3d, {"N": int}),
    "ruled_surface": (ruled_surface, {"kind": str, "k": int}),
    "concurrent": (concurrent, {"k": int}),
    "random": (random_config, {"m": int, "n": int}),
}
FAMILIES = tuple(_GENERATORS)


def generate(spec: GeneratorSpec) -> Configuration:
    builder, kinds = _GENERATORS[spec.family]
    missing = [p for p in kinds if p not in spec.params]
    if missing:
        raise ValueError(f"{spec.family} needs parameters {missing}")
    extra = [p for p in spec.params if p not in kinds]
    if extra:
        raise ValueError(f"{spec.family} does not take parameters {extra}")
    for p, kind in kinds.items():
        if type(value := spec.params[p]) is not kind:
            raise ValueError(f"{spec.family} parameter {p} must be {kind.__name__}, got {value!r}")
    args = [spec.params[p] for p in kinds]
    if spec.family == "random":
        args.append(spec.seed)
    return builder(*args)


# -- file round trip ----------------------------------------------------------


def _point_strs(p: Rational3Point) -> list[str]:
    *X, q = p.ints
    return [ratio_str(c, q) for c in X]


def config_to_json_dict(cfg: Configuration) -> dict:
    return {
        "meta": cfg.meta,
        "points": [_point_strs(p) for p in cfg.points],
        "lines": [
            {"base": _point_strs(l.base), "dir": [str(d) for d in l.dir]}
            for l in cfg.lines
        ],
    }


def save_config(cfg: Configuration, path) -> None:
    text = json.dumps(config_to_json_dict(cfg), indent=2, ensure_ascii=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _check_triple(raw, where: str) -> None:
    """Raise the error naming what is wrong with an entry, if anything."""
    if type(raw) is not list or len(raw) != 3:
        raise ConfigParseError(f"{where}: expected a 3-element list, got {raw!r}")
    for axis, item in zip("xyz", raw):
        try:
            qparts(item)
        except ValueError as err:
            raise ConfigParseError(f"{where}.{axis}: {err}") from None


def _read_block(raws) -> tuple[list, list | None] | None:
    """A block of 3-element lists of literals read in one pass: the int
    triples (X, Y, Z) of its entries over L = lcm(q_i), and the L's (None
    when every literal is an integer); None if an entry is malformed."""
    if not all(type(raw) is list and len(raw) == 3 for raw in raws):
        return None
    flat = [c for raw in raws for c in raw]
    if not qliterals(flat):
        return None
    try:
        ints = map(int, flat)
        return list(zip(ints, ints, ints)), None
    except ValueError:  # a "p/q" literal, or one over int()'s digit limit
        pass
    try:
        split = (c.partition("/") for c in flat)
        parts = iter([(int(p), int(q) if q else 1) for p, _, q in split])
    except ValueError:  # a literal over int()'s digit limit
        return None
    triples, dens = [], []
    for (p1, q1), (p2, q2), (p3, q3) in zip(parts, parts, parts):
        L = math.lcm(q1, q2, q3)
        triples.append((p1 * (L // q1), p2 * (L // q2), p3 * (L // q3)))
        dens.append(L)
    return triples, dens


def _points(triples, dens) -> list[Rational3Point]:
    """The points of a block `_read_block` read."""
    if dens is None:
        return list(starmap(Rational3Point._integral, triples))
    return [Rational3Point.from_ints(X, Y, Z, L) for (X, Y, Z), L in zip(triples, dens)]


def _raise_first_error(points, lines):
    """Name the first bad entry of blocks that did not read: every point,
    then each line's shape, base, direction and a zero direction."""
    for i, raw in enumerate(points):
        _check_triple(raw, f"points[{i}]")
    for i, raw in enumerate(lines):
        if type(raw) is not dict or "base" not in raw or "dir" not in raw:
            raise ConfigParseError(f"lines[{i}]: expected an object with 'base' and 'dir'")
        _check_triple(raw["base"], f"lines[{i}].base")
        _check_triple(raw["dir"], f"lines[{i}].dir")
        if not any(map(qparse, raw["dir"])):
            raise ConfigParseError(f"lines[{i}].dir: zero direction")
    raise AssertionError("a block did not read, yet every entry is well formed")


def load_config(path) -> Configuration:
    """Read a configuration file.  Each block (the points, the line bases,
    the line directions) is read in one pass on `qformat`'s grammar; only
    when one fails does the per-entry walk run, to name the first bad entry."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigParseError(
            f"{path}: line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except (ValueError, RecursionError) as err:  # bad UTF-8, deep nesting, huge ints
        raise ConfigParseError(f"{path}: {err}") from None
    if not isinstance(data, dict):
        raise ConfigParseError(f"{path}: top level must be an object")
    for key in ("points", "lines"):
        if key not in data or not isinstance(data[key], list):
            raise ConfigParseError(f"{path}: missing or malformed {key!r} list")
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ConfigParseError(f"{path}: 'meta' must be an object")
    points, raws = _read_block(data["points"]), data["lines"]
    lines = None
    if all(type(raw) is dict and "base" in raw and "dir" in raw for raw in raws):
        bases = _read_block([raw["base"] for raw in raws])
        dirs = _read_block([raw["dir"] for raw in raws])
        if bases and dirs and (0, 0, 0) not in dirs[0]:
            lines = list(map(RationalLine, _points(*bases), dirs[0]))
    if points is None or lines is None:
        _raise_first_error(data["points"], data["lines"])
    return Configuration(tuple(_points(*points)), tuple(lines), meta)
