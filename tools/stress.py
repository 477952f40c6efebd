"""Re-check the partition stress corpus in tools/stress.json.

    python3 tools/stress.py            # compare against the record
    python3 tools/stress.py --record   # rewrite the record

Each corpus entry names one `build_partition` call (its point set, depth t,
slack eps and seed) and the outcome recorded for it: the sha256 of the
partition's `to_json_dict()`, serialized with sorted keys, or the type and
message of the error the call raised.  The script runs every entry and
prints the number of calls, the number of budget errors, the budget errors
per level, the levels each search family won, the levels the fewest-zeros
fallback decided, the corpus's wall time, the number of per-class key lists
the plane and slab families built, and the entries whose outcome changed.
It exits 1 when any outcome changed.  `--record` runs the calls that
`corpus()` lists and rewrites the file with their outcomes.  The wins and
the key lists are counted by swapping `partition._Search` for a recording
subclass while the calls run, so a change to the search can quote its work
before and after.

It is not part of the test suite; the corpus takes about 7 s on a 2-vCPU
host.  Run it after changing the bisector search; a change meant to keep
every partition must report 0 changed outcomes.  The package is imported
from PYTHONPATH when it is set there, else from the src/ next to this
directory, so the record can be made with another checkout's src/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tools" / "stress.json"
sys.path.append(str(ROOT / "src"))

from incilab import partition  # noqa: E402
from incilab.configs import grid3d, random_config  # noqa: E402
from incilab.geom import Rational3Point  # noqa: E402
from incilab.partition import build_partition  # noqa: E402
from incilab.qformat import qparse  # noqa: E402

# cloud kinds: each coordinate drawn as randint(-num, num) / randint(1, den)
CLOUD_KINDS = {"rational": (1000, 50), "small-int": (8, 1), "wide-int": (1000, 1)}


def cloud(kind: str, count: int, seed: int) -> list[Rational3Point]:
    num, den = CLOUD_KINDS[kind]
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        seen.add(tuple(Fraction(rng.randint(-num, num), rng.randint(1, den)) for _ in range(3)))
    return [Rational3Point(*c) for c in sorted(seen)]


def points_of(spec: dict) -> list[Rational3Point]:
    if spec["family"] == "cloud":
        return cloud(spec["kind"], spec["count"], spec["seed"])
    if spec["family"] == "grid3d":
        return list(grid3d(spec["N"]).points)
    return list(random_config(spec["m"], spec["n"], spec["seed"]).points)


def corpus() -> list[dict]:
    """The calls, each with seed t: small point sets at every depth 2-5 and
    slack 0, 1/10 and 1/4, then the large random sets at slack 1/10."""
    small = [
        {"family": "cloud", "kind": kind, "count": count, "seed": seed}
        for count in (8, 30, 60, 200)
        for kind in CLOUD_KINDS
        for seed in range(4)
    ]
    small += [{"family": "grid3d", "N": N} for N in range(3, 8)]
    calls = [
        {"points": spec, "t": t, "eps": eps, "seed": t}
        for spec in small
        for t in range(2, 6)
        for eps in ("0", "1/10", "1/4")
    ]
    calls += [
        {"points": {"family": "random", "m": 5000, "n": 500, "seed": s}, "t": 5, "eps": "1/10", "seed": 5}
        for s in range(10)
    ]
    calls.append(
        {"points": {"family": "random", "m": 20000, "n": 2000, "seed": 0}, "t": 6, "eps": "1/10", "seed": 6}
    )
    return calls


class _Tagged:
    """A candidate's signs, called as before, with its family and zeros."""

    def __init__(self, family: str, zeros: int, signs):
        self.family, self.zeros, self.signs = family, zeros, signs

    def __call__(self):
        return self.signs()


def recording(wins: Counter) -> type:
    """A `partition._Search` that counts in `wins` each level's winning
    family, under "fallback" the levels that the fewest-zeros fallback
    decided, and under "key lists" each class's keys of one direction that
    it built.  It draws and yields the same candidates as the search."""

    class Recording(partition._Search):
        def _class_keys(self, u, P):
            wins["key lists"] += 1
            return super()._class_keys(u, P)

        def _tagged(self, family, stream):
            for terms, zeros, signs in stream:
                yield terms, zeros, _Tagged(family, zeros, signs)

        def _planes(self):
            return self._tagged("planes", super()._planes())

        def _slabs(self):
            return self._tagged("slabs", super()._slabs())

        def _balanced(self):
            return self._tagged("balanced", super()._balanced())

        def run(self):
            got = super().run()
            if got is not None:
                wins[got[1].family] += 1
                wins["fallback"] += got[1].zeros > self.forced_zeros
            return got

    return Recording


def outcome(call: dict, points: list[Rational3Point]) -> dict:
    try:
        part = build_partition(points, call["t"], qparse(call["eps"]), call["seed"])
    except Exception as err:  # recorded, so a changed error shows as a change
        return {"error": type(err).__name__, "message": str(err)}
    text = json.dumps(part.to_json_dict(), sort_keys=True)
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def run(calls: list[dict]) -> list[dict]:
    entries = []
    memo_key, points = None, None
    for call in calls:
        key = json.dumps(call["points"], sort_keys=True)
        if key != memo_key:  # consecutive calls share their point set
            memo_key, points = key, points_of(call["points"])
        entries.append({**call, "outcome": outcome(call, points)})
    return entries


def write(entries: list[dict]) -> None:
    lines = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in entries)
    CORPUS.write_text("[\n" + lines + "\n]\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite tools/stress.json")
    args = parser.parse_args(argv)

    wins: Counter = Counter()
    search, partition._Search = partition._Search, recording(wins)
    start = time.perf_counter()
    try:
        if args.record:
            recorded = None
            entries = run(corpus())
        else:
            recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
            entries = run([{k: v for k, v in e.items() if k != "outcome"} for e in recorded])
    finally:
        partition._Search = search
    wall = time.perf_counter() - start

    errors = [e["outcome"] for e in entries if "error" in e["outcome"]]
    budget = [o["message"] for o in errors if o["error"] == "PartitionBudgetError"]
    per_level = Counter(int(re.match(r"level (\d+):", m).group(1)) for m in budget)
    sys.stdout.write(f"{len(entries)} calls, {len(budget)} budget errors\n")
    for level, count in sorted(per_level.items()):
        sys.stdout.write(f"  level {level}: {count}\n")
    if len(errors) > len(budget):
        sys.stdout.write(f"{len(errors) - len(budget)} other errors\n")
    sys.stdout.write(
        f"level wins: {wins['planes']} planes, {wins['slabs']} slabs, {wins['balanced']} balanced; "
        f"{wins['fallback']} decided by the fewest-zeros fallback\n"
    )
    sys.stdout.write(f"{wins['key lists']} per-class key lists built; corpus ran in {wall:.1f} s\n")

    if recorded is None:
        write(entries)
        sys.stdout.write(f"wrote {CORPUS.relative_to(ROOT)}\n")
        return 0
    changed = [
        (old, new) for old, new in zip(recorded, entries) if old["outcome"] != new["outcome"]
    ]
    for old, new in changed:
        call = {k: v for k, v in old.items() if k != "outcome"}
        sys.stdout.write(f"[CHANGED] {json.dumps(call, sort_keys=True)}: {old['outcome']} -> {new['outcome']}\n")
    sys.stdout.write(f"{len(changed)} changed outcomes\n")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
