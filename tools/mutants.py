"""Re-check the mutant ledger in tools/mutants.json.

    python3 tools/mutants.py

Each ledger entry names a file under the repository root, an exact snippet
that must occur in it once, its replacement, and the tier-1 test node ids
that must fail once the replacement is made.  The script copies what
tier-1 reads (src/, tests/, perfbench/, README.md, pyproject.toml) into a
temporary directory, checks that the unmutated copy passes every named
node, and then applies each mutant alone and runs its nodes.  A mutant that
stops pytest from collecting its nodes (an import or syntax error) counts
as killed, and so does one whose run outlasts twice the unmutated run of
every node plus 30 s (a loop that never ends): its pytest process group is
killed.  It exits 1 when a snippet is missing or ambiguous, when the
unmutated copy fails, or when a mutant survives (some named node still
passes).

Every pytest run gets the same `--hypothesis-seed`, so a `@given` test
draws the same examples on every ledger run, and the example database is
neither read nor written: a kill that rests on a drawn example repeats.

Run it after changing a kernel the ledger covers: a refactor that moves a
snippet must update its entry, and a kernel change adds its own mutants.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tools" / "mutants.json"
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
HYPOTHESIS_SEED = 0


def failed_nodes(workdir: Path, nodes: list[str], timeout: float | None = None) -> set[str]:
    """The named nodes with a failure or error when pytest runs them in
    workdir; a parametrized node fails when any of its cases does, and every
    node fails when pytest cannot collect them or runs past `timeout`
    seconds, when its whole process group is killed."""
    # no bytecode: a restored file can match a mutant's cached size and mtime
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", *nodes,
        ],
        cwd=workdir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its own process group, with any children
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return set(nodes)
    # 2: a collection error; 4: a named node's file could not be collected
    if proc.returncode in (2, 4):
        return set(nodes)
    if proc.returncode not in (0, 1):  # 1 is "some tests failed"
        sys.stdout.write(stdout[-2000:] + stderr[-2000:])
        raise SystemExit(f"pytest exited {proc.returncode}")
    reported = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return {node for node in nodes if any(r == node or r.startswith(node + "[") for r in reported)}


def main() -> int:
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))

    problems = []
    for m in ledger:
        found = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["snippet"])
        if found != 1:
            problems.append(f"{m['name']}: snippet occurs {found} times in {m['file']}")
    if problems:
        sys.stdout.write("\n".join(problems) + "\n")
        return 1

    with tempfile.TemporaryDirectory(prefix="incilab-mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            elif src.exists():
                shutil.copy2(src, work / name)
        every = sorted({node for m in ledger for node in m["kills"]})
        start = time.monotonic()
        broken = failed_nodes(work, every)
        if broken:
            sys.stdout.write(f"the unmutated copy fails {sorted(broken)}\n")
            return 1
        # each mutant runs a subset of these nodes
        timeout = 2 * (time.monotonic() - start) + 30
        sys.stdout.write(f"unmutated copy passes {len(every)} nodes; time limit {timeout:.0f} s\n")

        for m in ledger:
            path = work / m["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m["snippet"], m["replacement"]), encoding="utf-8")
            try:
                survivors = set(m["kills"]) - failed_nodes(work, m["kills"], timeout)
            finally:
                path.write_text(original, encoding="utf-8")
            if survivors:
                problems.append(f"{m['name']}: survives {sorted(survivors)}")
                sys.stdout.write(f"[SURVIVED] {m['name']}\n")
            else:
                sys.stdout.write(f"[killed] {m['name']}: {len(m['kills'])} nodes fail\n")
    if problems:
        sys.stdout.write("\n".join(problems) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
