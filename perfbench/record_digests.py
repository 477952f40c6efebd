"""Rewrite digests.json from the checkout's current program.

    python3 perfbench/record_digests.py

Runs every op of every workload once at the default seed and stores the
sha256 of each output file.  Run it only when a change is meant to alter
report bytes; the benchmark fails any op whose output drifts from these.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        table = {}
        for name in workloads.WORKLOADS:
            table[name] = {}
            for op in workloads.make_ops(name, workloads.DEFAULT_SEED, work):
                outputs = op.run(work)
                problems = op.check(outputs, None)
                if problems:
                    sys.stderr.write("\n".join(problems) + "\n")
                    return 1
                table[name][op.name] = [
                    hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs
                ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
