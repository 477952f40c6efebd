"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  Checks that:
- BENCHMARK.json, layers.json, digests.json and workloads.py name the same
  workloads and per-layer metrics;
- an op that raises counts as failed and the pass goes on;
- a trace target that no longer exists stops a traced run;
- a short run of each workload, untraced and traced, prints every declared
  metric with its unit, checks correct, and shows the layer share each
  workload was chosen for (layers.json "chosen_for").
A full pass of every workload runs in each mode, so this takes minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from incilab import configs  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_declarations(bench, layers) -> list[str]:
    problems = []
    declared = {m["name"] for m in bench["per_layer"]}
    mapped = {m for layer in layers["layers"] for m in layer["metrics"]}
    if declared != mapped:
        problems.append(f"per_layer vs layers.json: {sorted(declared ^ mapped)}")
    names = {w["name"] for w in bench["workloads"]}
    if names != set(workloads.WORKLOADS):
        problems.append(f"workloads vs workloads.py: {sorted(names ^ set(workloads.WORKLOADS))}")
    digests = json.loads(workloads.DIGESTS_PATH.read_text(encoding="utf-8"))
    if set(digests) != names:
        problems.append(f"digests.json workloads: {sorted(set(digests) ^ names)}")
    return problems


def check_failure_accounting(work: Path) -> list[str]:
    """random(40, 400) at --D 8 runs out of slack at level 4."""
    cfg = configs.generate(configs.GeneratorSpec("random", {"m": 40, "n": 400}))
    path = work / "failing.config.json"
    configs.save_config(cfg, path)
    ops = [
        workloads.Op("failing", "report", path, 0, 8),
        workloads.Op("after", "report", path, 0, None),
    ]
    with reference.Probe() as probe:
        res = run.run_pass(ops, work, None, probe)
    if (res.attempted, res.failed) != (2, 1) or "failing" not in res.problems[0]:
        return [f"failure accounting: {res.attempted} attempted, {res.failed} failed, {res.problems}"]
    return []


def check_stale_target() -> list[str]:
    saved = tracing.TARGETS
    tracing.TARGETS = saved + (("incilab.pipeline", "no_such_function", "x", None),)
    try:
        with tracing.Tracer():
            pass
    except tracing.TraceTargetError:
        return []
    finally:
        tracing.TARGETS = saved
    return ["a missing trace target did not raise"]


def check_run(bench, layers, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        problems.append(f"{tag}: metrics/units differ: {sorted(set(want.items()) ^ set(got.items()))}")
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for rule in layers["chosen_for"]:
            if rule["workload"] != workload:
                continue
            share = sum(values[m] for m in rule["share_of"]) / values["trace.pass_s"]
            print(f"{workload}: {' + '.join(rule['share_of'])} = {share:.0%} of the traced pass")
            if share <= rule["above"]:
                problems.append(f"{tag}: share {share:.2f} <= {rule['above']}")
            for metric, value in rule.get("equals", {}).items():
                if values[metric] != value:
                    problems.append(f"{tag}: {metric}={values[metric]}, want {value}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))

    problems = check_declarations(bench, layers) + check_stale_target()
    work = ROOT / ".perfbench" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        problems += check_failure_accounting(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_run(bench, layers, workload, trace)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
