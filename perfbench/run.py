"""incilab benchmark: one workload per process, single-threaded.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up generates the workload's configs from the seed and writes
them as JSON.  The run then repeats passes over the workload's ops for S
seconds: the first pass is the cold one, the rest are warm.  Every op's
output is checked (see workloads.py); an op that raises or fails its check
counts as failed, the run goes on, and the exit code is 1.

Times are rescaled to a fixed machine speed measured by a probe process
that runs alongside the program on the same CPU (see reference.py); the raw
wall and CPU times are in the metadata line.  With --trace 0 the last stdout line carries the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it carries the per-layer
metrics, from passes run under the trace (see tracing.py) alternating with
untraced ones, whose difference is the trace overhead.  The line before it
is run metadata: raw and rescaled pass times with quartiles and sample
count, failures, Python version, CPU count, source revision and load
average before and after.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

SETUP_REPS = 5

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"


@dataclass
class PassResult:
    wall: float = 0.0  # raw wall seconds of the ops, probe included
    cpu: float = 0.0  # raw CPU seconds of the ops
    scaled_wall: float = 0.0
    scaled_cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None

    @property
    def scale(self) -> float:
        """Factor from raw wall seconds to rescaled program seconds."""
        return self.scaled_wall / self.wall


def run_pass(ops, out_dir, digests, probe, tracer=None, label="") -> PassResult:
    """Run every op once.  Times cover the ops, not the checks."""
    res = PassResult()
    mark = tracer.mark() if tracer is not None else None
    for op in ops:
        res.attempted += 1
        if tracer is not None:
            tracer.op_id = f"{label}:{op.name}"
        outputs = None
        start = probe.read()
        try:
            with tracer or contextlib.nullcontext():
                outputs = op.run(out_dir)
        except Exception as err:
            res.failed += 1
            res.problems.append(f"{op.name}: {type(err).__name__}: {err}")
            traceback.print_exc(file=sys.stderr)
        finally:
            end = probe.read()
            wall, cpu = probe.rescaled(start, end)
            res.wall += end.wall - start.wall
            res.cpu += end.cpu - start.cpu
            res.scaled_wall += wall
            res.scaled_cpu += cpu
        if outputs is not None:
            problems = op.check(outputs, digests)
            res.failed += bool(problems)
            res.problems += problems
    if tracer is not None:
        res.layers = tracer.layer_metrics(mark)
    return res


def import_cli() -> None:
    """Start a fresh interpreter that imports the CLI, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), INCILAB_THREADS="1")
    subprocess.run(
        [sys.executable, "-c", "import incilab.cli"], env=env, check=True, cwd=ROOT
    )


def setup(workloads, workload, seed, work_dir, probe, tracer=None):
    """Set up SETUP_REPS times; each set-up is a fresh interpreter import
    plus generating and writing every config.  Returns the ops of the last
    set-up and each set-up's raw and rescaled seconds."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        start = probe.read()
        import_cli()
        with tracer or contextlib.nullcontext():
            ops = workloads.make_ops(workload, seed, work_dir)
        end = probe.read()
        raw.append(end.wall - start.wall)
        scaled.append(probe.rescaled(start, end)[0])
    return ops, raw, scaled


def spread(values):
    """Median, quartiles and sample count."""
    q1, q3 = (
        statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def source_revision():
    """Git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def measure(ops, out_dir, digests, seconds, probe, tracer):
    """Cold pass, then warm passes while another one is expected to end
    within `seconds` of the start.  With a tracer, warm passes alternate
    traced and untraced, at least one each."""
    start = time.perf_counter()
    cold = run_pass(ops, out_dir, digests, probe)
    typical = time.perf_counter() - start
    warm, traced = [], []
    while True:
        if warm and (tracer is None or traced):
            if time.perf_counter() - start + typical > seconds:
                break
        t0 = time.perf_counter()
        if tracer is not None and len(traced) <= len(warm):
            traced.append(
                run_pass(ops, out_dir, digests, probe, tracer, f"p{len(traced)}")
            )
        else:
            warm.append(run_pass(ops, out_dir, digests, probe))
        typical = time.perf_counter() - t0
    return cold, warm, traced


def layer_values(traced, time_metrics):
    """Per-layer metrics: median rescaled self seconds over the traced
    passes, and counts from the first one.  Passes repeat identical inputs,
    so a count that differs between them is returned as drift."""
    first = traced[0].layers
    out, drift = {}, []
    for key, value in first.items():
        if key in time_metrics:
            out[key] = statistics.median(p.layers[key] * p.scale for p in traced)
        else:
            out[key] = value
            if any(p.layers[key] != value for p in traced[1:]):
                drift.append(key)
    return out, drift


def main(argv=None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "incilab" / "__init__.py").is_file() or not bench_path.is_file():
        sys.stderr.write(
            "error: run from the root of an incilab checkout "
            "(needs src/incilab and BENCHMARK.json)\n"
        )
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["INCILAB_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    load_before = loadavg()
    cpus_allowed = len(os.sched_getaffinity(0))
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir()
    try:
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            with tracer:  # a stale wrap target fails here, before measuring
                pass
        digests = (
            workloads.load_digests(args.workload)
            if args.seed == workloads.DEFAULT_SEED
            else None
        )
        with reference.Probe() as probe:
            ops, setup_raw, setup_scaled = setup(
                workloads, args.workload, args.seed, work_dir, probe, tracer
            )
            cold, warm, traced = measure(
                ops, work_dir, digests, args.seconds, probe, tracer
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    load_after = loadavg()

    passes = [cold] + warm + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    pass_s = statistics.median(p.scaled_wall for p in warm)

    if tracer is None:
        values = {
            "pass_s": pass_s,
            "cold_pass_s": cold.scaled_wall,
            "cpu_s": statistics.median(p.scaled_cpu for p in warm),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = bench["end_to_end"]
    else:
        values, drift = layer_values(traced, tracing.TIME_METRICS)
        values["configs.generate_s"] = (
            tracer.generate_seconds() / SETUP_REPS * statistics.median(p.scale for p in traced)
        )
        values["trace.pass_s"] = statistics.median(p.scaled_wall for p in traced)
        values["trace.overhead_s"] = values["trace.pass_s"] - pass_s
        if drift:
            problems.append(f"counters differ between identical passes: {drift}")
        tracer.write(WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json")
        declared = bench["per_layer"]

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.stderr.write(f"error: metrics not produced: {missing}\n")
        return 2
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    for msg in problems:
        sys.stderr.write(f"FAILED {msg}\n")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "pass_s": spread([p.scaled_wall for p in warm]),
        "raw_pass_s": spread([p.wall for p in warm]),
        "raw_cpu_s": spread([p.cpu for p in warm]),
        "raw_cold_pass_s": cold.wall,
        "raw_setup_s": spread(setup_raw),
        "rescale": spread([p.scale for p in passes]),
        "traced_passes": len(traced),
        "fail_ratio": failed / attempted,
        "digests_checked": digests is not None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": cpus_allowed,
        "pinned_to_cpu": min(os.sched_getaffinity(0)),
        **source_revision(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    print(json.dumps({"detail": detail}))
    ok = not problems
    print(
        json.dumps(
            {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
