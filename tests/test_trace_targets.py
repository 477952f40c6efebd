"""The benchmark trace (perfbench/tracing.py) wraps incilab functions under
the names their callers look them up by.  A refactor that drops or rebinds
one of those names would stop `perfbench/run.py --trace 1`; these tests
catch it without running the benchmark."""

import importlib.util
from pathlib import Path

from incilab import pipeline
from incilab.configs import GeneratorSpec, generate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_and_is_restored():
    tracing = load_tracing()
    original = pipeline.count_incidences
    with tracing.Tracer():
        assert pipeline.count_incidences is not original
    assert pipeline.count_incidences is original


def test_stages_call_traced_names_through_module_globals():
    tracing = load_tracing()
    cfg = generate(GeneratorSpec("grid3d", {"N": 3}))
    with tracing.Tracer() as tracer:
        pipeline.full_report(cfg, seed=0)
    names = [span[0] for span in tracer.spans]
    for stage in ("pipeline.stage1", "pipeline.stage2"):
        assert names.count(stage) == 1
    # one count and one coplanarity pass per report: the stages reuse them
    assert names.count("incidence.count") == 1
    assert names.count("incidence.coplanar") == 1
    for layer in ("partition.classify_points", "partition.classify_lines", "partition.occupancy"):
        assert names.count(layer) == 2
