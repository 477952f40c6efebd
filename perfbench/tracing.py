"""Outside-in per-layer trace for the benchmark.

The trace wraps public incilab functions under the names their callers look
them up by (``incilab.pipeline.count_incidences`` is the name full_report
calls, ``incilab.partition.count_real_roots`` the one classify_lines calls).
Each wrapped call records a span (name, start, end, parent, op id) in memory;
hooks read work counts off the call's arguments and result.  Nothing under
``src/`` knows it is being traced, and the wrappers exist only while a
``Tracer`` is installed.

Per-pair leaf calls (``plane_through_lines`` inside ``max_coplanar_lines``,
called n^2 times) are deliberately not wrapped: their cost stays in the
caller's self time and the wrapper would dominate what it measures.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


class TraceTargetError(RuntimeError):
    """A wrap target is missing, so its layer would silently read zero."""


# -- counters read off arguments and results ----------------------------------


def _count_hook(args, kwargs, result, counts):
    cfg = args[0]
    counts["incidence.pair_tests"] += cfg.m * cfg.n
    counts["incidence.incidences"] += result.total


def _coplanar_hook(args, kwargs, result, counts):
    n = len(args[0])
    counts["incidence.coplanar_pairs"] += n * (n - 1) // 2


def _build_hook(args, kwargs, result, counts):
    counts["partition.degree_used"] += result.degree


def _classify_lines_hook(args, kwargs, result, counts):
    counts["partition.lines_classified"] += len(args[1])


def _divides_hook(args, kwargs, result, counts):
    counts["algebra.divides_hits"] += bool(result)


def _stage_hook(args, kwargs, result, counts):
    counts["pipeline.components"] += len(result.components)
    counts["pipeline.pruned_incidences"] += result.pruned_total
    counts["pipeline.surface_points"] += result.counts.get("P_surface", 0)


# (module, attribute, span name, result hook).  Span names are the metric
# stems: a span named "incidence.count" feeds incidence.count_s and
# incidence.count_calls.  The same function wrapped under two lookup names
# (the benchmark's and the pipeline's) shares one span name.
TARGETS = (
    ("incilab.configs", "load_config", "configs.load", None),
    ("incilab.configs", "generate", "configs.generate", None),
    ("incilab.pipeline", "count_incidences", "incidence.count", _count_hook),
    ("incilab.pipeline", "max_coplanar_lines", "incidence.coplanar", _coplanar_hook),
    ("incilab.pipeline", "regulus_through", "incidence.regulus", None),
    ("incilab.partition", "build_partition", "partition.build", _build_hook),
    ("incilab.pipeline", "build_partition", "partition.build", _build_hook),
    ("incilab.pipeline", "classify_points", "partition.classify_points", None),
    ("incilab.partition", "classify_lines", "partition.classify_lines", _classify_lines_hook),
    ("incilab.pipeline", "classify_lines", "partition.classify_lines", _classify_lines_hook),
    ("incilab.partition", "cell_occupancy", "partition.occupancy", None),
    ("incilab.pipeline", "cell_occupancy", "partition.occupancy", None),
    ("incilab.pipeline", "classes_crossed", "partition.classes_crossed", None),
    ("incilab.partition", "restrict_to_line", "algebra.restrict", None),
    ("incilab.partition", "count_real_roots", "algebra.root_count", None),
    ("incilab.partition", "line_in_zero_set", "algebra.zero_set", None),
    ("incilab.pipeline", "line_in_zero_set", "algebra.zero_set", None),
    ("incilab.algebra", "line_in_zero_set", "algebra.zero_set", None),
    ("incilab.pipeline", "divides_by_plane", "algebra.divides_by_plane", _divides_hook),
    ("incilab.pipeline", "is_cone_with_apex", "algebra.cone_test", None),
    ("incilab.pipeline", "tp_divides", "algebra.tp_divides", None),
    ("incilab.partition", "nullspace", "linalg.nullspace", None),
    ("incilab.incidence", "nullspace", "linalg.nullspace", None),
    ("incilab.bounds", "st2d_bound", "bounds", None),
    ("incilab.bounds", "gk_bound", "bounds", None),
    ("incilab.bounds", "trivial_bound", "bounds", None),
    ("incilab.bounds", "midrange_bound", "bounds", None),
    ("incilab.pipeline", "degree_plan", "bounds", None),
    ("incilab.pipeline", "ratio_denominator", "bounds", None),
    ("incilab.pipeline", "cmp_power_products", "bounds", None),
    ("incilab.pipeline", "run_stage1", "pipeline.stage1", _stage_hook),
    ("incilab.pipeline", "run_stage2", "pipeline.stage2", _stage_hook),
    ("incilab.pipeline", "full_report", "pipeline.report", None),
    ("incilab.pipeline", "write_report_json", "pipeline.serialize", None),
    ("incilab.pipeline", "write_csv", "pipeline.serialize", None),
)

# metric name -> span whose self seconds it reports
SELF_TIME_METRICS = {
    "configs.load_s": "configs.load",
    "incidence.count_s": "incidence.count",
    "incidence.coplanar_s": "incidence.coplanar",
    "incidence.regulus_s": "incidence.regulus",
    "partition.build_s": "partition.build",
    "partition.classify_points_s": "partition.classify_points",
    "partition.classify_lines_s": "partition.classify_lines",
    "partition.occupancy_s": "partition.occupancy",
    "partition.classes_crossed_s": "partition.classes_crossed",
    "algebra.restrict_s": "algebra.restrict",
    "algebra.root_count_s": "algebra.root_count",
    "algebra.zero_set_s": "algebra.zero_set",
    "algebra.divides_by_plane_s": "algebra.divides_by_plane",
    "algebra.cone_test_s": "algebra.cone_test",
    "algebra.tp_divides_s": "algebra.tp_divides",
    "linalg.nullspace_s": "linalg.nullspace",
    "bounds.s": "bounds",
    "pipeline.stage1_self_s": "pipeline.stage1",
    "pipeline.stage2_self_s": "pipeline.stage2",
    "pipeline.report_self_s": "pipeline.report",
    "pipeline.serialize_s": "pipeline.serialize",
}

# metric name -> span whose call count it reports
CALL_METRICS = {
    "incidence.count_calls": "incidence.count",
    "partition.build_calls": "partition.build",
    "algebra.root_count_calls": "algebra.root_count",
    "algebra.divides_by_plane_calls": "algebra.divides_by_plane",
    "linalg.nullspace_calls": "linalg.nullspace",
}

TIME_METRICS = frozenset(SELF_TIME_METRICS)

HOOK_COUNTS = (
    "incidence.pair_tests",
    "incidence.coplanar_pairs",
    "partition.degree_used",
    "partition.lines_classified",
    "pipeline.components",
    "pipeline.pruned_incidences",
    "pipeline.surface_points",
)


class Tracer:
    """Installs the wrappers and keeps every span of the run in memory.

    Use as a context manager; leaving it restores the original functions.
    Spans are tuples (name, start, end, parent index or -1, op id).
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.errors: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        missing = []
        resolved = []
        for mod_name, attr, span, hook in TARGETS:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{mod_name}.{attr}")
            else:
                resolved.append((module, attr, fn, span, hook))
        if missing:
            raise TraceTargetError("trace targets not found: " + ", ".join(missing))
        for module, attr, fn, span, hook in resolved:
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, hook))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if hook is not None:
                hook(args, kwargs, result, self.counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def mark(self) -> tuple[int, dict, dict]:
        """Position to diff a later snapshot against."""
        return len(self.spans), dict(self.counts), dict(self.errors)

    def layer_metrics(self, since: tuple[int, dict, dict]) -> dict[str, float]:
        """Self seconds, calls and counters of the spans recorded after
        ``since``, which must not cut through an open span."""
        first, counts0, errors0 = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent, _op) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1

        def delta(table, before, key):
            return table.get(key, 0) - before.get(key, 0)

        out: dict[str, float] = {}
        for metric, span in SELF_TIME_METRICS.items():
            out[metric] = self_s.get(span, 0.0)
        for metric, span in CALL_METRICS.items():
            out[metric] = calls.get(span, 0)
        for key in HOOK_COUNTS:
            out[key] = delta(self.counts, counts0, key)
        out["partition.build_errors"] = delta(self.errors, errors0, "partition.build")
        pairs = out["incidence.pair_tests"]
        hits = delta(self.counts, counts0, "incidence.incidences")
        out["incidence.hit_ratio"] = hits / pairs if pairs else 0.0
        divides = out["algebra.divides_by_plane_calls"]
        divides_hits = delta(self.counts, counts0, "algebra.divides_hits")
        out["algebra.divides_hit_ratio"] = divides_hits / divides if divides else 0.0
        return out

    def generate_seconds(self) -> float:
        """Seconds spent in the config generators over the whole run."""
        return sum(
            end - start for name, start, end, _p, _o in self.spans
            if name == "configs.generate"
        )

    def write(self, path) -> None:
        """Every span of the run as JSON, one list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
