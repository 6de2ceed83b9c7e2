"""The library names the benchmark harness reads still resolve.

benchmarks/spans.py wraps each function in TRACED by looking it up in its
owner's __dict__, so a renamed or deleted function would break only traced
benchmark runs; benchmarks/workloads.py and the span observers read fields
of the results. Both are checked here, and the lamination estimates the
laminations workload builds are made, without timing a benchmark run.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from outerspacekit.axes import ProjectionResult
from outerspacekit.graphs import MarkedMetricGraph, ValidationReport, rose
from outerspacekit.metric import distance
from outerspacekit.traintrack import CutVertexSearchResult, LaminationLengthEstimate
from outerspacekit.whitehead import CutReport, ReductionTrace

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SPANS = BENCHMARKS / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fields(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_every_traced_name_resolves():
    spans = _spans()
    assert {full.partition(".")[0] for full in spans.NAMES} == set(spans.LAYERS)
    assert {"graphs.enumerate_candidates", "graphs.MarkedMetricGraph.loop_length",
            "metric.distance"} <= set(spans.NAMES)
    for full in spans.NAMES:
        layer, _, qual = full.partition(".")
        owner = importlib.import_module(f"outerspacekit.{layer}")
        *classes, attr = qual.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert callable(owner.__dict__.get(attr)), full


def test_result_fields_the_benchmark_reads():
    assert callable(ReductionTrace.total_lengths)
    assert {"steps", "terminal_state"} <= _fields(ReductionTrace)
    assert {"connected", "isolated", "cut_vertices"} <= _fields(CutReport)
    assert {"value", "converged", "k_used"} <= _fields(LaminationLengthEstimate)
    assert {"moves", "combined_graph"} <= _fields(CutVertexSearchResult)
    assert "valid" in _fields(ValidationReport)
    assert "scanned" in _fields(ProjectionResult)
    # the distances workload reads DistanceResult.value and warms up with
    # MarkedMetricGraph.candidates
    assert distance(rose(2), rose(2, [1 / 3, 2 / 3])).value > 0
    assert callable(MarkedMetricGraph.candidates)


def test_lamination_estimates_the_benchmark_makes(monkeypatch, tmp_path):
    """The at-point and target estimates of one laminations cycle, as
    benchmarks/workloads.py builds them: among them silver at targets with
    marking junk under its k_cap. Each passes its check, and the span
    observer's fields read an int level and a converged flag."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # workloads imports inputs by name
    workloads = importlib.import_module("workloads")
    ops = [op for op in workloads.build_laminations(1, str(tmp_path))
           if op.kind.partition(".")[0] in ("at-point", "target")]
    assert {"at-point.silver", "target.silver"} <= {op.kind for op in ops}
    assert workloads.SILVER_K_CAP == 12
    for op in ops:
        est = op.run()
        assert op.check(est) and op.estimates(est) == [True], op.kind
        assert isinstance(est.k_used, int) and est.converged is True
        if op.kind.startswith("at-point."):
            assert est.value == 1.0 and est.k_used == 0
        elif op.kind == "target.silver":
            assert 0 < est.k_used <= workloads.SILVER_K_CAP
