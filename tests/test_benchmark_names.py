"""The library names the benchmark harness reads still resolve.

benchmarks/spans.py wraps each function in TRACED by looking it up in its
owner's __dict__, so a renamed or deleted function would break only traced
benchmark runs; benchmarks/workloads.py and the span observers read fields
of the results. Both are checked here, without running a benchmark.
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

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


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
