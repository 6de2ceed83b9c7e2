"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest -q benchmarks"""

import json
import logging
import os
import random
import re
import time

import pytest

import child
import inputs
import run
import spans
import workloads
from outerspacekit import cli, graphs, metric, whitehead
from outerspacekit.words import CyclicWord

logging.getLogger("outerspacekit").setLevel(logging.ERROR)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def generated(seed):
    rng = random.Random(seed)
    out = []
    for rank in range(2, 7):
        for cell in inputs.CELLS:
            p = inputs.valid_point(cell, rank, rng, n_moves=2)
            out.append(p)
            out += [inputs.invalid_variant(p, kind, rng) for kind in inputs.INVALID_KINDS]
        if rank >= 3:
            out.append(inputs.primitive_word(rank, rng, 10))
            out.append(inputs.proper_square(rank, rng, rank + 2))
    out.append(inputs.selfmap_dicts())
    return inputs.dumps(out)


def test_generators_are_deterministic():
    assert generated(7) == generated(7)
    assert generated(7) != generated(8)


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("cell", inputs.CELLS)
def test_valid_points_pass_and_invalid_variants_fail(rank, cell):
    rng = random.Random(rank * 31 + len(cell))
    for n_moves in (0, 2):
        good = inputs.valid_point(cell, rank, rng, n_moves)
        assert graphs.validate_point(graphs.point_from_dict(good, validate=False)).valid
        for kind in inputs.INVALID_KINDS:
            bad = inputs.invalid_variant(good, kind, rng)
            report = graphs.validate_point(graphs.point_from_dict(bad, validate=False))
            assert not report.valid, (kind, report.problems)


@pytest.mark.parametrize("rank", [5, 6])
def test_high_rank_invalid_variants_fail(rank):
    # the valid rank 5-6 points themselves take seconds to certify
    rng = random.Random(rank)
    for cell in inputs.CELLS:
        good = inputs.valid_point(cell, rank, rng, n_moves=2)
        for kind in inputs.INVALID_KINDS:
            bad = graphs.point_from_dict(inputs.invalid_variant(good, kind, rng), validate=False)
            assert not graphs.validate_point(bad).valid, kind


def test_words_are_primitive_or_not_by_construction():
    rng = random.Random(3)
    for rank in (3, 4):
        for _ in range(3):
            assert whitehead.is_primitive(CyclicWord.make(inputs.primitive_word(rank, rng, 8)), rank)
            assert not whitehead.is_primitive(
                CyclicWord.make(inputs.proper_square(rank, rng, rank + 1)), rank)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_cycle_has_enough_ops_for_a_p90(name, tmp_path):
    # at least ten ops must lie beyond the 90th percentile
    assert len(workloads.build(name, 1, str(tmp_path))) >= 100


def test_traced_self_times_fit_in_traced_wall_time(tmp_path):
    fwd = tmp_path / "golden.json"
    fwd.write_text(json.dumps(inputs.selfmap_dicts()["golden.fwd"]))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.on = True
        t = time.perf_counter()
        x = graphs.random_point(3, 1, n_moves=2)
        metric.distance(x, graphs.random_point(3, 2, n_moves=2))
        cli.main(["tt", "pf", str(fwd)])
        wall = time.perf_counter() - t
        tracer.on = False
    finally:
        tracer.uninstall()
    m = {k: v for k, (v, _) in tracer.summary(wall).items()}
    self_ms = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    assert 0 < self_ms <= wall * 1000.0
    assert sum(v for k, v in m.items() if k.endswith(".self_share")) <= 1.0
    assert m["graphs.random_point.calls"] == 2
    assert m["metric.distance.calls"] == 1 and m["cli.main.calls"] == 1
    assert m["graphs.validate_point.calls"] >= 2  # reached through the module it was imported into
    assert not hasattr(graphs.validate_point, "__wrapped__")  # uninstall restored it


def test_metric_names():
    names = [n for n, _ in run.END_TO_END] + [n for n, _ in spans.metric_names()]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.metric_names()
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m


def _sleep_ops(n, check):
    return [workloads.Op("sleep", lambda: time.sleep(0.001), check) for _ in range(n)]


def test_seconds_sets_the_number_of_passes():
    # 100 ops of about 1 ms are one pass of about 0.1 s
    assert child.run_ops(_sleep_ops(100, lambda out: True), 0.1)["passes"] == child.MIN_PASSES
    assert child.run_ops(_sleep_ops(100, lambda out: True), 1.0)["passes"] > child.MIN_PASSES + 2


def test_a_check_that_raises_marks_its_op_wrong():
    def check(out):
        raise KeyError("value")

    ops = _sleep_ops(3, check) + _sleep_ops(2, lambda out: True)
    result = child.run_ops(ops, 0.0)
    assert result["wrong"] == result["failed"] == 3 and not result["errors"]
    assert len(result["check_errors"]) == 3
    assert result["check_errors"][0] == "sleep: check raised KeyError: 'value'"
