"""The axis scan read off the step maps, against the scan that builds each
axis point G_m from the word phi^m (tests/oracles.py), bit for bit."""

import random

import pytest

from outerspacekit import axes
from outerspacekit.axes import Axis, ball_sample_record, length_profile, project, two_axis_report
from outerspacekit.graphs import jitter_lengths, random_point, rose
from outerspacekit.words import random_automorphism

from . import oracles
from .test_graphs import CELLS, _cell_point

AXES = ["golden_axis", "silver_axis", "tribo_axis", "rank4_axis"]
LEVELS = range(-6, 7)


def _reference(ax):
    """A second axis of the same maps, so the oracle shares no cache."""
    return Axis(ax.forward, ax.backward)


def _points(ax, rng):
    """Points of every cell, the axis points G_k for |k| <= 3, and
    jittered copies of all of them."""
    points = [_cell_point(cell, ax.rank, rng) for cell in CELLS]
    points += [ax.point(k) for k in range(-3, 4)]
    return points + [jitter_lengths(p, rng, 0.3) for p in points]


@pytest.mark.parametrize("name", AXES)
def test_distances_and_projections_match_the_built_points(name, request):
    ax = request.getfixturevalue(name)
    ref = _reference(ax)
    for X in _points(ax, random.Random(name)):
        got = [ax.dist_to_axis_point(X, m) for m in LEVELS]
        assert got == [oracles.dist_to_axis_point(ref, X, m) for m in LEVELS]
        assert project(X, ax) == oracles.project(X, ref)


@pytest.mark.parametrize("name", AXES)
def test_length_profiles_match_the_powers(name, request):
    ax = request.getfixturevalue(name)
    ref = _reference(ax)
    X = _cell_point("trivalent", ax.rank, random.Random(name))
    classes = [c.conjugacy_class for c in ax.base.candidates() + X.candidates()]
    for alpha in classes:
        for window in ((-8, 8), (2, 5), (-5, -2)):
            prof = length_profile(alpha, ax, window)
            assert prof.values == oracles.length_values(alpha, ref, window)


def test_two_axis_report_projects_each_point_once(golden_axis, monkeypatch):
    axB = golden_axis.translate(random_automorphism(2, random.Random(3), 4))
    ref = _reference(golden_axis)
    calls = []
    real = axes.project
    monkeypatch.setattr(axes, "project", lambda X, ax: calls.append(X) or real(X, ax))
    for window in (2, 5, 6):
        calls.clear()
        rep = two_axis_report(golden_axis, axB, window=window)
        assert len(calls) == 2 * window + 1
        for w, diam in ((window, rep.diam), (window // 2, rep.diam_half)):
            params = [t for m in range(-w, w + 1)
                      for t in oracles.project(axB.point(m), ref).argmin]
            assert diam == (max(params) - min(params)) * golden_axis.step


@pytest.mark.parametrize("name", AXES)
def test_off_axis_scans_build_no_power_beyond_one(name, request, monkeypatch):
    fixture = request.getfixturevalue(name)
    ax = _reference(fixture)
    real = Axis.power

    def power(self, m):
        if abs(m) >= 2:
            raise AssertionError(f"phi^{m} built")
        return real(self, m)

    monkeypatch.setattr(Axis, "power", power)
    X = random_point(ax.rank, 5, n_moves=2)
    assert project(X, ax) == project(X, fixture)
    alpha = X.candidates()[0].conjugacy_class
    assert length_profile(alpha, ax, (-8, 8)) == length_profile(alpha, fixture, (-8, 8))
    rec = ball_sample_record(ax, X, seed=0, sample=0)
    assert rec == ball_sample_record(fixture, X, seed=0, sample=0)


def test_rank_mismatch(golden_axis):
    with pytest.raises(ValueError, match=r"^rank mismatch: 3 vs 2$"):
        project(rose(3), golden_axis)
