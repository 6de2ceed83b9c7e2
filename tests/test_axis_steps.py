"""The axis scan read off the step maps, against the scan that builds each
axis point G_m and measures distance to it (tests/oracles.py), bit for
bit."""

import random

import pytest

from outerspacekit import axes
from outerspacekit.axes import (
    Axis,
    ball_sample_record,
    length_profile,
    project,
    tree_inequality_probe,
    two_axis_report,
)
from outerspacekit.graphs import MarkedMetricGraph, jitter_lengths, random_point, rose
from outerspacekit.metric import distance
from outerspacekit.words import random_automorphism

from . import oracles
from .test_graphs import CELLS, _cell_point

AXES = ["golden_axis", "silver_axis", "tribo_axis", "rank4_axis"]
LEVELS = range(-6, 7)
# shifts s of the points X . phi^s compared with distance(X . phi^s, G_m),
# which realizes paths of about lambda^(2s) half-edges for m near s, so
# silver (lambda = 1 + sqrt 2) stops at 6
SHIFTS = {"golden_axis": (-6, 3, 12), "silver_axis": (-6, 3, 6),
          "tribo_axis": (-6, 3, 12), "rank4_axis": (-6, 3, 12)}
# the farthest shift projected, where only building the point costs lambda^s
FAR = {"golden_axis": 25, "silver_axis": 12, "tribo_axis": 30, "rank4_axis": 30}


def _reference(ax):
    """A second axis of the same map, base and phi, so the oracle shares no
    cache."""
    return Axis(ax.forward, base=ax.base, phi=ax.phi)


def _translate(ax, psi):
    """The axis of psi^-1 phi psi through base . psi."""
    return Axis(ax.forward, base=ax.base.act(psi), phi=psi.inverse().compose(ax.phi).compose(psi))


def _points(ax, rng, shifts):
    """(point, shift) pairs: points of every cell at shift 0, the axis
    points G_k at shift k for |k| <= 3, the points Y . phi^s built by
    ax.shift for s in shifts, Y the first cell point, and jittered copies
    of all of them, which keep their point's shift."""
    points = [(_cell_point(cell, ax.rank, rng), 0) for cell in CELLS]
    points += [(ax.point(k), k) for k in range(-3, 4)]
    points += [(ax.shift(points[0][0], s), s) for s in shifts]
    return points + [(jitter_lengths(p, rng, 0.3), k) for p, k in points]


@pytest.mark.parametrize("name", AXES)
def test_distances_and_projections_match_the_built_points(name, request):
    ax = _reference(request.getfixturevalue(name))
    ref = _reference(ax)
    for X, k in _points(ax, random.Random(name), SHIFTS[name]):
        got = [ax.dist_to_axis_point(X, m) for m in LEVELS]
        assert got == [oracles.dist_to_axis_point(ref, X, m) for m in LEVELS]
        assert project(X, ax) == oracles.project(X, ref, start=k)


@pytest.mark.parametrize("name", AXES)
def test_shifted_points_project_through_their_root(name, request, monkeypatch):
    """project(Y . phi^s) is project(Y) moved by s, with the same value bit
    for bit, and realizes no tight loop of the point Y . phi^s."""
    ax = _reference(request.getfixturevalue(name))
    rng = random.Random(f"shifted-{name}")
    Y = _cell_point("trivalent", ax.rank, rng)
    far = {s: ax.shift(Y, s) for s in (*SHIFTS[name], FAR[name])}
    markings = {P.marking for P in far.values()}
    real = MarkedMetricGraph.tight_loops

    def tight_loops(self, x):
        if x.marking in markings:
            raise AssertionError("tight loop of a shifted point realized")
        return real(self, x)

    monkeypatch.setattr(MarkedMetricGraph, "tight_loops", tight_loops)
    want = project(Y, ax)
    for s, P in far.items():
        for X in (P, P.with_lengths(Y.graph.lengths)):
            got = project(X, ax)
            assert got.argmin == tuple(m + s for m in want.argmin)
            assert got.scanned == tuple(m + s for m in want.scanned)
            assert (got.value, got.diam_dist, got.unimodal) == (
                want.value, want.diam_dist, want.unimodal)


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
    psi = random_automorphism(2, random.Random(3), 4)
    ref = _reference(golden_axis)
    calls = []
    real = axes.project
    monkeypatch.setattr(axes, "project", lambda X, ax: calls.append(X) or real(X, ax))
    for window in (2, 5, 6):
        calls.clear()
        rep = two_axis_report(golden_axis, psi, window=window)
        assert len(calls) == 2 * window + 1
        for w, diam in ((window, rep.diam), (window // 2, rep.diam_half)):
            params = [t for m in range(-w, w + 1)
                      for t in oracles.project(ref.point(m).act(psi), ref).argmin]
            assert diam == (max(params) - min(params)) * golden_axis.step


@pytest.mark.parametrize("name", AXES)
def test_off_axis_scans_build_no_power_beyond_one(name, request, monkeypatch):
    """Projecting, profiling and ball-sampling a point the axis did not
    build compose no phi^s with |s| >= 2 and build no G_m with |m| >= 2."""
    fixture = request.getfixturevalue(name)
    ax = _reference(fixture)
    real = Axis.shift

    def shift(self, Y, s):
        k = self._root(Y)[1] + s
        if abs(s) >= 2 or abs(k) >= 2:
            raise AssertionError(f"phi^{s} or a point at shift {k} built")
        return real(self, Y, s)

    monkeypatch.setattr(Axis, "shift", shift)
    X = random_point(ax.rank, 5, n_moves=2)
    assert project(X, ax) == project(X, fixture)
    alpha = X.candidates()[0].conjugacy_class
    assert length_profile(alpha, ax, (-8, 8)) == length_profile(alpha, fixture, (-8, 8))
    rec = ball_sample_record(ax, X, seed=0, sample=0)
    assert rec == ball_sample_record(fixture, X, seed=0, sample=0)


@pytest.mark.parametrize("name", AXES)
def test_project_finds_its_point_once(name, request, monkeypatch):
    """project finds X's root and walk once, however many levels it scans."""
    ax = _reference(request.getfixturevalue(name))
    calls = []
    for method in ("_root", "_walk_of"):
        real = getattr(Axis, method)
        monkeypatch.setattr(Axis, method, lambda self, X, real=real, method=method:
                            calls.append(method) or real(self, X))
    for X, _ in _points(ax, random.Random(f"once-{name}"), SHIFTS[name]):
        calls.clear()
        project(X, ax)
        assert sorted(calls) == ["_root", "_walk_of"]


def test_rank_mismatch(golden_axis):
    with pytest.raises(ValueError, match=r"^rank mismatch: 3 vs 2$"):
        project(rose(3), golden_axis)


@pytest.mark.parametrize("name", AXES)
def test_axis_distances_are_distances_bit_for_bit(name, request):
    """dist_to_axis_point(X, m) == distance(X, G_m).value for |m| <= 4, with
    X of every cell of the axis's rank (2-4): a fresh act point; a
    with_lengths copy of an axis point G_k; a point on an axis whose base
    is a scrambled random_point; a point on a translate of the axis; the
    points X . phi^s that the axis and the translate build by shift, for s
    in SHIFTS, and jittered copies of them."""
    fixture = request.getfixturevalue(name)
    rank = fixture.rank
    rng = random.Random(f"bit-identity-{name}")
    levels = range(-4, 5)
    for cell in CELLS:
        ax = _reference(fixture)
        moved = Axis(ax.forward, base=random_point(rank, rng.randrange(1 << 20), n_moves=4),
                     phi=ax.phi)
        shifted = _translate(ax, random_automorphism(rank, rng, 3))
        X = _cell_point(cell, rank, rng)
        cases = [(ax, X.act(random_automorphism(rank, rng, 2))),
                 (ax, jitter_lengths(ax.point(rng.randint(-3, 3)), rng, 0.3)),
                 (moved, moved.point(rng.randint(-3, 3))),
                 (moved, X),
                 (shifted, shifted.point(rng.randint(-3, 3))),
                 (shifted, jitter_lengths(shifted.point(rng.randint(-3, 3)), rng, 0.3)),
                 (shifted, X)]
        for A in (ax, shifted):
            for s in SHIFTS[name]:
                P = A.shift(X, s)
                cases += [(A, P), (A, jitter_lengths(P, rng, 0.3))]
        for A, P in cases:
            got = [A.dist_to_axis_point(P, m) for m in levels]
            assert got == [distance(P, A.point(m)).value for m in levels]


def test_axis_scans_read_no_class(golden_axis, rank4_axis, monkeypatch):
    """The distance-to-axis path reads no conjugacy class, nor do the
    experiments that read only distance values: projecting a fresh act
    point, projecting a translate of the axis, a ball sample and a tree
    inequality probe finish with path_class raising."""
    rng = random.Random("no-class")
    cases = []
    for fixture in (golden_axis, rank4_axis):
        ax = _reference(fixture)
        P = _cell_point("trivalent", ax.rank, rng)
        Q = _cell_point("theta", ax.rank, rng)
        cases.append((ax, P, Q, random_automorphism(ax.rank, rng, 3)))

    def refuse(self, path):
        raise AssertionError("path_class read")

    monkeypatch.setattr(MarkedMetricGraph, "path_class", refuse)
    for ax, P, Q, psi in cases:
        project(P.act(psi), ax)
        two_axis_report(ax, psi, 4)
        assert not ball_sample_record(ax, P.act(psi), seed=1, sample=0).skipped
        tree_inequality_probe(P.act(psi), Q.act(psi), ax)
