"""The capped axis scan: project reads its levels with a cap, against the
scan that reads every level exactly (tests/oracles.project_exhaustive),
field for field, and the walks the caps save."""

import logging
import random

import pytest

from outerspacekit.axes import project
from outerspacekit.graphs import point_from_dict, point_to_dict, random_point
from outerspacekit.words import random_automorphism

from . import oracles
from .test_axis_steps import AXES, SHIFTS, _points, _reference
from .test_graphs import CELLS

# axis -> (the shifts of the points projected against the exhaustive scan,
# the largest |shift| of a point read back from its file). Read back, a
# point is its own root at shift 0: on the positive-walk axis (lambda 26.4)
# the scan of G_2 read back takes 0.1-0.4 s and that of G_-3 passes
# LEAF_PATH_MAX, capped or not
CAPPED_POINTS = {**{name: (shifts, max(map(abs, shifts))) for name, shifts in SHIFTS.items()},
                 "swap_axis": ((-6, 3, 12), 12), "pw3_axis": ((-1, 1), 1)}


def _walked(ax, X):
    """The candidate-levels of X's marking walked by ax so far."""
    return sum(len(w.lengths) for w in ax._walk_of(X)[0])


@pytest.mark.parametrize("name", [*AXES, "swap_axis", "pw3_axis"])
def test_capped_projections_equal_the_exhaustive_scan(name, request):
    """They agree field by field on at least 40 points per axis: points of
    every cell, acted on or not, axis points, points shifted by the axis,
    jittered copies of these, and copies read back from their files, which
    are their own roots at shift 0."""
    ax = _reference(request.getfixturevalue(name))
    rng = random.Random(f"capped-{name}")
    shifts, far = CAPPED_POINTS[name]
    pairs = _points(ax, rng, shifts)
    points = [P for P, _ in pairs]
    points += [P.act(random_automorphism(ax.rank, rng, 2)) for P in points[:len(CELLS)]]
    points += [point_from_dict(point_to_dict(P)) for P, k in pairs if abs(k) <= far]
    assert len(points) >= 40
    for X in points:
        assert project(X, ax) == oracles.project_exhaustive(X, ax)


def test_capped_projection_walks_half_the_exhaustive_scan(rank4_axis):
    for seed in range(8):
        X = random_point(4, seed, n_moves=4)
        capped, exhaustive = _reference(rank4_axis), _reference(rank4_axis)
        project(X, capped)
        oracles.project_exhaustive(X, exhaustive)
        assert 2 * _walked(capped, X) <= _walked(exhaustive, X)


def test_large_lambda_levels_are_decided_by_few_candidates(pw5_axis):
    """On the rank-5 positive-walk axis, lambda 181.9, a projection walks
    at most 2 of the 25 candidates to each level +-1 and +-2. Walking all
    of them to level 2 passes LEAF_PATH_MAX from the last point."""
    ax = _reference(pw5_axis)
    for seed in range(10):
        X = random_point(5, seed, n_moves=6)
        assert project(X, ax).argmin == (0,)
        walks, _ = ax._walk_of(X)
        assert len(walks) == 25
        assert all(sum(m in w.lengths for w in walks) <= 2 for m in (-2, -1, 1, 2))
    with pytest.raises(ValueError, match="^the axis walk at level 2 has .* LEAF_PATH_MAX"):
        oracles.project_exhaustive(X, _reference(ax))


def test_projection_logs_its_scan(rank4_axis, caplog):
    """One DEBUG line per projection: the window, the levels decided by a
    cap and the candidate-levels walked, as lazy % arguments."""
    ax = _reference(rank4_axis)
    caplog.set_level(logging.DEBUG, logger="outerspacekit.axes")
    X = random_point(4, 0, n_moves=4)
    got = project(X, ax)
    record, = caplog.records
    lo, hi, capped, walked = record.args
    assert (lo, hi) == got.scanned
    assert capped and all(m not in got.argmin for m in capped)
    assert walked == _walked(ax, X) - len(ax._walk_of(X)[0])
    assert record.getMessage() == (f"projection window [{lo}, {hi}]: levels {capped} decided "
                                   f"by a cap, {walked} candidate-levels walked")
    caplog.clear()
    caplog.set_level(logging.INFO, logger="outerspacekit.axes")
    assert project(X, ax) == got
    assert caplog.records == []
