"""Discrete axes of fully irreducible automorphisms, projections onto them,
and the contraction / divergence / two-axis experiment harness.

The axis of phi through a train-track point G is discretized to the orbit
{G_m = G . phi^m}; consecutive points are log(lambda) apart. Out(F_n) acts
by isometries, so d(Y . phi^s, G_m) = d(Y, G_(m-s)) and the projection
moves with the action, pi(Y . phi^s) = pi(Y) + s: the axis's one rule.
Each point the axis builds is recorded as (root Z, shift k), the point
being Z . phi^k up to its edge lengths: G_m is (base, m), Axis.shift(Y, s)
is (Y's root, Y's shift + s), and any other point is its own root at
shift 0. A with_lengths copy shares its point's marking object and record.

Every G_m has the base graph with the base lengths, and the tight loop at
G_m of a class alpha is the tight loop at the base of phi^m(alpha). So for
X recorded as (Z, k), d(X, G_m) is the log of the largest ratio of the
base lengths of phi^(m-k) of Z's candidate classes to X's candidate
lengths, in the graph order of their one graph. The base lengths are
walked one level at a time by two step maps of the base graph: f+(h) is
the tight based path base.realize_based(phi(label(h))), label(h) the
base's label of the half-edge h, which is G_1.realize_based(label(h)), and
f- the same with phi^-1. The tight loop of phi^(j+-1)(alpha) is the cyclic
tightening of the f+- images of the half-edges of the tight loop of
phi^j(alpha), joined as realize_based joins its pieces. No word phi^m, no
point G_m and no conjugacy class is read, and the loops walked are Z's
whatever k is.

Projection of X recorded as (Z, k) scans m -> d(X, G_m) over a window
expanding from k until the minimum is interior. d(X, G_m) is a max over
X's candidates, and each candidate is walked alone: the scan reads each
level with a cap just above the least value so far, and a level above it
is decided by the first candidate whose ratio passes the cap, usually the
one stretched most at the level read before. The candidates a level does
not need are walked no further, and what the scan returns is that of the
scan reading every level exactly (see project). Experiments are
deterministic in their seeds; per-sample RNG streams derive from (seed,
sample index). They return records, named tuples that are their own CSV
rows under the headers here; the CLI formats and writes them.
"""

from __future__ import annotations

import logging
import math
import random
import weakref
from dataclasses import dataclass
from operator import truediv
from typing import NamedTuple

from . import graphs
from .graphs import MarkedMetricGraph, check_path_size, jitter_lengths, random_point
from .metric import distance
from .traintrack import TrainTrackMap
from .words import (
    Automorphism,
    CyclicWord,
    RankMismatchError,
    cyclic_tighten,
    join_pieces,
    random_automorphism,
    verify_inverse,
)

log = logging.getLogger(__name__)

PROJECT_MARGIN = 2  # levels kept on each side of the argmin, and the widening step
PROJECT_BUDGET = 40  # half the widest window project scans before it gives up
BALL_POINTS = 6  # points of each ball, Y among them, that the ball sampler projects
OFFSET_MOVES = 2  # random Whitehead moves of a ball sample's centre Y
OFFSET_JITTER = 0.35  # length jitter of a ball sample's centre Y
MORSE_HALF_SPAN = 3  # a Morse sample runs from G_-3 to G_3
PROBE_SHIFT = 3  # probe pairs are drawn as X . phi^-3 and Y . phi^3
PROBE_MIN_SEPARATION = 3  # levels a probe pair's projections must be more than apart
DETOUR_TRIES = 8  # shrinking edges tried per detour point


class _Walk:
    """The tight loops at the base graph of phi^m(alpha), for one class
    alpha given by its tight loop at level 0, walked one level at a time by
    the step maps {+1: f+, -1: f-}. Each class of a point has a walk of its
    own, so a class is walked only as far as it is read.

    Keeps the length of every level reached, and the loops of the lowest
    and the highest level only, since the walk goes on from those. `built`,
    level -> half-edges of the loops built at that level so far, is shared
    by the walks of one point: a loop that takes its level past
    LEAF_PATH_MAX raises ValueError (graphs.check_path_size).
    """

    __slots__ = ("steps", "path_length", "built", "lengths", "ends")

    def __init__(self, steps, path_length, built, loop):
        self.steps = steps
        self.path_length = path_length
        self.built = built
        self.lengths = {0: path_length(loop)}
        self.ends = {1: (0, loop), -1: (0, loop)}

    def length_at(self, m: int) -> float:
        """The base length of the loop at level m."""
        found = self.lengths.get(m)
        if found is None:
            s = 1 if m > 0 else -1
            f, path_length = self.steps[s], self.path_length
            built, lengths, ends = self.built, self.lengths, self.ends
            limit = graphs.LEAF_PATH_MAX  # compared here, so a step builds no message
            k, loop = ends[s]
            for k in range(k + s, m + s, s):
                loop = cyclic_tighten(join_pieces(f, loop))
                size = built.get(k, 0) + len(loop)
                if size > limit:
                    check_path_size(size, f"the axis walk at level {k} has")
                built[k] = size
                lengths[k] = path_length(loop)
                ends[s] = (k, loop)
            found = lengths[m]
        return found


class Axis:
    """The discrete axis {G_m = base . phi^m} of a fully irreducible phi.

    Points are built by `shift` and `point`, and each is recorded with its
    root and shift (see the module docstring), kept weakly by its marking
    object; _reader reads every point through its root, off the step maps
    f+ and f- of the base graph, built once from phi and phi^-1.
    `backward`, a train-track map or self-map of phi^-1, is checked to
    represent the inverse of phi, which certifies phi, and is not kept.
    """

    def __init__(
        self,
        forward: TrainTrackMap,
        backward=None,
        base: MarkedMetricGraph = None,
        phi: Automorphism = None,
    ):
        self.forward = forward
        self.base = base if base is not None else forward.point
        self.phi = phi if phi is not None else forward.automorphism()
        self.lam = forward.lam
        if backward is not None:
            if not verify_inverse(self.phi, backward.automorphism()):
                raise ValueError("backward train track does not represent the inverse")
        else:
            self.phi.inverse()
        self._points = {0: self.base}
        self._shifts = weakref.WeakKeyDictionary()  # marking object -> (root, shift)
        self._steps = None  # see _step_maps
        self._walks = weakref.WeakKeyDictionary()  # marking object -> (walks, rows)

    @property
    def rank(self):
        return self.base.rank

    @property
    def step(self):
        """Length of one fundamental domain: log(lambda)."""
        return math.log(self.lam)

    def _root(self, X: MarkedMetricGraph):
        """(Z, k) with X = Z . phi^k up to X's lengths; (X, 0) for a point
        the axis did not build."""
        return self._shifts.get(X.marking, (X, 0))

    def shift(self, Y: MarkedMetricGraph, s: int) -> MarkedMetricGraph:
        """Y . phi^s, acted on by phi or phi^-1 one level at a time, and
        recorded as (Y's root, Y's shift + s); the levels between are kept
        nowhere. ValueError, before the joins of a level, when its marking
        loops would join more than LEAF_PATH_MAX half-edges (act, naming
        the level)."""
        if not s:
            return Y
        Z, k = self._root(Y)
        f, step = (self.phi, 1) if s > 0 else (self.phi.inverse(), -1)
        for level in range(k + step, k + s + step, step):
            Y = Y.act(f, f"the marking loops of the axis point at shift {level} join")
        self._shifts[Y.marking] = (Z, k + s)
        return Y

    def point(self, m: int) -> MarkedMetricGraph:
        """G_m: shift(G_(m-+1), +-1), each level from the nearest one kept
        towards m built in turn and kept."""
        found = self._points.get(m)
        if found is None:
            s = 1 if m > 0 else -1
            k = m - s
            while k not in self._points:
                k -= s
            found = self._points[k]
            for level in range(k + s, m + s, s):
                found = self._points[level] = self.shift(found, s)
        return found

    def _step_maps(self):
        """The step maps {+1: f+, -1: f-}: half-edge h of the base graph ->
        base.realize_based(phi^(+-1)(label(h))), label(h) the base's label
        of h. This is G_(+-1).realize_based(label(h)), since G_(+-1) realizes
        a generator as the base realizes its phi^(+-1) image, but it builds
        no point. ValueError, before the joins of a map, when they would
        pass LEAF_PATH_MAX half-edges (realize_table)."""
        if self._steps is None:
            base = self.base
            labels = base._label_table()
            words = [labels[h] for h in range(1, base.graph.n_edges + 1)]
            self._steps = {s: base.realize_table([f.apply_letters(w) for w in words],
                                                 f"the axis step map {s:+d} joins")
                           for s, f in ((1, self.phi), (-1, self.phi.inverse()))}
        return self._steps

    def _walks_from(self, loops):
        """The walks from the given tight loops at the base graph, at level
        0, one per loop, sharing one count of the half-edges built at each
        level."""
        steps, path_length, built = self._step_maps(), self.base.graph.path_length, {}
        return [_Walk(steps, path_length, built, loop) for loop in loops]

    def _walk_of(self, X: MarkedMetricGraph):
        """(walks, rows): the walks of X's candidate classes in graph order,
        from base.tight_loops(X), and rows, level -> the tuple of their
        lengths at a level read exactly; kept per marking object of X, held
        weakly."""
        found = self._walks.get(X.marking)
        if found is None:
            found = self._walks[X.marking] = (self._walks_from(self.base.tight_loops(X)), {})
        return found

    def _reader(self, X: MarkedMetricGraph):
        """(k, read, walks) for X recorded as (Z, k): X's root, the walks of
        Z's candidates (see _walk_of) and X's candidate lengths found once,
        for every level read. read(m, cap=None) reads d(X, G_m).

        d(X, G_m) = d(X . phi^-k, G_(m-k)), and X . phi^-k is Z's marking
        with X's lengths: d(X, G_m) is the log of the largest ratio of a
        candidate's walk at level m - k to its length at X, both in the
        graph order of the one graph. distance takes the same ratios;
        the tight loop of a class is unique up to rotation and path_length
        is an exactly rounded sum, so the ratios are the same floats, and
        so are their max and its log, in whatever order they are read.

        With cap None, or when d(X, G_m) <= cap, read returns that value
        bit for bit. Otherwise it stops at the first candidate whose
        log-ratio passes cap and returns that log-ratio: a lower bound of
        d(X, G_m) above cap, and the largest log-ratio read, since every
        candidate read before it had one of at most cap. Candidates are
        read in descending order of their ratios at the last level read,
        those it did not read after in their old order, so that on a level
        far from the minimum the one stretched candidate of the last level
        usually decides it alone, and the others are walked no further. A
        level of Z read exactly once keeps its row of lengths and is read
        exactly again, cap or not, since that walks nothing.
        """
        if X.rank != self.rank:
            raise RankMismatchError.between(X.rank, self.rank)
        Z, k = self._root(X)
        walks, rows = self._walk_of(Z)
        lx = X.candidate_lengths()
        order = list(range(len(lx)))

        def read(m, cap=None):
            j = m - k
            row = rows.get(j)
            if row is None and cap is not None:
                for n, i in enumerate(order):
                    v = math.log(walks[i].length_at(j) / lx[i])
                    if v > cap:
                        if n:
                            order[:n + 1] = [i, *sorted(order[:n], reverse=True,
                                                        key=lambda i: walks[i].lengths[j] / lx[i])]
                        return v
            if row is None:
                row = rows[j] = tuple([w.length_at(j) for w in walks])
            ratios = list(map(truediv, row, lx))
            order.sort(key=ratios.__getitem__, reverse=True)
            return math.log(ratios[order[0]])

        return k, read, walks

    def dist_to_axis_point(self, X: MarkedMetricGraph, m: int, cap=None) -> float:
        """d(X, G_m), the value of distance(X, self.point(m)), bit for bit:
        X's reader (see _reader) read at m. With a cap, a value above it is
        only a lower bound of d(X, G_m) above it, which decides d >= cap."""
        return self._reader(X)[1](m, cap)


@dataclass
class LengthProfile:
    word: CyclicWord
    window: tuple
    values: list  # (m, length)
    min_set: tuple
    min_at_boundary: bool  # widen-window flag
    right_slope: float  # log-slope fitted on the right tail
    left_slope: float  # log-slope fitted on the left tail (decay rate of mu)


def _fit_slope(points):
    n = len(points)
    mx = sum(p[0] for p in points) / n
    my = sum(p[1] for p in points) / n
    num = sum((x - mx) * (y - my) for x, y in points)
    den = sum((x - mx) ** 2 for x, y in points)
    return num / den if den else 0.0


def length_profile(alpha: CyclicWord, ax: Axis, window) -> LengthProfile:
    """Lengths l(phi^m(alpha), base) over an integer window (lo, hi) of at
    least two levels, with min-set and tail growth rates; the loops are
    walked by the axis's step maps. A window of fewer levels raises
    ValueError."""
    if not alpha:
        raise ValueError("empty conjugacy class")
    if alpha.max_index() > ax.rank:
        raise ValueError("word rank exceeds automorphism rank")
    lo, hi = int(window[0]), int(window[1])
    if hi - lo < 1:
        raise ValueError(f"window ({lo}, {hi}) holds fewer than two levels")
    walk, = ax._walks_from([cyclic_tighten(ax.base.realize_based(alpha.letters))])
    values = [(m, walk.length_at(m)) for m in range(lo, hi + 1)]
    mn = min(v for (_, v) in values)
    min_set = tuple(m for (m, v) in values if v <= mn * (1.0 + 1e-12) + 1e-15)
    boundary = lo in min_set or hi in min_set
    tail = min(4, max(2, (hi - lo) // 2))
    right = [(m, math.log(v)) for (m, v) in values[-tail:]]
    left = [(-m, math.log(v)) for (m, v) in values[:tail]]
    return LengthProfile(
        word=alpha,
        window=(lo, hi),
        values=values,
        min_set=min_set,
        min_at_boundary=boundary,
        right_slope=_fit_slope(right),
        left_slope=_fit_slope(left),
    )


@dataclass
class ProjectionResult:
    argmin: tuple  # all integer parameters attaining the minimum (1e-9 ties)
    value: float
    diam_dist: float
    scanned: tuple
    unimodal: bool


def project(X: MarkedMetricGraph, ax: Axis) -> ProjectionResult:
    """Closest-point projection of X to the axis over an expanding window.

    With X recorded by the axis as (Z, k) (see the module docstring), the
    window starts at k, and each d(X, G_m) is read through Z by X's one
    reader, Axis._reader. The values are Z's at m - k, so the argmin of
    Z . phi^s is Z's shifted by s, and the scan builds no point G_m and no
    word phi^m.

    Levels are read outward from k, each with the cap mn + 1e-9, mn the
    least exact value so far; a value at most its cap is exact. A value
    above its cap is a lower bound, and the level lies above mn + 1e-9,
    so above every later minimum + 1e-9 too: it is neither the minimum nor
    in the argmin set. The least value was read exactly, as no value read
    before it was smaller, and so was every value within 1e-9 of it. So
    argmin, value, scanned and unimodal are those of the scan that reads
    every level exactly (tests/oracles.project_exhaustive), while a level
    above the cap walks only the candidates it reads, mostly one.

    The result depends on how X was built: a point equal to Z . phi^s in
    marking and lengths, but not built by this axis (read from a file, or
    acted on by phi^s directly), is its own root at shift 0. Its values are
    the same floats, but its window grows from 0, so `scanned` differs, the
    scan walks loops about lambda^|s| long, and where the profile has more
    than one local minimum the argmin may differ."""
    k, read, walks = ax._reader(X)
    debug = log.isEnabledFor(logging.DEBUG)
    if debug:
        levels_before = sum(len(w.lengths) for w in walks)
    lo, hi = k - PROJECT_MARGIN, k + PROJECT_MARGIN
    mn = read(k)
    d = {k: mn}
    capped = []

    def ensure(a, b):
        nonlocal mn
        for j in sorted(range(a - k, b - k + 1), key=abs):  # outward from k
            m = k + j
            if m not in d:
                cap = mn + 1e-9
                v = d[m] = read(m, cap)
                if v > cap:
                    capped.append(m)
                elif v < mn:
                    mn = v

    ensure(lo, hi)
    while True:
        argmin = sorted(m for m, v in d.items() if v <= mn + 1e-9)
        if argmin[0] >= lo + PROJECT_MARGIN and argmin[-1] <= hi - PROJECT_MARGIN:
            break
        if argmin[0] < lo + PROJECT_MARGIN:
            lo -= PROJECT_MARGIN
        if argmin[-1] > hi - PROJECT_MARGIN:
            hi += PROJECT_MARGIN
        if hi - lo > 2 * PROJECT_BUDGET:
            raise ValueError(
                f"no interior minimum within the widest window [{lo}, {hi}]"
            )
        ensure(lo, hi)
    if debug:
        log.debug("projection window [%d, %d]: levels %s decided by a cap, %d candidate-levels "
                  "walked", lo, hi, sorted(capped),
                  sum(len(w.lengths) for w in walks) - levels_before)
    unimodal = all(b - a == 1 for a, b in zip(argmin, argmin[1:]))
    if not unimodal:
        log.warning("non-contiguous argmin set %s in projection scan", argmin)
    return ProjectionResult(
        argmin=tuple(argmin),
        value=mn,
        diam_dist=(argmin[-1] - argmin[0]) * ax.step,
        scanned=(lo, hi),
        unimodal=unimodal,
    )


class ProbeRecord(NamedTuple):
    sep: int  # |pi(X) - pi(Y)| in levels
    delta1: float  # d(Y,X) - [d(Y,pi(Y)) + d(pi(Y),pi(X))]
    delta2: float  # d(Y,X) - d(Y,pi(X))
    delta3: float  # d(X,Y) - d(pi(X),pi(Y))


def tree_inequality_probe(X, Y, ax: Axis) -> ProbeRecord:
    """Defects of the tree-like projection inequalities for a pair (X, Y)."""
    px = project(X, ax)
    py = project(Y, ax)
    tx, ty = px.argmin[0], py.argmin[0]
    d_yx = distance(Y, X).value
    d_xy = distance(X, Y).value
    d_y_piy = py.value
    # d(G_a, G_b) = d(base, G_(b-a)) by translation
    d_piy_pix = ax.dist_to_axis_point(ax.base, tx - ty)
    d_y_pix = ax.dist_to_axis_point(Y, tx)
    d_pix_piy = ax.dist_to_axis_point(ax.base, ty - tx)
    return ProbeRecord(
        sep=abs(tx - ty),
        delta1=d_yx - (d_y_piy + d_piy_pix),
        delta2=d_yx - d_y_pix,
        delta3=d_xy - d_pix_piy,
    )


# -- experiment records -----------------------------------------------------


class BallRecord(NamedTuple):
    seed: int
    sample: int
    r: float
    n_ball_points: int
    proj_diam_m: object  # int, or "" when Y lies on the axis
    proj_diam_dist: object

    @property
    def skipped(self):
        return self.proj_diam_m == ""


class MorseRecord(NamedTuple):
    seed: int
    sample: int
    n_points: int
    max_off_axis: float


BALL_HEADER = list(BallRecord._fields)
MORSE_HEADER = list(MorseRecord._fields)
PAIR_HEADER = ["windows", "diam", "parallel"]


def _perturb(point: MarkedMetricGraph, rng: random.Random, strength: float,
             move_prob: float = 0.0) -> MarkedMetricGraph:
    if move_prob and rng.random() < move_prob:
        point = point.act(random_automorphism(point.rank, rng, 1))
    return jitter_lengths(point, rng, min(strength, 0.9))


def ball_sample_record(ax: Axis, Y: MarkedMetricGraph, seed: int, sample: int) -> BallRecord:
    """Project an outward ball B(Y, r) with r = d(Y, axis); record the
    parameter diameter of the union of the projections."""
    rng = random.Random(1_000_003 * seed + 2 * sample)
    py = project(Y, ax)
    r = py.value
    if r < 1e-9:
        log.info("sample %d skipped: Y lies on the axis (r=0)", sample)
        return BallRecord(seed, sample, r, 0, "", "")
    params = set(py.argmin)
    accepted = 1  # Y itself lies in the open ball
    attempts = 0
    strength = 0.5 * min(r, 1.0)
    while accepted < BALL_POINTS and attempts < 8 * BALL_POINTS:
        attempts += 1
        Z = _perturb(Y, rng, strength)
        if distance(Y, Z).value < r:
            pz = project(Z, ax)
            params.update(pz.argmin)
            accepted += 1
        else:
            strength *= 0.7
    diam_m = max(params) - min(params)
    return BallRecord(seed, sample, r, accepted, diam_m, diam_m * ax.step)


def _ball_sample(ax: Axis, seed: int, sample: int) -> BallRecord:
    """ball_sample_record around a centre Y drawn from (seed, sample)."""
    y_seed = (7_919 * seed + 104_729 * sample + 13) & 0x7FFFFFFF
    Y = random_point(ax.rank, y_seed, n_moves=OFFSET_MOVES, jitter=OFFSET_JITTER)
    return ball_sample_record(ax, Y, seed, sample)


def morse_sample_record(ax: Axis, seed: int, sample: int) -> MorseRecord:
    """Discrete quasi-geodesic with endpoints on the axis: perturbed axis
    points; records how far the path strays from the axis."""
    rng = random.Random(1_000_003 * seed + 2 * sample + 1)
    pts = [ax.point(-MORSE_HALF_SPAN)]
    for m in range(-MORSE_HALF_SPAN + 1, MORSE_HALF_SPAN):
        pts.append(_perturb(ax.point(m), rng, 0.4, move_prob=0.5))
    pts.append(ax.point(MORSE_HALF_SPAN))
    offs = []
    for p in pts:
        pr = project(p, ax)
        offs.append(pr.value)
    return MorseRecord(seed, sample, len(pts), max(offs))


def max_projection_diameter(records) -> float:
    vals = [r.proj_diam_dist for r in records if not r.skipped]
    return max(vals) if vals else 0.0


# mode -> (CSV header, sampler (ax, seed, sample) -> record, (name, summary of the records))
CONTRACTION_MODES = {
    "balls": (BALL_HEADER, _ball_sample, ("max-diam", max_projection_diameter)),
    "morse": (MORSE_HEADER, morse_sample_record,
              ("max-off-axis", lambda records: max(r.max_off_axis for r in records))),
}


def contraction_experiment(ax: Axis, n_samples: int, seed: int, mode: str = "balls"):
    """Monte-Carlo contraction probes: the records of samples 0..n_samples-1
    of the sampler CONTRACTION_MODES gives `mode`, deterministic in (seed,
    sample). The records are CSV rows under the mode's header.

    Neither sampler, balls or morse, has been shown to detect an axis that
    is not strongly contracting: on the swap-golden control, whose axis
    lies in a flat, they report numbers of the size they report on the
    rank-4 axis. The flat scan of TestFlat in tests/test_axes.py does
    detect it: its projection spread grows linearly on the control and
    stays within 2 levels on the rank-4 axis."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if mode not in CONTRACTION_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    sample = CONTRACTION_MODES[mode][1]
    return [sample(ax, seed, i) for i in range(n_samples)]


def probe_experiment(ax: Axis, n_pairs: int, seed: int):
    """Tree-inequality defects over pairs whose projections are separated by
    more than PROBE_MIN_SEPARATION fundamental domains."""
    records = []
    i = 0
    attempts = 0
    while len(records) < n_pairs and attempts < 4 * n_pairs:
        attempts += 1
        sx = (104_729 * seed + 7_919 * i) & 0x7FFFFFFF
        sy = (104_729 * seed + 7_919 * i + 1) & 0x7FFFFFFF
        i += 1
        X = ax.shift(random_point(ax.rank, sx, n_moves=2, jitter=0.35), -PROBE_SHIFT)
        Y = ax.shift(random_point(ax.rank, sy, n_moves=2, jitter=0.35), PROBE_SHIFT)
        probe = tree_inequality_probe(X, Y, ax)
        if probe.sep > PROBE_MIN_SEPARATION:
            records.append(probe)
    return records


# -- divergence ------------------------------------------------------------


@dataclass
class DivergenceReport:
    avoids_ball: bool
    length: float
    bound: float
    satisfied: bool
    vacuous: bool
    b_prime: float


def divergence_check(path_points, ax: Axis, R: float, d_emp: float,
                     c_emp: float) -> DivergenceReport:
    """Check the quadratic divergence bound Len >= R^2/(2b') - R/2 for a path
    avoiding the inward R-ball around the axis midpoint of its endpoints."""
    if len(path_points) < 2:
        raise ValueError("path needs at least two points")
    if d_emp < 0 or c_emp < 0:
        raise ValueError(f"d_emp and c_emp must be >= 0, got {d_emp} and {c_emp}")
    if R <= 2.0 * d_emp:
        raise ValueError(f"R={R} must exceed twice the contraction bound {d_emp}")
    p_start = project(path_points[0], ax)
    p_end = project(path_points[-1], ax)
    sep = abs(p_end.argmin[0] - p_start.argmin[0]) * ax.step
    if sep < 2.0 * R - 1e-9:
        raise ValueError(
            f"endpoints project {sep:.6g} apart; need at least 2R = {2 * R:.6g}"
        )
    mid = (p_start.argmin[0] + p_end.argmin[0]) // 2
    avoids = all(ax.dist_to_axis_point(p, mid, R - 1e-12) >= R - 1e-12 for p in path_points)
    b_prime = d_emp + 4.0 * c_emp + 3.0
    bound = R * R / (2.0 * b_prime) - R / 2.0
    vacuous = bound <= 0.0
    if not avoids:
        return DivergenceReport(False, float("nan"), bound, False, vacuous, b_prime)
    length = math.fsum(
        distance(path_points[i], path_points[i + 1]).value
        for i in range(len(path_points) - 1)
    )
    satisfied = length >= bound
    return DivergenceReport(True, length, bound, satisfied, vacuous, b_prime)


def detour_path(ax: Axis, R: float, seed: int):
    """A sampled path between axis points projecting 2R apart whose interior
    detours around the inward R-ball at the axis midpoint.

    Interior points squeeze one rose edge to length about exp(-R): any point
    with a loop of length eps is at inward distance >= log(minlen/eps) from
    every volume-1 point, so the detour provably avoids the ball.
    """
    rng = random.Random(1_000_003 * seed + 99991)
    k = max(1, math.ceil(R / ax.step))
    points = [ax.point(-k)]
    for m in range(-k, k + 1):
        base_pt = ax.point(m)
        for attempt in range(DETOUR_TRIES):
            eps = 0.25 * math.exp(-(R + 1.0 + attempt)) * (1.0 + 0.5 * rng.random())
            lengths = list(base_pt.graph.lengths)
            rest = sum(lengths) - lengths[0]
            lengths = [eps] + [l * (1.0 - eps) / rest for l in lengths[1:]]
            cand = base_pt.with_lengths(lengths)
            if ax.dist_to_axis_point(cand, 0, R) >= R:
                points.append(cand)
                break
        else:
            raise ValueError("could not sample a ball-avoiding detour point")
    points.append(ax.point(k))
    return points


# -- two-axis projections --------------------------------------------------


@dataclass
class TwoAxisReport:
    window: int
    diam: float  # diameter of p_A(B) in distance units
    diam_half: float
    parallel: bool


def two_axis_report(ax: Axis, psi: Automorphism, window: int = 6) -> TwoAxisReport:
    """Project the translate of the axis by psi, the points G_m . psi
    (the axis of psi^-1 phi psi through base . psi), onto the axis; detect
    parallelism by linear growth of the diameter under window doubling;
    window must be at least 2, so that the half window is smaller. Each
    translated point is projected once: the half window reads its argmins
    off the full window's."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    half_window = window // 2
    by_m = {m: project(ax.point(m).act(psi), ax).argmin for m in range(-window, window + 1)}
    full = [t for ts in by_m.values() for t in ts]
    half = [t for m, ts in by_m.items() if abs(m) <= half_window for t in ts]
    diam = (max(full) - min(full)) * ax.step
    diam_half = (max(half) - min(half)) * ax.step
    growth = diam - diam_half
    # parallel axes grow the diameter at twice the window rate; independent
    # ones stabilize, so half the parallel rate separates the two cases
    parallel = growth >= (window - half_window) * ax.step
    return TwoAxisReport(window=window, diam=diam, diam_half=diam_half, parallel=parallel)
