"""Discrete axes of fully irreducible automorphisms, projections onto them,
and the contraction / divergence / two-axis experiment harness.

The axis of phi through a train-track point G is discretized to the orbit
{G . phi^m}; consecutive points are log(lambda) apart. Projection of a
point X scans m -> d(X, G_m) over an expanding window until the minimum is
interior. Experiments are deterministic in their seeds; per-sample RNG
streams derive from (seed, sample index).
"""

from __future__ import annotations

import csv
import io
import logging
import math
import random
from dataclasses import dataclass

from .graphs import MarkedMetricGraph, jitter_lengths, random_point
from .metric import distance
from .traintrack import TrainTrackMap
from .words import Automorphism, CyclicWord, random_automorphism

log = logging.getLogger(__name__)


class ProjectionError(RuntimeError):
    """Projection scan could not bracket an interior minimum."""


class Axis:
    """The discrete axis {base . phi^m} of a fully irreducible phi."""

    def __init__(
        self,
        forward: TrainTrackMap,
        backward: TrainTrackMap = None,
        base: MarkedMetricGraph = None,
        phi: Automorphism = None,
    ):
        self.forward = forward
        self.backward = backward
        self.base = base if base is not None else forward.point
        self.phi = phi if phi is not None else forward.automorphism()
        self.lam = forward.lam
        if backward is not None:
            from .words import verify_inverse

            if not verify_inverse(self.phi, backward.automorphism()):
                raise ValueError("backward train track does not represent the inverse")
        else:
            self.phi.inverse()
        self._powers = {0: Automorphism.identity(self.phi.rank), 1: self.phi}
        self._points = {0: self.base}

    @property
    def rank(self):
        return self.base.rank

    @property
    def step(self):
        """Length of one fundamental domain: log(lambda)."""
        return math.log(self.lam)

    def power(self, m: int) -> Automorphism:
        if m not in self._powers:
            if m > 0:
                self._powers[m] = self.power(m - 1).compose(self.phi)
            else:
                self._powers[m] = self.power(m + 1).compose(self.phi.inverse())
        return self._powers[m]

    def point(self, m: int) -> MarkedMetricGraph:
        if m not in self._points:
            self._points[m] = self.base.act(self.power(m))
        return self._points[m]

    def dist_to_axis_point(self, X: MarkedMetricGraph, m: int) -> float:
        return distance(X, self.point(m)).value

    def translate(self, psi: Automorphism) -> "Axis":
        """The axis of psi^-1 phi psi through base . psi."""
        phi2 = psi.inverse().compose(self.phi).compose(psi)
        return Axis(self.forward, base=self.base.act(psi), phi=phi2)


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
    """Lengths l(phi^m(alpha), base) over an integer window, with min-set and
    tail growth rates."""
    if not alpha:
        raise ValueError("empty conjugacy class")
    lo, hi = int(window[0]), int(window[1])
    values = []
    for m in range(lo, hi + 1):
        w = ax.power(m).apply_cyclic(alpha)
        values.append((m, ax.base.loop_length(w)))
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
    diam_steps: int
    diam_dist: float
    scanned: tuple
    unimodal: bool


def project(X: MarkedMetricGraph, ax: Axis, budget: int = 40, margin: int = 2) -> ProjectionResult:
    """Closest-point projection of X to the axis over an expanding window."""
    lo, hi = -margin, margin
    d = {}

    def ensure(a, b):
        for m in range(a, b + 1):
            if m not in d:
                d[m] = ax.dist_to_axis_point(X, m)

    ensure(lo, hi)
    while True:
        mn = min(d.values())
        argmin = sorted(m for m, v in d.items() if v <= mn + 1e-9)
        if argmin[0] >= lo + margin and argmin[-1] <= hi - margin:
            break
        if argmin[0] < lo + margin:
            lo -= margin
        if argmin[-1] > hi - margin:
            hi += margin
        if hi - lo > 2 * budget:
            raise ProjectionError(
                f"no interior minimum within parameter budget [{lo}, {hi}]"
            )
        ensure(lo, hi)
    unimodal = all(b - a == 1 for a, b in zip(argmin, argmin[1:]))
    if not unimodal:
        log.warning("non-contiguous argmin set %s in projection scan", argmin)
    return ProjectionResult(
        argmin=tuple(argmin),
        value=mn,
        diam_steps=argmin[-1] - argmin[0],
        diam_dist=(argmin[-1] - argmin[0]) * ax.step,
        scanned=(lo, hi),
        unimodal=unimodal,
    )


@dataclass
class ProbeResult:
    separation_steps: int
    delta1: float  # d(Y,X) - [d(Y,pi(Y)) + d(pi(Y),pi(X))]
    delta2: float  # d(Y,X) - d(Y,pi(X))
    delta3: float  # d(X,Y) - d(pi(X),pi(Y))
    t_x: int
    t_y: int


def tree_inequality_probe(X, Y, ax: Axis) -> ProbeResult:
    """Defects of the tree-like projection inequalities for a pair (X, Y)."""
    px = project(X, ax)
    py = project(Y, ax)
    tx, ty = px.argmin[0], py.argmin[0]
    d_yx = distance(Y, X).value
    d_xy = distance(X, Y).value
    d_y_piy = py.value
    d_piy_pix = distance(ax.point(ty), ax.point(tx)).value
    d_y_pix = distance(Y, ax.point(tx)).value
    d_pix_piy = distance(ax.point(tx), ax.point(ty)).value
    return ProbeResult(
        separation_steps=abs(tx - ty),
        delta1=d_yx - (d_y_piy + d_piy_pix),
        delta2=d_yx - d_y_pix,
        delta3=d_xy - d_pix_piy,
        t_x=tx,
        t_y=ty,
    )


# -- experiment records and CSV emission ---------------------------------


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def write_csv(header, rows, out=None) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) for x in row])
    text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


@dataclass
class BallRecord:
    seed: int
    sample: int
    r: float
    n_ball_points: int
    proj_diam_m: object  # int, or "" when skipped
    proj_diam_dist: object
    skipped: bool = False
    reason: str = ""

    def row(self):
        return [self.seed, self.sample, self.r, self.n_ball_points,
                self.proj_diam_m, self.proj_diam_dist]


BALL_HEADER = ["seed", "sample", "r", "n_ball_points", "proj_diam_m", "proj_diam_dist"]
MORSE_HEADER = ["seed", "sample", "n_points", "max_off_axis"]
PROBE_HEADER = ["seed", "xdesc", "ydesc", "sep", "delta1", "delta2", "delta3"]
PAIR_HEADER = ["windows", "diam", "parallel"]


def _perturb(point: MarkedMetricGraph, rng: random.Random, strength: float,
             move_prob: float = 0.0) -> MarkedMetricGraph:
    if move_prob and rng.random() < move_prob:
        point = point.act(random_automorphism(point.rank, rng, 1))
    return jitter_lengths(point, rng, min(strength, 0.9))


def ball_sample_record(ax: Axis, Y: MarkedMetricGraph, seed: int, sample: int,
                       ball_points: int = 6) -> BallRecord:
    """Project an outward ball B(Y, r) with r = d(Y, axis); record the
    parameter diameter of the union of the projections."""
    rng = random.Random(1_000_003 * seed + 2 * sample)
    py = project(Y, ax)
    r = py.value
    if r < 1e-9:
        log.info("sample %d skipped: Y lies on the axis (r=0)", sample)
        return BallRecord(seed, sample, r, 0, "", "", skipped=True, reason="r=0")
    params = set(py.argmin)
    accepted = 1  # Y itself lies in the open ball
    attempts = 0
    strength = 0.5 * min(r, 1.0)
    while accepted < ball_points and attempts < 8 * ball_points:
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


@dataclass
class MorseRecord:
    seed: int
    sample: int
    n_points: int
    max_off_axis: float

    def row(self):
        return [self.seed, self.sample, self.n_points, self.max_off_axis]


def morse_sample_record(ax: Axis, seed: int, sample: int, half_span: int = 3) -> MorseRecord:
    """Discrete quasi-geodesic with endpoints on the axis: perturbed axis
    points; records how far the path strays from the axis."""
    rng = random.Random(1_000_003 * seed + 2 * sample + 1)
    pts = [ax.point(-half_span)]
    for m in range(-half_span + 1, half_span):
        pts.append(_perturb(ax.point(m), rng, 0.4, move_prob=0.5))
    pts.append(ax.point(half_span))
    offs = []
    for p in pts:
        pr = project(p, ax)
        offs.append(pr.value)
    return MorseRecord(seed, sample, len(pts), max(offs))


def contraction_experiment(ax: Axis, n_samples: int, seed: int, mode: str = "balls",
                           ball_points: int = 6, offset_moves: int = 2,
                           jitter: float = 0.35):
    """Monte-Carlo contraction probes; deterministic in (seed, sample)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    records = []
    for i in range(n_samples):
        if mode == "balls":
            y_seed = (7_919 * seed + 104_729 * i + 13) & 0x7FFFFFFF
            Y = random_point(ax.rank, y_seed, n_moves=offset_moves, jitter=jitter)
            records.append(ball_sample_record(ax, Y, seed, i, ball_points))
        elif mode == "morse":
            records.append(morse_sample_record(ax, seed, i))
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return records


def max_projection_diameter(records) -> float:
    vals = [r.proj_diam_dist for r in records if not r.skipped]
    return max(vals) if vals else 0.0


@dataclass
class ProbeRecord:
    seed: int
    xdesc: str
    ydesc: str
    sep: int
    delta1: float
    delta2: float
    delta3: float

    def row(self):
        return [self.seed, self.xdesc, self.ydesc, self.sep,
                self.delta1, self.delta2, self.delta3]


def probe_experiment(ax: Axis, n_pairs: int, seed: int, shift: int = 3,
                     min_separation: int = 3):
    """Tree-inequality defects over pairs whose projections are separated by
    more than min_separation fundamental domains."""
    records = []
    i = 0
    attempts = 0
    while len(records) < n_pairs and attempts < 4 * n_pairs:
        attempts += 1
        sx = (104_729 * seed + 7_919 * i) & 0x7FFFFFFF
        sy = (104_729 * seed + 7_919 * i + 1) & 0x7FFFFFFF
        i += 1
        X = random_point(ax.rank, sx, n_moves=2, jitter=0.35).act(ax.power(-shift))
        Y = random_point(ax.rank, sy, n_moves=2, jitter=0.35).act(ax.power(shift))
        probe = tree_inequality_probe(X, Y, ax)
        if probe.separation_steps <= min_separation:
            continue
        records.append(
            ProbeRecord(seed, f"x{sx}", f"y{sy}", probe.separation_steps,
                        probe.delta1, probe.delta2, probe.delta3)
        )
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
    midpoint_m: int


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
    z = ax.point(mid)
    avoids = all(distance(p, z).value >= R - 1e-12 for p in path_points)
    b_prime = d_emp + 4.0 * c_emp + 3.0
    bound = R * R / (2.0 * b_prime) - R / 2.0
    vacuous = bound <= 0.0
    if not avoids:
        return DivergenceReport(False, float("nan"), bound, False, vacuous, b_prime, mid)
    length = math.fsum(
        distance(path_points[i], path_points[i + 1]).value
        for i in range(len(path_points) - 1)
    )
    satisfied = length >= bound
    return DivergenceReport(True, length, bound, satisfied, vacuous, b_prime, mid)


def detour_path(ax: Axis, R: float, seed: int, max_tries: int = 8):
    """A sampled path between axis points projecting 2R apart whose interior
    detours around the inward R-ball at the axis midpoint.

    Interior points squeeze one rose edge to length about exp(-R): any point
    with a loop of length eps is at inward distance >= log(minlen/eps) from
    every volume-1 point, so the detour provably avoids the ball.
    """
    rng = random.Random(1_000_003 * seed + 99991)
    k = max(1, math.ceil(R / ax.step))
    z = ax.point(0)
    points = [ax.point(-k)]
    for m in range(-k, k + 1):
        base_pt = ax.point(m)
        for attempt in range(max_tries):
            eps = 0.25 * math.exp(-(R + 1.0 + attempt)) * (1.0 + 0.5 * rng.random())
            lengths = list(base_pt.graph.lengths)
            rest = sum(lengths) - lengths[0]
            lengths = [eps] + [l * (1.0 - eps) / rest for l in lengths[1:]]
            cand = base_pt.with_lengths(lengths)
            if distance(cand, z).value >= R:
                points.append(cand)
                break
        else:
            raise RuntimeError("could not sample a ball-avoiding detour point")
    points.append(ax.point(k))
    return points


# -- two-axis projections --------------------------------------------------


@dataclass
class TwoAxisReport:
    window: int
    diam: float  # diameter of p_A(B) in distance units
    diam_half: float
    parallel: bool
    behrstock: dict  # only for triples: {"AB,C":..., "BA,C":..., "CA,B":...}


def _axis_projection_params(ax_target: Axis, ax_source: Axis, window: int):
    params = []
    for m in range(-window, window + 1):
        pr = project(ax_source.point(m), ax_target)
        params.extend(pr.argmin)
    return params


def check_pair_window(window: int):
    """Raise ValueError unless window is a valid two_axis_report window."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")


def two_axis_report(axA: Axis, axB: Axis, axC: Axis = None, window: int = 6) -> TwoAxisReport:
    """Project axis B (and optionally C) onto A; detect parallelism by linear
    growth of the diameter under window doubling; window must be at least 2,
    so that the half window is smaller."""
    check_pair_window(window)
    half_window = window // 2
    full = _axis_projection_params(axA, axB, window)
    half = _axis_projection_params(axA, axB, half_window)
    diam = (max(full) - min(full)) * axA.step
    diam_half = (max(half) - min(half)) * axA.step
    growth = diam - diam_half
    # parallel axes grow the diameter at twice the window rate; independent
    # ones stabilize, so half the parallel rate separates the two cases
    parallel = growth >= (window - half_window) * axA.step
    behrstock = {}
    if axC is not None:
        pa_b = full
        pa_c = _axis_projection_params(axA, axC, window)
        pb_a = _axis_projection_params(axB, axA, window)
        pb_c = _axis_projection_params(axB, axC, window)
        pc_a = _axis_projection_params(axC, axA, window)
        pc_b = _axis_projection_params(axC, axB, window)
        behrstock = {
            "d_A(B,C)": (max(pa_b + pa_c) - min(pa_b + pa_c)) * axA.step,
            "d_B(A,C)": (max(pb_a + pb_c) - min(pb_a + pb_c)) * axB.step,
            "d_C(A,B)": (max(pc_a + pc_b) - min(pc_a + pc_b)) * axC.step,
        }
    return TwoAxisReport(window=window, diam=diam, diam_half=diam_half,
                         parallel=parallel, behrstock=behrstock)
