import math
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from outerspacekit import axes, graphs
from outerspacekit.axes import (
    BALL_HEADER,
    Axis,
    MORSE_HALF_SPAN,
    MORSE_HEADER,
    ball_sample_record,
    contraction_experiment,
    detour_path,
    divergence_check,
    length_profile,
    probe_experiment,
    project,
    tree_inequality_probe,
    two_axis_report,
)
from outerspacekit.cli import write_csv
from outerspacekit.graphs import (
    MarkedMetricGraph,
    jitter_lengths,
    point_to_dict,
    random_point,
    rose,
)
from outerspacekit.metric import distance
from outerspacekit.traintrack import legality_report, pf_metric
from outerspacekit.words import Automorphism, CyclicWord, random_automorphism

from .conftest import aut, swap_golden_selfmaps
from .oracles import apply_cyclic, automorphism_power
from .test_graphs import CELLS, _cell_point

GOLDEN = (1 + math.sqrt(5)) / 2
AXES = ["golden_axis", "silver_axis", "tribo_axis", "rank4_axis"]


def C(text):
    return CyclicWord.parse(text)


class TestAxisPoints:
    def test_base_point(self, golden_axis):
        assert golden_axis.point(0) is golden_axis.base

    def test_unit_translation(self, golden_axis):
        d = distance(golden_axis.point(0), golden_axis.point(1)).value
        assert d == pytest.approx(math.log(GOLDEN), abs=1e-9)

    def test_translation_additivity(self, golden_axis):
        for k in range(0, 7):
            d = distance(golden_axis.point(-2), golden_axis.point(-2 + k)).value
            assert d == pytest.approx(k * golden_axis.step, abs=1e-9 * max(k, 1))

    def test_action_identity(self, golden_axis):
        rng = random.Random(0)
        for _ in range(10):
            m = rng.randint(-4, 4)
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 5))]
            alpha = CyclicWord.make(letters)
            if not alpha:
                continue
            lhs = golden_axis.point(m).loop_length(alpha)
            phi_m = automorphism_power(golden_axis.phi, m)
            rhs = golden_axis.base.loop_length(apply_cyclic(phi_m, alpha))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_shift_is_bounded(self, golden_axis, monkeypatch):
        # the bound is checked before the act of each level builds its loops,
        # so a shift stops at its first level past the bound
        monkeypatch.setattr(graphs, "LEAF_PATH_MAX", 100)
        assert sum(map(len, golden_axis.shift(golden_axis.base, 8).gen_loops)) == 89
        # the point at shift -12 is reached from the one at -8 by phi^-4
        for Y, s, k in ((golden_axis.base, 12, 9),
                        (golden_axis.shift(golden_axis.base, -8), -4, -9)):
            with pytest.raises(ValueError, match=rf"^the marking loops of the axis point at "
                               rf"shift {k} join 144 half-edges, more than "
                               rf"LEAF_PATH_MAX \(100\)$"):
                golden_axis.shift(Y, s)

    def test_far_shift_builds_no_far_level(self, golden_axis, monkeypatch):
        # the images of phi^30 hold about 2.2 million letters: the shift must
        # stop at level 9 before it composes or realizes anything that long
        monkeypatch.setattr(graphs, "LEAF_PATH_MAX", 100)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"at shift 9 join 144 half-edges"):
                golden_axis.shift(golden_axis.base, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_far_point_is_built_level_by_level(self, golden_axis, monkeypatch):
        # G_-1500 is built by a loop from G_0, each level kept, until the
        # bound stops level -18; one stack frame per level once overflowed
        ax = Axis(golden_axis.forward, base=golden_axis.base, phi=golden_axis.phi)
        monkeypatch.setattr(graphs, "LEAF_PATH_MAX", 10_000)
        with pytest.raises(ValueError, match=r"at shift -18 join 10946 half-edges"):
            ax.point(-1500)
        assert sorted(ax._points) == list(range(-17, 1))
        assert ax.point(-17) is ax._points[-17]
        assert ax.point(-17).gen_loops == golden_axis.point(-17).gen_loops

    def test_step_maps_are_bounded(self, golden_axis, monkeypatch):
        # the step maps check their joins against the bound before building
        # any path, as a marking realized at another point does
        ax = Axis(golden_axis.forward, base=random_point(2, 7, n_moves=8), phi=golden_axis.phi)
        realized = []
        real = MarkedMetricGraph.realize_based
        monkeypatch.setattr(MarkedMetricGraph, "realize_based",
                            lambda self, letters: realized.append(letters) or real(self, letters))
        monkeypatch.setattr(graphs, "LEAF_PATH_MAX", 20)
        with pytest.raises(ValueError, match=r"step map \+1 joins 31 half-edges, more than "
                                             r"LEAF_PATH_MAX \(20\)"):
            ax._step_maps()
        assert realized == [] and ax._steps is None

    def test_walk_bound_counts_the_loops_built_at_a_level(self, golden_axis, monkeypatch):
        # at level 12 the loops of the rose's four candidates have 377, 233,
        # 610 and 144 half-edges: a read capped at 0 is decided by the first
        # alone, and an exact read passes a bound of 1 000 at the third, as
        # often as it is asked
        ax = Axis(golden_axis.forward, base=golden_axis.base, phi=golden_axis.phi)
        X = rose(2)
        monkeypatch.setattr(graphs, "LEAF_PATH_MAX", 1000)
        assert ax.dist_to_axis_point(X, 12, cap=0.0) > 0.0
        assert [12 in w.lengths for w in ax._walk_of(X)[0]] == [True, False, False, False]
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^the axis walk at level 12 has 1220 "
                                                 r"half-edges, more than LEAF_PATH_MAX \(1000\)$"):
                ax.dist_to_axis_point(X, 12)

    def test_act_is_bounded(self, golden_axis, monkeypatch):
        # two_axis_report acts on G_m by psi; that act once built G_14 . psi,
        # 2 584 half-edges, past a bound of 2 000 that G_14, 1 597, is within
        psi = random_automorphism(2, random.Random(0), 4)
        monkeypatch.setattr(graphs, "LEAF_PATH_MAX", 2000)
        G14 = golden_axis.point(14)
        assert sum(map(len, G14.gen_loops)) == 1597
        realized = []
        real = MarkedMetricGraph.realize_based
        monkeypatch.setattr(MarkedMetricGraph, "realize_based",
                            lambda self, letters: realized.append(letters) or real(self, letters))
        with pytest.raises(ValueError, match=r"^the marking loops of the acted point join 2584 "
                                             r"half-edges, more than LEAF_PATH_MAX \(2000\)$"):
            G14.act(psi)
        assert realized == []
        with pytest.raises(ValueError, match="more than LEAF_PATH_MAX"):
            two_axis_report(golden_axis, psi, window=14)

    @pytest.mark.parametrize("name", AXES)
    def test_shift_is_one_act(self, name, request):
        # acting one level at a time gives the point one act by phi^s gives
        ax = request.getfixturevalue(name)
        Y = random_point(ax.rank, 7, n_moves=2)
        for Z, s in ((Y, 3), (Y, -2), (ax.shift(Y, 2), -5)):
            W, want = ax.shift(Z, s), Z.act(automorphism_power(ax.phi, s))
            assert W.gen_loops == want.gen_loops
            assert W.marking_map().images == want.marking_map().images

    def test_mu_from_backward(self, golden_inv_tt):
        assert golden_inv_tt.lam == pytest.approx(GOLDEN, abs=1e-9)


@pytest.mark.parametrize("name", AXES)
class TestDisplacement:
    """phi moves every point at least log(lambda), and the axis points by
    exactly that much per step."""

    def test_displacement_at_least_log_lambda(self, name, request):
        ax = request.getfixturevalue(name)
        rng = random.Random(f"displacement-{name}")
        for cell in CELLS:
            for _ in range(3):
                X = _cell_point(cell, ax.rank, rng)
                for P in (X, jitter_lengths(X, rng, 0.3)):
                    assert distance(P, P.act(ax.phi)).value >= ax.step - 1e-12

    def test_axis_steps_add(self, name, request):
        ax = request.getfixturevalue(name)
        for m in range(-3, 4):
            for k in range(4):
                d = distance(ax.point(m), ax.point(m + k)).value
                assert abs(d - k * ax.step) <= 1e-12


class TestLengthProfile:
    def test_golden_profile_of_x(self, golden_axis):
        prof = length_profile(C("a"), golden_axis, (-3, 3))
        vals = dict(prof.values)
        assert vals[-1] == pytest.approx(0.3819660, abs=1e-6)
        assert vals[0] == pytest.approx(0.6180340, abs=1e-6)
        assert vals[1] == pytest.approx(1.0, abs=1e-9)
        assert prof.min_set == (-1,)
        assert not prof.min_at_boundary

    def test_conjugation_invariance(self, golden_axis):
        rng = random.Random(5)
        for _ in range(5):
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 4))]
            alpha = CyclicWord.make(letters)
            if not alpha:
                continue
            conj = [rng.choice([1, -1, 2, -2]) for _ in range(2)]
            beta = CyclicWord.make(conj + list(alpha.letters) + [-l for l in reversed(conj)])
            pa = length_profile(alpha, golden_axis, (-3, 3))
            pb = length_profile(beta, golden_axis, (-3, 3))
            assert [v for (_, v) in pa.values] == pytest.approx(
                [v for (_, v) in pb.values], abs=1e-12
            )

    def test_tail_slopes(self, golden_axis):
        for text in ("a", "b"):
            prof = length_profile(C(text), golden_axis, (-8, 8))
            assert prof.right_slope == pytest.approx(math.log(GOLDEN), rel=0.1)
            assert prof.left_slope == pytest.approx(math.log(GOLDEN), rel=0.1)

    def test_boundary_flag(self, golden_axis):
        prof = length_profile(C("a"), golden_axis, (-1, 3))
        assert prof.min_at_boundary

    @pytest.mark.parametrize("window", [(0, 0), (3, 3), (1, 0), (2, -2)])
    def test_window_of_fewer_than_two_levels(self, golden_axis, window):
        # (0, 0) once gave slopes of 0 fitted to one level, and (1, 0) died
        # in min() of no values
        with pytest.raises(ValueError, match=rf"window \({window[0]}, {window[1]}\) holds "
                                             "fewer than two levels"):
            length_profile(C("ab"), golden_axis, window)


class TestProjection:
    def test_axis_point_projects_to_itself(self, golden_axis):
        pr = project(golden_axis.point(5), golden_axis)
        assert pr.argmin == (5,)
        assert pr.value <= 1e-9

    def test_standard_rose(self, golden_axis):
        pr = project(rose(2), golden_axis)
        assert pr.argmin == (0,)
        lx = golden_axis.base.graph.lengths[0]
        assert pr.value == pytest.approx(math.log(lx / 0.5), abs=1e-9)

    def test_equivariance(self, golden_axis):
        phi = golden_axis.phi
        for seed in range(5):
            X = random_point(2, seed, 2, 0.3)
            a = project(X, golden_axis).argmin
            b = project(X.act(phi), golden_axis).argmin
            assert tuple(m + 1 for m in a) == b

    def test_candidate_min_sets_uniformly_close(self, golden_axis):
        # min sets of the candidates of a common point stay within a bound
        diams = []
        for seed in range(25):
            X = random_point(2, seed, 2, 0.35)
            mins = []
            for c in X.candidates():
                prof = length_profile(c.conjugacy_class, golden_axis, (-8, 8))
                mins.extend(prof.min_set)
            diams.append(max(mins) - min(mins))
        first = max(diams[:12])
        both = max(diams)
        assert both <= first + 1  # non-growth under sample doubling


class TestProbe:
    def test_on_axis_pair_delta1_zero(self, golden_axis):
        X = golden_axis.point(4)
        Y = golden_axis.point(1)
        probe = tree_inequality_probe(X, Y, golden_axis)
        assert probe.delta1 == pytest.approx(0.0, abs=1e-9)

    def test_probe_experiment_deterministic(self, golden_axis):
        a = probe_experiment(golden_axis, 5, seed=1)
        b = probe_experiment(golden_axis, 5, seed=1)
        assert a == b
        assert all(r.sep > 3 for r in a)


class TestContraction:
    def test_deterministic_csv(self, golden_axis):
        r1 = contraction_experiment(golden_axis, 8, seed=7)
        r2 = contraction_experiment(golden_axis, 8, seed=7)
        assert write_csv(BALL_HEADER, r1) == write_csv(BALL_HEADER, r2)

    def test_on_axis_sample_skipped(self, golden_axis):
        rec = ball_sample_record(golden_axis, golden_axis.point(3), seed=0, sample=0)
        assert rec.skipped
        assert rec.n_ball_points == 0

    def test_morse_mode(self, golden_axis):
        recs = contraction_experiment(golden_axis, 3, seed=2, mode="morse")
        assert len(recs) == 3
        assert all(r.max_off_axis >= 0 for r in recs)
        assert all(r.n_points == 2 * MORSE_HALF_SPAN + 1 == 7 for r in recs)
        text = write_csv(MORSE_HEADER, recs)
        assert text.splitlines()[0] == ",".join(MORSE_HEADER)

    def test_bad_mode(self, golden_axis):
        with pytest.raises(ValueError):
            contraction_experiment(golden_axis, 1, 0, mode="nope")


# psi1 golden on <a, b> and psi2 golden on <c, d>, which commute
RANK4_PSIS = (aut(4, "ab", "a", "c", "d"), aut(4, "a", "b", "cd", "c"))


def flat_spread(ax, t, psi1, psi2):
    """(ball size, spread): the ball {Z = G_0 . psi1^i psi2^j : d(Y, Z) <
    d(Y, axis) - 1e-9} around Y = G_0 . psi1^t, for i in [-t, 2t] and j in
    [-t, t], and the levels its projections to the axis spread over. Points
    within 1e-9 of the radius are left out: on the rank-4 axis some tie with
    it in exact arithmetic, and the last bit of lambda decides which side
    they fall."""
    G0 = ax.point(0)
    Y = G0.act(automorphism_power(psi1, t))
    radius = project(Y, ax).value
    argmins = []
    for i in range(-t, 2 * t + 1):
        for j in range(-t, t + 1):
            Z = G0.act(automorphism_power(psi1, i).compose(automorphism_power(psi2, j)))
            if distance(Y, Z).value < radius - 1e-9:
                argmins.append(project(Z, ax).argmin)
    return len(argmins), max(a[-1] for a in argmins) - min(a[0] for a in argmins)


class TestFlat:
    """The ball scan of ROADMAP items 1 and 2. On the swap-golden control,
    phi^2 = psi1 psi2, so the ball lies in a flat and its projections spread
    over 4, 6, 10 and 14 levels at t = 2, 4, 6 and 8: the control's axis is
    not strongly contracting. On the rank-4 axis, where psi1 does not
    commute with phi, the same scan spreads over 0, 1, 2 and 2 levels while
    the ball grows from 9 to 225 points. On the golden, silver and plastic
    (tribo) axes, with transvections that do not commute with phi (a -> ab
    and b -> ba at rank 2, a -> ab and c -> ca at rank 3), the spread stays
    at most 2 while the ball grows: from 1 to 15, 3 to 15 and 7 to 65
    points."""

    def test_control_spread_grows_linearly(self):
        ax = Axis(*map(pf_metric, swap_golden_selfmaps()))
        for t in (2, 4, 6, 8):
            assert flat_spread(ax, t, *RANK4_PSIS)[1] >= t + 2

    def test_rank4_spread_stays_bounded(self, rank4_axis):
        sizes = []
        for t in (2, 4, 6, 8):
            size, spread = flat_spread(rank4_axis, t, *RANK4_PSIS)
            assert spread <= 2
            sizes.append(size)
        assert sizes == [9, 49, 121, 225]

    @pytest.mark.parametrize("name", ["golden_axis", "silver_axis", "tribo_axis"])
    def test_low_rank_spread_stays_bounded(self, name, request):
        ax = request.getfixturevalue(name)
        psis = {2: (aut(2, "ab", "b"), aut(2, "a", "ba")),
                3: (aut(3, "ab", "b", "c"), aut(3, "a", "b", "ca"))}[ax.rank]
        scans = [flat_spread(ax, t, *psis) for t in (2, 4, 6, 8)]
        assert all(spread <= 2 for _, spread in scans)
        assert all(a < b for (a, _), (b, _) in zip(scans, scans[1:]))


class TestDivergence:
    def test_bound_formula_vacuous(self, golden_axis):
        path = detour_path(golden_axis, 4.0, seed=1)
        rep = divergence_check(path, golden_axis, 4.0, d_emp=0.5, c_emp=(5 - 3 - 0.5) / 4)
        assert rep.b_prime == pytest.approx(5.0, abs=1e-12)
        assert rep.bound == pytest.approx(16 / 10 - 2, abs=1e-12)
        assert rep.vacuous

    def test_path_through_ball_detected(self, golden_axis):
        k = max(1, math.ceil(2.0 / golden_axis.step))
        path = [golden_axis.point(m) for m in range(-k, k + 1)]
        rep = divergence_check(path, golden_axis, 2.0, d_emp=0.4, c_emp=0.0)
        assert not rep.avoids_ball

    def test_endpoints_too_close(self, golden_axis):
        path = [golden_axis.point(-1), golden_axis.point(1)]
        with pytest.raises(ValueError):
            divergence_check(path, golden_axis, 4.0, d_emp=0.4, c_emp=0.0)

    def test_sampled_detour_satisfies(self, golden_axis):
        path = detour_path(golden_axis, 2.0, seed=0)
        rep = divergence_check(path, golden_axis, 2.0, d_emp=0.5, c_emp=0.1)
        assert rep.avoids_ball and rep.satisfied

    @pytest.mark.parametrize("name", ["golden_axis", "tribo_axis", "rank4_axis"])
    def test_capped_reads_decide_as_exact_reads(self, name, request, monkeypatch):
        """detour_path and divergence_check decide d(X, G_m) >= R by reads
        capped at R: with every read exact they give the same detour points
        and the same reports, of the detour paths of seeds 0-3 and of the
        axis path through the ball, at R = 2..6. A path's length, a sum of
        distances that reads no axis, is stood in for by its number of
        steps: the real sum realizes markings of G_30 at rank 4."""
        fixture = request.getfixturevalue(name)
        monkeypatch.setattr(axes, "distance", lambda X, Y: SimpleNamespace(value=1.0))

        def run():
            ax = Axis(fixture.forward, base=fixture.base, phi=fixture.phi)
            out = []
            for R in (2.0, 3.0, 4.0, 5.0, 6.0):
                k = max(1, math.ceil(R / ax.step))
                paths = [detour_path(ax, R, seed) for seed in range(4)]
                for path in paths + [[ax.point(m) for m in range(-k, k + 1)]]:
                    rep = divergence_check(path, ax, R, d_emp=0.5, c_emp=0.1)
                    out.append(([point_to_dict(P) for P in path], repr(rep)))
            return out

        capped = run()
        assert [rep.startswith("DivergenceReport(avoids_ball=False") for _, rep in capped] == (
            [False] * 4 + [True]) * 5
        real = Axis.dist_to_axis_point
        monkeypatch.setattr(Axis, "dist_to_axis_point",
                            lambda self, X, m, cap=None: real(self, X, m))
        assert run() == capped

    @pytest.mark.parametrize("d_emp, c_emp", [(-1.0, 0.1), (0.5, -0.1)])
    def test_negative_constants_rejected(self, golden_axis, d_emp, c_emp):
        path = [golden_axis.point(-2), golden_axis.point(2)]
        with pytest.raises(ValueError, match="must be >= 0"):
            divergence_check(path, golden_axis, 2.0, d_emp=d_emp, c_emp=c_emp)


class TestTwoAxis:
    def test_same_axis_parallel(self, golden_axis):
        rep = two_axis_report(golden_axis, Automorphism.identity(2), window=4)
        assert rep.parallel

    @pytest.mark.parametrize("window", [0, 1])
    def test_window_below_two_rejected(self, golden_axis, window):
        # the half window would not be smaller, so any pair would read parallel
        with pytest.raises(ValueError, match="window must be >= 2"):
            two_axis_report(golden_axis, golden_axis.phi, window=window)

    def test_translate_bounded(self, golden_axis):
        rng = random.Random(3)
        psi = random_automorphism(2, rng, 4)
        rep = two_axis_report(golden_axis, psi, window=6)
        assert not rep.parallel
        assert rep.diam <= rep.diam_half + golden_axis.step + 1e-9

    def test_translate_is_axis(self, golden_axis):
        rng = random.Random(1)
        psi = random_automorphism(2, rng, 3)
        axB = Axis(golden_axis.forward, base=golden_axis.base.act(psi),
                   phi=psi.inverse().compose(golden_axis.phi).compose(psi))
        d = distance(axB.point(0), axB.point(1)).value
        assert d == pytest.approx(golden_axis.step, abs=1e-9)


class TestLegalityAlongAxis:
    def test_leg_nondecreasing_beyond_onset(self, golden_axis, golden_tt):
        phi = golden_axis.phi
        for c in rose(2).candidates():
            legs = []
            w = c.conjugacy_class
            for m in range(0, 10):
                legs.append(legality_report(w, golden_tt).leg)
                w = apply_cyclic(phi, w)
            onset = next((i for i, v in enumerate(legs) if v > 0), None)
            if onset is None:
                continue
            tail = legs[onset:]
            assert all(b >= a - 1e-9 for a, b in zip(tail, tail[1:]))


class TestShortLoopProjection:
    def test_shared_short_loop_projects_close(self, golden_axis):
        # two points sharing a very short loop project near each other
        bound = 1 / (3 * 2 - 3)
        diams = []
        for seed in range(4):
            rng = random.Random(seed)
            eps = 0.05
            x = rose(2, [eps, 1 - eps])
            psi = random_automorphism(2, rng, 1)
            y = x.act(psi)
            if y.loop_length(C("a")) > bound or x.loop_length(C("a")) > bound:
                continue
            tx = project(x, golden_axis).argmin[0]
            ty = project(y, golden_axis).argmin[0]
            diams.append(abs(tx - ty))
        assert diams and max(diams) <= 3
