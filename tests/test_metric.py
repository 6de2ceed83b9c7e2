import gc
import math
import random
import tracemalloc
import weakref

import pytest

import outerspacekit.graphs as graphs_mod
from outerspacekit.graphs import (
    MarkedMetricGraph,
    MetricGraph,
    enumerate_candidates,
    point_from_dict,
    random_point,
    rose,
)
from outerspacekit import metric
from outerspacekit.metric import (
    TIE_TOL,
    LinearMapSpec,
    distance,
    distance_oracle,
    linear_map_lipschitz,
)
from outerspacekit.traintrack import GraphSelfMap
from outerspacekit.words import (
    Automorphism,
    CyclicWord,
    Word,
    inverse_letters,
    random_whitehead_move,
    reduce_letters,
    word_key,
)

from . import oracles
from .conftest import FIG1_EDGE_IMAGES, FIG1_TARGET_DICT, THETA_DICT
from .oracles import all_whitehead_moves, points_equal
from .test_words import random_reduced_letters
from .test_graphs import CELLS, _cell_point, _unit_lengths


def C(text):
    return CyclicWord.parse(text)


def nielsen_power(m):
    return Automorphism(2, [Word((1,)), Word(tuple([1] * m + [2]))])


class TestStretch:
    def test_direct_ratio(self):
        x, y = rose(2), rose(2, [1 / 3, 2 / 3])
        assert y.loop_length(C("b")) / x.loop_length(C("b")) == pytest.approx(4 / 3, abs=1e-12)

    def test_equal_lengths(self):
        x, y = rose(2), rose(2, [1 / 3, 2 / 3])
        assert y.loop_length(C("ab")) / x.loop_length(C("ab")) == pytest.approx(1.0, abs=1e-12)

    def test_nielsen_power(self):
        R = rose(2)
        for m in (1, 4, 8):
            stretched = R.act(nielsen_power(m)).loop_length(C("b")) / R.loop_length(C("b"))
            assert stretched == pytest.approx(m + 1, abs=1e-9)


class TestDistance:
    def test_rose_pair(self):
        res = distance(rose(2), rose(2, [1 / 3, 2 / 3]))
        assert res.value == pytest.approx(math.log(4 / 3), abs=1e-12)
        assert str(res.witness.conjugacy_class) == "b"
        assert res.value == math.log(max(r for (_, _, _, r) in res.table))

    def test_nielsen_powers(self):
        R = rose(2)
        for m in range(1, 9):
            assert distance(R, R.act(nielsen_power(m))).value == pytest.approx(
                math.log(m + 1), abs=1e-9
            )

    def test_identity(self):
        p = random_point(2, 3, 2, 0.4)
        assert abs(distance(p, p).value) <= 1e-9

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            distance(rose(2), rose(3))


class TestOracle:
    def test_rose_pair_l4(self):
        x, y = rose(2), rose(2, [1 / 3, 2 / 3])
        assert distance_oracle(x, y, 4) == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_monotone_in_bound(self):
        x = random_point(2, 1, 2, 0.3)
        y = random_point(2, 2, 2, 0.3)
        vals = [distance_oracle(x, y, L) for L in (1, 2, 4, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_distance_on_shipped_roses(self):
        x, y = rose(2), rose(2, [1 / 3, 2 / 3])
        assert distance(x, y).value == pytest.approx(distance_oracle(x, y, 6), abs=1e-12)
        assert distance(y, x).value == pytest.approx(distance_oracle(y, x, 6), abs=1e-12)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            distance_oracle(rose(2), rose(2), 0)


class TestLinearMap:
    def test_inner_with_long_conjugator(self):
        u = random_reduced_letters(random.Random(5), 3, 5_000)
        images = [reduce_letters(u + (i,) + inverse_letters(u)) for i in (1, 2, 3)]
        assert metric._common_conjugator_is_inner(images)
        images[1] = reduce_letters(u + (-2,) + inverse_letters(u))
        assert not metric._common_conjugator_is_inner(images)

    def test_inner_rule_matches_reference(self):
        """Seeded u at ranks 1-4, a third ending in an x_1-power and a third
        in an x_2-power, where the first image alone gives the wrong u; each
        conjugates the identity, x_1 -> x_1^-1, the transvection x_1 ->
        x_1 x_2, and the identity with one image conjugated by another
        word."""
        rng = random.Random("inner-rule")
        verdicts, first_half_wrong = [], 0
        for rank in (1, 2, 3, 4):
            for trial in range(40):
                u = random_reduced_letters(rng, rank, rng.randint(0, 10))
                tail = 1 + (trial % 3 == 2 and rank > 1)
                if trial % 3:
                    u = reduce_letters(u + (rng.choice((tail, -tail)),) * rng.randint(1, 3))
                gens = [(i,) for i in range(1, rank + 1)]
                autos = [gens, [(-1,)] + gens[1:]]
                if rank > 1:
                    autos.append([(1, 2)] + gens[1:])
                j = rng.randrange(rank)
                v = random_reduced_letters(rng, rank, rng.randint(1, 4))
                autos.append(gens[:j] + [reduce_letters(v + (j + 1,) + inverse_letters(v))]
                             + gens[j + 1:])
                for auto in autos:
                    images = [reduce_letters(u + w + inverse_letters(u)) for w in auto]
                    verdict = metric._common_conjugator_is_inner(images)
                    assert verdict == oracles.is_inner(images), (u, auto)
                    verdicts.append(verdict)
                first = reduce_letters(u + (1,) + inverse_letters(u))
                first_half_wrong += rank > 1 and first[:len(first) // 2] != u
        assert verdicts.count(True) > 200 and verdicts.count(False) > 300
        assert first_half_wrong > 40

    def test_figure_one_slopes(self):
        x = rose(2)
        y = point_from_dict(FIG1_TARGET_DICT)
        spec = LinearMapSpec({0: 0}, FIG1_EDGE_IMAGES)
        rep = linear_map_lipschitz(spec, x, y)
        assert rep.slopes["e1"] == pytest.approx(4 / 3, abs=1e-12)
        assert rep.slopes["e2"] == pytest.approx(4.0, abs=1e-12)
        assert rep.lip == pytest.approx(4.0, abs=1e-12)
        assert rep.green == ["e2"]

    def test_identity_map(self):
        rep = linear_map_lipschitz(
            LinearMapSpec({0: 0}, {1: (1,), 2: (2,)}), rose(2), rose(2)
        )
        assert all(s == pytest.approx(1.0, abs=1e-12) for s in rep.slopes.values())

    def test_train_track_map_slopes_constant(self, golden_tt):
        phi = golden_tt.automorphism()
        rep = linear_map_lipschitz(
            LinearMapSpec({0: 0}, {1: (1, 2), 2: (1,)}),
            golden_tt.point,
            golden_tt.point.act(phi),
        )
        for s in rep.slopes.values():
            assert s == pytest.approx(golden_tt.lam, abs=1e-9)

    def test_zero_length_edge_rejected(self):
        # a zero-length forest edge is a valid point on a face, but the
        # slope of that edge is undefined
        x = point_from_dict(dict(THETA_DICT, edges=[
            dict(e, length=l) for e, l in zip(THETA_DICT["edges"], ("0", "1/2", "1/2"))]))
        spec = LinearMapSpec({0: 0, 1: 1}, {1: (1,), 2: (2,), 3: (3,)})
        with pytest.raises(ValueError, match="edge e1 has length 0"):
            linear_map_lipschitz(spec, x, point_from_dict(THETA_DICT))

    def test_halfedge_of_no_edge_rejected(self):
        # 0 once read the last edge of y, 5 raised IndexError; the image of
        # e2 is checked before e2's vertex images are read
        for bad in (0, 5):
            for images in ({1: (1, bad), 2: (2,)}, {1: (1,), 2: (bad,)}):
                with pytest.raises(ValueError, match=f"^half-edge {bad} is not one of "):
                    linear_map_lipschitz(LinearMapSpec({0: 0}, images), rose(2), rose(2))

    @pytest.mark.parametrize("vertex_images, edge_images, message", [
        ({0: 0}, {1: (1, 2, -2), 2: (2,)}, "image of edge e1 is not tight"),
        ({}, {1: (1,), 2: (2,)}, "missing vertex image for vertex 0"),
        ({0: 0}, {1: (1,)}, "edge e2 has empty or missing image"),
        ({0: 0}, {1: (), 2: (2,)}, "edge e1 has empty or missing image"),
        ({0: 1}, {1: (1,), 2: (2,)}, "image of edge e1 starts at wrong vertex"),
    ])
    def test_edge_map_checked_as_a_selfmap_is(self, vertex_images, edge_images, message):
        # one check for both kinds of map: a non-tight image was once
        # tightened here, and a missing vertex image raised KeyError
        for build in (lambda: GraphSelfMap(rose(2), vertex_images, edge_images),
                      lambda: linear_map_lipschitz(LinearMapSpec(vertex_images, edge_images),
                                                   rose(2), rose(2))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    def test_image_ends_at_wrong_vertex(self, theta_point):
        images = {1: (1,), 2: (2, -1), 3: (3,)}
        with pytest.raises(ValueError, match="^image of edge e2 ends at wrong vertex$"):
            linear_map_lipschitz(LinearMapSpec({0: 0, 1: 1}, images), theta_point, theta_point)

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            linear_map_lipschitz(
                LinearMapSpec({0: 0}, {1: (1,), 2: (1,)}), rose(2), rose(2)
            )


class TestMetricAxioms:
    def _pool(self, rank, n):
        return [random_point(rank, s, 2, 0.35) for s in range(n)]

    def test_nonnegativity_and_identity(self):
        pool = self._pool(2, 10)
        for x in pool:
            assert abs(distance(x, x).value) <= 1e-9
            for y in pool:
                assert distance(x, y).value >= -1e-9

    def test_triangle_inequality(self):
        pool = self._pool(2, 8)
        rng = random.Random(0)
        for _ in range(60):
            x, y, z = (rng.choice(pool) for _ in range(3))
            assert (
                distance(x, z).value
                <= distance(x, y).value + distance(y, z).value + 1e-9
            )

    def test_equivariance(self):
        rng = random.Random(2)
        moves = list(all_whitehead_moves(2))
        for _ in range(10):
            x = random_point(2, rng.randint(0, 99), 2, 0.3)
            y = random_point(2, rng.randint(100, 199), 2, 0.3)
            phi = rng.choice(moves).automorphism(2)
            assert distance(x.act(phi), y.act(phi)).value == pytest.approx(
                distance(x, y).value, abs=1e-9
            )

    def test_asymmetry_bounded_on_thick_points(self):
        # the ratio d(x,y)/d(y,x) is recorded, never asserted against a
        # fixed constant
        ratios = []
        pool = self._pool(2, 8)
        for i, x in enumerate(pool):
            for y in pool[i + 1 :]:
                fwd, bwd = distance(x, y).value, distance(y, x).value
                if fwd > 1e-9 and bwd > 1e-9:
                    ratios.append(fwd / bwd)
        assert ratios and all(math.isfinite(r) and r > 0 for r in ratios)

    def test_rank_one_rose_has_one_candidate(self):
        # one candidate: the witness and the table read its class alone
        x = rose(1, [1.0])
        res = distance(x, x.with_lengths([1.0]))
        assert res.value == 0.0 and [str(c) for c, *_ in res.table] == ["a"]
        assert str(res.witness.conjugacy_class) == "a"

    def test_points_equal(self):
        assert points_equal(rose(2), rose(2))
        assert not points_equal(rose(2), rose(2, [1 / 3, 2 / 3]))


def _reference(x, y):
    """distance(x, y) with every length at y realized anew by
    oracles.loop_length: (value, witness, table)."""
    rows = [(c, c.length, oracles.loop_length(y, c.conjugacy_class.letters))
            for c in x.candidates()]
    rows = [(c, lx, ly, ly / lx) for c, lx, ly in rows]
    best = max(r for *_, r in rows)
    witness = min((c for c, *_, r in rows if r >= best * (1.0 - TIE_TOL)),
                  key=lambda c: word_key(c.conjugacy_class.letters))
    return math.log(best), witness, [(c.conjugacy_class, lx, ly, r) for c, lx, ly, r in rows]


def _fields(res):
    return res.value, res.witness, res.table


def _copies(P, rng):
    """P, a with_lengths copy of it and an act copy of it."""
    moved = P.act(random_whitehead_move(P.rank, rng).automorphism(P.rank))
    return [P, P.with_lengths(_unit_lengths(rng, P.graph.n_edges)), moved]


class TestLoopCache:
    """distance reads the loop lengths of a pair of markings from a cache in
    the target point, keyed weakly by the other marking object; it must
    give what realizing every loop anew gives, bit for bit."""

    @pytest.mark.parametrize("cell", CELLS)
    def test_cached_distance_equals_reference(self, cell):
        rng = random.Random(f"loop-cache-{cell}")
        for rank in range(2, 6):
            xs = _copies(_cell_point(cell, rank, rng), rng)
            ys = _copies(_cell_point(rng.choice(CELLS), rank, rng), rng)
            pairs = [(a, b) for a in xs for b in ys] + [(b, a) for a in xs for b in ys]
            pairs += [(xs[0], xs[1]), (xs[1], xs[0]), (ys[2], ys[2])]
            want = [_reference(a, b) for a, b in pairs]
            for _ in range(2):  # the second round reads every pair from the cache
                assert [_fields(distance(a, b)) for a, b in pairs] == want
            # new length copies of both ends read the same cache entries
            for (a, b), (value, witness, table) in zip(pairs, want):
                a2 = a.with_lengths(a.graph.lengths)
                b2 = b.with_lengths(b.graph.lengths)
                assert _fields(distance(a2, b2)) == (value, witness, table)

    def test_equal_length_roses_equal_reference(self):
        """Equal-length roses and their act copies, where ratios tie: the
        witness is the least tied class in word_key order, as in the class
        order of the reference."""
        rng = random.Random("equal-roses")
        tied = 0
        for rank in range(2, 6):
            R = rose(rank)
            points = [R] + [R.act(random_whitehead_move(rank, rng).automorphism(rank))
                            for _ in range(3)]
            for a in points:
                for b in points:
                    want = _reference(a, b)
                    assert _fields(distance(a, b)) == want
                    best = math.exp(want[0])
                    tied += sum(r >= best * (1.0 - TIE_TOL) for *_, r in want[2]) > 1
        assert tied

    def test_copies_realize_nothing(self, monkeypatch):
        """Length copies of x and repeated queries read the loop lengths y
        keeps, and realize nothing."""
        real = MarkedMetricGraph.realize_based
        calls = []
        monkeypatch.setattr(MarkedMetricGraph, "realize_based",
                            lambda self, letters: calls.append(1) or real(self, letters))
        rng = random.Random("copies-realize-nothing")
        for cell in CELLS:
            for rank in (2, 3, 4):
                X = _cell_point(cell, rank, rng)
                Y = _cell_point(cell, rank, rng)
                distance(X, Y)
                assert calls
                calls.clear()
                for _ in range(3):
                    X2 = X.with_lengths(_unit_lengths(rng, X.graph.n_edges))
                    for a, b in ((X2, Y), (X, Y)):
                        got = _fields(distance(a, b))
                        assert not calls
                        assert got == _reference(a, b)

    def test_act_copy_reads_no_parent_entry(self):
        rng = random.Random("act-copy-entries")
        for cell in CELLS:
            for rank in (2, 3, 4):
                X = _cell_point(cell, rank, rng)
                Y = _cell_point(cell, rank, rng)
                distance(X, Y)
                Z = Y.act(random_whitehead_move(rank, rng).automorphism(rank))
                assert Z.marking is not Y.marking and Z._ly is None
                assert Z.marking.geo is Y.marking.geo
                assert _fields(distance(X, Z)) == _reference(X, Z)
                assert Y.with_lengths(Y.graph.lengths).marking is Y.marking

    def test_realization_realizes_every_label(self):
        """realization(x) realizes x's n positive labels; the entry of each
        negative half-edge, the inverse path, is the realization of its own
        label. At x's own marking, loop_lengths reads candidate_lengths,
        the lengths of the loops realized, bit for bit."""
        rng = random.Random("realization")
        for cell in CELLS:
            for rank in (2, 3, 4):
                X = _cell_point(cell, rank, rng)
                Y = _cell_point(rng.choice(CELLS), rank, rng)
                n = X.graph.n_edges
                assert Y.realization(X) == {
                    h: Y.realize_based(X.path_word((h,)).letters)
                    for h in (*range(1, n + 1), *range(-n, 0))}
                for Z in (X, X.with_lengths(_unit_lengths(rng, n))):
                    assert Z.loop_lengths(X) == tuple(map(Z.graph.path_length, Z.tight_loops(X)))

    def test_entries_die_with_their_marking(self):
        # a deleted marking object's address is reused by later ones: an
        # entry keyed by address would then be read for the wrong marking
        rng = random.Random("entries-die")
        for cell in CELLS:
            Y = _cell_point(cell, 3, rng)
            for _ in range(6):
                X = _cell_point(cell, 3, rng)
                copy = X.with_lengths(_unit_lengths(rng, X.graph.n_edges))
                distance(X, Y)
                assert len(Y._ly) == 1
                del X, copy
                gc.collect()
                assert not len(Y._ly)
                W = _cell_point(cell, 3, rng).act(
                    random_whitehead_move(3, rng).automorphism(3))
                assert _fields(distance(W, Y)) == _reference(W, Y)
                del W


class TestRetainedBytes:
    def test_far_point_keeps_lengths_not_loops(self, golden_axis):
        """After distance(X, Y), the point Y . phi^s keeps the lengths of X's
        candidate classes, not their loops, which grow like lambda^s: under
        512 bytes per candidate of X, and no more at s = 14 than at s = 10.
        Each point's own marking tables, which any query fills, are warmed
        first: Y's generator loops and X's labels and candidate lengths."""
        kept = {}
        for s in (10, 14):
            Y = golden_axis.shift(golden_axis.base, s)
            X = random_point(2, 1)
            Y._piece_table()
            X._label_table()
            X.candidate_lengths()
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                distance(X, Y)
                gc.collect()
                kept[s] = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert kept[s] <= 512 * len(X.graph.candidate_paths()), kept
        assert kept[14] <= kept[10], kept


class TestValueReadsNoClass:
    """distance(x, y).value is a max of length ratios: it enumerates no
    candidate objects and reads no conjugacy class."""

    @pytest.mark.parametrize("cell", CELLS)
    def test_value_reads_no_class(self, cell, monkeypatch):
        rng = random.Random(f"value-no-class-{cell}")
        pairs = []
        for rank in range(2, 6):
            xs = _copies(_cell_point(cell, rank, rng), rng)
            ys = _copies(_cell_point(rng.choice(CELLS), rank, rng), rng)
            pairs += [(a, b) for a in xs for b in ys] + [(b, a) for a in xs for b in ys]

        def refuse(*args):
            raise AssertionError("conjugacy class read")

        with monkeypatch.context() as patch:
            patch.setattr(graphs_mod, "enumerate_candidates", refuse)
            patch.setattr(metric, "enumerate_candidates", refuse)
            patch.setattr(MarkedMetricGraph, "path_class", refuse)
            got = [distance(a, b).value for a, b in pairs]
        assert got == [_reference(a, b)[0] for a, b in pairs]


class TestLengthCache:
    """distance reads the candidate lengths (lx) kept by the point x and the
    loop lengths (ly) kept by the point y, keyed weakly by x's marking; a
    copy with other lengths must sum its own, bit for bit as the
    reference does, and a repeated query must sum nothing at y."""

    @pytest.mark.parametrize("cell", CELLS)
    def test_copies_with_new_lengths_equal_reference(self, cell):
        rng = random.Random(f"length-cache-{cell}")
        for rank in range(2, 6):
            X = _cell_point(cell, rank, rng)
            Y = _cell_point(rng.choice(CELLS), rank, rng)
            assert _fields(distance(X, Y)) == _reference(X, Y)  # fills both caches
            for _ in range(2):
                X2 = X.with_lengths(_unit_lengths(rng, X.graph.n_edges))
                Y2 = Y.with_lengths(_unit_lengths(rng, Y.graph.n_edges))
                assert X2.graph.lengths != X.graph.lengths
                assert Y2.graph.lengths != Y.graph.lengths
                for a, b in ((X, Y2), (X2, Y), (X2, Y2), (Y2, X2), (X, Y)):
                    assert _fields(distance(a, b)) == _reference(a, b)

    def test_repeated_query_sums_no_path_at_y(self, monkeypatch):
        """Every length is an fsum; a copy sums one per distinct edge
        multiset of its candidates, over its own lengths, and a repeated
        query, the loops at y and the table sum none."""
        real = math.fsum
        sums = []

        def counting(values):
            sums.append(tuple(values))
            return real(sums[-1])

        monkeypatch.setattr(math, "fsum", counting)
        rng = random.Random("repeated-query")
        for cell in CELLS:
            for rank in range(2, 6):
                X = _cell_point(cell, rank, rng)
                Y = _cell_point(rng.choice(CELLS), rank, rng)
                want = distance(X, Y).value
                paths = X.graph.candidate_paths()
                # each twin pair of figure eights or barbells shares one
                # multiset, and no other two candidates do
                embedded = sum(kind == "embedded" for kind, _ in paths)
                n = len({tuple(sorted(abs(h) for h in path)) for _, path in paths})
                assert n == embedded + (len(paths) - embedded) // 2
                X2 = X.with_lengths(_unit_lengths(rng, X.graph.n_edges))
                sums.clear()
                assert distance(X, Y).value == want
                assert not sums  # the same two instances: nothing summed
                got = distance(X2, Y).value
                # the copy's candidate lengths alone are summed
                assert len(sums) == n
                assert set().union(*sums) <= {*X2.graph.lengths, 0.0}
                sums.clear()
                res = distance(X2, Y)
                assert res.value == got and res.table and not sums  # nor does the table
                assert _fields(distance(X2, Y)) == _reference(X2, Y)

    def test_rank_six_trivalent_sums_once_per_twin_pair(self, monkeypatch):
        """The rank-6 trivalent point below has 213 candidate paths: 41
        embedded circles and 86 twin pairs, so its copy sums 127 times."""
        X = _cell_point("trivalent", 6, random.Random("twin-sums"))
        paths = X.graph.candidate_paths()
        assert (len(paths), sum(kind == "embedded" for kind, _ in paths)) == (213, 41)
        copy = X.with_lengths(_unit_lengths(random.Random(1), X.graph.n_edges))
        calls = []
        real = math.fsum
        monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or real(values))
        copy.candidate_lengths()
        assert len(calls) == 127

    def test_loop_lengths_die_with_the_marking(self):
        rng = random.Random("loop-lengths-die")
        for cell in CELLS:
            for rank in range(2, 6):
                Y = _cell_point(cell, rank, rng)
                X = _cell_point(rng.choice(CELLS), rank, rng)
                copy = X.with_lengths(_unit_lengths(rng, X.graph.n_edges))
                distance(X, Y)
                distance(copy, Y)
                key = weakref.ref(X.marking)
                assert len(Y._ly) == 1
                del X, copy
                gc.collect()
                assert key() is None
                assert not len(Y._ly)

    @pytest.mark.parametrize("cell", CELLS)
    def test_copy_candidates_equal_enumeration(self, cell):
        rng = random.Random(f"copy-candidates-{cell}")
        for rank in range(2, 6):
            X = _cell_point(cell, rank, rng)
            Y = _cell_point(cell, rank, rng)
            distance(X, Y)
            for _ in range(2):
                copy = X.with_lengths(_unit_lengths(rng, X.graph.n_edges))
                res = distance(copy, Y)  # the lengths are read before the objects
                assert copy.candidates() == enumerate_candidates(copy)
                # candidate_lengths is in graph order, the objects and the
                # table in class order
                assert copy.candidate_lengths() == tuple(
                    copy.graph.path_length(path) for _, path in copy.graph.candidate_paths())
                assert [(c.conjugacy_class, c.length) for c in copy.candidates()] == [
                    (cls, lx) for cls, lx, _, _ in res.table]
            assert X.candidates() == enumerate_candidates(X)
