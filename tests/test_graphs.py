import json
import math
import random

import numpy as np
import pytest

import outerspacekit.graphs as graphs_mod
import outerspacekit.metric as metric_mod
import outerspacekit.words as words_mod
from outerspacekit.graphs import (
    InvalidPointError,
    MarkedMetricGraph,
    MetricGraph,
    enumerate_candidates,
    minimal_model,
    jitter_lengths,
    point_from_dict,
    point_to_dict,
    random_point,
    rose,
    tighten_path,
    validate_point,
)
from outerspacekit.metric import distance
from outerspacekit.traintrack import _acted_by_edge_move
from outerspacekit.whitehead import is_primitive, whitehead_minimize
from outerspacekit.words import (
    ALPHABET,
    Automorphism,
    CyclicWord,
    Word,
    canonical_cyclic,
    inverse_letters,
    random_automorphism,
    random_whitehead_move,
)

from . import oracles
from .conftest import DUMBBELL_DICT, THETA_DICT, aut
from .oracles import all_whitehead_moves, apply_cyclic, points_equal


def C(text):
    return CyclicWord.parse(text)


class TestValidate:
    def test_standard_rose(self):
        assert validate_point(rose(2)).valid

    def test_bad_volume(self):
        p = rose(2, [0.5, 0.25])
        report = validate_point(p)
        assert not report.valid
        assert any("volume" in s for s in report.problems)

    def test_theta(self, theta_point):
        assert validate_point(theta_point).valid

    def test_nan_length_reported(self):
        # NaN fails every comparison, so it once passed both checks
        for lengths in ([math.nan, 0.5], [math.nan, math.nan]):
            assert validate_point(rose(2, lengths)).problems == [
                "volume nan != 1",
                *(f"edge e{i} length nan outside [0, 1]"
                  for i, l in enumerate(lengths, 1) if math.isnan(l))]

    def test_zero_length_circle(self, theta_point):
        # one union-find pass reads the zero-length edges first
        assert validate_point(rose(2, [0.0, 1.0])).problems == [
            "zero-length subgraph contains a circle"]
        for lengths, problems in (((0.0, 0.0, 1.0), ["zero-length subgraph contains a circle"]),
                                  ((0.0, 1.0, 0.0), ["zero-length subgraph contains a circle"]),
                                  ((0.0, 0.5, 0.5), []), ((0.5, 0.5, 0.0), [])):
            assert validate_point(theta_point.with_lengths(lengths)).problems == problems

    def test_disconnected(self):
        two_roses = MetricGraph(2, ["e1", "e2", "e3", "e4"], [(0, 0), (0, 0), (1, 1), (1, 1)],
                                [0.25] * 4)
        assert validate_point(MarkedMetricGraph(two_roses, 0, [(1,), (2,), (3,)])).problems == [
            "graph is not connected"]
        circle = two_roses.with_lengths([0.0, 0.5, 0.25, 0.25])
        assert validate_point(MarkedMetricGraph(circle, 0, [(1,), (2,), (3,)])).problems == [
            "zero-length subgraph contains a circle", "graph is not connected"]

    def test_basepoint_not_a_vertex(self):
        # a file names its basepoint by vertex name, so only a point built
        # in code reaches this problem
        g = rose(2).graph
        for bad in (1, -1):
            assert validate_point(MarkedMetricGraph(g, bad, [(1,), (2,)])).problems == [
                f"basepoint {bad} is not a vertex"]

    def test_valence_two_rejected(self):
        # subdivide one rose petal: middle vertex has valence 2
        g = MetricGraph(2, ["e1", "e2", "e3"], [(0, 1), (1, 0), (0, 0)],
                        [0.25, 0.25, 0.5])
        p = MarkedMetricGraph(g, 0, [(1, 2), (3,)])
        report = validate_point(p)
        assert not report.valid
        assert any("valence" in s for s in report.problems)

    def test_marking_loop_with_halfedge_of_no_edge(self):
        g = rose(2).graph
        for bad in (0, 3):
            report = validate_point(MarkedMetricGraph(g, 0, [(1, bad), (2,)]))
            assert report.problems == [f"marking loop 1: half-edge {bad} is not one of +-1..+-2"]

    def test_bad_marking_not_basis(self):
        g = MetricGraph(1, ["e1", "e2"], [(0, 0), (0, 0)], [0.5, 0.5])
        p = MarkedMetricGraph(g, 0, [(1,), (1,)])
        report = validate_point(p)
        assert not report.valid
        assert any("basis" in s for s in report.problems)


def _cell_ends(cell, rank, rng):
    """(n_vertices, edge ends) of a graph in the given cell of rank `rank`."""
    if cell == "rose":
        return 1, [(0, 0)] * rank
    if cell == "theta":
        return 2, [(0, 1)] * (rank + 1)
    if cell == "barbell":
        left = rng.randint(1, rank - 1)
        return 2, [(0, 0)] * left + [(0, 1)] + [(1, 1)] * (rank - left)
    # trivalent: grow a rank-2 theta or barbell by joining midpoints of two edges
    ends = [(0, 1)] * 3 if rng.random() < 0.5 else [(0, 0), (0, 1), (1, 1)]
    n = 2
    for _ in range(rank - 2):
        for _ in range(2):
            i = rng.randrange(len(ends))
            u, v = ends[i]
            ends[i] = (u, n)
            ends.append((n, v))
            n += 1
        ends.append((n - 2, n - 1))
    return n, ends


def _cell_point(cell, rank, rng, n_moves=3):
    """Point of the cell with a spanning-tree marking scrambled by moves."""
    n, ends = _cell_ends(cell, rank, rng)
    parent = {0: ()}  # vertex -> tree path from vertex 0, as signed edge numbers
    while len(parent) < n:
        for i, (a, b) in enumerate(ends):
            for x, y, h in ((a, b, i + 1), (b, a, -(i + 1))):
                if x in parent and y not in parent:
                    parent[y] = parent[x] + (h,)
    tree = {abs(p[-1]) for p in parent.values() if p}
    ref = lambda h: ("~" if h < 0 else "") + f"e{abs(h)}"
    loops = [
        parent[a] + (i + 1,) + tuple(-h for h in reversed(parent[b]))
        for i, (a, b) in enumerate(ends)
        if i + 1 not in tree
    ]
    point = point_from_dict({
        "rank": rank,
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [
            {"id": f"e{i + 1}", "from": f"v{a}", "to": f"v{b}", "length": 1.0 / len(ends)}
            for i, (a, b) in enumerate(ends)
        ],
        "marking": {ALPHABET[k]: [ref(h) for h in loop] for k, loop in enumerate(loops)},
        "basepoint": "v0",
    })
    for _ in range(n_moves):
        point = point.act(random_whitehead_move(rank, rng).automorphism(rank))
    return point_from_dict(point_to_dict(point), validate=False)


class TestBasisCertificate:
    @pytest.mark.parametrize("cell", ["rose", "theta", "barbell", "trivalent"])
    def test_label_classes_minimize_to_basis(self, cell):
        # validate_point certifies a marking by the basis fold alone; the
        # edge labels, read from the inverse on first use, must then reduce
        # to single letters
        rng = random.Random(cell)
        for rank in range(2, 6):
            for _ in range(3):
                point = _cell_point(cell, rank, rng)
                assert validate_point(point).valid
                labels = [CyclicWord.make(w.letters) for w in point.marking_inverse().images]
                assert whitehead_minimize(labels, rank).terminal_state == "basis-reached"

    def test_validation_reads_no_inverse(self, monkeypatch, golden_axis):
        """point_from_dict certifies a marking by the basis fold alone, and
        neither reads nor checks an inverse: at a random point read back
        from its dict, and at the golden axis point at s = 16 (4 181
        letters). Each inverse is then read on first use. It is the gauge
        fold's at the random point, and at the axis point the inverse its
        composed map knows (the gauge fold takes seconds there). A
        one-letter corruption of the long marking is rejected."""
        near, far = random_point(4, 11), golden_axis.shift(golden_axis.base, 16)
        dicts = [point_to_dict(near), point_to_dict(far)]

        def refuse(*args):
            raise AssertionError("validation read an inverse")

        monkeypatch.setattr(words_mod, "inverse_images", refuse)
        monkeypatch.setattr(words_mod, "verify_inverse", refuse)
        got_near, got_far = map(point_from_dict, dicts)
        monkeypatch.undo()
        images = got_near.marking_map().images
        assert got_near.marking_inverse().images == tuple(oracles.gauge_fold(images, 4))
        assert got_far.marking_inverse().images == far.marking_inverse().images
        loop = list(dicts[1]["marking"]["a"])
        loop[1000] = "e2" if loop[1000] == "e1" else "e1"
        bad = dict(dicts[1], marking=dict(dicts[1]["marking"], a=loop))
        with pytest.raises(InvalidPointError) as e:
            point_from_dict(bad)
        assert e.value.problems == ["marking loops do not define a basis of the free group"]

    def test_identity_marking_is_its_own_inverse(self, monkeypatch):
        """A rose file's identity marking (a -> e1, b -> e2) is
        Automorphism.identity, linked to itself: validation certifies it
        with no fold, and its inverse and labels are read with no
        inverse_images. A permuted marking still certifies by the fold, and
        a repeated loop is still rejected."""
        def refuse(*args):
            raise AssertionError("inverse_images called")

        folds = []
        fold = words_mod._fold
        monkeypatch.setattr(words_mod, "_fold", lambda *args: folds.append(args) or fold(*args))
        monkeypatch.setattr(words_mod, "inverse_images", refuse)
        data = point_to_dict(rose(2))
        point = point_from_dict(data)
        assert point.marking_inverse() is point.marking_map() == Automorphism.identity(2)
        assert [point.path_word((h,)) for h in (1, -2)] == [Word.parse("a"), Word.parse("B")]
        assert folds == []
        swapped = point_from_dict(dict(data, marking={"a": ["e2"], "b": ["e1"]}))
        assert len(folds) == 1
        monkeypatch.undo()
        assert swapped.marking_inverse().images == (Word.parse("b"), Word.parse("a"))
        with pytest.raises(InvalidPointError) as e:
            point_from_dict(dict(data, marking={"a": ["e1"], "b": ["e1"]}))
        assert e.value.problems == ["marking loops do not define a basis of the free group"]

CELLS = ["rose", "theta", "barbell", "trivalent"]


def _random_walk(graph, rng, length):
    """Half-edge path of a random walk from a random vertex: it backtracks
    often and need not start, end or pass at the basepoint."""
    v = rng.randrange(graph.n_vertices)
    path = []
    for _ in range(length):
        h = -path[-1] if path and rng.random() < 0.25 else rng.choice(graph.out_halfedges(v))
        path.append(h)
        v = graph.term_of(h)
    return tuple(path)


class TestPathWord:
    @pytest.mark.parametrize("cell", ["rose", "theta", "barbell", "trivalent"])
    def test_matches_letterwise_reading(self, cell):
        rng = random.Random(f"path-word-{cell}")
        for rank in range(2, 6):
            for _ in range(2):
                X = _cell_point(cell, rank, rng)
                paths = [_random_walk(X.graph, rng, rng.randrange(40)) for _ in range(25)]
                for i, loop in enumerate(X.gen_loops, 1):
                    assert X.path_word(loop) == Word((i,))
                words = [X.path_word(p) for p in paths]
                assert words == [oracles.path_word(X, p) for p in paths]
                # made after X has read paths: act must build new labels,
                # with_lengths keeps the marking and so the labels
                lengths = [rng.uniform(0.5, 1.5) for _ in X.graph.lengths]
                Z = X.with_lengths([l / math.fsum(lengths) for l in lengths])
                assert [Z.path_word(p) for p in paths] == words
                Y = X.act(random_whitehead_move(rank, rng).automorphism(rank))
                assert [Y.path_word(p) for p in paths] == [oracles.path_word(Y, p) for p in paths]

    def test_rejects_halfedges_of_no_edge(self, theta_point):
        m = theta_point.graph.n_edges
        for bad in (0, m + 1, -(m + 1)):
            with pytest.raises(ValueError, match=f"half-edge {bad} is not one of"):
                theta_point.path_word((1, bad))
            with pytest.raises(ValueError, match=f"half-edge {bad} is not one of"):
                theta_point.path_word((1, -1) * 600 + (bad,))

    @pytest.mark.parametrize("cell", CELLS)
    def test_long_walks_match_letterwise_reading(self, cell):
        # walks of a few thousand half-edges, read as tuples and as arrays
        rng = random.Random(f"long-walk-{cell}")
        for rank in (2, 4):
            X = _cell_point(cell, rank, rng)
            for n in (1023, 1024, 3000):
                p = _random_walk(X.graph, rng, n)
                want = oracles.path_word(X, p)
                assert X.path_word(p) == want
                assert X.path_word(np.array(p, dtype=np.intp)) == want

    def test_empty_path(self, theta_point):
        assert theta_point.path_word(()) == Word(())

    @pytest.mark.parametrize("cell", CELLS)
    def test_path_then_its_reverse_is_trivial(self, cell):
        rng = random.Random(f"there-and-back-{cell}")
        for rank in (2, 3, 5):
            X = _cell_point(cell, rank, rng)
            for n in (1, 7, 600):
                p = _random_walk(X.graph, rng, n)
                assert X.path_word(p + inverse_letters(p)) == Word(())


class TestTighten:
    def test_backtrack(self):
        g = rose(2).graph
        assert tighten_path(g, (1, -1)) == ()

    def test_inner_backtrack(self, theta_point):
        g = theta_point.graph
        assert tighten_path(g, (1, -2, 2, -3)) == (1, -3)

    def test_immersed_unchanged(self, theta_point):
        g = theta_point.graph
        assert tighten_path(g, (1, -2)) == (1, -2)

    def test_broken_incidence(self, theta_point):
        g = theta_point.graph
        with pytest.raises(ValueError):
            tighten_path(g, (1, 2))

    def test_halfedge_of_no_edge(self, theta_point):
        # 0 once read the last edge and 5 raised IndexError; the first
        # fault along the path is the one reported
        g = rose(2).graph
        for bad in (0, 3, -3, 5):
            with pytest.raises(ValueError, match=rf"^half-edge {bad} is not one of \+-1\.\.\+-2$"):
                tighten_path(g, (1, bad, 2))
            with pytest.raises(KeyError):
                g.init_of(bad)
        g = theta_point.graph
        with pytest.raises(ValueError, match="half-edge 4 is not one of"):
            tighten_path(g, (1, -2, 4, 2))
        with pytest.raises(ValueError, match="broken incidence at position 0"):
            tighten_path(g, (1, 2, 4))


class TestLoopLength:
    def test_two_petals(self):
        assert rose(2).loop_length(C("ab")) == 1.0

    def test_reduction_before_measuring(self):
        assert rose(2).loop_length(Word.make((1, 2, -2, 1))) == 1.0

    def test_nielsen_power_example(self):
        R = rose(2)
        for m in (1, 2, 5):
            psi = Automorphism(2, [Word((1,)), Word(tuple([1] * m + [2]))])
            assert R.act(psi).loop_length(C("b")) == pytest.approx((m + 1) / 2, abs=1e-12)

    def test_conjugation_inversion_invariance(self):
        rng = random.Random(9)
        p = random_point(2, 3, 2, 0.2)
        for _ in range(50):
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]
            w = Word.make(letters)
            if not w:
                continue
            conj = Word.make([rng.choice([1, -1, 2, -2]) for _ in range(3)])
            assert p.loop_length(w) == pytest.approx(
                p.loop_length(conj * w * conj.inverse()), abs=1e-12
            )
            assert p.loop_length(w) == pytest.approx(p.loop_length(w.inverse()), abs=1e-12)

    def test_positive(self):
        p = random_point(3, 5, 3, 0.4)
        for text in ("a", "b", "c", "abC"):
            assert p.loop_length(C(text)) > 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rose(2).loop_length(CyclicWord(()))

    def test_path_length_rejects_halfedges_of_no_edge(self, theta_point):
        g = theta_point.graph
        assert g.path_length((1, -2)) == g.lengths[0] + g.lengths[1]
        for bad in (0, g.n_edges + 1, -(g.n_edges + 1)):
            with pytest.raises(KeyError):
                g.path_length((1, bad))


class TestCandidates:
    def test_rank2_rose(self):
        cands = rose(2).candidates()
        assert {str(c.conjugacy_class) for c in cands} == {"a", "b", "ab", "aB"}

    def test_theta(self, theta_point):
        cands = theta_point.candidates()
        assert len(cands) == 3
        assert all(c.kind == "embedded" for c in cands)

    def test_rank3_rose(self):
        cands = rose(3).candidates()
        kinds = [c.kind for c in cands]
        assert kinds.count("embedded") == 3
        assert kinds.count("figure-eight") == 6
        assert kinds.count("barbell") == 0

    def test_dumbbell_has_barbells(self, dumbbell_point):
        cands = dumbbell_point.candidates()
        kinds = [c.kind for c in cands]
        assert kinds.count("embedded") == 2
        assert kinds.count("barbell") == 2
        assert kinds.count("figure-eight") == 0

    def test_path_length_matches_class_length(self, dumbbell_point):
        for p in (rose(2), rose(3), dumbbell_point):
            for c in p.candidates():
                assert c.length == pytest.approx(
                    p.loop_length(c.conjugacy_class), abs=1e-12
                )

    def test_shapes_reverify(self, dumbbell_point, theta_point):
        for p in (rose(2), rose(3), theta_point, dumbbell_point):
            g = p.graph
            for c in p.candidates():
                path = c.path
                # closed immersed loop
                assert g.init_of(path[0]) == g.term_of(path[-1])
                assert tighten_path(g, path) == path
                assert path[0] != -path[-1]
                visits = [g.init_of(h) for h in path]
                if c.kind == "embedded":
                    assert len(set(visits)) == len(visits)
                elif c.kind == "figure-eight":
                    # exactly one vertex visited twice
                    dup = [v for v in set(visits) if visits.count(v) == 2]
                    assert len(dup) == 1 and len(visits) == len(set(visits)) + 1
                else:  # barbell: bar crossed twice, circles once
                    counts = {}
                    for h in path:
                        counts[abs(h)] = counts.get(abs(h), 0) + 1
                    assert sorted(counts.values()).count(2) == 1

    def test_candidates_primitive(self, theta_point, dumbbell_point):
        for p in (rose(2), rose(3), theta_point, dumbbell_point):
            for c in p.candidates():
                assert is_primitive(c.conjugacy_class, p.rank), c

    @pytest.mark.parametrize("cell", CELLS)
    def test_enumeration_equals_per_marking_oracle(self, cell):
        """The graph's candidate paths, classed at a marking, are what
        classing every raw path at that marking keeps: the same kinds,
        paths, classes, lengths and order. The graph's paths are distinct
        cycles up to rotation and inversion, and the length and act copies
        of a point read the one list of its graph."""
        rng = random.Random(f"per-graph-candidates-{cell}")
        for rank in range(2, 6):
            for _ in range(2):
                X = _cell_point(cell, rank, rng)
                cycles = [canonical_cyclic(path) for _, path in X.graph.candidate_paths()]
                assert len(set(cycles)) == len(cycles)
                points = [X, X.with_lengths(_unit_lengths(rng, X.graph.n_edges))]
                points += [p.act(random_whitehead_move(rank, rng).automorphism(rank))
                           for p in points]
                for p in points:
                    want = oracles.enumerate_candidates(p)
                    assert _fields(enumerate_candidates(p)) == _fields(want)
                    assert p.graph.candidate_paths() is X.graph.candidate_paths()

    @pytest.mark.parametrize("cell", CELLS)
    def test_candidate_lengths_equal_path_sums_bit_for_bit(self, cell):
        """candidate_lengths sums each distinct edge multiset of the
        candidates once; every value is the float the oracle's fsum over
        the path gives, on lengths random, spread over many binades, zero,
        signed zero, tiny, subnormal and inexact, and the candidate objects
        carry the same floats."""
        rng = random.Random(f"gathered-lengths-{cell}")
        for rank in range(2, 8):
            X = _cell_point(cell, rank, rng)
            m = X.graph.n_edges
            for lengths in (_unit_lengths(rng, m), [rng.random() ** 21 for _ in range(m)],
                            [0.0] * m, [-0.0] * m, [1e-300] * m, [5e-324] * m, [1 / 3] * m):
                p = X.with_lengths(lengths)
                want = [oracles.path_length(p, path) for _, path in p.graph.candidate_paths()]
                assert list(map(float.hex, p.candidate_lengths())) == list(map(float.hex, want))
            p = X.with_lengths(_unit_lengths(rng, m))
            assert [(c.path, c.length.hex()) for c in enumerate_candidates(p)] == [
                (c.path, c.length.hex()) for c in oracles.enumerate_candidates(p)]


def _unit_lengths(rng, m):
    raw = [rng.uniform(0.2, 1.0) for _ in range(m)]
    vol = math.fsum(raw)
    return [x / vol for x in raw]


def _fresh(point, lengths):
    """A point built from nothing with the graph and marking of `point`."""
    g = point.graph
    return MarkedMetricGraph(
        MetricGraph(g.n_vertices, g.edge_ids, g.ends, lengths), point.basepoint, point.gen_loops
    )


def _fields(cands):
    return [(c.kind, c.path, c.conjugacy_class, c.length) for c in cands]


def _backtracking_point(cell, rank, rng):
    """A valid point of the cell whose marking loops carry spurs h, -h."""
    X = _cell_point(cell, rank, rng)
    g = X.graph
    ref = lambda h: ("~" if h < 0 else "") + g.edge_ids[abs(h) - 1]  # noqa: E731
    loops = []
    for loop in X.gen_loops:
        loop = list(loop)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(loop) + 1)
            v = g.init_of(loop[i]) if i < len(loop) else g.term_of(loop[-1])
            h = rng.choice(g.out_halfedges(v))
            loop[i:i] = [h, -h]
        loops.append(loop)
    d = point_to_dict(X)
    d["marking"] = {ALPHABET[k]: [ref(h) for h in loop] for k, loop in enumerate(loops)}
    point = point_from_dict(d)
    assert any(tighten_path(g, loop) != loop for loop in point.gen_loops)
    return point


class TestLengthChange:
    """A point made by with_lengths keeps what depends on the marking alone."""

    @pytest.mark.parametrize("cell", CELLS)
    def test_inherited_candidates_equal_enumeration(self, cell):
        rng = random.Random(f"length-change-{cell}")
        for rank in range(2, 6):
            for depth in (1, 2, 3):
                chain = [_cell_point(cell, rank, rng)]
                for _ in range(depth):
                    # the parent's candidates are read before the copy,
                    # after it, or not at all
                    when = rng.choice(["before", "after", "never"])
                    if when == "before":
                        chain[-1].candidates()
                    chain.append(chain[-1].with_lengths(_unit_lengths(rng, chain[0].graph.n_edges)))
                    if when == "after":
                        chain[-2].candidates()
                for p in chain:
                    want = enumerate_candidates(_fresh(p, p.graph.lengths))
                    assert _fields(p.candidates()) == _fields(want)
                    # the points of a chain share their marking object and
                    # the candidate paths of their graphs
                    assert p.marking is chain[0].marking
                    assert p.graph.candidate_paths() is chain[0].graph.candidate_paths()

    def test_act_enumerates_its_own_candidates(self):
        rng = random.Random("act-candidates")
        changed = 0
        for cell in CELLS:
            for rank in (2, 3, 4):
                X = _cell_point(cell, rank, rng)
                X.candidates()
                Y = X.act(random_whitehead_move(rank, rng).automorphism(rank))
                want = enumerate_candidates(_fresh(Y, Y.graph.lengths))
                assert _fields(Y.candidates()) == _fields(want)
                changed += [c.conjugacy_class for c in want] != [
                    c.conjugacy_class for c in X.candidates()]
        assert changed > 0

    def test_distance_on_a_copy_enumerates_nothing(self, monkeypatch):
        """The value of distance on a length copy enumerates no candidate;
        its witness and table, read afterwards, are those of a point built
        anew."""
        rng = random.Random("distance-copy")
        cases = []
        for cell in CELLS:
            X = _cell_point(cell, 3, rng)
            Y = _cell_point(cell, 3, rng)
            lengths = _unit_lengths(rng, X.graph.n_edges)
            cases.append((X, Y, lengths, distance(_fresh(X, lengths), Y)))
            distance(X, Y)

        def refuse(point):
            raise AssertionError("candidates enumerated")

        with monkeypatch.context() as patch:
            patch.setattr(graphs_mod, "enumerate_candidates", refuse)
            patch.setattr(metric_mod, "enumerate_candidates", refuse)
            got = [distance(X.with_lengths(lengths), Y) for X, Y, lengths, _ in cases]
        for res, (*_, want) in zip(got, cases):
            assert (res.value, res.witness, res.table) == (want.value, want.witness, want.table)

    @pytest.mark.parametrize("cell", CELLS)
    def test_realize_and_measure_match_letterwise_reading(self, cell):
        rng = random.Random(f"realize-{cell}")
        for rank in range(2, 6):
            X = _backtracking_point(cell, rank, rng)
            Z = X.with_lengths(_unit_lengths(rng, X.graph.n_edges))
            Y = X.act(random_whitehead_move(rank, rng).automorphism(rank))
            letters = [l for i in range(1, rank + 1) for l in (i, -i)]
            for _ in range(40):
                w = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 13)))
                for P in (X, Z, Y):
                    path = oracles.realize_based(P, w)
                    assert P.realize_based(w) == path
                    assert P.graph.path_length(P.realize_based(w)) == oracles.path_length(P, path)
                    assert P.loop_length(w) == oracles.loop_length(P, w)


class TestAct:
    def test_identity(self):
        p = rose(2)
        assert points_equal(p, p.act(Automorphism.identity(2)))

    def test_isometric(self):
        x = random_point(2, 1, 2, 0.3)
        y = random_point(2, 2, 2, 0.3)
        phi = aut(2, "ab", "a")
        assert distance(x.act(phi), y.act(phi)).value == pytest.approx(
            distance(x, y).value, abs=1e-12
        )

    def test_right_action(self):
        rng = random.Random(4)
        moves = list(all_whitehead_moves(2))
        for _ in range(10):
            p = random_point(2, rng.randint(0, 99), 2, 0.3)
            phi = rng.choice(moves).automorphism(2)
            psi = rng.choice(moves).automorphism(2)
            lhs = p.act(phi).act(psi)
            rhs = p.act(phi.compose(psi))
            assert points_equal(lhs, rhs)

    def test_action_identity_on_lengths(self):
        p = rose(2)
        phi = aut(2, "ab", "a")
        q = p.act(phi)
        for text in ("a", "b", "ab", "aB", "abb"):
            w = C(text)
            assert q.loop_length(w) == pytest.approx(
                p.loop_length(apply_cyclic(phi, w)), abs=1e-12
            )

    def test_act_certifies_an_automorphism_with_no_known_inverse(self):
        for r, seed in ((2, 3), (3, 5), (4, 7)):
            x = random_point(r, seed)
            images = random_automorphism(r, random.Random(seed), 4).images
            certified = Automorphism(r, images)
            certified.inverse()
            got, want = x.act(Automorphism(r, images)), x.act(certified)
            assert got.gen_loops == want.gen_loops
            assert got.marking_inverse().images == want.marking_inverse().images

    def test_non_basis_rejected(self):
        with pytest.raises(ValueError, match="do not form a basis"):
            rose(2).act(aut(2, "ab", "ab"))

    def test_points_built_by_action_never_fold(self, monkeypatch, golden_axis, tribo_axis,
                                               rank4_axis):
        """The rose, Whitehead moves and composites of certified maps know
        their inverses, so neither building nor acting on these points folds,
        and each inverse so known is the one a fresh fold finds."""
        def no_fold(images, rank):
            raise AssertionError("inverse_images folded")

        monkeypatch.setattr(words_mod, "inverse_images", no_fold)
        maps = []
        for r in range(2, 6):
            for seed in range(3):
                x = random_point(r, seed)
                maps.append(random_automorphism(r, random.Random(seed), 4))
                y = _acted_by_edge_move(x, random_whitehead_move(r, random.Random(seed)))
                maps += [x.marking_map(), y.marking_map()]
        for ax in (golden_axis, tribo_axis, rank4_axis):
            for s in (5, -5):
                maps.append(ax.shift(ax.base, s).marking_map())
        known = [phi.inverse().images for phi in maps]
        monkeypatch.undo()
        assert known == [Automorphism(phi.rank, phi.images).inverse().images for phi in maps]


class TestMinimalModel:
    def test_rose_unchanged(self):
        p = rose(2)
        assert points_equal(p, minimal_model(p))

    def test_theta_collapse(self, theta_point):
        k = minimal_model(theta_point)
        assert k.graph.n_edges == 2
        assert sorted(k.graph.lengths) == [0.5, 0.5]
        assert validate_point(k).valid

    def test_distance_bound(self):
        for seed in range(6):
            p = random_point(2, seed, 2, 0.5)
            k = minimal_model(p)
            assert distance(p, k).value <= math.log(3 * 2 - 3) + 1e-9
        p = point_from_dict(THETA_DICT)
        assert distance(p, minimal_model(p)).value <= math.log(3) + 1e-9

    @pytest.mark.parametrize("cell", CELLS)
    def test_distance_bound_every_cell(self, cell):
        rng = random.Random(f"minimal-model-{cell}")
        for rank in range(2, 6):
            for _ in range(3):
                p = jitter_lengths(_cell_point(cell, rank, rng), rng, 0.5)
                assert distance(p, minimal_model(p)).value <= math.log(3 * rank - 3)

    def test_dumbbell_loop_longest_collapses_bar(self, dumbbell_point):
        k = minimal_model(dumbbell_point)
        assert k.graph.n_edges == 2 and k.graph.n_vertices == 1
        assert validate_point(k).valid

    def test_dumbbell_bar_longest_is_kept(self):
        data = dict(DUMBBELL_DICT)
        data["edges"] = [
            {"id": "p", "from": "u", "to": "u", "length": 0.25},
            {"id": "bar", "from": "u", "to": "v", "length": 0.5},
            {"id": "q", "from": "v", "to": "v", "length": 0.25},
        ]
        p = point_from_dict(data)
        k = minimal_model(p)
        assert k.graph.n_edges == 3  # separating longest edge survives
        assert points_equal(p, k)


class TestRandomPoint:
    def test_degenerate_is_standard_rose(self):
        assert points_equal(random_point(2, 7, 0, 0.0), rose(2))

    def test_deterministic(self):
        a = random_point(2, 13, 4, 0.5)
        b = random_point(2, 13, 4, 0.5)
        assert a.graph.lengths == b.graph.lengths
        assert a.gen_loops == b.gen_loops

    def test_always_valid(self):
        for seed in range(8):
            assert validate_point(random_point(2, seed, 3, 0.6)).valid

    def test_jitter_bounds(self):
        with pytest.raises(ValueError):
            random_point(2, 0, 0, 1.5)

    def test_one_action_by_the_composite_equals_one_per_move(self):
        # the composite of the drawn moves acts on the rose once; acting by
        # the moves one at a time, then jittering, gives the same point
        for rank in (2, 3, 4):
            for n_moves in range(4):
                for seed in range(5):
                    rng = random.Random(seed)
                    point = rose(rank)
                    for _ in range(n_moves):
                        point = point.act(random_whitehead_move(rank, rng).automorphism(rank))
                    want = jitter_lengths(point, rng, 0.3)
                    got = random_point(rank, seed, n_moves)
                    assert point_to_dict(got) == point_to_dict(want)
                    assert got.marking_map().images == want.marking_map().images
                    assert got.marking_inverse().images == want.marking_inverse().images


class TestFileFormat:
    def test_round_trip(self, theta_point):
        d = point_to_dict(theta_point)
        q = point_from_dict(json.loads(json.dumps(d)))
        assert points_equal(theta_point, q)

    def test_volume_not_renormalized(self):
        bad = dict(THETA_DICT)
        bad["edges"] = [dict(e, length="1/2") for e in THETA_DICT["edges"]]
        with pytest.raises(InvalidPointError):
            point_from_dict(bad)

    def test_rational_lengths(self, theta_point):
        assert theta_point.graph.lengths == (1 / 3, 1 / 3, 1 / 3)

    def test_unknown_edge_in_marking(self):
        bad = dict(THETA_DICT)
        for ref in ("zzz", "~~e1"):
            bad["marking"] = {"x": ["e1", ref], "y": ["e2", "~e3"]}
            name = ref.removeprefix("~")
            with pytest.raises(ValueError, match=f"^unknown edge id '{name}' in marking$"):
                point_from_dict(bad)

    def test_refs_read_back(self, theta_point):
        g = theta_point.graph
        for h in (1, -1, 2, -2, 3, -3):
            assert g.halfedge(g.ref(h)) == h
        assert [g.ref(h) for h in (2, -3)] == ["e2", "~e3"]
        for ref, name in (("e4", "e4"), ("~~e1", "~e1"), ("", "")):
            with pytest.raises(KeyError, match=repr(name)):
                g.halfedge(ref)
