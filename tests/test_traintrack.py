import itertools
import logging
import math
import random
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import mpmath
import numpy as np
import pytest
import sympy

from outerspacekit import graphs, traintrack
from outerspacekit.graphs import point_from_dict, random_point, rose, tighten_path
from outerspacekit.metric import distance
from outerspacekit.traintrack import (
    GraphSelfMap,
    NotTrainTrackError,
    TrainTrackMap,
    gates,
    is_irreducible_matrix,
    lamination_length_ratio,
    lamination_whitehead_graph,
    legality_report,
    no_cut_vertex_search,
    pf_metric,
    selfmap_from_dict,
    verify_train_track,
)
from outerspacekit.whitehead import WhiteheadGraph, cut_analysis
from outerspacekit.words import CyclicWord, verify_inverse

from . import oracles
from .oracles import apply_cyclic
from .test_cli import LEAF_WORD_CASES
from .test_graphs import CELLS, _cell_point
from .conftest import (
    DUMBBELL_DICT,
    THETA_DICT,
    aut,
    golden_selfmaps,
    rank4_selfmaps,
    silver_selfmap,
    swap_golden_selfmaps,
    tribo_selfmaps,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def C(text):
    return CyclicWord.parse(text)


# the maps whose leaves leaf_path expands and whose gates are checked: golden,
# silver, plastic (tribo), rank-4, x -> xxxy, y -> x, and the inverses of
# golden, plastic and rank-4
LEAF_MAPS = {
    "golden": lambda: golden_selfmaps()[0],
    "golden-inverse": lambda: golden_selfmaps()[1],
    "silver": silver_selfmap,
    "plastic": lambda: tribo_selfmaps()[0],
    "plastic-inverse": lambda: tribo_selfmaps()[1],
    "rank4": lambda: rank4_selfmaps()[0],
    "rank4-inverse": lambda: rank4_selfmaps()[1],
    "x-xxxy": lambda: GraphSelfMap(rose(2), {0: 0}, {1: (1, 1, 1, 2), 2: (1,)}),
}


class TestGates:
    def test_golden(self):
        st = gates(golden_selfmaps()[0])
        assert set(st.gates) == {frozenset({1, 2}), frozenset({-1}), frozenset({-2})}

    def test_identity_map(self):
        f = GraphSelfMap(rose(2), {0: 0}, {1: (1,), 2: (2,)})
        assert all(len(g) == 1 for g in gates(f).gates)

    def test_swap_map(self):
        f = GraphSelfMap(rose(2), {0: 0}, {1: (2,), 2: (1,)})
        assert all(len(g) == 1 for g in gates(f).gates)

    @pytest.mark.parametrize("name", [*LEAF_MAPS, "tribonacci"])
    def test_matches_pairwise_merging(self, name):
        if name == "tribonacci":  # x -> xy, y -> xz, z -> x
            f = GraphSelfMap(rose(3), {0: 0}, {1: (1, 2), 2: (1, 3), 3: (1,)})
        else:
            f = LEAF_MAPS[name]()
        assert gates(f) == oracles.gates(f)

    def test_random_direction_maps_off_the_rose(self):
        # gates reads only the graph and the direction map, so any map of
        # directions tests the grouping, with directions at several vertices
        class Directions:
            def __init__(self, graph, dmap):
                self.graph, self._dmap = graph, dmap

            def direction_map(self):
                return self._dmap

        rng = random.Random("gates")
        for cell in CELLS:
            for rank in (2, 3, 4):
                g = _cell_point(cell, rank, rng).graph
                dirs = [h for e in range(1, g.n_edges + 1) for h in (e, -e)]
                for _ in range(5):
                    f = Directions(g, {h: rng.choice(dirs) for h in dirs})
                    assert gates(f) == oracles.gates(f)


class TestVerify:
    def test_golden(self):
        rep = verify_train_track(golden_selfmaps()[0])
        assert rep.is_tt and rep.irreducible

    def test_reducible(self):
        rep = verify_train_track(GraphSelfMap(rose(2), {0: 0}, {1: (1, 1), 2: (2,)}))
        assert rep.is_tt and not rep.irreducible

    def test_illegal(self):
        rep = verify_train_track(GraphSelfMap(rose(2), {0: 0}, {1: (1, 2), 2: (1, -2)}))
        assert not rep.is_tt
        assert set(rep.illegal_turn) == {-1, 2}

    def test_image_with_halfedge_of_no_edge_rejected(self):
        # {1: (1, 0)} was accepted, its 0 counted as edge 2 in the
        # transition matrix; 5 raised IndexError
        for bad in (0, 3, 5):
            with pytest.raises(ValueError, match=rf"^half-edge {bad} is not one of \+-1\.\.\+-2$"):
                GraphSelfMap(rose(2), {0: 0}, {1: (1, bad), 2: (1,)})

    def test_irreducible_huge_entries(self):
        # float powers of I + A overflowed here, and inf * 0 gave NaN
        B = 10**200
        assert is_irreducible_matrix(((0, B, 0), (0, 0, B), (B, 0, 0)))
        assert not is_irreducible_matrix(((0, B, 0), (0, 0, B), (0, 0, 0)))


class TestPF:
    def test_golden_eigenvalue_and_lengths(self, golden_tt):
        assert golden_tt.lam == pytest.approx(GOLDEN, abs=1e-9)
        assert golden_tt.graph.lengths[0] == pytest.approx(0.6180340, abs=1e-6)
        assert golden_tt.graph.lengths[1] == pytest.approx(0.3819660, abs=1e-6)

    def test_pf_map_shares_the_checked_images(self, monkeypatch):
        f = golden_selfmaps()[0]
        monkeypatch.setattr(traintrack, "edge_map_pieces", None)  # no image is checked again
        tt = pf_metric(f)
        assert tt.selfmap.point is tt.point
        assert tt.selfmap.halfedge_images is f.halfedge_images

    def test_swap_rejected(self):
        with pytest.raises(NotTrainTrackError):
            pf_metric(GraphSelfMap(rose(2), {0: 0}, {1: (2,), 2: (1,)}))

    def test_three_cycle_rejected_as_finite_order(self):
        # every row sum is 1, so lambda is exactly 1
        with pytest.raises(NotTrainTrackError, match=r"^expansion factor 1: the transition "
                           r"matrix is a permutation matrix \(finite order map\)$"):
            pf_metric(GraphSelfMap(rose(3), {0: 0}, {1: (2,), 2: (3,), 3: (1,)}))

    def test_one_solve_per_map(self, monkeypatch):
        """pf_metric solves once for lambda, the lengths and the
        frequencies, and a lamination estimate reads them with no solve."""
        calls = []
        solve = traintrack._perron
        monkeypatch.setattr(traintrack, "_perron", lambda A: calls.append(A) or solve(A))
        tt = pf_metric(golden_selfmaps()[0])
        lamination_length_ratio(tt, rose(2, [1 / 3, 2 / 3]))
        lamination_length_ratio(tt, tt.point)
        assert calls == [tt.matrix]

    def test_matrix_1112(self):
        tt = pf_metric(GraphSelfMap(rose(2), {0: 0}, {1: (1, 2), 2: (2, 1, 2)}))
        assert tt.lam == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-9)

    def test_edge_stretch_exactly_lambda(self, golden_tt, tribo_tt):
        for tt in (golden_tt, tribo_tt):
            g = tt.graph
            for e in range(1, g.n_edges + 1):
                img = tt.selfmap.edge_images[e]
                stretched = g.path_length(img)
                assert stretched == pytest.approx(tt.lam * g.lengths[e - 1], abs=1e-9)

    def test_at_least_two_gates_per_vertex(self, golden_tt, tribo_tt):
        for tt in (golden_tt, tribo_tt):
            for v in range(tt.graph.n_vertices):
                assert sum(tt.graph.init_of(min(gate)) == v for gate in tt.structure.gates) >= 2

    def test_associated_automorphism(self, golden_tt):
        phi = golden_tt.automorphism()
        assert [str(w) for w in phi.images] == ["ab", "a"]

    @pytest.mark.parametrize(
        "selfmap",
        [golden_selfmaps()[0], silver_selfmap(), tribo_selfmaps()[0], rank4_selfmaps()[0]],
        ids=["golden", "silver", "tribonacci", "rank4"],
    )
    def test_matches_numpy_eig(self, selfmap):
        tt = pf_metric(selfmap)
        A = np.array(tt.matrix, dtype=float)
        vals, vecs = np.linalg.eig(A)
        i = int(np.argmax(vals.real))
        lengths = np.abs(vecs[:, i].real) / np.abs(vecs[:, i].real).sum()
        assert abs(tt.lam - vals[i].real) <= 1e-9
        assert np.max(np.abs(np.array(tt.graph.lengths) - lengths)) <= 1e-9
        vals, vecs = np.linalg.eig(A.T)
        i = int(np.argmax(vals.real))
        freqs = np.abs(vecs[:, i].real) / np.abs(vecs[:, i].real).sum()
        assert np.max(np.abs(np.array(tt.frequencies) - freqs)) <= 1e-9


def _random_irreducible(rng, m):
    while True:
        A = rng.integers(0, 3, size=(m, m)) * (rng.random((m, m)) < 0.5)
        if is_irreducible_matrix(A):
            return tuple(map(tuple, A.tolist()))


@pytest.mark.parametrize("name", LEAF_MAPS)
def test_pf_data_exact(name):
    """lambda is the largest real root of the characteristic polynomial to
    1e-14, and the PF lengths and tile frequencies are positive, sum to 1
    and are eigenvectors to a residual of 1e-13."""
    tt = pf_metric(LEAF_MAPS[name]())
    roots = sympy.Matrix(tt.matrix).charpoly().nroots(n=40)
    rho = float(max(r for r in roots if r.is_real))
    assert abs(tt.lam - rho) <= 1e-14 * rho
    A = np.array(tt.matrix, dtype=float)
    for M, v in ((A, np.array(tt.graph.lengths)), (A.T, np.array(tt.frequencies))):
        assert (v > 0).all()
        assert abs(v.sum() - 1.0) <= 1e-15
        assert np.abs(M @ v - tt.lam * v).max() <= 1e-13


class TestPerron:
    """The solve against a power iteration on A and on A^T, which stops at
    a residual of 1e-12, so the two agree to within 1e-11."""

    @staticmethod
    def _close_to_reference(A):
        lam, lengths, frequencies = traintrack._perron(A)
        M = np.array(A, dtype=float)
        for v, (ref_lam, ref_v) in ((lengths, oracles.perron(M)),
                                    (frequencies, oracles.perron(M.T))):
            assert abs(lam - ref_lam) <= 1e-11
            assert np.abs(np.array(v) - ref_v).max() <= 1e-11

    @pytest.mark.parametrize("name", LEAF_MAPS)
    def test_equals_reference_on_leaf_maps(self, name):
        self._close_to_reference(LEAF_MAPS[name]().transition_matrix())

    def test_equals_reference_on_random_irreducible(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            self._close_to_reference(_random_irreducible(rng, int(rng.integers(1, 7))))

    def test_imprimitive_takes_the_positive_root(self):
        # eigenvalues +-sqrt(6): the root is the one of largest real part
        A = ((0, 2), (3, 0))
        lam, lengths, frequencies = traintrack._perron(A)
        assert lam == math.sqrt(6)
        assert min(lengths) > 0 and min(frequencies) > 0
        self._close_to_reference(A)


def _pf_exact(A):
    """The PF root of A, and its right and left PF vectors normalized to
    sum 1, to 60 digits: the largest of sympy's exact real roots of the
    characteristic polynomial (nroots fails to converge on some random
    matrices), and mpmath LU solves of (root I - M) v = 0 with v[0] = 1
    for M = A and A^T."""
    x = sympy.Symbol("x")
    root = sympy.Poly(sympy.Matrix(A).charpoly(x).as_expr(), x).real_roots()[-1]
    with mpmath.workdps(60):
        lam = mpmath.mpf(str(root.evalf(60)))
        vectors = []
        for M in (A, tuple(zip(*A))):
            L = mpmath.matrix([[lam * (i == j) - a for j, a in enumerate(row)]
                               for i, row in enumerate(M)])
            n = len(M)
            rest = mpmath.lu_solve(L[1:, 1:], -L[1:, 0]) if n > 1 else []
            v = [mpmath.mpf(1), *(rest[i] for i in range(n - 1))]
            vectors.append([float(c / sum(v)) for c in v])
        return float(lam), *vectors


class TestNearestFloat:
    """lambda is the float nearest the PF root, bit for bit, and the PF
    lengths and frequencies are within 1e-15 of the exact vectors (the
    solve evaluates them at that float, not at the root)."""

    @staticmethod
    def _exact(A, lam, lengths, frequencies):
        ref_lam, ref_lengths, ref_frequencies = _pf_exact(A)
        assert lam == ref_lam
        for v, ref in ((lengths, ref_lengths), (frequencies, ref_frequencies)):
            assert max(map(abs, map(float.__sub__, v, ref))) <= 1e-15

    @pytest.mark.parametrize("name", [*LEAF_MAPS, "swap-golden"])
    def test_maps(self, name):
        # swap-golden's matrix is irreducible with period 2
        f = swap_golden_selfmaps()[0] if name == "swap-golden" else LEAF_MAPS[name]()
        tt = pf_metric(f)
        self._exact(tt.matrix, tt.lam, tt.graph.lengths, tt.frequencies)

    def test_random_irreducible(self):
        rng = random.Random("perron")
        for n in range(1, 9):
            done = 0
            while done < 25:
                A = tuple(tuple(rng.randrange(3) if rng.random() < 0.5 else 0
                                for _ in range(n)) for _ in range(n))
                if is_irreducible_matrix(A):
                    self._exact(A, *traintrack._perron(A))
                    done += 1


class TestLegality:
    def test_short_legal_loop_leg_zero(self, golden_tt):
        rep = legality_report(C("a"), golden_tt)
        assert rep.kappa == pytest.approx(4 * GOLDEN / (GOLDEN - 1), abs=1e-9)
        assert rep.legal_pieces[0][1] < rep.kappa
        assert rep.leg == 0.0

    def test_long_legal_loop_leg_one(self, golden_tt):
        alpha = CyclicWord.make([1] * 12 + [2] * 12)
        rep = legality_report(alpha, golden_tt)
        assert len(rep.legal_pieces) == 1
        assert rep.total_length > rep.kappa
        assert rep.leg == 1.0

    def test_mixed_pieces_formula(self, golden_tt):
        # x^a Y^b x^c Y^d has illegal turns exactly at the two Y->x junctions
        alpha = CyclicWord.make([1] * 20 + [-2] * 2 + [1] * 3 + [-2] * 2)
        rep = legality_report(alpha, golden_tt)
        assert len(rep.legal_pieces) == 2
        lengths = sorted(l for (_, l) in rep.legal_pieces)
        expected = sum(l for l in lengths if l > rep.kappa) / rep.total_length
        assert rep.leg == pytest.approx(expected, abs=1e-12)
        assert 0.0 < rep.leg < 1.0

    def test_growth_lemma(self, golden_tt):
        phi = golden_tt.automorphism()
        lam = golden_tt.lam
        for text_letters in ([1] * 12 + [2] * 12, [1] * 20 + [-2] * 2 + [1] * 3 + [-2] * 2):
            alpha = CyclicWord.make(text_letters)
            rep = legality_report(alpha, golden_tt)
            eps = rep.leg
            if eps == 0.0:
                continue
            c = eps * (lam + 1) / (2 * lam)
            base = golden_tt.point.loop_length(alpha)
            w = alpha
            for n in range(1, 6):
                w = apply_cyclic(phi, w)
                assert golden_tt.point.loop_length(w) >= c * lam**n * base - 1e-9


class TestLeaves:
    def test_fibonacci_words(self, golden_tt):
        def word(k):
            return golden_tt.point.path_word(golden_tt.leaf_path(1, k))

        assert str(word(1)) == "ab"
        assert str(word(2)) == "aba"
        word4 = word(4)
        assert str(word4) == "abaababa"
        assert len(word4) == 8

    def test_transition_consistency(self, golden_tt, tribo_tt):
        for tt in (golden_tt, tribo_tt):
            A = tt.matrix
            m = tt.graph.n_edges
            for k in range(0, 6):
                lens = [len(tt.leaf_path(e, k)) for e in range(1, m + 1)]
                nxt = [len(tt.leaf_path(e, k + 1)) for e in range(1, m + 1)]
                for e in range(m):
                    assert nxt[e] == sum(A[e][j] * lens[j] for j in range(m))

    def test_quasi_periodicity_witness(self, golden_tt):
        w8 = golden_tt.leaf_path(1, 8)
        w12 = golden_tt.leaf_path(1, 12)
        pairs8 = {w8[i : i + 2] for i in range(len(w8) - 1)}
        for start in range(len(w12) - 9):
            window = w12[start : start + 10]
            pairs = {window[i : i + 2] for i in range(len(window) - 1)}
            assert pairs8 <= pairs


def _int_tuple(value):
    """value, asserted to be a tuple of Python ints."""
    assert type(value) is tuple and all(type(x) is int for x in value)
    return value


class TestLeafPath:
    @pytest.mark.parametrize("name", LEAF_MAPS)
    def test_matches_substitution(self, name):
        tt = pf_metric(LEAF_MAPS[name]())
        m = tt.graph.n_edges
        for e in range(1, m + 1):
            for h in (e, -e):
                # every level up to the first leaf longer than 2 048
                # half-edges, so that the small-lambda maps reach long
                # half-depth pieces too
                k = 0
                while True:
                    path = tt.leaf_path(h, k)
                    assert path == oracles.leaf_path(tt, h, k)
                    if len(path) > 2048:
                        break
                    k += 1
        assert all(type(h) is int for h in tt.leaf_path(1, 12))

    @pytest.mark.parametrize("name", LEAF_MAPS)
    def test_pieces_are_half_depth_leaves(self, name):
        tt = pf_metric(LEAF_MAPS[name]())
        m = tt.graph.n_edges
        for k in (0, 1, 2, 7, 10):
            for e in (1, -m):
                pieces, _, first = tt.leaf_pieces(e, k)
                assert _int_tuple(first) == oracles.leaf_path(tt, e, k // 2)
                for h in (*range(1, m + 1), *range(-m, 0)):
                    assert _int_tuple(pieces[h]) == oracles.leaf_path(tt, h, k - k // 2)

    @pytest.mark.parametrize("selfmap", [
        *(pytest.param(f, id=name) for name, f in LEAF_MAPS.items()),
        *(pytest.param(lambda d=data: selfmap_from_dict(d), id=f"cli-{name}")
          for name, data, _ in LEAF_WORD_CASES)])
    def test_piece_words_are_path_words(self, selfmap):
        # the LEAF_WORD_CASES maps add markings whose piece words cancel
        # where join_pieces joins them, and the theta graph's tree edge,
        # whose word is empty
        tt = pf_metric(selfmap())
        m = tt.graph.n_edges
        for k in range(13):
            pieces, words, _ = tt.leaf_pieces(1, k)
            for h in (*range(1, m + 1), *range(-m, 0)):
                path = oracles.leaf_path(tt, h, k - k // 2)
                assert pieces[h] == path
                assert _int_tuple(words[h]) == oracles.path_word(tt.point, path).letters

    def test_edge_index_outside_range(self, golden_tt):
        for k in (0, 1, 5):
            for bad in (0, 3, -3):
                with pytest.raises(ValueError, match=f"edge index {bad} is not one of"):
                    golden_tt.leaf_path(bad, k)

    def test_size_bound_is_exact(self, golden_tt, monkeypatch):
        # |f^4(e1)| = 8 and |f^5(e1)| = 13 on golden
        monkeypatch.setattr(traintrack, "LEAF_PATH_MAX", 8)
        assert len(golden_tt.leaf_path(1, 4)) == 8
        with pytest.raises(ValueError, match=r"f\^5\(~e1\) has more than 8 half-edges "
                                             r"\(f\^5\(~e1\) has 13\)"):
            golden_tt.leaf_path(-1, 5)

    @pytest.mark.parametrize("name", LEAF_MAPS)
    def test_array_and_segment_match_leaf_path(self, name):
        tt = pf_metric(LEAF_MAPS[name]())
        for e in range(1, tt.graph.n_edges + 1):
            for h in (e, -e):
                # every level up to the first leaf of 1 024 half-edges or more
                path, k = (), 0
                while len(path) < 1024:
                    pieces, _, first = tt.leaf_pieces(h, k)
                    path = _int_tuple(tt.leaf_path(h, k))
                    assert tuple(x for p in first for x in pieces[p]) == path
                    assert path == oracles.leaf_path(tt, h, k)
                    k += 1

    def test_leaf_pieces_errors_match_leaf_path(self, golden_tt, monkeypatch):
        for bad in (0, 3, -3):
            with pytest.raises(ValueError, match=f"edge index {bad} is not one of"):
                golden_tt.leaf_pieces(bad, 4)
        with pytest.raises(ValueError, match="k must be >= 0"):
            golden_tt.leaf_pieces(1, -1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            golden_tt.leaf_path(1, -1)
        monkeypatch.setattr(traintrack, "LEAF_PATH_MAX", 8)
        with pytest.raises(ValueError, match=r"f\^5\(e1\) has more than 8 half-edges"):
            golden_tt.leaf_pieces(1, 5)

    def test_leaf_path_allocates_about_its_result(self, golden_tt):
        # golden f^30(e1) has 2 178 309 half-edges, chained into one tuple
        # from its f^15 pieces of 1 597 and 987 half-edges; a gather per
        # level held about 2.85 times the result at its peak
        tracemalloc.start()
        try:
            path = golden_tt.leaf_path(1, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(path) == 2_178_309
        assert peak <= 2.25 * sys.getsizeof(path)

    def test_too_long_leaf_fails_in_small_memory(self, golden_tt):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"f\^60\(e1\) has more than 10000000"):
                golden_tt.leaf_path(1, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def _leaf_cases(golden_tt, tribo_tt):
    """(train-track map, target) pairs: the base point, seeded roses and,
    at rank 2, the theta and dumbbell graphs."""
    rank4_tt = pf_metric(rank4_selfmaps()[0])
    cases = []
    for tt in (golden_tt, tribo_tt, rank4_tt):
        rank = tt.point.rank
        targets = [tt.point] + [random_point(rank, 31 + s, n_moves=3) for s in range(3)]
        if rank == 2:
            targets += [point_from_dict(THETA_DICT), point_from_dict(DUMBBELL_DICT)]
        cases += [(tt, X) for X in targets]
    return cases


def _summary(tile, graph):
    """(n, head, tail, edge counts, turns) of a tile at `graph`, its turn
    counts read through the turn table, as oracles.tile_summary gives them."""
    m = graph.n_edges
    turns = Counter({frozenset(turn): c
                     for turn, c in zip(traintrack._turns(graph), tile.counts[m:]) if c})
    assert len(tile.counts) == m + len(traintrack._turns(graph))
    return (tile.n, tile.head, tile.tail, tile.counts[:m], turns)


def _assert_tiles_match(tt, X, ref):
    """The levels of tt.realized_leaves(X) summarize the oracle's paths with
    the window each level is built with; a path of at most 2 * window
    half-edges is kept whole. A level's window is that of the last
    LeafTile.of_path call before it is yielded, since every build and
    rebuild starts from level-0 tiles made with its window."""
    windows = []
    of_path = traintrack.LeafTile.of_path

    def recording_of_path(path, index, size, window):
        windows.append(window)
        return of_path(path, index, size, window)

    with mock.patch.object(traintrack.LeafTile, "of_path", recording_of_path):
        for tiles, paths in zip(tt.realized_leaves(X), ref):
            window = windows[-1]
            for tile, path in zip(tiles, paths):
                assert _summary(tile, X.graph) == oracles.tile_summary(
                    path, X.graph.n_edges, window)
                if len(path) <= 2 * window:
                    assert tile.head == tile.tail == path


CELLS = ("rose", "theta", "barbell", "trivalent")


@pytest.fixture(scope="module")
def cell_cases():
    """(cell, map, target, oracle levels 0..k_max) over seeded targets of
    every cell at ranks 2-4, with jittered edge lengths; the inverse maps
    have reversed half-edges in their edge images, the swap-golden control
    has a matrix of period 2, and every edge image of a -> ab, b -> bc,
    c -> cab has more than one piece, so the closed form sums three rows."""
    rng = random.Random(5)
    cases = []
    for selfmap, k_max in ((golden_selfmaps()[0], 12), (golden_selfmaps()[1], 12),
                           (silver_selfmap(), 8), (tribo_selfmaps()[0], 12),
                           (tribo_selfmaps()[1], 12), (rank4_selfmaps()[0], 12),
                           (rank4_selfmaps()[1], 12), (swap_golden_selfmaps()[0], 12),
                           (swap_golden_selfmaps()[1], 12),
                           (GraphSelfMap(rose(3), {0: 0}, {1: (1, 2), 2: (2, 3), 3: (3, 1, 2)}),
                            6)):
        tt = pf_metric(selfmap)
        for cell in CELLS:
            X = _cell_point(cell, tt.point.rank, rng)
            lengths = [rng.uniform(0.5, 1.5) for _ in X.graph.lengths]
            X = X.with_lengths([l / math.fsum(lengths) for l in lengths])
            cases.append((cell, tt, X, oracles.leaf_levels(tt, X, k_max)))
    return cases


@pytest.fixture(params=[None, 1, 2], ids=["default-window", "window-1", "window-2"])
def leaf_window(request, monkeypatch, caplog):
    """The leaf window, monkeypatched to 1-2 half-edges so that tiles widen
    and rebuild; a narrow window must log at least one widening."""
    caplog.set_level(logging.DEBUG, logger="outerspacekit.traintrack")
    if request.param is not None:
        monkeypatch.setattr(traintrack, "LEAF_WINDOW", request.param)
    yield request.param
    if request.param is not None:
        assert any("leaf window widened" in r.getMessage() for r in caplog.get_records("call"))


class TestRealizedLeaves:
    def test_levels_match_word_reading(self, golden_tt, tribo_tt):
        for tt, X in _leaf_cases(golden_tt, tribo_tt):
            _assert_tiles_match(tt, X, oracles.leaf_levels(tt, X, 8))

    def test_cells_match_oracle(self, cell_cases, leaf_window):
        for _, tt, X, ref in cell_cases:
            _assert_tiles_match(tt, X, ref)

    def test_whitehead_graphs_match_oracle(self, cell_cases, leaf_window):
        """The turns of the periodic end are those the tiles take at levels
        60-79, on every cell; at roses they make the Whitehead graph. Each
        map is loaded afresh, so the walk reads this window's tiles."""
        for cell, tt, X, _ in cell_cases:
            tt = pf_metric(tt.selfmap)
            ref = oracles.leaf_turns(tt, X)
            assert set(map(frozenset, tt.leaf_end(X).turns)) == ref
            if cell == "rose":
                graph, k = lamination_whitehead_graph(tt, X)
                assert graph.edges == WhiteheadGraph.from_counter(X.rank, Counter(ref)).edges
                assert k == tt.leaf_end(X).level

    def test_closed_form_matches_oracle(self, cell_cases, leaf_window):
        """The functional of the periodic end equals, bit for bit, the
        numpy object-dtype closed form over the same levels K..K+P, and its
        turns are the turns those levels take, on every cell."""
        for _, tt, X, _ in cell_cases:
            tt = pf_metric(tt.selfmap)
            end = tt.leaf_end(X)
            assert (end.functional, end.turns) == oracles.leaf_end_closed_form(tt, X, end)

    def test_repeat_with_a_shorter_tile_stops(self, monkeypatch):
        """At window 1 the golden leaf ends at this rose repeat from level 0
        to level 1, where the tile of e2 is shorter (3 half-edges against 5).
        Every tile is longer than twice the window, so the windows of level 0
        fix those of every later level: the walk stops at level 1 with
        period 1, and its end is that of the oracles."""
        monkeypatch.setattr(traintrack, "LEAF_WINDOW", 1)
        X = _cell_point("rose", 2, random.Random(9), n_moves=7)
        tt = pf_metric(golden_selfmaps()[0])
        level0, level1 = itertools.islice(tt.realized_leaves(X), 2)
        assert [(t.head, t.tail) for t in level0] == [(t.head, t.tail) for t in level1]
        assert all(t.n > 2 for t in level0 + level1)
        assert [t.n for t in level0] == [3, 5] and [t.n for t in level1] == [8, 3]
        end = tt.leaf_end(X)
        assert end.level == 1 and end.period == 1
        assert set(map(frozenset, end.turns)) == oracles.leaf_turns(tt, X)
        a = lamination_length_ratio(tt, X).value
        assert abs(oracles.lamination_ratio(tt, X, 60) - a) <= 20 * tt.lam ** -60 + 1e-12 * a

    def test_sequence_matches_reference(self, golden_tt, tribo_tt):
        """The ratios a_k of the explicit leaf paths fall to the estimate:
        a_k - a is the cancellation still to come, nonnegative and at most
        C lam^-k."""
        for tt, X in _leaf_cases(golden_tt, tribo_tt):
            value = lamination_length_ratio(tt, X).value
            for k, a_k in enumerate(oracles.lamination_sequence(tt, X, 8), 1):
                assert -1e-12 <= a_k - value <= 20 * tt.lam ** -k

    def test_closed_form_near_deep_ratio(self):
        """On the 8 maps at seeded targets of every cell at their rank, with
        jittered lengths, the estimate lies within C lam^-60 of a_60 read
        off the level-60 tiles, up to the rounding of a_60."""
        rng = random.Random(7)
        for pair in SEARCH_MAPS.values():
            for tt in map(pf_metric, pair()):
                for cell in CELLS:
                    X = _cell_point(cell, tt.point.rank, rng)
                    lengths = [rng.uniform(0.5, 1.5) for _ in X.graph.lengths]
                    X = X.with_lengths([l / math.fsum(lengths) for l in lengths])
                    a = lamination_length_ratio(tt, X).value
                    assert abs(oracles.lamination_ratio(tt, X, 60) - a) <= (
                        20 * tt.lam ** -60 + 1e-12 * a)

    def test_estimators_do_not_expand_leaves(self, golden_tt, golden_inv_tt, monkeypatch):
        def expand(*args):
            raise AssertionError("leaf_path called")

        monkeypatch.setattr(TrainTrackMap, "leaf_path", expand)
        assert lamination_length_ratio(golden_tt, rose(2, [1 / 3, 2 / 3])).converged
        graph, _ = lamination_whitehead_graph(golden_tt, rose(2))
        assert len(graph.edges) >= 3
        assert no_cut_vertex_search(golden_tt, golden_inv_tt, rose(2)).moves == []


# a target where marking junk persists: a_1, a_2 and a_3 all differ
JUNK_TARGET = (2, 4, 3)  # random_point(rank, seed, n_moves)


class TestLeafMemory:
    @pytest.mark.parametrize("images, level", [({1: (1, 1, 1, 2), 2: (1,)}, 6),
                                               ({1: (1, 1, 2), 2: (1,)}, 6)],
                             ids=["lambda-3.30", "silver"])
    def test_default_k_cap_stays_small(self, images, level):
        tt = pf_metric(GraphSelfMap(rose(2), {0: 0}, images))
        X = random_point(*JUNK_TARGET)
        tracemalloc.start()
        try:
            est = lamination_length_ratio(tt, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.k_used == level
        assert peak < 2_000_000
        a_8 = oracles.lamination_sequence(tt, X, 8)[-1]
        assert -1e-12 <= a_8 - est.value <= 20 * tt.lam ** -8

    def test_golden_junk_target_holds_windows_only(self, golden_tt, monkeypatch):
        tightened, held = [], []

        def recording_tighten(graph, path):
            path = tuple(path)
            tightened.append(len(path))
            return tighten_path(graph, path)

        init = traintrack.LeafTile.__init__

        def recording_init(self, n, head, tail, *rest):
            held.append((n, max(len(head), len(tail))))
            init(self, n, head, tail, *rest)

        monkeypatch.setattr(graphs, "tighten_path", recording_tighten)
        monkeypatch.setattr(traintrack.LeafTile, "__init__", recording_init)
        est = lamination_length_ratio(pf_metric(golden_tt.selfmap), random_point(*JUNK_TARGET))
        assert est.converged and est.k_used == 9  # the end state repeats at level 9
        assert max(n for n, _ in held) > 4 * traintrack.LEAF_WINDOW
        assert max(w for _, w in held) <= 2 * traintrack.LEAF_WINDOW
        assert max(tightened, default=0) <= 2 * traintrack.LEAF_WINDOW


class TestLamination:
    def test_k_cap_zero_rejected(self, golden_tt):
        with pytest.raises(ValueError, match="k_cap must be >= 1"):
            lamination_length_ratio(golden_tt, rose(2), k_cap=0)

    def test_rank_mismatch_names_both_ranks(self, golden_tt):
        with pytest.raises(ValueError, match=r"^rank mismatch: 3 vs 2$"):
            lamination_length_ratio(golden_tt, rose(3))

    def test_tile_frequencies_golden(self, golden_tt):
        r = golden_tt.frequencies
        assert r[0] == pytest.approx(GOLDEN / (1 + GOLDEN), abs=1e-9)
        assert r[1] == pytest.approx(1 / (1 + GOLDEN), abs=1e-9)

    def test_exact_one_at_base(self, golden_tt, tribo_tt):
        for tt in (golden_tt, tribo_tt):
            est = lamination_length_ratio(tt, tt.point)
            assert est.value == 1.0 and est.k_used == 0

    def test_edge_counts_exact_beyond_int64(self):
        """At tt.point no join cancels, so the edge counts of level k are the
        rows of A^k, here in Python ints for silver at k = 60 (about 1e23)."""
        tt = pf_metric(silver_selfmap())
        A = tt.matrix
        power = [[int(i == j) for j in range(len(A))] for i in range(len(A))]
        for _ in range(60):
            power = [[sum(row[l] * A[l][j] for l in range(len(A))) for j in range(len(A))]
                     for row in power]
        level = next(itertools.islice(tt.realized_leaves(tt.point), 60, None))
        assert [list(tile.counts[:len(A)]) for tile in level] == power
        assert max(map(max, power)) > 2 ** 64

    def test_golden_vs_uneven_rose(self, golden_tt):
        est = lamination_length_ratio(golden_tt, rose(2, [1 / 3, 2 / 3]))
        rx, ry = est.frequencies
        lx, ly = golden_tt.graph.lengths
        predicted = (rx / 3 + 2 * ry / 3) / (rx * lx + ry * ly)
        assert est.converged
        assert est.value == pytest.approx(predicted, abs=1e-9)

    def test_one_walk_per_marking(self, monkeypatch):
        """The base's own marking is never walked, and each target marking
        once per map, whatever its lengths and however often it is read."""
        targets = [random_point(*JUNK_TARGET)] + [random_point(2, s, n_moves=3) for s in range(4)]
        fresh = [lamination_length_ratio(pf_metric(golden_selfmaps()[0]), X).value
                 for X in targets]
        walked = []
        realized_leaves = TrainTrackMap.realized_leaves

        def counting(tt, point):
            walked.append(point.marking)
            return realized_leaves(tt, point)

        monkeypatch.setattr(TrainTrackMap, "realized_leaves", counting)
        tt = pf_metric(golden_selfmaps()[0])
        for X in targets:
            assert lamination_length_ratio(tt, X).value == fresh[targets.index(X)]
            lamination_length_ratio(tt, X.with_lengths([0.25, 0.75]))
            lamination_whitehead_graph(tt, X)
        assert lamination_length_ratio(tt, tt.point).value == 1.0
        assert walked == [X.marking for X in targets]

    def test_difference_decay(self, golden_tt):
        """a_k - a, the cancellation still to come, is nonnegative and
        falls with k."""
        theta = point_from_dict(THETA_DICT)
        a = lamination_length_ratio(golden_tt, theta).value
        gaps = [a_k - a for a_k in oracles.lamination_sequence(golden_tt, theta, 12)]
        assert all(g >= -1e-12 for g in gaps)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_lipschitz_bound_both_ways(self):
        """log(l_X / l_B) <= d(B, X) for every class, so a = a(X) <= exp d(B, X)
        and 1/a <= exp d(X, B), with B the base: 240 estimates on golden,
        plastic and rank-4, both directions, at 40 seeded points each."""
        for pair in (golden_selfmaps, tribo_selfmaps, rank4_selfmaps):
            for tt in map(pf_metric, pair()):
                B = tt.point
                for seed in range(1, 41):
                    X = random_point(B.rank, seed, 3)
                    a = lamination_length_ratio(tt, X).value
                    assert a <= math.exp(distance(B, X).value) * (1 + 1e-12)
                    assert 1 / a <= math.exp(distance(X, B).value) * (1 + 1e-12)

    def test_no_repeat_by_the_cap_is_an_error(self, golden_tt):
        X = random_point(*JUNK_TARGET)
        with pytest.raises(NotTrainTrackError, match=r"lambda 1.61803399 .* by level 5$"):
            lamination_length_ratio(pf_metric(golden_tt.selfmap), X, k_cap=5)
        tt = pf_metric(golden_tt.selfmap)
        assert lamination_length_ratio(tt, X).k_used == 9
        with pytest.raises(NotTrainTrackError, match="by level 8$"):
            lamination_length_ratio(tt, X, k_cap=8)


# (forward, backward) self-maps of the cut-vertex search checks: golden,
# silver, plastic (tribo) and rank-4
SEARCH_MAPS = {
    "golden": golden_selfmaps,
    "silver": lambda: (silver_selfmap(),
                       GraphSelfMap(rose(2), {0: 0}, {1: (2,), 2: (-2, -2, 1)})),
    "plastic": tribo_selfmaps,
    "rank4": rank4_selfmaps,
}


# (sum, max) of the repeat levels of the leaf ends at random_point(rank, s,
# n_moves=4) for s = 1..20, and the leaf windows widened on the way, per
# map of SEARCH_MAPS, forward then backward, at LEAF_WINDOW 8
WALK_DEPTHS = {
    "golden": ((163, 10, 0), (167, 10, 0)),
    "silver": ((119, 7, 0), (120, 8, 0)),
    "plastic": ((299, 17, 0), (201, 13, 2)),
    "rank4": ((461, 26, 0), (243, 15, 4)),
}


@pytest.mark.parametrize("name", SEARCH_MAPS)
def test_walk_depth_stays_bounded(name, caplog):
    """The leaf walks of the benchmark maps repeat no deeper, and widen no
    more windows, than WALK_DEPTHS, counted with no timing. Each walk logs
    one DEBUG line with its repeat level, preperiod K, period P, window and
    widenings."""
    caplog.set_level(logging.DEBUG, logger="outerspacekit.traintrack")
    for selfmap, (total, deepest, widened) in zip(SEARCH_MAPS[name](), WALK_DEPTHS[name]):
        tt = pf_metric(selfmap)
        caplog.clear()
        levels = [tt.leaf_end(random_point(tt.point.rank, s, n_moves=4)).level
                  for s in range(1, 21)]
        assert sum(levels) <= total and max(levels) <= deepest
        messages = [r.getMessage() for r in caplog.records]
        widenings = sum("leaf window widened" in text for text in messages)
        assert widenings <= widened
        walks = [r.args for r in caplog.records if r.getMessage().startswith("leaf ends repeat")]
        assert [k for k, *_ in walks] == levels
        assert all(k - K == P for k, K, P, *_ in walks)
        assert sum(w for *_, w in walks) == widenings


class TestCutVertexSearch:
    def test_golden_standard_rose_is_terminal(self, golden_tt, golden_inv_tt):
        res = no_cut_vertex_search(golden_tt, golden_inv_tt, rose(2))
        assert res.moves == []
        assert len(res.combined_graph.edges) == 6  # K4
        rep = cut_analysis(res.combined_graph)
        assert rep.connected and not rep.cut_vertices and not rep.isolated
        assert res.axis_distance <= 1e-9  # F lies on the axis here

    def test_tribo_translated_start_moves(self, tribo_tt, tribo_inv_tt):
        start = rose(3).act(aut(3, "a", "bc", "c"))
        res = no_cut_vertex_search(tribo_tt, tribo_inv_tt, start)
        assert len(res.moves) >= 1
        assert all(b < a for a, b in zip(res.plus_trace, res.plus_trace[1:]))
        assert all(b < a for a, b in zip(res.minus_trace, res.minus_trace[1:]))
        rep = cut_analysis(res.combined_graph)
        assert rep.connected and not rep.cut_vertices and not rep.isolated

    def test_rank4_seed42_start_succeeds(self):
        # with exact lengths the one cut-vertex move lowers both: a plateau
        # of the old convergence test had read Lambda- at the start as 2.269
        # and Lambda+ after the move as 1.429
        fwd, bwd = (pf_metric(f) for f in rank4_selfmaps())
        start = random_point(4, 2117954675, n_moves=3)
        res = no_cut_vertex_search(fwd, bwd, start)
        assert [str(m) for m in res.moves] == ["({BCabd}, d)"]
        assert [round(v, 4) for v in res.plus_trace] == [1.3129, 1.1785]
        assert [round(v, 4) for v in res.minus_trace] == [2.1331, 1.6813]
        rep = cut_analysis(res.combined_graph)
        assert rep.connected and not rep.cut_vertices and not rep.isolated

    def test_whitehead_graph_axis_invariance(self, golden_tt, golden_inv_tt):
        phi = golden_tt.automorphism()
        res = no_cut_vertex_search(golden_tt, golden_inv_tt, rose(2))
        F = res.point

        def combined_at(X):
            gF, _ = lamination_whitehead_graph(golden_tt, X)
            gB, _ = lamination_whitehead_graph(golden_inv_tt, X)
            return gF.union(gB)

        g0 = combined_at(F)
        g_fwd = combined_at(F.act(phi))
        g_bwd = combined_at(F.act(phi.inverse()))
        assert g0.edges == g_fwd.edges == g_bwd.edges

    def test_proximity_builds_no_orbit_point(self, golden_tt, golden_inv_tt, monkeypatch):
        real = graphs.MarkedMetricGraph.act
        calls = []
        monkeypatch.setattr(graphs.MarkedMetricGraph, "act",
                            lambda self, phi: calls.append(phi) or real(self, phi))
        res = no_cut_vertex_search(golden_tt, golden_inv_tt, rose(2))
        assert res.moves == []  # no move acts, so any call would be the proximity step's
        assert calls == []  # the step maps of both axes are read at their bases

    @pytest.mark.parametrize("name", SEARCH_MAPS)
    def test_axis_distance_matches_orbit_reference(self, name):
        """axis_distance is the oracle's min over the orbit of the start,
        float for float, from seeded starts of 1-4 moves, and the min of
        the sums read exactly by the axis readers, which the search bounds
        by capped reads."""
        fwd, bwd = (pf_metric(f) for f in SEARCH_MAPS[name]())
        rank = fwd.point.rank
        nonzero = 0
        for seed in range(1, 13):
            for n_moves in range(1, 5):
                start = random_point(rank, seed, n_moves)
                try:
                    res = no_cut_vertex_search(fwd, bwd, start)
                except NotTrainTrackError:
                    continue
                assert res.axis_distance == oracles.search_axis_distance(fwd, start, res.point)
                assert res.axis_distance == oracles.search_axis_distance_exhaustive(
                    fwd, start, res.point)
                nonzero += res.axis_distance != 0
        assert nonzero

    def test_axis_distance_nearest_orbit_point_off_level_zero(self):
        # from this start the search ends nearest start . phi^-1, so the
        # two walks must read their levels with opposite signs
        fwd, bwd = (pf_metric(f) for f in rank4_selfmaps())
        start = random_point(4, 20, 1)
        res = no_cut_vertex_search(fwd, bwd, start)
        expected = oracles.search_axis_distance(fwd, start, res.point)
        assert expected < distance(res.point, start).value + distance(start, res.point).value
        assert res.axis_distance == expected

    def test_rank_mismatch_named_before_any_estimate(self, golden_tt, golden_inv_tt,
                                                     monkeypatch):
        def estimate(*args, **kwargs):
            raise AssertionError("estimate made")

        monkeypatch.setattr(traintrack, "lamination_length_ratio", estimate)
        with pytest.raises(ValueError, match=r"^rank mismatch: 3 vs 2$"):
            no_cut_vertex_search(golden_tt, golden_inv_tt, rose(3))

    def test_requires_rose(self, golden_tt, golden_inv_tt, theta_point):
        with pytest.raises(ValueError):
            no_cut_vertex_search(golden_tt, golden_inv_tt, theta_point)

    def test_requires_inverse_pair(self, golden_tt):
        with pytest.raises(ValueError):
            no_cut_vertex_search(golden_tt, golden_tt, rose(2))


class TestSelfMapFile:
    def test_round_trip(self):
        data = {
            "graph": {
                "rank": 2,
                "vertices": ["v"],
                "edges": [
                    {"id": "e1", "from": "v", "to": "v", "length": 0.5},
                    {"id": "e2", "from": "v", "to": "v", "length": 0.5},
                ],
                "marking": {"x": ["e1"], "y": ["e2"]},
                "basepoint": "v",
            },
            "edge_images": {"e1": ["e1", "e2"], "e2": ["e1"]},
            "vertex_images": {"v": "v"},
        }
        sm = selfmap_from_dict(data)
        tt = pf_metric(sm)
        assert tt.lam == pytest.approx(GOLDEN, abs=1e-9)

    def test_gates_direction_map_stabilizes(self, golden_tt, tribo_tt):
        for tt in (golden_tt, tribo_tt):
            st = gates(tt.selfmap)
            # gate relation is an equivalence partitioning the directions
            all_dirs = sorted(h for g in st.gates for h in g)
            m = tt.graph.n_edges
            assert all_dirs == sorted(
                list(range(1, m + 1)) + [-h for h in range(1, m + 1)]
            )


class TestAxisDistanceGolden:
    def test_translation_length(self, golden_tt):
        phi = golden_tt.automorphism()
        base = golden_tt.point
        res = distance(base, base.act(phi))
        assert res.value == pytest.approx(math.log(GOLDEN), abs=1e-9)

    def test_inverse_pair_verified(self, golden_tt, golden_inv_tt):
        assert verify_inverse(golden_tt.automorphism(), golden_inv_tt.automorphism())
