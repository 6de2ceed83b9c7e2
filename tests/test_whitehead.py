import random
from collections import Counter

import pytest

from outerspacekit.whitehead import (
    WhiteheadGraph,
    cut_analysis,
    is_primitive,
    moves_from_cut_vertex,
    whitehead_graph,
    whitehead_minimize,
)
from outerspacekit.words import CyclicWord, random_whitehead_move, reduce_word, signed_letters

from .oracles import bfs_primitive, exhaustive_minimize


def C(text):
    return CyclicWord.parse(text)


def edges_of(g):
    return {frozenset(e) for e in g.simple_edges()}


class TestWhiteheadGraph:
    def test_two_letter_word(self):
        g = whitehead_graph([C("ab")], 2)
        assert edges_of(g) == {frozenset({-1, 2}), frozenset({-2, 1})}

    def test_commutator_four_cycle(self):
        g = whitehead_graph([C("abAB")], 2)
        assert edges_of(g) == {
            frozenset({1, 2}),
            frozenset({2, -1}),
            frozenset({-1, -2}),
            frozenset({-2, 1}),
        }

    def test_single_letter(self):
        g = whitehead_graph([C("a")], 2)
        assert edges_of(g) == {frozenset({-1, 1})}

    def test_superposition_multiplicity(self):
        g = whitehead_graph([C("a"), C("a")], 2)
        assert dict((frozenset(e), m) for e, m in g.edges) == {frozenset({-1, 1}): 2}

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            whitehead_graph([CyclicWord(())], 2)

    def test_inversion_invariance(self):
        rng = random.Random(3)
        for _ in range(500):
            letters = []
            for _ in range(rng.randint(1, 10)):
                cand = rng.choice([1, -1, 2, -2, 3, -3])
                while letters and cand == -letters[-1]:
                    cand = rng.choice([1, -1, 2, -2, 3, -3])
                letters.append(cand)
            w = CyclicWord.make(letters)
            winv = CyclicWord.make([-l for l in reversed(letters)])
            assert whitehead_graph([w], 3).edges == whitehead_graph([winv], 3).edges


class TestCutAnalysis:
    def test_cycle_no_cut_vertex(self):
        rep = cut_analysis(whitehead_graph([C("abAB")], 2))
        assert rep.connected and rep.cut_vertex is None

    def test_disconnected(self):
        rep = cut_analysis(whitehead_graph([C("ab")], 2))
        assert not rep.connected and rep.cut_vertex is None

    def test_path_cut_vertex(self):
        g = WhiteheadGraph.from_counter(
            2, Counter({frozenset({1, 2}): 1, frozenset({2, -1}): 1})
        )
        rep = cut_analysis(g)
        assert rep.connected
        assert rep.cut_vertex == 2
        assert rep.isolated == (-2,)


class TestMinimize:
    def test_commutator_already_minimal(self):
        trace = whitehead_minimize([C("abAB")], 2)
        assert trace.steps == []
        assert sum(len(w) for w in trace.final_words) == 4
        assert trace.terminal_state == "no-cut-vertex"

    def test_basis_element_one_step(self):
        trace = whitehead_minimize([C("ab")], 2)
        assert len(trace.steps) == 1
        assert trace.final_words == [C("b")]
        assert trace.terminal_state == "basis-reached"

    def test_square_disconnected_min(self):
        trace = whitehead_minimize([C("aa")], 2)
        assert trace.steps == []
        assert sum(len(w) for w in trace.final_words) == 2
        assert trace.terminal_state == "disconnected-min"

    def test_strictly_decreasing_lengths(self):
        rng = random.Random(11)
        for _ in range(60):
            letters = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(1, 9))]
            w = CyclicWord.make(letters)
            if not w:
                continue
            trace = whitehead_minimize([w], 3)
            for move, before, after in trace.steps:
                assert after < before

    def test_cut_vertex_move_decreases(self):
        # every move derived from a cut vertex of a connected graph shortens
        rng = random.Random(5)
        checked = 0
        for _ in range(300):
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, 10))]
            w = CyclicWord.make(letters)
            if not w:
                continue
            g = whitehead_graph([w], 2)
            rep = cut_analysis(g)
            if not (rep.connected and rep.cut_vertices):
                continue
            for move in moves_from_cut_vertex(g, rep):
                image = move.automorphism(2).apply_cyclic(w)
                assert len(image) < len(w), (w, move)
                checked += 1
        assert checked > 20

    def test_multi_word_set(self):
        trace = whitehead_minimize([C("ab"), C("a")], 2)
        assert trace.terminal_state == "basis-reached"
        assert {w.letters for w in trace.final_words} <= {(1,), (2,)}


def _random_word_set(rng, rank):
    """1-3 nonempty cyclic words: single letters, short random words and
    images of short words under a few random Whitehead moves."""
    letters = list(signed_letters(rank))
    words = []
    for _ in range(rng.randint(1, 3)):
        w = CyclicWord.make([rng.choice(letters) for _ in range(rng.choice([1, 1, 3, 6, 9]))])
        for _ in range(rng.randint(0, 4)):
            w = random_whitehead_move(rank, rng).automorphism(rank).apply_cyclic(w)
        words.append(w or CyclicWord.make([rng.choice(letters)]))
    return words


class TestExhaustiveOracle:
    @pytest.mark.parametrize("rank,n_sets", [(2, 60), (3, 40), (4, 12), (5, 4)])
    def test_same_trace_as_exhaustive_scan(self, rank, n_sets):
        rng = random.Random(100 + rank)
        states = Counter()
        n_steps = n_with_letter = 0
        for _ in range(n_sets):
            words = _random_word_set(rng, rank)
            n_with_letter += any(len(w) == 1 for w in words)
            got = whitehead_minimize(words, rank)
            want = exhaustive_minimize(words, rank)
            assert got.steps == want.steps, words
            assert got.final_words == want.final_words, words
            assert got.terminal_state == want.terminal_state, words
            states[got.terminal_state] += 1
            n_steps += len(got.steps)
        assert states["basis-reached"] > 0 and len(states) >= 2
        assert n_steps >= n_sets // 2 and n_with_letter > 0


class TestPrimitive:
    def test_generator(self):
        assert is_primitive(C("a"), 2)

    def test_abab(self):
        assert not is_primitive(C("abab"), 2)

    def test_commutator_certificate(self):
        # connected cut-vertex-free graph certifies non-basis
        g = whitehead_graph([C("abAB")], 2)
        rep = cut_analysis(g)
        assert rep.connected and rep.cut_vertex is None
        assert not is_primitive(C("abAB"), 2)

    def test_against_bfs_oracle_spot(self):
        rng = random.Random(2)
        for _ in range(40):
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]
            w = CyclicWord.make(letters)
            if not w:
                continue
            assert is_primitive(w, 2) == bfs_primitive(w, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_primitive(CyclicWord(()), 2)
