import random
from collections import Counter

import pytest

import outerspacekit.whitehead as whitehead_mod
from outerspacekit.whitehead import (
    WhiteheadGraph,
    _least_min_cut_side,
    _letter_index,
    _min_cut,
    cut_analysis,
    is_primitive,
    moves_from_cut_vertex,
    whitehead_graph,
    whitehead_minimize,
)
from outerspacekit.words import (
    CyclicWord,
    WhiteheadMove,
    random_whitehead_move,
    signed_letters,
)

from .oracles import (
    apply_cyclic,
    bfs_primitive,
    exhaustive_minimize,
    least_min_cut_side,
    min_cut,
    scan_cut_analysis,
)


def C(text):
    return CyclicWord.parse(text)


def edges_of(g):
    return {frozenset(e) for e, _ in g.edges}


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

    def test_word_not_cyclically_reduced_rejected(self):
        # the turn a^-1 a of "aA" is the self-loop (a, a)
        with pytest.raises(ValueError, match="self-loop in Whitehead graph"):
            whitehead_mod._turn_graph([(1, -1)], 1)
        with pytest.raises(ValueError, match="self-loop in Whitehead graph"):
            WhiteheadGraph.from_counter(2, Counter({(2, 2): 1}))

    def test_rank_below_a_letter_rejected(self):
        with pytest.raises(ValueError, match=r"letter 3 out of rank range \(rank 2\)") as excinfo:
            whitehead_graph([C("abc")], 2)
        assert type(excinfo.value) is ValueError

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_rejected(self, rank):
        with pytest.raises(ValueError, match=f"rank must be at least 1, got {rank}") as excinfo:
            whitehead_graph([C("a")], rank)
        assert type(excinfo.value) is ValueError

    def test_no_words_no_rank_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            whitehead_graph([])
        assert type(excinfo.value) is ValueError

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
        assert rep.connected and not rep.cut_vertices

    def test_disconnected(self):
        rep = cut_analysis(whitehead_graph([C("ab")], 2))
        assert not rep.connected and not rep.cut_vertices

    def test_single_dfs_matches_removal_scan(self):
        # random multigraphs: parallel edges, isolated vertices, several
        # components, and trees and cycles with and without cut vertices
        rng = random.Random(7)
        seen = Counter()
        for i in range(10_000):
            rank = 2 + i % 7
            letters = list(signed_letters(rank))
            counter = Counter()
            for _ in range(rng.choice([0, 1, 2, 3, rank, 2 * rank, 3 * rank])):
                u, v = rng.sample(letters, 2)
                counter[frozenset((u, v))] += rng.choice([1, 1, 1, 2, 3])
            g = WhiteheadGraph.from_counter(rank, counter)
            got = cut_analysis(g)
            assert got == scan_cut_analysis(g), g
            seen["parallel"] += any(m > 1 for _, m in g.edges)
            seen["isolated"] += bool(got.isolated)
            seen["disconnected"] += not got.connected
            seen["cut"] += bool(got.cut_vertices)
            seen["connected, no cut"] += got.connected and not got.cut_vertices and bool(g.edges)
        assert min(seen.values()) > 500, seen

    def test_path_cut_vertex(self):
        g = WhiteheadGraph.from_counter(
            2, Counter({frozenset({1, 2}): 1, frozenset({2, -1}): 1})
        )
        rep = cut_analysis(g)
        assert rep.connected
        assert rep.cut_vertices == (2,)
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
            for move in moves_from_cut_vertex(rep):
                image = apply_cyclic(move.automorphism(2), w)
                assert len(image) < len(w), (w, move)
                checked += 1
        assert checked > 20

    def test_multi_word_set(self):
        trace = whitehead_minimize([C("ab"), C("a")], 2)
        assert trace.terminal_state == "basis-reached"
        assert {w.letters for w in trace.final_words} <= {(1,), (2,)}

    def test_repeated_generator_is_no_basis(self):
        trace = whitehead_minimize([C("ab"), C("ab")], 2)
        assert [w.letters for w in trace.final_words] == [(2,), (2,)]
        assert trace.terminal_state == "disconnected-min"
        trace = whitehead_minimize([C("a"), C("A")])
        assert trace.terminal_state == "no-cut-vertex"

    @pytest.mark.parametrize("rank", [2, 0])
    def test_rank_below_a_letter_rejected(self, rank):
        with pytest.raises(ValueError) as excinfo:
            whitehead_minimize([C("abc")], rank)
        assert type(excinfo.value) is ValueError

    def test_least_side_from_residual_matches_max_flow_scan(self):
        # symmetric capacity matrices, sparse enough to have many minimum
        # cuts, on 4-16 vertices; the library reads them as neighbour maps
        rng = random.Random(13)
        checked = 0
        for i in range(400):
            n = 2 * (2 + i % 7)
            cap = [[0] * n for _ in range(n)]
            density = rng.choice([0.2, 0.4, 0.7])
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < density:
                        cap[u][v] = cap[v][u] = rng.choice([1, 1, 2, 3])
            for a in range(1, n // 2 + 1):
                i_a = _letter_index(a)
                cut, res = _min_cut(_neighbours(cap), i_a, i_a + 1)
                assert cut == min_cut(cap, i_a, i_a + 1)
                assert _least_min_cut_side(res, a) == least_min_cut_side(cap, a, cut), (cap, a)
                checked += 1
        assert checked == 1997


def _neighbours(cap):
    """The neighbour maps of a symmetric capacity matrix, as a
    WhiteheadGraph holds them."""
    return tuple({j: m for j, m in enumerate(row) if m} for row in cap)


def _random_word_set(rng, rank):
    """1-3 nonempty cyclic words: single letters, short random words and
    images of short words under a few random Whitehead moves."""
    letters = list(signed_letters(rank))
    words = []
    for _ in range(rng.randint(1, 3)):
        w = CyclicWord.make([rng.choice(letters) for _ in range(rng.choice([1, 1, 3, 6, 9]))])
        for _ in range(rng.randint(0, 4)):
            w = apply_cyclic(random_whitehead_move(rank, rng).automorphism(rank), w)
        words.append(w or CyclicWord.make([rng.choice(letters)]))
    return words


class TestExhaustiveOracle:
    @pytest.mark.parametrize("rank,n_sets", [(2, 60), (3, 40), (4, 12), (5, 4), (6, 2)])
    def test_same_trace_as_exhaustive_scan(self, rank, n_sets):
        rng = random.Random(100 + rank)
        states = Counter()
        n_steps = n_with_letter = cut_steps = 0
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
            # the steps whose connected graph has a cut vertex, where the
            # best move need not be one read off a cut vertex
            for move, _, _ in want.steps:
                report = scan_cut_analysis(whitehead_graph(words, rank))
                cut_steps += report.connected and bool(report.cut_vertices)
                words = [apply_cyclic(move.automorphism(rank), w) for w in words]
        assert states["basis-reached"] > 0 and len(states) >= 2
        assert n_steps >= n_sets // 2 and n_with_letter > 0
        assert 0 < cut_steps < n_steps


def _counting(monkeypatch, name, record):
    """Replace whitehead.<name> by a wrapper that passes its result to record."""
    real = getattr(whitehead_mod, name)

    def wrapper(*args):
        out = real(*args)
        record(out)
        return out

    monkeypatch.setattr(whitehead_mod, name, wrapper)


class TestStepWork:
    """Deterministic counts of the work done per minimization step."""

    def _word_sets(self):
        rng = random.Random(21)
        for i in range(40):
            rank = 2 + i % 4
            yield _random_word_set(rng, rank), rank

    def test_rank_max_flows_one_rewrite_per_step(self, monkeypatch):
        flows, per_step, rewrites = [], [], []
        _counting(monkeypatch, "_min_cut", flows.append)
        _counting(monkeypatch, "_apply_move", rewrites.append)
        real_move = whitehead_mod._min_cut_move

        def min_cut_move(cap):
            before = len(flows)
            out = real_move(cap)
            per_step.append(len(flows) - before)
            return out

        monkeypatch.setattr(whitehead_mod, "_min_cut_move", min_cut_move)
        n_steps = 0
        for words, rank in self._word_sets():
            del rewrites[:]
            start = len(per_step)
            trace = whitehead_minimize(words, rank)
            assert len(rewrites) == len(trace.steps)
            assert all(k <= rank for k in per_step[start:])
            n_steps += len(trace.steps)
        assert per_step and n_steps > 40

    def test_no_max_flow_on_single_letters(self, monkeypatch):
        # no move shortens one-letter words, so such a step, which can only be
        # the last, seeks no minimum cut
        events = []
        _counting(monkeypatch, "_min_cut", lambda out: events.append("flow"))
        _counting(monkeypatch, "_apply_move", lambda out: events.append("rewrite"))
        letters = [([C("a")], 2), ([C("a"), C("A")], None), ([C("b"), C("b")], 2),
                   ([C("a"), C("c"), C("h")], 8), ([C(x) for x in "abcdefg"], 7)]
        states, n_letter_steps = Counter(), 0
        for words, rank in [*letters, *self._word_sets()]:
            del events[:]
            trace = whitehead_minimize(words, rank)
            if all(len(w) == 1 for w in trace.final_words):
                last_step = events[::-1].index("rewrite") if trace.steps else len(events)
                assert last_step == 0, (words, events)
                states[trace.terminal_state] += 1
                n_letter_steps += 1
        assert n_letter_steps > 20 and len(states) == 3, states

    def test_no_max_flow_for_a_generator_that_cannot_win(self, monkeypatch):
        # a generator's decrease is its degree less a cut value, so one whose
        # degree is at most the best decrease found so far gets no max-flow
        flows, per_step = [], []
        _counting(monkeypatch, "_min_cut", flows.append)
        real_move = whitehead_mod._min_cut_move

        def min_cut_move(nbrs):
            before = len(flows)
            out = real_move(nbrs)
            per_step.append((nbrs, len(flows) - before))
            return out

        monkeypatch.setattr(whitehead_mod, "_min_cut_move", min_cut_move)
        skipped = Counter()
        for words, rank in self._word_sets():
            del per_step[:]
            whitehead_minimize(words, rank)
            for nbrs, n_flows in per_step:
                cap = [[row.get(j, 0) for j in range(2 * rank)] for row in nbrs]
                best = want = 0
                for i in range(0, 2 * rank, 2):
                    degree = sum(cap[i])
                    if degree > best:
                        want += 1
                        best = max(best, degree - min_cut(cap, i, i + 1))
                    else:
                        skipped["unused" if degree == 0 else "beaten"] += 1
                assert n_flows == want, (words, nbrs)
        assert skipped["unused"] > 0 and skipped["beaten"] > 0, skipped

    def test_no_automorphism_objects(self, monkeypatch):
        moves = []
        _counting(monkeypatch, "_min_cut_move", moves.append)
        want = [(whitehead_minimize(words, rank), words, rank) for words, rank in self._word_sets()]

        def no_automorphism(self, rank):
            raise AssertionError("WhiteheadMove.automorphism called")

        monkeypatch.setattr(WhiteheadMove, "automorphism", no_automorphism)
        for trace, words, rank in want:
            got = whitehead_minimize(words, rank)
            assert (got.steps, got.final_words, got.terminal_state) == (
                trace.steps, trace.final_words, trace.terminal_state)
            if len(words) == 1:
                assert is_primitive(words[0], rank) is (trace.terminal_state == "basis-reached")
        assert any(moves)

    def test_one_cut_analysis_per_call(self, monkeypatch):
        # the terminal state is read off one report, of the final graph
        reports = []
        _counting(monkeypatch, "cut_analysis", reports.append)
        states = Counter()
        for words, rank in self._word_sets():
            del reports[:]
            trace = whitehead_minimize(words, rank)
            assert len(reports) == 1
            states[trace.terminal_state] += 1
        assert len(states) == 3, states

    def test_cut_vertex_moves_read_off_the_report(self, monkeypatch):
        # given a report, the moves come from its splits alone: the graph is
        # neither analysed nor walked, so it may be left out
        cases = []
        for words, rank in self._word_sets():
            g = whitehead_graph(words, rank)
            rep = cut_analysis(g)
            if rep.cut_vertices:
                cases.append((rep, moves_from_cut_vertex(cut_analysis(g))))

        def no_analysis(graph):
            raise AssertionError("cut_analysis called")

        monkeypatch.setattr(whitehead_mod, "cut_analysis", no_analysis)
        assert len(cases) > 10
        for rep, want in cases:
            assert moves_from_cut_vertex(rep) == want


class TestPrimitive:
    def test_generator(self):
        assert is_primitive(C("a"), 2)

    def test_abab(self):
        assert not is_primitive(C("abab"), 2)

    def test_commutator_certificate(self):
        # connected cut-vertex-free graph certifies non-basis
        g = whitehead_graph([C("abAB")], 2)
        rep = cut_analysis(g)
        assert rep.connected and not rep.cut_vertices
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

    @pytest.mark.parametrize("rank", [2, 0])
    def test_rank_below_a_letter_rejected(self, rank):
        with pytest.raises(ValueError, match="out of rank range|at least 1") as excinfo:
            is_primitive(CyclicWord.make((3,)), rank)
        assert type(excinfo.value) is ValueError
