"""Whitehead graphs, cut-vertex analysis and length minimization.

The Whitehead graph of a set of cyclic words has the 2n signed letters as
vertices and one edge {u^-1, v} per cyclic two-letter subword uv, with
multiplicity. Connectivity and cut vertices drive Whitehead's reduction
algorithm: a basis element minimizes to a single letter, while a connected
cut-vertex-free graph certifies a non-basis element.

The best Whitehead move is found by minimum cuts rather than by trying all
2n * 4^(n-1) moves. For a move (A, a) put S = {a} u {x^-1 : x in A, x != a};
S contains a but not a^-1, and every such S comes from exactly one move.
Then (Lyndon-Schupp, Combinatorial Group Theory, Ch. I.4)

    sum |phi_(A,a)(w)| - sum |w| = cap(S) - deg(a),

where cap(S) is the total multiplicity of edges with exactly one end in S.
The largest decrease for a given a is deg(a) minus the minimum a / a^-1
cut, so a step costs O(n) max-flows on 2n vertices and is polynomial
(Roig-Ventura-Weil, "On the complexity of the Whitehead minimization
problem", IJAC 2007).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .words import (
    CyclicWord,
    WhiteheadMove,
    letter_key,
    signed_letters,
    word_key,
)


@dataclass(frozen=True)
class WhiteheadGraph:
    rank: int
    edges: tuple  # sorted ((u, v), multiplicity) pairs, u <= v by letter_key

    @staticmethod
    def from_counter(rank: int, counter: Counter) -> "WhiteheadGraph":
        items = sorted(
            ((tuple(sorted(e, key=letter_key)), m) for e, m in counter.items()),
            key=lambda it: word_key(it[0]),
        )
        return WhiteheadGraph(rank, tuple(items))

    def vertices(self):
        return sorted(signed_letters(self.rank), key=letter_key)

    def simple_edges(self):
        return [e for e, _ in self.edges]

    def used_vertices(self):
        used = set()
        for (u, v), _ in self.edges:
            used.add(u)
            used.add(v)
        return used

    def isolated_vertices(self):
        used = self.used_vertices()
        return [v for v in self.vertices() if v not in used]

    def degree(self, v) -> int:
        return sum(m for (a, b), m in self.edges if v in (a, b))

    def union(self, other: "WhiteheadGraph") -> "WhiteheadGraph":
        c = Counter(dict((frozenset(e), m) for e, m in self.edges))
        for e, m in other.edges:
            c[frozenset(e)] += m
        return WhiteheadGraph.from_counter(self.rank, c)

    def same_simple_graph(self, other: "WhiteheadGraph") -> bool:
        return self.rank == other.rank and set(self.simple_edges()) == set(
            other.simple_edges()
        )


def whitehead_graph(words, rank=None) -> WhiteheadGraph:
    """Superposition of the Whitehead graphs of the given cyclic words."""
    words = list(words)
    if rank is None:
        rank = max((w.max_index() for w in words), default=0)
    counter: Counter = Counter()
    for w in words:
        if not w:
            raise ValueError("empty cyclic word has no Whitehead graph")
        ls = w.letters
        n = len(ls)
        for i in range(n):
            u, v = ls[i], ls[(i + 1) % n]
            counter[frozenset((-u, v)) if -u != v else frozenset((v,))] += 1
    # -u == v cannot occur in a cyclically reduced word, keep guard simple
    for e in counter:
        if len(e) == 1:
            raise ValueError("self-loop in Whitehead graph: word not cyclically reduced")
    return WhiteheadGraph.from_counter(rank, counter)


def _components(vertices, adjacency):
    comps = []
    left = set(vertices)
    while left:
        start = min(left, key=letter_key)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adjacency.get(v, ()):
                if u in left and u not in comp:
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
        left -= comp
    return comps


@dataclass(frozen=True)
class CutReport:
    connected: bool  # over vertices that carry at least one edge
    cut_vertex: object  # least cut vertex, or None
    cut_vertices: tuple
    isolated: tuple  # signed letters with no incident edge
    components: tuple  # components over used vertices, as sorted tuples


def _adjacency(graph: WhiteheadGraph):
    adj = {}
    for (u, v), _ in graph.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def cut_analysis(graph: WhiteheadGraph) -> CutReport:
    """Connectivity (over used vertices) and cut vertices of a Whitehead graph."""
    adj = _adjacency(graph)
    used = sorted(adj, key=letter_key)
    comps = _components(used, adj)
    connected = len(comps) <= 1
    cuts = []
    if connected and len(used) > 2:
        for v in used:
            rest = [u for u in used if u != v]
            sub = {u: {w for w in adj[u] if w != v} for u in rest}
            if len(_components(rest, sub)) > 1:
                cuts.append(v)
    cuts.sort(key=letter_key)
    return CutReport(
        connected=connected,
        cut_vertex=cuts[0] if cuts else None,
        cut_vertices=tuple(cuts),
        isolated=tuple(graph.isolated_vertices()),
        components=tuple(tuple(sorted(c, key=letter_key)) for c in comps),
    )


def moves_from_cut_vertex(graph: WhiteheadGraph, report: CutReport = None):
    """Length-reducing move candidates derived from cut vertices.

    For a cut vertex a and a component W'' of the used graph minus a that
    does not contain a^-1, the word-level reducing move is
    (A, a) with A = (W'')^-1 union {a}: its length change equals
    -(number of edges joining a to W'') < 0 on a connected graph.
    """
    if report is None:
        report = cut_analysis(graph)
    adj = _adjacency(graph)
    moves = []
    for a in report.cut_vertices:
        rest = [u for u in adj if u != a]
        sub = {u: {w for w in adj[u] if w != a} for u in rest}
        for comp in _components(rest, sub):
            if -a in comp:
                continue
            moves.append(WhiteheadMove(frozenset(-x for x in comp) | {a}, a))
    return moves


@dataclass
class ReductionTrace:
    steps: list = field(default_factory=list)  # (WhiteheadMove, before, after)
    final_words: list = field(default_factory=list)
    terminal_state: str = ""  # no-cut-vertex | disconnected-min | basis-reached

    def total_lengths(self):
        return [b for (_, b, _) in self.steps] + (
            [self.steps[-1][2]] if self.steps else []
        )


def _total(words):
    return sum(len(w) for w in words)


def _apply_move(move: WhiteheadMove, words, rank):
    phi = move.automorphism(rank)
    return [phi.apply_cyclic(w) for w in words]


def _letter_index(x: int) -> int:
    """Position of a signed letter in letter_key order: 1, -1, 2, -2, ..."""
    return 2 * (abs(x) - 1) + (x < 0)


def _min_cut(cap, s: int, t: int) -> int:
    """Value of a minimum s-t cut: Edmonds-Karp max-flow on a capacity matrix."""
    n = len(cap)
    res = [row[:] for row in cap]
    flow = 0
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = [s]
        for u in queue:
            for v in range(n):
                if parent[v] < 0 and res[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
            if parent[t] >= 0:
                break
        if parent[t] < 0:
            return flow
        path = [t]
        while path[-1] != s:
            path.append(parent[path[-1]])
        arcs = list(zip(path[1:], path))
        push = min(res[u][v] for u, v in arcs)
        for u, v in arcs:
            res[u][v] -= push
            res[v][u] += push
        flow += push


def _min_cut_move(graph: WhiteheadGraph):
    """Most length-decreasing move (A, a) and its decrease, or None.

    Ties go to the least a in letter_key order and then to the least A as a
    letter_key-sorted tuple, as if every move were tried in that order.
    """
    rank = graph.rank
    cap = [[0] * (2 * rank) for _ in range(2 * rank)]
    for (u, v), m in graph.edges:
        cap[_letter_index(u)][_letter_index(v)] += m
        cap[_letter_index(v)][_letter_index(u)] += m
    best_a, best_cut, best_decrease = None, None, 0
    # a^-1 has the same degree and cut value as a and comes after it in
    # letter_key order, so only the generators can win
    for a in range(1, rank + 1):
        i = _letter_index(a)
        cut = _min_cut(cap, i, i + 1)
        if sum(cap[i]) - cut > best_decrease:
            best_a, best_cut, best_decrease = a, cut, sum(cap[i]) - cut
    if best_a is None:
        return None
    return WhiteheadMove(_least_min_cut_side(cap, best_a, best_cut), best_a), best_decrease


def _least_min_cut_side(cap, a: int, target: int) -> frozenset:
    """The least A (as a letter_key-sorted tuple) whose S has cut value target.

    Letters are decided greedily in letter_key order. Each check is one
    max-flow, with the decided vertices of S tied to a or a^-1 by edges of
    infinite capacity.
    """
    s, t = _letter_index(a), _letter_index(-a)
    inf = sum(map(sum, cap)) + 1
    forced = [row[:] for row in cap]

    def is_min_cut(keep=(), drop=()):
        trial = [row[:] for row in forced]
        for x in keep:
            trial[s][_letter_index(-x)] += inf
        for x in drop:
            trial[_letter_index(-x)][t] += inf
        return _min_cut(trial, s, t) == target

    letters = [x for x in sorted(signed_letters(len(cap) // 2), key=letter_key) if x != -a]
    A = {a}
    for k, x in enumerate(letters):
        if x == a:
            continue
        # past a, the letters taken so far are the least A if they suffice
        if letter_key(x) > letter_key(a) and is_min_cut(drop=letters[k:]):
            break
        if is_min_cut(keep=[x]):
            A.add(x)
            forced[s][_letter_index(-x)] += inf
        else:
            forced[_letter_index(-x)][t] += inf
    return frozenset(A)


def whitehead_minimize(words, rank=None) -> ReductionTrace:
    """Repeatedly apply the most length-decreasing Whitehead move until none
    decreases the total length of the cyclic words.

    When the Whitehead graph (over its used vertices) is connected and has a
    cut vertex, the moves tried are those of moves_from_cut_vertex. Otherwise
    the best move over all (A, a) comes from minimum cuts (see the module
    docstring): O(n) max-flows on 2n vertices per step, so each step is
    polynomial in the rank and the word lengths. Tie-break in both cases:
    largest decrease, then least a in letter_key order (1 < -1 < 2 < ...),
    then least A as a letter_key-sorted tuple, so the result equals trying
    every move in that order.
    """
    words = [w if isinstance(w, CyclicWord) else CyclicWord.make(w) for w in words]
    if any(not w for w in words):
        raise ValueError("whitehead_minimize requires nonempty words")
    if rank is None:
        rank = max(w.max_index() for w in words)
    trace = ReductionTrace()
    while True:
        graph = whitehead_graph(words, rank)
        report = cut_analysis(graph)
        before = _total(words)
        chosen = None
        if report.connected and report.cut_vertices:
            best = None
            for move in moves_from_cut_vertex(graph, report):
                new = _apply_move(move, words, rank)
                after = _total(new)
                key = (after, move.sort_key())
                if best is None or key < best[0]:
                    best = (key, move, new)
            after = best[0][0]
            if after >= before:
                raise AssertionError(
                    f"cut-vertex move {best[1]} failed to decrease length "
                    f"({before} -> {after})"
                )
            chosen = (best[1], best[2], after)
        else:
            found = _min_cut_move(graph)
            if found is not None:
                move, decrease = found
                new = _apply_move(move, words, rank)
                after = _total(new)
                if after != before - decrease:
                    raise AssertionError(
                        f"min-cut move {move} predicted length {before - decrease}, "
                        f"got {after}"
                    )
                chosen = (move, new, after)
        if chosen is None:
            break
        move, words, after = chosen
        trace.steps.append((move, before, after))
    trace.final_words = words
    if all(len(w) == 1 for w in words):
        trace.terminal_state = "basis-reached"
    else:
        graph = whitehead_graph(words, rank)
        report = cut_analysis(graph)
        if report.isolated or not report.connected:
            trace.terminal_state = "disconnected-min"
        else:
            trace.terminal_state = "no-cut-vertex"
    return trace


def is_primitive(w: CyclicWord, rank=None) -> bool:
    """True iff w is a basis element (minimizes to a single letter)."""
    if not w:
        raise ValueError("empty word")
    trace = whitehead_minimize([w], rank)
    return trace.terminal_state == "basis-reached"
