"""Whitehead graphs, cut-vertex analysis and length minimization.

The Whitehead graph of a set of cyclic words has the 2n signed letters as
vertices and one edge {u^-1, v} per cyclic two-letter subword uv, with
multiplicity. Connectivity and cut vertices drive Whitehead's reduction
algorithm: a basis element minimizes to a single letter, while a connected
cut-vertex-free graph certifies a non-basis element. Cut vertices are the
articulation points of one iterative depth-first search with lowpoints
(Hopcroft-Tarjan, CACM 1973).

Every step of the minimization is read off the Whitehead graph. For a move
(A, a) put S = {a} u {x^-1 : x in A, x != a}; S contains a but not a^-1,
and every such S comes from exactly one move. Then (Lyndon-Schupp,
Combinatorial Group Theory, Ch. I.4)

    sum |phi_(A,a)(w)| - sum |w| = cap(S) - deg(a),

where cap(S) is the total multiplicity of edges with exactly one end in S.
So the moves derived from cut vertices are scored on the graph, and the
largest decrease over all moves for a given a is deg(a) minus the minimum
a / a^-1 cut: a step costs n max-flows on 2n vertices and is polynomial
(Roig-Ventura-Weil, "On the complexity of the Whitehead minimization
problem", IJAC 2007). The source sides of the minimum cuts are the sets
closed under the arcs of the residual graph of one maximum flow that hold a
and not a^-1 (Picard-Queyranne, Math. Programming Study 13, 1980), so the
least A among them is read off that residual graph. The words are rewritten
once per step, by the chosen move alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .words import (
    CyclicWord,
    RankMismatchError,
    WhiteheadMove,
    canonical_cyclic,
    inverse_letters,
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
    """Superposition of the Whitehead graphs of the given cyclic words.

    rank defaults to the largest generator index used; it must be at least 1
    and at least every generator index, else RankMismatchError.
    """
    words = list(words)
    top = max((w.max_index() for w in words), default=0)
    if rank is None:
        rank = top
    if rank < 1:
        raise RankMismatchError(f"rank must be at least 1, got {rank}")
    if top > rank:
        letter = next(l for w in words for l in w.letters if abs(l) > rank)
        raise RankMismatchError(f"letter {letter} out of rank range (rank {rank})")
    if any(not w for w in words):
        raise ValueError("empty cyclic word has no Whitehead graph")
    return _turn_graph([w.letters for w in words], rank)


def _turn_graph(words, rank: int) -> WhiteheadGraph:
    """Whitehead graph of nonempty cyclically reduced letter tuples."""
    counter: Counter = Counter()
    for ls in words:
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
    """Connectivity (over used vertices) and cut vertices of a Whitehead graph.

    One iterative depth-first search from each least unvisited vertex finds
    the components; in a connected graph the cut vertices are the root if it
    has two or more tree children, and every other vertex with a tree child
    c whose lowpoint low[c] (least depth reachable from c's subtree by one
    back edge) is at least its own depth.
    """
    adj = _adjacency(graph)
    depth, low = {}, {}
    comps, cuts = [], set()
    for root in sorted(adj, key=letter_key):
        if root in depth:
            continue
        depth[root] = low[root] = 0
        comp, root_children = [root], 0
        stack = [(root, 0, iter(adj[root]))]  # 0 is no letter: the root's parent
        while stack:
            v, parent, it = stack[-1]
            for u in it:
                if u not in depth:
                    depth[u] = low[u] = depth[v] + 1
                    comp.append(u)
                    stack.append((u, v, iter(adj[u])))
                    break
                if u != parent and depth[u] < low[v]:
                    low[v] = depth[u]
            else:
                stack.pop()
                if parent == root:
                    root_children += 1
                elif parent:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= depth[parent]:
                        cuts.add(parent)
        if root_children > 1:
            cuts.add(root)
        comps.append(tuple(sorted(comp, key=letter_key)))
    connected = len(comps) <= 1
    cuts = sorted(cuts, key=letter_key) if connected else []
    return CutReport(
        connected=connected,
        cut_vertex=cuts[0] if cuts else None,
        cut_vertices=tuple(cuts),
        isolated=tuple(graph.isolated_vertices()),
        components=tuple(comps),
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
    """Images under the move of cyclically reduced letter tuples: each one
    rewritten letter by letter on a stack that cancels, then trimmed at both
    ends to a cyclically reduced tuple (in no canonical rotation)."""
    image = {}
    for x, im in enumerate(move.images(rank), 1):
        image[x], image[-x] = im, inverse_letters(im)
    out = []
    for w in words:
        stack = []
        for l in w:
            for m in image[l]:
                if stack and stack[-1] == -m:
                    stack.pop()
                else:
                    stack.append(m)
        i, j = 0, len(stack) - 1
        while i < j and stack[i] == -stack[j]:
            i, j = i + 1, j - 1
        out.append(tuple(stack[i : j + 1]))
    return out


def _letter_index(x: int) -> int:
    """Position of a signed letter in letter_key order: 1, -1, 2, -2, ..."""
    return 2 * (abs(x) - 1) + (x < 0)


def _capacities(graph: WhiteheadGraph):
    """Edge multiplicities as a symmetric matrix over letter indices."""
    cap = [[0] * (2 * graph.rank) for _ in range(2 * graph.rank)]
    for (u, v), m in graph.edges:
        cap[_letter_index(u)][_letter_index(v)] += m
        cap[_letter_index(v)][_letter_index(u)] += m
    return cap


def _length_change(cap, move: WhiteheadMove) -> int:
    """cap(S) - deg(a): the change of total length the move makes."""
    S = {_letter_index(move.a)} | {_letter_index(-x) for x in move.A if x != move.a}
    cut = sum(cap[i][j] for i in S for j in range(len(cap)) if j not in S)
    return cut - sum(cap[_letter_index(move.a)])


def _min_cut(cap, s: int, t: int):
    """Value of a minimum s-t cut and the residual matrix of a maximum flow:
    Edmonds-Karp on a capacity matrix."""
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
            return flow, res
        path = [t]
        while path[-1] != s:
            path.append(parent[path[-1]])
        arcs = list(zip(path[1:], path))
        push = min(res[u][v] for u, v in arcs)
        for u, v in arcs:
            res[u][v] -= push
            res[v][u] += push
        flow += push


def _min_cut_move(cap):
    """Most length-decreasing move (A, a) and its decrease, or None, from
    the capacity matrix of a Whitehead graph.

    Ties go to the least a in letter_key order and then to the least A as a
    letter_key-sorted tuple, as if every move were tried in that order.
    """
    best_a, best_res, best_decrease = None, None, 0
    # a^-1 has the same degree and cut value as a and comes after it in
    # letter_key order, so only the generators can win
    for a in range(1, len(cap) // 2 + 1):
        i = _letter_index(a)
        cut, res = _min_cut(cap, i, i + 1)
        if sum(cap[i]) - cut > best_decrease:
            best_a, best_res, best_decrease = a, res, sum(cap[i]) - cut
    if best_a is None:
        return None
    return WhiteheadMove(_least_min_cut_side(best_res, best_a), best_a), best_decrease


def _least_min_cut_side(res, a: int) -> frozenset:
    """The least A (as a letter_key-sorted tuple) whose S is the source side
    of a minimum a / a^-1 cut, given the residual matrix of a maximum flow.

    The source sides of minimum cuts are the residual-closed sets that hold
    a and not a^-1. Letters x are decided greedily in letter_key order,
    with S the residual closure of a and of x^-1 for every x kept so far:
    keeping x is possible iff the closure of S and x^-1 avoids a^-1 and
    y^-1 for every y dropped so far.
    """
    n = len(res)

    def closure(v, S):
        """Vertices outside S reachable from v by residual arcs."""
        new = set() if v in S else {v}
        stack = list(new)
        while stack:
            u = stack.pop()
            for w in range(n):
                if res[u][w] > 0 and w not in S and w not in new:
                    new.add(w)
                    stack.append(w)
        return new

    S = closure(_letter_index(a), set())
    banned = {_letter_index(-a)}
    letters = [x for x in sorted(signed_letters(n // 2), key=letter_key) if x != -a]
    A = {a}
    for k, x in enumerate(letters):
        if x == a:
            continue
        # past a, the letters taken so far are the least A if they suffice,
        # that is if S holds y^-1 for no letter y still undecided
        if letter_key(x) > letter_key(a) and S.isdisjoint(
            _letter_index(-y) for y in letters[k:]
        ):
            break
        new = closure(_letter_index(-x), S)
        if new.isdisjoint(banned):
            A.add(x)
            S |= new
        else:
            banned.add(_letter_index(-x))
    return frozenset(A)


def whitehead_minimize(words, rank=None) -> ReductionTrace:
    """Repeatedly apply the most length-decreasing Whitehead move until none
    decreases the total length of the cyclic words.

    Each step is read off the Whitehead graph of the current words (see the
    module docstring). When the graph (over its used vertices) is connected
    and has a cut vertex, the moves of moves_from_cut_vertex are scored by
    cap(S) - deg(a) on its capacity matrix. Otherwise the best move over all
    (A, a) comes from n minimum cuts, and its A from the residual graph of
    the winning maximum flow: each step is polynomial in the rank and the
    word lengths. Tie-break in both cases: largest decrease, then least a in
    letter_key order (1 < -1 < 2 < ...), then least A as a letter_key-sorted
    tuple, so the result equals trying every move in that order. The words
    are rewritten once per step, by the chosen move, and the rewritten total
    length must equal the predicted one.

    terminal_state is basis-reached when the final words are pairwise
    distinct generators; otherwise disconnected-min when the final graph is
    disconnected or has an isolated vertex, and no-cut-vertex when not.
    """
    words = [w if isinstance(w, CyclicWord) else CyclicWord.make(w) for w in words]
    if any(not w for w in words):
        raise ValueError("whitehead_minimize requires nonempty words")
    if rank is None:
        rank = max(w.max_index() for w in words)
    graph = whitehead_graph(words, rank)
    # cyclically reduced letter tuples, made canonical once at the end
    words = [w.letters for w in words]
    trace = ReductionTrace()
    while True:
        report = cut_analysis(graph)
        cap = _capacities(graph)
        before = _total(words)
        if report.connected and report.cut_vertices:
            scored = [(_length_change(cap, m), m) for m in moves_from_cut_vertex(graph, report)]
            change, move = min(scored, key=lambda it: (it[0], it[1].sort_key()))
            after = before + change
            if after >= before:
                raise AssertionError(
                    f"cut-vertex move {move} failed to decrease length "
                    f"({before} -> {after})"
                )
        else:
            found = _min_cut_move(cap)
            if found is None:
                break
            move, decrease = found
            after = before - decrease
        words = _apply_move(move, words, rank)
        if _total(words) != after:
            raise AssertionError(
                f"move {move} predicted length {after}, got {_total(words)}"
            )
        trace.steps.append((move, before, after))
        graph = _turn_graph(words, rank)
    trace.final_words = finals = [CyclicWord(canonical_cyclic(w)) for w in words]
    # canonical one-letter words are generators
    if all(len(w) == 1 for w in finals) and len(set(finals)) == len(finals):
        trace.terminal_state = "basis-reached"
    else:
        report = cut_analysis(whitehead_graph(finals, rank))
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
