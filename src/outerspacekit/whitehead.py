"""Whitehead graphs, cut-vertex analysis and length minimization.

The Whitehead graph of a set of cyclic words has the 2n signed letters as
vertices and one edge {u^-1, v} per cyclic two-letter subword uv, with
multiplicity. It is stored once, as the map from neighbours to edge
multiplicities of each vertex, the vertices in letter_key order 1, -1, 2,
-2, ...; every graph is built by WhiteheadGraph.from_counter from a count
of its edges, its edge list, isolated vertices and unions are read off
those maps, and every walk of the graph reads only the edges that exist.
Connectivity and cut vertices drive Whitehead's reduction algorithm: a
basis element minimizes to a single letter, while a connected
cut-vertex-free graph certifies a non-basis element. Cut vertices are the
articulation points of one iterative depth-first search with lowpoints
(Hopcroft-Tarjan, CACM 1973), and the same search gives the components
left when each cut vertex is removed, as slices of its preorder.

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
problem", IJAC 2007). Each max-flow is Edmonds-Karp over residual
neighbour maps, so a step costs O(n flow (V + E)) for V = 2n vertices and E
distinct edges. The source sides of the minimum cuts are the sets
closed under the arcs of the residual graph of one maximum flow that hold a
and not a^-1 (Picard-Queyranne, Math. Programming Study 13, 1980), so the
least A among them is read off that residual graph. The words are rewritten
once per step, by the chosen move alone, and the terminal state is read off
the last step's analysis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import neg

from .words import (
    CyclicWord,
    WhiteheadMove,
    canonical_cyclic,
    cyclic_tighten,
    join_pieces,
    piece_table,
    signed_letters,
)


def _letter_index(x: int) -> int:
    """Position of a signed letter in letter_key order: 1, -1, 2, -2, ..."""
    return 2 * (abs(x) - 1) + (x < 0)


@dataclass(frozen=True)
class WhiteheadGraph:
    rank: int
    # per vertex in letter_key order, its neighbours -> edge multiplicities;
    # symmetric, with no zero entries, and never changed once built
    neighbours: tuple

    @staticmethod
    def from_counter(rank: int, counter: Counter) -> "WhiteheadGraph":
        """Graph of a counter of edges {u, v} (two-letter sets or pairs) to
        multiplicities; ValueError on a self-loop (u, u)."""
        nbrs = [{} for _ in range(2 * rank)]
        for (u, v), m in counter.items():
            i, j = _letter_index(u), _letter_index(v)
            if i == j:
                raise ValueError("self-loop in Whitehead graph: word not cyclically reduced")
            if m:
                nbrs[i][j] = nbrs[i].get(j, 0) + m
                nbrs[j][i] = nbrs[j].get(i, 0) + m
        return WhiteheadGraph(rank, tuple(nbrs))

    @property
    def edges(self) -> tuple:
        """Sorted ((u, v), multiplicity) pairs, u before v in letter_key order."""
        letters = tuple(signed_letters(self.rank))
        return tuple(((letters[i], letters[j]), m) for i, row in enumerate(self.neighbours)
                     for j, m in sorted(row.items()) if j > i)

    def isolated_vertices(self):
        return [x for x, row in zip(signed_letters(self.rank), self.neighbours) if not row]

    def union(self, other: "WhiteheadGraph") -> "WhiteheadGraph":
        return WhiteheadGraph(self.rank, tuple(
            {**r, **{j: r.get(j, 0) + m for j, m in s.items()}}
            for r, s in zip(self.neighbours, other.neighbours)))


def whitehead_graph(words, rank=None) -> WhiteheadGraph:
    """Superposition of the Whitehead graphs of the given cyclic words.

    rank defaults to the largest generator index used; it must be at least 1
    and at least every generator index, else ValueError.
    """
    words = list(words)
    top = max((w.max_index() for w in words), default=0)
    if rank is None:
        rank = top
    if rank < 1:
        raise ValueError(f"rank must be at least 1, got {rank}")
    if top > rank:
        letter = next(l for w in words for l in w.letters if abs(l) > rank)
        raise ValueError(f"letter {letter} out of rank range (rank {rank})")
    if any(not w for w in words):
        raise ValueError("empty cyclic word has no Whitehead graph")
    return _turn_graph([w.letters for w in words], rank)


def _turn_graph(words, rank: int) -> WhiteheadGraph:
    """Whitehead graph of the turns {u^-1, v} of cyclically reduced letter tuples."""
    turns = Counter()
    for ls in words:
        turns.update(zip(map(neg, ls[-1:] + ls[:-1]), ls))
    return WhiteheadGraph.from_counter(rank, turns)


@dataclass(frozen=True)
class CutReport:
    connected: bool  # over vertices that carry at least one edge
    cut_vertices: tuple
    isolated: tuple  # signed letters with no incident edge
    splits: tuple  # ((a, components of the used graph minus a), ...) per cut vertex a


def cut_analysis(graph: WhiteheadGraph) -> CutReport:
    """Connectivity (over used vertices), cut vertices and the components
    each cut vertex splits off, from one walk of the graph's edges.

    One iterative depth-first search from the least used vertex walks its
    component, and the graph is connected iff it reaches every used vertex.
    In a connected graph the cut vertices are the root if it has two or
    more tree children, and every other vertex with a tree child c whose
    lowpoint low[c] (least depth reachable from c's subtree by one back
    edge) is at least its own depth. The subtree of each such c is a
    component of the graph minus the cut vertex a, the slice of the preorder
    from c on when c is finished; what is left besides a is one more.
    splits lists the cut vertices in letter_key order, each with its
    components as sorted tuples ordered by their least letter.
    """
    letters = tuple(signed_letters(graph.rank))
    adj = graph.neighbours
    n = len(adj)
    used = [v for v in range(n) if adj[v]]
    depth, low, pre = [-1] * n, [0] * n, [0] * n
    order = used[:1]
    below = {}  # vertex -> subtrees of its tree children c with low[c] >= its depth
    if used:
        root = used[0]
        depth[root] = 0
        stack = [(root, -1, iter(adj[root]))]  # -1 is no vertex: the root's parent
        while stack:
            v, parent, it = stack[-1]
            for u in it:
                if depth[u] < 0:
                    depth[u] = low[u] = depth[v] + 1
                    pre[u] = len(order)
                    order.append(u)
                    stack.append((u, v, iter(adj[u])))
                    break
                if u != parent and depth[u] < low[v]:
                    low[v] = depth[u]
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] >= depth[parent]:
                        below.setdefault(parent, []).append(order[pre[v]:])
    connected = len(order) == len(used)
    splits = []
    if connected:
        for a in sorted(below):
            subtrees = below[a]
            if depth[a] == 0 and len(subtrees) < 2:
                continue  # a root with one tree child is no cut vertex
            rest = set(order).difference([a], *subtrees)
            parts = sorted(map(sorted, subtrees + [rest] if rest else subtrees))
            splits.append((letters[a], tuple(tuple(letters[i] for i in p) for p in parts)))
    return CutReport(
        connected=connected,
        cut_vertices=tuple(a for a, _ in splits),
        isolated=tuple(graph.isolated_vertices()),
        splits=tuple(splits),
    )


def moves_from_cut_vertex(report: CutReport):
    """Length-reducing move candidates derived from a cut_analysis report.

    For a cut vertex a and a component W'' of the used graph minus a that
    does not contain a^-1, the word-level reducing move is
    (A, a) with A = (W'')^-1 union {a}: its length change equals
    -(number of edges joining a to W'') < 0 on a connected graph. The
    components are read off report.splits.
    """
    return [WhiteheadMove(frozenset(-x for x in comp) | {a}, a)
            for a, comps in report.splits for comp in comps if -a not in comp]


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
    substituted by join_pieces and cyclically tightened (in no canonical
    rotation)."""
    image = piece_table(move.images(rank))
    return [cyclic_tighten(join_pieces(image, w)) for w in words]


def _length_change(nbrs, move: WhiteheadMove) -> int:
    """cap(S) - deg(a): the change of total length the move makes, from the
    neighbour maps of a Whitehead graph."""
    S = {_letter_index(move.a)} | {_letter_index(-x) for x in move.A if x != move.a}
    cut = sum(m for i in S for j, m in nbrs[i].items() if j not in S)
    return cut - sum(nbrs[_letter_index(move.a)].values())


def _min_cut(nbrs, s: int, t: int):
    """Value of a minimum s-t cut and the residual neighbour maps of a
    maximum flow: Edmonds-Karp on the neighbour maps of a symmetric graph,
    whose edges are arcs both ways."""
    res = [dict(row) for row in nbrs]
    flow = 0
    while True:
        parent = {s: s}
        queue = [s]
        for u in queue:
            for v, c in res[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if t in parent:
                break
        if t not in parent:
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


def _min_cut_move(nbrs):
    """Most length-decreasing move (A, a) and its decrease, or None, from
    the neighbour maps of a Whitehead graph.

    Ties go to the least a in letter_key order and then to the least A as a
    letter_key-sorted tuple, as if every move were tried in that order.
    """
    best_a, best_res, best_decrease = None, None, 0
    # a^-1 has the same degree and cut value as a and comes after it in
    # letter_key order, so only the generators can win
    for a in range(1, len(nbrs) // 2 + 1):
        i = _letter_index(a)
        degree = sum(nbrs[i].values())
        if degree <= best_decrease:
            continue  # the decrease degree - cut cannot beat the best
        cut, res = _min_cut(nbrs, i, i + 1)
        if degree - cut > best_decrease:
            best_a, best_res, best_decrease = a, res, degree - cut
    if best_a is None:
        return None
    return WhiteheadMove(_least_min_cut_side(best_res, best_a), best_a), best_decrease


def _least_min_cut_side(res, a: int) -> frozenset:
    """The least A (as a letter_key-sorted tuple) whose S is the source side
    of a minimum a / a^-1 cut, given the residual neighbour maps of a
    maximum flow.

    The source sides of minimum cuts are the residual-closed sets that hold
    a and not a^-1. Letters x are decided greedily in letter_key order,
    with S the residual closure of a and of x^-1 for every x kept so far:
    keeping x is possible iff the closure of S and x^-1 avoids a^-1 and
    y^-1 for every y dropped so far.
    """

    def closure(v, S):
        """Vertices outside S reachable from v by residual arcs."""
        new = set() if v in S else {v}
        stack = list(new)
        while stack:
            for w, c in res[stack.pop()].items():
                if c > 0 and w not in S and w not in new:
                    new.add(w)
                    stack.append(w)
        return new

    letters = tuple(signed_letters(len(res) // 2))  # vertex i is letters[i], i ^ 1 its inverse
    s = _letter_index(a)
    S = closure(s, set())
    banned = {s ^ 1}
    A = {a}
    for i in range(len(res)):
        if i >> 1 == s >> 1:
            continue  # a, or a^-1
        # past a, the letters taken so far are the least A if they suffice,
        # that is if S holds y^-1 for no letter y still undecided
        if i > s and S.isdisjoint(j ^ 1 for j in range(i, len(res))):
            break
        new = closure(i ^ 1, S)
        if new.isdisjoint(banned):
            A.add(letters[i])
            S |= new
        else:
            banned.add(i ^ 1)
    return frozenset(A)


def whitehead_minimize(words, rank=None) -> ReductionTrace:
    """Repeatedly apply the most length-decreasing Whitehead move until none
    decreases the total length of the cyclic words.

    Each step is read off the Whitehead graph of the current words (see the
    module docstring). When the graph (over its used vertices) is connected
    and has a cut vertex, the moves of moves_from_cut_vertex (read off the
    step's cut_analysis) are scored by cap(S) - deg(a) on the graph's
    neighbour maps. Otherwise the best move over all (A, a) comes from at
    most n minimum cuts, and its A from the residual graph of the winning
    maximum flow: a step reads only the edges that exist and costs
    O(n flow (V + E)) on V = 2n vertices and E distinct edges. Two exact
    shortcuts skip max-flows that cannot win: none runs for a generator
    whose degree is at most the best decrease found so far, and no minimum
    cut is searched when every word is a single letter, which no move can
    shorten. Tie-break in both cases: largest decrease, then least a in
    letter_key order (1 < -1 < 2 < ...), then least A as a letter_key-sorted
    tuple, so the result equals trying every move in that order. The words
    are rewritten once per step, by the chosen move, and the rewritten total
    length must equal the predicted one.

    terminal_state is basis-reached when the final words are pairwise
    distinct generators; otherwise disconnected-min when the final graph is
    disconnected or has an isolated vertex, and no-cut-vertex when not, as
    read off the cut_analysis of the last step, which found no shorter
    words: cut_analysis runs once per step and once more.
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
        before = _total(words)
        if report.connected and report.cut_vertices:
            scored = [(_length_change(graph.neighbours, m), m)
                      for m in moves_from_cut_vertex(report)]
            change, move = min(scored, key=lambda it: (it[0], it[1].sort_key()))
            after = before + change
            if after >= before:
                raise AssertionError(
                    f"cut-vertex move {move} failed to decrease length "
                    f"({before} -> {after})"
                )
        else:
            # no move shortens words that are all single letters
            found = before > len(words) and _min_cut_move(graph.neighbours)
            if not found:
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
    # a rotation or inversion of a word keeps its Whitehead graph, so the
    # last report describes the graph of the final words
    elif report.isolated or not report.connected:
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
