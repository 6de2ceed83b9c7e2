"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's high-level algorithms: the
primitivity oracle does a breadth-first search over Whitehead moves with
the intermediate length bounded by the start length (peak reduction makes
this complete for the minimal length question), and the minimization
oracle finds each non-cut-vertex step by trying all 2n * 4^(n-1) moves.
"""

from collections import deque

from outerspacekit.whitehead import (
    ReductionTrace,
    cut_analysis,
    moves_from_cut_vertex,
    whitehead_graph,
)
from outerspacekit.words import CyclicWord, all_whitehead_moves

_memo = {}


def bfs_primitive(word: CyclicWord, rank: int) -> bool:
    start = word.letters
    if not start:
        raise ValueError("empty word")
    key = (rank, start)
    if key in _memo:
        return _memo[key]
    bound = len(start)
    moves = [m.automorphism(rank) for m in all_whitehead_moves(rank)]
    seen = {start}
    queue = deque([start])
    best = len(start)
    while queue:
        current = queue.popleft()
        best = min(best, len(current))
        if best == 1:
            break
        for phi in moves:
            nxt = phi.apply_cyclic(CyclicWord(current)).letters
            if len(nxt) <= bound and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    answer = best == 1
    # every visited word lies in the same Aut-orbit, so shares the answer
    for w in seen:
        _memo[(rank, w)] = answer
    return answer


_moves = {}


def _all_moves(rank):
    """(move, automorphism) for every Whitehead move, built once per rank."""
    if rank not in _moves:
        _moves[rank] = [(m, m.automorphism(rank)) for m in all_whitehead_moves(rank)]
    return _moves[rank]


def exhaustive_minimize(words, rank) -> ReductionTrace:
    """Reference for whitehead_minimize: the same cut-vertex steps, and
    otherwise the move of least (total length after, a, sorted A) among all
    (A, a) that shorten the words."""
    trace = ReductionTrace()
    while True:
        graph = whitehead_graph(words, rank)
        report = cut_analysis(graph)
        before = sum(len(w) for w in words)
        if report.connected and report.cut_vertices:
            candidates = [(m, m.automorphism(rank)) for m in moves_from_cut_vertex(graph, report)]
        else:
            candidates = _all_moves(rank)
        best = None
        for move, phi in candidates:
            new = [phi.apply_cyclic(w) for w in words]
            after = sum(len(w) for w in new)
            key = (after, move.sort_key())
            if after < before and (best is None or key < best[0]):
                best = (key, move, new)
        if best is None:
            break
        (after, _), move, words = best
        trace.steps.append((move, before, after))
    trace.final_words = words
    if all(len(w) == 1 for w in words):
        trace.terminal_state = "basis-reached"
    else:
        report = cut_analysis(whitehead_graph(words, rank))
        connected = report.connected and not report.isolated
        trace.terminal_state = "no-cut-vertex" if connected else "disconnected-min"
    return trace
