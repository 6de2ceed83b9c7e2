"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's high-level algorithms: the
primitivity oracle does a breadth-first search over Whitehead moves with
the intermediate length bounded by the start length (peak reduction makes
this complete for the minimal length question), and the minimization
oracle finds each step by trying all 2n * 4^(n-1) moves,
which `all_whitehead_moves` lists and `apply_cyclic` applies. `points_equal`
tells two points apart by the metric alone.
`scan_cut_analysis` finds cut vertices by removing each used vertex in
turn and counting the components left, which it keeps as the splits, and `least_min_cut_side` decides
each letter of the least minimum-cut side by one more max-flow with the
decided letters tied to a or a^-1 by edges of infinite capacity: both are
the library's earlier versions, kept as they were, against its single
depth-first search and its residual-graph reading.
The basis oracle folds by restarting its whole edge scan after every
single fold, and reads no inverse. `gauge_fold` is the library's earlier
basis fold, a gauge word per vertex carried through every fold, against
which the union-find fold's verdict and its replayed inverse are checked. The leaf oracles expand each tile
f^k(e) on the train-track graph, read it as a word of F_n and realize
that word at the target, one depth at a time; tiles and Whitehead graphs
are then read off these explicit paths. Paths are expanded and read by
`leaf_path` and `path_word` below: one substitution round per level and
one geometric letter at a time, against which the library's per-level
gathers and per-half-edge label table are checked. Words are realized by
`realize_based` and measured by `loop_length` below, one half-edge of one
untightened generator loop at a time, against the library's tightened loop
table and half-edge length table. `gates` merges directions by comparing
every pair of them after each iterate of the direction map. `perron` is
the library's earlier power iteration on A + I, with its own step cap and
residual, against which the one eigen-solve is compared within a
tolerance. `strip_inverse_ends` trims
one inverse end pair per slice, as the library's three copies of that
loop did before they shared one index loop. `dist_to_axis_point` and
`project` are the library's earlier axis scan, kept as it was but for the
warning it logs on a non-contiguous argmin: each level m builds the axis
point G_m from the word phi^m and takes the candidate distance to it, and
`length_values` measures phi^m(alpha) at the base the same way.
`project_exhaustive` and `search_axis_distance_exhaustive` read every
level exactly by the library's own axis reader, as the library did before
it read levels with a cap: against them the capped scans are checked
field for field and float for float.
`enumerate_candidates` is the library's earlier per-marking enumeration:
it reads the class of every raw candidate path of every point and keeps
one path per class, where the library keeps one per half-edge cycle of the
graph and reads classes only to sort.
`apply_letters`, `apply_move`, `image_of_path` and `selfmap_automorphism`
are the library's earlier substitutions, each a letter-by-letter stack
loop, against which the one substitution, words.join_pieces, is checked:
`selfmap_automorphism` closes each image loop up by the tree path rho
from the basepoint to its image, rho . f(loop) . rho^-1, and
`linear_map_images` reads the generator images of a linear map the same
way, where the library lets path_word close the image loop through the
tree. `is_inner` finds the common conjugator of an inner automorphism by
peeling the first image and trying every power of x_1 after it, where the
library tries the first halves of the first two images.
`leaf_end_closed_form` is the library's earlier closed form of the leaf
end, numpy object-dtype matrix products over the counts of every edge at
every level K..K+P, against which the plain-Python sums over the edges
whose images cancel are checked bit for bit.
"""

import math
from collections import Counter, deque
from itertools import chain, combinations, islice
from operator import mul

import numpy as np

from outerspacekit.axes import Axis, ProjectionResult
from outerspacekit.graphs import (
    CandidateLoop,
    _arcs_between,
    _embedded_circles,
    _rotate_cycle_to,
    tighten_path,
)
from outerspacekit.metric import distance
from outerspacekit.traintrack import (
    NotTrainTrackError,
    TrainTrackStructure,
    _turns,
)
from outerspacekit.whitehead import (
    CutReport,
    ReductionTrace,
    WhiteheadGraph,
    whitehead_graph,
)
from outerspacekit.words import (
    Automorphism,
    CyclicWord,
    WhiteheadMove,
    Word,
    inverse_letters,
    letter_key,
    reduce_letters,
    signed_letters,
    word_key,
)


def reverse_path(path):
    """A half-edge path walked backwards."""
    return tuple(-h for h in reversed(path))


def all_whitehead_moves(rank: int):
    """All (A, a) moves, identity-like ones included, in deterministic order."""
    letters = sorted(signed_letters(rank), key=letter_key)
    for a in letters:
        others = [x for x in letters if x != a and x != -a]
        for r in range(len(others) + 1):
            for extra in combinations(others, r):
                yield WhiteheadMove(frozenset((a,) + extra), a)


def apply_cyclic(phi, w: CyclicWord) -> CyclicWord:
    """phi(w) for a cyclic word w."""
    return CyclicWord.make(phi.apply_letters(w.letters))


def points_equal(p, q, tol: float = 1e-9) -> bool:
    """Point equality via the metric characterization: d = 0 both ways."""
    return distance(p, q).value <= tol and distance(q, p).value <= tol


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
            nxt = apply_cyclic(phi, CyclicWord(current)).letters
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
    """Reference for whitehead_minimize: at every step the move of least
    (total length after, a, sorted A) among all (A, a) that shorten the
    words."""
    trace = ReductionTrace()
    while True:
        before = sum(len(w) for w in words)
        best = None
        for move, phi in _all_moves(rank):
            new = [apply_cyclic(phi, w) for w in words]
            after = sum(len(w) for w in new)
            key = (after, move.sort_key())
            if after < before and (best is None or key < best[0]):
                best = (key, move, new)
        if best is None:
            break
        (after, _), move, words = best
        trace.steps.append((move, before, after))
    trace.final_words = words
    if all(len(w) == 1 for w in words) and len(set(words)) == len(words):
        trace.terminal_state = "basis-reached"
    else:
        report = scan_cut_analysis(whitehead_graph(words, rank))
        connected = report.connected and not report.isolated
        trace.terminal_state = "no-cut-vertex" if connected else "disconnected-min"
    return trace


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


def _adjacency(graph: WhiteheadGraph):
    adj = {}
    for (u, v), _ in graph.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def scan_cut_analysis(graph: WhiteheadGraph) -> CutReport:
    """Reference for whitehead.cut_analysis: connectivity (over used
    vertices), cut vertices of a Whitehead graph and the components each
    one splits the graph into."""
    adj = _adjacency(graph)
    used = sorted(adj, key=letter_key)
    comps = _components(used, adj)
    connected = len(comps) <= 1
    cuts, splits = [], []
    if connected and len(used) > 2:
        for v in used:
            rest = [u for u in used if u != v]
            sub = {u: {w for w in adj[u] if w != v} for u in rest}
            parts = _components(rest, sub)
            if len(parts) > 1:
                cuts.append(v)
                splits.append((v, tuple(tuple(sorted(c, key=letter_key)) for c in parts)))
    return CutReport(
        connected=connected,
        cut_vertices=tuple(cuts),
        isolated=tuple(graph.isolated_vertices()),
        splits=tuple(splits),
    )


def _letter_index(x: int) -> int:
    """Position of a signed letter in letter_key order: 1, -1, 2, -2, ..."""
    return 2 * (abs(x) - 1) + (x < 0)


def min_cut(cap, s: int, t: int) -> int:
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


def least_min_cut_side(cap, a: int, target: int) -> frozenset:
    """Reference for whitehead._least_min_cut_side: the least A (as a
    letter_key-sorted tuple) whose S has cut value target.

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
        return min_cut(trial, s, t) == target

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


def scan_is_basis(words, rank: int) -> bool:
    """Reference for words.is_basis: True iff the given Words form a free
    basis of F_rank.

    Folds the wedge of word loops; the tuple is a basis iff the folded core
    graph is the full rank-n rose (n words generating F_n are a basis).
    """
    words = list(words)
    if len(words) != rank:
        return False
    parent = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    base = 0
    parent[base] = base
    nxt = 1
    edges = []
    for w in words:
        if not w.letters:
            return False
        prev = base
        for i, l in enumerate(w.letters):
            if i == len(w.letters) - 1:
                node = base
            else:
                node = nxt
                parent[node] = node
                nxt += 1
            if l > 0:
                edges.append((l, prev, node))
            else:
                edges.append((-l, node, prev))
            prev = node

    while True:
        out_seen, in_seen = {}, {}
        merged = False
        dedup = set()
        for (l, u, v) in edges:
            u, v = find(u), find(v)
            if (l, u, v) in dedup:
                continue
            dedup.add((l, u, v))
            if (l, u) in out_seen and find(out_seen[(l, u)]) != v:
                union(out_seen[(l, u)], v)
                merged = True
                break
            out_seen[(l, u)] = v
            if (l, v) in in_seen and find(in_seen[(l, v)]) != u:
                union(in_seen[(l, v)], u)
                merged = True
                break
            in_seen[(l, v)] = u
        if not merged:
            edges = sorted(dedup)
            break
        edges = [(l, find(u), find(v)) for (l, u, v) in edges]

    # Trim hanging trees away from the basepoint.
    b = find(base)
    while True:
        deg = {}
        for (l, u, v) in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        drop = {v for v, d in deg.items() if d <= 1 and v != b}
        if not drop:
            break
        edges = [e for e in edges if e[1] not in drop and e[2] not in drop]

    labels = {l for (l, u, v) in edges}
    return (
        len(edges) == rank
        and labels == set(range(1, rank + 1))
        and all(u == b and v == b for (_, u, v) in edges)
    )


def gauge_fold(images, rank: int):
    """Reference for words.inverse_images and words.is_basis: the inverse
    images of the basis x_i -> images[i], or None if not a basis. The
    library's earlier fold, which carries a gauge word per vertex through
    every fold and finds each pending fold by an adjacency search."""
    images = [w.letters for w in images]
    if len(images) != rank or not all(images):
        return None
    # vertex v: union-find parent and gauge word; the half-edge (a, l, b, d)
    # from a to b labelled l reads G(a) d G(b)^-1, G(v) = G(parent) gauge[v]
    parent, gauge, halves = [0], [()], []
    for i, w in enumerate(images, 1):
        tail = 0
        for pos, l in enumerate(w, 1):
            head = len(parent) if pos < len(w) else 0
            if head:
                parent.append(head)
                gauge.append(())
            d = (i,) if pos == 1 else ()
            halves += [(tail, l, head, d), (head, -l, tail, inverse_letters(d))]
            tail = head

    def find(v):
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        g = ()
        for u in reversed(path):
            g = reduce_letters(g + gauge[u])
            parent[u], gauge[u] = v, g
        return v, g

    def read(h):
        """Head of half-edge h and the domain word it reads."""
        a, _, b, d = halves[h]
        (_, ga), (b, gb) = find(a), find(b)
        return b, reduce_letters(ga + d + inverse_letters(gb))

    adj = [{} for _ in parent]  # root -> {label: half-edge out of it}
    todo = []  # (kept, folded): half-edges with one tail and one label

    def place(h):
        a, l = halves[h][:2]
        kept = adj[find(a)[0]].setdefault(l, h)
        if kept != h:
            todo.append((kept, h))

    for h in range(len(halves)):
        place(h)
    while todo:
        h1, h2 = todo.pop()
        w1, d1 = read(h1)
        w2, d2 = read(h2)
        g = reduce_letters(inverse_letters(d1) + d2)
        if w1 == w2:
            if g:
                return None
            continue
        if w2 == 0:
            w1, w2, g = w2, w1, inverse_letters(g)
        parent[w2], gauge[w2] = w1, g
        for h in adj[w2].values():
            place(h)
    loops = [adj[0].get(j) for j in range(1, rank + 1)]
    if None in loops or any(read(h)[0] != 0 for h in loops):
        return None
    return [Word(read(h)[1]) for h in loops]


def path_word(point, path):
    """Reference for MarkedMetricGraph.path_word: the word over the
    geometric basis (the non-tree edges, numbered in edge order) crossed by
    the path, reduced, then mapped letter by letter through the marking
    inverse. Half-edges of no edge are skipped."""
    g = point.graph
    tree = {abs(h) for v in range(g.n_vertices) for h in tree_path_from_base(point, v)}
    geo = dict(zip((e for e in range(1, g.n_edges + 1) if e not in tree), range(1, g.n_edges + 1)))
    letters = []
    for h in path:
        x = geo.get(abs(h))
        if x is not None:
            letters.append(x if h > 0 else -x)
    return Word(apply_letters(point.marking_inverse(), reduce_letters(letters)))


def tree_path_from_base(point, v):
    """Half-edge path from the basepoint to v inside the spanning tree
    grown breadth first from the basepoint, each vertex reached by the
    first out-half-edge, in out_halfedges order, of the first vertex
    dequeued that reaches it. The tree is rebuilt from the graph alone, so
    a wrong tree in MarkedMetricGraph._ensure_tree shows in path_word."""
    g = point.graph
    parent = {point.basepoint: None}
    queue = deque([point.basepoint])
    while queue:
        u = queue.popleft()
        for h in g.out_halfedges(u):
            w = g.term_of(h)
            if w not in parent:
                parent[w] = h
                queue.append(w)
    path = []
    while v != point.basepoint:
        h = parent[v]
        path.append(h)
        v = point.graph.init_of(h)
    return tuple(reversed(path))


def apply_letters(phi, letters):
    """Reference for Automorphism.apply_letters: the image of each letter
    pushed letter by letter on a stack that cancels."""
    out = []
    for l in letters:
        im = phi.images[abs(l) - 1].letters
        for m in im if l > 0 else inverse_letters(im):
            if out and out[-1] == -m:
                out.pop()
            else:
                out.append(m)
    return tuple(out)


def verify_inverse(phi, psi):
    """Reference for the test verify_inverse makes: phi o psi and psi o phi
    fix every generator, composed by apply_letters above."""
    return all(apply_letters(phi, apply_letters(psi, (i,))) == (i,)
               and apply_letters(psi, apply_letters(phi, (i,))) == (i,)
               for i in range(1, phi.rank + 1))


def apply_move(move, words, rank):
    """Reference for whitehead._apply_move: each cyclically reduced word
    rewritten letter by letter on a stack that cancels, then trimmed at
    both ends."""
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


def image_of_path(f, path):
    """The tightened image of a half-edge path under a graph self-map: the
    edge images concatenated, reversed for a reversed edge, then tightened."""
    out = []
    for h in path:
        image = f.edge_images[abs(h)]
        out.extend(image if h > 0 else reverse_path(image))
    return tighten_path(f.graph, out)


def selfmap_automorphism(f):
    """Reference for GraphSelfMap.automorphism: each generator loop's image
    conjugated by the tree path rho from the basepoint to its image,
    tightened, and read by path_word above."""
    p = f.point
    rho = tree_path_from_base(p, f.vertex_images[p.basepoint])
    images = []
    for loop in p.gen_loops:
        mapped = rho + image_of_path(f, loop) + reverse_path(rho)
        images.append(path_word(p, tighten_path(f.graph, mapped)))
    return Automorphism(p.rank, images)


def linear_map_images(spec, x, y):
    """The letters at y of the images of x's generator loops under a linear
    map, each conjugated by y's tree path rho from y's basepoint to the
    image of x's basepoint and read by path_word above: the words whose
    common conjugator metric.linear_map_lipschitz checks."""
    rho = tree_path_from_base(y, spec.vertex_images[x.basepoint])
    images = []
    for loop in x.gen_loops:
        mapped = []
        for h in loop:
            image = tuple(spec.edge_images[abs(h)])
            mapped.extend(image if h > 0 else reverse_path(image))
        based = tighten_path(y.graph, rho + tuple(mapped) + reverse_path(rho))
        images.append(path_word(y, based).letters)
    return images


def is_inner(images):
    """Reference for metric._common_conjugator_is_inner, read off the first
    image alone: inverse end pairs are peeled off it down to its core,
    which must be x_1, and the words u with u x_1 u^-1 equal to it are the
    peeled prefix times a power x_1^k (the centralizer of x_1 is <x_1>).
    An image u x_i u^-1 has at least 2|k| + 1 letters, so every k up to the
    longest image is tried on every image."""
    first = tuple(images[0])
    n = 0
    while n < len(first) - 1 - n and first[n] == -first[-1 - n]:
        n += 1
    if first[n:len(first) - n] != (1,):
        return False
    longest = max(map(len, images))
    for k in range(-longest, longest + 1):
        u = first[:n] + (1 if k > 0 else -1,) * abs(k)
        if all(reduce_letters(u + (i,) + inverse_letters(u)) == tuple(im)
               for i, im in enumerate(images, 1)):
            return True
    return False


def leaf_path(tt, edge_index, k):
    """Reference for TrainTrackMap.leaf_path: f^k(e) by k rounds of
    substituting each half-edge by its image."""
    image = {s * e: p if s > 0 else reverse_path(p)
             for e, p in tt.selfmap.edge_images.items() for s in (1, -1)}
    path = (edge_index,)
    for _ in range(k):
        path = tuple(chain.from_iterable(map(image.__getitem__, path)))
    return path


def leaf_levels(tt, point, k_max):
    """Reference for TrainTrackMap.realized_leaves: level k lists, over the
    edges e, the based path at `point` of the word read by f^k(e)."""
    return [leaf_level(tt, point, k) for k in range(k_max + 1)]


def leaf_level(tt, point, k):
    return [point.realize_based(path_word(tt.point, leaf_path(tt, e, k)).letters)
            for e in range(1, tt.graph.n_edges + 1)]


def tile_summary(path, n_edges, window):
    """Reference for a LeafTile: (n, head, tail, edge counts, turns) of a
    path, the head and tail being the whole path when n <= 2 * window."""
    n = len(path)
    ends = (path, path) if n <= 2 * window else (path[:window], path[n - window:])
    counts = tuple(sum(1 for h in path if abs(h) == e) for e in range(1, n_edges + 1))
    turns = Counter(frozenset((-path[i], path[i + 1])) for i in range(n - 1))
    return (n, *ends, counts, turns)


LEAF_TURN_LEVELS = range(60, 80)  # the levels leaf_turns reads


def leaf_turns(tt, point):
    """Reference for the turns of TrainTrackMap.leaf_end: the turns, as
    frozensets, that the leaf tiles at `point` take at any of the fixed deep
    LEAF_TURN_LEVELS, read level by level with no periodicity. The tiles
    are the windowed summaries of realized_leaves, which the tile tests
    check against the explicit leaf paths at the levels those can be
    expanded to."""
    m = point.graph.n_edges
    levels = islice(tt.realized_leaves(point), LEAF_TURN_LEVELS.start, LEAF_TURN_LEVELS.stop)
    return {frozenset(turn) for level in levels for tile in level
            for turn, c in zip(_turns(point.graph), tile.counts[m:]) if c}


def leaf_end_closed_form(tt, point, end):
    """Reference for the (functional, turns) of a LeafEnd `end` of tt at
    `point`: numpy object-dtype matrix products over the counts of the
    tiles of realized_leaves at the levels K..K+P of the end, with
    K = end.level - end.period, and the turns any of those tiles takes."""
    m = point.graph.n_edges
    K, k = end.level - end.period, end.level
    levels = islice(tt.realized_leaves(point), K, k + 1)
    C = np.array([[tile.counts for tile in level] for level in levels], dtype=object)
    A, r, lam = np.array(tt.matrix, dtype=object), np.array(tt.frequencies), tt.lam
    cancelled = sum(r @ (A @ C[i, :, :m] - C[i + 1, :, :m]) / lam ** (K + i + 1)
                    for i in range(k - K))
    w = r @ C[0, :, :m] / lam ** K - cancelled / (1.0 - lam ** (K - k))
    taken = C[:, :, m:].any(axis=(0, 1))
    return (tuple(map(float, w)),
            frozenset(t for t, hit in zip(_turns(point.graph), taken) if hit))


def lamination_ratio(tt, target, k):
    """The ratio a_k of the tile-frequency-weighted lengths of the level-k
    leaf tiles at `target` and at tt.point, read off the tiles' edge
    counts."""
    r = tt.frequencies
    weighted = []
    for point in (target, tt.point):
        level = next(islice(tt.realized_leaves(point), k, None))
        lengths = point.graph.lengths
        weighted.append(math.fsum(rj * math.fsum(map(mul, tile.counts, lengths))
                                  for rj, tile in zip(r, level)))
    return weighted[0] / weighted[1]


def lamination_sequence(tt, target, k_max):
    """Reference for the ratios a_1..a_k_max of lamination_length_ratio."""
    r = tt.frequencies
    seq = []
    for k in range(1, k_max + 1):
        num = 0.0
        den = 0.0
        for j in range(tt.graph.n_edges):
            w = path_word(tt.point, leaf_path(tt, j + 1, k)).letters
            num += r[j] * based_length(target, w)
            den += r[j] * based_length(tt.point, w)
        seq.append(num / den)
    return seq


def realize_based(point, letters):
    """Reference for MarkedMetricGraph.realize_based: each half-edge of each
    generator loop (reversed for an inverse letter) pushed on a stack that
    cancels backtracking."""
    out = []
    for l in letters:
        loop = point.gen_loops[abs(l) - 1]
        if l < 0:
            loop = tuple(-h for h in reversed(loop))
        for h in loop:
            if out and out[-1] == -h:
                out.pop()
            else:
                out.append(h)
    return tuple(out)


def path_length(point, path):
    return math.fsum(point.graph.lengths[abs(h) - 1] for h in path)


def based_length(point, letters):
    """Length of the based path realize_based gives."""
    return path_length(point, realize_based(point, letters))


def loop_length(point, letters):
    """Reference for MarkedMetricGraph.loop_length: strip matching ends of
    the based path one pair at a time, then sum edge lengths."""
    path = list(realize_based(point, letters))
    while len(path) >= 2 and path[0] == -path[-1]:
        path = path[1:-1]
    return path_length(point, path)


def gates(f):
    """Reference for traintrack.gates: after each of 2n iterates of the
    direction map, merge every pair of directions at one vertex with one
    image."""
    g = f.graph
    dmap = f.direction_map()
    dirs = sorted(dmap, key=lambda h: (abs(h), h < 0))
    n = len(dirs)
    parent = {h: h for h in dirs}

    def find(h):
        while parent[h] != h:
            parent[h] = parent[parent[h]]
            h = parent[h]
        return h

    iterate = {h: h for h in dirs}
    for _ in range(2 * n):
        iterate = {h: dmap[iterate[h]] for h in dirs}
        for i, h1 in enumerate(dirs):
            for h2 in dirs[i + 1 :]:
                if g.init_of(h1) == g.init_of(h2) and iterate[h1] == iterate[h2]:
                    parent[find(h1)] = find(h2)
    groups = {}
    for h in dirs:
        groups.setdefault(find(h), []).append(h)
    return TrainTrackStructure(
        tuple(sorted((frozenset(v) for v in groups.values()), key=lambda s: min(abs(h) for h in s)))
    )


PF_RESIDUAL = 1e-12
PF_MAX_ITER = 100_000


def perron(A):
    """(eigenvalue, eigenvector normalized to sum 1) of a nonnegative
    irreducible matrix, by power iteration on A + I from the all-ones
    vector, until the residual max |A v - lam v| is below PF_RESIDUAL."""
    m = A.shape[0]
    v = np.ones(m)
    shifted = A + np.eye(m)
    for _ in range(PF_MAX_ITER):
        w = shifted @ v
        v = w / w.sum()
        lam = float(v @ (A @ v) / (v @ v))
        if np.max(np.abs(A @ v - lam * v)) < PF_RESIDUAL:
            return lam, v / v.sum()
    raise NotTrainTrackError("power iteration did not converge")


def strip_inverse_ends(letters):
    """(conjugator, core) with letters = conjugator + core + conjugator^-1
    and core starting and ending in no inverse pair: one pair per slice."""
    letters = list(letters)
    pre = []
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        pre.append(letters[0])
        letters = letters[1:-1]
    return tuple(pre), tuple(letters)


def dist_to_axis_point(ax, X, m):
    """Reference for Axis.dist_to_axis_point: the distance to the point G_m."""
    return distance(X, ax.point(m)).value


def search_axis_distance(ttF, start, X):
    """Reference for CutVertexSearchResult.axis_distance: the min over
    m in -3..3 of d(X, start . phi^m) + d(start . phi^m, X), each orbit
    point built by act and each distance read by distance."""
    phi = ttF.automorphism()
    orbit = [start.act(automorphism_power(phi, m)) for m in range(-3, 4)]
    return min(distance(X, G).value + distance(G, X).value for G in orbit)


def search_axis_distance_exhaustive(ttF, start, X):
    """Reference for CutVertexSearchResult.axis_distance, read as the search
    read it before its branch and bound: the min over m in -3..3 of
    d(X, start . phi^m) + d(start . phi^m, X), every distance read exactly
    by the readers of the axes of phi through the start and through X."""
    phi = ttF.automorphism()
    to_along = Axis(ttF, base=start, phi=phi)._reader(X)[1]
    to_back = Axis(ttF, base=X, phi=phi)._reader(start)[1]
    return min(to_along(m) + to_back(-m) for m in range(-3, 4))


def automorphism_power(phi, k):
    """phi^k, composed one factor of phi or phi^-1 at a time."""
    if k == 0:
        return Automorphism.identity(phi.rank)
    base = phi if k > 0 else phi.inverse()
    out = base
    for _ in range(abs(k) - 1):
        out = out.compose(base)
    return out


def project(X, ax, start=0, budget=40, margin=2):
    """Reference for axes.project, scanning dist_to_axis_point above over a
    window expanding from the level `start`."""
    return _scan(lambda m: dist_to_axis_point(ax, X, m), ax, start, budget, margin)


def project_exhaustive(X, ax, budget=40, margin=2):
    """Reference for axes.project: its scan before levels were read with a
    cap, every level of the window read exactly by X's reader and the
    window grown from X's shift."""
    k, read, _ = ax._reader(X)
    return _scan(read, ax, k, budget, margin)


def _scan(dist, ax, start, budget, margin):
    """The scan of m -> dist(m) over a window expanding from `start` until
    its minimum is interior, every level read."""
    lo, hi = start - margin, start + margin
    d = {}

    def ensure(a, b):
        for m in range(a, b + 1):
            if m not in d:
                d[m] = dist(m)

    ensure(lo, hi)
    while True:
        mn = min(d.values())
        argmin = sorted(m for m, v in d.items() if v <= mn + 1e-9)
        if argmin[0] >= lo + margin and argmin[-1] <= hi - margin:
            break
        if argmin[0] < lo + margin:
            lo -= margin
        if argmin[-1] > hi - margin:
            hi += margin
        if hi - lo > 2 * budget:
            raise ValueError(
                f"no interior minimum within parameter budget [{lo}, {hi}]"
            )
        ensure(lo, hi)
    unimodal = all(b - a == 1 for a, b in zip(argmin, argmin[1:]))
    return ProjectionResult(
        argmin=tuple(argmin),
        value=mn,
        diam_dist=(argmin[-1] - argmin[0]) * ax.step,
        scanned=(lo, hi),
        unimodal=unimodal,
    )


def length_values(alpha, ax, window):
    """Reference for the values of axes.length_profile: l(phi^m(alpha), base)
    with phi^m(alpha) applied as a word."""
    lo, hi = window
    return [(m, ax.base.loop_length(apply_cyclic(automorphism_power(ax.phi, m), alpha)))
            for m in range(lo, hi + 1)]


def enumerate_candidates(point):
    """Reference for graphs.enumerate_candidates: every raw embedded
    circle, figure eight and barbell of the graph, each read as a
    conjugacy class through path_word above, one CandidateLoop kept per
    class (the least kind, the first found among equals), sorted by kind
    and then by word_key of the class."""
    g = point.graph
    circles = _embedded_circles(g)
    raw = [("embedded", path) for _, _, path in circles]
    for i, (e1, v1, p1) in enumerate(circles):
        for e2, v2, p2 in circles[i + 1:]:
            if e1 & e2:
                continue
            common = v1 & v2
            if len(common) == 1:
                v = next(iter(common))
                a = _rotate_cycle_to(p1, v, g)
                b = _rotate_cycle_to(p2, v, g)
                raw += [("figure-eight", a + b), ("figure-eight", a + reverse_path(b))]
            elif not common:
                for arc in _arcs_between(g, v1, v2, e1 | e2):
                    a = _rotate_cycle_to(p1, g.init_of(arc[0]), g)
                    b = _rotate_cycle_to(p2, g.term_of(arc[-1]), g)
                    raw += [("barbell", a + arc + b + reverse_path(arc)),
                            ("barbell", a + arc + reverse_path(b) + reverse_path(arc))]
    order = {"embedded": 0, "figure-eight": 1, "barbell": 2}
    seen = {}
    for kind, path in raw:
        cls = CyclicWord.make(path_word(point, path).letters)
        if cls not in seen or order[kind] < order[seen[cls].kind]:
            seen[cls] = CandidateLoop(kind, tuple(path), cls, path_length(point, path))
    return sorted(seen.values(), key=lambda c: (order[c.kind], word_key(c.conjugacy_class.letters)))
