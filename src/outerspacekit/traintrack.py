"""Train-track self-maps: gates, Perron-Frobenius metrics, legality,
lamination leaves and the cut-vertex-free point search.

A graph self-map carries edge-image paths over a marked graph. When every
edge image is legal for the induced gate structure and the transition
matrix is irreducible, its Perron-Frobenius (PF) data give the metric in
which the map stretches every edge by the PF root lambda, and the
frequencies of the edges in the leaves. Both come from one solve in Python
ints (_perron): lambda is the float nearest the root, and nothing depends
on a floating-point eigen-solver.

The laminations are read off the leaf tiles f^k(e) realized at a point.
Adjacent tiles cancel only inside bounded end windows (Cooper 1987), so a
tile is held as its two end windows and its exact counts, a join reads
the windows in place, and once every tile is longer than twice its window
the windows of one level fix all later cancellation, and they repeat: one
finite walk per map and marking (TrainTrackMap.leaf_end) gives the exact
limit of the lamination length, summed in plain Python over the edges
whose images cancel, and the turns the leaves take, the finite
Df-closure of Bestvina-Feighn-Handel (GAFA 1997). There is no tolerance;
an end state that does not repeat by the level cap is an error.
"""

from __future__ import annotations

import copy
import itertools
import logging
import math
import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add, itemgetter, mul

from . import graphs
from .axes import Axis
from .graphs import (
    MarkedMetricGraph,
    MetricGraph,
    edge_map_pieces,
    json_value,
    point_from_dict,
    vertex_index,
)
from .whitehead import (
    WhiteheadGraph,
    cut_analysis,
    moves_from_cut_vertex,
)
from .words import (
    Automorphism,
    RankMismatchError,
    WhiteheadMove,
    cyclic_tighten,
    inverse_letters,
    join_pieces,
    letter_key,
    verify_inverse,
)

log = logging.getLogger(__name__)

LEAF_K_CAP = 60  # deepest leaf level a walk to the periodic end reads by default
# Half-edges a leaf tile keeps at each end, before any widening. A level's
# end state is compared only once every tile is longer than twice the
# window, so a narrower window repeats sooner, but below 4 the windows
# widen and the levels are rebuilt more often. Walking the benchmark's
# seed-1 lamination targets (12 per map and direction, 96 walks, 2-vCPU VM,
# best of 5) took 16.3 ms at window 48, 12.9 at 16, 11.5 at 8, 11.2 at 6,
# 11.6 at 4 and 13.4 at 1; the rank-4 walks repeat at mean level 32.9, 27.1,
# 23.6, 22.4, 22.2 and 22.2. At 8 only the plastic and rank-4 inverses widen.
LEAF_WINDOW = 8
SEARCH_MAX_STEPS = 200


class NotTrainTrackError(ValueError):
    """The self-map is not a usable (irreducible) train-track map."""


class GraphSelfMap:
    """A self-map of a marked graph: vertex images and tight edge images,
    checked by graphs.edge_map_pieces.

    `halfedge_images` maps each half-edge to its image path, reversed for a
    reversed edge: the pieces join_pieces substitutes to map a path."""

    def __init__(self, point: MarkedMetricGraph, vertex_images, edge_images):
        self.point = point
        self.vertex_images = {int(v): int(w) for v, w in vertex_images.items()}
        self.edge_images = {int(e): tuple(p) for e, p in edge_images.items()}
        self.halfedge_images = edge_map_pieces(point.graph, point.graph, self.vertex_images,
                                               self.edge_images)

    @property
    def graph(self) -> MetricGraph:
        return self.point.graph

    def direction_map(self):
        """First half-edge of each half-edge image."""
        return {h: path[0] for h, path in self.halfedge_images.items()}

    def transition_matrix(self) -> tuple:
        """A[j][i] counts crossings of edge i + 1 (either way) by the image
        of edge j + 1: a tuple of rows, tuples of ints."""
        m = self.graph.n_edges
        crossings = [Counter(map(abs, self.edge_images[e])) for e in range(1, m + 1)]
        return tuple(tuple(c[i] for i in range(1, m + 1)) for c in crossings)

    def automorphism(self) -> Automorphism:
        """Outer class of the induced map on the fundamental group: each
        generator loop mapped by join_pieces and read by path_word, which
        closes the image loop up through the spanning tree."""
        p = self.point
        return Automorphism(p.rank, [p.path_word(join_pieces(self.halfedge_images, loop))
                                     for loop in p.gen_loops])


@dataclass(frozen=True)
class TrainTrackStructure:
    gates: tuple  # frozensets of half-edges, partitioned by initial vertex

    def gate_of(self, h: int):
        for gate in self.gates:
            if h in gate:
                return gate
        raise KeyError(h)

    def is_legal_turn(self, h1: int, h2: int) -> bool:
        return self.gate_of(h1) is not self.gate_of(h2)


def gates(f: GraphSelfMap) -> TrainTrackStructure:
    """Gate partition induced by f: directions at one vertex share a gate
    when some iterate of the direction map Df sends them to one direction.

    Two iterates that meet stay equal. Two distinct directions that first
    meet at step j have distinct preimages of one direction at step j - 1,
    so not both are periodic there, and the directions before a
    non-periodic one are distinct and non-periodic: j <= N - 1 for N
    directions. So the gates are the classes of (initial vertex, Df^N(h)).
    """
    g = f.graph
    dmap = f.direction_map()
    dirs = sorted(dmap, key=letter_key)
    groups = {}
    for h in dirs:
        image = h
        for _ in dirs:
            image = dmap[image]
        groups.setdefault((g.init_of(h), image), []).append(h)
    return TrainTrackStructure(
        tuple(sorted((frozenset(v) for v in groups.values()), key=lambda s: min(abs(h) for h in s)))
    )


@dataclass
class TrainTrackReport:
    is_tt: bool
    irreducible: bool
    illegal_turn: object  # (h1, h2) crossed by some edge image, or None
    structure: TrainTrackStructure  # the gates of f
    matrix: tuple  # the transition matrix of f, rows of ints

    def check(self) -> "TrainTrackReport":
        """This report; raises NotTrainTrackError unless it is of an
        irreducible train-track map."""
        if not self.is_tt:
            raise NotTrainTrackError(
                f"not a train-track map: edge image crosses illegal turn {self.illegal_turn}"
            )
        if not self.irreducible:
            raise NotTrainTrackError("transition matrix is reducible")
        return self


def _path_turns(path):
    return [(-path[i], path[i + 1]) for i in range(len(path) - 1)]


def is_irreducible_matrix(A) -> bool:
    """True iff every index reaches every other along positive entries of
    the square matrix A, rows of numbers: by two breadth-first searches,
    index 0 reaches every index along A, and along its transpose. Only the
    signs of the entries are read, so no entry can overflow."""
    n = len(A)
    for M in (A, tuple(zip(*A))):
        reached = [0]
        for i in reached:
            reached += [j for j in range(n) if M[i][j] > 0 and j not in reached]
        if len(reached) < n:
            return False
    return True


def verify_train_track(f: GraphSelfMap) -> TrainTrackReport:
    """Check edge-image legality for the induced gates, and irreducibility;
    the report carries the gates and the transition matrix."""
    structure = gates(f)
    matrix = f.transition_matrix()
    illegal = next((turn for e in range(1, f.graph.n_edges + 1)
                    for turn in _path_turns(f.edge_images[e])
                    if not structure.is_legal_turn(*turn)), None)
    return TrainTrackReport(illegal is None, is_irreducible_matrix(matrix), illegal,
                            structure, matrix)


class TrainTrackMap:
    """A checked train-track map with its PF data (see pf_metric): lam, the
    float nearest the PF root of the transition matrix; point, the marked
    graph with the PF lengths, volume 1; and frequencies, the PF
    occurrence frequencies of the edges in the leaves, summing to 1."""

    def __init__(self, selfmap: GraphSelfMap, structure, matrix, lam, pf_point, frequencies):
        self.selfmap = selfmap
        self.structure = structure
        self.matrix = matrix
        self.lam = lam
        self.point = pf_point
        self.frequencies = frequencies
        self._ends = weakref.WeakKeyDictionary()  # marking object -> LeafEnd, see leaf_end

    @property
    def graph(self):
        return self.point.graph

    def automorphism(self) -> Automorphism:
        """The selfmap's automorphism, read anew on every call."""
        return self.selfmap.automorphism()

    def bcc_bound(self) -> float:
        # BCC(f) <= Lip(f) * vol = lam on the volume-1 PF metric
        return self.lam

    def legality_threshold(self) -> float:
        return 4.0 * self.bcc_bound() / (self.lam - 1.0)

    def leaf_pieces(self, edge_index: int, k: int):
        """(pieces, words, first): f^k(e) for the half-edge e = edge_index
        is the concatenation of pieces[h] over the half-edges h of first,
        and its word in the marking of self.point is join_pieces(words,
        first).

        With a = k // 2 and b = k - a, first is f^a(e), pieces[h] is f^b(h)
        and words[h] the letters of path_word(f^b(h)), all tuples of ints,
        for h in +-1..+-n_edges (lists indexed by h, a negative h from the
        end; index 0 is unused). The map is legal, so f^j(h) is the
        concatenation of the f^(j-1) pieces of the half-edges of f(h), with
        no cancellation: a half-edge whose image is one half-edge takes
        that piece as it is, and a longer image chains its pieces. A
        reversed half-edge reads its own reversed image, so no level
        reverses or negates anything. Free reduction is confluent, so the
        word of f^j(h) is join_pieces of the f^(j-1) words over f(h).
        Before anything is allocated, the length of f^k(e) is counted with
        Python ints, and a leaf longer than LEAF_PATH_MAX half-edges raises
        ValueError, as do a negative k and an edge_index outside
        +-1..+-n_edges.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        m = self.graph.n_edges
        if not 0 < abs(edge_index) <= m:
            raise ValueError(f"edge index {edge_index} is not one of +-1..+-{m}")
        ref = self.graph.ref(edge_index)
        halves = (*range(1, m + 1), *range(-m, 0))
        images = [self.selfmap.halfedge_images[h] for h in halves]
        # a level holds the value of f^j(h) at index h: one itemgetter
        # carries over the value of each one-half-edge image, and only the
        # longer images join
        plan = (itemgetter(0, *(image[0] for image in images)),
                [(i, image) for i, image in enumerate(images, 1) if len(image) > 1])
        # |f^j(e)| never decreases in j, since no edge image is empty
        counts = [1] * (2 * m + 1)
        limit = graphs.LEAF_PATH_MAX  # read per call, so patching graphs reaches it
        for j in range(1, k + 1):
            counts = _next_level(counts, plan, _sum_counts)
            if counts[edge_index] > limit:
                raise ValueError(f"leaf f^{k}({ref}) has more than {limit} half-edges "
                                 f"(f^{j}({ref}) has {counts[edge_index]})")
        pieces = [(), *((h,) for h in halves)]
        words = [(), *(self.point.path_word((h,)).letters for h in halves)]
        first = pieces[edge_index]
        for j in range(1, k - k // 2 + 1):
            pieces = _next_level(pieces, plan, _chain_pieces)
            words = _next_level(words, plan, join_pieces)
            if j == k // 2:
                first = pieces[edge_index]
        return pieces, words, first

    def leaf_path(self, edge_index: int, k: int):
        """f^k(e) for the half-edge e = edge_index, as a tuple of ints, with
        the errors of leaf_pieces: one chain of the f^(k - k // 2) pieces
        of the half-edges of f^(k // 2)(e), each about sqrt(len) long."""
        pieces, _, first = self.leaf_pieces(edge_index, k)
        return _chain_pieces(pieces, first)

    def leaf_end(self, point: MarkedMetricGraph, k_cap: int = LEAF_K_CAP) -> "LeafEnd":
        """The periodic end of the leaf tiles at `point` (see LeafEnd),
        walked once per marking object and kept, keyed weakly by it, so
        every with_lengths copy of `point` reads it.

        realized_leaves(point) is read until the end state of a level k, the
        (head, tail) windows of its tiles, all longer than twice their
        window, equals that of an earlier level K whose tiles are too. The
        windows of such a level fix those of the next, whatever the tile
        lengths: a join that does not widen the window keeps the head of
        its first piece and the tail of its last, and cancels inside their
        windows, so it gives a tile longer than twice the window again. So
        each later join reads the windows it read P = k - K levels before,
        the cancellations repeat with period P, and the end state repeats
        with it. The narrower the window, the sooner every tile is
        longer than twice it, and the sooner a level can repeat (see
        LEAF_WINDOW). With C_i the integer edge counts of level i, r the
        tile frequencies and A the matrix, r.A = lam r, so r.C_i / lam^i
        falls at each level by the cancelled counts r.(A.C_i - C_(i+1)) over
        lam^(i+1), and the limit functional closes:

            w = r.C_K / lam^K
                - (1 - lam^-P)^-1 sum_{K <= i < k} r.(A.C_i - C_(i+1)) / lam^(i+1).

        Only the edge columns of the counts enter w, and a row of
        A.C_i - C_(i+1) is zero unless the image of its edge has more than
        one piece, so w is summed in plain Python over those rows alone, in
        the order a matrix product sums them (see _closed_form).

        A turn at a level past K was in a tile at level K or made by a join
        of the levels K+1..k, which repeat; and a turn of a level from K on
        is taken again at a later level, in a window that repeats or in the
        middle of a tile, which no join reaches. So the leaf turns, those
        taken at infinitely many levels, are those of the levels K..k.
        Raises NotTrainTrackError when the end state does not repeat by
        k_cap.
        """
        end = self._ends.get(point.marking) or self._walk(point, k_cap)
        if end is None or end.level > k_cap:
            raise NotTrainTrackError(f"leaf tile ends of the map with lambda {self.lam:.9g} "
                                     f"do not repeat by level {k_cap}")
        self._ends[point.marking] = end
        return end

    def _walk(self, point: MarkedMetricGraph, k_cap: int):
        """The LeafEnd of leaf_end, or None when no level up to k_cap repeats."""
        levels, seen = [], {}
        for k, level in enumerate(itertools.islice(self.realized_leaves(point), k_cap + 1)):
            levels.append(level)
            if all(tile.n > 2 * len(tile.head) for tile in level):
                K = seen.setdefault(tuple((tile.head, tile.tail) for tile in level), k)
                if K < k:
                    break
        else:
            return None
        window = len(level[0].head)
        log.debug("leaf ends repeat at level %d: preperiod %d, period %d, window %d, "
                  "%d widenings", k, K, k - K, window, (window // LEAF_WINDOW).bit_length() - 1)
        m = point.graph.n_edges
        counts = [[tile.counts for tile in level] for level in levels[K:]]
        # an image of one piece passes a tile on to the next level, and a
        # reversed tile shares its counts: read each counts tuple once
        distinct = {id(c): c[m:] for level in counts for c in level}.values()
        return LeafEnd(self._closed_form(counts, K, m),
                       frozenset(itertools.compress(_turns(point.graph),
                                                    map(any, zip(*distinct)))),
                       k, k - K)

    def _closed_form(self, counts, K: int, m: int):
        """w of leaf_end from counts[i][j], the counts of the tile of edge j + 1
        at level K + i, for i = 0..P: only the m edge columns enter, and the
        rows of A.C_i - C_(i+1) are zero but for the edges whose image has
        more than one piece. Each sum runs left to right over the edges, as
        a matrix product does."""
        lam, r = self.lam, self.frequencies
        images = [self.selfmap.edge_images[e] for e in range(1, len(r) + 1)]
        joined = [(j, [abs(h) - 1 for h in image]) for j, image in enumerate(images)
                  if len(image) > 1]
        cancelled = [0] * m
        for i, (now, after) in enumerate(zip(counts, counts[1:])):
            total = None
            for j, parts in joined:
                row = [r[j] * (sum(column) - c)
                       for c, *column in zip(after[j][:m], *(now[l] for l in parts))]
                total = row if total is None else list(map(add, total, row))
            scale = lam ** (K + i + 1)
            cancelled = [c + x / scale for c, x in zip(cancelled, total)]
        P = len(counts) - 1
        return tuple(reduce(add, map(mul, r, column)) / lam ** K - c / (1.0 - lam ** -P)
                     for column, c in zip(zip(*counts[0]), cancelled))

    def realized_leaves(self, point: MarkedMetricGraph):
        """Yield, for k = 0, 1, 2, ..., one LeafTile per edge e: the tight
        based path at `point` of the tile f^k(e), read in F_n through
        self.point, summarized with the window LEAF_WINDOW or wider, its
        turns indexed by _turns(point.graph).

        Realizing at a point maps concatenation to tightened concatenation,
        and f^(k+1)(e) concatenates f^k(h) over the half-edges h of f(e), so
        each level is built from the one before; only one level is held.
        Adjacent tiles cancel in boundedly many half-edges (Cooper 1987), so
        the joins are tightened inside the end windows alone. When a
        cancellation, or a tile short enough to be kept whole, needs a
        half-edge beyond a window, the window doubles and the levels are
        rebuilt from level 0; every yielded level is exact, so memory is
        O(edges * window) per level instead of lambda^k. A join reads the
        half-edges it cancels in place in the windows, and a tile's reversed
        tile is built once, when an image first crosses its edge backwards
        (LeafTile.reversed). Once every tile is longer than twice the
        window, a level's joins read its windows alone, so the end windows
        of the levels are eventually periodic; leaf_end reads the levels
        until they repeat, and logs at DEBUG where they did and how often
        the window widened.
        """
        g = point.graph
        m = g.n_edges
        turns = _turns(g)
        # index[a][b]: the position of the turn {a, b} in a tile's counts
        index = [[None] * (2 * m + 1) for _ in range(2 * m + 1)]
        for i, (a, b) in enumerate(turns, m):
            index[a][b] = index[b][a] = i
        size = m + len(turns)
        images = [self.selfmap.edge_images[e] for e in range(1, self.graph.n_edges + 1)]
        plans = [[(abs(h) - 1, h < 0) for h in img] for img in images]
        realized = point.realization(self.point)
        roots = [realized[e] for e in range(1, len(images) + 1)]
        window = LEAF_WINDOW
        level = [LeafTile.of_path(p, index, size, window) for p in roots]
        depth = yielded = 0
        while True:
            if depth == yielded:
                yield level
                yielded += 1
            try:
                level = [_join([level[i].reversed() if back else level[i] for i, back in plan],
                               index, window)
                         for plan in plans]
                depth += 1
            except _WindowTooNarrow:
                window *= 2
                log.debug("leaf window widened to %d half-edges at level %d", window, depth + 1)
                level = [LeafTile.of_path(p, index, size, window) for p in roots]
                depth = 0


def _turns(graph: MetricGraph):
    """The turns of a graph, in a fixed order: the pairs of distinct
    half-edges at each vertex, vertex by vertex. A tight path takes the
    turn {-h_i, h_(i+1)} at each of its inner vertices."""
    return [turn for v in range(graph.n_vertices)
            for turn in itertools.combinations(graph.out_halfedges(v), 2)]


@dataclass(slots=True)
class LeafTile:
    """A tight half-edge path, summarized: its length n, its first and last
    `window` half-edges (both the whole path when n <= 2 * window), the
    window being the one its level is built with (see realized_leaves),
    and its counts, exact Python ints: how often it crosses each edge i + 1,
    either way, at position i, and then how often it takes each turn
    {-h_i, h_(i+1)} of consecutive half-edges, in the order of the turn
    table (_turns) of its graph. Its other fields never change, so its
    reversed tile, once built, is kept in `flipped`."""

    n: int
    head: tuple
    tail: tuple
    counts: tuple
    flipped: "LeafTile | None" = field(default=None, repr=False, compare=False)

    @classmethod
    def of_path(cls, path, index, size: int, window: int) -> "LeafTile":
        """The tile of a tight path; index[a][b] is the position of the turn
        {a, b} in counts, which has `size` entries."""
        path = tuple(path)
        counts = [0] * size
        for h in path:
            counts[abs(h) - 1] += 1
        for a, b in zip(path, path[1:]):
            counts[index[-a][b]] += 1
        if len(path) <= 2 * window:
            return cls(len(path), path, path, tuple(counts))
        return cls(len(path), path[:window], path[-window:], tuple(counts))

    def reversed(self) -> "LeafTile":
        # a turn is unordered, so reversing keeps the counts
        if self.flipped is None:
            self.flipped = LeafTile(self.n, inverse_letters(self.tail), inverse_letters(self.head),
                                    self.counts, self)
        return self.flipped

    def slice(self, start: int, stop: int):
        """Half-edges start..stop-1 of the path, when they lie in a window."""
        if stop <= len(self.head):
            return self.head[start:stop]
        offset = self.n - len(self.tail)
        if start >= offset:
            return self.tail[start - offset : stop - offset]
        raise _WindowTooNarrow


class _WindowTooNarrow(Exception):
    """A tightening needs a half-edge outside a tile's end windows."""


def _join(pieces, index, window: int) -> LeafTile:
    """LeafTile of the tightened concatenation of the paths of `pieces`;
    raises _WindowTooNarrow when it needs a half-edge outside a window.

    One piece is its own tile. Otherwise the counts are the sum of the
    surviving pieces' counts, less the half-edges and turns of the
    cancelled ends, plus the turn taken at each join; index[a][b] is the
    position of the turn {a, b} in the counts. The cancelled and joining
    half-edges are read in place: the start of a piece in its head, the
    end in its tail, both the whole path for a short piece."""
    if len(pieces) == 1:
        return pieces[0]
    # [tile, s, t]: a tile with s half-edges cancelled at its start, t at its end
    stack = []
    for tile in pieces:
        head, s = tile.head, 0
        while stack and s < tile.n:
            top = stack[-1]
            tail, t = top[0].tail, top[2]
            if t >= len(tail) or s >= len(head):
                raise _WindowTooNarrow
            if tail[-1 - t] != -head[s]:
                break
            s += 1
            top[2] = t + 1
            if top[1] + t + 1 == top[0].n:
                stack.pop()
        if s < tile.n:
            stack.append([tile, s, 0])
    counts = None
    n = 0
    before = None  # last half-edge of the surviving path so far
    for tile, s, t in stack:
        head, tail = tile.head, tile.tail
        last = len(tail) - 1 - t
        if s >= len(head) or last < 0:
            raise _WindowTooNarrow
        n += tile.n - s - t
        counts = list(tile.counts) if counts is None else list(map(add, counts, tile.counts))
        # drop the cancelled ends and the turns they take, add the join turn
        for i in range(s):
            counts[abs(head[i]) - 1] -= 1
            counts[index[-head[i]][head[i + 1]]] -= 1
        for i in range(last, len(tail) - 1):
            counts[abs(tail[i + 1]) - 1] -= 1
            counts[index[-tail[i]][tail[i + 1]]] -= 1
        if before is not None:
            counts[index[-before][head[s]]] += 1
        before = tail[last]
    if n <= 2 * window:
        path = tuple(itertools.chain.from_iterable(
            tile.slice(s, tile.n - t) for tile, s, t in stack))
        return LeafTile(n, path, path, tuple(counts))
    head = tail = ()
    for tile, s, t in stack:
        head += tile.slice(s, s + min(window - len(head), tile.n - s - t))
        if len(head) == window:
            break
    for tile, s, t in reversed(stack):
        tail = tile.slice(tile.n - t - min(window - len(tail), tile.n - s - t), tile.n - t) + tail
        if len(tail) == window:
            break
    return LeafTile(n, head, tail, tuple(counts))


def _chain_pieces(pieces, keys) -> tuple:
    """The concatenation of pieces[h] for h in keys, as one tuple."""
    return tuple(itertools.chain.from_iterable(map(pieces.__getitem__, keys)))


def _sum_counts(counts, keys) -> int:
    return sum(map(counts.__getitem__, keys))


def _next_level(level, plan, join) -> list:
    """The leaf_pieces level after `level`, by plan = (gather, joins):
    gather carries over level[h] for each image that is the one half-edge
    h, and join(level, image) fills index i for each (i, image) of joins."""
    gather, joins = plan
    out = list(gather(level))
    for i, image in joins:
        out[i] = join(level, image)
    return out


def _perron(A):
    """(lam, lengths, frequencies) of an irreducible nonnegative integer
    matrix A, rows of ints: lam the float nearest its PF root, and its
    right and left PF vectors (A.lengths = lam lengths, frequencies.A =
    lam frequencies), positive and normalized to sum 1.

    One solve in Python ints. The Faddeev-LeVerrier recurrence, B_1 = I,
    c_(n-k) = -tr(A.B_k) / k and B_(k+1) = A.B_k + c_(n-k) I, gives the
    characteristic polynomial p(x) = sum c_i x^i and adj(xI - A) =
    sum_k B_k x^(n-k); A.B_k is summed row by row over the nonzero entries
    of A. Every eigenvalue has real part at most lam, so by Gauss-Lucas p,
    p' and p'' are positive on (lam, inf), and Newton's method from the
    largest row sum, which is at least lam, falls monotonically to lam; p
    and p' are evaluated exactly at each float. Exact sign tests of p at
    the midpoints to the neighbouring floats then fix the nearest one. lam
    is a simple root and adj(lam I - A) a positive multiple of v.w^T, for
    the right and left PF vectors v and w, so its first column and first
    row, evaluated exactly at that float, give the lengths and the
    frequencies, each rounded once by an int / int division.
    """
    n = len(A)
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in A]
    p, adj = [1], []  # p highest degree first; adj[k - 1] = B_k
    B = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        adj.append(B)
        product = []
        for row in rows:
            out = [0] * n
            for j, a in row:
                out = list(map(add, out, map(a.__mul__, B[j])))
            product.append(out)
        c = -sum(product[i][i] for i in range(n)) // k
        p.append(c)
        for i in range(n):
            product[i][i] += c
        B = product
    derivative = [c * (n - i) for i, c in enumerate(p[:-1])]
    x = float(max(map(sum, A)))
    while True:
        num, den = x.as_integer_ratio()
        value = _scaled(p, num, den)
        if value <= 0:
            break
        after = x - value / (_scaled(derivative, num, den) * den)
        if after >= x:
            break
        x = after

    def above(y, z):
        """p > 0 at the midpoint of the floats y and z."""
        (a, b), (c, d) = y.as_integer_ratio(), z.as_integer_ratio()
        return _scaled(p, a * d + c * b, 2 * b * d) > 0

    while not above(x, up := math.nextafter(x, math.inf)):
        x = up
    while above(down := math.nextafter(x, -math.inf), x):
        x = down
    num, den = x.as_integer_ratio()
    column = [_scaled([Bk[i][0] for Bk in adj], num, den) for i in range(n)]
    row = [_scaled([Bk[0][j] for Bk in adj], num, den) for j in range(n)]
    return x, _normalized(column), _normalized(row)


def _normalized(vector) -> tuple:
    """vector / sum(vector), each entry one int / int division."""
    total = sum(vector)
    return tuple(v / total for v in vector)


def _scaled(coeffs, num: int, den: int) -> int:
    """den^d q(num / den), exactly, for the polynomial q of degree d with
    int coefficients `coeffs`, highest degree first, and den > 0: an int
    with the sign of q(num / den)."""
    value, scale = coeffs[0], 1
    for c in coeffs[1:]:
        scale *= den
        value = value * num + c * scale
    return value


def pf_metric(f: GraphSelfMap) -> TrainTrackMap:
    """The PF data of an irreducible train-track self-map, from one _perron
    solve of its transition matrix once verify_train_track(f).check() passes:
    lam, the PF lengths as the metric of the map's point and the frequencies.

    The least row sum of the matrix is at least 1, since no edge image is
    empty, and lam of an irreducible matrix exceeds its least row sum
    unless all row sums are equal: so lam = 1 exactly when every row sum
    is 1, and such a map, of finite order, is rejected. The map over the
    PF point is a copy of f that shares its checked image tables.
    """
    report = verify_train_track(f).check()
    if all(sum(row) == 1 for row in report.matrix):
        raise NotTrainTrackError("expansion factor 1: the transition matrix is a permutation "
                                 "matrix (finite order map)")
    lam, lengths, frequencies = _perron(report.matrix)
    pf_point = f.point.with_lengths(list(lengths))
    # the images are checked already and do not depend on the lengths
    selfmap = copy.copy(f)
    selfmap.point = pf_point
    return TrainTrackMap(selfmap, report.structure, report.matrix, lam, pf_point, frequencies)


@dataclass
class LegalityReport:
    bcc_bound: float
    kappa: float
    legal_pieces: list  # (path, metric length), maximal legal subpaths
    leg: float
    total_length: float


def legality_report(alpha, tt: TrainTrackMap) -> LegalityReport:
    """Split the tight loop of a class, realized at tt.point, at its illegal
    turns; LEG is the fraction of length carried by legal pieces longer
    than the threshold kappa."""
    g = tt.graph
    path = cyclic_tighten(tt.point.realize_based(alpha.letters))
    if not path:
        raise ValueError("empty loop")
    total = g.path_length(path)
    n = len(path)
    # positions i where the turn (path[i], path[i+1]) is illegal
    illegal_after = [i for i in range(n)
                     if not tt.structure.is_legal_turn(-path[i], path[(i + 1) % n])]
    if not illegal_after:
        pieces = [path]
    else:
        # a piece runs from after one illegal turn to the next, wrapping once
        doubled = path + path
        bounds = illegal_after + [illegal_after[0] + n]
        pieces = [doubled[a + 1 : b + 1] for a, b in zip(bounds, bounds[1:])]
    kappa = tt.legality_threshold()
    with_lengths = [(p, g.path_length(p)) for p in pieces]
    leg = math.fsum(l for (_, l) in with_lengths if l > kappa) / total
    return LegalityReport(
        bcc_bound=tt.bcc_bound(),
        kappa=kappa,
        legal_pieces=with_lengths,
        leg=leg,
        total_length=total,
    )


@dataclass(frozen=True)
class LeafEnd:
    """What the leaf tiles of a map at one marking give once their end state
    repeats at level K + P (see TrainTrackMap.leaf_end)."""

    functional: tuple  # w = lim r.C_k / lam^k: the lamination length at lengths l is <w, l>
    turns: frozenset  # the (a, b) of the point's turn table (_turns) taken at levels K..K+P
    level: int  # K + P, the deepest level read
    period: int  # P: the end state of level K + P is that of level K


@dataclass
class LaminationLengthEstimate:
    frequencies: tuple  # the tile frequencies of the map, TrainTrackMap.frequencies
    value: float
    k_used: int  # the repeat level read, 0 at the base's own marking
    converged: bool = True  # every estimate is the exact limit


def lamination_length_ratio(
    tt: TrainTrackMap, target: MarkedMetricGraph, k_cap: int = LEAF_K_CAP
) -> LaminationLengthEstimate:
    """Length of the attracting lamination in `target`, scaled by the
    train-track base: the limit of the tile-frequency-weighted length
    ratios a_k = r.C_k.l_target / r.C_k^base.l_base.

    The numerator's limit over lam^k is <w, l_target>, with w the
    functional of tt.leaf_end(target, k_cap), which raises
    NotTrainTrackError when the leaf ends do not repeat by level k_cap.
    At the base's own marking f is legal, so no join cancels, the counts
    are the rows of A^k and r.A = lam r: w is r, read with no walk, and
    the ratio is exactly 1.0. The denominator's limit is <r, l_base>.
    """
    if target.rank != tt.point.rank:
        raise RankMismatchError.between(target.rank, tt.point.rank)
    if k_cap < 1:
        raise ValueError("k_cap must be >= 1")
    r = tt.frequencies
    if target.marking is tt.point.marking:
        w, k = r, 0
    else:
        end = tt.leaf_end(target, k_cap)
        w, k = end.functional, end.level
    num = math.fsum(map(mul, w, target.graph.lengths))
    return LaminationLengthEstimate(r, num / math.fsum(map(mul, r, tt.graph.lengths)), k)


# -- lamination Whitehead graphs and the cut-vertex-free point search ----


def lamination_whitehead_graph(tt: TrainTrackMap, point: MarkedMetricGraph):
    """(graph, level): the Whitehead graph, over the oriented edges of
    `point`, a rose, of tt's lamination realized at `point`, and the repeat
    level of tt.leaf_end(point), whose leaf turns are its edges."""
    if point.graph.n_vertices != 1:
        raise ValueError("lamination Whitehead graphs are computed at roses")
    end = tt.leaf_end(point)
    return WhiteheadGraph.from_counter(point.rank, Counter(end.turns)), end.level


@dataclass
class CutVertexSearchResult:
    point: MarkedMetricGraph
    moves: list  # WhiteheadMove over the rose's edge alphabet
    plus_trace: list  # lamination length estimates per visited point
    minus_trace: list
    combined_graph: WhiteheadGraph
    stabilization_k: int  # the larger repeat level of the two final leaf walks
    # distance of F to the orbit of the start: the min over m in -3..3 of
    # d(F, start . phi^m) + d(start . phi^m, F)
    axis_distance: float


def _acted_by_edge_move(X: MarkedMetricGraph, move: WhiteheadMove):
    """Act so that realized edge paths transform by the edge-alphabet move."""
    nu = move.automorphism(X.rank)
    return X.act(X.marking_inverse().compose(nu).compose(X.marking_map()))


def no_cut_vertex_search(
    ttF: TrainTrackMap, ttB: TrainTrackMap, start: MarkedMetricGraph
) -> CutVertexSearchResult:
    """Find a rose point where the combined Whitehead graph of the attracting
    and repelling laminations is connected with no cut vertex.

    While a cut vertex exists, act by the Whitehead move derived from it
    that strictly decreases both lamination length functionals the most.
    The graphs and the lengths are read off one leaf walk per map and
    visited point (TrainTrackMap.leaf_end), so both are exact; when no
    cut-vertex move decreases both lengths the search raises
    NotTrainTrackError.

    The axis distance of the point F found is read off two axis walks:
    Out(F_n) acts by isometries, so d(start . phi^m, F) is
    d(start, F . phi^-m), a distance to the axis of phi through F, and
    d(F, start . phi^m) one to the axis through the start, each point read
    once by its axis's reader (see Axis._reader, which equals distance bit
    for bit). The min over m in [-3, 3] is a branch and bound, m read
    outward from 0: the second distance of each sum is read with the cap
    best - first + 1e-9, best the least sum so far. A read above that cap
    is a lower bound whose sum exceeds best, the 1e-9 being far above the
    rounding of sums of this size, so the min is the float of the exact
    sums.
    """
    phi = ttF.automorphism()
    psi = ttB.automorphism()
    if not verify_inverse(phi, psi):
        raise ValueError("backward map is not inverse to the forward map")
    if start.graph.n_vertices != 1:
        raise ValueError("search starts at a rose point")
    if start.rank != ttF.point.rank:
        raise RankMismatchError.between(start.rank, ttF.point.rank)
    X = start
    moves = []
    plus_trace = [lamination_length_ratio(ttF, X).value]
    minus_trace = [lamination_length_ratio(ttB, X).value]
    for _ in range(SEARCH_MAX_STEPS):
        gF, kF = lamination_whitehead_graph(ttF, X)
        gB, kB = lamination_whitehead_graph(ttB, X)
        combined = gF.union(gB)
        report = cut_analysis(combined)
        if report.isolated or not report.connected:
            raise NotTrainTrackError(
                "combined lamination Whitehead graph is disconnected "
                "(input not fully irreducible)"
            )
        if not report.cut_vertices:
            to_along = Axis(ttF, base=start, phi=phi)._reader(X)[1]
            to_back = Axis(ttF, base=X, phi=phi)._reader(start)[1]
            prox = math.inf
            for m in sorted(range(-3, 4), key=abs):
                a = to_along(m)
                prox = min(prox, a + to_back(-m, prox - a + 1e-9))
            return CutVertexSearchResult(
                X, moves, plus_trace, minus_trace, combined, max(kF, kB), prox)
        viable = []
        for move in moves_from_cut_vertex(report):
            X2 = _acted_by_edge_move(X, move)
            p2 = lamination_length_ratio(ttF, X2).value
            m2 = lamination_length_ratio(ttB, X2).value
            if p2 < plus_trace[-1] - 1e-9 and m2 < minus_trace[-1] - 1e-9:
                drop = (plus_trace[-1] - p2) + (minus_trace[-1] - m2)
                viable.append(((-drop, move.sort_key()), move, X2, p2, m2))
        if not viable:
            raise NotTrainTrackError("no cut-vertex move decreases both lamination lengths")
        _, move, X, plus, minus = min(viable)
        moves.append(move)
        plus_trace.append(plus)
        minus_trace.append(minus)
    raise NotTrainTrackError(f"cut-vertex search did not terminate in {SEARCH_MAX_STEPS} steps")


# -- file format ----------------------------------------------------------


def selfmap_from_dict(data: dict) -> GraphSelfMap:
    """The self-map a file gives: its "graph", read by point_from_dict
    (an identity marking, a -> e1, b -> e2, ..., is certified and inverted
    with no fold: MarkedMetricGraph.marking_map), its "edge_images", edge id -> list of refs, and optionally its
    "vertex_images", vertex name -> vertex name; ValueError naming the key
    of any part missing, unknown or of the wrong JSON type."""
    data = json_value(data, dict, "a self-map")
    try:
        graph, images = data["graph"], data["edge_images"]
    except KeyError as e:
        raise ValueError(f"self-map file missing key {e}") from None
    point = point_from_dict(json_value(graph, dict, "key 'graph'"))
    g = point.graph
    eidx = {eid: i + 1 for i, eid in enumerate(g.edge_ids)}
    edge_images = {}
    for k, path in json_value(images, dict, "key 'edge_images'").items():
        if str(k) not in eidx:
            raise ValueError(f"unknown edge id {str(k)!r} in edge_images")
        path = json_value(path, list, f"edge image {str(k)!r}")
        try:
            edge_images[eidx[str(k)]] = tuple(map(g.halfedge, path))
        except KeyError as err:
            raise ValueError(f"unknown edge id {err.args[0]!r} in edge image") from None
    vertices = {str(name): i for i, name in enumerate(map(str, graph["vertices"]))}
    if "vertex_images" in data:
        vertex_images = {vertex_index(vertices, k, "vertex_images"):
                         vertex_index(vertices, v, "vertex_images")
                         for k, v in json_value(data["vertex_images"], dict,
                                                "key 'vertex_images'").items()}
    else:  # read off the nonempty images; GraphSelfMap rejects an empty one
        given = [e for e, path in edge_images.items() if path]
        vertex_images = {
            g.init_of(e): g.init_of(edge_images[e][0]) for e in given
        } | {g.term_of(e): g.term_of(edge_images[e][-1]) for e in given}
    return GraphSelfMap(point, vertex_images, edge_images)
