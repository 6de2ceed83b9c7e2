"""The asymmetric Lipschitz distance on Outer Space.

The distance from x to y is the log of the maximal stretch over the
candidate loops of x (embedded circles, figure eights, barbells); a
brute-force oracle maximizes over all conjugacy classes up to a length
bound instead. Explicit linear maps get their Lipschitz constant and green
subgraph computed edge by edge.

A point's graph holds its candidate paths (MetricGraph.candidate_paths),
in graph order, shared by every marking and every with_lengths copy of
the graph; that is the one order distance reads them in. A point's
marking object (graphs.Marking) holds what its graph and marking fix at
any edge lengths, shared by all its with_lengths copies: the geometric
table, marking maps, label and loop tables, and nothing of other markings.
What depends on lengths belongs to the point instance, which never
changes its lengths (with_lengths and act make new instances), and is
summed once:

- lx, x.candidate_lengths(): the lengths of x's candidate paths, one
  math.fsum per distinct edge multiset of them, gathered by a plan the
  graph keeps with its candidate paths; twin figure eights and twin
  barbells share a multiset, and fsum is correctly rounded, so each value
  is the float graph.path_length gives for its path;
- ly, y.loop_lengths(x): the lengths of y.tight_loops(x), kept by y and
  keyed weakly by x's marking object, so an entry dies with that marking;
  the loops, which grow with how far apart the markings are, are not.

`distance(x, y)` is the log of the largest ratio ly/lx of the two lists,
so a scan of many points against one target sums no path at the target
after its first query of each marking, and reads no conjugacy class. The
witness and table read classes, and only when a caller reads them.
`loop_length`, which `distance_oracle` reads, realizes every class anew
and is the uncached reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import truediv

from .graphs import (
    CandidateLoop,
    MarkedMetricGraph,
    edge_map_pieces,
    enumerate_candidates,
)
from .words import (
    RankMismatchError,
    enumerate_cyclic_words,
    inverse_letters,
    join_pieces,
    reduce_letters,
    word_key,
)

TIE_TOL = 1e-12


class DistanceResult:
    """d(x, y) from the candidate lengths lx at x and ly at y, in x's graph
    order. `value` is the log of the largest ratio ly/lx; the witness and
    table read conjugacy classes and are built on first read."""

    def __init__(self, x: MarkedMetricGraph, lx, ly):
        self._x, self._lx, self._ly = x, lx, ly
        self.value = math.log(max(map(truediv, ly, lx)))

    @cached_property
    def _ratios(self):
        return list(map(truediv, self._ly, self._lx))

    @cached_property
    def witness(self) -> CandidateLoop:
        """The candidate achieving the max: among the ratios within TIE_TOL
        of the largest, the one whose class is least in word_key order. Only
        the classes of these tied paths are read."""
        ratios = self._ratios
        cut = max(ratios) * (1.0 - TIE_TOL)
        paths = self._x.graph.candidate_paths()
        tied = [(self._x.path_class(paths[i][1]), i) for i, r in enumerate(ratios) if r >= cut]
        cls, i = min(tied, key=lambda t: word_key(t[0].letters))
        kind, path = paths[i]
        return CandidateLoop(kind, path, cls, self._lx[i])

    @cached_property
    def table(self) -> list:
        """(conjugacy class, length at x, length at y, ratio) for each
        candidate of x, in the class order of enumerate_candidates(x)."""
        at = {path: i for i, (_, path) in enumerate(self._x.graph.candidate_paths())}
        rows = []
        for c in enumerate_candidates(self._x):
            i = at[c.path]
            rows.append((c.conjugacy_class, self._lx[i], self._ly[i], self._ratios[i]))
        return rows


def distance(x: MarkedMetricGraph, y: MarkedMetricGraph) -> DistanceResult:
    """Lipschitz distance d(x, y) maximized over the candidates of x.

    The lengths at x are x.candidate_lengths() and those at y are
    y.loop_lengths(x), both in x's graph order and kept by their point
    instances, so a repeated query sums no path and realizes no loop; the
    same math.fsum over the same paths gives the floats c.length and
    y.loop_length would. The value is a max, so it reads no class.
    """
    if x.rank != y.rank:
        raise RankMismatchError.between(x.rank, y.rank)
    return DistanceResult(x, x.candidate_lengths(), y.loop_lengths(x))


def distance_oracle(x: MarkedMetricGraph, y: MarkedMetricGraph, max_len: int) -> float:
    """Log max stretch over all conjugacy classes of word length <= max_len."""
    if max_len < 1:
        raise ValueError("oracle length bound must be >= 1")
    best = 0.0
    first = True
    for w in enumerate_cyclic_words(x.rank, max_len):
        r = y.loop_length(w) / x.loop_length(w)
        if first or r > best:
            best = r
            first = False
    return math.log(best)


@dataclass
class LinearMapSpec:
    """A candidate difference of markings given combinatorially.

    vertex_images maps x-vertices to y-vertices; edge_images maps each
    forward half-edge index (1-based) of x to a half-edge path in y.
    """

    vertex_images: dict
    edge_images: dict


@dataclass
class LipschitzReport:
    slopes: dict  # edge id -> slope
    lip: float
    green: list  # edge ids attaining the max slope


def _common_conjugator_is_inner(images):
    """True iff x_i -> images[i] is an inner automorphism of F_n, n the
    number of images. The reduced u x_i u^-1 is u' x_i u'^-1, u' = u without
    its trailing x_i-powers, and u cannot end in both an x_1- and an
    x_2-power: so u is the first half of the first image or of the second,
    and each is checked on every image."""
    for im in images[:2]:
        u = tuple(im[:(len(im) - 1) // 2])
        inv_u = inverse_letters(u)
        if all(tuple(w) == reduce_letters(u + (i,) + inv_u) for i, w in enumerate(images, 1)):
            return True
    return False


def linear_map_lipschitz(
    spec: LinearMapSpec, x: MarkedMetricGraph, y: MarkedMetricGraph
) -> LipschitzReport:
    """Per-edge slopes, Lipschitz constant and green subgraph of a linear map.

    The vertex and edge images are checked as a self-map's are
    (graphs.edge_map_pieces: every edge image tight and nonempty), and the
    map must be a difference of markings: its images of the generator
    loops of x must agree with the marking of y up to a single common
    conjugation (checked exactly on the fundamental group).
    """
    gx, gy = x.graph, y.graph
    image = edge_map_pieces(gx, gy, spec.vertex_images, spec.edge_images)
    # consistency with the markings, checked on generator loops: path_word
    # closes each image loop up through y's spanning tree
    images = [y.path_word(join_pieces(image, loop)).letters for loop in x.gen_loops]
    if not _common_conjugator_is_inner(images):
        raise ValueError("edge images are inconsistent with the markings")
    slopes = {}
    for e in range(1, gx.n_edges + 1):
        if gx.lengths[e - 1] == 0.0:
            raise ValueError(f"edge {gx.edge_ids[e - 1]} has length 0: its slope is undefined")
        slopes[gx.edge_ids[e - 1]] = gy.path_length(image[e]) / gx.lengths[e - 1]
    lip = max(slopes.values())
    green = [eid for eid, s in sorted(slopes.items()) if s >= lip * (1.0 - 1e-9)]
    return LipschitzReport(slopes=slopes, lip=lip, green=green)
