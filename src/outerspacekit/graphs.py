"""Points of Outer Space: metric graphs with markings.

A metric graph is stored with indexed edges; the half-edge +(i+1) traverses
edge i forward, -(i+1) backward. A marking fixes a basepoint and one closed
edge loop per free-group generator; edge labels (words conjugating the
geometric basis back to F_n) are derived by collapsing a deterministic
spanning tree and inverting the induced map on fundamental groups. The
labels invert the marking lazily: validation certifies the marking map by
the basis fold alone, and its inverse images are read when a label is.

Paths are mapped and read through words.join_pieces, the one
substitution, whose pieces must be freely reduced: a half-edge's
geometric letter (empty on the spanning tree) for marking_map, its label
(a reduced word, empty on the tree) for path_word, its new edge (empty on
the forest) for minimal_model, a tightened generator loop for
realize_based, and a tight based path per half-edge (realization) for
tight_loops. A path is a tuple of half-edges; files and
output name a half-edge by its edge id, with a "~" in front for the edge
reversed (MetricGraph.ref writes it and MetricGraph.halfedge reads it).
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .words import (
    Automorphism,
    CyclicWord,
    RankMismatchError,
    Word,
    cyclic_tighten,
    find,
    inverse_letters,
    join_pieces,
    letter_key,
    piece_table,
    random_automorphism,
    reduce_letters,
    word_key,
)

LENGTH_TOL = 1e-9
# half-edges of the longest path a computation may build: a leaf f^k(e)
# (traintrack.leaf_pieces, `osk tt leaf`), the realization of one marking at
# another point, a level of an axis walk or the marking loops of an axis
# point; see check_path_size
LEAF_PATH_MAX = 10_000_000


def check_path_size(size: int, what: str):
    """Raise ValueError naming LEAF_PATH_MAX when size, the half-edges
    `what` counts, is more than it."""
    if size > LEAF_PATH_MAX:
        raise ValueError(f"{what} {size} half-edges, more than LEAF_PATH_MAX ({LEAF_PATH_MAX})")


class InvalidPointError(ValueError):
    """A graph/marking violates an Outer Space invariant."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class MetricGraph:
    """Finite graph with an edge metric. Vertices are 0..n_vertices-1."""

    __slots__ = ("n_vertices", "edge_ids", "ends", "lengths", "_out", "_inc", "_half", "_loops")

    def __init__(self, n_vertices, edge_ids, ends, lengths):
        self.n_vertices = int(n_vertices)
        self.edge_ids = tuple(edge_ids)
        self.ends = tuple((int(u), int(v)) for u, v in ends)
        self._set_lengths(lengths)
        out = [[] for _ in range(self.n_vertices)]
        for i, (u, v) in enumerate(self.ends):
            out[u].append(i + 1)
            out[v].append(-(i + 1))
        self._out = tuple(tuple(sorted(hs, key=letter_key)) for hs in out)
        # half-edge -> (initial vertex, terminal vertex), for h in +-1..+-n_edges
        self._inc = {s * (i + 1): e[::s] for i, e in enumerate(self.ends) for s in (1, -1)}
        # [(candidate paths, gathers, gather index)] once computed, shared by
        # with_lengths copies; see candidate_paths and _gather_plan
        self._loops = []

    def _set_lengths(self, lengths):
        self.lengths = tuple(float(x) for x in lengths)
        if not (len(self.edge_ids) == len(self.ends) == len(self.lengths)):
            raise ValueError("edge tables must have equal lengths")
        # half-edge length table, h -> length of h for h in +-1..+-n_edges
        self._half = {s * (i + 1): l for i, l in enumerate(self.lengths) for s in (1, -1)}

    @property
    def n_edges(self):
        return len(self.ends)

    def init_of(self, h: int) -> int:
        """Initial vertex of a half-edge; KeyError on a half-edge outside
        +-1..+-n_edges, as for term_of."""
        return self._inc[h][0]

    def term_of(self, h: int) -> int:
        return self._inc[h][1]

    def _outside(self, h) -> ValueError:
        """The error for a half-edge h outside +-1..+-n_edges."""
        return ValueError(f"half-edge {h!r} is not one of +-1..+-{self.n_edges}")

    def ref(self, h: int) -> str:
        """The text of a half-edge in files and output: its edge id, with a
        "~" in front for the edge reversed."""
        return ("~" if h < 0 else "") + self.edge_ids[abs(h) - 1]

    def halfedge(self, ref: str) -> int:
        """The half-edge a ref names, read as `ref` writes it; KeyError
        naming the edge id when no edge has it, or the ref when it is not
        a string."""
        if not isinstance(ref, str):
            raise KeyError(ref)
        name = ref.removeprefix("~")
        if name not in self.edge_ids:
            raise KeyError(name)
        h = self.edge_ids.index(name) + 1
        return h if name == ref else -h

    def path_length(self, path) -> float:
        """Length of a half-edge path; KeyError on a half-edge outside
        +-1..+-n_edges.

        math.fsum is correctly rounded, so the float does not depend on the
        order of the path.
        """
        return math.fsum(map(self._half.__getitem__, path))

    def out_halfedges(self, v: int):
        return self._out[v]

    def valence(self, v: int) -> int:
        return len(self._out[v])

    def volume(self) -> float:
        return math.fsum(self.lengths)

    def with_lengths(self, lengths) -> "MetricGraph":
        """The same graph with new edge lengths, sharing its incidence tables."""
        new = MetricGraph.__new__(MetricGraph)
        new.n_vertices, new.edge_ids, new.ends, new._out, new._inc, new._loops = (
            self.n_vertices, self.edge_ids, self.ends, self._out, self._inc, self._loops)
        new._set_lengths(lengths)
        return new

    def candidate_paths(self):
        """The candidate loops of the graph as (kind, path) pairs, in graph
        order: embedded circles, figure eights, barbells, each a tight
        half-edge cycle, one per cycle up to rotation and inversion, and so
        one per conjugacy class in any marking (see _candidate_paths).

        Which loops are candidates depends on the graph alone (Francaviglia-
        Martino), so the list is computed once, kept with the incidence
        tables, and read by every marking and every with_lengths copy. The
        gather plan that MarkedMetricGraph.candidate_lengths sums from is
        built with it and shared the same way (see _gather_plan).
        """
        return self._candidates()[0]

    def _candidates(self):
        """(candidate_paths(), gathers, index), as _gather_plan gives the
        last two, computed on first use."""
        if not self._loops:
            paths = _candidate_paths(self)
            self._loops.append((paths, *_gather_plan(paths, self.n_edges)))
        return self._loops[0]

    def betti(self) -> int:
        return self.n_edges - self.n_vertices + 1


def tighten_path(graph: MetricGraph, path):
    """Remove backtracking from a half-edge path (homotopy rel endpoints).

    The one incidence check: one pass along the path raises ValueError at
    the first half-edge outside +-1..+-n_edges (graph._outside) or the first
    pair of consecutive half-edges that do not meet, whichever comes first.
    """
    inc = graph._inc
    at = None
    for i, h in enumerate(path):
        try:
            u, v = inc[h]
        except KeyError:
            raise graph._outside(h) from None
        if u != at and i:
            raise ValueError(f"broken incidence at position {i - 1}")
        at = v
    return reduce_letters(path)


def edge_map_pieces(source: MetricGraph, target: MetricGraph, vertex_images, edge_images):
    """The half-edge table of a graph map from source to target: each
    half-edge h of source -> its image path in target, reversed for a
    reversed edge, the pieces join_pieces substitutes to map a path.

    The one edge-map check: every vertex of source has an image, and each
    edge e (1-based) a nonempty tight image path edge_images[e] in target,
    from the image of its initial vertex to that of its terminal vertex.
    Raises ValueError naming the first vertex or edge id that fails.
    """
    for v in range(source.n_vertices):
        if v not in vertex_images:
            raise ValueError(f"missing vertex image for vertex {v}")
    paths = []
    for e, (u, v) in enumerate(source.ends, 1):
        name = source.edge_ids[e - 1]
        path = tuple(edge_images.get(e) or ())
        if not path:
            raise ValueError(f"edge {name} has empty or missing image")
        if tighten_path(target, path) != path:
            raise ValueError(f"image of edge {name} is not tight")
        if target.init_of(path[0]) != vertex_images[u]:
            raise ValueError(f"image of edge {name} starts at wrong vertex")
        if target.term_of(path[-1]) != vertex_images[v]:
            raise ValueError(f"image of edge {name} ends at wrong vertex")
        paths.append(path)
    return piece_table(paths)


@dataclass(frozen=True)
class CandidateLoop:
    kind: str  # embedded | figure-eight | barbell
    path: tuple
    conjugacy_class: CyclicWord
    length: float


_PATH = itemgetter(1)  # the path of a (kind, path) pair


@dataclass
class ValidationReport:
    valid: bool
    problems: list


def _collapse_table(n_edges: int, collapsed) -> dict:
    """The join_pieces table that collapses the edges of the index set
    `collapsed`: their half-edges -> (), the rest renumbered from 1."""
    kept = itertools.count(1)
    return piece_table(() if i in collapsed else (next(kept),) for i in range(n_edges))


class Marking:
    """What a point's graph, basepoint and generator loops fix, whatever its
    edge lengths. Every with_lengths copy of a point shares its marking
    object; act starts a new one.

    The tables are filled in as the points read them: the geometric table
    (half-edge -> (), on the spanning tree, or its geometric letter, the
    pieces of the marking map), the marking map, the half-edge labels
    (half-edge -> word, the pieces of path_word) and the tightened
    generator loops (letter -> piece, the pieces of realize_based), all
    tuples. The marking keeps one map: its inverse is the one the marking
    map knows, composed or, on the first marking_inverse() of a marking
    read from a file, read off the basis fold and checked; validation
    reads none (validate_point). The
    candidate paths belong to the graph (MetricGraph.candidate_paths), in
    graph order, and no class of them is kept, nor any loop of another
    marking (see MarkedMetricGraph.loop_lengths).
    """

    __slots__ = ("geo", "basis_to_edges", "labels", "pieces", "__weakref__")

    def __init__(self, geo=None):
        self.geo = geo  # half-edge -> geometric word, see _ensure_tree
        self.basis_to_edges = None  # Automorphism F_n -> F_geo
        self.labels = None  # half-edge -> label letters, see path_word
        self.pieces = None  # letter -> tightened loop, see realize_based


class MarkedMetricGraph:
    """A point of Outer Space: metric graph, basepoint, generator loops.

    `marking` is the Marking object of the graph, basepoint and loops; pass
    one only for a point that has the same three as the marking's points.
    """

    def __init__(self, graph, basepoint, gen_loops, marking=None):
        self.graph = graph
        self.basepoint = int(basepoint)
        self.gen_loops = tuple(tuple(loop) for loop in gen_loops)
        self.rank = len(self.gen_loops)
        self.marking = Marking() if marking is None else marking
        self._lx = None  # see candidate_lengths
        self._ly = None  # see loop_lengths

    # -- spanning tree and geometric basis -------------------------------

    def _ensure_tree(self):
        """The geometric table of the spanning tree grown breadth first from
        the basepoint, its _collapse_table: each edge off the tree a letter."""
        if self.marking.geo is not None:
            return
        g = self.graph
        parent = {self.basepoint: 0}
        order = [self.basepoint]
        for v in order:
            for h in g.out_halfedges(v):
                w = g.term_of(h)
                if w not in parent:
                    parent[w] = h
                    order.append(w)
        if len(parent) != g.n_vertices:
            raise InvalidPointError(["graph is not connected"])
        tree_edges = {abs(h) - 1 for v, h in parent.items() if v != self.basepoint}
        self.marking.geo = _collapse_table(g.n_edges, tree_edges)

    def marking_map(self) -> Automorphism:
        """F_n -> F(geometric basis), generator -> geometric word of its loop."""
        m = self.marking
        if m.basis_to_edges is None:
            self._ensure_tree()
            if self.graph.betti() != self.rank:
                raise InvalidPointError(
                    [f"first Betti number {self.graph.betti()} does not match rank {self.rank}"])
            m.basis_to_edges = Automorphism(
                self.rank, [Word(join_pieces(m.geo, loop)) for loop in self.gen_loops])
        return m.basis_to_edges

    def marking_inverse(self) -> Automorphism:
        """F(geometric basis) -> F_n: the inverse the marking map knows, or
        the fold's, which the marking map then keeps."""
        return self.marking_map().inverse()

    def _label_table(self):
        """Half-edge -> its label: the marking_inverse() image of its
        geometric half-edge word, () on the spanning tree."""
        m = self.marking
        if m.labels is None:
            self._ensure_tree()
            inverse = piece_table(w.letters for w in self.marking_inverse().images)
            m.labels = {h: join_pieces(inverse, piece) for h, piece in m.geo.items()}
        return m.labels

    def path_word(self, path) -> Word:
        """Word in F_n of any half-edge path, closed up at both ends through
        the spanning tree; exact for a closed path at the basepoint.

        join_pieces of the half-edge labels: each label is a reduced word,
        empty on the tree, so a path and its detour through the tree from
        the basepoint read the same word. Reading the geometric word and
        then mapping it through the marking inverse gives the same word,
        since both maps are homomorphisms and free reduction is confluent.
        A half-edge outside +-1..+-n_edges raises ValueError naming the
        first one.
        """
        try:
            return Word(join_pieces(self._label_table(), path))
        except KeyError as e:
            bad = e.args[0]
        raise self.graph._outside(bad)

    def path_class(self, path) -> CyclicWord:
        """Conjugacy class of a closed path."""
        return CyclicWord.make(self.path_word(path).letters)

    # -- realizing words --------------------------------------------------

    def _piece_table(self):
        """Letter +-i -> generator loop i tightened, reversed for -i."""
        m = self.marking
        if m.pieces is None:
            m.pieces = piece_table(map(reduce_letters, self.gen_loops))
        return m.pieces

    def realize_based(self, letters):
        """Tightened based edge path of a word: join_pieces of the tightened
        generator loops of its letters. Raises KeyError on a letter outside
        +-1..+-rank."""
        return join_pieces(self._piece_table(), letters)

    def check_realize_size(self, words, what: str):
        """check_path_size of the half-edges realize_based would concatenate
        for each of the words, before any join runs: an upper bound on the
        paths, linear in the letters of the words."""
        letters = itertools.chain.from_iterable(words)
        check_path_size(sum(map(len, map(self._piece_table().__getitem__, letters))), what)

    def loop_length(self, alpha) -> float:
        """Length of the immersed loop freely homotopic to alpha, realized
        anew on every call, class by class: the reference for tight_loops."""
        letters = alpha.letters if hasattr(alpha, "letters") else tuple(alpha)
        if not letters:
            raise ValueError("loop_length of empty class")
        return self.graph.path_length(cyclic_tighten(self.realize_based(letters)))

    def realize_table(self, words, what: str):
        """The piece_table of realize_based(w) for the words w, a list:
        +i -> the i-th path, -i -> its inverse. ValueError, before any join
        runs, when the joins would concatenate more than LEAF_PATH_MAX
        half-edges (check_realize_size, its message starting with what)."""
        self.check_realize_size(words, what)
        return piece_table(map(self.realize_based, words))

    def realization(self, x: "MarkedMetricGraph"):
        """x's marking realized at this point, kept nowhere: the
        realize_table of label(h), x's label of the half-edge h, for
        h = 1..n; -h reads the inverse path, the inverse label's."""
        labels = x._label_table()
        words = [labels[h] for h in range(1, x.graph.n_edges + 1)]
        return self.realize_table(words, "realizing a marking at another point joins")

    def tight_loops(self, x: "MarkedMetricGraph"):
        """The tight cyclic loops at this point of the candidate paths of x,
        in graph order (x.graph.candidate_paths()), realized anew on every
        call.

        Each crosses over through one edge map F = realization(x): the loop
        of path p is cyclic_tighten(join_pieces(F, p)). The join reads the
        word path_word(p), a conjugate of p's class, and free reduction is
        confluent, so this is the tight loop of the class up to rotation.
        Measured with graph.path_length, loop i has the length loop_length
        gives for the class of path i.
        """
        edge_map = self.realization(x)
        return [cyclic_tighten(join_pieces(edge_map, path))
                for path in map(_PATH, x.graph.candidate_paths())]

    def loop_lengths(self, x: "MarkedMetricGraph"):
        """The lengths at this point of the candidate classes of x, in x's
        graph order: graph.path_length of each loop of tight_loops(x).

        They depend on this point's lengths and x's marking alone, so this
        point keeps them, not the loops, keyed weakly by x's marking object,
        and sums each loop once per pair; an entry dies with x's marking,
        and a with_lengths or act copy of this point starts with none. At
        x's own marking the candidate paths are the tight loops, so the
        lengths are candidate_lengths(), the same floats, since fsum is
        correctly rounded.
        """
        if x.marking is self.marking:
            return self.candidate_lengths()
        ly = self._ly
        if ly is None:
            ly = self._ly = weakref.WeakKeyDictionary()
        found = ly.get(x.marking)
        if found is None:
            found = ly[x.marking] = tuple(map(self.graph.path_length, self.tight_loops(x)))
        return found

    # -- action of automorphisms -----------------------------------------

    def act(self, phi: Automorphism,
            what: str = "the marking loops of the acted point join") -> "MarkedMetricGraph":
        """Right action: same metric graph, marking precomposed with phi.

        ValueError, before any join, when the new marking loops would join
        more than LEAF_PATH_MAX half-edges (check_realize_size, its message
        starting with what). phi is certified by phi.inverse(), which
        raises ValueError when its images do not form a basis. The result
        has a marking object of its own, seeded with this one's geometric
        table and, where this point has it, its marking map composed with
        phi: one map, which knows its inverse when this point's marking map
        does. It keeps the graph, and with it the candidate paths, but
        shares no length cache.
        """
        if phi.rank != self.rank:
            raise RankMismatchError.between(phi.rank, self.rank)
        self.check_realize_size((w.letters for w in phi.images), what)
        phi.inverse()
        new_loops = [self.realize_based(phi.images[i].letters) for i in range(self.rank)]
        m = self.marking
        marking = Marking(m.geo)
        if m.basis_to_edges is not None:
            marking.basis_to_edges = m.basis_to_edges.compose(phi)
        return MarkedMetricGraph(self.graph, self.basepoint, new_loops, marking)

    def with_lengths(self, lengths) -> "MarkedMetricGraph":
        """The same graph and marking with new edge lengths.

        The copy shares this point's marking object, so everything that
        depends on the marking alone is computed once for all copies: the
        geometric table, the marking maps and the label and loop tables; its
        graph shares the candidate paths and their gather plan with this
        one's. What depends on the lengths is the copy's own and starts
        empty: its candidate lengths (candidate_lengths, one fsum per
        distinct edge multiset of the candidates, bit for bit the sum over
        each path) and the lengths of the loops it is a target of
        (loop_lengths), each summed on first use.
        """
        return MarkedMetricGraph(
            self.graph.with_lengths(lengths), self.basepoint, self.gen_loops, self.marking
        )

    # -- candidates --------------------------------------------------------

    def candidate_lengths(self):
        """The length at this point of each candidate path of its graph, in
        graph order, summed once per point. No class is read.

        The graph's gather plan (_gather_plan) picks the edge lengths of
        each distinct edge multiset of its candidates out of the length
        tuple, padded with one 0.0; each multiset is summed once with
        math.fsum and each candidate reads the sum of its multiset. fsum is
        correctly rounded, so every value is the float graph.path_length
        gives for the path, whatever the order, the pad or the direction of
        the edges; the twin figure eights a.b and a.b^-1 and the twin
        barbells of one pair and arc share one multiset and one sum.
        """
        if self._lx is None:
            _, gathers, index = self.graph._candidates()
            lengths = self.graph.lengths + (0.0,)
            sums = [math.fsum(gather(lengths)) for gather in gathers]
            self._lx = tuple(map(sums.__getitem__, index))
        return self._lx

    def candidates(self):
        """The candidate loops of this point as CandidateLoop objects, in
        class order: enumerate_candidates(self), which reads the class of
        every candidate path. Only printed lists need it; distance reads
        candidate_lengths."""
        return enumerate_candidates(self)


def _rotate_cycle_to(path, vertex, graph):
    for k, h in enumerate(path):
        if graph.init_of(h) == vertex:
            return path[k:] + path[:k]
    raise ValueError("vertex not on cycle")


def _embedded_circles(graph: MetricGraph):
    """All embedded circles as (edge set, vertex set, halfedge cycle)."""
    circles = []
    m = graph.n_edges
    for s in range(m):
        h0 = s + 1
        a = graph.init_of(h0)
        b = graph.term_of(h0)
        if a == b:
            circles.append((frozenset([s]), frozenset([a]), (h0,)))
            continue
        # vertex-simple paths from b back to a using edges with index > s
        stack = [(b, (h0,), frozenset([a, b]))]
        while stack:
            v, path, visited = stack.pop()
            for h in graph.out_halfedges(v):
                i = abs(h) - 1
                if i <= s:
                    continue
                w = graph.term_of(h)
                if w == a:
                    circles.append(
                        (frozenset(abs(x) - 1 for x in path + (h,)), visited, path + (h,))
                    )
                elif w not in visited:
                    stack.append((w, path + (h,), visited | {w}))
    return circles


def _arcs_between(graph, verts1, verts2, forbidden_edges):
    """Embedded arcs from verts1 to verts2 with interior off both circles."""
    arcs = []
    blocked = verts1 | verts2
    for u in sorted(verts1):
        stack = [(u, (), frozenset([u]))]
        while stack:
            v, path, visited = stack.pop()
            for h in graph.out_halfedges(v):
                i = abs(h) - 1
                if i in forbidden_edges:
                    continue
                if path and abs(h) == abs(path[-1]):
                    continue
                w = graph.term_of(h)
                if w in verts2:
                    arcs.append(path + (h,))
                elif w not in visited and w not in blocked:
                    stack.append((w, path + (h,), visited | {w}))
    return arcs


def _candidate_paths(g: MetricGraph):
    """The candidate loops of a graph as (kind, path) pairs, in graph order:
    embedded circles, then figure eights, then barbells, each a tight
    half-edge cycle.

    Each candidate is found once up to rotation and inversion, so the list
    needs no deduplication: an embedded circle is found from its least edge
    crossed forward; a figure eight splits at its one repeated vertex into
    its pair of circles, and a barbell at its edges crossed twice into its
    arc and its pair, each pair and arc found once; and of the two cycles
    made from one pair and arc, neither is a rotation of the other or of
    its inverse. Two tight loops have the same conjugacy class, up to
    inversion, exactly when their cycles are equal up to rotation and
    inversion, in any marking; so these are the candidate classes, one path
    each, with no class read.
    """
    circles = _embedded_circles(g)
    paths = [("embedded", path) for _, _, path in circles]
    for i in range(len(circles)):
        e1, v1, p1 = circles[i]
        for j in range(i + 1, len(circles)):
            e2, v2, p2 = circles[j]
            if e1 & e2:
                continue
            common = v1 & v2
            if len(common) == 1:
                v = next(iter(common))
                a = _rotate_cycle_to(p1, v, g)
                b = _rotate_cycle_to(p2, v, g)
                paths.append(("figure-eight", a + b))
                paths.append(("figure-eight", a + inverse_letters(b)))
            elif not common:
                for arc in _arcs_between(g, v1, v2, e1 | e2):
                    u1 = g.init_of(arc[0])
                    u2 = g.term_of(arc[-1])
                    a = _rotate_cycle_to(p1, u1, g)
                    b = _rotate_cycle_to(p2, u2, g)
                    paths.append(("barbell", a + arc + b + inverse_letters(arc)))
                    paths.append(
                        ("barbell", a + arc + inverse_letters(b) + inverse_letters(arc))
                    )
    return tuple(paths)


def _gather_plan(paths, n_edges):
    """How candidate_lengths sums the (kind, path) pairs `paths` of a graph
    with n_edges edges: (gathers, index). gathers holds one itemgetter per
    distinct edge multiset of the paths, in order of first use, that picks
    the multiset's edge lengths out of the length tuple with one 0.0
    appended at n_edges (so a one-edge multiset still gathers a tuple);
    path k is summed by gathers[index[k]]."""
    slots = {}
    index = tuple(
        slots.setdefault(tuple(sorted(abs(h) - 1 for h in path)), len(slots))
        for _, path in paths
    )
    gathers = tuple(itemgetter(*edges, n_edges) if len(edges) == 1 else itemgetter(*edges)
                    for edges in slots)
    return gathers, index


_KIND_ORDER = {"embedded": 0, "figure-eight": 1, "barbell": 2}


def enumerate_candidates(point: MarkedMetricGraph):
    """Candidate loops of a point: the candidate paths of its graph, each
    with its conjugacy class in the point's marking and its length from
    point.candidate_lengths(), in class order (by kind, then by word_key of
    the class)."""
    return sorted(
        (CandidateLoop(kind, path, point.path_class(path), length)
         for (kind, path), length in zip(point.graph.candidate_paths(), point.candidate_lengths())),
        key=lambda c: (_KIND_ORDER[c.kind], word_key(c.conjugacy_class.letters)),
    )


def validate_point(point: MarkedMetricGraph) -> ValidationReport:
    """Check all Outer Space invariants of a marked metric graph. The
    marking is certified by the inverse its map knows, or else by the basis
    fold alone (Automorphism.is_bijective), which reads no inverse image:
    marking_inverse() reads the words on its first call."""
    problems = []
    g = point.graph
    for v in range(g.n_vertices):
        if g.valence(v) < 3:
            problems.append(f"vertex {v} has valence {g.valence(v)} < 3")
    # written so that a NaN, which fails every comparison, is reported
    vol = g.volume()
    if not abs(vol - 1.0) <= LENGTH_TOL:
        problems.append(f"volume {vol!r} != 1")
    for i, l in enumerate(g.lengths):
        if not 0.0 <= l <= 1.0:
            problems.append(f"edge {g.edge_ids[i]} length {l} outside [0, 1]")
    # one union-find pass over the edges, the zero-length ones first: one
    # whose ends are joined already closes a circle of zero-length edges
    parent = list(range(g.n_vertices))
    parts, circle = g.n_vertices, False
    for i in sorted(range(g.n_edges), key=lambda i: g.lengths[i] != 0.0):
        a, b = g.ends[i]
        u, v = find(parent, a), find(parent, b)
        if u != v:
            parent[u] = v
            parts -= 1
        elif g.lengths[i] == 0.0:
            circle = True
    if circle:
        problems.append("zero-length subgraph contains a circle")
    if parts != 1:
        problems.append("graph is not connected")
        return ValidationReport(False, problems)
    if g.betti() != point.rank:
        problems.append(f"first Betti number {g.betti()} != rank {point.rank}")
    if not (0 <= point.basepoint < g.n_vertices):
        problems.append(f"basepoint {point.basepoint} is not a vertex")
        return ValidationReport(False, problems)
    for i, loop in enumerate(point.gen_loops):
        if not loop:
            problems.append(f"marking loop {i + 1} is empty")
            continue
        try:
            tighten_path(g, loop)  # raises on a bad half-edge or broken incidence
        except ValueError as e:
            problems.append(f"marking loop {i + 1}: {e}")
            continue
        if g.init_of(loop[0]) != point.basepoint or g.term_of(loop[-1]) != point.basepoint:
            problems.append(f"marking loop {i + 1} is not closed at the basepoint")
    if problems:
        return ValidationReport(False, problems)
    # connected, with first Betti number rank: marking_map raises on neither
    if not point.marking_map().is_bijective():
        return ValidationReport(False, ["marking loops do not define a basis of the free group"])
    return ValidationReport(True, [])


def minimal_model(point: MarkedMetricGraph) -> MarkedMetricGraph:
    """Collapse a maximal forest avoiding the longest edge and renormalize.

    The result is a rose or a two-vertex bar-and-loops graph within
    log(3n-3) of the input point.
    """
    g = point.graph
    longest = max(range(g.n_edges), key=lambda i: (g.lengths[i], -i))
    # one union-find pass over the edges other than the longest, in index
    # order: those that join two classes make the forest collapsed, so the
    # longest edge is kept even where it separates the graph
    parent = list(range(g.n_vertices))
    forest = set()
    for i, (a, b) in enumerate(g.ends):
        u, v = find(parent, a), find(parent, b)
        if u != v and i != longest:
            parent[u] = v
            forest.add(i)
    root = [find(parent, v) for v in range(g.n_vertices)]
    new_index = {c: k for k, c in enumerate(sorted(set(root)))}
    kept = [i for i in range(g.n_edges) if i not in forest]
    vol = math.fsum(g.lengths[i] for i in kept)
    new_graph = MetricGraph(
        len(new_index),
        [g.edge_ids[i] for i in kept],
        [(new_index[root[u]], new_index[root[v]]) for u, v in (g.ends[i] for i in kept)],
        [g.lengths[i] / vol for i in kept],
    )
    collapse = _collapse_table(g.n_edges, forest)
    new_loops = [join_pieces(collapse, loop) for loop in point.gen_loops]
    return MarkedMetricGraph(new_graph, new_index[root[point.basepoint]], new_loops)


def rose(rank: int, lengths=None) -> MarkedMetricGraph:
    """The standard rose with the identity marking."""
    if lengths is None:
        lengths = [1.0 / rank] * rank
    g = MetricGraph(1, [f"e{i + 1}" for i in range(rank)], [(0, 0)] * rank, lengths)
    point = MarkedMetricGraph(g, 0, [(i + 1,) for i in range(rank)])
    point.marking.basis_to_edges = Automorphism.identity(rank)
    return point


def jitter_lengths(point: MarkedMetricGraph, rng, jitter: float) -> MarkedMetricGraph:
    """point with each edge length scaled by 1 + jitter * (2u - 1), one draw
    u = rng.random() per edge in edge order, then renormalized to volume 1."""
    lengths = [l * (1.0 + jitter * (2.0 * rng.random() - 1.0)) for l in point.graph.lengths]
    vol = math.fsum(lengths)
    return point.with_lengths([l / vol for l in lengths])


def random_point(rank: int, seed: int, n_moves: int = 3, jitter: float = 0.3):
    """Deterministic random point: the rose acted on once by
    random_automorphism(rank, rng, n_moves), then its lengths jittered by
    jitter_lengths, both from one random.Random(seed)."""
    if not (0.0 <= jitter < 1.0):
        raise ValueError("jitter must lie in [0, 1) to keep lengths positive")
    rng = random.Random(seed)
    point = jitter_lengths(rose(rank).act(random_automorphism(rank, rng, n_moves)), rng, jitter)
    report = validate_point(point)
    if not report.valid:
        raise AssertionError(f"random_point produced invalid point: {report.problems}")
    return point


# -- file format --------------------------------------------------------


def _parse_length(x):
    """An edge length as a file gives it: an int, a float or a fraction
    string such as "1/3"; ValueError naming anything else, a boolean
    included."""
    try:
        if isinstance(x, str):
            return float(Fraction(x))
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return float(x)
    except ZeroDivisionError:
        raise ValueError(f"length {x!r} divides by zero") from None
    except OverflowError:
        raise ValueError(f"length {x!r} is too large for a float") from None
    raise ValueError(f"length {x!r} is not a number or a fraction string")


def vertex_index(vertices, name, where):
    """The index of the vertex a file names `name`, from `vertices` (name ->
    index); ValueError naming the vertex and `where` the file names it when
    no vertex has that name."""
    try:
        return vertices[str(name)]
    except KeyError:
        raise ValueError(f"unknown vertex {str(name)!r} in {where}") from None


# the JSON name of each type json.load returns, and of int as an expected type
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", float: "number",
               bool: "boolean", type(None): "null"}


def json_value(value, kind: type, where: str):
    """`value` when it is of type `kind`, as json.load returns a JSON
    object (dict), array (list) or integer (int, not bool); ValueError
    naming `where` and both JSON types otherwise. A string is never read
    as the sequence of its characters."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"{where} must be a JSON {_JSON_TYPES[kind]}, "
                     f"not {_JSON_TYPES.get(type(value), type(value).__name__)}")


def point_from_dict(data: dict, validate=True) -> MarkedMetricGraph:
    data = json_value(data, dict, "a graph")
    try:
        rank = json_value(data["rank"], int, "key 'rank'")
        vertex_names = json_value(data["vertices"], list, "key 'vertices'")
        edges = json_value(data["edges"], list, "key 'edges'")
        marking = json_value(data["marking"], dict, "key 'marking'")
        basepoint_name = data["basepoint"]
    except KeyError as e:
        raise ValueError(f"graph file missing key {e}")
    names = list(map(str, vertex_names))
    vidx = {name: i for i, name in enumerate(names)}
    if len(vidx) != len(names):
        dup = next(name for i, name in enumerate(names) if vidx[name] != i)
        raise ValueError(f"duplicate vertex name {dup!r}")
    edge_ids = []
    ends = []
    lengths = []
    for i, e in enumerate(edges):
        e = json_value(e, dict, f"entry {i} of 'edges'")
        try:
            edge_ids.append(str(e["id"]))
            where = f"edge {edge_ids[-1]}"
            ends.append((vertex_index(vidx, e["from"], where), vertex_index(vidx, e["to"], where)))
            lengths.append(_parse_length(e["length"]))
        except KeyError as err:
            raise ValueError(f"entry {i} of 'edges' missing key {err}") from None
    if len(set(edge_ids)) != len(edge_ids):
        raise ValueError("duplicate edge ids")
    for eid in edge_ids:
        if eid.startswith("~"):
            raise ValueError(f"edge id {eid!r} starts with '~', which marks an edge reversed")
    graph = MetricGraph(len(vertex_names), edge_ids, ends, lengths)
    keys = sorted(marking)
    if len(keys) != rank:
        raise ValueError(f"marking has {len(keys)} generators, rank is {rank}")
    try:
        loops = [tuple(map(graph.halfedge, json_value(marking[k], list, f"marking loop {k!r}")))
                 for k in keys]
    except KeyError as e:
        raise ValueError(f"unknown edge id {e.args[0]!r} in marking") from None
    point = MarkedMetricGraph(graph, vertex_index(vidx, basepoint_name, "basepoint"), loops)
    if validate:
        report = validate_point(point)
        if not report.valid:
            raise InvalidPointError(report.problems)
    return point


def point_to_dict(point: MarkedMetricGraph) -> dict:
    g = point.graph
    from .words import ALPHABET

    return {
        "rank": point.rank,
        "vertices": [f"v{i}" for i in range(g.n_vertices)],
        "edges": [
            {"id": g.edge_ids[i], "from": f"v{g.ends[i][0]}", "to": f"v{g.ends[i][1]}",
             "length": g.lengths[i]}
            for i in range(g.n_edges)
        ],
        "marking": {
            ALPHABET[i]: list(map(g.ref, loop)) for i, loop in enumerate(point.gen_loops)
        },
        "basepoint": f"v{point.basepoint}",
    }
