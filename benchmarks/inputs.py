"""Seeded input generators for the benchmark.

Everything here is plain Python with no import of the library, so the
inputs a seed gives stay byte-identical when the library changes. Points
are JSON-ready dicts in the `point_from_dict` format; words are tuples of
nonzero ints (generator i is +i, its inverse -i).

A marking is built from the geometric basis of a spanning tree, which is a
basis by construction, and then scrambled by seeded Whitehead moves, which
keeps it a basis.
"""

from __future__ import annotations

import json
import math
import random

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
CELLS = ("rose", "theta", "barbell", "trivalent")
INVALID_KINDS = ("square", "volume", "valence2")


def reduce_letters(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(letters):
    return tuple(-x for x in reversed(letters))


def cyclic_reduce(letters):
    w = reduce_letters(letters)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


# -- automorphisms as tuples of generator images ------------------------


def random_move(rank, rng):
    """A Whitehead move (A, a), drawn like the library's own sampler."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    a = rng.choice(letters)
    extra = [x for x in letters if x not in (a, -a) and rng.random() < 0.5]
    return frozenset([a, *extra]), a


def move_images(move, rank):
    """Generator images of the Whitehead automorphism phi_(A, a)."""
    A, a = move
    images = []
    for x in range(1, rank + 1):
        if x == abs(a):
            images.append((x,))
        elif x in A and -x in A:
            images.append((a, x, -a))
        elif x in A:
            images.append((x, -a))
        elif -x in A:
            images.append((a, x))
        else:
            images.append((x,))
    return tuple(images)


def apply(images, letters):
    out = []
    for x in letters:
        out.extend(images[x - 1] if x > 0 else inverse(images[-x - 1]))
    return reduce_letters(out)


def compose(outer, inner):
    """Images of outer o inner."""
    return tuple(apply(outer, w) for w in inner)


def random_automorphism(rank, rng, n_moves):
    images = tuple((i,) for i in range(1, rank + 1))
    for _ in range(n_moves):
        images = compose(move_images(random_move(rank, rng), rank), images)
    return images


# -- graphs -------------------------------------------------------------


def cell_graph(cell, rank, rng):
    """(n_vertices, ends) of a graph of the given cell type and rank.

    theta has rank+1 parallel edges; barbell has loops on both ends of one
    bar; trivalent grows a rank-2 theta or barbell by joining new midpoints
    of two seeded edges, so every vertex has valence 3.
    """
    if cell == "rose":
        return 1, [(0, 0)] * rank
    if cell == "theta":
        return 2, [(0, 1)] * (rank + 1)
    if cell == "barbell":
        left = rng.randint(1, rank - 1)
        return 2, [(0, 0)] * left + [(0, 1)] + [(1, 1)] * (rank - left)
    if cell != "trivalent":
        raise ValueError(f"unknown cell {cell!r}")
    ends = [(0, 1)] * 3 if rng.random() < 0.5 else [(0, 0), (0, 1), (1, 1)]
    n_vertices = 2
    for _ in range(rank - 2):
        mids = []
        for _ in range(2):
            i = rng.randrange(len(ends))
            u, v = ends[i]
            p = n_vertices
            n_vertices += 1
            ends[i] = (u, p)
            ends.append((p, v))
            mids.append(p)
        ends.append(tuple(mids))
    return n_vertices, ends


def _out_halfedges(n_vertices, ends):
    out = [[] for _ in range(n_vertices)]
    for i, (u, v) in enumerate(ends):
        out[u].append(i + 1)
        out[v].append(-(i + 1))
    return out


def _term(ends, h):
    u, v = ends[abs(h) - 1]
    return v if h > 0 else u


def geometric_loops(n_vertices, ends):
    """Based loops at vertex 0 of the geometric basis of a BFS spanning tree."""
    out = _out_halfedges(n_vertices, ends)
    parent = {0: None}
    order = [0]
    for v in order:
        for h in out[v]:
            w = _term(ends, h)
            if w not in parent:
                parent[w] = h
                order.append(w)
    if len(parent) != n_vertices:
        raise ValueError("graph is not connected")

    def path_to(v):
        path = []
        while parent[v] is not None:
            path.append(parent[v])
            v = _term(ends, -parent[v])
        return tuple(reversed(path))

    tree = {abs(h) - 1 for h in parent.values() if h is not None}
    loops = []
    for i, (u, v) in enumerate(ends):
        if i not in tree:
            loops.append(reduce_letters(path_to(u) + (i + 1,) + inverse(path_to(v))))
    return loops


def realize(loops, letters):
    """Tight based edge path of a word over the geometric basis."""
    out = []
    for x in letters:
        out.extend(loops[x - 1] if x > 0 else inverse(loops[-x - 1]))
    return reduce_letters(out)


def _ref(h):
    return ("~" if h < 0 else "") + f"e{abs(h)}"


def point_dict(n_vertices, ends, lengths, loops):
    rank = len(loops)
    return {
        "rank": rank,
        "vertices": [f"v{i}" for i in range(n_vertices)],
        "edges": [
            {"id": f"e{i + 1}", "from": f"v{u}", "to": f"v{v}", "length": lengths[i]}
            for i, (u, v) in enumerate(ends)
        ],
        "marking": {ALPHABET[i]: [_ref(h) for h in loop] for i, loop in enumerate(loops)},
        "basepoint": "v0",
    }


def random_lengths(n_edges, rng):
    raw = [0.5 + rng.random() for _ in range(n_edges)]
    vol = math.fsum(raw)
    return [x / vol for x in raw]


def valid_point(cell, rank, rng, n_moves, graph_rng=None):
    """A valid point dict: spanning-tree basis scrambled by n_moves moves.

    The graph is drawn from graph_rng when given, else from rng.
    """
    n_vertices, ends = cell_graph(cell, rank, graph_rng or rng)
    geo = geometric_loops(n_vertices, ends)
    marking = random_automorphism(rank, rng, n_moves)
    loops = [realize(geo, w) for w in marking]
    return point_dict(n_vertices, ends, random_lengths(len(ends), rng), loops)


def invalid_variant(point, kind, rng):
    """A copy of a valid point dict that breaks one Outer Space invariant.

    square: one marking loop replaced by its square (not a basis);
    volume: every length scaled by 5/4; valence2: one edge subdivided.
    """
    bad = json.loads(json.dumps(point))
    if kind == "square":
        k = ALPHABET[rng.randrange(bad["rank"])]
        bad["marking"][k] = bad["marking"][k] * 2
    elif kind == "volume":
        for e in bad["edges"]:
            e["length"] *= 1.25
    elif kind == "valence2":
        edges = bad["edges"]
        i = rng.randrange(len(edges))
        old = edges[i]["id"]
        new = f"e{len(edges) + 1}"
        mid = f"v{len(bad['vertices'])}"
        bad["vertices"].append(mid)
        half = edges[i]["length"] / 2.0
        edges.append({"id": new, "from": mid, "to": edges[i]["to"], "length": half})
        edges[i] = dict(edges[i], to=mid, length=half)
        for k, refs in bad["marking"].items():
            out = []
            for r in refs:
                out.extend([old, new] if r == old else [f"~{new}", r] if r == f"~{old}" else [r])
            bad["marking"][k] = out
    else:
        raise ValueError(f"unknown invalid kind {kind!r}")
    return bad


# -- words ----------------------------------------------------------------


def primitive_word(rank, rng, min_len, n_moves_cap=40):
    """Cyclically reduced image of a generator under a seeded automorphism,
    grown move by move until it has at least min_len letters."""
    images = tuple((i,) for i in range(1, rank + 1))
    gen = rng.randrange(rank)
    for _ in range(n_moves_cap):
        w = cyclic_reduce(images[gen])
        if len(w) >= min_len:
            return w
        images = compose(move_images(random_move(rank, rng), rank), images)
    return cyclic_reduce(images[gen])


def random_cyclic_word(rank, rng, length):
    """Uniform cyclically reduced word of the given length using every
    generator (so the rank is not lowered)."""
    if length < rank:
        raise ValueError(f"a word using all {rank} generators needs length >= {rank}")
    while True:
        w = [rng.choice([1, -1]) * rng.randint(1, rank)]
        while len(w) < length:
            x = rng.choice([1, -1]) * rng.randint(1, rank)
            if x != -w[-1]:
                w.append(x)
        w = tuple(w)
        if w[0] != -w[-1] and {abs(x) for x in w} == set(range(1, rank + 1)):
            return w


def proper_square(rank, rng, root_len):
    """u^2 for a random cyclically reduced u: never primitive."""
    u = random_cyclic_word(rank, rng, root_len)
    return u + u


# -- train-track self-maps ------------------------------------------------


def _rose_graph(rank):
    return {
        "rank": rank,
        "vertices": ["v"],
        "edges": [{"id": f"e{i + 1}", "from": "v", "to": "v", "length": 1.0 / rank}
                  for i in range(rank)],
        "marking": {ALPHABET[i]: [f"e{i + 1}"] for i in range(rank)},
        "basepoint": "v",
    }


def _selfmap(images):
    rank = len(images)
    return {
        "graph": _rose_graph(rank),
        "edge_images": {f"e{i + 1}": [_ref(h) for h in w] for i, w in enumerate(images)},
        "vertex_images": {"v": "v"},
    }


# name -> (forward images, backward images) on the rose; names give lambda:
# golden ~1.618, silver ~2.414, plastic ~1.3247 (x->y, y->z, z->xy), and
# rank4 (x_i -> x_{i+1}, x_4 -> x_1 x_2).
MAPS = {
    "golden": (((1, 2), (1,)), ((2,), (-2, 1))),
    "silver": (((1, 1, 2), (1,)), ((2,), (-2, -2, 1))),
    "plastic": (((2,), (3,), (1, 2)), ((3, -1), (1,), (2,))),
    "rank4": (((2,), (3,), (4,), (1, 2)), ((4, -1), (1,), (2,), (3,))),
}


def selfmap_dicts():
    """{'<name>.fwd': dict, '<name>.bwd': dict} for every map in MAPS."""
    out = {}
    for name, (fwd, bwd) in MAPS.items():
        out[f"{name}.fwd"] = _selfmap(fwd)
        out[f"{name}.bwd"] = _selfmap(bwd)
    return out


def dumps(obj):
    """Canonical JSON text, so equal inputs are equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
