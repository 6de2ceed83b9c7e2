"""The one substitution, words.join_pieces, against the letter-by-letter
references in tests/oracles.py: acting by an automorphism, rewriting by a
Whitehead move, mapping a path by a graph self-map and reading the
automorphism it induces, and reading the generator images of a linear map.
The self-maps and linear maps here move the basepoint, so the references
conjugate by a non-empty tree path where the library lets path_word close
the loop through the spanning tree."""

import random

import pytest

from outerspacekit import metric
from outerspacekit.graphs import jitter_lengths, tighten_path
from outerspacekit.metric import LinearMapSpec, linear_map_lipschitz
from outerspacekit.traintrack import GraphSelfMap
from outerspacekit.whitehead import _apply_move
from outerspacekit.words import (
    Automorphism,
    Word,
    inverse_letters,
    join_pieces,
    random_automorphism,
    verify_inverse,
)

from . import oracles
from .oracles import all_whitehead_moves, automorphism_power
from .test_graphs import _cell_point, _random_walk
from .test_traintrack import SEARCH_MAPS
from .test_whitehead import _random_word_set
from .test_words import random_reduced_letters


def _unverified(phi):
    """A copy of phi that carries no inverse and no letter table."""
    return Automorphism(phi.rank, phi.images)


def _long_power(phi, letters=300):
    """The least power of phi, up to phi^80, with an image of at least
    `letters` letters."""
    power = phi
    for _ in range(79):
        if max(map(len, power.images)) >= letters:
            break
        power = power.compose(phi)
    return power


@pytest.mark.parametrize("rank", range(2, 7))
def test_compose_apply_and_verify_inverse_match_letterwise(rank):
    rng = random.Random(f"substitution-{rank}")
    short = [random_automorphism(rank, rng, n) for n in (1, 2, 3, 5, 8)]
    # x_1 -> x_1 x_2, x_2 -> x_1 and its inverse both grow like the golden
    # ratio, and so do their conjugates
    golden = Automorphism(rank, [Word((1, 2)), Word((1,)), *map(Word.parse, "cdef"[:rank - 2])])
    golden.inverse()
    long = [_long_power(golden), _long_power(short[2].inverse().compose(golden).compose(short[2]))]
    assert min(max(map(len, phi.images)) for phi in long) >= 300
    for phi in short + long:
        for psi in short + long if phi in short else short:
            want = [Word(oracles.apply_letters(phi, im.letters)) for im in psi.images]
            assert list(_unverified(phi).compose(psi).images) == want
            assert not verify_inverse(_unverified(phi), _unverified(psi))
            assert not oracles.verify_inverse(phi, psi)
        for n in (0, 1, 7, 60):
            w = Word(random_reduced_letters(rng, rank, n))
            assert _unverified(phi).apply(w) == Word(oracles.apply_letters(phi, w.letters))
        inv = phi.inverse()
        assert oracles.verify_inverse(phi, inv)
        assert verify_inverse(_unverified(phi), _unverified(inv))
        near = inv.compose(random_automorphism(rank, rng, 1))
        assert not oracles.verify_inverse(phi, near)
        assert not verify_inverse(_unverified(phi), _unverified(near))


@pytest.mark.parametrize("letters", [(0,), (3,), (-3,), (1, 0, 2), (2, -1, 7)])
def test_letters_outside_the_rank_raise(letters):
    phi = Automorphism(2, [Word.parse("ab"), Word.parse("a")])
    bad = next(l for l in letters if not 0 < abs(l) <= 2)
    message = rf"^letter {bad} out of rank range \(rank 2\)$"
    with pytest.raises(ValueError, match=message):
        phi.apply_letters(letters)
    with pytest.raises(ValueError, match=message):
        phi.image_of(bad)
    with pytest.raises(ValueError, match=message if bad == 0 else "word rank exceeds"):
        phi.apply(Word(letters))


@pytest.mark.parametrize("rank,n_sets", [(2, 60), (3, 40), (4, 12), (5, 4), (6, 2)])
def test_move_rewrites_match_letterwise(rank, n_sets):
    """Every Whitehead move of the rank applied to the word sets of
    TestExhaustiveOracle (same seeds)."""
    rng = random.Random(100 + rank)
    moves = list(all_whitehead_moves(rank))
    for _ in range(n_sets):
        words = [w.letters for w in _random_word_set(rng, rank)]
        for move in moves:
            assert _apply_move(move, words, rank) == oracles.apply_move(move, words, rank)


@pytest.mark.parametrize("name", sorted(SEARCH_MAPS))
def test_benchmark_map_automorphisms(name):
    for f in SEARCH_MAPS[name]():
        assert f.automorphism() == oracles.selfmap_automorphism(f)


def _path_between(point, rng, a, b):
    """A random nonempty tight path from vertex a to vertex b: through the
    spanning tree to the start of a random walk, along the walk, and
    through the tree to b, tightened."""
    g = point.graph
    tree = oracles.tree_path_from_base
    while True:
        walk = _random_walk(g, rng, rng.randint(0, 4))
        s, t = (g.init_of(walk[0]), g.term_of(walk[-1])) if walk else (a, a)
        path = tighten_path(g, inverse_letters(tree(point, a)) + tree(point, s) + walk
                            + inverse_letters(tree(point, t)) + tree(point, b))
        if path:
            return path


def _random_selfmap(point, rng):
    """A self-map of the point's graph that sends the basepoint to another
    vertex: random vertex images, and each edge sent to a random nonempty
    tight path between the images of its ends."""
    g = point.graph
    images = [rng.randrange(g.n_vertices) for _ in range(g.n_vertices)]
    images[point.basepoint] = rng.choice([v for v in range(g.n_vertices) if v != point.basepoint])
    edges = {e: _path_between(point, rng, images[u], images[v])
             for e, (u, v) in enumerate(g.ends, 1)}
    return GraphSelfMap(point, dict(enumerate(images)), edges)


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("cell", ["theta", "barbell", "trivalent"])
def test_selfmaps_moving_the_basepoint(cell, rank):
    """automorphism(), direction_map() and the image of paths under random
    self-maps whose basepoint image is joined to the basepoint by a
    non-empty tree path."""
    rng = random.Random(f"selfmap-{cell}-{rank}")
    for _ in range(6):
        point = _cell_point(cell, rank, rng)
        f = _random_selfmap(point, rng)
        assert oracles.tree_path_from_base(point, f.vertex_images[point.basepoint])
        assert f.automorphism() == oracles.selfmap_automorphism(f)
        assert f.direction_map() == {h: oracles.image_of_path(f, (h,))[0]
                                     for h in f.halfedge_images}
        for path in point.gen_loops + tuple(_random_walk(point.graph, rng, n) for n in (1, 6, 40)):
            assert join_pieces(f.halfedge_images, path) == oracles.image_of_path(f, path)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_theta_swap_linear_map_reads_the_detoured_images(rank, monkeypatch):
    """The vertex swap of a theta graph, its edges permuted and reversed, as
    a linear map from x to x acted on by the automorphism the swap induces:
    consistent, with the words the tree detour reads, and inconsistent
    from x to x."""
    rng = random.Random(f"theta-swap-{rank}")
    read = []
    inner = metric._common_conjugator_is_inner
    monkeypatch.setattr(metric, "_common_conjugator_is_inner",
                        lambda images: read.append(images) or inner(images))
    swap = {0: 1, 1: 0}
    for k in range(4):
        x = jitter_lengths(_cell_point("theta", rank, rng), rng, 0.3)
        perm = list(range(1, rank + 2))
        if k:
            rng.shuffle(perm)
        spec = LinearMapSpec(swap, {e: (-p,) for e, p in enumerate(perm, 1)})
        sigma = GraphSelfMap(x, swap, spec.edge_images).automorphism()
        y = x.act(sigma)
        report = linear_map_lipschitz(spec, x, y)
        assert read[-1] == oracles.linear_map_images(spec, x, y)
        lengths = x.graph.lengths
        assert report.slopes == {x.graph.edge_ids[e - 1]: lengths[p - 1] / lengths[e - 1]
                                 for e, p in enumerate(perm, 1)}
        with pytest.raises(ValueError, match="inconsistent with the markings"):
            linear_map_lipschitz(spec, x, x)
        assert read[-1] == oracles.linear_map_images(spec, x, x)
