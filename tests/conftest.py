import logging
import random

import pytest

from outerspacekit.axes import Axis
from outerspacekit.graphs import point_from_dict, rose
from outerspacekit.traintrack import GraphSelfMap, pf_metric
from outerspacekit.words import Automorphism, Word

logging.getLogger("outerspacekit").setLevel(logging.ERROR)


def aut(rank, *texts):
    """The endomorphism of F_rank sending generator i to the word texts[i - 1]."""
    return Automorphism(rank, [Word.parse(t, rank) for t in texts])


def golden_selfmaps():
    """x -> xy, y -> x on the rank-2 rose, and its inverse x -> y, y -> Yx."""
    fwd = GraphSelfMap(rose(2), {0: 0}, {1: (1, 2), 2: (1,)})
    bwd = GraphSelfMap(rose(2), {0: 0}, {1: (2,), 2: (-2, 1)})
    return fwd, bwd


def tribo_selfmaps():
    """x -> y, y -> z, z -> xy on the rank-3 rose, and its inverse."""
    fwd = GraphSelfMap(rose(3), {0: 0}, {1: (2,), 2: (3,), 3: (1, 2)})
    bwd = GraphSelfMap(rose(3), {0: 0}, {1: (3, -1), 2: (1,), 3: (2,)})
    return fwd, bwd


def silver_selfmap():
    """x -> xxy, y -> x on the rank-2 rose."""
    return GraphSelfMap(rose(2), {0: 0}, {1: (1, 1, 2), 2: (1,)})


def rank4_selfmaps():
    """x_i -> x_(i+1), x_4 -> x_1 x_2 on the rank-4 rose, and its inverse."""
    fwd = GraphSelfMap(rose(4), {0: 0}, {1: (2,), 2: (3,), 3: (4,), 4: (1, 2)})
    bwd = GraphSelfMap(rose(4), {0: 0}, {1: (4, -1), 2: (1,), 3: (2,), 4: (3,)})
    return fwd, bwd


def swap_golden_selfmaps():
    """a -> c, b -> d, c -> ab, d -> a on the rank-4 rose, and its inverse
    a -> d, b -> Dc, c -> a, d -> b. The square is golden on <a, b> times
    golden on <c, d>, so the map is not fully irreducible: a control whose
    matrix is irreducible with period 2."""
    fwd = GraphSelfMap(rose(4), {0: 0}, {1: (3,), 2: (4,), 3: (1, 2), 4: (1,)})
    bwd = GraphSelfMap(rose(4), {0: 0}, {1: (4,), 2: (-4, 3), 3: (1,), 4: (2,)})
    return fwd, bwd


def positive_walk_selfmap(rank, length, seed):
    """The rank-`rank` rose map of the composite of `length` transvections
    x_i -> x_i x_j or x_j x_i, i != j, drawn from random.Random(seed). Its
    edge images are positive words, so no turn is ever illegal: with a
    primitive matrix it is a train-track map, with lambda growing about
    exponentially in `length`."""
    rng = random.Random(seed)
    images = [(i,) for i in range(1, rank + 1)]
    for _ in range(length):
        i, j = rng.sample(range(rank), 2)
        images[i] = images[i] + images[j] if rng.random() < 0.5 else images[j] + images[i]
    return GraphSelfMap(rose(rank), {0: 0}, dict(enumerate(images, 1)))


THETA_DICT = {
    "rank": 2,
    "vertices": ["u", "v"],
    "edges": [
        {"id": "e1", "from": "u", "to": "v", "length": "1/3"},
        {"id": "e2", "from": "u", "to": "v", "length": "1/3"},
        {"id": "e3", "from": "u", "to": "v", "length": "1/3"},
    ],
    "marking": {"x": ["e1", "~e2"], "y": ["e2", "~e3"]},
    "basepoint": "u",
}

# rose(1/2, 1/2) -> theta(1/3 each): image of e1 crosses 2 edges, image of
# e2 crosses 6, realizing the slope pair (4/3, 4) with Lip = 4
FIG1_TARGET_DICT = {
    "rank": 2,
    "vertices": ["u", "v"],
    "edges": [
        {"id": "a1", "from": "u", "to": "v", "length": "1/3"},
        {"id": "a2", "from": "u", "to": "v", "length": "1/3"},
        {"id": "a3", "from": "u", "to": "v", "length": "1/3"},
    ],
    "marking": {"x": ["a2", "~a1"], "y": ["a2", "~a1", "a2", "~a1", "a3", "~a1"]},
    "basepoint": "u",
}
FIG1_EDGE_IMAGES = {1: (2, -1), 2: (2, -1, 2, -1, 3, -1)}

DUMBBELL_DICT = {
    "rank": 2,
    "vertices": ["u", "v"],
    "edges": [
        {"id": "p", "from": "u", "to": "u", "length": 0.375},
        {"id": "bar", "from": "u", "to": "v", "length": 0.25},
        {"id": "q", "from": "v", "to": "v", "length": 0.375},
    ],
    "marking": {"x": ["p"], "y": ["bar", "q", "~bar"]},
    "basepoint": "u",
}


@pytest.fixture(scope="session")
def golden_tt():
    return pf_metric(golden_selfmaps()[0])


@pytest.fixture(scope="session")
def golden_inv_tt():
    return pf_metric(golden_selfmaps()[1])


@pytest.fixture(scope="session")
def golden_axis(golden_tt, golden_inv_tt):
    return Axis(golden_tt, golden_inv_tt)


@pytest.fixture(scope="session")
def tribo_tt():
    return pf_metric(tribo_selfmaps()[0])


@pytest.fixture(scope="session")
def tribo_inv_tt():
    return pf_metric(tribo_selfmaps()[1])


@pytest.fixture(scope="session")
def silver_axis():
    return Axis(pf_metric(silver_selfmap()))


@pytest.fixture(scope="session")
def tribo_axis(tribo_tt, tribo_inv_tt):
    return Axis(tribo_tt, tribo_inv_tt)


@pytest.fixture(scope="session")
def rank4_axis():
    return Axis(*map(pf_metric, rank4_selfmaps()))


@pytest.fixture(scope="session")
def swap_axis():
    return Axis(*map(pf_metric, swap_golden_selfmaps()))


@pytest.fixture(scope="session")
def pw3_axis():
    """The axis of a positive walk of 12 transvections at rank 3, lambda 26.4."""
    return Axis(pf_metric(positive_walk_selfmap(3, 12, 1)))


@pytest.fixture(scope="session")
def pw5_axis():
    """The axis of a positive walk of 30 transvections at rank 5, lambda 181.9."""
    return Axis(pf_metric(positive_walk_selfmap(5, 30, 0)))


@pytest.fixture()
def theta_point():
    return point_from_dict(THETA_DICT)


@pytest.fixture()
def dumbbell_point():
    return point_from_dict(DUMBBELL_DICT)
