import math
import random

import pytest

from outerspacekit.graphs import point_from_dict, random_point, rose
from outerspacekit.metric import (
    LinearMapSpec,
    distance,
    distance_oracle,
    linear_map_lipschitz,
    points_equal,
    stretch_factor,
)
from outerspacekit.words import Automorphism, CyclicWord, Word, all_whitehead_moves

from .conftest import FIG1_EDGE_IMAGES, FIG1_TARGET_DICT, THETA_DICT


def C(text):
    return CyclicWord.parse(text)


def nielsen_power(m):
    psi = Automorphism(2, [Word((1,)), Word(tuple([1] * m + [2]))])
    psi.inverse()
    return psi


class TestStretch:
    def test_direct_ratio(self):
        x, y = rose(2), rose(2, [1 / 3, 2 / 3])
        assert stretch_factor(C("b"), x, y) == pytest.approx(4 / 3, abs=1e-12)

    def test_equal_lengths(self):
        x, y = rose(2), rose(2, [1 / 3, 2 / 3])
        assert stretch_factor(C("ab"), x, y) == pytest.approx(1.0, abs=1e-12)

    def test_nielsen_power(self):
        R = rose(2)
        for m in (1, 4, 8):
            assert stretch_factor(C("b"), R, R.act(nielsen_power(m))) == pytest.approx(
                m + 1, abs=1e-9
            )


class TestDistance:
    def test_rose_pair(self):
        res = distance(rose(2), rose(2, [1 / 3, 2 / 3]))
        assert res.value == pytest.approx(math.log(4 / 3), abs=1e-12)
        assert str(res.witness.conjugacy_class) == "b"
        assert res.value == math.log(max(r for (_, _, _, r) in res.table))

    def test_nielsen_powers(self):
        R = rose(2)
        for m in range(1, 9):
            assert distance(R, R.act(nielsen_power(m))).value == pytest.approx(
                math.log(m + 1), abs=1e-9
            )

    def test_identity(self):
        p = random_point(2, 3, 2, 0.4)
        assert abs(distance(p, p).value) <= 1e-9

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            distance(rose(2), rose(3))


class TestOracle:
    def test_rose_pair_l4(self):
        x, y = rose(2), rose(2, [1 / 3, 2 / 3])
        assert distance_oracle(x, y, 4) == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_monotone_in_bound(self):
        x = random_point(2, 1, 2, 0.3)
        y = random_point(2, 2, 2, 0.3)
        vals = [distance_oracle(x, y, L) for L in (1, 2, 4, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_distance_on_shipped_roses(self):
        x, y = rose(2), rose(2, [1 / 3, 2 / 3])
        assert distance(x, y).value == pytest.approx(distance_oracle(x, y, 6), abs=1e-12)
        assert distance(y, x).value == pytest.approx(distance_oracle(y, x, 6), abs=1e-12)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            distance_oracle(rose(2), rose(2), 0)


class TestLinearMap:
    def test_figure_one_slopes(self):
        x = rose(2)
        y = point_from_dict(FIG1_TARGET_DICT)
        spec = LinearMapSpec({0: 0}, FIG1_EDGE_IMAGES)
        rep = linear_map_lipschitz(spec, x, y)
        assert rep.slopes["e1"] == pytest.approx(4 / 3, abs=1e-12)
        assert rep.slopes["e2"] == pytest.approx(4.0, abs=1e-12)
        assert rep.lip == pytest.approx(4.0, abs=1e-12)
        assert rep.green == ["e2"]

    def test_identity_map(self):
        rep = linear_map_lipschitz(
            LinearMapSpec({0: 0}, {1: (1,), 2: (2,)}), rose(2), rose(2)
        )
        assert all(s == pytest.approx(1.0, abs=1e-12) for s in rep.slopes.values())

    def test_train_track_map_slopes_constant(self, golden_tt):
        phi = golden_tt.automorphism()
        phi.inverse()
        rep = linear_map_lipschitz(
            LinearMapSpec({0: 0}, {1: (1, 2), 2: (1,)}),
            golden_tt.point,
            golden_tt.point.act(phi),
        )
        for s in rep.slopes.values():
            assert s == pytest.approx(golden_tt.lam, abs=1e-9)

    def test_zero_length_edge_rejected(self):
        # a zero-length forest edge is a valid point on a face, but the
        # slope of that edge is undefined
        x = point_from_dict(dict(THETA_DICT, edges=[
            dict(e, length=l) for e, l in zip(THETA_DICT["edges"], ("0", "1/2", "1/2"))]))
        spec = LinearMapSpec({0: 0, 1: 1}, {1: (1,), 2: (2,), 3: (3,)})
        with pytest.raises(ValueError, match="edge e1 has length 0"):
            linear_map_lipschitz(spec, x, point_from_dict(THETA_DICT))

    def test_inconsistent_spec_rejected(self):
        with pytest.raises(ValueError):
            linear_map_lipschitz(
                LinearMapSpec({0: 0}, {1: (1,), 2: (1,)}), rose(2), rose(2)
            )


class TestMetricAxioms:
    def _pool(self, rank, n):
        return [random_point(rank, s, 2, 0.35) for s in range(n)]

    def test_nonnegativity_and_identity(self):
        pool = self._pool(2, 10)
        for x in pool:
            assert abs(distance(x, x).value) <= 1e-9
            for y in pool:
                assert distance(x, y).value >= -1e-9

    def test_triangle_inequality(self):
        pool = self._pool(2, 8)
        rng = random.Random(0)
        for _ in range(60):
            x, y, z = (rng.choice(pool) for _ in range(3))
            assert (
                distance(x, z).value
                <= distance(x, y).value + distance(y, z).value + 1e-9
            )

    def test_equivariance(self):
        rng = random.Random(2)
        moves = list(all_whitehead_moves(2))
        for _ in range(10):
            x = random_point(2, rng.randint(0, 99), 2, 0.3)
            y = random_point(2, rng.randint(100, 199), 2, 0.3)
            phi = rng.choice(moves).automorphism(2)
            assert distance(x.act(phi), y.act(phi)).value == pytest.approx(
                distance(x, y).value, abs=1e-9
            )

    def test_asymmetry_bounded_on_thick_points(self):
        # the ratio d(x,y)/d(y,x) is recorded, never asserted against a
        # fixed constant
        ratios = []
        pool = self._pool(2, 8)
        for i, x in enumerate(pool):
            for y in pool[i + 1 :]:
                fwd, bwd = distance(x, y).value, distance(y, x).value
                if fwd > 1e-9 and bwd > 1e-9:
                    ratios.append(fwd / bwd)
        assert ratios and all(math.isfinite(r) and r > 0 for r in ratios)

    def test_points_equal(self):
        assert points_equal(rose(2), rose(2))
        assert not points_equal(rose(2), rose(2, [1 / 3, 2 / 3]))
