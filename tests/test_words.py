import itertools
import random

import pytest
from hypothesis import given, strategies as st

from outerspacekit.graphs import rose
from outerspacekit.metric import distance
from outerspacekit.traintrack import lamination_length_ratio, no_cut_vertex_search
from outerspacekit.words import (
    Automorphism,
    CyclicWord,
    InvalidMoveError,
    RankMismatchError,
    Word,
    WhiteheadMove,
    canonical_cyclic,
    cyclic_reduce,
    cyclic_tighten,
    format_letters,
    inverse_images,
    inverse_letters,
    is_basis,
    random_automorphism,
    random_whitehead_move,
    reduce_letters,
    signed_letters,
    verify_inverse,
)

from .conftest import aut
from .oracles import (
    all_whitehead_moves,
    apply_cyclic,
    gauge_fold,
    scan_is_basis,
    strip_inverse_ends,
)


def random_reduced_letters(rng, rank, length):
    """A seeded freely reduced word of the given length."""
    out = []
    while len(out) < length:
        x = rng.choice((1, -1)) * rng.randint(1, rank)
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


def W(text):
    return Word.parse(text)


def C(text):
    return CyclicWord.parse(text)


letters_st = st.lists(
    st.integers(min_value=1, max_value=2).flatmap(lambda i: st.sampled_from([i, -i])),
    max_size=12,
)


class TestReduce:
    def test_forced_cancellation(self):
        assert Word.make((1, -1, 2)).letters == (2,)

    def test_empty(self):
        assert Word.make(()).letters == ()

    def test_inner_cancellation(self):
        assert Word.make((1, 2, -2, 1)).letters == (1, 1)

    def test_out_of_rank(self):
        with pytest.raises(ValueError):
            Word.make((3,), rank=2)
        with pytest.raises(ValueError):
            Word.make((0,))

    @given(letters_st)
    def test_idempotent(self, letters):
        once = Word.make(letters)
        assert Word.make(once.letters) == once


class TestFormat:
    def test_names_and_inverses(self):
        assert format_letters((1, -2, 26, -26)) == "aBzZ"
        assert format_letters((2, -1), "xy") == "yX"
        assert format_letters(()) == ""

    def test_unnamed_generator(self):
        with pytest.raises(ValueError, match="no name for generator 27"):
            format_letters((1, -27))
        with pytest.raises(ValueError, match="no name for generator 3"):
            format_letters((3,), "xy")


class TestCyclicReduce:
    def test_conjugate(self):
        core, conj = cyclic_reduce(W("abA"))
        assert core == C("b") and conj == W("a")

    def test_already_reduced(self):
        core, conj = cyclic_reduce(W("ab"))
        assert core == C("ab") and conj.letters == ()

    def test_trivial(self):
        core, conj = cyclic_reduce(Word.make((1, -1)))
        assert core.letters == () and conj.letters == ()

    @given(letters_st)
    def test_length_decrease(self, letters):
        w = Word.make(letters)
        core, conj = cyclic_reduce(w)
        assert len(core) <= len(w)
        # equality iff already cyclically reduced
        already = not w.letters or w.letters[0] != -w.letters[-1]
        assert (len(core) == len(w)) == already

    @given(letters_st)
    def test_factorization(self, letters):
        w = Word.make(letters)
        core, conj = cyclic_reduce(w)
        stripped = conj.inverse() * w * conj
        # stripped is the cyclically reduced core; its class is the result
        assert len(stripped) == len(core)
        assert CyclicWord.make(stripped.letters) == core
        assert not stripped.letters or stripped.letters[0] != -stripped.letters[-1]

    def test_strip_matches_reference(self):
        # seeded words u w u^-1, conjugators u of up to 6 000 letters,
        # against the reference that strips one end pair per slice
        rng = random.Random(16)
        for length in [0, 1, 2, 3, 8, 30] * 30 + [5_000, 5_500, 6_000]:
            rank = rng.randint(1, 4)
            u = random_reduced_letters(rng, rank, length)
            w = random_reduced_letters(rng, rank, rng.randint(0, 12))
            raw = u + w + inverse_letters(u)
            letters = reduce_letters(raw)
            ref_conj, ref_core = strip_inverse_ends(letters)
            assert cyclic_tighten(letters) == ref_core
            core, conj = cyclic_reduce(Word(letters))
            assert conj.letters == ref_conj
            assert core == CyclicWord(canonical_cyclic(ref_core))
            assert CyclicWord.make(raw) == CyclicWord.make(w)


class TestCanonicalCyclic:
    def test_rotation_and_inversion_invariance(self):
        rng = random.Random(0)
        for _ in range(500):
            n = rng.randint(1, 9)
            letters = []
            for _ in range(n):
                cand = rng.choice([1, -1, 2, -2])
                while letters and cand == -letters[-1]:
                    cand = rng.choice([1, -1, 2, -2])
                letters.append(cand)
            w = CyclicWord.make(letters)
            rot = CyclicWord.make(letters[3:] + letters[:3])
            inv = CyclicWord.make([-l for l in reversed(letters)])
            assert w == rot == inv


class TestApply:
    def test_substitute_and_reduce(self):
        phi = aut(2, "ab", "a")
        assert phi.apply(W("ba")) == W("aab")

    def test_identity(self):
        ident = Automorphism.identity(2)
        for t in ("a", "abAB", "bbA"):
            assert ident.apply(W(t)) == W(t)

    def test_inverse_letter_images(self):
        phi = aut(2, "a", "abb")
        assert phi.apply(W("aB")) == W("aBBA")

    def test_rank_mismatch(self):
        phi = Automorphism.identity(2)
        with pytest.raises(ValueError, match="^word rank exceeds automorphism rank$") as excinfo:
            phi.apply(Word.make((3,)))
        assert type(excinfo.value) is ValueError

    def test_composition_respected(self):
        rng = random.Random(1)
        moves = list(all_whitehead_moves(2))
        for _ in range(1000):
            phi = rng.choice(moves).automorphism(2)
            psi = rng.choice(moves).automorphism(2)
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8))]
            w = Word.make(letters)
            assert phi.compose(psi).apply(w) == phi.apply(psi.apply(w))

    def test_apply_cyclic(self):
        phi = aut(2, "ab", "a")
        assert apply_cyclic(phi, C("ba")) == C("aab")


class TestWhiteheadMove:
    def test_identity_move(self):
        assert WhiteheadMove(frozenset({1}), 1).automorphism(2) == Automorphism.identity(2)

    def test_multiply_case(self):
        phi = WhiteheadMove(frozenset({1, 2}), 1).automorphism(2)
        assert phi.images[0] == W("a") and phi.images[1] == W("bA")

    def test_conjugate_case(self):
        phi = WhiteheadMove(frozenset({1, 2, -2}), 1).automorphism(2)
        assert phi.images[1] == W("abA")

    def test_invalid_moves(self):
        with pytest.raises(InvalidMoveError):
            WhiteheadMove(frozenset({2}), 1)
        with pytest.raises(InvalidMoveError):
            WhiteheadMove(frozenset({1, -1}), 1)

    def test_all_moves_invertible_rank_le_3(self):
        for rank in (2, 3):
            for move in all_whitehead_moves(rank):
                phi = move.automorphism(rank)
                psi = move.inverse_move().automorphism(rank)
                assert verify_inverse(phi, psi), move


class TestVerifyInverse:
    def test_golden_pair(self):
        phi = aut(2, "ab", "a")
        psi = aut(2, "b", "Ba")
        assert verify_inverse(phi, psi)

    def test_identity(self):
        assert verify_inverse(Automorphism.identity(2), Automorphism.identity(2))

    def test_not_inverse(self):
        phi = aut(2, "ab", "a")
        assert not verify_inverse(phi, aut(2, "ab", "a"))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            verify_inverse(Automorphism.identity(2), Automorphism.identity(3))


@pytest.mark.parametrize("compare", [
    lambda a3, tt, ax: a3.compose(Automorphism.identity(2)),
    lambda a3, tt, ax: verify_inverse(a3, Automorphism.identity(2)),
    lambda a3, tt, ax: rose(2).act(a3),
    lambda a3, tt, ax: distance(rose(3), rose(2)),
    lambda a3, tt, ax: ax.dist_to_axis_point(rose(3), 0),
    lambda a3, tt, ax: lamination_length_ratio(tt[0], rose(3)),
    lambda a3, tt, ax: no_cut_vertex_search(*tt, rose(3)),
], ids=["compose", "verify_inverse", "act", "distance", "dist_to_axis_point",
        "lamination_length_ratio", "no_cut_vertex_search"])
def test_rank_mismatch_has_one_message(compare, golden_tt, golden_inv_tt, golden_axis):
    # each comparison of two ranks once had a message of its own, and three
    # raised a plain ValueError
    with pytest.raises(RankMismatchError, match=r"^rank mismatch: 3 vs 2$"):
        compare(Automorphism.identity(3), (golden_tt, golden_inv_tt), golden_axis)


class TestInversion:
    def test_inverse_of_composites(self):
        rng = random.Random(7)
        moves = list(all_whitehead_moves(2))
        for _ in range(20):
            phi = Automorphism.identity(2)
            for _ in range(rng.randint(1, 5)):
                phi = phi.compose(rng.choice(moves).automorphism(2))
            recomputed = Automorphism(2, phi.images)
            inv = recomputed.inverse()
            assert verify_inverse(recomputed, inv)

    def test_non_bijective_rejected(self):
        phi = aut(2, "a", "abbb")  # det 3 on homology
        with pytest.raises(ValueError):
            phi.inverse()

    def test_is_basis(self):
        assert is_basis([W("ab"), W("a")], 2)
        assert not is_basis([W("a"), W("babAB")], 2)
        assert not is_basis([W("a"), W("a")], 2)
        assert not is_basis([W("aa"), W("b")], 2)
        assert is_basis([W("a"), W("b"), W("c")], 3)
        assert not is_basis([W("a"), W("b")], 3)
        assert not is_basis([W("aa")], 1)

    def test_inverse_images_rejects_non_basis(self):
        with pytest.raises(ValueError, match="generator images do not form a basis"):
            inverse_images([W("a"), W("babAB")], 2)

    def test_inverse_images_signed_permutation(self):
        imgs = inverse_images([W("B"), W("a")], 2)
        phi = Automorphism(2, [W("B"), W("a")])
        assert verify_inverse(phi, Automorphism(2, imgs))


def _seeded_basis(rank, rng, n_moves):
    """(images, expected inverse images) of a composite of Whitehead moves,
    its images shuffled and some inverted; the expected inverse is composed
    from the inverse moves, without folding."""
    phi = Automorphism.identity(rank)
    for _ in range(n_moves):
        phi = phi.compose(random_whitehead_move(rank, rng).automorphism(rank))
    order = list(range(rank))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(rank)]
    images = [phi.images[j] if e > 0 else phi.images[j].inverse() for j, e in zip(order, signs)]
    # images = phi o pi with pi(x_i) = x_order[i]^sign; pi^-1(x_order[i]) = x_i^sign
    pi_inv = [None] * rank
    for i, (j, e) in enumerate(zip(order, signs)):
        pi_inv[j] = Word((e * (i + 1),))
    expected = Automorphism(rank, pi_inv).compose(phi.inverse()).images
    return images, list(expected)


def _non_basis(images, rng):
    """Replace one image j by a word in the images that leaves no basis:
    its square, a word whose exponent sum in x_j is not +-1 (abelianization
    |det| != 1), or w_j w_i w_j w_i^-1 w_j^-1 beside w_i (babAB next to a)."""
    rank = len(images)
    words = [w.letters for w in images]
    j = rng.randrange(rank)
    kind = rng.randrange(3)
    if kind == 0:
        new = words[j] + words[j]
    elif kind == 1:
        while True:
            u = [rng.choice(list(signed_letters(rank))) for _ in range(rng.randint(1, 5))]
            if abs(sum(1 if x > 0 else -1 for x in u if abs(x) == j + 1)) != 1:
                break
        new = sum((words[abs(x) - 1] if x > 0 else inverse_letters(words[abs(x) - 1])
                   for x in u), ())
    else:
        a, b = words[(j + 1) % rank], words[j]
        new = b + a + b + inverse_letters(a) + inverse_letters(b)
    out = list(images)
    out[j] = Word(reduce_letters(new))
    return out


class TestBasisFold:
    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_matches_oracle_and_composed_inverse(self, rank):
        rng = random.Random(1000 + rank)
        for _ in range(40):
            images, expected = _seeded_basis(rank, rng, rng.randint(0, 6))
            assert scan_is_basis(images, rank)
            assert is_basis(images, rank)
            assert inverse_images(images, rank) == expected
            bad = _non_basis(images, rng)
            assert not scan_is_basis(bad, rank)
            assert not is_basis(bad, rank)
            with pytest.raises(ValueError, match="do not form a basis"):
                inverse_images(bad, rank)

    def test_rank_two_commutator_criterion(self):
        # (u, v) is a basis of F_2 iff [u, v] is conjugate to [a, b]^+-1
        commutator = C("abAB")
        short = [w for n in range(1, 4)
                 for w in map(Word, itertools.product((1, -1, 2, -2), repeat=n))
                 if reduce_letters(w.letters) == w.letters]
        for u in short:
            for v in short:
                c = CyclicWord.make(u.letters + v.letters + inverse_letters(u.letters)
                                    + inverse_letters(v.letters))
                assert is_basis([u, v], 2) == (c == commutator), (u, v)

    def test_long_rank_five_basis(self):
        rng = random.Random(55)
        phi = Automorphism.identity(5)
        while sum(map(len, phi.images)) < 2000:
            phi = phi.compose(random_whitehead_move(5, rng).automorphism(5))
        images = Automorphism(5, phi.images)
        assert verify_inverse(images, Automorphism(5, inverse_images(phi.images, 5)))


def _assert_fold_matches_oracles(images, rank):
    """The union-find fold's verdict is the scan oracle's and the gauge
    fold's, and the inverse it replays is the gauge fold's."""
    expected = gauge_fold(images, rank)
    assert is_basis(images, rank) == scan_is_basis(images, rank) == (expected is not None)
    if expected is None:
        with pytest.raises(ValueError, match="do not form a basis"):
            inverse_images(images, rank)
    else:
        assert inverse_images(images, rank) == expected


def _near_bases(images, rng):
    """Tuples next to a basis: one letter of one image substituted, inserted
    or deleted; one image raised to a proper power; the next image repeated
    in its place; one image emptied."""
    rank = len(images)
    words = [list(w.letters) for w in images]
    j = rng.randrange(rank)
    edited = list(words[j])
    p = rng.randrange(len(edited) + 1)
    letter = rng.choice(list(signed_letters(rank)))
    kind = rng.randrange(3)
    if kind == 0 and edited:
        edited[p % len(edited)] = letter
    elif kind == 1:
        edited.insert(p, letter)
    elif edited:
        del edited[p % len(edited)]
    out = []
    for new_j in (edited, words[j] * rng.randint(2, 3), words[(j + 1) % rank], []):
        near = list(images)
        near[j] = Word(reduce_letters(new_j))
        out.append(near)
    return out


class TestFoldAgainstOracles:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
    def test_random_bases_and_their_neighbours(self, rank):
        rng = random.Random(2800 + rank)
        for _ in range(40):
            images = list(random_automorphism(rank, rng, rng.randint(0, 10)).images)
            _assert_fold_matches_oracles(images, rank)
            for near in _near_bases(images, rng):
                _assert_fold_matches_oracles(near, rank)

    def test_axis_markings(self, golden_axis, tribo_axis):
        """Golden and plastic axis markings, lambda^s long, and their
        neighbours."""
        rng = random.Random(28)
        for ax in (golden_axis, tribo_axis):
            for s in (-12, -7, -2, 0, 3, 8, 12):
                images = list(ax.shift(ax.base, s).marking_map().images)
                _assert_fold_matches_oracles(images, ax.base.rank)
                for near in _near_bases(images, rng):
                    _assert_fold_matches_oracles(near, ax.base.rank)
