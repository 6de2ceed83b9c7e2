"""Words, cyclic words and Whitehead automorphisms of a rank-n free group.

A letter is a nonzero integer: generator i is +i, its inverse is -i.
Text form uses lowercase a..z for generators and uppercase for inverses,
so "abA" is the reduced word a b a^-1.

`join_pieces` is the library's one substitution: it replaces each key by
its piece and freely reduces, cancelling only at the junctions, so every
piece must itself be freely reduced. Acting by an automorphism, rewriting
by a Whitehead move, mapping a path by a graph map, reading a path's
geometric word (the marking map) or its word through its half-edge labels,
collapsing a forest (minimal_model) and realizing a word at a point all go
through it; free reduction is confluent, so the result is the free
reduction of the whole concatenation. Words and paths are tuples of ints,
and `reduce_letters` and `join_pieces` are the only free reductions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import neg

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class RankMismatchError(ValueError):
    """Operands live in free groups of different ranks. Two ranks a != b
    raise RankMismatchError.between(a, b), its one message "rank mismatch:
    a vs b", and nothing else raises it; a rank below 1, or a letter or
    word beyond a rank, is a plain ValueError with a message of its own."""

    @classmethod
    def between(cls, a: int, b: int) -> "RankMismatchError":
        return cls(f"rank mismatch: {a} vs {b}")


class InvalidMoveError(ValueError):
    """(A, a) does not satisfy a in A, a^-1 not in A."""


def letter_key(letter: int) -> tuple:
    """Deterministic letter order: 1 < -1 < 2 < -2 < ..."""
    return (abs(letter), letter < 0)


def word_key(letters) -> tuple:
    return tuple(letter_key(l) for l in letters)


def reduce_letters(letters) -> tuple:
    """Freely reduce a letter sequence (stack cancellation)."""
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def join_pieces(pieces, keys):
    """The free reduction of the concatenated pieces[k] for k in keys, each
    piece a freely reduced sequence: appends piece by piece, cancelling only
    at the junction, since what is left of a reduced piece after the
    junction is reduced too. Raises KeyError on a key not in pieces."""
    out = []
    pop, extend = out.pop, out.extend
    for key in keys:
        piece = pieces[key]
        if out and piece and out[-1] == -piece[0]:
            pop()
            k, n = 1, len(piece)
            while k < n and out and out[-1] == -piece[k]:
                pop()
                k += 1
            extend(piece[k:])
        else:
            extend(piece)
    return tuple(out)


def inverse_letters(letters) -> tuple:
    return tuple(map(neg, reversed(letters)))


def piece_table(words) -> dict:
    """The join_pieces table of a map given on the generators or edges
    1..n: +i -> the i-th of the words, -i -> its inverse."""
    table = {}
    for i, w in enumerate(words, 1):
        table[i], table[-i] = w, inverse_letters(w)
    return table


def _check_letters(letters, rank=None):
    for l in letters:
        if not isinstance(l, int) or l == 0:
            raise ValueError(f"invalid letter {l!r}: letters are nonzero integers")
        if rank is not None and abs(l) > rank:
            raise ValueError(f"letter {l} out of rank range (rank {rank})")


def parse_letters(text: str, names: str = ALPHABET) -> tuple:
    """Parse text like 'xyXY' into letters, mapping names[i] -> i+1."""
    letters = []
    for ch in text:
        low = ch.lower()
        if low not in names:
            raise ValueError(f"unknown generator character {ch!r}")
        idx = names.index(low) + 1
        letters.append(idx if ch.islower() else -idx)
    return tuple(letters)


@functools.lru_cache(maxsize=16)
def _letter_names(names: str) -> dict:
    """Letter -> text: generator i is names[i - 1], its inverse upper case."""
    table = {}
    for i, ch in enumerate(names, 1):
        table[i] = ch
        table[-i] = ch.upper()
    return table


def format_letters(letters, names: str = ALPHABET) -> str:
    try:
        return "".join(map(_letter_names(names).__getitem__, letters))
    except KeyError as e:
        raise ValueError(f"no name for generator {abs(e.args[0])}") from None


def least_rotation(letters) -> tuple:
    """Lexicographically least rotation under letter_key (Booth's algorithm)."""
    n = len(letters)
    if n == 0:
        return ()
    s = [letter_key(l) for l in letters] * 2
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return tuple(letters[k:]) + tuple(letters[:k])


@dataclass(frozen=True)
class Word:
    """A freely reduced word. Construct with Word.make to reduce raw input."""

    letters: tuple = ()

    @staticmethod
    def make(letters, rank=None) -> "Word":
        _check_letters(letters, rank)
        return Word(reduce_letters(letters))

    @staticmethod
    def parse(text: str, rank=None) -> "Word":
        return Word.make(parse_letters(text), rank)

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(reduce_letters(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(inverse_letters(self.letters))

    def __str__(self):
        return format_letters(self.letters) if self.letters else "1"

    def max_index(self) -> int:
        return max(map(abs, self.letters), default=0)


def cyclic_tighten(letters) -> tuple:
    """The core of a freely reduced word or closed path, letters =
    u + core + u^-1 with no inverse pair at the ends of core. The ends are
    stripped by two index pointers, so the cost is linear in the length."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    return tuple(letters[i : j + 1])


def cyclic_reduce(w: Word) -> tuple:
    """Split w = conjugator * core * conjugator^-1 with core cyclically reduced.

    Returns (CyclicWord, conjugator Word).
    """
    core = cyclic_tighten(w.letters)
    conjugator = w.letters[: (len(w) - len(core)) // 2]
    return CyclicWord(canonical_cyclic(core)), Word(conjugator)


def canonical_cyclic(letters) -> tuple:
    """Canonical form of a cyclically reduced word: least rotation over the
    word and its inverse (letter order 1 < -1 < 2 < -2 ...)."""
    a = least_rotation(letters)
    b = least_rotation(inverse_letters(letters))
    return a if word_key(a) <= word_key(b) else b


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced word up to rotation and inversion, stored in
    canonical form. Construct with CyclicWord.make to normalize raw input."""

    letters: tuple = ()

    @staticmethod
    def make(letters, rank=None) -> "CyclicWord":
        _check_letters(letters, rank)
        return CyclicWord(canonical_cyclic(cyclic_tighten(reduce_letters(letters))))

    @staticmethod
    def parse(text: str, rank=None) -> "CyclicWord":
        return CyclicWord.make(parse_letters(text), rank)

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def inverse(self) -> "CyclicWord":
        return self  # canonical form already identifies w with w^-1

    def __str__(self):
        return format_letters(self.letters) if self.letters else "1"

    def max_index(self) -> int:
        return max(map(abs, self.letters), default=0)


class Automorphism:
    """An endomorphism of F_rank given by generator images.

    It is certified bijective exactly when it knows its inverse, `_inv`,
    which is None until then: the identity is its own inverse, a Whitehead
    move's automorphism is born linked to its inverse move's, a composite of
    two certified automorphisms is born linked to the composite of their
    inverses, and verify_inverse links a pair it has checked. Bijectivity is
    not checked on construction. is_bijective() decides it without reading
    a word: by the known inverse, or else by is_basis, one gauge-free
    Stallings fold of the wedge of the image loops. .inverse() returns the
    known inverse, or the words inverse_images reads by replaying that fold
    with gauge words, which verify_inverse then checks.
    """

    __slots__ = ("rank", "images", "_inv", "_table")

    def __init__(self, rank: int, images):
        images = tuple(images)
        if len(images) != rank:
            raise ValueError(f"need {rank} images, got {len(images)}")
        for im in images:
            if not isinstance(im, Word):
                raise TypeError("images must be Words")
            if im.max_index() > rank:
                raise ValueError("image letter out of rank range")
        self.rank = rank
        self.images = images
        self._inv = None  # the certified inverse, once known
        self._table = None  # letter +-i -> image of +-i, see _letter_table

    @staticmethod
    def identity(rank: int) -> "Automorphism":
        phi = Automorphism(rank, [Word((i,)) for i in range(1, rank + 1)])
        phi._inv = phi
        return phi

    def _letter_table(self) -> dict:
        """Letter +-i -> the letters of the image of +-i, built on first use."""
        if self._table is None:
            self._table = piece_table(im.letters for im in self.images)
        return self._table

    def _outside(self, letter) -> ValueError:
        return ValueError(f"letter {letter!r} out of rank range (rank {self.rank})")

    def image_of(self, letter: int) -> tuple:
        try:
            return self._letter_table()[letter]
        except KeyError:
            raise self._outside(letter) from None

    def apply_letters(self, letters) -> tuple:
        """The free reduction of the images of the letters: join_pieces over
        the letter table. A letter outside +-1..+-rank raises ValueError."""
        try:
            return join_pieces(self._letter_table(), letters)
        except KeyError as e:
            raise self._outside(e.args[0]) from None

    def apply(self, w: Word) -> Word:
        if w.max_index() > self.rank:
            raise ValueError("word rank exceeds automorphism rank")
        return Word(self.apply_letters(w.letters))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self.compose(other))(w) = self(other(w)). When
        both know their inverses, the composite is linked to other^-1 after
        self^-1."""
        if self.rank != other.rank:
            raise RankMismatchError.between(self.rank, other.rank)
        phi = Automorphism(self.rank, [Word(self.apply_letters(im.letters))
                                       for im in other.images])
        if self._inv is not None and other._inv is not None:
            apply = other._inv.apply_letters
            _link(phi, Automorphism(self.rank, [Word(apply(im.letters))
                                                for im in self._inv.images]))
        return phi

    def is_bijective(self) -> bool:
        """True iff an automorphism: the inverse is known, or the images
        form a basis (is_basis, which reads no inverse)."""
        return self._inv is not None or is_basis(self.images, self.rank)

    def inverse(self) -> "Automorphism":
        """The inverse; when none is known, the fold's, checked by
        verify_inverse. Raises ValueError on a non-basis."""
        if self._inv is None:
            inv = Automorphism(self.rank, inverse_images(self.images, self.rank))
            if not verify_inverse(self, inv):
                raise ValueError("failed to certify computed inverse")
        return self._inv

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.rank == other.rank
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.rank, self.images))

    def __str__(self):
        gens = ", ".join(
            f"{format_letters((i + 1,))}->{im}" for i, im in enumerate(self.images)
        )
        return f"Aut[{gens}]"

    __repr__ = __str__


def _link(phi: Automorphism, psi: Automorphism):
    """Record phi and psi as each other's certified inverse."""
    phi._inv, psi._inv = psi, phi


def verify_inverse(phi: Automorphism, psi: Automorphism) -> bool:
    """True iff phi o psi and psi o phi both fix every generator; a pair
    so checked is linked as each other's certified inverse."""
    if phi.rank != psi.rank:
        raise RankMismatchError.between(phi.rank, psi.rank)
    for i in range(1, phi.rank + 1):
        if phi.apply_letters(psi.image_of(i)) != (i,):
            return False
        if psi.apply_letters(phi.image_of(i)) != (i,):
            return False
    _link(phi, psi)
    return True


@dataclass(frozen=True)
class WhiteheadMove:
    """Whitehead automorphism data (A, a): a in A, a^-1 not in A."""

    A: frozenset
    a: int

    def __post_init__(self):
        if self.a not in self.A:
            raise InvalidMoveError("a must lie in A")
        if -self.a in self.A:
            raise InvalidMoveError("a^-1 must not lie in A")

    def inverse_move(self) -> "WhiteheadMove":
        return WhiteheadMove(frozenset(self.A - {self.a}) | {-self.a}, -self.a)

    def images(self, rank: int) -> tuple:
        """Letters of the images of the generators 1..rank: a fixes +-a,
        and x -> (a if x^-1 in A) x (a^-1 if x in A) otherwise."""
        a, A = self.a, self.A
        return tuple(
            (x,) if x == abs(a)
            else ((a,) if -x in A else ()) + (x,) + ((-a,) if x in A else ())
            for x in range(1, rank + 1)
        )

    def automorphism(self, rank: int) -> Automorphism:
        """The automorphism of the move, linked to its inverse move's."""
        phi = Automorphism(rank, map(Word, self.images(rank)))
        _link(phi, Automorphism(rank, map(Word, self.inverse_move().images(rank))))
        return phi

    def sort_key(self):
        return (letter_key(self.a), tuple(sorted(word_key((x,)) for x in self.A)))

    def __str__(self):
        body = "".join(sorted((format_letters((x,)) for x in self.A)))
        return f"({{{body}}}, {format_letters((self.a,))})"


def random_whitehead_move(rank: int, rng) -> WhiteheadMove:
    """A seeded move (A, a): a drawn by rng.choice over the letters in
    letter_key order, then one rng.random() draw per other letter, which
    joins A with probability 1/2."""
    letters = sorted(signed_letters(rank), key=letter_key)
    a = rng.choice(letters)
    return WhiteheadMove(
        frozenset([a, *(x for x in letters if x not in (a, -a) and rng.random() < 0.5)]), a
    )


def random_automorphism(rank: int, rng, n_moves: int) -> Automorphism:
    """The composite m_1 m_2 ... m_k of n_moves seeded random_whitehead_moves,
    drawn in that order; acting by it acts by m_1, then m_2, and so on."""
    moves = [random_whitehead_move(rank, rng).automorphism(rank) for _ in range(n_moves)]
    return functools.reduce(Automorphism.compose, moves) if moves else Automorphism.identity(rank)


def signed_letters(rank: int):
    for i in range(1, rank + 1):
        yield i
        yield -i


def find(parent, v):
    """The root of v in the union-find forest `parent`, a list or dict of
    parents in which a root is its own, halving the path to it."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


# Basis certification and inversion (Stallings, "Topology of finite graphs",
# 1983; Kapovich-Myasnikov, "Stallings foldings and subgroups of free
# groups", 2002): the wedge of the image loops at a base vertex, each edge
# labelled by a letter a_j of an image, is folded once, and the words are
# read off that fold only when asked for.
#
# _fold is gauge-free (Touikan, "A fast algorithm for Stallings' folding
# process", 2006): vertices and edge classes live in a union-find, and each
# vertex class keeps its out-edges, label -> half-edge, merged smaller into
# larger, where two half-edges with one label make a pending fold. A fold of
# two distinct edge classes whose heads already coincide (type II) kills a
# loop, so a nontrivial word maps to 1 and the tuple is not a basis; a fold
# of distinct heads (type I) is a homotopy equivalence and is recorded. The
# tuple is a basis iff the fold ends with one vertex: the rose with n loops
# labelled a_1..a_n.
#
# inverse_images replays the recorded type-I folds with gauge words. Each
# edge reads a domain word in x_1..x_n, and a closed path at the base reads
# the domain word whose image is its label. Folding an edge reading d2 onto
# one reading d1 changes the gauge at the absorbed head by g = d1^-1 d2 (its
# out-edges then read g d, its in-edges d g^-1) and identifies the heads, so
# in the end the loop labelled a_j reads phi^-1(a_j). The replay searches no
# adjacency, but its gauge words make it quadratic in the images' length.


def _wedge(words):
    """The wedge of the loops of the words at the base vertex 0: the tail,
    label and head of each half-edge, half-edge 2e running along edge e and
    2e + 1 back, and the number of vertices."""
    tails, labels, heads = [], [], []
    n = 1
    for w in words:
        path = [0, *range(n, n + len(w) - 1), 0]
        n += len(w) - 1
        for t, l, h in zip(path, w, path[1:]):
            tails += (t, h)
            labels += (l, -l)
            heads += (h, t)
    return tails, labels, heads, n


def _fold(images, rank: int):
    """The type-I folds (kept, folded half-edge), in order, that fold the
    wedge of the image loops to the rank-n rose, or None if the images are
    not a basis of F_rank."""
    words = [w.letters for w in images]
    if len(words) != rank or not all(words):
        return None
    tails, labels, heads, n = _wedge(words)
    vertex = list(range(n))  # union-find parents of the vertices
    edge = list(range(len(labels) // 2))  # and of the edge classes
    out = [{} for _ in range(n)]  # vertex root -> {label: half-edge out of it}
    todo = []  # (kept, folded): half-edges with one tail and one label
    for h, (t, l) in enumerate(zip(tails, labels)):
        kept = out[t].setdefault(l, h)
        if kept != h:
            todo.append((kept, h))
    folds = []
    while todo:
        h1, h2 = todo.pop()
        v1, v2 = find(vertex, heads[h1]), find(vertex, heads[h2])
        e1, e2 = find(edge, h1 >> 1), find(edge, h2 >> 1)
        if v1 == v2:
            if e1 != e2:
                return None
            continue
        folds.append((h1, h2))
        edge[e2] = e1
        if len(out[v1]) < len(out[v2]):
            v1, v2 = v2, v1
        vertex[v2] = v1
        n -= 1
        big = out[v1]
        for l, h in out[v2].items():
            kept = big.setdefault(l, h)
            if kept != h:
                todo.append((kept, h))
        out[v2] = None
    return folds if n == 1 else None


def is_basis(words, rank: int) -> bool:
    """True iff the given Words form a free basis of F_rank."""
    return _fold(words, rank) is not None


def inverse_images(images, rank: int):
    """Images of the inverse automorphism of x_i -> images[i]: the words
    the rose's loops read once _fold's folds are replayed with gauge words.
    Raises ValueError when the images do not form a basis."""
    images = tuple(images)
    folds = _fold(images, rank)
    if folds is None:
        raise ValueError("generator images do not form a basis")
    words = [w.letters for w in images]
    tails, labels, heads, n = _wedge(words)
    domain = {}  # the first edge of loop i reads x_i, every other edge 1
    first = 0
    for i, w in enumerate(words, 1):
        domain[first], domain[first + 1] = (i,), (-i,)
        first += 2 * len(w)
    # vertex v: union-find parent and gauge word; half-edge h reads
    # G(tails[h]) domain[h] G(heads[h])^-1, G(v) = G(parent) gauge[v]
    parent, gauge = list(range(n)), [()] * n

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
        (_, ga), (b, gb) = find(tails[h]), find(heads[h])
        return b, reduce_letters(ga + domain.get(h, ()) + inverse_letters(gb))

    for h1, h2 in folds:
        w1, d1 = read(h1)
        w2, d2 = read(h2)
        g = reduce_letters(inverse_letters(d1) + d2)
        if w2 == 0:
            w1, w2, g = w2, w1, inverse_letters(g)
        parent[w2], gauge[w2] = w1, g
    return [Word(read(labels.index(j))[1]) for j in range(1, rank + 1)]


def enumerate_cyclic_words(rank: int, max_len: int):
    """All canonical cyclic words of length 1..max_len, deterministic order."""
    letters = sorted(signed_letters(rank), key=letter_key)
    out = []
    for n in range(1, max_len + 1):
        seen = set()
        for tup in itertools.product(letters, repeat=n):
            red = cyclic_tighten(reduce_letters(tup))
            if len(red) != n:
                continue
            can = canonical_cyclic(red)
            if can not in seen:
                seen.add(can)
                out.append(CyclicWord(can))
    return out
