"""Whitehead automorphisms, peak reduction, primitivity, free factors.

Two families of moves over a rank-n alphabet:

* type I: signed permutations of the generators (length preserving);
* type II: a multiplier letter ``a`` and a set ``A`` of letters with
  ``a in A`` and ``a^-1 not in A``; each generator x (other than the
  multiplier's) maps to ``x a``, ``a^-1 x``, ``a^-1 x a`` or ``x``
  according to whether x, x^-1 lie in A.

Peak reduction makes greedy length descent complete: a tuple not of
minimal total length in its automorphism orbit admits a single type-II
move that strictly shortens it (Lyndon & Schupp, Combinatorial Group
Theory, Prop. I.4.17; Higgins & Lyndon, J. London Math. Soc. 1974).  So
one descent decides both questions asked here: primitivity of a single
word, by its cyclic length, and free factors, by the total length of a
tuple.

No move is applied just to learn its length change.  The Whitehead
(star) graph of a tuple has the 2n letters as vertices and, for every
pair of adjacent letters ``x y``, an edge joining x and y^-1; cyclic
words wrap around, and a linear word gets a sentinel letter, in no A,
at both ends.  The move (A, a) changes the total length by cap(A) -
deg(a), where cap(A) counts the edges leaving A (Lyndon & Schupp,
Combinatorial Group Theory, Prop. I.4.16).  A descent step builds the
graph in O(|w|) and the deltas of all M = 2n(4^(n-1) - 1) type-II moves
in O(M), each from a smaller one; only the move it takes is applied.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from . import stallings
from .words import Alphabet, Word, cyclically_reduce, free_reduce, letter_key


@dataclass(frozen=True)
class WhiteheadMove:
    """One Whitehead automorphism, applicable to words over its alphabet."""

    alphabet: Alphabet
    kind: str  # "permutation" or "multiplier"
    # permutation: images[i] is the signed letter image of generator i+1.
    images: tuple[int, ...] = ()
    # multiplier: the multiplier letter and the affected letter set.
    multiplier: int = 0
    affected: frozenset[int] = frozenset()

    def letter_image(self, letter: int) -> tuple[int, ...]:
        if self.kind == "permutation":
            img = self.images[abs(letter) - 1]
            return (img,) if letter > 0 else (-img,)
        a = self.multiplier
        if abs(letter) == abs(a):
            return (letter,)
        g = abs(letter)
        in_a = g in self.affected
        inv_in_a = -g in self.affected
        if in_a and not inv_in_a:
            image = (g, a)
        elif inv_in_a and not in_a:
            image = (-a, g)
        elif in_a and inv_in_a:
            image = (-a, g, a)
        else:
            image = (g,)
        if letter > 0:
            return image
        return tuple(-l for l in reversed(image))

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        return Word(self.alphabet, free_reduce(l for x in w.letters for l in self.letter_image(x)), _reduced=True)

    def inverse(self) -> "WhiteheadMove":
        if self.kind == "permutation":
            inv = [0] * len(self.images)
            for i, img in enumerate(self.images):
                inv[abs(img) - 1] = (i + 1) if img > 0 else -(i + 1)
            return WhiteheadMove(self.alphabet, "permutation", images=tuple(inv))
        a = self.multiplier
        affected = frozenset(self.affected - {a}) | {-a}
        return WhiteheadMove(self.alphabet, "multiplier", multiplier=-a, affected=affected)

    def endomorphism(self):
        """The underlying endomorphism (an automorphism of the free group)."""
        from .endos import Endomorphism

        images = {}
        for i, name in enumerate(self.alphabet.generators):
            images[name] = Word(self.alphabet, self.letter_image(i + 1), _reduced=True)
        return Endomorphism(self.alphabet, images)

    def __repr__(self) -> str:
        if self.kind == "permutation":
            body = ", ".join(
                f"{name}->{self._letter_str(img)}"
                for name, img in zip(self.alphabet.generators, self.images)
            )
            return f"WhiteheadMove(perm: {body})"
        letters = sorted(self.affected, key=letter_key)
        body = " ".join(self._letter_str(l) for l in letters)
        return f"WhiteheadMove(mult {self._letter_str(self.multiplier)}; A={{{body}}})"

    def _letter_str(self, letter: int) -> str:
        name = self.alphabet.letter_name(letter)
        return name if letter > 0 else name + "^-1"


def type_ii_move_count(rank: int) -> int:
    """Closed form: 2n multipliers, 2^(2n-2) - 1 nontrivial sets each."""
    if rank == 0:
        return 0
    return 2 * rank * (2 ** (2 * rank - 2) - 1)


def whitehead_moves(alphabet: Alphabet, kinds: str = "both") -> list[WhiteheadMove]:
    """The complete finite list of Whitehead moves, deterministically ordered."""
    if alphabet.rank == 0:
        raise ValueError("alphabet must be nonempty")
    moves: list[WhiteheadMove] = []
    n = alphabet.rank
    if kinds in ("both", "permutation"):
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                images = tuple(p * s for p, s in zip(perm, signs))
                moves.append(WhiteheadMove(alphabet, "permutation", images=images))
    if kinds in ("both", "multiplier"):
        all_letters = alphabet.letters()
        for a in all_letters:
            others = [l for l in all_letters if l != a and l != -a]
            for mask in range(1, 1 << len(others)):
                moves.append(_multiplier_move(alphabet, a, others, mask))
    return moves


@dataclass(frozen=True)
class MinimizationTrace:
    initial: tuple[Word, ...]
    final: tuple[Word, ...]
    moves: tuple[WhiteheadMove, ...]

    @property
    def final_length(self) -> int:
        return sum(len(w) for w in self.final)


def _deltas(words: tuple[Word, ...], cyclic: bool):
    """Yield (a, others, deltas) per multiplier a, in the order of ``whitehead_moves``.

    deltas[mask] is the total length change under the move (A, a), A = {a}
    + {others[i] : bit i of mask}: with gain(o) = deg(o) - 2 c(a, o), the
    gains over A - {a} less twice the edges inside A - {a}.  A mask with
    highest bit h adds others[h] to a smaller mask, so each costs O(1).
    Letter 0 is the sentinel.
    """
    count, degree = Counter(), Counter()
    for w in words:
        lets = w.letters
        for x, y in zip(lets, lets[1:] + lets[:1]) if cyclic else zip((0,) + lets, lets + (0,)):
            count[x, -y] += 1
            count[-y, x] += 1
            degree[x] += 1
            degree[-y] += 1
    letters = words[0].alphabet.letters()
    for a in letters:
        others = [l for l in letters if l != a and l != -a]
        deltas = [0]
        for h, o in enumerate(others):
            into = [0]  # into[mask]: edges from o into the letters of mask
            for p in others[:h]:
                c = count[o, p]
                into += [e + c for e in into]
            gain = degree[o] - 2 * count[a, o]
            deltas += [d + gain - 2 * e for d, e in zip(deltas, into)]
        yield a, others, deltas


def _multiplier_move(alphabet: Alphabet, a: int, others: list[int], mask: int) -> WhiteheadMove:
    affected = frozenset([a] + [others[i] for i in range(len(others)) if mask >> i & 1])
    return WhiteheadMove(alphabet, "multiplier", multiplier=a, affected=affected)


def minimize_tuple(words: Sequence[Word], cyclic: bool = False) -> MinimizationTrace:
    """Greedy descent: apply the first strictly shortening type-II move.

    Peak reduction guarantees the fixed point has globally minimal total
    length within the automorphism orbit.  Applying the recorded moves in
    order to the initial tuple reproduces the final tuple exactly.  With
    ``cyclic`` every word is replaced by its cyclic core, before the
    descent and after each move, and cyclic length is minimized: the
    trace then tracks conjugacy classes, which is all primitivity needs.
    """
    words = tuple(cyclically_reduce(w)[0] if cyclic else w for w in words)
    if not words:
        return MinimizationTrace((), (), ())
    if any(w.alphabet != words[0].alphabet for w in words):
        raise ValueError("alphabet mismatch")
    current = words
    applied: list[WhiteheadMove] = []
    while True:
        found = next(((a, o, m) for a, o, d in _deltas(current, cyclic) for m in range(1, len(d)) if d[m] < 0), None)
        if found is None:
            return MinimizationTrace(words, current, tuple(applied))
        move = _multiplier_move(words[0].alphabet, *found)
        current = tuple(cyclically_reduce(move.apply(w))[0] if cyclic else move.apply(w) for w in current)
        applied.append(move)


def is_primitive(w: Word, alphabet: Optional[Alphabet] = None) -> bool:
    """Whitehead's criterion: w is primitive iff its cyclic word minimizes to length 1."""
    if alphabet is not None and w.alphabet != alphabet:
        raise ValueError("alphabet mismatch")
    if not w:
        raise ValueError("the empty word is not a candidate for primitivity")
    return minimize_tuple((w,), cyclic=True).final_length == 1


def is_free_factor(basis: Sequence[Word], alphabet: Alphabet) -> bool:
    """Decide whether the subgroup with the given basis is a free factor.

    An independent k-tuple U generates a free factor iff it extends to a
    basis of F, iff some automorphism maps it to k distinct generators up
    to sign, iff its Aut(F)-orbit holds a tuple of total length k: k
    nontrivial words of total length k are single letters, and
    independence, which automorphisms preserve, makes their generators
    distinct.  Type-I moves keep lengths, and peak reduction makes the
    greedy type-II descent reach the least total length in the orbit.
    So U is a free-factor basis iff its descent ends at length k.

    Raises ValueError when the words are not independent (the subgroup
    graph rank must equal the tuple length).
    """
    words = tuple(basis)
    for w in words:
        if w.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
    if stallings.subgroup_graph(alphabet, words).rank() != len(words):
        raise ValueError("words are not an independent basis")
    return minimize_tuple(words).final_length == len(words)
