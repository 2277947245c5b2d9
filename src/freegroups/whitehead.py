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
Combinatorial Group Theory, Prop. I.4.16), and the least cap(A) of a
multiplier a is the min cut between a and a^-1 (Roig, Ventura & Weil,
IJAC 17, 2007): every step is decided by max flows on that graph.
``minimize_tuple`` takes the first move in the order of
``whitehead_moves``: the first a whose min cut is below deg(a), with
the least bit mask A of cap(A) < deg(a).  The deciders take the
steepest move, as peak reduction needs only some shortening move.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from . import stallings
from .endos import Endomorphism
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
        a, g = self.multiplier, abs(letter)
        if g == abs(a):
            return (letter,)
        # g -> g a if g is in A, a^-1 g if g^-1 is, a^-1 g a if both are.
        image = (-a,) * (-g in self.affected) + (g,) + (a,) * (g in self.affected)
        return image if letter > 0 else tuple(-l for l in reversed(image))

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        image = {x: self.letter_image(x) for x in self.alphabet.letters()}
        letters = itertools.chain.from_iterable(map(image.__getitem__, w.letters))
        return Word(self.alphabet, free_reduce(letters), _reduced=True)

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


def whitehead_moves(alphabet: Alphabet, kinds: str = "both") -> list[WhiteheadMove]:
    """The complete finite list of Whitehead moves, deterministically ordered."""
    if kinds not in ("both", "permutation", "multiplier"):
        raise ValueError(f"kinds must be 'both', 'permutation' or 'multiplier', not {kinds!r}")
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


def _star_graph(words: tuple[Word, ...], cyclic: bool) -> list[list[int]]:
    """The Whitehead graph as a matrix: entry [x][y] counts the edges joining x and y.

    Indices are signed letters (Python wraps a negative index); 0 is the sentinel.
    """
    pairs: Counter = Counter()
    for w in words:
        lets = w.letters
        pairs.update(zip(lets, lets[1:] + lets[:1]) if cyclic else zip((0,) + lets, lets + (0,)))
    size = 2 * words[0].alphabet.rank + 1
    graph = [[0] * size for _ in range(size)]
    for (x, y), c in pairs.items():
        graph[x][-y] += c
        graph[-y][x] += c
    return graph


def _multiplier_move(alphabet: Alphabet, a: int, others: list[int], mask: int) -> WhiteheadMove:
    affected = frozenset([a] + [others[i] for i in range(len(others)) if mask >> i & 1])
    return WhiteheadMove(alphabet, "multiplier", multiplier=a, affected=affected)


def _first_move(words: tuple[Word, ...], cyclic: bool) -> Optional[WhiteheadMove]:
    """The first shortening type-II move in the order of ``whitehead_moves``, or None.

    For the first multiplier a whose min cut is below deg(a), the bits of
    the mask are fixed from the highest down: bit h stays 0 if a cut below
    deg(a) survives forcing others[h] to the sink side, and is set, as in
    every such cut, otherwise.  Forcing only adds capacity, so each flow
    resumes from the last kept one: at most 4n - 2 flows.
    """
    graph = _star_graph(words, cyclic)
    size, forced = len(graph), sum(map(sum, graph)) + 1
    letters = words[0].alphabet.letters()
    for a in letters:
        s, t, degree = a % size, -a % size, sum(graph[a])
        residual = [row[:] for row in graph]
        if (flow := _max_flow(residual, s, t, degree)[0]) < degree:
            break
    else:
        return None
    others, mask = [l for l in letters if abs(l) != abs(a)], 0
    for h in reversed(range(len(others))):
        trial = [row[:] for row in residual]
        trial[others[h]][t] += forced
        if (trial_flow := _max_flow(trial, s, t, degree, flow)[0]) < degree:
            residual, flow = trial, trial_flow
        else:
            mask |= 1 << h
    return _multiplier_move(words[0].alphabet, a, others, mask)


def _min_cut_move(words: tuple[Word, ...], cyclic: bool) -> Optional[WhiteheadMove]:
    """A steepest shortening type-II move, or None.

    The most negative min cut - deg(a) wins, the first a on ties, with A
    its smallest min cut.  A flow stops at deg(a) plus the best change so
    far, which it cannot beat.
    """
    graph = _star_graph(words, cyclic)
    size = len(graph)
    best, move = 0, None
    for a in words[0].alphabet.letters():
        limit = sum(graph[a]) + best
        flow, cut = _max_flow([row[:] for row in graph], a % size, -a % size, limit)
        if flow < limit:
            best = flow - sum(graph[a])
            affected = frozenset(v - size if 2 * v > size else v for v in cut)
            move = WhiteheadMove(words[0].alphabet, "multiplier", multiplier=a, affected=affected)
    return move


def _max_flow(residual: list[list[int]], s: int, t: int, limit: int, flow: int = 0):
    """(flow, source side) of a max flow from s to {t, 0}, or (limit, None) once it reaches limit.

    Augments ``residual``, which holds a flow of value ``flow``, in place
    along shortest paths; when none is left, what s reaches is the smallest min cut.
    """
    while flow < limit:
        parent = {s: s}
        queue = [s]
        for u in queue:
            for v, r in enumerate(residual[u]):
                if r and v not in parent:
                    parent[v] = u
                    queue.append(v)
            if t in parent or 0 in parent:
                break
        else:
            return flow, parent.keys()
        path = [t if t in parent else 0]
        while path[-1] != s:
            path.append(parent[path[-1]])
        edges = list(zip(path[1:], path))
        push = min(limit - flow, *(residual[u][v] for u, v in edges))
        for u, v in edges:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push
    return limit, None


def _descend(words: Sequence[Word], cyclic: bool, pick) -> MinimizationTrace:
    """Apply the move ``pick`` finds until it finds none: the one descent loop."""
    words = tuple(cyclically_reduce(w)[0] if cyclic else w for w in words)
    if not words:
        return MinimizationTrace((), (), ())
    if any(w.alphabet != words[0].alphabet for w in words):
        raise ValueError("alphabet mismatch")
    current, applied = words, []
    while (move := pick(current, cyclic)) is not None:
        current = tuple(cyclically_reduce(move.apply(w))[0] if cyclic else move.apply(w) for w in current)
        applied.append(move)
    return MinimizationTrace(words, current, tuple(applied))


def minimize_tuple(words: Sequence[Word], cyclic: bool = False) -> MinimizationTrace:
    """Greedy descent: apply the first strictly shortening type-II move.

    Peak reduction guarantees the fixed point has globally minimal total
    length within the automorphism orbit.  Applying the recorded moves in
    order to the initial tuple reproduces the final tuple exactly.  With
    ``cyclic`` every word is replaced by its cyclic core, before the
    descent and after each move, and cyclic length is minimized: the
    trace then tracks conjugacy classes, which is all primitivity needs.
    """
    return _descend(words, cyclic, _first_move)


def is_primitive(w: Word, alphabet: Optional[Alphabet] = None) -> bool:
    """Whitehead's criterion: w is primitive iff its cyclic word minimizes to length 1."""
    if alphabet is not None and w.alphabet != alphabet:
        raise ValueError("alphabet mismatch")
    if not w:
        raise ValueError("the empty word is not a candidate for primitivity")
    return _descend((w,), True, _min_cut_move).final_length == 1


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
    return _descend(words, False, _min_cut_move).final_length == len(words)
