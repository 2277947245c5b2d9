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
tuple.  A word whose exponent sums have a gcd other than 1 is not
primitive, which ``is_primitive`` reads off before any descent.  Before
each step, both deciders drop every word holding a generator that occurs
once in the tuple, and answer True when no word is left.

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

A step does only that work: one star graph, whose degrees it reads
once; a flow, on a copy of the matrix, only for a multiplier that could
shorten; and one pass of the move over each word, which takes the
cyclic core as it ends.  A move's letter table is built in one pass
from (a, A).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from collections.abc import Sequence

from . import stallings
from .words import Alphabet, Word, _core, abelianize, cyclic_core, free_reduce, letter_key


class WhiteheadMove:
    """One Whitehead automorphism, applicable to words over its alphabet.

    ``kind`` is "permutation", with ``images[i]`` the signed letter image
    of generator i+1, or "multiplier", with the ``multiplier`` letter and
    the ``affected`` set.  The fields are read-only, compared and hashed
    as one tuple; the letter table is built at the first ``apply``.
    """

    __slots__ = ("_fields", "_table")

    def __init__(self, alphabet: Alphabet, kind: str, images: tuple[int, ...] = (), multiplier: int = 0,
                 affected: frozenset[int] = frozenset()):
        self._fields, self._table = (alphabet, kind, images, multiplier, affected), None

    alphabet = property(lambda self: self._fields[0])
    kind = property(lambda self: self._fields[1])
    images = property(lambda self: self._fields[2])
    multiplier = property(lambda self: self._fields[3])
    affected = property(lambda self: self._fields[4])

    def __eq__(self, other: object) -> bool:
        return self._fields == other._fields if type(other) is WhiteheadMove else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields)

    def letter_image(self, letter: int) -> tuple[int, ...]:
        if self.kind == "permutation":
            img = self.images[abs(letter) - 1]
            return (img,) if letter > 0 else (-img,)
        a = self.multiplier
        if abs(letter) == abs(a):
            return (letter,)
        # x -> x a if x is in A, a^-1 x if x^-1 is, a^-1 x a if both are (x of either sign).
        return (-a,) * (-letter in self.affected) + (letter,) + (a,) * (letter in self.affected)

    def _letter_table(self) -> list[tuple[int, ...]]:
        """Images by signed letter (a negative index wraps), in one pass over the images, or over A."""
        alphabet, kind, images, a, affected = self._fields
        perm = kind == "permutation"
        images = images if perm else range(1, alphabet.rank + 1)
        self._table = table = [(), *((x,) for x in images), *((-x,) for x in reversed(images))]
        for x in () if perm else affected:  # x in A: x -> x a, so x^-1 -> a^-1 x^-1
            if x != a and x != -a:
                table[x], table[-x] = table[x] + (a,), (-a,) + table[-x]
        return table

    def apply(self, w: Word, cyclic: bool = False) -> Word:
        """The reduced image of w, or with ``cyclic`` its cyclic core."""
        if w.alphabet != self._fields[0]:
            raise ValueError("alphabet mismatch")
        table = self._table or self._letter_table()
        out = free_reduce(itertools.chain.from_iterable(map(table.__getitem__, w.letters)))
        return Word(w.alphabet, _core(out) if cyclic else out, _reduced=True)

    def inverse(self) -> "WhiteheadMove":
        if self.kind == "permutation":
            inv = [0] * len(self.images)
            for i, img in enumerate(self.images):
                inv[abs(img) - 1] = (i + 1) if img > 0 else -(i + 1)
            return WhiteheadMove(self.alphabet, "permutation", images=tuple(inv))
        a = self.multiplier
        affected = frozenset(self.affected - {a}) | {-a}
        return WhiteheadMove(self.alphabet, "multiplier", multiplier=-a, affected=affected)

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


class MinimizationTrace(namedtuple("MinimizationTrace", "initial final moves")):
    __slots__ = ()

    @property
    def final_length(self) -> int:
        return sum(len(w) for w in self.final)


def _star_graph(words: tuple[Word, ...], cyclic: bool) -> list[list[int]]:
    """The Whitehead graph as a matrix: entry [x][y] counts the edges joining x and y.

    Indices are signed letters (Python wraps a negative index); 0 is the sentinel.
    """
    size = 2 * words[0].alphabet.rank + 1
    graph = [[0] * size for _ in range(size)]
    for w in words:
        lets = w.letters
        for x, y in zip(lets, lets[1:] + lets[:1]) if cyclic else zip((0, *lets), (*lets, 0)):
            graph[x][-y] += 1
            graph[-y][x] += 1
    return graph


def _multiplier_move(alphabet: Alphabet, a: int, others: list[int], mask: int) -> WhiteheadMove:
    affected = frozenset([a] + [others[i] for i in range(len(others)) if mask >> i & 1])
    return WhiteheadMove(alphabet, "multiplier", multiplier=a, affected=affected)


def _first_move(words: tuple[Word, ...], cyclic: bool) -> WhiteheadMove | None:
    """The first shortening type-II move in the order of ``whitehead_moves``, or None.

    For the first multiplier a whose min cut is below deg(a), the bits of
    the mask are fixed from the highest down: bit h stays 0 if a cut below
    deg(a) survives forcing others[h] to the sink side, and is set, as in
    every such cut, otherwise.  Forcing only adds capacity, so each flow
    resumes from the last kept one: at most 4n - 2 flows.  A letter that
    the source does not reach in the kept residual is forced with no flow,
    as an edge from it to the sink lies on no augmenting path.
    """
    graph = _star_graph(words, cyclic)
    letters = words[0].alphabet.letters()
    size, degrees = len(graph), list(map(sum, graph))
    for a in letters:
        if (degree := degrees[a]) > 0:
            s, t, residual = a % size, -a % size, [row[:] for row in graph]
            flow, side = _max_flow(residual, s, t, degree)
            if flow < degree:
                break
    else:
        return None
    others, mask, forced = [l for l in letters if abs(l) != abs(a)], 0, sum(degrees) + 1
    for h in reversed(range(len(others))):
        if (x := others[h]) % size not in side:
            residual[x][t] += forced
            continue
        trial = [row[:] for row in residual]
        trial[x][t] += forced
        trial_flow, trial_side = _max_flow(trial, s, t, degree, flow)
        if trial_flow < degree:
            residual, flow, side = trial, trial_flow, trial_side
        else:
            mask |= 1 << h
    return _multiplier_move(words[0].alphabet, a, others, mask)


def _min_cut_move(words: tuple[Word, ...], cyclic: bool) -> WhiteheadMove | None:
    """A steepest shortening type-II move, or None.

    The most negative min cut - deg(a) wins, the first a on ties, with A
    its smallest min cut.  A flow stops at deg(a) plus the best change so
    far, which it cannot beat; where that limit is not positive, none
    starts.  A linear step runs at most 2n flows, a cyclic one n: with no
    sentinel edges, deg(a) = occ(a) + occ(a^-1) = deg(a^-1) and the min
    cuts are equal, so a^-1 only ties with a, which is first.
    """
    graph = _star_graph(words, cyclic)
    size, degrees = len(graph), list(map(sum, graph))
    best, found = 0, None
    for a in words[0].alphabet.letters()[:: 2 if cyclic else 1]:
        if (limit := degrees[a] + best) > 0:
            flow, cut = _max_flow([row[:] for row in graph], a % size, -a % size, limit)
            if flow < limit:
                best, found = flow - degrees[a], (a, cut)
    if found is None:
        return None
    affected = frozenset(v - size if 2 * v > size else v for v in found[1])
    return WhiteheadMove(words[0].alphabet, "multiplier", multiplier=found[0], affected=affected)


def _max_flow(residual: list[list[int]], s: int, t: int, limit: int, flow: int = 0):
    """(flow, source side) of a max flow from s to {t, 0}, or (limit, None) once it reaches limit.

    Augments ``residual``, which holds a flow of value ``flow``, in place along
    shortest paths, kept as a list of parents and walked back twice: for the
    bottleneck, then to push.  When none is left, what s reaches is the smallest min cut.
    """
    vertices = range(len(residual))
    while flow < limit:
        parent = [-1] * len(residual)
        parent[s] = s
        queue = [s]
        for u in queue:
            for v in itertools.compress(vertices, residual[u]):
                if parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
            if parent[t] >= 0 or parent[0] >= 0:
                break
        else:
            return flow, queue
        end = v = t if parent[t] >= 0 else 0
        push = limit - flow
        while v != s:
            u = parent[v]
            if residual[u][v] < push:
                push = residual[u][v]
            v = u
        while end != s:
            u = parent[end]
            residual[u][end] -= push
            residual[end][u] += push
            end = u
        flow += push
    return limit, None


def _drop_lone(words: tuple[Word, ...]) -> tuple[Word, ...]:
    """Drop every word holding a generator that occurs once in the tuple, until none does.

    Exact: if x^+-1 occurs once, in w = A x B, then x -> A^-1 x B^-1 sends w to x and fixes the other
    words, which lie in F(X - x); by Kurosh, <x> * H' is a free factor of F = <x> * F(X - x) iff H' is
    one of F(X - x).  A dropped letter has degree 0 in the star graph, so no later move brings it back.
    """
    while True:
        counts = Counter(itertools.chain.from_iterable(w.letters for w in words))
        lone = {x for x, c in counts.items() if c == 1 and -x not in counts}
        if not lone:
            return words
        words = tuple(w for w in words if lone.isdisjoint(w.letters))


def _descend(words: Sequence[Word], cyclic: bool, pick, drop: bool = False) -> MinimizationTrace:
    """Apply the move ``pick`` finds until it finds none: the one descent loop; ``drop`` runs ``_drop_lone`` first."""
    words = tuple(cyclic_core(w) if cyclic else w for w in words)
    if not words:
        return MinimizationTrace((), (), ())
    if any(w.alphabet != words[0].alphabet for w in words):
        raise ValueError("alphabet mismatch")
    current, applied = words, []
    while (current := _drop_lone(current) if drop else current) and (move := pick(current, cyclic)) is not None:
        current = tuple(move.apply(w, cyclic) for w in current)
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


def is_primitive(w: Word) -> bool:
    """Whitehead's criterion: w is primitive iff its cyclic word minimizes to length 1.

    First, in O(|w|), w is not primitive if the gcd of its exponent sums
    is not 1.  This is exact: an automorphism of F_n induces an element
    of GL(n, Z) on the abelianization Z^n; a primitive w is part of a
    basis of F_n, so its exponent-sum vector is part of a basis of Z^n;
    and a vector in a basis of Z^n has coprime entries, as their gcd
    divides the determinant, +-1, of the matrix with the basis as rows.
    """
    if not w:
        raise ValueError("the empty word is not a candidate for primitivity")
    return math.gcd(*abelianize(w)) == 1 and not _descend((w,), True, _min_cut_move, True).final


def is_free_factor(basis: Sequence[Word], alphabet: Alphabet) -> bool:
    """Decide whether the subgroup with the given basis is a free factor.

    An independent k-tuple U generates a free factor iff it extends to a
    basis of F, iff some automorphism maps it to k distinct generators up
    to sign, iff its Aut(F)-orbit holds a tuple of total length k: k
    nontrivial words of total length k are single letters, and
    independence, which automorphisms preserve, makes their generators
    distinct.  Type-I moves keep lengths, and peak reduction makes the
    greedy type-II descent reach the least total length in the orbit.
    So U is a free-factor basis iff its descent ends at length k, where each word is a lone letter and dropped.
    The descent starts from the spanning-tree basis of U's folded graph
    with its hair trimmed, the base's too: a basis of g<U>g^-1 for the
    hair word g, the image of <U> under an inner automorphism, so a free
    factor iff <U> is.  A conjugator shared by U costs nothing.

    Raises ValueError when the words are not independent (the subgroup
    graph rank must equal the tuple length).
    """
    words = tuple(basis)
    for w in words:
        if w.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
    graph = stallings.subgroup_graph(alphabet, words)
    if graph.rank() != len(words):
        raise ValueError("words are not an independent basis")
    stallings._trim(adj := graph._adj, None)  # in place, as the graph is not read again; no vertex kept
    core = stallings._canonical(alphabet, adj, next(iter(adj))).basis() if adj else ()
    return not _descend(core, False, _min_cut_move, True).final
