"""Reference path for the Whitehead tests: descent and orbit search by moving words.

``minimize`` applies every type-II move to the whole tuple, in the
canonical order of ``whitehead_moves``, and takes the first whose image
is shorter in total (cyclic, with ``cyclic``) length.  This is the plain
definition the library's star-graph flows replace, and the differential
tests in ``test_whitehead.py`` require the two to agree move for move.
``is_free_factor`` searches the orbit of the minimized tuple through
every move image of the same total length, up to a cap on the tuples it
visits: the search that peak reduction lets the library leave out.
Words are plain letter tuples, and moves act through ``letter_image``
with a free reduction of this module's own.  ``letter_image`` is also
the reference the library's one-pass letter tables are checked against,
``inverse`` gives a move's inverse move, and ``multiplier_moves`` the
type-II part of ``whitehead_moves``, listed once per alphabet.

``_deltas`` lists the length change of every type-II move from the star
graph, and ``_first_move`` reads the first negative one: the enumeration
that the library's min-cut pickers replace, kept as their reference.

``min_cut_move_both_signs`` is the steepest-move picker with one max flow
for each of the 2n multipliers in both modes: the reference for cyclic
steps, which the library decides with the n multipliers a > 0.

``endomorphism`` turns a move into the free-group map its letter images
define, for the tests that treat moves as automorphisms.
"""

from __future__ import annotations

import functools

from freegroups.endos import Endomorphism
from freegroups.whitehead import WhiteheadMove, _max_flow, _multiplier_move, _star_graph, whitehead_moves
from freegroups.words import Word


class OrbitCapExceeded(RuntimeError):
    """The orbit search would visit more tuples than its cap: no answer."""


def reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_core(letters: tuple[int, ...]) -> tuple[int, ...]:
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[i:j]


def letter_image(move, letter: int) -> tuple[int, ...]:
    """The image of one signed letter under ``move``, from the definition."""
    if move.kind == "permutation":
        img = move.images[abs(letter) - 1]
        return (img,) if letter > 0 else (-img,)
    a = move.multiplier
    if abs(letter) == abs(a):
        return (letter,)
    # x -> x a if x is in A, a^-1 x if x^-1 is, a^-1 x a if both are (x of either sign).
    return (-a,) * (-letter in move.affected) + (letter,) + (a,) * (letter in move.affected)


def inverse(move) -> WhiteheadMove:
    """The inverse permutation, or for (A, a) the move (A - a + a^-1, a^-1)."""
    if move.kind == "permutation":
        inv = [0] * len(move.images)
        for i, img in enumerate(move.images):
            inv[abs(img) - 1] = (i + 1) if img > 0 else -(i + 1)
        return WhiteheadMove(move.alphabet, "permutation", images=tuple(inv))
    a = move.multiplier
    affected = frozenset(move.affected - {a}) | {-a}
    return WhiteheadMove(move.alphabet, "multiplier", multiplier=-a, affected=affected)


@functools.cache
def multiplier_moves(alphabet) -> tuple[WhiteheadMove, ...]:
    """The type-II moves of ``whitehead_moves``, in its order."""
    return tuple(move for move in whitehead_moves(alphabet) if move.kind == "multiplier")


def apply(move, letters: tuple[int, ...]) -> tuple[int, ...]:
    return reduce(l for x in letters for l in letter_image(move, x))


def endomorphism(move) -> Endomorphism:
    """The map sending each generator to its image under ``move``."""
    alphabet = move.alphabet
    images = {name: Word(alphabet, letter_image(move, i)) for i, name in enumerate(alphabet.generators, 1)}
    return Endomorphism(alphabet, images)


def minimize(alphabet, words, cyclic: bool = False) -> tuple[list, tuple]:
    """(moves applied, final tuple) of the greedy first-shortening-move descent."""
    shape = cyclic_core if cyclic else (lambda letters: letters)
    current = tuple(shape(w) for w in words)
    if not current:
        return [], ()
    moves = multiplier_moves(alphabet)
    applied = []
    while True:
        best = sum(map(len, current))
        for move in moves:
            candidate = tuple(shape(apply(move, w)) for w in current)
            if sum(map(len, candidate)) < best:
                current = candidate
                applied.append(move)
                break
        else:
            return applied, current


def _deltas(words, cyclic: bool):
    """Yield (a, others, deltas) per multiplier a, in the order of ``whitehead_moves``.

    deltas[mask] is the total length change under the move (A, a), A = {a}
    + {others[i] : bit i of mask}: with gain(o) = deg(o) - 2 c(a, o), the
    gains over A - {a} less twice the edges inside A - {a}.  A mask with
    highest bit h adds others[h] to a smaller mask, so each costs O(1).
    """
    graph = _star_graph(words, cyclic)
    letters = words[0].alphabet.letters()
    for a in letters:
        others = [l for l in letters if l != a and l != -a]
        deltas = [0]
        for h, o in enumerate(others):
            into = [0]  # into[mask]: edges from o into the letters of mask
            for p in others[:h]:
                c = graph[o][p]
                into += [e + c for e in into]
            gain = sum(graph[o]) - 2 * graph[a][o]
            deltas += [d + gain - 2 * e for d, e in zip(deltas, into)]
        yield a, others, deltas


def _first_move(words, cyclic: bool):
    """The first type-II move with a negative delta, in the order of ``whitehead_moves``, or None."""
    found = next(((a, o, m) for a, o, d in _deltas(words, cyclic) for m in range(1, len(d)) if d[m] < 0), None)
    return found and _multiplier_move(words[0].alphabet, *found)


def min_cut_move_both_signs(words, cyclic: bool):
    """The most negative min cut - deg(a) over all 2n multipliers, the first a on ties, or None."""
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


def is_primitive(alphabet, letters: tuple[int, ...]) -> bool:
    return sum(map(len, minimize(alphabet, [letters], cyclic=True)[1])) == 1


def _is_basis_subtuple(words) -> bool:
    return all(len(w) == 1 for w in words) and len({abs(w[0]) for w in words}) == len(words)


def is_free_factor(alphabet, words, max_visited: int) -> bool:
    """Orbit search from the minimized tuple; the words must be an independent basis."""
    start = minimize(alphabet, words)[1]
    if _is_basis_subtuple(start):
        return True
    target = sum(map(len, start))
    if target == len(start):
        return False
    moves = multiplier_moves(alphabet)
    visited = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for tup in frontier:
            for move in moves:
                candidate = tuple(apply(move, w) for w in tup)
                if sum(map(len, candidate)) != target or candidate in visited:
                    continue
                if _is_basis_subtuple(candidate):
                    return True
                if len(visited) >= max_visited:
                    raise OrbitCapExceeded(f"orbit search cap of {max_visited} tuples exceeded")
                visited.add(candidate)
                next_frontier.append(candidate)
        frontier = next_frontier
    return False
