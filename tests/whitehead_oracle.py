"""Reference path for the Whitehead tests: descent and orbit search by moving words.

``minimize`` applies every type-II move to the whole tuple, in the
canonical order of ``whitehead_moves``, and takes the first whose image
is shorter in total (cyclic, with ``cyclic``) length; ``is_free_factor``
searches the orbit through every move image of the same total length.
This is the plain definition the library's star-graph deltas replace,
and the differential tests in ``test_whitehead.py`` require the two to
agree move for move.  Words are plain letter tuples, and moves act
through ``letter_image`` with a free reduction of this module's own.
"""

from __future__ import annotations

from freegroups.whitehead import SearchCapExceeded, whitehead_moves


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


def apply(move, letters: tuple[int, ...]) -> tuple[int, ...]:
    return reduce(l for x in letters for l in move.letter_image(x))


def minimize(alphabet, words, cyclic: bool = False) -> tuple[list, tuple]:
    """(moves applied, final tuple) of the greedy first-shortening-move descent."""
    shape = cyclic_core if cyclic else (lambda letters: letters)
    current = tuple(shape(w) for w in words)
    if not current:
        return [], ()
    moves = whitehead_moves(alphabet, kinds="multiplier")
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
    moves = whitehead_moves(alphabet, kinds="multiplier")
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
                    raise SearchCapExceeded("cap")
                visited.add(candidate)
                next_frontier.append(candidate)
        frontier = next_frontier
    return False
