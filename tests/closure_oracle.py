"""Reference path for the solution-set tests: the sequential Python sweep.

``solution_set`` visits every reduced h up to ``max_len`` in enumeration
order (length, then canonical letter order), freely reduces the equation
word a h b h a h^-1 b h^-1 one candidate at a time, and keeps h when the
cyclic core is a rotation of v's.  It is slow but simple, and
``test_closure.py`` requires the library's vectorized sweep to return
exactly the same list.
"""

from __future__ import annotations

from freegroups.words import Alphabet, Word, cyclically_reduce, free_reduce, iter_reduced_letter_tuples


def solution_set(alphabet: Alphabet, v: Word, max_len: int) -> list[Word]:
    """Every reduced h with |h| <= max_len whose equation word is conjugate to v."""
    a_code = alphabet.letter("a")
    b_code = alphabet.letter("b")
    core = cyclically_reduce(v)[0].letters
    rotations = {core[k:] + core[:k] for k in range(max(len(core), 1))}
    solutions: list[Word] = []
    for h in iter_reduced_letter_tuples(alphabet.rank, max_len):
        inv = tuple(-l for l in reversed(h))
        lets = free_reduce(
            (a_code,) + h + (b_code,) + h + (a_code,) + inv + (b_code,) + inv
        )
        i, j = 0, len(lets)
        while j - i >= 2 and lets[i] == -lets[j - 1]:
            i += 1
            j -= 1
        if j - i == len(core) and lets[i:j] in rotations:
            solutions.append(Word(alphabet, h, _reduced=True))
    return solutions
