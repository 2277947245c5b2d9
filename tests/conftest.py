import random

import pytest
from hypothesis import strategies as st

from freegroups.endos import Endomorphism
from freegroups.words import Alphabet, Word, parse_word


@pytest.fixture
def f2():
    return Alphabet("x y")


@pytest.fixture
def f3():
    return Alphabet("x y z")


@pytest.fixture
def h_rank4():
    return Alphabet("a b u y")


def random_reduced(rng: random.Random, alphabet: Alphabet, max_len: int, min_len: int = 0) -> Word:
    length = rng.randint(min_len, max_len)
    letters: list[int] = []
    options = alphabet.letters()
    for _ in range(length):
        choices = [l for l in options if not letters or l != -letters[-1]]
        letters.append(rng.choice(choices))
    return Word(alphabet, tuple(letters), _reduced=True)


def random_raw_letters(rng: random.Random, rank: int, max_len: int) -> list[int]:
    length = rng.randint(0, max_len)
    return [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(length)]


def w(alphabet: Alphabet, text: str) -> Word:
    return parse_word(alphabet, text)


def identity_map(domain) -> Endomorphism:
    """The identity endomorphism of a group domain: each generator to itself."""
    alphabet = domain.alphabet
    return Endomorphism(domain, {name: Word(alphabet, (i,)) for i, name in enumerate(alphabet.generators, 1)})


def named_check(report, name: str):
    """The check of a report with the given name; KeyError if it has none."""
    for c in report.checks:
        if c.name == name:
            return c
    raise KeyError(name)


def integer_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@st.composite
def reduced_words(draw, alphabet: Alphabet, max_len: int) -> Word:
    """Hypothesis strategy: a freely reduced word of length 0..max_len."""
    letters: list[int] = []
    for _ in range(draw(st.integers(0, max_len))):
        options = [l for l in alphabet.letters() if not letters or l != -letters[-1]]
        letters.append(draw(st.sampled_from(options)))
    return Word(alphabet, tuple(letters), _reduced=True)
