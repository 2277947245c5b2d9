"""Free-group word algebra over a finite ranked alphabet.

Letters are signed integers: generator ``i`` (0-based) is ``+(i + 1)``,
its inverse ``-(i + 1)``.  Words are stored freely reduced; every
operation is a pure function on immutable values, so concurrent use
needs no coordination.

Word syntax (used by :func:`parse_word` / :func:`format_word`): tokens
separated by whitespace, each token ``name`` or ``name^k`` for a nonzero
integer ``k``; the token ``1`` denotes the empty word.  Generator names
match ``[A-Za-z0-9_]+`` and the name ``1`` is reserved.  The single-letter
tokens ``name`` and ``name^-1`` are read from a table each alphabet
builds once; a text with any other token goes through the token regex,
with the same syntax and errors.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import add, neg
from typing import Iterable, Iterator, Optional

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_TOKEN_RE = re.compile(r"^([A-Za-z0-9_]+)(?:\^(-?\d+))?$")


class Alphabet:
    """Ordered list of distinct generator names.

    The order is significant: it indexes abelianization coordinates and
    fixes the canonical letter order (generator index ascending, positive
    before negative) used for deterministic tie-breaking everywhere.
    """

    __slots__ = ("generators", "_index", "_tokens")

    def __init__(self, generators: Iterable[str] | str):
        if isinstance(generators, str):
            generators = generators.split()
        gens = tuple(generators)
        seen = set()
        for name in gens:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad generator name {name!r}")
            if name == "1":
                raise ValueError("generator name '1' is reserved for the empty word")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        self.generators = gens
        self._index = {name: i for i, name in enumerate(gens)}
        # The 2n single-letter tokens of parse_word: name -> code, name^-1 -> -code.
        self._tokens = {name: i for i, name in enumerate(gens, 1)}
        self._tokens.update({f"{name}^-1": -i for i, name in enumerate(gens, 1)})

    @property
    def rank(self) -> int:
        return len(self.generators)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def letter(self, name: str, sign: int = 1) -> int:
        code = self.index(name) + 1
        return code if sign > 0 else -code

    def letter_name(self, letter: int) -> str:
        return self.generators[abs(letter) - 1]

    def letters(self) -> list[int]:
        """All 2n letters in canonical order: +1, -1, +2, -2, ..."""
        return [x for g in range(1, self.rank + 1) for x in (g, -g)]

    def extend(self, name: str) -> "Alphabet":
        return Alphabet(self.generators + (name,))

    # As a group domain, the free group: no relators, reduced words are normal forms.
    relators: tuple = ()

    @property
    def alphabet(self) -> "Alphabet":
        return self

    def normal_form(self, w: "Word") -> "Word":
        return w

    def equal(self, w1: "Word", w2: "Word") -> bool:
        return w1 == w2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"Alphabet({' '.join(self.generators)!r})"


def letter_key(letter: int) -> tuple[int, int]:
    """Canonical letter order: generator index ascending, + before -."""
    return (abs(letter), 0 if letter > 0 else 1)


def free_reduce(seq: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (stack cancellation)."""
    out: list[int] = []
    push = out.append
    pop = out.pop
    for letter in seq:
        if out and out[-1] == -letter:
            pop()
        else:
            push(letter)
    return tuple(out)


class Word:
    """A freely reduced word.  Construction reduces its input letters."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = (), _reduced: bool = False):
        rank = alphabet.rank
        if _reduced:
            lets = letters if isinstance(letters, tuple) else tuple(letters)
        else:
            lets = tuple(letters)
            for letter in lets:
                if letter == 0 or abs(letter) > rank:
                    raise ValueError(f"letter {letter} out of range for rank {rank}")
            lets = free_reduce(lets)
        self.alphabet = alphabet
        self.letters = lets

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.generators, self.letters))

    def __mul__(self, other: "Word") -> "Word":
        """Both factors are reduced, so letters cancel only at the seam."""
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        a, b = self.letters, other.letters
        k = 0
        for x, y in zip(reversed(a), b):
            if x != -y:
                break
            k += 1
        return Word(self.alphabet, a[: len(a) - k] + b[k:], _reduced=True)

    def __invert__(self) -> "Word":
        return Word(self.alphabet, tuple(map(neg, reversed(self.letters))), _reduced=True)

    def __pow__(self, n: int) -> "Word":
        """conjugator * core^n * conjugator^-1, with no reduction left to do."""
        if n == 0:
            return Word(self.alphabet, (), _reduced=True)
        core, conj = cyclically_reduce(self if n > 0 else ~self)
        lets = conj.letters + core.letters * abs(n) + (~conj).letters
        return Word(self.alphabet, lets, _reduced=True)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Read a word in the module's syntax.

    Tokens ``name`` and ``name^-1`` map through the alphabet's token
    table, in range by construction.  If any token misses it (``1``,
    another exponent, a malformed or unknown token), the whole text goes
    through the token regex instead, which raises at the first bad token.
    A text with no cancelling neighbours (x + y == 0, one pass in C)
    skips the stack loop of free reduction.
    """
    tokens = text.split()
    try:
        letters = [alphabet._tokens[token] for token in tokens]
    except KeyError:
        return _parse_tokens(alphabet, tokens)
    reduced = 0 not in map(add, letters, letters[1:])
    return Word(alphabet, tuple(letters) if reduced else free_reduce(letters), _reduced=True)


def _parse_tokens(alphabet: Alphabet, tokens: list[str]) -> Word:
    letters: list[int] = []
    for token in tokens:
        if token == "1":
            continue
        m = _TOKEN_RE.match(token)
        if not m:
            raise ValueError(f"malformed word token {token!r}")
        name, exp = m.group(1), m.group(2)
        k = 1 if exp is None else int(exp)
        if k == 0:
            raise ValueError(f"zero exponent in token {token!r}")
        code = alphabet.letter(name, 1 if k > 0 else -1)
        letters.extend([code] * abs(k))
    return Word(alphabet, letters)


def format_word(w: Word) -> str:
    parts: list[str] = []
    for letter, run in groupby(w.letters):
        name, exp = w.alphabet.letter_name(letter), len(list(run)) * (1 if letter > 0 else -1)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts) or "1"


def content_lines(text: str) -> Iterator[str]:
    """The stripped lines of a line-based file (graph, presentation, map,
    certificate), without blank lines and ``#`` comment lines."""
    return (line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#"))


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet, (), _reduced=True)


def commutator(a: Word, b: Word) -> Word:
    return a * b * ~a * ~b


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator * core * conjugator^-1.

    The core is cyclically reduced; the empty word maps to (1, 1).
    """
    core = cyclic_core(w)
    return core, Word(w.alphabet, w.letters[: (len(w) - len(core)) // 2], _reduced=True)


def cyclic_core(w: Word) -> Word:
    """The cyclically reduced core of w, cut by index; w itself when it is cyclically reduced."""
    lets, i = w.letters, 0
    while 2 * i + 1 < len(lets) and lets[i] == -lets[-1 - i]:
        i += 1
    return Word(w.alphabet, lets[i : len(lets) - i], _reduced=True) if i else w


def _as_text(letters: tuple[int, ...], rank: int) -> str:
    """One character per letter for substring search (negative letters index the codes from the end)."""
    return "".join(map([chr(i) for i in range(2 * rank + 1)].__getitem__, letters))


def is_conjugate(w1: Word, w2: Word) -> Optional[Word]:
    """Witness g with g * w1 * g^-1 == w2, or None.

    Two words are conjugate iff their cyclic cores are rotations of each
    other; the witness uses the smallest rotation offset, so it is
    deterministic.  That offset is the first occurrence of the second
    core in the first core doubled, found by one linear-time substring
    search over the letters encoded as characters.
    """
    if w1.alphabet != w2.alphabet:
        raise ValueError("alphabet mismatch")
    s1, c1 = cyclically_reduce(w1)
    s2, c2 = cyclically_reduce(w2)
    if len(s1) != len(s2):
        return None
    if not s1:
        return identity(w1.alphabet)
    t1, t2 = (_as_text(s.letters, w1.alphabet.rank) for s in (s1, s2))
    k = (t1 + t1[:-1]).find(t2)
    if k < 0:
        return None
    g0 = s1.letters[k:] if k else ()
    return Word(w1.alphabet, free_reduce(c2.letters + g0 + (~c1).letters), _reduced=True)


def _root_parts(base: Word) -> tuple:
    """Letters c, s, s^-1, c^-1 and e with nontrivial base == (c s c^-1)^e, c s c^-1 root-free."""
    core, conj = cyclically_reduce(base)
    text = _as_text(core.letters, base.alphabet.rank)
    period = (text + text).find(text, 1)  # the least rotation period, which divides len(core)
    s, c = core.letters[:period], conj.letters
    return c, s, tuple(map(neg, reversed(s))), tuple(map(neg, reversed(c))), len(core) // period


def _power_in(letters: tuple[int, ...], parts: tuple) -> Optional[int]:
    """The p with reduced letters == base^p = c s^(e p) c^-1, by slicing in O(|letters|), or None."""
    if not letters:
        return 0
    c, s, s_inv, c_inv, e = parts
    k, n = len(c), len(letters)
    m, rest = divmod(n - 2 * k, len(s) * e)
    if rest or m <= 0 or letters[:k] != c or letters[n - k :] != c_inv:
        return None
    middle = letters[k : n - k]
    if middle == s * (e * m):
        return m
    if middle == s_inv * (e * m):
        return -m
    return None


def _power_letters(parts: tuple, p: int) -> tuple[int, ...]:
    """The letters of base^p for the base split into parts, already reduced."""
    if not p:
        return ()
    c, s, s_inv, c_inv, e = parts
    return c + (s if p > 0 else s_inv) * (e * abs(p)) + c_inv


def extract_root(w: Word) -> tuple[Word, int]:
    """Maximal-exponent decomposition w = root^exponent; root is root-free.

    The root transports the least period of the cyclic core (see ``_root_parts``).
    """
    if not w:
        raise ValueError("the empty word has no root")
    c, s, _, c_inv, e = _root_parts(w)
    return Word(w.alphabet, c + s + c_inv, _reduced=True), e


def centralizer(w: Word) -> Word:
    """Generator of the centralizer of w: the transported root."""
    if not w:
        raise ValueError("the empty word has no cyclic centralizer generator")
    return extract_root(w)[0]


def power_of(w: Word, base: Word) -> Optional[int]:
    """The integer k with w == base^k, or None.

    Exact via root-free roots: nontrivial words are powers of a unique
    root-free word, so w is only sliced against the base's root, no search.
    """
    if w.alphabet != base.alphabet:
        raise ValueError("alphabet mismatch")
    if not base:
        return None if w else 0
    return _power_in(w.letters, _root_parts(base))


def abelianize(w: Word) -> tuple[int, ...]:
    """Exponent-sum vector, one coordinate per generator in alphabet order."""
    counts = [0] * w.alphabet.rank
    for letter in w.letters:
        counts[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(counts)


def iter_reduced_letter_tuples(rank: int, max_len: int, min_len: int = 0) -> Iterator[tuple[int, ...]]:
    """All reduced letter tuples, ordered by length then canonical letter order."""
    order = [x for g in range(1, rank + 1) for x in (g, -g)]
    if min_len <= 0:
        yield ()
    level: list[tuple[int, ...]] = [()]
    for length in range(1, max_len + 1):
        level = [prefix + (x,) for prefix in level for x in order if not prefix or x != -prefix[-1]]
        if length >= min_len:
            yield from level


def iter_reduced_words(alphabet: Alphabet, max_len: int, min_len: int = 0) -> Iterator[Word]:
    for lets in iter_reduced_letter_tuples(alphabet.rank, max_len, min_len):
        yield Word(alphabet, lets, _reduced=True)
