"""Free-group word algebra over a finite ranked alphabet.

Letters are signed integers: generator ``i`` (0-based) is ``+(i + 1)``,
its inverse ``-(i + 1)``.  Words are stored freely reduced; every
operation is a pure function on immutable values, so concurrent use
needs no coordination.

Word syntax (used by :func:`parse_word` / :func:`format_word`): tokens
separated by whitespace, each token ``name`` or ``name^k`` for a nonzero
integer ``k`` in ASCII digits; the token ``1`` denotes the empty word.
Generator names are nonempty strings of ASCII letters, digits and
``_``, and the name ``1`` is reserved.  The single-letter tokens
``name`` and ``name^-1`` are read from a table each alphabet builds
once; any other token is split at ``^`` and checked by str methods.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import groupby
from operator import add, neg


def _is_name(text: str) -> bool:
    """Whether text is a nonempty string over [A-Za-z0-9_]."""
    return text.isascii() and text.replace("_", "a").isalnum()


class Alphabet:
    """Ordered list of distinct generator names.

    The order is significant: it indexes abelianization coordinates and
    fixes the canonical letter order (generator index ascending, positive
    before negative) used for deterministic tie-breaking everywhere.
    """

    __slots__ = ("generators", "rank", "_tokens", "_chars")

    def __init__(self, generators: Iterable[str] | str):
        if isinstance(generators, str):
            generators = generators.split()
        gens = tuple(generators)
        seen = set()
        for name in gens:
            if not _is_name(name):
                raise ValueError(f"bad generator name {name!r}")
            if name == "1":
                raise ValueError("generator name '1' is reserved for the empty word")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        self.generators, self.rank = gens, len(gens)
        # The 2n single-letter tokens of parse_word: name -> code, name^-1 -> -code.
        self._tokens = {name: i for i, name in enumerate(gens, 1)}
        self._tokens.update({f"{name}^-1": -i for i, name in enumerate(gens, 1)})
        self._chars: list[str] | None = None  # the table of _letter_text, built at its first use

    def index(self, name: str) -> int:
        code = self._tokens.get(name, 0)
        if code < 1:  # a name^-1 token has a negative code
            raise ValueError(f"unknown generator {name!r}")
        return code - 1

    def __contains__(self, name: str) -> bool:
        return self._tokens.get(name, 0) > 0

    def letter(self, name: str, sign: int = 1) -> int:
        code = self.index(name) + 1
        return code if sign > 0 else -code

    def letter_name(self, letter: int) -> str:
        return self.generators[abs(letter) - 1]

    def letters(self) -> list[int]:
        """All 2n letters in canonical order: +1, -1, +2, -2, ..."""
        return [x for g in range(1, self.rank + 1) for x in (g, -g)]

    def extend(self, name: str) -> "Alphabet":
        if name in self._tokens or name == "1" or not _is_name(name):  # only the new name is checked
            return Alphabet(self.generators + (name,))  # raises the constructor's error for the name
        extended, code = object.__new__(Alphabet), self.rank + 1  # the token table is copied, not rebuilt
        extended.generators, extended.rank, extended._chars = self.generators + (name,), code, None
        extended._tokens = {**self._tokens, name: code, f"{name}^-1": -code}
        return extended

    # As a group domain, the free group: no relators, reduced words are normal forms, no splitting.
    relators: tuple = ()

    @property
    def alphabet(self) -> "Alphabet":
        return self

    def normal_form(self, w: "Word") -> "Word":
        return w

    def equal(self, w1: "Word", w2: "Word") -> bool:
        return w1 == w2

    def twist_fixes(self, f, w: "Word") -> None:
        return None

    def __eq__(self, other: object) -> bool:
        return other is self or isinstance(other, Alphabet) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"Alphabet({' '.join(self.generators)!r})"


def letter_key(letter: int) -> tuple[int, int]:
    """Canonical letter order: generator index ascending, + before -."""
    return (abs(letter), 0 if letter > 0 else 1)


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of the inverse word."""
    return (-letters[0],) if len(letters) == 1 else tuple(map(neg, reversed(letters)))


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
        if _reduced:
            lets = letters if isinstance(letters, tuple) else tuple(letters)
        else:
            rank = alphabet.rank
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
        return Word(self.alphabet, _inverse(self.letters), _reduced=True)

    def __pow__(self, n: int) -> "Word":
        """conjugator * core^n * conjugator^-1, with no reduction left to do."""
        core = _core(self.letters)
        c = self.letters[: (len(self) - len(core)) // 2]
        return Word(self.alphabet, _power_letters((c, core, _inverse(core), _inverse(c), 1), n), _reduced=True)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Read a word in the module's syntax, raising at the first bad token.

    Tokens ``name`` and ``name^-1`` map through the alphabet's table, in
    range by construction; others are split at ``^``, the exponent an
    optional ``-`` and ASCII decimal digits.  A text with no cancelling
    neighbours (x + y == 0, one pass in C) skips free reduction's loop.
    """
    tokens, table = text.split(), alphabet._tokens
    try:
        letters = list(map(table.__getitem__, tokens))
    except KeyError:
        letters = []
        for token in tokens:
            if token in table:
                letters.append(table[token])
            elif token != "1":
                name, caret, exp = token.partition("^")
                if not _is_name(name) or caret and not (exp.isascii() and exp.removeprefix("-").isdecimal()):
                    raise ValueError(f"malformed word token {token!r}")
                if caret and not exp.lstrip("-0"):
                    raise ValueError(f"zero exponent in token {token!r}")
                letter = alphabet.letter(name, -1 if exp.startswith("-") else 1)
                try:
                    letters += [letter] * abs(int(exp or 1))
                except (OverflowError, ValueError):  # past a list's size, or past int()'s digit limit
                    raise OverflowError(f"exponent too large to hold in token {token!r}") from None
    reduced = 0 not in map(add, letters, letters[1:])
    return Word(alphabet, tuple(letters) if reduced else free_reduce(letters), _reduced=True)


def format_word(w: Word) -> str:
    names, parts = w.alphabet.generators, []
    for letter, run in groupby(w.letters):
        name, exp = names[abs(letter) - 1], len(list(run)) * (1 if letter > 0 else -1)
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


def _core(lets: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of the cyclic core of reduced letters, cut by index."""
    i, n = 0, len(lets)
    while 2 * i + 1 < n and lets[i] == -lets[n - 1 - i]:
        i += 1
    return lets[i : n - i]


def cyclic_core(w: Word) -> Word:
    """The cyclically reduced core of w; w itself when it is cyclically reduced."""
    core = _core(w.letters)
    return w if len(core) == len(w) else Word(w.alphabet, core, _reduced=True)


def _letter_text(alphabet: Alphabet, letters: tuple[int, ...]) -> str:
    """One character per letter for substring search (negative letters index the table from the end)."""
    if alphabet._chars is None:
        alphabet._chars = list(map(chr, range(2 * alphabet.rank + 1)))  # list indexing beats str indexing
    return "".join(map(alphabet._chars.__getitem__, letters))


def _rotations(core: tuple[int, ...], alphabet: Alphabet) -> Callable[[tuple[int, ...]], int]:
    """For a cyclic core c: d -> the least k with d == c[k:] + c[:k] (d as long as c), else -1, in linear time."""
    t = _letter_text(alphabet, core)
    rotations = t + t[:-1]
    return lambda d: rotations.find(_letter_text(alphabet, d))


def is_conjugate(w1: Word, w2: Word) -> Word | None:
    """Witness g with g * w1 * g^-1 == w2, or None.

    Two words are conjugate iff their cyclic cores are rotations of each
    other; the witness uses the smallest rotation offset (``_rotations``),
    so it is deterministic.  Its reduced factors cancel only at the seams.
    """
    if w1.alphabet != w2.alphabet:
        raise ValueError("alphabet mismatch")
    s1, s2 = _core(w1.letters), _core(w2.letters)
    if len(s1) != len(s2):
        return None
    k = _rotations(s1, w1.alphabet)(s2)
    if k < 0:
        return None
    (_, c1), (_, c2) = cyclically_reduce(w1), cyclically_reduce(w2)
    return c2 * Word(w1.alphabet, s1[k:] if k else (), _reduced=True) * ~c1


def _root_parts(base: Word) -> tuple:
    """Letters c, s, s^-1, c^-1 and e with nontrivial base == (c s c^-1)^e, c s c^-1 root-free."""
    core = _core(base.letters)
    text = _letter_text(base.alphabet, core)
    period = (text + text).find(text, 1)  # the least rotation period, which divides len(core)
    s, c = core[:period], base.letters[: (len(base) - len(core)) // 2]
    return c, s, _inverse(s), _inverse(c), len(core) // period


def _power_in(letters: tuple[int, ...], parts: tuple) -> int | None:
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


def power_of(w: Word, base: Word) -> int | None:
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
