"""Reference paths for the word-algebra tests: parsing by regex, roots by
divisors, powers by two roots.

``parse_word`` matches every token with one regex, and ``is_name``
matches generator names with its name part; the library reads tokens
from a table and checks the rest with str methods.

``extract_root`` tries every divisor d of the cyclic-core length in
increasing order and keeps the first whose prefix, repeated, is the
whole core: O(n d(n)), where the library takes the least period from one
substring search.  ``power_of`` extracts the roots of both words and
compares them, where the library splits only the base and compares w
with its powers by slicing.  The differential tests in ``test_words.py``
require the library to agree with them exactly.
"""

from __future__ import annotations

import re
from typing import Optional

from freegroups.words import Alphabet, Word, cyclically_reduce

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_TOKEN_RE = re.compile(r"^([A-Za-z0-9_]+)(?:\^(-?[0-9]+))?$")


def is_name(name: str) -> bool:
    """Whether the name regex matches all of name."""
    return _NAME_RE.fullmatch(name) is not None


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """A regex match per token; raises at the first bad token."""
    letters: list[int] = []
    for token in text.split():
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


def extract_root(w: Word) -> tuple[Word, int]:
    """w = root^exponent with root root-free, by the divisor loop."""
    if not w:
        raise ValueError("the empty word has no root")
    core, conj = cyclically_reduce(w)
    n = len(core)
    for d in range(1, n + 1):
        if n % d == 0 and core.letters[:d] * (n // d) == core.letters:
            return Word(w.alphabet, conj.letters + core.letters[:d] + (~conj).letters), n // d
    raise AssertionError("unreachable: every word is a power of itself")


def power_of(w: Word, base: Word) -> Optional[int]:
    """The k with w == base^k, or None, by comparing the roots of w and base."""
    if not w:
        return 0
    if not base:
        return None
    root_b, exp_b = extract_root(base)
    root_w, exp_w = extract_root(w)
    if root_w == root_b:
        m = exp_w
    elif root_w == ~root_b:
        m = -exp_w
    else:
        return None
    return m // exp_b if m % exp_b == 0 else None
