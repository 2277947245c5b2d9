"""Endomorphisms given by generator images, over free groups or splittings.

A map is stored as one image word per generator name.  Over an HNN
presentation the images live in the extension (stable letter allowed);
the defining relation must be preserved for the map to be a
homomorphism, which is checked once and cached.  Over an amalgam the two
edge words must have equal images.

Applying a map substitutes images and renormalizes in the codomain:
free reduction, Britton reduction, or amalgam reduction respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional

from . import stallings
from .splittings import (
    AmalgamPresentation,
    HnnPresentation,
    amalgam_equal,
    amalgam_reduce,
    britton_reduce,
    hnn_equal,
)
from .words import Alphabet, Word, abelianize, free_reduce


def domain_alphabet(domain) -> Alphabet:
    if isinstance(domain, Alphabet):
        return domain
    if isinstance(domain, HnnPresentation):
        return domain.extended
    if isinstance(domain, AmalgamPresentation):
        return domain.union_alphabet
    raise TypeError(f"not a domain: {domain!r}")


def words_equal(domain, w1: Word, w2: Word) -> bool:
    """Equality of group elements in the domain's group."""
    if isinstance(domain, Alphabet):
        return w1 == w2
    if isinstance(domain, HnnPresentation):
        return hnn_equal(domain, w1, w2)
    return amalgam_equal(domain, w1, w2)


def normalize(domain, w: Word) -> Word:
    """Reduced / Britton-reduced / amalgam-reduced representative of w."""
    if isinstance(domain, Alphabet):
        return w
    if isinstance(domain, HnnPresentation):
        return britton_reduce(domain, w).to_word(domain)
    return amalgam_reduce(domain, w).to_word(domain)


class Endomorphism:
    def __init__(self, domain, images: Mapping[str, Word]):
        alphabet = domain_alphabet(domain)
        missing = [name for name in alphabet.generators if name not in images]
        if missing:
            raise ValueError(f"missing images for generators {missing}")
        extra = [name for name in images if name not in alphabet]
        if extra:
            raise ValueError(f"images given for unknown generators {extra}")
        for name, img in images.items():
            if img.alphabet != alphabet:
                raise ValueError(f"image of {name} is over the wrong alphabet")
        self.domain = domain
        self.images = {name: images[name] for name in alphabet.generators}
        self._alphabet = alphabet
        self._table = {}
        for i, name in enumerate(alphabet.generators):
            self._table[i + 1] = self.images[name].letters
            self._table[-(i + 1)] = (~self.images[name]).letters

    @classmethod
    def identity(cls, domain) -> "Endomorphism":
        alphabet = domain_alphabet(domain)
        images = {
            name: Word(alphabet, (i + 1,), _reduced=True)
            for i, name in enumerate(alphabet.generators)
        }
        return cls(domain, images)

    def substitute(self, w: Word) -> Word:
        """Image word with free reduction only (no pinch rewriting)."""
        if w.alphabet != self._alphabet:
            raise ValueError("alphabet mismatch")
        out: list[int] = []
        for letter in w.letters:
            out.extend(self._table[letter])
        return Word(self._alphabet, free_reduce(out), _reduced=True)

    def apply(self, w: Word) -> Word:
        return normalize(self.domain, self.substitute(w))

    def __call__(self, w: Word) -> Word:
        return self.apply(w)

    @cached_property
    def is_homomorphism(self) -> bool:
        """Whether the defining relations of the domain are preserved."""
        if isinstance(self.domain, Alphabet):
            return True
        if isinstance(self.domain, HnnPresentation):
            pres = self.domain
            ft = self.images[pres.stable]
            fu = self.substitute(pres.lift(pres.u))
            fv = self.substitute(pres.lift(pres.v))
            return hnn_equal(pres, ~ft * fu * ft, fv)
        pres = self.domain
        fc1 = self.substitute(pres.to_union(1, pres.c1))
        fc2 = self.substitute(pres.to_union(2, pres.c2))
        return amalgam_equal(pres, fc1, fc2)

    def is_letter_map(self) -> bool:
        """True iff every generator maps to one letter; non-injective maps like ``a -> b`` count."""
        return all(len(img) == 1 for img in self.images.values())

    def generator_word(self, name: str) -> Word:
        return Word(self._alphabet, (self._alphabet.index(name) + 1,), _reduced=True)

    def is_identity(self) -> bool:
        return all(
            words_equal(self.domain, self.images[name], self.generator_word(name))
            for name in self._alphabet.generators
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Endomorphism)
            and self.domain == other.domain
            and self.images == other.images
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{n}->{w}" for n, w in self.images.items())
        return f"Endomorphism({body})"


def compose(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """(f o g): apply g first, then f.  Both maps must share the domain."""
    if f.domain != g.domain:
        raise ValueError("domain mismatch")
    images = {name: f.apply(img) for name, img in g.images.items()}
    return Endomorphism(f.domain, images)


def is_automorphism_free(f: Endomorphism) -> bool:
    """Surjectivity check for self-maps of a finite-rank free group.

    The images generate the whole group iff their folded graph is the
    rose; surjective endomorphisms of finite-rank free groups are
    automorphisms (hopfian), so this decides automorphy.
    """
    if not isinstance(f.domain, Alphabet):
        raise ValueError("only free-group endomorphisms support this check")
    graph = stallings.subgroup_graph(f.domain, tuple(f.images.values()))
    return graph.is_rose()


def verify_automorphism_pair(f: Endomorphism, g: Endomorphism) -> bool:
    """True iff f o g and g o f are the identity on every generator.

    Certifies that f (and g) are automorphisms with explicit inverses.
    Raises ValueError when either map is not a homomorphism.
    """
    if f.domain != g.domain:
        raise ValueError("domain mismatch")
    if not f.is_homomorphism or not g.is_homomorphism:
        raise ValueError("both maps must be homomorphisms")
    return compose(f, g).is_identity() and compose(g, f).is_identity()


def order_bounded(f: Endomorphism, max_order: int) -> Optional[int]:
    """Least k <= max_order with f^k = id on generators, else None."""
    power = f
    for k in range(1, max_order + 1):
        if power.is_identity():
            return k
        power = compose(f, power)
    return None


def fixed_words(f: Endomorphism, max_len: int) -> "stallings.SubgroupGraph":
    """Folded graph of all reduced words of length <= max_len fixed by f.

    Exact when f sends every generator to a single letter: f then
    rewrites a word letter by letter and free reduction can only shorten
    the result, so f fixes a reduced word iff it fixes each of its
    letters.  For max_len >= 1 the graph is then the whole fixed
    subgroup, generated by the fixed generators.  For any other map it
    is a bounded under-approximation of the fixed subgroup, found by a
    word-by-word scan.
    """
    if not isinstance(f.domain, Alphabet):
        raise ValueError("fixed_words applies to free-group endomorphisms")
    alphabet = f.domain
    fixed: list[Word]
    if f.is_letter_map():
        generators = [f.generator_word(name) for name in alphabet.generators] if max_len >= 1 else []
        fixed = [x for x in generators if f.apply(x) == x]
    else:
        from .words import iter_reduced_words

        fixed = [w for w in iter_reduced_words(alphabet, max_len) if f.apply(w) == w]
    return stallings.subgroup_graph(alphabet, fixed)


@dataclass(frozen=True)
class OrbitReport:
    family: str
    element: Word
    bound: int
    distinct_count: int
    first_collision: Optional[tuple[int, int]]


def orbit_bounded(
    family: Callable[[int], Endomorphism],
    element: Word,
    bound: int,
    description: str = "family",
) -> OrbitReport:
    """Apply f_n for 0 <= n <= bound and count pairwise-distinct images.

    Distinctness is decided in the codomain group (normal forms are not
    canonical, so each new image is compared against one representative
    per class found so far).
    """
    reps: list[tuple[int, Word]] = []
    domain = None
    first_collision: Optional[tuple[int, int]] = None
    for n in range(bound + 1):
        f = family(n)
        if domain is None:
            domain = f.domain
        image = f.apply(element)
        hit = None
        for idx, rep in reps:
            if words_equal(domain, rep, image):
                hit = idx
                break
        if hit is None:
            reps.append((n, image))
        elif first_collision is None:
            first_collision = (hit, n)
    return OrbitReport(description, element, bound, len(reps), first_collision)


def abelianization_matrix(f: Endomorphism) -> list[list[int]]:
    """Integer matrix: column j is the exponent vector of the j-th image."""
    if not isinstance(f.domain, Alphabet):
        raise ValueError("abelianization matrix applies to free-group endomorphisms")
    n = f.domain.rank
    cols = [abelianize(f.images[name]) for name in f.domain.generators]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


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
