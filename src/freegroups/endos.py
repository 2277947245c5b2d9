"""Endomorphisms given by generator images, over free groups or splittings.

A map is stored as one image word per generator name of its domain, a
group given by its ``alphabet``, ``relators``, ``normal_form``, ``equal``
and ``twist_fixes``.  Each group's rules live with its type:
``words.Alphabet`` is the free group (no relators, reduced words are
normal forms), and ``splittings.HnnPresentation`` and
``splittings.AmalgamPresentation`` reduce by Britton's lemma and by
amalgam syllables.  This module only substitutes images and asks the
domain: a map is a homomorphism iff every relator maps to 1, which is
checked once and cached, and applying a map renormalizes the
substituted word in the domain.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping
from functools import cached_property
from itertools import chain

from . import stallings
from .words import Alphabet, Word, _inverse, free_reduce, iter_reduced_words


class Endomorphism:
    twist_power = None  # p on the maps splittings.dehn_twist(pres, p) returns; no comparison reads it

    def __init__(self, domain, images: Mapping[str, Word]):
        alphabet = domain.alphabet
        self.images = {name: images[name] for name in alphabet.generators if name in images}
        if len(self.images) < alphabet.rank:
            raise ValueError(f"missing images for generators {[n for n in alphabet.generators if n not in images]}")
        if len(images) > alphabet.rank:  # none is missing, so some name is unknown
            raise ValueError(f"images given for unknown generators {[n for n in images if n not in alphabet]}")
        self.domain, self._alphabet, self._table = domain, alphabet, {}
        for i, (name, img) in enumerate(self.images.items(), 1):
            if img.alphabet is not alphabet and img.alphabet != alphabet:
                raise ValueError(f"image of {name} is over the wrong alphabet")
            self._table[i], self._table[-i] = img.letters, _inverse(img.letters)

    def substitute(self, w: Word) -> Word:
        """Image word with free reduction only (no pinch rewriting)."""
        if w.alphabet != self._alphabet:
            raise ValueError("alphabet mismatch")
        return Word(self._alphabet, self._image(w.letters), _reduced=True)

    def _image(self, letters: tuple[int, ...]) -> tuple[int, ...]:
        """The freely reduced letters of the image of a letter sequence."""
        if len(letters) == 1:  # a table row is reduced
            return self._table[letters[0]]
        return free_reduce(chain.from_iterable(map(self._table.__getitem__, letters)))

    def apply(self, w: Word) -> Word:
        return self.domain.normal_form(self.substitute(w))

    @cached_property
    def is_homomorphism(self) -> bool:
        """Whether every defining relator of the domain maps to 1."""
        return all(self.domain.equal(self.substitute(r), Word(self._alphabet)) for r in self.domain.relators)

    def is_letter_map(self) -> bool:
        """True iff every generator maps to one letter; non-injective maps like ``a -> b`` count."""
        return all(len(img) == 1 for img in self.images.values())

    def is_identity(self) -> bool:
        return all(
            self.domain.equal(img, Word(self._alphabet, (i,), _reduced=True))
            for i, img in enumerate(self.images.values(), 1)
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

    Per generator x and order, whether w = f.substitute(g(x)) equals x, reduced only if w is not
    the word x: the verdict of ``compose(f, g)``, whose image of x is w's normal form.
    """
    if f.domain != g.domain:
        raise ValueError("domain mismatch")
    if not f.is_homomorphism or not g.is_homomorphism:
        raise ValueError("both maps must be homomorphisms")
    alphabet = f._alphabet
    word = lambda letters: Word(alphabet, letters, _reduced=True)
    images = ((p._image(q._table[i]), (i,)) for p, q in ((f, g), (g, f)) for i in range(1, alphabet.rank + 1))
    return all(w == x or f.domain.equal(word(w), word(x)) for w, x in images)


def order_bounded(f: Endomorphism, max_order: int) -> int | None:
    """Least k <= max_order with f^k = id on generators, else None."""
    power = f
    for k in range(1, max_order + 1):
        if k > 1:
            power = compose(f, power)
        if power.is_identity():
            return k
    return None


def iter_fixed_words(f: Endomorphism, max_len: int) -> Iterator[Word]:
    """Reduced words of length <= max_len fixed by f, in enumeration order.

    When f sends every generator to a single letter the fixed generators
    are yielded, which is exact at every length for max_len >= 1: f then
    rewrites a word letter by letter and free reduction can only shorten
    the result, so f fixes a reduced word iff it fixes each of its
    letters, and Fix(f) is generated by the fixed generators.  Any other
    map is scanned word by word up to max_len, a bounded
    under-approximation of the fixed subgroup.
    """
    if not isinstance(f.domain, Alphabet):
        raise ValueError("fixed words are found over free groups only")
    if f.is_letter_map():  # f fixes the generator word x iff its table sends x to x
        fixed = [i for i in range(1, f.domain.rank + 1) if max_len >= 1 and f._table[i] == (i,)]
        return (Word(f.domain, (i,), _reduced=True) for i in fixed)
    return (w for w in iter_reduced_words(f.domain, max_len, min_len=1) if f.apply(w) == w)


def fixed_words(f: Endomorphism, max_len: int) -> "stallings.SubgroupGraph":
    """Folded graph of the words ``iter_fixed_words`` yields: the whole
    fixed subgroup for a letter map, else a bounded under-approximation."""
    return stallings.subgroup_graph(f.domain, list(iter_fixed_words(f, max_len)))


OrbitReport = namedtuple("OrbitReport", "distinct_count first_collision")


def orbit_bounded(family: Callable[[int], Endomorphism], element: Word, bound: int) -> OrbitReport:
    """Count the distinct images f_n(element) for 0 <= n <= bound.

    Contract: f_n = tau^n for one automorphism tau, as for the twists
    ``dehn_twist(pres, n)``, so the orbit of w = f_0(element) is periodic:
    for its least period d, f_0 .. f_(d-1) are distinct and (0, d) is the
    first collision; with d > bound all bound + 1 images are distinct
    (none if bound < 0).  ``family`` is asked for f_0 and, if bound >= 1,
    for tau = f_1.  If ``dehn_twist(pres, p)``, p != 0, built tau and the
    splitting meets the hypotheses below, ``pres.twist_fixes(tau, w)``
    answers by one reduction of w: each tau^k = dehn_twist(pres, kp)
    fixes exactly the vertex group (Cohen and Lustig, Topology 34, 1995),
    so d = 1 inside it and d is infinite outside.  Any other tau is
    applied to the last image at most ``bound`` times, with an equality
    test each; there d may be 2, as for t t a t^-1 t^-1 over BS(2, 3).

    HNN, u and v root-free and u not conjugate to v^+-1 in the base K
    (``validate_presentation``): tau fixes K.  Take a Britton form
    w = g0 t^e1 g1 .. t^er gr, r >= 1, and tau(t^e) = a t^e b, with (a, b)
    = (u^p, 1) at e = 1 and (1, u^-p) at e = -1.  tau(w) = g0 a1 t^e1
    (b1 g1 a2) t^e2 .. is pinch-free (u^-p g u^p is in <u> iff g is), so
    w^-1 tau(w) pinches only at the seam, t^-e1 a1 t^e1 b1 = y = v^p or
    u^-p, leaving gr^-1 y gr != 1 at r = 1.  At r >= 2 the next seam
    pinches iff g1^-1 y g1 is in <u> (e2 = 1) or <v> (e2 = -1): at e2 = e1
    the roots u, v^+-1 would be conjugate; at e2 = -e1 g1 would commute
    with y and lie in <v> or <u>, against the form.  So 2r - 2 > 0 stable
    letters stay, and tau(w) != w by Britton's lemma.

    Amalgam, c2 root-free in K2: tau fixes K1.  Otherwise the normal form
    x1 .. xr has a factor-2 syllable x = xj outside <c2>, with j = 1 or x1
    in K1: w^-1 tau(w) = xr^-1 .. (x^-1 c2^p x c2^-p) .. tau(xr) alternates
    with no syllable in <c2> (else x commutes with c2^p), so it is not 1.
    """
    f = family(0)
    start = image = f.apply(element)
    tau = family(1) if bound >= 1 else None
    fixed = None if tau is None else tau.domain.twist_fixes(tau, start)
    if fixed:
        return OrbitReport(1, (0, 1))
    for k in range(1, bound + 1 if fixed is None else 1):  # a moved element needs no scan
        if f.domain.equal(start, image := tau.apply(image)):
            return OrbitReport(k, (0, k))
    return OrbitReport(max(bound + 1, 0), None)
