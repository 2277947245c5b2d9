"""One-edge cyclic splittings: HNN extensions and amalgams.

Orientation convention, used everywhere: ``u^t = v`` means
``t^-1 u t = v``.  Pinches are the subwords ``t^-1 g t`` with ``g`` a
power of u (rewriting to the same power of v) and ``t g t^-1`` with
``g`` a power of v (rewriting to the same power of u).

Elements of an HNN extension are plain words over the base alphabet
extended by the stable letter; elements of an amalgam are words over the
disjoint union of the factor alphabets.  Both reduce in one stack pass
over syllables and the crossings between them.  A crossing is a stable
letter, or a change of factor: +1 into factor 2, -1 into factor 1, so c1
and c2 play u and v.  Pinch rule: two opposite crossings pinch around a
power of the edge word between them.  End rule, for an amalgam's tree
edge only: an edge power at either end of the word also moves across
its one crossing.  ``normal_form`` returns the reduced word; an amalgam's
alternating syllables are its factor runs.  Forms are not canonical
across pinch orders, so equality reduces ``w1 * w2^-1``: the base
class's one stack test, with no function per kind (``hnn_equal`` only
names it for the CLI).  A word is 1 iff its normal form is empty.  All
operations are pure, and values are immutable by convention, as ``Word``
and ``SubgroupGraph`` are.

This module owns the rules of both groups: each presentation is a group
domain for ``endos`` (``alphabet``, ``relators``, ``normal_form``, ``equal``
and ``twist_fixes``), as ``words.Alphabet`` is for the free group.  Each
kind answers for itself through class fields, never a test of its type.
"""

from __future__ import annotations

from collections import namedtuple

from .endos import Endomorphism
from .words import (
    Alphabet,
    Word,
    _inverse,
    _power_in,
    _power_letters,
    _root_parts,
    content_lines,
    cyclic_core,
    free_reduce,
    is_conjugate,
    parse_word,
)


class Check(namedtuple("Check", "name passed detail", defaults=("",))):
    """One named verdict inside a report."""

    __slots__ = ()


class Report(namedtuple("Report", "checks")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


class _Splitting:
    """The group-domain methods of both kinds, read off their stack; letters 1.._first span the first vertex group.

    ``equal`` is one stack test for both kinds, never a per-kind function.  ``_tree`` tells a tree edge (amalgam)
    from a loop (HNN); ``_edge_parts`` holds the edge words' roots, u and v or c1 and c2, so ``_edge_parts[_tree]``
    is the one a Dehn twist multiplies by; ``twist_family`` names the twists.
    """

    __slots__ = ("alphabet", "relators", "_key", "_edge_parts", "_first")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def normal_form(self, w: Word) -> Word:
        """The stack's syllables and crossings, already reduced: neighbours cancel only in a pinch."""
        words, signs = _stack(self, w.alphabet, w.letters)
        letters = words[0]
        for eps, syllable in zip(signs, words[1:]):
            letters += [*self._crossing[eps], *syllable]
        return Word(self.alphabet, tuple(letters), _reduced=True)

    def equal(self, w1: Word, w2: Word) -> bool:
        """w1 = w2 iff the stack of w1 w2^-1 is one empty syllable: Britton's lemma, or the amalgam normal form theorem."""
        return _stack(self, w1.alphabet, (w1 * ~w2).letters) == ([[]], [])

    def word(self, text: str) -> Word:
        return parse_word(self.alphabet, text)

    def twist_fixes(self, f: Endomorphism, w: Word) -> bool | None:
        """Whether f fixes w if f was built by dehn_twist(self, p != 0) and the twist lemma holds, else None.

        It then fixes just the first vertex group (the HNN base, factor 1), which holds c2's powers.
        """
        if f.domain != self or not f.twist_power or not self._twist_lemma:
            return None
        words, signs = _stack(self, w.alphabet, w.letters)
        head = tuple(words[0])
        in_first = not head or abs(head[0]) <= self._first
        return not signs and (in_first or _power_in(head, self._edge_parts[1]) is not None)


class HnnPresentation(_Splitting):
    """<H, t | u^t = v> with free base H and nontrivial base words u, v."""

    __slots__ = ("base", "stable", "u", "v", "extended", "t_letter", "_crossing", "_validation")
    _tree, _off_alphabet = False, "word is not over the extension alphabet"
    twist_family = "hnn twists: t -> u^n t"  # the CLI's orbit header
    _twist_lemma = property(lambda self: validate_presentation(self).ok)  # whether its hypotheses hold

    def __init__(self, base: Alphabet, stable: str, u: Word, v: Word):
        if stable in base:
            raise ValueError("stable letter collides with a base generator")
        if u.alphabet != base or v.alphabet != base:
            raise ValueError("u and v must be words over the base alphabet")
        if not u or not v:
            raise ValueError("edge words must be nontrivial")
        self.base, self.stable, self.u, self.v = self._key = base, stable, u, v
        # Derived once; base letters keep their codes in the extended alphabet.
        self.alphabet = self.extended = base.extend(stable)
        t = self.t_letter = base.rank + 1  # the defining relator t^-1 u t v^-1, reduced as written
        self.relators = (Word(self.extended, (-t, *u.letters, t, *_inverse(v.letters)), _reduced=True),)
        self._edge_parts, self._first = (_root_parts(u), _root_parts(v)), base.rank
        self._crossing = {1: (t,), -1: (-t,)}  # the letters of a crossing, by sign
        self._validation: Report | None = None  # see validate_presentation

    def _syllables(self, lets):
        """The base syllable before the first stable letter, then each stable letter's sign and next syllable."""
        t = self.t_letter
        cuts = [i for i, letter in enumerate(lets) if letter == t or letter == -t] + [len(lets)]
        return lets[: cuts[0]], [(1 if lets[i] > 0 else -1, lets[i + 1 : j]) for i, j in zip(cuts, cuts[1:])]

    def base_word(self, text: str) -> Word:
        return parse_word(self.base, text)

    def lift(self, w: Word) -> Word:
        """View a base word as a word of the extension."""
        if w.alphabet != self.base:
            raise ValueError("not a base word")
        return Word(self.extended, w.letters, _reduced=True)

    def __repr__(self) -> str:
        return f"HnnPresentation(<H, {self.stable} | {self.u}^{self.stable} = {self.v}>)"


class BrittonForm(namedtuple("BrittonForm", "head tail", defaults=((),))):
    """Pinch-free syllable form g0 t^e1 g1 ... t^er gr (base-word syllables)."""

    __slots__ = ()


def validate_presentation(pres: HnnPresentation) -> Report:
    """Check the malnormality/non-conjugacy hypotheses of the splitting.

    (i) u and v root-free (equivalent to <u>, <v> malnormal in the free
    base); (ii) u not conjugate to v or v^-1 in the base.  Roots come from
    the edge parts; the report is kept on the presentation at first use.
    """
    if pres._validation is None:
        roots = [(Word(pres.base, c + s + c_inv, _reduced=True), e) for c, s, _, c_inv, e in pres._edge_parts]
        (u_root, u_exp), (v_root, v_exp) = roots
        apart = is_conjugate(pres.u, pres.v) is None and is_conjugate(pres.u, ~pres.v) is None
        pres._validation = Report((
            Check("u_root_free", u_exp == 1, f"u = ({u_root})^{u_exp}"),
            Check("v_root_free", v_exp == 1, f"v = ({v_root})^{v_exp}"),
            Check("u_v_not_conjugate", apart, "no conjugator exists" if apart else "u is conjugate to v^{+-1}"),
        ))
    return pres._validation


def _push(out: list[int], letters: tuple[int, ...]) -> None:
    """Append reduced letters to a reduced letter list: they cancel only at the seam."""
    k = 0
    while k < len(letters) and out and out[-1] == -letters[k]:
        out.pop()
        k += 1
    out.extend(letters[k:])


def _stack(pres, alphabet: Alphabet, lets) -> tuple[list[list[int]], list[int]]:
    """The one reduction pass: a pinch-free stack of syllables, as reduced letter lists, and of crossing signs.

    A crossing of sign eps pinches with the opposite one below the top syllable if the top is a power of the
    edge word it crosses (u or c1 at eps = 1, v or c2 at -1): the same power of the other edge word and the
    next syllable join the syllable below, cancelling at each seam.  The stack is pinch-free, so that is the
    leftmost pinch in the word: the pinches are those of rescanning after each one.  Edge membership is
    exact, by slicing against edge roots split once.  On a tree edge (the end rule) the head pinches at each
    crossing too, with the image taking its place, and at the end the top crosses back if it is an edge power.
    """
    if alphabet != pres.alphabet:
        raise ValueError(pres._off_alphabet)
    head, crossings = pres._syllables(lets)
    words, signs, parts, tree = [list(head)], [], pres._edge_parts, pres._tree
    for eps, syllable in crossings:
        if signs[-1] == -eps if signs else tree:
            edge, image = parts if eps > 0 else parts[::-1]  # parts[::eps], with no slice at eps = 1
            p = _power_in(tuple(words[-1]), edge)
            if p is not None:
                if signs:
                    signs.pop()
                    words.pop()
                else:  # the head, on a tree edge: the image takes its place
                    words[-1] = []
                _push(words[-1], _power_letters(image, p))
                _push(words[-1], syllable)
                continue
        signs.append(eps)
        words.append(list(syllable))
    if tree and signs:  # once: the syllable below was no edge power when checked, nor is it times the image
        edge, image = parts[::-signs[-1]]
        p = _power_in(tuple(words[-1]), edge)
        if p is not None:
            signs.pop()
            words.pop()
            _push(words[-1], _power_letters(image, p))
    return words, signs


def britton_reduce(pres: HnnPresentation, w: Word) -> BrittonForm:
    """Rewrite leftmost pinches t^-1 u^p t -> v^p and t v^p t^-1 -> u^p until none remains: ``_stack``."""
    words, signs = _stack(pres, w.alphabet, w.letters)
    base = [Word(pres.base, tuple(ls), _reduced=True) for ls in words]
    return BrittonForm(base[0], tuple(zip(signs, base[1:])))


def hnn_equal(pres: HnnPresentation, w1: Word, w2: Word) -> bool:
    """Equality in the HNN extension: the name the CLI's ``hnn-equal`` calls."""
    return pres.equal(w1, w2)


class ClassificationResult(namedtuple("ClassificationResult", "solvable case p gamma delta s", defaults=(None,) * 5)):
    """Outcome of the base-conjugacy classification alpha^s = beta, |s|_t >= 1.

    In case 1: alpha = (u^p)^gamma, beta = (v^p)^delta, s = gamma^-1 t delta.
    In case 2: alpha = (v^p)^gamma, beta = (u^p)^delta, s = gamma^-1 t^-1 delta.
    (x^g denotes g^-1 x g.)
    """

    __slots__ = ()


def classify_base_conjugacy(pres: HnnPresentation, alpha: Word, beta: Word) -> ClassificationResult:
    """Decide alpha^s = beta with at least one stable letter in s.

    Tests alpha ~ u^p, beta ~ v^p (case 1) and alpha ~ v^p, beta ~ u^p
    (case 2).  The cyclic core of u^p is |p| copies of u's, so alpha ~ u^p
    needs |p| = |core alpha| / |core u|: each case has one candidate |p|.
    They are tried by |p|, then p before -p, then case 1 before case 2.
    """
    if not validate_presentation(pres).ok:
        raise ValueError("presentation does not satisfy the splitting hypotheses")
    if not alpha or not beta:
        raise ValueError("alpha and beta must be nontrivial")
    n = len(cyclic_core(alpha))
    candidates = []
    for case, (first, second), (_, s, _, _, e) in zip((1, 2), ((pres.u, pres.v), (pres.v, pres.u)), pres._edge_parts):
        m, rest = divmod(n, len(s) * e)
        if not rest:
            candidates += [((m, 0, case), m, first, second), ((m, 1, case), -m, first, second)]
    t = Word(pres.extended, (pres.t_letter,), _reduced=True)
    for (_, _, case), p, first, second in sorted(candidates, key=lambda c: c[0]):
        h1 = is_conjugate(first**p, alpha)
        if h1 is None:
            continue
        h2 = is_conjugate(second**p, beta)
        if h2 is None:
            continue
        gamma, delta = ~h1, ~h2
        mid = t if case == 1 else ~t
        s = pres.lift(~gamma) * mid * pres.lift(delta)
        return ClassificationResult(True, case, p, gamma, delta, s)
    return ClassificationResult(False)


class AmalgamPresentation(_Splitting):
    """Amalgam of two free factors over identified cyclic subgroups <c1> = <c2>."""

    __slots__ = ("factor1", "factor2", "c1", "c2", "union_alphabet")
    _tree, _off_alphabet, _crossing = True, "word is not over the amalgam alphabet", {1: (), -1: ()}
    twist_family = "amalgam twists: conjugation by c^n on factor 2"
    _twist_lemma = property(lambda self: self._edge_parts[1][4] == 1)  # whether c2 is root-free

    def __init__(self, factor1: Alphabet, factor2: Alphabet, c1: Word, c2: Word):
        if set(factor1.generators) & set(factor2.generators):
            raise ValueError("factor alphabets must be disjoint")
        if c1.alphabet != factor1 or c2.alphabet != factor2:
            raise ValueError("edge words must live in their own factors")
        if not c1 or not c2:
            raise ValueError("edge words must be nontrivial")
        self.factor1, self.factor2, self.c1, self.c2 = self._key = factor1, factor2, c1, c2
        self.alphabet = self.union_alphabet = Alphabet(factor1.generators + factor2.generators)
        self._first = factor1.rank
        edges = self.to_union(1, c1), self.to_union(2, c2)  # the relator c1 c2^-1 is reduced as written
        self.relators = (Word(self.union_alphabet, edges[0].letters + _inverse(edges[1].letters), _reduced=True),)
        self._edge_parts = tuple(map(_root_parts, edges))  # in union letters

    def _syllables(self, lets):
        """The first factor run, and each later one with the sign of the change into it: +1 into factor 2."""
        n = self._first
        cuts = [i for i in range(1, len(lets)) if (abs(lets[i - 1]) > n) != (abs(lets[i]) > n)] + [len(lets)]
        return lets[: cuts[0]], [(1 if abs(lets[i]) > n else -1, lets[i:j]) for i, j in zip(cuts, cuts[1:])]

    def to_union(self, side: int, w: Word) -> Word:
        shift = self._first if side == 2 else 0
        return Word(self.union_alphabet, tuple(l + shift if l > 0 else l - shift for l in w.letters), _reduced=True)

    def __repr__(self) -> str:
        return f"AmalgamPresentation({self.c1} = {self.c2})"


def dehn_twist(splitting, power: int):
    """The twist automorphism of a one-edge splitting: only letters past ``_first`` move, by ``_edge_parts[_tree]``.

    On a loop (HNN): t -> u^power t (left multiplication keeps t^-1 u t =
    v preserved under this orientation).  On a tree edge (amalgam):
    conjugation g -> c2^power g c2^-power on factor 2.  Power 0 gives the
    identity map.  The map keeps power as ``twist_power``.
    """
    if not isinstance(splitting, _Splitting):
        raise TypeError("splitting must be an HnnPresentation or AmalgamPresentation")
    tree, first = splitting._tree, splitting._first
    parts = splitting._edge_parts[tree]
    try:
        left, right = _power_letters(parts, power), _power_letters(parts, -power) if tree else ()
    except OverflowError:
        raise OverflowError(f"twist power {power} is too large to hold") from None
    alphabet = splitting.alphabet
    images = {name: Word(alphabet, free_reduce(left + (i,) + right) if i > first else (i,), _reduced=True)
              for i, name in enumerate(alphabet.generators, 1)}
    twist = Endomorphism(splitting, images)
    twist.twist_power = power
    return twist


def parse_presentation(text: str):
    """Parse the line-based presentation format.

    HNN::

        gens a b u y
        hnn t : u -> a y b y a y^-1 b y^-1

    Amalgam (two gens lines, one per factor)::

        gens p q
        gens r s
        amalgam : p = r
    """
    gens_lines: list[Alphabet] = []
    splitting = None
    for line in content_lines(text):
        keyword, rest = (line.split(None, 1) + [""])[:2]
        if keyword == "gens":
            gens_lines.append(Alphabet(rest))
        elif keyword in ("hnn", "amalgam"):
            if splitting is not None:
                raise ValueError(f"repeated splitting line {line!r}: a presentation has one hnn or amalgam line")
            splitting = keyword, rest
        else:
            raise ValueError(f"unrecognized presentation line {line!r}")
    if splitting is None:
        raise ValueError("presentation file has no hnn or amalgam line")
    keyword, rest = splitting
    if keyword == "hnn":
        if len(gens_lines) != 1:
            raise ValueError("hnn presentations need exactly one gens line")
        head, _, arrow = rest.partition(":")
        stable = head.strip()
        u_text, sep, v_text = arrow.partition("->")
        if not sep:
            raise ValueError("hnn line must read 'hnn t : u -> v'")
        base = gens_lines[0]
        return HnnPresentation(
            base, stable, parse_word(base, u_text), parse_word(base, v_text)
        )
    if len(gens_lines) != 2:
        raise ValueError("amalgam presentations need two gens lines")
    w1_text, sep, w2_text = rest.split(":", 1)[-1].partition("=")  # the colon is optional
    if not sep:
        raise ValueError("amalgam line must read 'amalgam : w1 = w2'")
    f1, f2 = gens_lines
    return AmalgamPresentation(f1, f2, parse_word(f1, w1_text), parse_word(f2, w2_text))
