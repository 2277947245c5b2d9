"""One-edge cyclic splittings: HNN extensions and amalgams.

Orientation convention, used everywhere: ``u^t = v`` means
``t^-1 u t = v``.  Pinches are the subwords ``t^-1 g t`` with ``g`` a
power of u (rewriting to the same power of v) and ``t g t^-1`` with
``g`` a power of v (rewriting to the same power of u).

Elements of an HNN extension are plain words over the base alphabet
extended by the stable letter; elements of an amalgam are words over the
disjoint union of the factor alphabets.  Britton and amalgam forms are
not canonical across pinch orders, so equality always goes through
reduction of ``w1 * w2^-1``, never form comparison.  All values are
immutable and all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import (
    Alphabet,
    Word,
    _power_in,
    _power_letters,
    _root_parts,
    content_lines,
    extract_root,
    free_reduce,
    is_conjugate,
    parse_word,
)


@dataclass(frozen=True)
class Check:
    """One named verdict inside a report."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


class HnnPresentation:
    """<H, t | u^t = v> with free base H and nontrivial base words u, v."""

    __slots__ = ("base", "stable", "u", "v", "extended", "_edge_parts")

    def __init__(self, base: Alphabet, stable: str, u: Word, v: Word):
        if stable in base:
            raise ValueError("stable letter collides with a base generator")
        if u.alphabet != base or v.alphabet != base:
            raise ValueError("u and v must be words over the base alphabet")
        if not u or not v:
            raise ValueError("edge words must be nontrivial")
        self.base = base
        self.stable = stable
        self.u = u
        self.v = v
        # Base letters keep their codes in the extended alphabet.
        self.extended = base.extend(stable)
        self._edge_parts = (_root_parts(u), _root_parts(v))

    @property
    def t_letter(self) -> int:
        return self.base.rank + 1

    def word(self, text: str) -> Word:
        return parse_word(self.extended, text)

    def base_word(self, text: str) -> Word:
        return parse_word(self.base, text)

    def lift(self, w: Word) -> Word:
        """View a base word as a word of the extension."""
        if w.alphabet != self.base:
            raise ValueError("not a base word")
        return Word(self.extended, w.letters, _reduced=True)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HnnPresentation)
            and self.base == other.base
            and self.stable == other.stable
            and self.u == other.u
            and self.v == other.v
        )

    def __hash__(self) -> int:
        return hash((self.base, self.stable, self.u, self.v))

    def __repr__(self) -> str:
        return f"HnnPresentation(<H, {self.stable} | {self.u}^{self.stable} = {self.v}>)"


@dataclass(frozen=True)
class BrittonForm:
    """Pinch-free syllable form g0 t^e1 g1 ... t^er gr (base-word syllables)."""

    head: Word
    tail: tuple[tuple[int, Word], ...] = ()

    @property
    def t_length(self) -> int:
        return len(self.tail)

    def is_trivial(self) -> bool:
        return not self.tail and not self.head

    def to_word(self, pres: HnnPresentation) -> Word:
        letters = list(self.head.letters)
        t = pres.t_letter
        for eps, g in self.tail:
            letters.append(t if eps > 0 else -t)
            letters.extend(g.letters)
        return Word(pres.extended, free_reduce(letters), _reduced=True)


def validate_presentation(pres: HnnPresentation) -> Report:
    """Check the malnormality/non-conjugacy hypotheses of the splitting.

    (i) u and v root-free (equivalent to <u>, <v> malnormal in the free
    base); (ii) u not conjugate to v or v^-1 in the base.
    """
    u_root, u_exp = extract_root(pres.u)
    v_root, v_exp = extract_root(pres.v)
    checks = [
        Check("u_root_free", u_exp == 1, f"u = ({u_root})^{u_exp}"),
        Check("v_root_free", v_exp == 1, f"v = ({v_root})^{v_exp}"),
    ]
    conj = is_conjugate(pres.u, pres.v)
    conj_inv = is_conjugate(pres.u, ~pres.v)
    checks.append(
        Check(
            "u_v_not_conjugate",
            conj is None and conj_inv is None,
            "u is conjugate to v^{+-1}" if (conj or conj_inv) else "no conjugator exists",
        )
    )
    return Report(tuple(checks))


def _push(out: list[int], letters: tuple[int, ...]) -> None:
    """Append reduced letters to a reduced letter list: they cancel only at the seam."""
    k = 0
    while k < len(letters) and out and out[-1] == -letters[k]:
        out.pop()
        k += 1
    out.extend(letters[k:])


def britton_reduce(pres: HnnPresentation, w: Word) -> BrittonForm:
    """Rewrite leftmost pinches until none remains, in one left-to-right pass.

    t^-1 u^p t -> v^p and t v^p t^-1 -> u^p; membership in <u> or <v> is
    exact, by slicing the syllable against the edge roots split once per
    presentation, and a pinch builds no Word.  The syllables
    read so far form a pinch-free stack, so a stable letter can only
    close a pinch with the top base word, and that pinch is the leftmost
    one in the word: the pinches are those of rescanning after each one.
    A pinch appends its replacement and the next base syllable to the
    base word below the top, cancelling at each seam.
    """
    if w.alphabet != pres.extended:
        raise ValueError("word is not over the extension alphabet")
    lets, t = w.letters, pres.t_letter
    cuts = [i for i, letter in enumerate(lets) if letter == t or letter == -t] + [len(lets)]
    words = [list(lets[: cuts[0]])]
    signs: list[int] = []
    for i, j in zip(cuts, cuts[1:]):
        eps = 1 if lets[i] > 0 else -1
        if signs and signs[-1] == -eps:
            edge, image = pres._edge_parts[::eps]  # u's, v's parts at eps = 1; v's, u's at -1
            p = _power_in(tuple(words[-1]), edge)
            if p is not None:
                signs.pop()
                words.pop()
                _push(words[-1], _power_letters(image, p))
                _push(words[-1], lets[i + 1 : j])
                continue
        signs.append(eps)
        words.append(list(lets[i + 1 : j]))
    base = [Word(pres.base, tuple(ls), _reduced=True) for ls in words]
    return BrittonForm(base[0], tuple(zip(signs, base[1:])))


def hnn_length(form: BrittonForm) -> int:
    """Number of stable letters; an invariant of the group element."""
    return form.t_length


def hnn_equal(pres: HnnPresentation, w1: Word, w2: Word) -> bool:
    """Equality in the HNN extension, via Britton's lemma on w1 * w2^-1."""
    return britton_reduce(pres, w1 * ~w2).is_trivial()


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of the base-conjugacy classification alpha^s = beta, |s|_t >= 1.

    In case 1: alpha = (u^p)^gamma, beta = (v^p)^delta, s = gamma^-1 t delta.
    In case 2: alpha = (v^p)^gamma, beta = (u^p)^delta, s = gamma^-1 t^-1 delta.
    (x^g denotes g^-1 x g.)
    """

    solvable: bool
    case: Optional[int] = None
    p: Optional[int] = None
    gamma: Optional[Word] = None
    delta: Optional[Word] = None
    s: Optional[Word] = None


def classify_base_conjugacy(pres: HnnPresentation, alpha: Word, beta: Word) -> ClassificationResult:
    """Decide alpha^s = beta with at least one stable letter in s.

    Tests alpha ~ u^p, beta ~ v^p (case 1) and alpha ~ v^p, beta ~ u^p
    (case 2) for |p| up to a length bound: |u^p| grows linearly in p, so
    larger exponents cannot match.
    """
    if not validate_presentation(pres).ok:
        raise ValueError("presentation does not satisfy the splitting hypotheses")
    if not alpha or not beta:
        raise ValueError("alpha and beta must be nontrivial")
    core = min(len(s) * e for _, s, _, _, e in pres._edge_parts)
    bound = max(len(alpha), len(beta)) // core + 1
    t = Word(pres.extended, (pres.t_letter,), _reduced=True)
    for p_abs in range(1, bound + 1):
        for p in (p_abs, -p_abs):
            for case, first, second in ((1, pres.u, pres.v), (2, pres.v, pres.u)):
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


class AmalgamPresentation:
    """Amalgam of two free factors over identified cyclic subgroups <c1> = <c2>."""

    __slots__ = ("factor1", "factor2", "c1", "c2", "union_alphabet", "_edge_parts")

    def __init__(self, factor1: Alphabet, factor2: Alphabet, c1: Word, c2: Word):
        if set(factor1.generators) & set(factor2.generators):
            raise ValueError("factor alphabets must be disjoint")
        if c1.alphabet != factor1 or c2.alphabet != factor2:
            raise ValueError("edge words must live in their own factors")
        if not c1 or not c2:
            raise ValueError("edge words must be nontrivial")
        self.factor1 = factor1
        self.factor2 = factor2
        self.c1 = c1
        self.c2 = c2
        self.union_alphabet = Alphabet(factor1.generators + factor2.generators)
        self._edge_parts = (_root_parts(c1), _root_parts(c2))

    def word(self, text: str) -> Word:
        return parse_word(self.union_alphabet, text)

    def side_of(self, letter: int) -> int:
        return 1 if abs(letter) <= self.factor1.rank else 2

    def to_union(self, side: int, w: Word) -> Word:
        if side == 1:
            return Word(self.union_alphabet, w.letters, _reduced=True)
        shift = self.factor1.rank
        lets = tuple(l + shift if l > 0 else l - shift for l in w.letters)
        return Word(self.union_alphabet, lets, _reduced=True)

    def to_factor(self, side: int, letters: tuple[int, ...]) -> Word:
        if side == 1:
            return Word(self.factor1, letters, _reduced=True)
        shift = self.factor1.rank
        lets = tuple(l - shift if l > 0 else l + shift for l in letters)
        return Word(self.factor2, lets, _reduced=True)

    def edge_word(self, side: int) -> Word:
        return self.c1 if side == 1 else self.c2

    def _edge_power(self, side: int, p: int) -> Word:
        """c_side^p as a factor word, from the root split once."""
        parts = self._edge_parts[side - 1]
        return Word(self.edge_word(side).alphabet, _power_letters(parts, p), _reduced=True)

    def __repr__(self) -> str:
        return f"AmalgamPresentation({self.c1} = {self.c2})"


@dataclass(frozen=True)
class AmalgamForm:
    """Alternating syllables (side, factor word); interior syllables not in <c>."""

    syllables: tuple[tuple[int, Word], ...]

    def is_trivial(self) -> bool:
        return not self.syllables or (len(self.syllables) == 1 and not self.syllables[0][1])

    def to_word(self, pres: AmalgamPresentation) -> Word:
        letters: list[int] = []
        for side, w in self.syllables:
            letters.extend(pres.to_union(side, w).letters)
        return Word(pres.union_alphabet, free_reduce(letters), _reduced=True)


def _syllables_of(pres: AmalgamPresentation, w: Word) -> list[tuple[int, Word]]:
    runs: list[tuple[int, list[int]]] = []
    for letter in w.letters:
        side = pres.side_of(letter)
        if runs and runs[-1][0] == side:
            runs[-1][1].append(letter)
        else:
            runs.append((side, [letter]))
    return [(side, pres.to_factor(side, tuple(ls))) for side, ls in runs]


def amalgam_reduce(pres: AmalgamPresentation, w: Word) -> AmalgamForm:
    """Normal form: merge syllables lying in the edge group across sides.

    The rule: the leftmost syllable equal to an edge power c_i^p becomes
    c_j^p on the other side and joins its right neighbour (its left one
    when it is last); a trivial syllable is dropped and its two
    neighbours merge.  The result is a single syllable, or an
    alternating sequence with no syllable a power of its side's edge
    word.

    One left-to-right pass applies the rule.  The syllables read so far
    form a stack that alternates, has no trivial syllable and no edge
    power below its top, so an edge power on top is the leftmost one:
    the next syllable absorbs it, and the result merges with the
    syllable below, which shares its side.  An edge power left on top at
    the end joins its left neighbour.
    """
    if w.alphabet != pres.union_alphabet:
        raise ValueError("word is not over the amalgam alphabet")
    stack: list[tuple[int, Word]] = []
    for side, wd in _syllables_of(pres, w):
        while stack and wd:
            top_side, top = stack[-1]
            if top_side == side:
                wd = top * wd
            else:
                p = _power_in(top.letters, pres._edge_parts[top_side - 1])
                if p is None:
                    break
                wd = pres._edge_power(side, p) * wd
            stack.pop()
        if wd:
            stack.append((side, wd))
    while len(stack) >= 2:
        side, last = stack[-1]
        p = _power_in(last.letters, pres._edge_parts[side - 1])
        if p is None:
            break
        stack.pop()
        side, wd = stack.pop()
        wd = wd * pres._edge_power(side, p)
        if wd:
            stack.append((side, wd))
    return AmalgamForm(tuple(stack))


def amalgam_equal(pres: AmalgamPresentation, w1: Word, w2: Word) -> bool:
    return amalgam_reduce(pres, w1 * ~w2).is_trivial()


def dehn_twist(splitting, power: int):
    """The twist automorphism of a one-edge splitting.

    HNN case: identity on the base, t -> u^power t (left multiplication
    keeps t^-1 u t = v preserved under this orientation).  Amalgam case:
    identity on factor 1, conjugation g -> c^power g c^-power on factor 2.
    Power 0 gives the identity map.
    """
    from .endos import Endomorphism

    if isinstance(splitting, HnnPresentation):
        pres = splitting
        images = {}
        for i, name in enumerate(pres.base.generators):
            images[name] = Word(pres.extended, (i + 1,), _reduced=True)
        twist = _power_letters(pres._edge_parts[0], power) + (pres.t_letter,)
        images[pres.stable] = Word(pres.extended, twist, _reduced=True)
        return Endomorphism(pres, images)
    if isinstance(splitting, AmalgamPresentation):
        pres = splitting
        images = {}
        union = pres.union_alphabet
        for i, name in enumerate(pres.factor1.generators):
            images[name] = Word(union, (i + 1,), _reduced=True)
        conj = pres._edge_power(2, power)
        for i, name in enumerate(pres.factor2.generators):
            g = Word(pres.factor2, (i + 1,), _reduced=True)
            images[name] = pres.to_union(2, conj * g * ~conj)
        return Endomorphism(pres, images)
    raise TypeError("splitting must be an HnnPresentation or AmalgamPresentation")


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
