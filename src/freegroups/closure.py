"""Closure procedures: compressed-rank certificates, and the full
desk-scale pipeline separating algebraic from definable closure.

The pipeline works inside the one-edge splitting

    A = <c1 .. ck, a, b, u>,   H = A * <y>,   F = <H, t | u^t = v>,
    v = a y b y a y^-1 b y^-1,

a free group of rank k + 4 presented with one stable letter.  The map g
fixes A, inverts y, and sends t to t d^-1 with d = a y^-1 b y^-1; it is
an automorphism fixing A pointwise (certified here by its explicit
inverse t -> t a y b y).  The pipeline checks that the equation
u^s = a z b z a z^-1 b z^-1 pins z down to {y, y^-1} over all of F,
and that g fixes no word of H outside A at any length.  Both are exact.
The first is decided by a free-product syllable argument (see
``_solution_set``); only the list it reports is cut at a length bound.
For the second, g permutes the letters of H, so it fixes a reduced word
iff it fixes each of its letters (the lemma is proved at
``endos.iter_fixed_words``).
Solutions and witnesses are listed in enumeration order (length, then
canonical letter order), so they are deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby

from .endos import Endomorphism, iter_fixed_words, verify_automorphism_pair
from .splittings import Check, HnnPresentation, Report, validate_presentation
from .stallings import SubgroupGraph, subgroup_graph
from .whitehead import is_primitive
from .words import (
    Alphabet,
    Word,
    abelianize,
    content_lines,
    format_word,
    free_reduce,
    iter_reduced_letter_tuples,
    letter_key,
    parse_word,
    _core,
    _inverse,
    _rotations,
)


# ---------------------------------------------------------------------------
# Compressed-rank certificates for one-edge splittings.


class AmalgamCertificate(namedtuple("AmalgamCertificate", "ambient b1 b2 c")):
    """K = B1 *_<c> B2 inside an ambient free group, all given by words."""

    __slots__ = ()


class HnnCertificate(namedtuple("HnnCertificate", "ambient base u v")):
    """K = <base, t | u^t = v> inside an ambient free group."""

    __slots__ = ()


def _rewritten(graph: SubgroupGraph, w: Word) -> Word | None:
    """w in the basis b1, b2, ... of the graph's subgroup, or None when w is not in it."""
    expressed = graph.express_in_basis(w)
    if expressed is None:
        return None
    basis_alphabet = Alphabet(tuple(f"b{i + 1}" for i in range(graph.rank())))
    return Word(basis_alphabet, expressed, _reduced=True)


def compressed_step_check(cert) -> Report:
    """Certificate check for one step of a compressed-rank argument.

    Each kind is two (factor label, basis, edge name, edge word, detail
    prefix) rows.  Every basis must be independent (else a usage error);
    every edge word must lie in its factor, a check per row; and the edge
    word must be primitive in at least one row where it lies in the factor
    (decided by Whitehead minimization after rewriting it in that factor's
    own basis).
    """
    if isinstance(cert, AmalgamCertificate):
        verdict = "edge_primitive_in_a_factor"
        rows = [
            ("b1", cert.b1, "c", cert.c, "in b1 coordinates c"),
            ("b2", cert.b2, "c", cert.c, "in b2 coordinates c"),
        ]
    elif isinstance(cert, HnnCertificate):
        verdict = "edge_primitive_in_base"
        rows = [("base", cert.base, "u", cert.u, "u"), ("base", cert.base, "v", cert.v, "v")]
    else:
        raise TypeError("certificate must be an AmalgamCertificate or HnnCertificate")
    graphs = {}
    for label, basis, *_ in rows:  # every basis before any rewrite
        if label not in graphs:
            graphs[label] = subgroup_graph(cert.ambient, basis)
            if graphs[label].rank() != len(basis):
                raise ValueError(f"certificate error: {label} is not an independent basis")
    rewritten = [_rewritten(graphs[label], w) for label, _, _, w, _ in rows]
    members = [
        Check(f"{e}_in_{label}", r is not None, f"not in {label}" if r is None else "membership via folded graph")
        for (label, _, e, *_), r in zip(rows, rewritten)
    ]
    found = [(prefix, r) for (*_, prefix), r in zip(rows, rewritten) if r is not None]
    primitive = [is_primitive(r) for _, r in found]
    detail = "; ".join(
        f"{prefix} = {format_word(r)} ({'primitive' if p else 'not primitive'})"
        for (prefix, r), p in zip(found, primitive)
    )
    return Report((*members, Check(verdict, any(primitive), detail)))


def parse_certificate(text: str):
    """Parse the line-based certificate format (see README)."""
    fields: dict[str, str] = {}
    for line in content_lines(text):
        if line.startswith(("gens ", "kind ")):
            key, value = line[:5], line[5:]  # the blank keeps "gens " apart from a field "gens"
        else:
            key, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"bad certificate line {line!r}")
            key = key.strip()
        if key in fields:
            raise ValueError(f"repeated certificate line {line!r}")
        fields[key] = value.strip()
    if "gens " not in fields or "kind " not in fields:
        raise ValueError("certificate needs gens and kind lines")
    ambient, kind = Alphabet(fields["gens "]), fields["kind "]

    def field(name: str) -> str:
        if name not in fields:
            raise ValueError(f"certificate missing field {name!r}")
        return fields[name]

    def words_field(name: str) -> tuple[Word, ...]:
        text = field(name)
        return tuple(parse_word(ambient, part) for part in text.split(",")) if text else ()

    def word_field(name: str) -> Word:
        if not (word := parse_word(ambient, field(name))):
            raise ValueError(f"certificate field {name!r} must be a nontrivial word")
        return word

    if kind == "amalgam":
        return AmalgamCertificate(ambient, words_field("b1"), words_field("b2"), word_field("c"))
    if kind == "hnn":
        return HnnCertificate(ambient, words_field("base"), word_field("u"), word_field("v"))
    raise ValueError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# The rank-(k+4) splitting and its verification pipeline.


CounterexampleSetup = namedtuple("CounterexampleSetup", "h_alphabet a_names pres v d y g g_inv g_base")


def build_counterexample(a0_size: int = 0, v_override: Word | None = None) -> CounterexampleSetup:
    """Assemble the splitting and the automorphism pair (g, g^-1).

    Spectator generators c1..ck are inert: every map fixes them, and no
    solution of the equation uses them (see ``_solution_set``).
    """
    if a0_size < 0:
        raise ValueError("a0 size must be nonnegative")
    a_names = tuple(f"c{i + 1}" for i in range(a0_size)) + ("a", "b", "u")
    h_alphabet = Alphabet(a_names + ("y",))
    a, b, u, y, t = range(a0_size + 1, a0_size + 6)
    word = lambda alphabet, *letters: Word(alphabet, letters, _reduced=True)
    v = word(h_alphabet, a, y, b, y, a, -y, b, -y)
    if v_override is not None:
        if v_override.alphabet != h_alphabet:
            raise ValueError("v override must be a word over the base alphabet")
        v = v_override
    pres = HnnPresentation(h_alphabet, "t", word(h_alphabet, u), v)
    d = word(h_alphabet, a, -y, b, -y)

    def images(alphabet):  # A fixed, y inverted
        return {name: word(alphabet, i) for i, name in enumerate(a_names, 1)} | {"y": word(alphabet, -y)}

    g_base = Endomorphism(h_alphabet, images(h_alphabet))
    lifted = images(pres.extended)
    g = Endomorphism(pres, {**lifted, "t": word(pres.extended, t, *_inverse(d.letters))})
    g_inv = Endomorphism(pres, {**lifted, "t": word(pres.extended, t, *g_base.apply(d).letters)})
    return CounterexampleSetup(h_alphabet, a_names, pres, v, d, word(h_alphabet, y), g, g_inv, g_base)


def _solution_set(alphabet: Alphabet, v: Word, max_len: int) -> list[Word]:
    """Every reduced h, |h| <= max_len, with E(h) = a h b h a h^-1 b h^-1
    conjugate to v, in enumeration order (length, then canonical letter
    order).  Exact over F: the whole solution set is decided, then cut at
    max_len, unless the cyclic core c of v lies in P = <a, b>.

    Split F = P * B, with B generated by the other generators.  E(h) is
    nontrivial (it abelianizes to 2a + 2b).  A reduced h outside P is
    g0 M gm with g0, gm in P and M beginning and ending with B-letters, with
    m B-syllables; cyclically E(h) = M J1 M J2 M^-1 J3 M^-1 J4 with
    J1 = gm b g0, J2 = gm a gm^-1, J3 = g0^-1 b gm^-1, J4 = g0^-1 a g0.  J2
    and J4 are never 1, and J1 = 1 gives J3 = gm b^2 gm^-1 != 1
    (symmetrically for J3 = 1).  If J1 or J3 is 1, M M or M^-1 M^-1 merges
    but keeps M's end letters: M = s e s^-1 with e cyclically reduced gives
    M^2 = s e^2 s^-1.  So E(h) is cyclically reduced in the free product
    with a B-syllable, and conjugacy in a free product is cyclic permutation
    of cyclically reduced syllable sequences (Lyndon & Schupp IV.1).
    Inversion sends h to gm^-1 M^-1 g0^-1, swapping J1 with J3, and E(h^-1)
    is E(h) read from its second a: so h solves iff h^-1 does, and every
    solution with J1 = 1 is the inverse of one with J3 = 1.  Hence:

    * c has no letter of P (c = 1 included): no h solves, since E(h) has a
      P-syllable (J2) or lies in P and is nontrivial.
    * c lies in P: every solution lies in P, and there may be infinitely
      many (every a^k solves for c = (a b)^2), so words over {a, b} are
      swept up to max_len; the only bounded case.
    * c has letters of both: c is cut cyclically into N B-syllables
      alternating with N P-syllables, and each of the N rotations that
      starts at a B-syllable is read in two shapes.  (A) No junction is 1:
      N = 4m and the syllables read M J1 M J2 M^-1 J3 M^-1 J4.  J2 is
      literally p a p^-1 with p not ending in a^+-1, so gm = p a^k; likewise
      J4 = q a q^-1 gives g0 = a^-j q^-1, and p^-1 J1 q reduces to
      a^k b a^-j, which fixes k and j.  (C) J3 = 1: g0 = b gm^-1, the
      syllables read M J1 M J2 red(M^-1 M^-1) J4, p^-1 J1 p = a^k b^2 a^-k
      fixes k, and red(M^-1 M^-1) has N - 2m B-syllables, at least 1 (M^2 is
      not in P) and at most 2m - 1 (M's end syllables meet), so
      (N + 1)/4 <= m < N/2.  Each (rotation, m, shape) gives at most one h,
      built only if the rotation reads its syllables in place.  A candidate,
      or the inverse of one kept, is kept only if the cyclic core of E(h) is
      a rotation of c (prepared once per call): no wrong h is returned.
    """
    a, b = alphabet.letter("a"), alphabet.letter("b")
    c = _core(v.letters)
    in_p = {a, -a, b, -b}.__contains__
    if not any(map(in_p, c)):
        return []
    rotation, inv = _rotations(c, alphabet), _inverse

    def solves(h: tuple[int, ...]) -> bool:  # one free reduction of E(h), its core against c's rotations
        h_inv = inv(h)
        core = _core(free_reduce((a, *h, b, *h, a, *h_inv, b, *h_inv)))
        return len(core) == len(c) and rotation(core) >= 0
    if all(map(in_p, c)):
        p_letters = {1: a, -1: -a, 2: b, -2: -b}
        words = (tuple(p_letters[x] for x in h) for h in iter_reduced_letter_tuples(2, max_len))
        found = set(filter(solves, words))
    else:
        start = next(i for i in range(len(c)) if in_p(c[i - 1]) and not in_p(c[i]))
        runs = [tuple(run) for _, run in groupby(c[start:] + c[:start], in_p)]
        n = len(runs) // 2  # N in the docstring
        power = lambda k: (a,) * k if k >= 0 else (-a,) * -k
        half = lambda j: j[: len(j) // 2]

        def lead(w: tuple[int, ...]) -> int:  # the k with w = a^k w', w' not starting with a^+-1
            k = 0
            while k < len(w) and abs(w[k]) == a:
                k += 1
            return k if not k or w[0] == a else -k

        candidates, cycle = [], runs * 2
        span = lambda i, j: sum(seq[2 * i : 2 * j - 1], ())  # B-syllables i+1..j of the rotation seq
        twice = lambda i, m: seq[2 * i : 2 * (i + m) - 1] == seq[2 * (i + m) : 2 * (i + 2 * m) - 1]  # span twice
        for r in range(n):
            seq = cycle[2 * r : 2 * (r + n)]
            m = n // 4
            if n % 4 == 0 and twice(0, m) and twice(2 * m, m) and span(2 * m, 3 * m) == inv(span(0, m)):  # (A)
                p, q = half(seq[4 * m - 1]), half(seq[-1])
                w = free_reduce(inv(p) + seq[2 * m - 1] + q)
                candidates.append(power(-lead(inv(w))) + inv(q) + span(0, m) + p + power(lead(w)))
            for m in range((n + 4) // 4, (n + 1) // 2):  # (N + 1)/4 <= m < N/2
                if twice(0, m) and span(2 * m, n) == free_reduce(inv(span(0, m)) * 2):  # (C)
                    p = half(seq[4 * m - 1])  # J2 = p a p^-1, gm = p a^k, g0 = b gm^-1
                    gm = p + power(lead(free_reduce(inv(p) + seq[2 * m - 1] + p)))
                    candidates.append((b, *inv(gm), *span(0, m), *gm))
        found = set(map(free_reduce, filter(solves, set(candidates))))  # solves reduces E(h) whole
        found |= set(filter(solves, set(map(inv, found)) - found))  # J1 = 1: the inverses of the J3 = 1 solutions
    hits = sorted(
        (h for h in found if len(h) <= max_len),
        key=lambda h: (len(h), list(map(letter_key, h))),
    )
    return [Word(alphabet, h, _reduced=True) for h in hits]


def counterexample_solution_set(
    a0_size: int = 0,
    max_len: int = 6,
    v_override: Word | None = None,
) -> list[Word]:
    """All reduced h with |h| <= max_len whose equation word is conjugate to v.

    The equation word is a h b h a h^-1 b h^-1; solutions are returned
    in enumeration order (length, then canonical letter order).  The
    solution set is decided exactly over F and then cut at max_len,
    unless v is conjugate into <a, b>, where words over a and b are swept
    up to max_len (see ``_solution_set``).  Its references are the
    sequential and vectorized sweeps in ``tests/closure_oracle.py``,
    which the tests require it to match.
    """
    setup = build_counterexample(a0_size, v_override)
    return _solution_set(setup.h_alphabet, setup.v, max_len)


def dcl_separation_check(
    g_base: Endomorphism,
    a_names: tuple[str, ...],
    max_len: int,
) -> tuple[bool, Word | None]:
    """Confirm g fixes no reduced word containing a generator outside a_names.

    Returns (ok, first fixed witness or None), the witness first in
    enumeration order among the words ``iter_fixed_words`` yields: exact
    at every length when g sends every generator to a single letter,
    else a scan up to max_len.
    """
    inside = set(a_names)
    outside = lambda w: not inside.issuperset(map(w.alphabet.letter_name, w.letters))
    witness = next(filter(outside, iter_fixed_words(g_base, max_len)), None)
    return witness is None, witness


class CounterexampleReport(namedtuple("CounterexampleReport", "checks solutions")):
    # solutions: those of length <= l_solution (exact over F, cut at that length).
    __slots__ = ()
    ok = Report.ok
    check = Report.check


def verify_counterexample(
    a0_size: int = 0,
    l_solution: int = 6,
    *,
    v_override: Word | None = None,
) -> CounterexampleReport:
    """Run the full check list, in order, against the splitting."""
    if l_solution < 1:
        raise ValueError("bounds must be at least 1")
    setup = build_counterexample(a0_size, v_override)
    checks: list[Check] = []

    # (a) the splitting hypotheses: u, v root-free and non-conjugate.
    validation = validate_presentation(setup.pres)
    failing = ", ".join(c.name for c in validation.checks if not c.passed)
    detail = "u, v root-free and non-conjugate" if validation.ok else f"failed: {failing}"
    checks.append(Check("presentation_valid", validation.ok, detail))

    # (b) no base solution: the equation word never abelianizes to u.
    ab_v, ab_u = abelianize(setup.v), abelianize(setup.pres.u)
    detail = f"ab(v) = {ab_v} != ab(u) = {ab_u}" if ab_v != ab_u else f"ab(v) = ab(u) = {ab_u}"
    checks.append(Check("abelianization_obstruction_ok", ab_v != ab_u, detail))

    # (c) g preserves the relation; certified automorphism via explicit inverse.
    detail = "g(t)^-1 u g(t) = g(v) in the extension"
    checks.append(Check("g_is_homomorphism", setup.g.is_homomorphism, detail))
    auto = setup.g_inv.is_homomorphism and verify_automorphism_pair(setup.g, setup.g_inv)
    detail = f"explicit inverse sends t to {format_word(setup.g_inv.images['t'])}"
    checks.append(Check("g_is_automorphism", auto, detail))

    # (d) the conjugation witness for g(v).
    d, v = setup.d.letters, setup.v.letters
    conj_ok = setup.g_base.substitute(setup.v).letters == free_reduce(d + v + _inverse(d))
    detail = f"g(v) = d v d^-1 with d = {format_word(setup.d)}"
    checks.append(Check("gv_conjugate_to_v", conj_ok, detail))

    # (e) the solution set of the defining equation, listed up to l_solution.
    solutions = tuple(_solution_set(setup.h_alphabet, setup.v, l_solution))
    sol_text = "{" + ", ".join(format_word(s) for s in solutions) + "}"
    detail = f"solutions up to length {l_solution}: {sol_text}"
    checks.append(Check("solution_set", solutions == (setup.y, ~setup.y), detail))

    # (f) g fixes nothing outside A, at every length: g sends each base
    # generator to a letter (A to itself, y to y^-1), so by the letter-map
    # lemma of ``endos.iter_fixed_words`` length 1 decides every length.
    ok, witness = dcl_separation_check(setup.g_base, setup.a_names, 1)
    exact = "no fixed word at any length (exact: g permutes letters and fixes no generator outside A)"
    checks.append(Check("dcl_separation_ok", ok, exact if ok else f"fixed witness {format_word(witness)}"))
    return CounterexampleReport(checks=tuple(checks), solutions=solutions)
