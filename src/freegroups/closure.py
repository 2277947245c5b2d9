"""Closure procedures: abelian closure, compressed-rank certificates, and
the full desk-scale pipeline separating algebraic from definable closure.

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

from dataclasses import dataclass
from itertools import groupby, takewhile
from typing import NamedTuple, Optional

from .endos import Endomorphism, iter_fixed_words, verify_automorphism_pair
from .splittings import Check, HnnPresentation, Report, validate_presentation
from .stallings import SubgroupGraph, subgroup_graph
from .whitehead import is_primitive
from .words import (
    Alphabet,
    Word,
    abelianize,
    centralizer,
    content_lines,
    cyclic_core,
    format_word,
    free_reduce,
    is_conjugate,
    iter_reduced_letter_tuples,
    parse_word,
)


def abelian_closure(w: Word) -> Word:
    """Closure of a nontrivial cyclic subgroup: the centralizer generator."""
    if not w:
        raise ValueError("abelian closure needs a nontrivial generator")
    return centralizer(w)


# ---------------------------------------------------------------------------
# Compressed-rank certificates for one-edge splittings.


class AmalgamCertificate(NamedTuple):
    """K = B1 *_<c> B2 inside an ambient free group, all given by words."""

    ambient: Alphabet
    b1: tuple[Word, ...]
    b2: tuple[Word, ...]
    c: Word


class HnnCertificate(NamedTuple):
    """K = <base, t | u^t = v> inside an ambient free group."""

    ambient: Alphabet
    base: tuple[Word, ...]
    u: Word
    v: Word


def _rewritten(graph: SubgroupGraph, w: Word) -> Optional[Word]:
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


class CounterexampleSetup(NamedTuple):
    a0_size: int
    h_alphabet: Alphabet
    a_names: tuple[str, ...]
    pres: HnnPresentation
    u: Word
    v: Word
    d: Word
    y: Word
    g: Endomorphism
    g_inv: Endomorphism
    g_base: Endomorphism


def build_counterexample(a0_size: int = 0, v_override: Optional[Word] = None) -> CounterexampleSetup:
    """Assemble the splitting and the automorphism pair (g, g^-1).

    Spectator generators c1..ck are inert: every map fixes them, and no
    solution of the equation uses them (see ``_solution_set``).
    """
    if a0_size < 0:
        raise ValueError("a0 size must be nonnegative")
    a_names = tuple(f"c{i + 1}" for i in range(a0_size)) + ("a", "b", "u")
    h_alphabet = Alphabet(a_names + ("y",))
    u = parse_word(h_alphabet, "u")
    v = parse_word(h_alphabet, "a y b y a y^-1 b y^-1")
    if v_override is not None:
        if v_override.alphabet != h_alphabet:
            raise ValueError("v override must be a word over the base alphabet")
        v = v_override
    pres = HnnPresentation(h_alphabet, "t", u, v)
    d = parse_word(h_alphabet, "a y^-1 b y^-1")
    y = parse_word(h_alphabet, "y")

    base_images = {name: parse_word(h_alphabet, name) for name in a_names}
    base_images["y"] = ~y
    g_base = Endomorphism(h_alphabet, base_images)

    t_word = Word(pres.extended, (pres.t_letter,), _reduced=True)
    lifted = {name: pres.lift(w) for name, w in base_images.items()}
    g_images = dict(lifted)
    g_images["t"] = t_word * pres.lift(~d)
    g_inv_images = dict(lifted)
    g_inv_images["t"] = t_word * pres.lift(g_base.apply(d))
    g = Endomorphism(pres, g_images)
    g_inv = Endomorphism(pres, g_inv_images)
    return CounterexampleSetup(
        a0_size, h_alphabet, a_names, pres, u, v, d, y, g, g_inv, g_base
    )


def _solution_set(alphabet: Alphabet, v: Word, max_len: int) -> list[Word]:
    """Every reduced h, |h| <= max_len, with E(h) = a h b h a h^-1 b h^-1
    conjugate to v, in enumeration order (length, then canonical letter
    order).  Exact over F: the whole solution set is decided, then cut at
    max_len, unless the cyclic core c of v lies in P = <a, b>.

    Split F = P * B, with B generated by the other generators.  E(h) is
    nontrivial (it abelianizes to 2a + 2b), and E(h^-1) is E(h) read from
    its second a, so h solves iff h^-1 does.  A reduced h outside P is
    g0 M gm with g0, gm in P and M beginning and ending with B-letters,
    with m B-syllables; cyclically E(h) = M J1 M J2 M^-1 J3 M^-1 J4 with
    J1 = gm b g0, J2 = gm a gm^-1, J3 = g0^-1 b gm^-1, J4 = g0^-1 a g0.
    J2 and J4 are never 1, and J1 = 1 gives J3 = gm b^2 gm^-1 != 1
    (symmetrically for J3 = 1).  If J1 or J3 is 1, M M or M^-1 M^-1
    merges but keeps M's end letters: M = s e s^-1 with e cyclically
    reduced gives M^2 = s e^2 s^-1.  So E(h) is cyclically reduced in the
    free product with a B-syllable, and conjugacy in a free product is
    cyclic permutation of cyclically reduced syllable sequences (Lyndon &
    Schupp IV.1).  Hence:

    * c has no letter of P (c = 1 included): no h solves, since E(h) has
      a P-syllable (J2) or lies in P and is nontrivial.
    * c lies in P: every solution lies in P, and there may be infinitely
      many (every a^k solves for c = (a b)^2), so words over {a, b} are
      swept up to max_len; the only bounded case.
    * c has letters of both: c is cut cyclically into N B-syllables
      alternating with N P-syllables, and each of the N rotations that
      starts at a B-syllable is read in three shapes.  (A) No junction
      is 1: N = 4m and the syllables read M J1 M J2 M^-1 J3 M^-1 J4.  J2
      is literally p a p^-1 with p not ending in a^+-1, so gm = p a^k;
      likewise J4 = q a q^-1 gives g0 = a^-j q^-1, and p^-1 J1 q reduces
      to a^k b a^-j, which fixes k and j.  (B) J1 = 1: g0 = b^-1 gm^-1,
      the syllables read red(M M) J2 M^-1 J3 M^-1 J4 for some 2m < N, and
      p^-1 J3 p = a^k b^2 a^-k fixes k.  (C) J3 = 1: g0 = b gm^-1, the
      syllables read M J1 M J2 red(M^-1 M^-1) J4, and p^-1 J1 p =
      a^k b^2 a^-k fixes k.  Each (rotation, m, shape) gives at most one
      h.  The patterns are not checked on the way: every candidate is
      kept only if E(h) is conjugate to v, so no wrong h is returned.
    """
    a, b = alphabet.letter("a"), alphabet.letter("b")
    c = cyclic_core(v).letters
    in_p = lambda x: abs(x) in (a, b)
    inv = lambda w: tuple(-x for x in reversed(w))
    solves = lambda h: is_conjugate(
        Word(alphabet, (a,) + h + (b,) + h + (a,) + inv(h) + (b,) + inv(h)), v
    ) is not None
    if not any(map(in_p, c)):
        return []
    if all(map(in_p, c)):
        p_letters = {1: a, -1: -a, 2: b, -2: -b}
        words = (tuple(p_letters[x] for x in h) for h in iter_reduced_letter_tuples(2, max_len))
        found = set(filter(solves, words))
    else:
        start = next(i for i in range(len(c)) if in_p(c[i - 1]) and not in_p(c[i]))
        runs = [tuple(run) for _, run in groupby(c[start:] + c[:start], in_p)]
        n = len(runs) // 2  # N in the docstring
        power = lambda k: (a,) * k if k >= 0 else (-a,) * -k
        lead = lambda w: sum(x // a for x in takewhile(lambda x: abs(x) == a, w))
        half = lambda j: j[: len(j) // 2]
        candidates = []
        for r in range(n):
            seq = runs[2 * r :] + runs[: 2 * r]
            span = lambda i, j: sum(seq[2 * i : 2 * j - 1], ())  # B-syllables i+1..j
            if n % 4 == 0:  # (A)
                m = n // 4
                p, q = half(seq[4 * m - 1]), half(seq[-1])
                w = free_reduce(inv(p) + seq[2 * m - 1] + q)
                candidates.append(power(-lead(inv(w))) + inv(q) + span(0, m) + p + power(lead(w)))
            for m in range(1, (n + 1) // 2):
                # (B): M^-1 is read off after red(M M) J2; (C): M comes first.
                r0 = n - 2 * m
                for M, j2, j, g0 in (
                    (inv(span(r0, r0 + m)), seq[2 * r0 - 1], seq[2 * (r0 + m) - 1], (-b,)),
                    (span(0, m), seq[4 * m - 1], seq[2 * m - 1], (b,)),
                ):
                    p = half(j2)
                    gm = p + power(lead(free_reduce(inv(p) + j + p)))
                    candidates.append(g0 + inv(gm) + M + gm)
        found = {h for h in map(free_reduce, candidates) if solves(h)}
    hits = sorted(
        (h for h in found if len(h) <= max_len),
        key=lambda h: (len(h), [2 * abs(x) + (x < 0) for x in h]),
    )
    return [Word(alphabet, h, _reduced=True) for h in hits]


def counterexample_solution_set(
    a0_size: int = 0,
    max_len: int = 6,
    v_override: Optional[Word] = None,
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
) -> tuple[bool, Optional[Word]]:
    """Confirm g fixes no reduced word containing a generator outside a_names.

    Returns (ok, first fixed witness or None), the witness first in
    enumeration order among the words ``iter_fixed_words`` yields: exact
    at every length when g sends every generator to a single letter,
    else a scan up to max_len.
    """
    outside = lambda w: any(w.alphabet.generators[abs(x) - 1] not in a_names for x in w.letters)
    witness = next(filter(outside, iter_fixed_words(g_base, max_len)), None)
    return witness is None, witness


@dataclass(frozen=True)
class CounterexampleReport(Report):
    a0_size: int
    rank: int
    l_solution: int
    l_separation: int
    # Solutions of length <= l_solution (exact over F, cut at that length).
    solutions: tuple[Word, ...]


CHECK_ORDER = (
    "presentation_valid",
    "abelianization_obstruction_ok",
    "g_is_homomorphism",
    "g_is_automorphism",
    "gv_conjugate_to_v",
    "solution_set",
    "dcl_separation_ok",
)


def verify_counterexample(
    a0_size: int = 0,
    l_solution: int = 6,
    l_separation: int = 8,
    v_override: Optional[Word] = None,
) -> CounterexampleReport:
    """Run the full check list, in order, against the splitting."""
    if l_solution < 1 or l_separation < 1:
        raise ValueError("bounds must be at least 1")
    setup = build_counterexample(a0_size, v_override)
    checks: list[Check] = []

    # (a) the splitting hypotheses: u, v root-free and non-conjugate.
    validation = validate_presentation(setup.pres)
    failing = ", ".join(c.name for c in validation.checks if not c.passed)
    detail = "u, v root-free and non-conjugate" if validation.ok else f"failed: {failing}"
    checks.append(Check("presentation_valid", validation.ok, detail))

    # (b) no base solution: the equation word never abelianizes to u.
    ab_v, ab_u = abelianize(setup.v), abelianize(setup.u)
    detail = f"ab(v) = {ab_v} != ab(u) = {ab_u}" if ab_v != ab_u else f"ab(v) = ab(u) = {ab_u}"
    checks.append(Check("abelianization_obstruction_ok", ab_v != ab_u, detail))

    # (c) g preserves the relation; certified automorphism via explicit inverse.
    detail = "g(t)^-1 u g(t) = g(v) in the extension"
    checks.append(Check("g_is_homomorphism", setup.g.is_homomorphism, detail))
    auto = setup.g_inv.is_homomorphism and verify_automorphism_pair(setup.g, setup.g_inv)
    detail = f"explicit inverse sends t to t {format_word(setup.g_base.apply(setup.d))}"
    checks.append(Check("g_is_automorphism", auto, detail))

    # (d) the conjugation witness for g(v).
    conj_ok = setup.g_base.apply(setup.v) == setup.d * setup.v * ~setup.d
    detail = f"g(v) = d v d^-1 with d = {format_word(setup.d)}"
    checks.append(Check("gv_conjugate_to_v", conj_ok, detail))

    # (e) the solution set of the defining equation, listed up to l_solution.
    solutions = tuple(_solution_set(setup.h_alphabet, setup.v, l_solution))
    sol_text = "{" + ", ".join(format_word(s) for s in solutions) + "}"
    detail = f"solutions up to length {l_solution}: {sol_text}"
    checks.append(Check("solution_set", solutions == (setup.y, ~setup.y), detail))

    # (f) g fixes nothing outside A: at every length for a letter map,
    # else up to the separation bound.
    ok, witness = dcl_separation_check(setup.g_base, setup.a_names, l_separation)
    if not ok:
        detail = f"fixed witness {format_word(witness)}"
    elif setup.g_base.is_letter_map():
        detail = (
            "no fixed word at any length "
            "(exact: g permutes letters and fixes no generator outside A)"
        )
    else:
        detail = f"no fixed word up to length {l_separation}"
    checks.append(Check("dcl_separation_ok", ok, detail))
    return CounterexampleReport(
        checks=tuple(checks),
        a0_size=a0_size,
        rank=a0_size + 4,
        l_solution=l_solution,
        l_separation=l_separation,
        solutions=solutions,
    )


def v_perturbations(a0_size: int = 0) -> list[Word]:
    """All valid one-letter perturbations of v (negative-control inputs).

    Valid means the perturbed word is still reduced, cyclically reduced,
    and the presentation hypotheses still hold.
    """
    setup = build_counterexample(a0_size)
    v_letters = setup.v.letters
    alphabet = setup.h_alphabet
    out: list[Word] = []
    for pos in range(len(v_letters)):
        for letter in alphabet.letters():
            if letter == v_letters[pos]:
                continue
            candidate = v_letters[:pos] + (letter,) + v_letters[pos + 1 :]
            if free_reduce(candidate) != candidate:
                continue
            if len(candidate) >= 2 and candidate[0] == -candidate[-1]:
                continue
            w = Word(alphabet, candidate, _reduced=True)
            try:
                pres = HnnPresentation(alphabet, "t", setup.u, w)
            except ValueError:
                continue
            if validate_presentation(pres).ok:
                out.append(w)
    return out
