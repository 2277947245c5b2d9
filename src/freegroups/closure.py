"""Closure procedures: abelian closure, compressed-rank certificates, and
the full desk-scale pipeline separating algebraic from definable closure.

The pipeline works inside the one-edge splitting

    A = <c1 .. ck, a, b, u>,   H = A * <y>,   F = <H, t | u^t = v>,
    v = a y b y a y^-1 b y^-1,

a free group of rank k + 4 presented with one stable letter.  The map g
fixes A, inverts y, and sends t to t d^-1 with d = a y^-1 b y^-1; it is
an automorphism fixing A pointwise (certified here by its explicit
inverse t -> t a y b y).  The pipeline checks that the equation
u^s = a z b z a z^-1 b z^-1 pins z down to {y, y^-1} inside a bounded
sweep, and that g fixes no word of H outside A at any length.  The
latter is exact: g permutes the letters of H, and a map sending each
generator to a single letter rewrites a word letter by letter, which
free reduction can only shorten, so it fixes a reduced word iff it
fixes each of its letters.  The solution sweep enumerates words over
a, b and the letters of v only; that is exact, since by a free-product
syllable argument no z using another generator solves.  It is bounded
in |z|, a regression check at desk scale, not a proof: it exercises
the construction, it does not re-derive it.
Candidates are always visited in enumeration order (length, then
canonical letter order), so results and witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _bulk
from .endos import Endomorphism, verify_automorphism_pair
from .splittings import Check, HnnPresentation, Report, validate_presentation
from .stallings import SubgroupGraph, subgroup_graph
from .whitehead import is_primitive
from .words import (
    Alphabet,
    Word,
    abelianize,
    centralizer,
    cyclically_reduce,
    format_word,
    free_reduce,
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


@dataclass(frozen=True)
class AmalgamCertificate:
    """K = B1 *_<c> B2 inside an ambient free group, all given by words."""

    ambient: Alphabet
    b1: tuple[Word, ...]
    b2: tuple[Word, ...]
    c: Word


@dataclass(frozen=True)
class HnnCertificate:
    """K = <base, t | u^t = v> inside an ambient free group."""

    ambient: Alphabet
    base: tuple[Word, ...]
    u: Word
    v: Word


def _basis_graph(ambient: Alphabet, words: tuple[Word, ...], label: str) -> SubgroupGraph:
    graph = subgroup_graph(ambient, words)
    if graph.rank() != len(words):
        raise ValueError(f"certificate error: {label} is not an independent basis")
    return graph


def _rewritten(graph: SubgroupGraph, w: Word, label: str) -> Word:
    expressed = graph.express_in_basis(w)
    if expressed is None:
        raise ValueError(f"certificate error: edge word not in {label}")
    basis_alphabet = Alphabet(tuple(f"b{i + 1}" for i in range(graph.rank())))
    return Word(basis_alphabet, expressed, _reduced=True)


def compressed_step_check(cert) -> Report:
    """Certificate check for one step of a compressed-rank argument.

    The edge word must be primitive in at least one side (decided by
    Whitehead minimization after rewriting it in that factor's own
    basis).
    """
    checks: list[Check] = []
    if isinstance(cert, AmalgamCertificate):
        g1 = _basis_graph(cert.ambient, cert.b1, "b1")
        g2 = _basis_graph(cert.ambient, cert.b2, "b2")
        checks.append(Check("c_in_b1", True, "membership via folded graph"))
        checks.append(Check("c_in_b2", True, "membership via folded graph"))
        c1 = _rewritten(g1, cert.c, "b1")
        c2 = _rewritten(g2, cert.c, "b2")
        prim1 = is_primitive(c1)
        prim2 = is_primitive(c2)
        detail = (
            f"in b1 coordinates c = {format_word(c1)} ({'primitive' if prim1 else 'not primitive'}); "
            f"in b2 coordinates c = {format_word(c2)} ({'primitive' if prim2 else 'not primitive'})"
        )
        checks.append(Check("edge_primitive_in_a_factor", prim1 or prim2, detail))
        return Report(tuple(checks))
    if isinstance(cert, HnnCertificate):
        g = _basis_graph(cert.ambient, cert.base, "base")
        checks.append(Check("u_in_base", True, "membership via folded graph"))
        checks.append(Check("v_in_base", True, "membership via folded graph"))
        u_expr = _rewritten(g, cert.u, "base")
        v_expr = _rewritten(g, cert.v, "base")
        prim_u = is_primitive(u_expr)
        prim_v = is_primitive(v_expr)
        detail = (
            f"u = {format_word(u_expr)} ({'primitive' if prim_u else 'not primitive'}); "
            f"v = {format_word(v_expr)} ({'primitive' if prim_v else 'not primitive'})"
        )
        checks.append(Check("edge_primitive_in_base", prim_u or prim_v, detail))
        return Report(tuple(checks))
    raise TypeError("certificate must be an AmalgamCertificate or HnnCertificate")


def parse_certificate(text: str):
    """Parse the line-based certificate format (see README)."""
    ambient: Optional[Alphabet] = None
    kind: Optional[str] = None
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("gens "):
            ambient = Alphabet(line[5:])
            continue
        if line.startswith("kind "):
            kind = line[5:].strip()
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"bad certificate line {line!r}")
        fields[key.strip()] = value.strip()
    if ambient is None or kind is None:
        raise ValueError("certificate needs gens and kind lines")

    def words_field(name: str) -> tuple[Word, ...]:
        if name not in fields:
            raise ValueError(f"certificate missing field {name!r}")
        text = fields[name].strip()
        if not text:
            return ()
        return tuple(parse_word(ambient, part) for part in text.split(","))

    def word_field(name: str) -> Word:
        if name not in fields:
            raise ValueError(f"certificate missing field {name!r}")
        return parse_word(ambient, fields[name])

    if kind == "amalgam":
        return AmalgamCertificate(ambient, words_field("b1"), words_field("b2"), word_field("c"))
    if kind == "hnn":
        return HnnCertificate(ambient, words_field("base"), word_field("u"), word_field("v"))
    raise ValueError(f"unknown certificate kind {kind!r}")


# ---------------------------------------------------------------------------
# The rank-(k+4) splitting and its verification pipeline.


@dataclass(frozen=True)
class CounterexampleSetup:
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
    solution of the equation uses them, so the solution sweep skips them
    (see ``_solution_set_bulk``).
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


def _equation_rows(h_rows: np.ndarray, a_code: int, b_code: int) -> np.ndarray:
    """Rows a h b h a h^-1 b h^-1 for a block of candidate rows h."""
    n, length = h_rows.shape
    out = np.empty((n, 4 * length + 4), dtype=np.int8)
    inv = -h_rows[:, ::-1]
    out[:, 0] = a_code
    out[:, 1 : 1 + length] = h_rows
    out[:, 1 + length] = b_code
    out[:, 2 + length : 2 + 2 * length] = h_rows
    out[:, 2 + 2 * length] = a_code
    out[:, 3 + 2 * length : 3 + 3 * length] = inv
    out[:, 3 + 3 * length] = b_code
    out[:, 4 + 3 * length :] = inv
    return out


def _rotation_set(core: tuple[int, ...]) -> set[tuple[int, ...]]:
    return {core[k:] + core[:k] for k in range(max(len(core), 1))}


def _solution_set_bulk(alphabet: Alphabet, v: Word, max_len: int) -> list[Word]:
    """Every reduced h, |h| <= max_len, with E(h) = a h b h a h^-1 b h^-1
    conjugate to v, in enumeration order.

    Every solution lies in <C>, C being {a, b} and the generators of v,
    so the sweep runs over C only.  Split F = <C> * B, with B generated
    by the other generators.  A reduced h outside <C> is g0 M gm with
    g0, gm in <C> and M reduced, beginning and ending with B-letters, and
    E(h) is cyclically M J1 M J2 M^-1 J3 M^-1 J4 with J1 = gm b g0,
    J2 = gm a gm^-1, J3 = g0^-1 b gm^-1 and J4 = g0^-1 a g0.  J2 and J4
    are never 1, and J1 = 1 gives J3 = gm b^2 gm^-1 (symmetrically for
    J3 = 1), so J1 and J3 are never both 1.  If one is, M M or M^-1 M^-1
    merges but keeps M's end letters: M = p c p^-1 with c cyclically
    reduced gives M^2 = p c^2 p^-1.  So E(h) is cyclically reduced in the
    free product and has a B-syllable, while v lies in the factor <C>;
    conjugacy in a free product is cyclic permutation of cyclically
    reduced syllable sequences (Lyndon & Schupp IV.1), so E(h) is not
    conjugate to v.

    The sweep is halved: E(h^-1) is E(h) read from its second a, so h
    solves iff h^-1 does, and a nonempty reduced h never equals h^-1; it
    keeps h before h^-1 in canonical order (letter key 2|x| + (x < 0),
    first differing column) and adds h^-1 to each hit.
    """
    rank = alphabet.rank
    if rank > _bulk.MAX_RANK:
        raise ValueError(f"rank {rank} exceeds {_bulk.MAX_RANK}, the most int8 letter codes hold")
    a_code, b_code = alphabet.letter("a"), alphabet.letter("b")
    core = cyclically_reduce(v)[0].letters
    rotations = _rotation_set(core)
    gens = sorted({a_code, b_code} | {abs(x) for x in v.letters})
    codes = np.array([0] + gens, dtype=np.int8)
    hits: list[tuple[int, ...]] = []
    chunk_rows = 1 << 15
    for length in range(0, max_len + 1):
        block = _bulk.words_of_length(len(gens), length)
        for lo in range(0, block.shape[0], chunk_rows):
            h_rows = block[lo : lo + chunk_rows]
            h_rows = np.sign(h_rows) * codes[np.abs(h_rows)]
            if length:
                key = 2 * np.abs(h_rows.astype(np.int16)) + (h_rows < 0)
                diff = key - (key + np.sign(h_rows))[:, ::-1]  # key(x^-1) = key(x) + sign(x)
                h_rows = h_rows[diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)] < 0]
            reduced = _bulk.bulk_reduce(_equation_rows(h_rows, a_code, b_code))
            start, end = _bulk.cyclic_bounds(reduced)
            for i in np.nonzero((end - start) == len(core))[0]:
                if tuple(int(x) for x in reduced[i, start[i] : end[i]]) in rotations:
                    h = tuple(int(x) for x in h_rows[i])
                    hits += [h, tuple(-x for x in reversed(h))] if h else [h]
    hits.sort(key=lambda h: (len(h), [2 * abs(x) + (x < 0) for x in h]))
    return [Word(alphabet, h, _reduced=True) for h in hits]


def counterexample_solution_set(
    a0_size: int = 0,
    max_len: int = 6,
    v_override: Optional[Word] = None,
) -> list[Word]:
    """All reduced h with |h| <= max_len whose equation word is conjugate to v.

    The equation word is a h b h a h^-1 b h^-1; candidates are returned
    in enumeration order (length, then canonical letter order).  Only
    a, b and the letters of v are swept, exactly: no solution uses any
    other generator (see ``_solution_set_bulk``).  The sweep is bounded
    in |h|, not a proof: the expected outcome {y, y^-1} must be stable
    as max_len grows.  Its reference is the sequential Python sweep in
    ``tests/closure_oracle.py``, which the tests require it to match.
    """
    setup = build_counterexample(a0_size, v_override)
    return _solution_set_bulk(setup.h_alphabet, setup.v, max_len)


def dcl_separation_check(
    g_base: Endomorphism,
    a_names: tuple[str, ...],
    max_len: int,
) -> tuple[bool, Optional[Word]]:
    """Confirm g fixes no reduced word containing a generator outside a_names.

    Returns (ok, first fixed witness or None), the witness first in
    enumeration order.  When g sends every generator to a single letter
    the answer is exact at every length: such a map fixes a reduced
    word iff it fixes each of its letters, so a fixed word outside
    <a_names> exists iff g fixes one of the other generators, and the
    first such generator is the first witness.  Any other map is scanned word by word up to max_len.
    """
    alphabet = g_base.domain
    if not isinstance(alphabet, Alphabet):
        raise ValueError("separation check runs over the free base group")
    marked = frozenset(
        i + 1 for i, name in enumerate(alphabet.generators) if name not in a_names
    )
    if not marked:
        return True, None
    if g_base.is_letter_map():
        for i in sorted(marked):
            x = Word(alphabet, (i,), _reduced=True)
            if g_base.apply(x) == x:
                return False, x
        return True, None
    for lets in iter_reduced_letter_tuples(alphabet.rank, max_len, min_len=1):
        if not any(abs(l) in marked for l in lets):
            continue
        w = Word(alphabet, lets, _reduced=True)
        if g_base.apply(w) == w:
            return False, w
    return True, None


@dataclass(frozen=True)
class CounterexampleReport(Report):
    a0_size: int
    rank: int
    l_solution: int
    l_separation: int
    # Solutions found by the bounded sweep; empty when the pipeline
    # stopped before reaching it.
    solutions: tuple[Word, ...] = ()


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
    stop_on_failure: bool = False,
) -> CounterexampleReport:
    """Run the full check list, in order, against the splitting.

    With ``stop_on_failure`` the report ends at the first failed check
    (used by the perturbation suite, where one failure already detects
    the perturbation).
    """
    if l_solution < 1 or l_separation < 1:
        raise ValueError("bounds must be at least 1")
    setup = build_counterexample(a0_size, v_override)
    checks: list[Check] = []
    solutions: tuple[Word, ...] = ()

    def push(check: Check) -> bool:
        checks.append(check)
        return check.passed or not stop_on_failure

    def report() -> CounterexampleReport:
        return CounterexampleReport(
            checks=tuple(checks),
            a0_size=a0_size,
            rank=a0_size + 4,
            l_solution=l_solution,
            l_separation=l_separation,
            solutions=solutions,
        )

    # (a) the splitting hypotheses: u, v root-free and non-conjugate.
    validation = validate_presentation(setup.pres)
    failing = ", ".join(c.name for c in validation.checks if not c.passed)
    if not push(
        Check(
            "presentation_valid",
            validation.ok,
            "u, v root-free and non-conjugate" if validation.ok else f"failed: {failing}",
        )
    ):
        return report()

    # (b) no base solution: the equation word never abelianizes to u.
    ab_v, ab_u = abelianize(setup.v), abelianize(setup.u)
    if not push(
        Check(
            "abelianization_obstruction_ok",
            ab_v != ab_u,
            f"ab(v) = {ab_v} != ab(u) = {ab_u}" if ab_v != ab_u else f"ab(v) = ab(u) = {ab_u}",
        )
    ):
        return report()

    # (c) g preserves the relation; certified automorphism via explicit inverse.
    hom = setup.g.is_homomorphism
    if not push(
        Check(
            "g_is_homomorphism",
            hom,
            "g(t)^-1 u g(t) = g(v) in the extension",
        )
    ):
        return report()
    auto = setup.g_inv.is_homomorphism and verify_automorphism_pair(setup.g, setup.g_inv)
    if not push(
        Check(
            "g_is_automorphism",
            auto,
            f"explicit inverse sends t to t {format_word(setup.g_base.apply(setup.d))}",
        )
    ):
        return report()

    # (d) the conjugation witness for g(v).
    gv = setup.g_base.apply(setup.v)
    conj_ok = gv == setup.d * setup.v * ~setup.d
    if not push(
        Check(
            "gv_conjugate_to_v",
            conj_ok,
            f"g(v) = d v d^-1 with d = {format_word(setup.d)}",
        )
    ):
        return report()

    # (e) the bounded solution set of the defining equation.
    solutions = tuple(_solution_set_bulk(setup.h_alphabet, setup.v, l_solution))
    expected = (setup.y, ~setup.y)
    sol_text = "{" + ", ".join(format_word(s) for s in solutions) + "}"
    if not push(
        Check(
            "solution_set",
            solutions == expected,
            f"solutions up to length {l_solution}: {sol_text}",
        )
    ):
        return report()

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
    push(Check("dcl_separation_ok", ok, detail))
    return report()


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
