import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freegroups import _bulk
from freegroups.closure import (
    AmalgamCertificate,
    HnnCertificate,
    build_counterexample,
    compressed_step_check,
    counterexample_solution_set,
    dcl_separation_check,
    parse_certificate,
    verify_counterexample,
)
from freegroups.endos import Endomorphism, fixed_words
from freegroups.splittings import hnn_equal
from freegroups.words import (
    Alphabet,
    Word,
    centralizer,
    commutator,
    cyclically_reduce,
    identity,
    iter_reduced_words,
    parse_word,
)

import closure_oracle
from conftest import random_reduced, reduced_words, w


def test_abelian_closure_examples(f2):
    assert centralizer(w(f2, "x^2")) == w(f2, "x")
    assert centralizer(w(f2, "x")) == w(f2, "x")
    assert centralizer(w(f2, "x y") ** 3) == w(f2, "x y")
    with pytest.raises(ValueError):
        centralizer(identity(f2))


def test_abelian_closure_idempotent(f2):
    rng = random.Random(5)
    for _ in range(60):
        word_ = random_reduced(rng, f2, 8, min_len=1)
        once = centralizer(word_)
        assert centralizer(once) == once


def test_abelian_closure_commuting_sweep(f2):
    from freegroups.words import iter_reduced_words, power_of

    word_ = w(f2, "x y") ** 3
    closure_gen = centralizer(word_)
    for z in iter_reduced_words(f2, 6):
        if commutator(z, word_) == identity(f2):
            assert power_of(z, closure_gen) is not None


def test_compressed_amalgam_pass(f2):
    c = commutator(w(f2, "x"), w(f2, "y"))
    cert = AmalgamCertificate(f2, (w(f2, "x"), w(f2, "y")), (c,), c)
    report = compressed_step_check(cert)
    assert report.ok
    prim = report.check("edge_primitive_in_a_factor")
    assert prim.passed
    assert "b1 coordinates c = b1 b2 b1^-1 b2^-1 (not primitive)" in prim.detail
    assert "b2 coordinates c = b1^-1 (primitive)" in prim.detail
    assert "rank_bound" not in [c.name for c in report.checks]


def test_compressed_amalgam_fail(f2):
    c = w(f2, "x y x y")
    cert = AmalgamCertificate(f2, (w(f2, "x"), w(f2, "y")), (w(f2, "x y"),), c)
    report = compressed_step_check(cert)
    assert not report.ok
    assert not report.check("edge_primitive_in_a_factor").passed
    assert "rank_bound" not in [c.name for c in report.checks]


def test_compressed_hnn_thm_certificate(h_rank4):
    base = tuple(parse_word(h_rank4, name) for name in h_rank4.generators)
    cert = HnnCertificate(
        h_rank4, base, w(h_rank4, "u"), w(h_rank4, "a y b y a y^-1 b y^-1")
    )
    report = compressed_step_check(cert)
    assert report.ok
    prim = report.check("edge_primitive_in_base")
    assert prim.passed
    assert "u = b3 (primitive)" in prim.detail or "(primitive)" in prim.detail


def test_compressed_edge_word_in_no_factor_fails(f2):
    report = compressed_step_check(AmalgamCertificate(f2, (w(f2, "x"),), (w(f2, "y"),), w(f2, "x y")))
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("c_in_b1", False, "not in b1"),
        ("c_in_b2", False, "not in b2"),
        ("edge_primitive_in_a_factor", False, ""),
    ]


def test_compressed_certificate_errors(f2):
    with pytest.raises(ValueError):
        compressed_step_check(
            AmalgamCertificate(f2, (w(f2, "x"), w(f2, "x^-1")), (w(f2, "y"),), w(f2, "x"))
        )


def test_parse_certificate(f2):
    text = "gens x y\nkind amalgam\nb1: x, y\nb2: x y x^-1 y^-1\nc: x y x^-1 y^-1\n"
    cert = parse_certificate(text)
    assert isinstance(cert, AmalgamCertificate)
    assert len(cert.b1) == 2 and len(cert.b2) == 1
    text2 = "gens a b u y\nkind hnn\nbase: a, b, u, y\nu: u\nv: a y b y a y^-1 b y^-1\n"
    cert2 = parse_certificate(text2)
    assert isinstance(cert2, HnnCertificate)
    with pytest.raises(ValueError):
        parse_certificate("kind hnn\n")


def test_solution_set_examples():
    sols = counterexample_solution_set(0, 1)
    assert [str(s) for s in sols] == ["y", "y^-1"]
    setup = build_counterexample(0)
    # Substituting h = y reproduces v on the nose.
    h = setup.y
    eq_word = (
        w(setup.h_alphabet, "a") * h * w(setup.h_alphabet, "b") * h
        * w(setup.h_alphabet, "a") * ~h * w(setup.h_alphabet, "b") * ~h
    )
    assert eq_word == setup.v


def test_solution_set_methods_agree():
    # The library's decider against the sequential reference sweep.
    for a0_size, max_len in ((0, 1), (0, 2), (0, 3), (1, 2), (0, 4), (1, 4), (2, 3)):
        setup = build_counterexample(a0_size)
        assert counterexample_solution_set(a0_size, max_len) == (
            closure_oracle.solution_set(setup.h_alphabet, setup.v, max_len)
        )
    # Perturbed v, and v set to the cyclic core of E(h0): solution sets
    # other than {y, y^-1}, so the order of the decider's output is
    # compared too.  For h0 in <a, b> (1, a a b and the commutator) the
    # swept case is taken: E(1) = (a b)^2 is solved by 1 and by powers of
    # a, and the commutator's core by two inverse pairs of one length,
    # which only the sort puts in order.
    setup = build_counterexample(0)
    alphabet = setup.h_alphabet
    a, b = parse_word(alphabet, "a"), parse_word(alphabet, "b")
    overrides = closure_oracle.v_perturbations(0)[::9][:5]
    for text in ("y u", "a y", "u y^-1 b", "a a b", "1", "a b a^-1 b^-1"):
        h = parse_word(alphabet, text)
        core = cyclically_reduce(a * h * b * h * a * ~h * b * ~h)[0]
        expected = closure_oracle.solution_set(alphabet, core, 4)
        assert {h, ~h} <= set(expected)
        assert len(expected) == {"1": 13, "a b a^-1 b^-1": 4}.get(text, 2)
        overrides.append(core)
    assert len(overrides) == 11
    for v in overrides:
        assert counterexample_solution_set(0, 4, v) == (
            closure_oracle.solution_set(alphabet, v, 4)
        )
    # Perturbations at a0 = 1, some of which put u or c1 into v and so
    # change its B-syllables.
    alphabet1 = build_counterexample(1).h_alphabet
    perturbed = closure_oracle.v_perturbations(1)[::9]
    assert {"u", "c1"} <= {alphabet1.letter_name(x) for v in perturbed for x in v.letters}
    for v in perturbed:
        assert counterexample_solution_set(1, 4, v) == (
            closure_oracle.solution_set(alphabet1, v, 4)
        )
    # Against the vectorized sweep: every perturbation, the default v at
    # length 8, and a v that uses every generator of rank 6.
    for a0_size, max_len in ((0, 5), (1, 4)):
        alphabet_k = build_counterexample(a0_size).h_alphabet
        for v in closure_oracle.v_perturbations(a0_size):
            assert counterexample_solution_set(a0_size, max_len, v) == (
                closure_oracle.solution_set_bulk(alphabet_k, v, max_len)
            )
    assert counterexample_solution_set(0, 8) == (
        closure_oracle.solution_set_bulk(alphabet, setup.v, 8)
    )
    alphabet2 = build_counterexample(2).h_alphabet
    v = parse_word(alphabet2, "c1 c2 u a y b y^-1")
    assert counterexample_solution_set(2, 5, v) == (
        closure_oracle.solution_set_bulk(alphabet2, v, 5)
    )


@st.composite
def v_overrides(draw):
    """(a0, v, max_len) at ranks 4-6: v has no letter of P = <a, b>, lies
    in P, mixes both, or is the cyclic core of E(h0) for h0 planted in one
    of the three shapes (``planted_solutions``), so that some draws have
    solutions other than y^+-1.  max_len keeps the sweep short."""
    kind = draw(st.sampled_from(("no P-letter", "all in P", "mixed", "planted")))
    a0_size, h0 = draw(planted_solutions()) if kind == "planted" else (draw(st.integers(0, 2)), None)
    max_len = 4 if a0_size == 0 else 3
    alphabet = build_counterexample(a0_size).h_alphabet
    p_gens = [alphabet.letter("a"), alphabet.letter("b")]
    a, b = (Word(alphabet, (g,)) for g in p_gens)
    everything = list(range(1, alphabet.rank + 1))
    signed = lambda gens: st.sampled_from(gens).flatmap(lambda g: st.sampled_from((g, -g)))
    if kind == "planted":
        assume(len(h0) <= max_len)
        v = cyclically_reduce(a * h0 * b * h0 * a * ~h0 * b * ~h0)[0]
    else:
        gens = {"no P-letter": [g for g in everything if g not in p_gens], "all in P": p_gens}.get(kind, everything)
        v = cyclically_reduce(Word(alphabet, draw(st.lists(signed(gens), min_size=1, max_size=10))))[0]
    in_p = [abs(x) in p_gens for x in v.letters]
    assume(v and (kind != "mixed" or 0 < sum(in_p) < len(in_p)))
    return a0_size, v, max_len


def _planted_core(a0_size, text):
    """(a0, the cyclic core of E(h), |h|) for h read from text."""
    alphabet = build_counterexample(a0_size).h_alphabet
    a, b, h = (parse_word(alphabet, t) for t in ("a", "b", text))
    return a0_size, cyclically_reduce(a * h * b * h * a * ~h * b * ~h)[0], len(h)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(v_overrides())
# Shape (B), J1 = 1, with g0 = b^-1 gm^-1; its inverse has shape (C).
@example(_planted_core(0, "b^-1 a^-1 y a"))
@example(_planted_core(1, "b^-1 c1^-1 u"))
def test_solution_set_matches_sequential_sweep(case):
    # The decider, with its pattern checks, against the sweep over every h.
    a0_size, v, max_len = case
    assert counterexample_solution_set(a0_size, max_len, v) == closure_oracle.solution_set(v.alphabet, v, max_len)


@st.composite
def padded_rows(draw):
    """Left-aligned zero-padded int8 rows, letter codes up to rank 127.

    Letters come from a few generators so that rows cancel; some rows
    are w w^-1, which reduce to empty, and some are all zero.
    """
    rank = draw(st.integers(1, _bulk.MAX_RANK))
    width = draw(st.integers(0, 40))
    gens = draw(st.lists(st.integers(1, rank), min_size=1, max_size=3))
    letter = st.sampled_from(gens).flatmap(lambda g: st.sampled_from((g, -g)))
    free = st.lists(letter, max_size=width)
    empty = st.lists(letter, max_size=width // 2).map(
        lambda w: w + [-x for x in reversed(w)]
    )
    rows = draw(st.lists(st.one_of(free, empty), max_size=12))
    arr = np.zeros((len(rows), width), dtype=np.int8)
    for i, row in enumerate(rows):
        arr[i, : len(row)] = row
    return arr


@settings(derandomize=True, max_examples=300, deadline=None)
@given(padded_rows())
@example(np.zeros((0, 7), dtype=np.int8))
@example(np.zeros((3, 0), dtype=np.int8))
@example(np.zeros((4, 9), dtype=np.int8))
@example(np.array([[1, -1, 0], [127, 2, -2], [-127, 127, 0]], dtype=np.int8))
def test_bulk_reduce_matches_oracle(arr):
    got = _bulk.bulk_reduce(arr)
    assert got.dtype == np.int8 and got.shape == arr.shape
    assert np.array_equal(got, closure_oracle.bulk_reduce(arr))


@st.composite
def reduced_rows(draw):
    """Reduced zero-padded int8 rows, letter codes up to rank 127: free
    rows, conjugates p c p^-1 that strip deep, and w w^-1, which reduce
    to empty rows."""
    rank = draw(st.integers(1, _bulk.MAX_RANK))
    gens = draw(st.lists(st.integers(1, rank), min_size=1, max_size=3))
    letter = st.sampled_from(gens).flatmap(lambda g: st.sampled_from((g, -g)))
    word = st.lists(letter, max_size=12)
    inverse = lambda w: [-x for x in reversed(w)]
    conjugate = st.tuples(word, word).map(lambda pc: pc[0] + pc[1] + inverse(pc[0]))
    empty = word.map(lambda w: w + inverse(w))
    rows = draw(st.lists(st.one_of(word, conjugate, empty), max_size=12))
    width = max(map(len, rows), default=0) + draw(st.integers(0, 3))
    arr = np.zeros((len(rows), width), dtype=np.int8)
    for i, row in enumerate(rows):
        arr[i, : len(row)] = row
    return _bulk.bulk_reduce(arr)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(reduced_rows())
@example(np.zeros((0, 5), dtype=np.int8))
@example(np.zeros((2, 0), dtype=np.int8))
@example(np.zeros((3, 1), dtype=np.int8))
@example(np.array([[1, 2, -1, 0], [127, 5, 3, -127], [4, 0, 0, 0]], dtype=np.int8))
def test_cyclic_bounds_matches_oracle(arr):
    start, end = _bulk.cyclic_bounds(arr)
    want_start, want_end = closure_oracle.cyclic_bounds(arr)
    assert np.array_equal(start, want_start) and np.array_equal(end, want_end)


@st.composite
def words_outside_letters_of_v(draw):
    """(v, h) at ranks 4-6: v is the default v or a drawn cyclically
    reduced word that leaves out some generator other than a and b, and
    h is a reduced word using a generator outside C = {a, b} + letters(v)."""
    setup = build_counterexample(draw(st.integers(0, 2)))
    alphabet, v = setup.h_alphabet, setup.v
    signed = lambda gens: st.sampled_from(gens).flatmap(lambda g: st.sampled_from((g, -g)))
    everything = list(range(1, alphabet.rank + 1))
    a, b = alphabet.letter("a"), alphabet.letter("b")
    if draw(st.booleans()):
        others = [g for g in everything if g not in (a, b)]
        gens = [a, b] + draw(st.lists(st.sampled_from(others), unique=True, max_size=len(others) - 1))
        v = cyclically_reduce(Word(alphabet, draw(st.lists(signed(gens), max_size=10))))[0]
    outside = [g for g in everything if g not in {a, b} | {abs(x) for x in v.letters}]
    letters = draw(st.lists(signed(everything), max_size=8))
    letters.insert(draw(st.integers(0, len(letters))), draw(signed(outside)))
    h = Word(alphabet, letters)
    assume(any(abs(x) in outside for x in h.letters))
    return v, h


def _planted(a0_size, text):
    setup = build_counterexample(a0_size)
    return setup.v, parse_word(setup.h_alphabet, text)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(words_outside_letters_of_v())
# h = g0 M gm with J1 = gm b g0 = 1 (g0 = b^-1 gm^-1), so M M merges in E(h).
@example(_planted(0, "b^-1 y^-1 a^-1 u a y"))
@example(_planted(2, "b^-1 c1 u^-1 c2"))
# J3 = g0^-1 b gm^-1 = 1 (g0 = b gm^-1), so M^-1 M^-1 merges.
@example(_planted(0, "b y^-1 u y u^-1 y"))
@example(_planted(2, "b c2 a c2"))
def test_solutions_lie_in_letters_of_a_b_v(v_h):
    # The free-product argument of _solution_set: the cyclic core of
    # E(h) keeps a letter outside C, so E(h) is not conjugate to v.
    v, h = v_h
    alphabet = v.alphabet
    a, b = parse_word(alphabet, "a"), parse_word(alphabet, "b")
    C = {alphabet.letter("a"), alphabet.letter("b")} | {abs(x) for x in v.letters}
    core = cyclically_reduce(a * h * b * h * a * ~h * b * ~h)[0]
    assert any(abs(x) not in C for x in core.letters)


@st.composite
def planted_solutions(draw):
    """(a0, h0): h0 = g0 M gm with g0, gm over a, b and M beginning and
    ending with a letter outside a, b, in the three shapes of
    ``closure._solution_set``: (A) g0 drawn freely, (B) J1 = gm b g0 = 1,
    (C) J3 = g0^-1 b gm^-1 = 1.  |h0| <= 5 keeps the oracle sweep short."""
    a0_size = draw(st.integers(0, 2))
    alphabet = build_counterexample(a0_size).h_alphabet
    a, b = alphabet.letter("a"), alphabet.letter("b")
    signed = lambda gens: st.sampled_from(gens).flatmap(lambda g: st.sampled_from((g, -g)))
    in_p = signed([a, b])
    outside = signed([g for g in range(1, alphabet.rank + 1) if g not in (a, b)])
    anything = signed(list(range(1, alphabet.rank + 1)))
    gm = Word(alphabet, draw(st.lists(in_p, max_size=2)))
    middle = draw(st.lists(anything, max_size=2))
    m = Word(alphabet, [draw(outside)] + middle + [draw(outside)] * draw(st.integers(0, 1)))
    assume(m and all(abs(x) not in (a, b) for x in (m.letters[0], m.letters[-1])))
    shape = draw(st.sampled_from("ABC"))
    if shape == "A":
        g0 = Word(alphabet, draw(st.lists(in_p, max_size=2)))
    else:
        g0 = Word(alphabet, (-b if shape == "B" else b,)) * ~gm
    h0 = g0 * m * gm
    assume(len(h0) <= 5)
    return a0_size, h0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(planted_solutions())
def test_planted_solutions_are_found(a0_h0):
    a0_size, h0 = a0_h0
    alphabet = h0.alphabet
    a, b = parse_word(alphabet, "a"), parse_word(alphabet, "b")
    v = cyclically_reduce(a * h0 * b * h0 * a * ~h0 * b * ~h0)[0]
    found = counterexample_solution_set(a0_size, len(h0), v)
    assert h0 in found and ~h0 in found
    assert found == closure_oracle.solution_set_bulk(alphabet, v, len(h0))


def test_solution_set_growth_and_membership():
    setup = build_counterexample(0)
    previous: set = set()
    for max_len in (1, 2, 3, 4, 40):
        sols = set(counterexample_solution_set(0, max_len))
        assert previous <= sols
        assert setup.y in sols and ~setup.y in sols
        previous = sols


def test_solution_set_with_spectators():
    sols = counterexample_solution_set(2, 2)
    assert [str(s) for s in sols] == ["y", "y^-1"]


def test_solution_set_six_generators_length_seven():
    # Rank 6: no solution uses u, c1 or c2, so only a, b and y are swept.
    sols = counterexample_solution_set(2, 7)
    assert [str(s) for s in sols] == ["y", "y^-1"]


def test_solution_set_stable_at_length_eight():
    # The exact decider's set, cut at length 8, is still {y, y^-1}.
    sols = counterexample_solution_set(0, 8)
    assert [str(s) for s in sols] == ["y", "y^-1"]


def test_dcl_separation(f2):
    setup = build_counterexample(0)
    ok, witness = dcl_separation_check(setup.g_base, setup.a_names, 4)
    assert ok and witness is None

    ident = Endomorphism.identity(setup.h_alphabet)
    ok2, witness2 = dcl_separation_check(ident, setup.a_names, 4)
    assert not ok2 and witness2 == setup.y

    # Alphabet subset covering everything leaves no candidates.
    ok3, witness3 = dcl_separation_check(ident, setup.h_alphabet.generators, 4)
    assert ok3 and witness3 is None


def test_dcl_separation_generic_path():
    setup = build_counterexample(0)
    alphabet = setup.h_alphabet
    # A map that is not a letter map (u doubles) that still fixes y.
    images = {name: parse_word(alphabet, name) for name in alphabet.generators}
    images["u"] = parse_word(alphabet, "u^2")
    f = Endomorphism(alphabet, images)
    assert not f.is_letter_map()
    ok, witness = dcl_separation_check(f, setup.a_names, 3)
    assert not ok
    assert witness == setup.y


@st.composite
def maps_with_names(draw):
    """(g, a_names, max_len) at ranks 4-6: g sends each generator to
    itself, to a drawn letter, or (about one time in four) to a drawn
    reduced word of length 0-3, so letter maps and other maps both occur."""
    alphabet = Alphabet(tuple(f"x{i + 1}" for i in range(draw(st.integers(4, 6)))))
    images = {}
    for i, name in enumerate(alphabet.generators):
        kind = draw(st.sampled_from(("self", "letter", "letter", "word")))
        if kind == "word":
            images[name] = draw(reduced_words(alphabet, 3))
        else:
            letter = i + 1 if kind == "self" else draw(st.sampled_from(alphabet.letters()))
            images[name] = Word(alphabet, (letter,))
    a_names = tuple(draw(st.lists(st.sampled_from(alphabet.generators), unique=True)))
    return Endomorphism(alphabet, images), a_names, draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(maps_with_names())
def test_dcl_separation_matches_scan(case):
    g, a_names, max_len = case
    assert dcl_separation_check(g, a_names, max_len) == closure_oracle.dcl_scan(g, a_names, max_len)


def _scanned(f):
    """The same map, forced onto the word-by-word scan paths."""
    scanned = Endomorphism(f.domain, f.images)
    scanned.is_letter_map = lambda: False
    return scanned


# Letter maps on H = <a, b, u, y>, as images that differ from the identity.
LETTER_MAPS = {
    "identity": {},
    "g_base": {"y": "y^-1"},
    "swap u y": {"u": "y", "y": "u"},
    "a -> b": {"a": "b"},
}


@pytest.mark.parametrize("name", LETTER_MAPS)
def test_letter_map_paths_match_scan(name):
    setup = build_counterexample(0)
    alphabet = setup.h_alphabet
    moves = LETTER_MAPS[name]
    f = Endomorphism(
        alphabet, {x: parse_word(alphabet, moves.get(x, x)) for x in alphabet.generators}
    )
    assert f.is_letter_map()
    assert (f == setup.g_base) == (name == "g_base")
    scanned = _scanned(f)
    # A, a set with u and y both marked, and every generator (none marked).
    for a_names in (setup.a_names, ("a", "b"), alphabet.generators):
        for max_len in range(1, 5):
            assert dcl_separation_check(f, a_names, max_len) == (
                dcl_separation_check(scanned, a_names, max_len)
            )
    # The lemma itself: a word is fixed iff each of its letters is.
    fixed_letters = set()
    for letter in alphabet.letters():
        x = Word(alphabet, (letter,))
        if f.apply(x) == x:
            fixed_letters.add(letter)
    for word_ in iter_reduced_words(alphabet, 4):
        assert (f.apply(word_) == word_) == (set(word_.letters) <= fixed_letters)
    for max_len in range(0, 5):
        exact, oracle = fixed_words(f, max_len), fixed_words(scanned, max_len)
        assert exact == oracle and exact.to_text() == oracle.to_text()


def test_g_fixes_no_bounded_word_with_stable_letter():
    # Fix(g) lies in Fix(g^2) = H, since g^2 is a twist of t by a
    # root-free word; the bounded sweep cross-checks that lift to F.
    setup = build_counterexample(0)
    pres = setup.pres
    t = pres.t_letter
    with_t = [
        word_
        for word_ in iter_reduced_words(pres.extended, 4)
        if t in word_.letters or -t in word_.letters
    ]
    assert len(with_t) == 5000
    assert not any(hnn_equal(pres, setup.g.apply(word_), word_) for word_ in with_t)


CHECK_ORDER = (
    "presentation_valid",
    "abelianization_obstruction_ok",
    "g_is_homomorphism",
    "g_is_automorphism",
    "gv_conjugate_to_v",
    "solution_set",
    "dcl_separation_ok",
)


def test_verify_counterexample_passes():
    report = verify_counterexample(0, 4)
    assert report.ok
    assert build_counterexample(0).h_alphabet.rank == 4  # the rank the CLI header prints
    assert tuple(c.name for c in report.checks) == CHECK_ORDER
    assert [str(s) for s in report.solutions] == ["y", "y^-1"]
    # The solution set is closed under inverting the witness letter.
    assert {~s for s in report.solutions} == set(report.solutions)


def test_verify_counterexample_spectators():
    report = verify_counterexample(2, 3)
    assert report.ok
    assert build_counterexample(2).h_alphabet.rank == 6


def test_verify_counterexample_negative_control():
    # The perturbed v breaks checks 3-6; every check still runs and reports.
    setup = build_counterexample(0)
    perturbed = parse_word(setup.h_alphabet, "a y b y a y^-1 b y")
    report = verify_counterexample(0, 4, v_override=perturbed)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        ("presentation_valid", True, "u, v root-free and non-conjugate"),
        (
            "abelianization_obstruction_ok",
            True,
            "ab(v) = (2, 2, 0, 2) != ab(u) = (0, 0, 1, 0)",
        ),
        ("g_is_homomorphism", False, "g(t)^-1 u g(t) = g(v) in the extension"),
        ("g_is_automorphism", False, "explicit inverse sends t to t a y b y"),
        ("gv_conjugate_to_v", False, "g(v) = d v d^-1 with d = a y^-1 b y^-1"),
        ("solution_set", False, "solutions up to length 4: {}"),
        (
            "dcl_separation_ok",
            True,
            "no fixed word at any length "
            "(exact: g permutes letters and fixes no generator outside A)",
        ),
    ]
    assert not report.ok and report.solutions == ()


def test_verify_counterexample_bad_bounds():
    with pytest.raises(ValueError):
        verify_counterexample(0, 0)


def test_verify_counterexample_takes_no_separation_bound():
    # Check 7 decides the letter map g at length 1, so no third bound is
    # taken, and v_override is keyword-only.
    with pytest.raises(TypeError):
        verify_counterexample(0, 6, 8)


def test_v_perturbations_are_valid():
    perts = closure_oracle.v_perturbations(0)
    assert len(perts) >= 40
    setup = build_counterexample(0)
    for word_ in perts:
        assert word_ != setup.v
        assert len(word_) == 8
        lets = word_.letters
        assert lets[0] != -lets[-1]
    assert len(set(perts)) == len(perts)
