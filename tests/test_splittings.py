import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegroups.splittings import (
    AmalgamPresentation,
    BrittonForm,
    HnnPresentation,
    amalgam_equal,
    amalgam_reduce,
    britton_reduce,
    classify_base_conjugacy,
    dehn_twist,
    hnn_equal,
    hnn_length,
    parse_presentation,
    validate_presentation,
)
from freegroups.words import Alphabet, Word, free_reduce, identity, parse_word, power_of

import splittings_oracle as oracle
from conftest import random_reduced, reduced_words, w


@pytest.fixture
def edge_pres(h_rank4):
    return HnnPresentation(
        h_rank4,
        "t",
        w(h_rank4, "u"),
        w(h_rank4, "a y b y a y^-1 b y^-1"),
    )


@pytest.fixture
def amalgam():
    f1 = Alphabet("p q")
    f2 = Alphabet("r s")
    return AmalgamPresentation(f1, f2, parse_word(f1, "p"), parse_word(f2, "r"))


def test_presentation_construction(h_rank4):
    with pytest.raises(ValueError):
        HnnPresentation(h_rank4, "y", w(h_rank4, "u"), w(h_rank4, "a"))
    with pytest.raises(ValueError):
        HnnPresentation(h_rank4, "t", identity(h_rank4), w(h_rank4, "a"))


def test_validate_examples(edge_pres, f2, h_rank4):
    report = validate_presentation(edge_pres)
    assert report.ok
    assert [c.name for c in report.checks] == [
        "u_root_free",
        "v_root_free",
        "u_v_not_conjugate",
    ]

    bad1 = HnnPresentation(f2, "t", w(f2, "x^2"), w(f2, "y"))
    report1 = validate_presentation(bad1)
    assert not report1.ok
    assert not report1.check("u_root_free").passed
    assert report1.check("v_root_free").passed

    f3 = Alphabet("x y z")
    bad2 = HnnPresentation(f3, "t", parse_word(f3, "x"), parse_word(f3, "z x z^-1"))
    report2 = validate_presentation(bad2)
    assert not report2.check("u_v_not_conjugate").passed


def test_britton_examples(edge_pres):
    pres = edge_pres
    v_lift = pres.lift(pres.v)

    form = britton_reduce(pres, pres.word("t^-1 u t"))
    assert hnn_length(form) == 0
    assert form.to_word(pres) == v_lift

    form2 = britton_reduce(pres, pres.word("t^-1 u^2 t"))
    assert hnn_length(form2) == 0
    assert form2.to_word(pres) == pres.lift(pres.v**2)

    form3 = britton_reduce(pres, pres.word("t^-1 a t"))
    assert hnn_length(form3) == 2
    assert form3.to_word(pres) == pres.word("t^-1 a t")

    assert hnn_length(britton_reduce(pres, pres.word("t"))) == 1
    assert hnn_length(britton_reduce(pres, pres.word("t a t^-1 b t"))) == 3


def test_britton_reverse_pinch(edge_pres):
    pres = edge_pres
    form = britton_reduce(pres, pres.word("t a y b y a y^-1 b y^-1 t^-1"))
    assert hnn_length(form) == 0
    assert form.to_word(pres) == pres.word("u")


def _britton_rescan(pres, w):
    """The rescanning definition: rewrite the leftmost pinch, then rescan from the left."""
    t = pres.t_letter
    syllables, signs = [[]], []
    for letter in w.letters:
        if abs(letter) == t:
            signs.append(1 if letter > 0 else -1)
            syllables.append([])
        else:
            syllables[-1].append(letter)
    words = [Word(pres.base, ls) for ls in syllables]
    while True:
        for i in range(len(signs) - 1):
            if (signs[i], signs[i + 1]) == (-1, 1):
                edge, image = pres.u, pres.v
            elif (signs[i], signs[i + 1]) == (1, -1):
                edge, image = pres.v, pres.u
            else:
                continue
            p = power_of(words[i + 1], edge)
            if p is not None:
                words[i : i + 3] = [words[i] * image**p * words[i + 2]]
                del signs[i : i + 2]
                break
        else:
            return BrittonForm(words[0], tuple(zip(signs, words[1:])))


def _hnn(gens, u, v):
    base = Alphabet(gens)
    return HnnPresentation(base, "t", parse_word(base, u), parse_word(base, v))


PINCH_PRESENTATIONS = [
    _hnn("a b u y", "u", "a y b y a y^-1 b y^-1"),
    _hnn("a b", "a", "b a b^-1"),
    _hnn("a b", "a^2", "b"),
    # An edge word with both a conjugator and an exponent above 1.
    _hnn("a b", "a b^2 a^-1", "b a b^-1"),
]


@st.composite
def _edge_power(draw, pres, side, depth):
    """Letters of a word equal to a power of u (side 0) or v (side 1) in the HNN group.

    Powers of the edge word interleaved with pinches whose insides are
    again such words, so reducing one pinch can complete another.
    """
    t = pres.t_letter
    edge = (pres.u, pres.v)[side]
    letters: list[int] = []
    for _ in range(draw(st.integers(1, 3))):
        if depth and draw(st.booleans()):
            inner = draw(_edge_power(pres, 1 - side, depth - 1))
            letters += [t] + inner + [-t] if side == 0 else [-t] + inner + [t]
        else:
            letters += (edge ** draw(st.sampled_from((-2, -1, 1, 2)))).letters
    return letters


@st.composite
def hnn_words(draw):
    """A presentation and a word of base syllables, stray stable letters and nested pinches."""
    pres = draw(st.sampled_from(PINCH_PRESENTATIONS))
    t = pres.t_letter
    letters: list[int] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            letters += draw(reduced_words(pres.base, 3)).letters
        elif kind == 1:
            letters.append(draw(st.sampled_from((t, -t))))
        elif kind == 2:
            letters += [-t] + draw(_edge_power(pres, 0, 2)) + [t]
        else:
            letters += [t] + draw(_edge_power(pres, 1, 2)) + [-t]
    return pres, Word(pres.extended, letters)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hnn_words())
def test_britton_matches_rescan(case):
    pres, word_ = case
    form = britton_reduce(pres, word_)
    assert form == _britton_rescan(pres, word_)
    letters = form.to_word(pres).letters
    assert free_reduce(letters) == letters


def test_hnn_equal_examples(edge_pres):
    pres = edge_pres
    assert hnn_equal(pres, pres.word("t^-1 u t"), pres.lift(pres.v))
    assert not hnn_equal(pres, pres.word("t"), pres.word("t u"))
    # The explicit automorphism: g(t)^-1 u g(t) = g(v).
    gt = pres.word("t y b^-1 y a^-1")
    gv = pres.word("a y^-1 b y^-1 a y b y")
    assert hnn_equal(pres, ~gt * pres.word("u") * gt, gv)


def test_britton_lemma_trivial_form(edge_pres):
    pres = edge_pres
    rng = random.Random(61)
    for _ in range(60):
        word_ = random_reduced(rng, pres.extended, 10)
        assert hnn_equal(pres, word_, identity(pres.extended)) == britton_reduce(
            pres, word_
        ).is_trivial()
    # On t-free words equality is free equality.
    for _ in range(40):
        a = pres.lift(random_reduced(rng, pres.base, 8))
        b = pres.lift(random_reduced(rng, pres.base, 8))
        assert hnn_equal(pres, a, b) == (a == b)


def test_hnn_length_invariance_under_planted_pinches(edge_pres):
    pres = edge_pres
    rng = random.Random(67)
    for _ in range(16):
        word_ = random_reduced(rng, pres.extended, 8)
        base_length = hnn_length(britton_reduce(pres, word_))
        cut = rng.randint(0, len(word_.letters))
        p = rng.randint(-2, 2)
        if rng.random() < 0.5:
            filler = pres.word("t^-1") * pres.lift(pres.u**p) * pres.word("t") * pres.lift(
                pres.v**-p
            )
        else:
            filler = pres.word("t") * pres.lift(pres.v**p) * pres.word("t^-1") * pres.lift(
                pres.u**-p
            )
        from freegroups.words import Word

        rebuilt = (
            Word(pres.extended, word_.letters[:cut], _reduced=True)
            * filler
            * Word(pres.extended, word_.letters[cut:], _reduced=True)
        )
        assert hnn_equal(pres, rebuilt, word_)
        assert hnn_length(britton_reduce(pres, rebuilt)) == base_length


def test_hnn_equal_congruence(edge_pres):
    pres = edge_pres
    rng = random.Random(71)
    for _ in range(20):
        w1 = random_reduced(rng, pres.extended, 6)
        pinch = pres.word("t^-1") * pres.lift(pres.u) * pres.word("t") * pres.lift(~pres.v)
        w2 = w1 * pinch
        assert hnn_equal(pres, w1, w2)
        g = random_reduced(rng, pres.extended, 4)
        h = random_reduced(rng, pres.extended, 4)
        assert hnn_equal(pres, g * w1 * h, g * w2 * h)


def test_classify_examples(edge_pres):
    pres = edge_pres
    result = classify_base_conjugacy(pres, pres.u, pres.v)
    assert result.solvable and result.case == 1 and result.p == 1
    assert result.gamma == identity(pres.base)
    assert result.delta == identity(pres.base)
    assert result.s == pres.word("t")

    result2 = classify_base_conjugacy(pres, pres.u**2, pres.v**2)
    assert result2.solvable and result2.case == 1 and result2.p == 2

    result3 = classify_base_conjugacy(pres, pres.base_word("a"), pres.base_word("b"))
    assert not result3.solvable

    # Case 2: conjugating in the reverse direction.
    result4 = classify_base_conjugacy(pres, pres.v, pres.u)
    assert result4.solvable and result4.case == 2 and result4.p == 1


def test_classify_witness_property(edge_pres):
    pres = edge_pres
    rng = random.Random(73)
    for _ in range(12):
        gamma = random_reduced(rng, pres.base, 3)
        delta = random_reduced(rng, pres.base, 3)
        p = rng.choice([-2, -1, 1, 2])
        alpha = ~gamma * pres.u**p * gamma
        beta = ~delta * pres.v**p * delta
        result = classify_base_conjugacy(pres, alpha, beta)
        assert result.solvable
        s = result.s
        assert hnn_equal(pres, ~s * pres.lift(alpha) * s, pres.lift(beta))


# Presentations that meet the splitting hypotheses, with |core u| equal
# to, below and above |core v|, and an edge word with a conjugator.
CLASSIFY_PRESENTATIONS = [
    _hnn("a b u y", "u", "a y b y a y^-1 b y^-1"),
    _hnn("a b", "a", "b"),
    _hnn("a b", "a b", "a b^-1"),
    _hnn("a b c", "a^2 b", "c"),
    _hnn("a b c", "a b a^-1", "c b c a"),
]


@st.composite
def classify_cases(draw):
    """A presentation, alpha conjugate to an edge power or random, and beta
    conjugate to the other edge word's power (the same or another exponent)
    or random."""
    pres = draw(st.sampled_from(CLASSIFY_PRESENTATIONS))
    first, second = draw(st.sampled_from(((pres.u, pres.v), (pres.v, pres.u))))
    exponents = st.sampled_from((-3, -2, -1, 1, 2, 3))
    p = draw(exponents)

    def word(edge, k):
        if draw(st.integers(0, 3)) == 0:
            return draw(reduced_words(pres.base, 6).filter(bool))
        g = draw(reduced_words(pres.base, 3))
        return ~g * edge**k * g

    return pres, word(first, p), word(second, p if draw(st.booleans()) else draw(exponents))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(classify_cases())
def test_classify_matches_exponent_loop(case):
    pres, alpha, beta = case
    assert classify_base_conjugacy(pres, alpha, beta) == oracle.classify_loop(pres, alpha, beta)


def test_classify_preconditions(edge_pres, f2):
    with pytest.raises(ValueError):
        classify_base_conjugacy(edge_pres, identity(edge_pres.base), edge_pres.v)
    bad = HnnPresentation(f2, "t", w(f2, "x^2"), w(f2, "y"))
    with pytest.raises(ValueError):
        classify_base_conjugacy(bad, w(f2, "x"), w(f2, "y"))


def test_amalgam_examples(amalgam):
    am = amalgam
    assert amalgam_reduce(am, am.word("p r^-1")).is_trivial()

    form = amalgam_reduce(am, am.word("p^2 s"))
    assert [(side, str(word_)) for side, word_ in form.syllables] == [(2, "r^2 s")]

    form2 = amalgam_reduce(am, am.word("q s"))
    assert [(side, str(word_)) for side, word_ in form2.syllables] == [(1, "q"), (2, "s")]


def test_amalgam_merges_neighbours_of_a_dropped_syllable(amalgam):
    # s p r^-1 s^-1 cancels to the identity once p becomes r; q and the
    # last p are then neighbours in factor 1 and must merge.
    form = amalgam_reduce(amalgam, amalgam.word("q s p r^-1 s^-1 p"))
    assert [(side, str(word_)) for side, word_ in form.syllables] == [(1, "q p")]


AMALGAMS = [
    parse_presentation(f"gens p q\ngens r s\namalgam : {edge}\n")
    for edge in ("p = r", "p^2 = r^3", "p = r^2", "q p^2 q^-1 = r")
]


@st.composite
def amalgam_words(draw):
    """An amalgam and a word of random letters, edge powers and conjugates of edge powers."""
    pres = draw(st.sampled_from(AMALGAMS))
    union = pres.union_alphabet
    letters: list[int] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            letters += draw(reduced_words(union, 3)).letters
            continue
        side = draw(st.sampled_from((1, 2)))
        power = pres.to_union(side, pres.edge_word(side) ** draw(st.sampled_from((-2, -1, 1, 2))))
        g = draw(reduced_words(union, 3)) if kind == 2 else identity(union)
        letters += (g * power * ~g).letters
    return pres, Word(union, letters)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(amalgam_words())
def test_amalgam_reduce_matches_rescan(case):
    pres, word_ = case
    form = amalgam_reduce(pres, word_)
    assert form.syllables == oracle.amalgam_rescan(pres, word_)
    letters = form.to_word(pres).letters
    assert free_reduce(letters) == letters


def test_amalgam_validation():
    f1 = Alphabet("p q")
    f2 = Alphabet("q r")
    with pytest.raises(ValueError):
        AmalgamPresentation(f1, f2, parse_word(f1, "p"), parse_word(f2, "r"))
    f2b = Alphabet("r s")
    with pytest.raises(ValueError):
        AmalgamPresentation(f1, f2b, identity(f1), parse_word(f2b, "r"))


def test_amalgam_equal(amalgam):
    am = amalgam
    assert amalgam_equal(am, am.word("p"), am.word("r"))
    assert amalgam_equal(am, am.word("q p s"), am.word("q r s"))
    assert not amalgam_equal(am, am.word("q"), am.word("s"))
    assert not amalgam_equal(am, am.word("p"), am.word("r^2"))


def test_amalgam_malformed_rejected(amalgam):
    with pytest.raises(ValueError):
        amalgam_reduce(amalgam, parse_word(Alphabet("p q"), "p"))


def test_dehn_twist_hnn(edge_pres):
    pres = edge_pres
    twist = dehn_twist(pres, 1)
    assert twist.images["t"] == pres.word("u t")
    assert twist.is_homomorphism
    assert dehn_twist(pres, 0).is_identity()
    twist3 = dehn_twist(pres, 3)
    assert twist3.images["t"] == pres.word("u^3 t")


def test_dehn_twist_amalgam(amalgam):
    twist = dehn_twist(amalgam, 1)
    assert twist.images["s"] == amalgam.word("r s r^-1")
    assert twist.images["p"] == amalgam.word("p")
    assert twist.is_homomorphism
    assert dehn_twist(amalgam, 0).is_identity()


def test_dehn_twist_inverse_pair(edge_pres, amalgam):
    from freegroups.endos import compose

    for splitting, n in ((edge_pres, 2), (amalgam, 3)):
        forward = dehn_twist(splitting, n)
        backward = dehn_twist(splitting, -n)
        assert compose(forward, backward).is_identity()
        assert compose(backward, forward).is_identity()


def test_parse_presentation_hnn(h_rank4):
    text = "gens a b u y\nhnn t : u -> a y b y a y^-1 b y^-1\n"
    pres = parse_presentation(text)
    assert isinstance(pres, HnnPresentation)
    assert pres.stable == "t"
    assert pres.u == w(h_rank4, "u")
    assert pres.v == w(h_rank4, "a y b y a y^-1 b y^-1")


def test_parse_presentation_amalgam():
    text = "gens p q\ngens r s\namalgam : p = r\n"
    pres = parse_presentation(text)
    assert isinstance(pres, AmalgamPresentation)
    assert str(pres.c1) == "p" and str(pres.c2) == "r"


def test_parse_presentation_errors():
    with pytest.raises(ValueError):
        parse_presentation("gens x y\n")
    with pytest.raises(ValueError):
        parse_presentation("gens x\nhnn t : x\n")
    with pytest.raises(ValueError):
        parse_presentation("gens p\namalgam : p = p\n")
    # A keyword with nothing after it is a malformed line, not a crash.
    with pytest.raises(ValueError, match="hnn line must read 'hnn t : u -> v'"):
        parse_presentation("gens a b\nhnn\n")
    with pytest.raises(ValueError, match="amalgam line must read 'amalgam : w1 = w2'"):
        parse_presentation("gens p q\ngens r s\namalgam\n")
