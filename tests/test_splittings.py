import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegroups.splittings import (
    AmalgamPresentation,
    BrittonForm,
    HnnPresentation,
    amalgam_equal,
    britton_reduce,
    classify_base_conjugacy,
    dehn_twist,
    hnn_equal,
    hnn_length,
    parse_presentation,
    validate_presentation,
)
from freegroups.words import Alphabet, Word, free_reduce, parse_word

import splittings_oracle as oracle
import words_oracle
from conftest import named_check, random_reduced, reduced_words, w

DATA = Path(__file__).parent / "data"


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
        HnnPresentation(h_rank4, "t", Word(h_rank4), w(h_rank4, "a"))


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
    assert not named_check(report1, "u_root_free").passed
    assert named_check(report1, "v_root_free").passed

    f3 = Alphabet("x y z")
    bad2 = HnnPresentation(f3, "t", parse_word(f3, "x"), parse_word(f3, "z x z^-1"))
    report2 = validate_presentation(bad2)
    assert not named_check(report2, "u_v_not_conjugate").passed
    assert named_check(report2, "u_v_not_conjugate").detail == "u is conjugate to v^{+-1}"
    assert named_check(report, "u_v_not_conjugate").detail == "no conjugator exists"

    # Conjugated proper powers c r^e c^-1 with c nonempty: the root details,
    # read from the edge parts, match the divisor-loop oracle's root and
    # exponent.
    for (cu, ru, eu), (cv, rv, ev) in [
        (("x y", "x^2 y^-1", 3), ("y^-2", "x z", 2)),
        (("z^-1", "x y z^-1", 3), ("1", "x y^2 x^-1 z", 1)),
        (("x", "y^2 z", 3), ("z x^-1", "x y^-1", 5)),
        (("y x^-1", "z", 4), ("x", "y x", 1)),
    ]:
        u = w(f3, cu) * w(f3, ru) ** eu * ~w(f3, cu)
        v = w(f3, cv) * w(f3, rv) ** ev * ~w(f3, cv)
        report = validate_presentation(HnnPresentation(f3, "t", u, v))
        for name, edge, e in (("u", u, eu), ("v", v, ev)):
            root, exponent = words_oracle.extract_root(edge)
            check = named_check(report, f"{name}_root_free")
            assert exponent == e and check.detail == f"{name} = ({root})^{exponent}"
            assert check.passed == (exponent == 1)


def test_validation_is_kept_on_the_presentation(edge_pres, h_rank4):
    report = validate_presentation(edge_pres)
    assert validate_presentation(edge_pres) is report
    twin = HnnPresentation(h_rank4, "t", edge_pres.u, edge_pres.v)
    assert twin == edge_pres and hash(twin) == hash(edge_pres)
    assert validate_presentation(twin) == report and validate_presentation(twin) is not report


@pytest.mark.parametrize("v_text", ["a b^2", "b^-2 a^-1"])
def test_validate_names_the_empty_conjugator(v_text):
    # v = u or u^-1 exactly: the conjugator is the empty word, which is
    # falsy, and must still be reported as found.
    base = Alphabet("a b")
    report = validate_presentation(HnnPresentation(base, "t", parse_word(base, "a b^2"), parse_word(base, v_text)))
    check = named_check(report, "u_v_not_conjugate")
    assert not check.passed and check.detail == "u is conjugate to v^{+-1}"


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
            p = words_oracle.power_of(words[i + 1], edge)
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
def hnn_words(draw, presentations=PINCH_PRESENTATIONS):
    """A presentation and a word of base syllables, stray stable letters and nested pinches."""
    pres = draw(st.sampled_from(presentations))
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


FILE_PRESENTATIONS = [
    parse_presentation((DATA / name).read_text()) for name in ("pipeline.txt", "bs23.txt", "hnn_conjugated_power.txt")
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_hnn_equal_matches_the_britton_form_of_the_quotient(data):
    # hnn_equal reads Britton's letter stack of w1 w2^-1; the reference is
    # the BrittonForm of the Word w1 * ~w2.  w2 is another word, or w1 times
    # conjugates of the relator: equal to w1, and seldom freely so.
    pres, w1 = data.draw(hnn_words(FILE_PRESENTATIONS))
    planted = data.draw(st.booleans())
    if planted:
        w2 = w1
        for _ in range(data.draw(st.integers(1, 3))):
            g = data.draw(reduced_words(pres.extended, 4))
            w2 = w2 * g * pres.relators[0] ** data.draw(st.sampled_from((1, -1))) * ~g
    else:
        _, w2 = data.draw(hnn_words([pres]))
    form = britton_reduce(pres, w1 * ~w2)
    assert hnn_equal(pres, w1, w2) == (not form.tail and not form.head)
    assert hnn_equal(pres, w1, w2) or not planted


def test_hnn_equal_rejects_words_off_the_extension(edge_pres):
    pres = edge_pres
    with pytest.raises(ValueError, match="^alphabet mismatch$"):
        hnn_equal(pres, pres.word("t"), Word(pres.base, (1,)))
    with pytest.raises(ValueError, match="^word is not over the extension alphabet$"):
        hnn_equal(pres, pres.u, pres.v)


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
        form = britton_reduce(pres, word_)
        assert hnn_equal(pres, word_, Word(pres.extended)) == (not form.tail and not form.head)
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
    assert result.gamma == Word(pres.base)
    assert result.delta == Word(pres.base)
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
        classify_base_conjugacy(edge_pres, Word(edge_pres.base), edge_pres.v)
    bad = HnnPresentation(f2, "t", w(f2, "x^2"), w(f2, "y"))
    with pytest.raises(ValueError):
        classify_base_conjugacy(bad, w(f2, "x"), w(f2, "y"))


def factor_runs(pres, word_):
    """The syllables (side, union word) of the amalgam normal form: its maximal runs of one factor's letters."""
    letters, n = pres.normal_form(word_).letters, pres.factor1.rank
    runs = itertools.groupby(letters, key=lambda letter: 1 if abs(letter) <= n else 2)
    return tuple((side, Word(pres.union_alphabet, tuple(run))) for side, run in runs)


def test_amalgam_examples(amalgam):
    am = amalgam
    assert factor_runs(am, am.word("p r^-1")) == ()
    assert [(side, str(word_)) for side, word_ in factor_runs(am, am.word("p^2 s"))] == [(2, "r^2 s")]
    assert [(side, str(word_)) for side, word_ in factor_runs(am, am.word("q s"))] == [(1, "q"), (2, "s")]


def test_amalgam_merges_neighbours_of_a_dropped_syllable(amalgam):
    # s p r^-1 s^-1 cancels to the identity once p becomes r; q and the
    # last p are then neighbours in factor 1 and must merge.
    syllables = factor_runs(amalgam, amalgam.word("q s p r^-1 s^-1 p"))
    assert [(side, str(word_)) for side, word_ in syllables] == [(1, "q p")]


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
        power = pres.to_union(side, (pres.c1, pres.c2)[side - 1] ** draw(st.sampled_from((-2, -1, 1, 2))))
        g = draw(reduced_words(union, 3)) if kind == 2 else Word(union)
        letters += (g * power * ~g).letters
    return pres, Word(union, letters)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(amalgam_words())
def test_amalgam_normal_form_matches_rescan(case):
    pres, word_ = case
    expected = tuple((side, pres.to_union(side, wd)) for side, wd in oracle.amalgam_rescan(pres, word_))
    assert factor_runs(pres, word_) == expected
    letters = pres.normal_form(word_).letters
    assert free_reduce(letters) == letters


@settings(derandomize=True, max_examples=200, deadline=None)
@given(amalgam_words())
def test_amalgam_syllables_concatenate_to_the_form(case):
    # The factor runs of the normal form are a reduced form: with two or more
    # runs, none lies in the edge group, so none is a power of its edge word.
    pres, word_ = case
    form = pres.normal_form(word_)
    syllables = factor_runs(pres, word_)
    assert sum((syllable.letters for _, syllable in syllables), ()) == form.letters
    edges = (None, pres.to_union(1, pres.c1), pres.to_union(2, pres.c2))
    if len(syllables) > 1:
        assert all(words_oracle.power_of(syllable, edges[side]) is None for side, syllable in syllables)
    assert pres.equal(word_, form)


def test_amalgam_syllables_are_union_words(amalgam):
    syllables = factor_runs(amalgam, amalgam.word("q s p^2 r^-1 s"))
    assert syllables == ((1, amalgam.word("q")), (2, amalgam.word("s r s")))


def test_amalgam_validation():
    f1 = Alphabet("p q")
    f2 = Alphabet("q r")
    with pytest.raises(ValueError):
        AmalgamPresentation(f1, f2, parse_word(f1, "p"), parse_word(f2, "r"))
    f2b = Alphabet("r s")
    with pytest.raises(ValueError):
        AmalgamPresentation(f1, f2b, Word(f1), parse_word(f2b, "r"))


def test_amalgam_equal(amalgam):
    am = amalgam
    assert amalgam_equal(am, am.word("p"), am.word("r"))
    assert amalgam_equal(am, am.word("q p s"), am.word("q r s"))
    assert not amalgam_equal(am, am.word("q"), am.word("s"))
    assert not amalgam_equal(am, am.word("p"), am.word("r^2"))


def test_amalgam_equal_rejects_words_off_the_union(amalgam):
    am = amalgam
    with pytest.raises(ValueError, match="^alphabet mismatch$"):
        amalgam_equal(am, am.word("p"), Word(am.factor1, (1,)))
    with pytest.raises(ValueError, match="^word is not over the amalgam alphabet$"):
        amalgam_equal(am, am.c1, am.c1)


def test_amalgam_malformed_rejected(amalgam):
    with pytest.raises(ValueError):
        amalgam.normal_form(parse_word(Alphabet("p q"), "p"))


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


HNN_TEXT = "gens a b\nhnn t : a b^2 a^-1 -> b a b^-1\n"
AMALGAM_TEXT = "gens p q\ngens r s\namalgam : p^2 q = r^3 s^-1\n"


def _hnn_variants():
    """The HNN presentation of HNN_TEXT with each defining value changed in turn.

    A new base needs its words parsed again, over the new alphabet."""
    base, wider = Alphabet("a b"), Alphabet("a b c")
    return [
        HnnPresentation(wider, "t", parse_word(wider, "a b^2 a^-1"), parse_word(wider, "b a b^-1")),
        HnnPresentation(base, "s", parse_word(base, "a b^2 a^-1"), parse_word(base, "b a b^-1")),
        HnnPresentation(base, "t", parse_word(base, "a b^3 a^-1"), parse_word(base, "b a b^-1")),
        HnnPresentation(base, "t", parse_word(base, "a b^2 a^-1"), parse_word(base, "b^-1 a b")),
    ]


def _amalgam_variants():
    f1, f2 = Alphabet("p q"), Alphabet("r s")
    g1, g2 = Alphabet("p q o"), Alphabet("r s z")
    return [
        AmalgamPresentation(g1, f2, parse_word(g1, "p^2 q"), parse_word(f2, "r^3 s^-1")),
        AmalgamPresentation(f1, g2, parse_word(f1, "p^2 q"), parse_word(g2, "r^3 s^-1")),
        AmalgamPresentation(f1, f2, parse_word(f1, "p q"), parse_word(f2, "r^3 s^-1")),
        AmalgamPresentation(f1, f2, parse_word(f1, "p^2 q"), parse_word(f2, "r^3 s")),
    ]


@pytest.mark.parametrize("text, variants", [(HNN_TEXT, _hnn_variants), (AMALGAM_TEXT, _amalgam_variants)])
def test_presentations_compare_by_their_defining_values(text, variants):
    first, second = parse_presentation(text), parse_presentation(text)
    assert first is not second and first == second and hash(first) == hash(second)
    assert not first != second and len({first, second}) == 1
    for changed in variants():
        assert changed != first and first != changed


def test_hnn_and_amalgam_presentations_never_compare_equal():
    hnn, amalgam = parse_presentation(HNN_TEXT), parse_presentation(AMALGAM_TEXT)
    assert hnn != amalgam and amalgam != hnn
    assert hnn != (hnn.base, hnn.stable, hnn.u, hnn.v)
    assert amalgam != (amalgam.factor1, amalgam.factor2, amalgam.c1, amalgam.c2)


def test_presentation_reprs_are_unchanged():
    assert repr(parse_presentation(HNN_TEXT)) == "HnnPresentation(<H, t | a b^2 a^-1^t = b a b^-1>)"
    assert repr(parse_presentation(AMALGAM_TEXT)) == "AmalgamPresentation(p^2 q = r^3 s^-1)"


# Two splittings whose groups are free, so that free reduction of an
# image decides their word problem exactly: (file, free basis, images of
# the other generators).
FREE_SPLITTINGS = [
    # <a, b, u, y, t | t^-1 u t = v> is free on a, b, y, t, as u = t v t^-1.
    ("pipeline.txt", "a b y t", {"u": "t a y b y a y^-1 b y^-1 t^-1"}),
    # <p, q> * <r> over q p^2 q^-1 = r is free on p, q, as r = q p^2 q^-1.
    ("amalgam_rank1.txt", "p q", {"r": "q p^2 q^-1"}),
]


def _free_image(name, basis, images):
    """The splitting of a file, and its isomorphism onto the free group on basis, on words."""
    pres, free = parse_presentation((DATA / name).read_text()), Alphabet(basis)
    rows = [parse_word(free, images.get(g, g)) for g in pres.alphabet.generators]
    return pres, lambda word_: Word(free, [x for l in word_.letters for x in (rows[l - 1] if l > 0 else ~rows[-l - 1]).letters])


FREE_IMAGES = [_free_image(*row) for row in FREE_SPLITTINGS]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_splittings_of_free_groups_match_free_reduction(data):
    # w2 is w1 or another word, with conjugates of the relator planted at
    # random cuts, so equal pairs are seldom freely equal.
    pres, image = data.draw(st.sampled_from(FREE_IMAGES))
    w1 = data.draw(reduced_words(pres.alphabet, 10))
    w2 = w1 if data.draw(st.booleans()) else data.draw(reduced_words(pres.alphabet, 10))
    for _ in range(data.draw(st.integers(0, 3))):
        cut = data.draw(st.integers(0, len(w2)))
        g = data.draw(reduced_words(pres.alphabet, 3))
        planted = g * pres.relators[0] ** data.draw(st.sampled_from((1, -1))) * ~g
        w2 = Word(pres.alphabet, w2.letters[:cut]) * planted * Word(pres.alphabet, w2.letters[cut:])
    assert pres.equal(w1, w2) == (image(w1) == image(w2))
    for word_ in (w1, w2):
        assert image(pres.normal_form(word_)) == image(word_)
