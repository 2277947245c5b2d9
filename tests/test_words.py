import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freegroups.splittings import HnnPresentation
from freegroups.words import (
    Alphabet,
    Word,
    _power_letters,
    _root_parts,
    abelianize,
    centralizer,
    commutator,
    cyclically_reduce,
    extract_root,
    format_word,
    free_reduce,
    identity,
    is_conjugate,
    iter_reduced_letter_tuples,
    iter_reduced_words,
    parse_word,
    power_of,
)

import words_oracle as oracle
from conftest import random_raw_letters, random_reduced, reduced_words, w


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("x x")
    with pytest.raises(ValueError):
        Alphabet(["x", "bad name"])
    with pytest.raises(ValueError):
        Alphabet("1 x")
    a = Alphabet("a b u y")
    assert a.rank == 4
    assert a.index("u") == 2
    assert "y" in a and "t" not in a


def test_inverse_token_is_no_generator():
    # parse_word's table maps "x^-1" to a negative code; it names no generator.
    a = Alphabet("x y")
    assert "x^-1" not in a
    with pytest.raises(ValueError, match=r"^unknown generator 'x\^-1'$"):
        a.index("x^-1")


NAMES = st.text("ab_1Z", min_size=1, max_size=3).filter(lambda name: name != "1")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(NAMES, unique=True, max_size=10), NAMES)
def test_alphabet_lookups_agree_with_positions(names, probe):
    a = Alphabet(names)
    for i, name in enumerate(names):
        assert name in a and a.index(name) == i
        assert (a.letter(name), a.letter(name, -1)) == (i + 1, -(i + 1))
        assert a.letter_name(a.letter(name, -1)) == name
    for text in (probe, f"{probe}^-1", f"{probe}^1"):
        assert (text in a) == (text in names)
        if text not in names:
            with pytest.raises(ValueError, match="unknown generator"):
                a.index(text)


EXTEND_NAMES = st.one_of(st.text("ab_1Z^- ", max_size=3), st.sampled_from(["1", "t", "\u00e9", "x\n"]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(NAMES, unique=True, max_size=8), EXTEND_NAMES)
def test_extend_matches_a_fresh_alphabet(names, name):
    # extend checks only the new name and copies the token table: the same
    # alphabet, table and lookups as building it whole, or the same error.
    base = Alphabet(names)
    try:
        fresh = Alphabet(names + [name])
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            base.extend(name)
        assert str(raised.value) == str(exc)
        return
    extended = base.extend(name)
    assert extended == fresh and extended.generators == fresh.generators
    assert extended._tokens == fresh._tokens and extended._chars is None
    for probe in names + [name, f"{name}^-1", "1", "zz"]:
        assert (probe in extended) == (probe in fresh)
        if probe in fresh:
            assert extended.index(probe) == fresh.index(probe)
    text = " ".join(names + [f"{name}^-1", name, name])
    assert parse_word(extended, text) == parse_word(fresh, text)
    assert format_word(Word(extended, (len(names) + 1, 1))) == format_word(Word(fresh, (len(names) + 1, 1)))


@pytest.mark.parametrize(
    "name, message",
    [
        ("x y", "bad generator name 'x y'"),
        ("a^-1", "bad generator name 'a^-1'"),
        ("", "bad generator name ''"),
        ("1", "generator name '1' is reserved for the empty word"),
        ("a", "duplicate generator name 'a'"),
        ("b", "duplicate generator name 'b'"),
    ],
)
def test_extend_rejects_a_name_as_the_constructor_does(name, message):
    base = Alphabet("a b")
    for build in (lambda: base.extend(name), lambda: Alphabet(base.generators + (name,))):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


def test_generator_names_reject_trailing_newline():
    # "$" also matches before a final newline; names must match in full.
    with pytest.raises(ValueError, match="bad generator name"):
        Alphabet(["x\n", "y"])
    base = Alphabet("a b")
    with pytest.raises(ValueError, match="bad generator name"):
        HnnPresentation(base, "t\n", w(base, "a"), w(base, "b"))


@pytest.mark.parametrize("name", ["x", "_", "b_2", "Z9", "\u00e9", "x-y", "", "x^2", "\u0663"])
def test_generator_names_match_regex(name):
    # Alphabet accepts exactly the nonempty names over [A-Za-z0-9_].
    try:
        accepted = Alphabet([name]).generators == (name,)
    except ValueError as exc:
        accepted = False
        assert str(exc) == f"bad generator name {name!r}"
    assert accepted == oracle.is_name(name)


def test_parse_and_format(f2):
    assert format_word(w(f2, "x y y^-1")) == "x"
    assert format_word(w(f2, "x^3 y^-2")) == "x^3 y^-2"
    assert format_word(w(f2, "1")) == "1"
    assert w(f2, "x^-1").letters == (-1,)
    with pytest.raises(ValueError):
        parse_word(f2, "x^0")
    with pytest.raises(ValueError):
        parse_word(f2, "z")
    with pytest.raises(ValueError):
        parse_word(f2, "x^^2")
    # Exponents are ASCII digits, as names are ASCII: int() would read an Arabic-Indic three.
    with pytest.raises(ValueError, match=r"^malformed word token 'x\^\u0663'$"):
        parse_word(f2, "x^\u0663")


def _parsed(parse, alphabet: Alphabet, text: str):
    """The parsed letters, or the ValueError message."""
    try:
        return "word", parse(alphabet, text).letters
    except ValueError as exc:
        return "error", str(exc)


XY = Alphabet("x y")
DIGITS = Alphabet(["2", "x1"])


@pytest.mark.parametrize(
    "alphabet, text",
    [
        (XY, "x^1"),
        (XY, "x^01"),
        (XY, "x^-01"),
        (XY, "1"),
        (XY, "1 1"),
        (XY, ""),
        (XY, "x\ty\n x^-1\r\n\ty^-1\tx"),
        (XY, "x^0"),
        (XY, "x^-0"),
        (XY, "x^^2"),
        (XY, "x^"),
        (XY, "^2"),
        (XY, "x z y"),
        (XY, "x y^-1 y x^3 y^0"),
        (DIGITS, "2"),
        (DIGITS, "2^-1"),
        (DIGITS, "2 x1 2^-1 x1^-1"),
        (DIGITS, "2^-1 2^3 x1"),
        (DIGITS, "x 2"),
        (XY, "x^1_0"),
        (XY, "x^\u0663 y^-\u0663"),
        (XY, "x^-"),
        (XY, "\u00e9"),
        (XY, "x^\u00b2"),
        (XY, "y x^--1"),
    ],
)
def test_parse_word_matches_regex_parser(alphabet, text):
    assert _parsed(parse_word, alphabet, text) == _parsed(oracle.parse_word, alphabet, text)


def _tokens(alphabet: Alphabet):
    names = list(alphabet.generators)
    letter = st.sampled_from(names + [f"{n}^-1" for n in names])
    power = st.builds(lambda n, k: f"{n}^{k}", st.sampled_from(names), st.sampled_from(["0", "-0", "1", "01", "-01", "2", "-3"]))
    # x^1_0: int() reads 10, the regex rejects it; x^\u0663 (Arabic-Indic three): int() reads 3, both reject it.
    odd = st.sampled_from(["1", "q", "x^^2", "x^", "^2", "x^+1", "x-1", "2^-1", "x^1_0", "x^\u0663", "x^-", "\u00e9"])
    return st.one_of(letter, letter, letter, power, odd)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from([XY, DIGITS, Alphabet("a b_2 C")]).flatmap(
    lambda A: st.tuples(st.just(A), st.lists(st.tuples(_tokens(A), st.sampled_from([" ", "  ", "\t", "\n", " \r\n"])), max_size=12))
))
def test_parse_word_matches_regex_parser_on_mixed_texts(case):
    alphabet, pairs = case
    text = "".join(token + sep for token, sep in pairs)
    assert _parsed(parse_word, alphabet, text) == _parsed(oracle.parse_word, alphabet, text)


@st.composite
def single_letter_texts(draw):
    """A reduced word with 0-3 cancelling pairs x x^-1 put in, written one letter per token."""
    alphabet = Alphabet([f"g{i}" for i in range(1, draw(st.integers(1, 4)) + 1)])
    letters = list(draw(reduced_words(alphabet, 30)).letters)
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.sampled_from(alphabet.letters()))
        i = draw(st.integers(0, len(letters)))
        letters[i:i] = [x, -x]
    names = [alphabet.letter_name(x) + ("" if x > 0 else "^-1") for x in letters]
    return alphabet, " ".join(names)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(single_letter_texts())
def test_parse_word_matches_regex_parser_on_letter_texts(case):
    # Reduced texts skip the stack loop; one cancelling pair anywhere must not.
    alphabet, text = case
    parsed = parse_word(alphabet, text)
    assert parsed == oracle.parse_word(alphabet, text) and type(parsed.letters) is tuple


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: reduced_words(Alphabet([f"g{i}" for i in range(1, k + 1)]), 30)))
def test_format_then_parse_round_trips(x):
    assert parse_word(x.alphabet, format_word(x)) == x


def test_letters_out_of_range(f2):
    with pytest.raises(ValueError):
        Word(f2, (3,))
    with pytest.raises(ValueError):
        Word(f2, (0,))


def test_reduce_examples(f2, h_rank4):
    assert w(f2, "x x^-1").letters == ()
    v = w(h_rank4, "a y b y a y^-1 b y^-1")
    assert len(v) == 8
    assert w(f2, "x y y^-1 x") == w(f2, "x^2")


def test_reduce_idempotent_and_concat(f2):
    rng = random.Random(11)
    for _ in range(300):
        raw = random_raw_letters(rng, 2, 64)
        once = free_reduce(raw)
        assert free_reduce(once) == once
        raw2 = random_raw_letters(rng, 2, 64)
        assert free_reduce(tuple(raw) + tuple(raw2)) == free_reduce(once + free_reduce(raw2))


def test_mul_inverse_pow(f2):
    a = w(f2, "x y")
    assert a * ~a == identity(f2)
    assert (~a).letters == (-2, -1)
    assert a**3 == w(f2, "x y x y x y")
    assert a**-2 == ~(a**2)
    assert a**0 == identity(f2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(x=reduced_words(Alphabet("x y z"), 12), n=st.integers(-6, 6))
@example(x=identity(Alphabet("x y z")), n=0)
@example(x=identity(Alphabet("x y z")), n=-4)
@example(x=Word(Alphabet("x y z"), (1, 2, -1)), n=0)
@example(x=Word(Alphabet("x y z"), (1, 2, 3, -2, -1)), n=-5)
def test_pow_matches_repeated_multiplication(x, n):
    expected = identity(x.alphabet)
    for _ in range(abs(n)):
        expected = expected * (x if n > 0 else ~x)
    power = x**n
    assert power == expected
    assert free_reduce(power.letters) == power.letters


@settings(derandomize=True, max_examples=200, deadline=None)
@given(reduced_words(Alphabet("x y"), 10), reduced_words(Alphabet("x y"), 10), st.integers(0, 10))
def test_product_matches_full_reduction(x, z, overlap):
    # y starts with the inverse of up to ``overlap`` letters of x, so the
    # seam cancels anywhere from nothing to all of x.
    y = ~Word(x.alphabet, x.letters[len(x.letters) - min(overlap, len(x)) :]) * z
    for left, right in ((x, z), (x, y), (y, x), (x, ~x)):
        product = left * right
        assert product.letters == free_reduce(left.letters + right.letters)
    assert (~x).letters == tuple(-l for l in reversed(x.letters))


def test_cyclic_reduce_examples(f2, h_rank4):
    core, conj = cyclically_reduce(w(f2, "x y x^-1"))
    assert core == w(f2, "y") and conj == w(f2, "x")
    v = w(h_rank4, "a y b y a y^-1 b y^-1")
    core, conj = cyclically_reduce(v)
    assert core == v and conj == identity(h_rank4)
    core, conj = cyclically_reduce(identity(f2))
    assert core == identity(f2) and conj == identity(f2)


def test_cyclic_reduce_reconstructs(f2):
    rng = random.Random(5)
    for _ in range(200):
        word_ = Word(f2, random_raw_letters(rng, 2, 24))
        core, conj = cyclically_reduce(word_)
        assert conj * core * ~conj == word_
        lets = core.letters
        assert len(lets) < 2 or lets[0] != -lets[-1]


def test_is_conjugate_examples(f2, h_rank4):
    assert is_conjugate(w(f2, "y"), w(f2, "x y x^-1")) == w(f2, "x")
    assert is_conjugate(w(f2, "x"), w(f2, "y")) is None
    v = w(h_rank4, "a y b y a y^-1 b y^-1")
    gv = w(h_rank4, "a y^-1 b y^-1 a y b y")
    d = w(h_rank4, "a y^-1 b y^-1")
    assert is_conjugate(v, gv) == d
    assert d * v * ~d == gv


def test_is_conjugate_random_witness(f2):
    rng = random.Random(23)
    for _ in range(200):
        base = random_reduced(rng, f2, 16)
        g = random_reduced(rng, f2, 16)
        other = g * base * ~g
        witness = is_conjugate(base, other)
        assert witness is not None
        assert witness * base * ~witness == other


def _is_conjugate_by_rotations(w1: Word, w2: Word):
    """Reference: try every rotation offset of the first core in turn (quadratic)."""
    s1, c1 = cyclically_reduce(w1)
    s2, c2 = cyclically_reduce(w2)
    if len(s1) != len(s2):
        return None
    if not s1:
        return identity(w1.alphabet)
    for k in range(len(s1)):
        if s1.letters[k:] + s1.letters[:k] == s2.letters:
            g0 = () if k == 0 else s1.letters[k:]
            return Word(w1.alphabet, c2.letters + g0 + (~c1).letters)
    return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    root=reduced_words(Alphabet("x y z"), 8),
    power=st.integers(1, 4),
    conjugator=reduced_words(Alphabet("x y z"), 6),
    other=reduced_words(Alphabet("x y z"), 16),
    data=st.data(),
)
def test_is_conjugate_matches_rotation_loop(root, power, conjugator, other, data):
    # Powers of a root match at several offsets; the smallest must win.
    w1 = root**power
    core = cyclically_reduce(w1)[0].letters
    k = data.draw(st.integers(0, max(len(core) - 1, 0)))
    w2 = conjugator * Word(w1.alphabet, core[k:] + core[:k]) * ~conjugator
    for left, right in ((w1, w2), (w2, w1), (w1, other), (other, w1), (other, other)):
        assert is_conjugate(left, right) == _is_conjugate_by_rotations(left, right)


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_is_conjugate_periodic_smallest_offset(f2, k):
    xy, yx = w(f2, "x y") ** k, w(f2, "y x") ** k
    assert is_conjugate(xy, xy) == identity(f2)
    # Offsets 1, 3, ..., 2k - 1 all rotate xy onto yx; the witness is from offset 1.
    assert is_conjugate(xy, yx) == Word(f2, xy.letters[1:]) == _is_conjugate_by_rotations(xy, yx)
    assert is_conjugate(xy, w(f2, "x y^-1") ** k) is None


def test_extract_root_examples(f2, h_rank4):
    assert extract_root(w(f2, "x^6")) == (w(f2, "x"), 6)
    assert extract_root(w(f2, "x y x y x y")) == (w(f2, "x y"), 3)
    v = w(h_rank4, "a y b y a y^-1 b y^-1")
    assert extract_root(v) == (v, 1)
    with pytest.raises(ValueError):
        extract_root(identity(f2))


def test_extract_root_powers(f2):
    rng = random.Random(31)
    for _ in range(120):
        word_ = random_reduced(rng, f2, 8, min_len=1)
        root, exp = extract_root(word_)
        for k in range(1, 6):
            rk, ek = extract_root(word_**k)
            assert rk == root and ek == k * exp


XYZ = Alphabet("x y z")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    root=reduced_words(XYZ, 8).filter(bool),
    inner=st.integers(1, 3),
    k=st.integers(1, 12),
    conjugator=reduced_words(XYZ, 5),
)
def test_extract_root_matches_divisor_loop(root, inner, k, conjugator):
    # root**inner is root-free only when inner == 1 and root is.
    word_ = conjugator * (root**inner) ** k * ~conjugator
    assert extract_root(word_) == oracle.extract_root(word_)


def test_centralizer_examples(f2):
    assert centralizer(w(f2, "x^2")) == w(f2, "x")
    assert centralizer(w(f2, "x y x^-1")) == w(f2, "x y x^-1")
    assert centralizer(w(f2, "x y") ** 4) == w(f2, "x y")
    with pytest.raises(ValueError):
        centralizer(identity(f2))


def test_centralizer_exhaustive_desk_scale(f2):
    rng = random.Random(41)
    for _ in range(5):
        word_ = random_reduced(rng, f2, 6, min_len=1)
        root, exp = extract_root(word_)
        if exp != 1:
            word_ = root
        for z in iter_reduced_words(f2, 6):
            if commutator(z, word_) == identity(f2):
                assert power_of(z, word_) is not None


def test_abelianize_examples(h_rank4, f2):
    v = w(h_rank4, "a y b y a y^-1 b y^-1")
    assert abelianize(v) == (2, 2, 0, 0)
    assert abelianize(w(h_rank4, "u")) == (0, 0, 1, 0)
    assert abelianize(commutator(w(f2, "x"), w(f2, "y"))) == (0, 0)


def test_abelianize_homomorphic(f2):
    rng = random.Random(59)
    for _ in range(100):
        a = random_reduced(rng, f2, 12)
        b = random_reduced(rng, f2, 12)
        assert abelianize(a * b) == tuple(
            xa + xb for xa, xb in zip(abelianize(a), abelianize(b))
        )
        raw = random_raw_letters(rng, 2, 24)
        assert abelianize(Word(f2, raw)) == abelianize_raw(f2, raw)


def abelianize_raw(alphabet, letters):
    counts = [0] * alphabet.rank
    for letter in letters:
        counts[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(counts)


def test_power_of(f2):
    assert power_of(w(f2, "x^6"), w(f2, "x^2")) == 3
    assert power_of(w(f2, "x^-6"), w(f2, "x^2")) == -3
    assert power_of(w(f2, "x^3"), w(f2, "x^2")) is None
    assert power_of(identity(f2), w(f2, "x")) == 0
    assert power_of(w(f2, "x y x^-1") ** 4, w(f2, "x y x^-1")) == 4
    assert power_of(w(f2, "y"), w(f2, "x")) is None
    base = w(f2, "x y^2 x^-1")
    assert power_of(w(f2, "x y^6 x^-1"), base) == 3
    assert power_of(w(f2, "x y^-4 x^-1"), base) == -2
    assert power_of(w(f2, "x y^3 x^-1"), base) is None
    assert power_of(w(f2, "y^2"), base) is None
    assert power_of(w(f2, "x y^2 x y^2 x^-1"), base) is None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    root=reduced_words(XYZ, 6).filter(bool),
    exponent=st.integers(1, 3),
    conjugator=reduced_words(XYZ, 4),
    other=reduced_words(XYZ, 4),
    k=st.integers(-5, 5),
    data=st.data(),
)
def test_power_of_matches_two_roots(root, exponent, conjugator, other, k, data):
    """power_of against the double-root oracle on base^k and its near misses."""
    base = conjugator * root**exponent * ~conjugator
    power = base**k
    assert _power_letters(_root_parts(base), k) == power.letters
    candidates = [
        power,
        other * root ** (exponent * k) * ~other,  # a wrong conjugator, unless other == conjugator
        conjugator * root ** (exponent * k + 1) * ~conjugator,  # not a multiple when exponent > 1
    ]
    if power:
        lets = list(power.letters)
        i = data.draw(st.integers(0, len(lets) - 1))
        lets[i] = data.draw(st.sampled_from([l for l in XYZ.letters() if l != lets[i]]))
        candidates.append(Word(XYZ, lets))  # one letter changed
    for cand in candidates:
        assert power_of(cand, base) == oracle.power_of(cand, base)


def test_iter_reduced_words_counts(f2):
    words2 = list(iter_reduced_letter_tuples(2, 3))
    # 1 + 4 + 12 + 36 reduced words up to length 3 in rank 2.
    assert len(words2) == 53
    assert words2[0] == ()
    assert words2[1] == (1,)
    lengths = [len(t) for t in words2]
    assert lengths == sorted(lengths)
