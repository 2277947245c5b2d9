"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value here is pinned: exact counts, exact sets, exact
verdicts, plus the stated wall-clock budgets.  Runtimes are asserted
with `time.monotonic`, single worker.
"""

import math
import random
import time

from freegroups.cli import main
from freegroups.closure import build_counterexample, verify_counterexample
from freegroups.endos import orbit_bounded, fixed_words, Endomorphism
from freegroups.splittings import (
    AmalgamPresentation,
    HnnPresentation,
    britton_reduce,
    dehn_twist,
    hnn_equal,
    hnn_length,
)
from freegroups.stallings import intersect, is_malnormal, subgroup_graph
from freegroups.whitehead import is_free_factor, is_primitive, whitehead_moves
from freegroups.words import (
    Alphabet,
    Word,
    abelianize,
    centralizer,
    extract_root,
    iter_reduced_words,
    parse_word,
)

import closure_oracle
import words_oracle
from conftest import random_reduced


F2 = Alphabet("x y")
F3 = Alphabet("x y z")
H = Alphabet("a b u y")


def _report(name: str, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_criterion_1_counterexample_pipeline(capsys):
    start = time.monotonic()
    code = main(
        ["verify-counterexample", "--a0", "0", "--l-solution", "6", "--l-separation", "8"]
    )
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert "abelianization_obstruction_ok: PASS [ab(v) = (2, 2, 0, 0) != ab(u) = (0, 0, 1, 0)]" in lines
    assert "gv_conjugate_to_v: PASS [g(v) = d v d^-1 with d = a y^-1 b y^-1]" in lines
    assert "solution_set: PASS [solutions up to length 6: {y, y^-1}]" in lines
    assert "overall: PASS" in lines
    check_lines = [l for l in lines if (": PASS" in l) and not l.startswith("overall")]
    assert len(check_lines) == 7
    assert elapsed < 60.0
    with capsys.disabled():
        _report("1 (counterexample pipeline, a0=0)", f"{elapsed:.1f}s")


def test_criterion_2_negative_control(capsys):
    start = time.monotonic()
    pool = closure_oracle.v_perturbations(0)
    assert pool  # 42 valid one-letter perturbations at a0 = 0
    rng = random.Random(20240817)
    samples = [rng.choice(pool) for _ in range(100)]
    detected = 0
    for perturbed in samples:
        report = verify_counterexample(0, 6, v_override=perturbed)
        if not report.ok:
            detected += 1
    elapsed = time.monotonic() - start
    assert detected >= 95
    assert elapsed < 600.0
    with capsys.disabled():
        _report("2 (negative control)", f"{detected}/100 detected, {elapsed:.1f}s")


def test_criterion_3_centralizers(capsys):
    start = time.monotonic()
    rng = random.Random(31925)
    words = []
    while len(words) < 200:
        alphabet = F2 if len(words) % 2 == 0 else F3
        candidate = random_reduced(rng, alphabet, 6, min_len=1)
        if extract_root(candidate)[1] == 1:
            words.append(candidate)
    for word_ in words:
        for k in (2, 3, 4):
            assert centralizer(word_**k) == word_
    # Exhaustive commuting-word cross-check at length <= 6.
    for word_ in words[:6]:
        alphabet = word_.alphabet
        for k in (2, 3, 4):
            power = word_**k
            for z in iter_reduced_words(alphabet, 6):
                if (z * power == power * z) and z:
                    assert words_oracle.power_of(z, word_) is not None
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report("3 (abelian closure of proper powers)", f"200 words, {elapsed:.1f}s")


def test_criterion_4_orbit_counts(capsys):
    setup = build_counterexample(0)
    pres = setup.pres
    report = orbit_bounded(lambda n: dehn_twist(pres, n), pres.word("t"), 100)
    assert report.distinct_count == 101
    assert report.first_collision is None

    f1 = Alphabet("p q")
    f2 = Alphabet("r s")
    amalgam = AmalgamPresentation(f1, f2, parse_word(f1, "p"), parse_word(f2, "r"))
    element = amalgam.word("q s")
    report2 = orbit_bounded(lambda n: dehn_twist(amalgam, n), element, 50)
    assert report2.distinct_count == 51
    with capsys.disabled():
        _report("4 (bounded orbit counts)", "101 of 101 and 51 of 51 distinct")


def test_criterion_5_britton_suite(capsys):
    start = time.monotonic()
    pres = HnnPresentation(H, "t", parse_word(H, "u"), parse_word(H, "a y b y a y^-1 b y^-1"))
    rng = random.Random(55055)
    t_word = pres.word("t")
    for _ in range(1000):
        original = random_reduced(rng, pres.extended, 10)
        base_len = hnn_length(britton_reduce(pres, original))
        cut = rng.randint(0, len(original.letters))
        p = rng.randint(-2, 2)
        if rng.random() < 0.5:
            filler = ~t_word * pres.lift(pres.u**p) * t_word * pres.lift(pres.v**-p)
        else:
            filler = t_word * pres.lift(pres.v**p) * ~t_word * pres.lift(pres.u**-p)
        planted = (
            Word(pres.extended, original.letters[:cut], _reduced=True)
            * filler
            * Word(pres.extended, original.letters[cut:], _reduced=True)
        )
        assert hnn_equal(pres, planted, original)
        assert hnn_length(britton_reduce(pres, planted)) == base_len
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report("5 (Britton suite)", f"1000 planted pinch pairs, {elapsed:.1f}s")


def test_criterion_6_whitehead_suite(capsys):
    start = time.monotonic()
    rng = random.Random(6006)
    # Ten primitives produced by random automorphism composites.
    for alphabet in (F2, F3):
        moves = whitehead_moves(alphabet, kinds="multiplier")
        for _ in range(5):
            word_ = parse_word(alphabet, alphabet.generators[0])
            for _ in range(rng.randint(2, 6)):
                word_ = rng.choice(moves).apply(word_)
            assert is_primitive(word_)
    for text in ("x y x^-1 y^-1", "x^2", "x^2 y^2"):
        word_ = parse_word(F2, text)
        # Independent negative certificate: a primitive word abelianizes
        # to a gcd-1 vector, and these do not.
        assert math.gcd(*abelianize(word_)) != 1
        assert not is_primitive(word_)
        assert not is_free_factor([word_], F2)
    mismatches = []
    for word_ in iter_reduced_words(F2, 6, min_len=1):
        primitive = is_primitive(word_)
        if primitive != is_free_factor([word_], F2):
            mismatches.append(word_)
        if primitive:
            assert math.gcd(*abelianize(word_)) == 1
    assert mismatches == []
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report("6 (Whitehead suite)", f"all words to length 6 in F2, {elapsed:.1f}s")


def test_criterion_7_stallings_suite(capsys):
    start = time.monotonic()
    rng = random.Random(70707)
    test_words = list(iter_reduced_words(F2, 6))
    for _ in range(50):
        gens1 = [random_reduced(rng, F2, 4, min_len=1) for _ in range(rng.randint(1, 3))]
        gens2 = [random_reduced(rng, F2, 4, min_len=1) for _ in range(rng.randint(1, 3))]
        g1 = subgroup_graph(F2, gens1)
        g2 = subgroup_graph(F2, gens2)
        meet = intersect(g1, g2)
        for word_ in test_words:
            assert meet.contains(word_) == (g1.contains(word_) and g2.contains(word_))
    x = parse_word(F2, "x")
    assert intersect(
        subgroup_graph(F2, [x**2]), subgroup_graph(F2, [x**3])
    ) == subgroup_graph(F2, [x**6])
    assert is_malnormal(subgroup_graph(F2, [x]))
    assert not is_malnormal(subgroup_graph(F2, [x**2]))
    assert is_malnormal(subgroup_graph(H, [parse_word(H, "u")]))
    assert is_malnormal(subgroup_graph(H, [parse_word(H, "a y b y a y^-1 b y^-1")]))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report("7 (subgroup graph suite)", f"50 pairs, {elapsed:.1f}s")


def test_criterion_8_fixed_subgroups(capsys):
    start = time.monotonic()
    swap = Endomorphism(
        F3,
        {
            "x": parse_word(F3, "x"),
            "y": parse_word(F3, "z"),
            "z": parse_word(F3, "y"),
        },
    )
    graph = fixed_words(swap, 8)
    assert graph == subgroup_graph(F3, [parse_word(F3, "x")])
    assert is_free_factor([parse_word(F3, "x")], F3)

    conj = Endomorphism(F2, {"x": parse_word(F2, "x"), "y": parse_word(F2, "x y x^-1")})
    graph2 = fixed_words(conj, 6)
    assert graph2 == subgroup_graph(F2, [parse_word(F2, "x")])
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    with capsys.disabled():
        _report("8 (bounded fixed subgroups)", f"{elapsed:.1f}s")
