import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegroups.closure import build_counterexample
from freegroups.endos import (
    Endomorphism,
    compose,
    fixed_words,
    is_automorphism_free,
    orbit_bounded,
    order_bounded,
    verify_automorphism_pair,
)
from freegroups.splittings import AmalgamPresentation, dehn_twist, hnn_equal, parse_presentation
from freegroups.stallings import subgroup_graph
from freegroups.words import Alphabet, abelianize, parse_word

import splittings_oracle as oracle
from conftest import integer_determinant, random_reduced, reduced_words, w


def abelianization_matrix(f: Endomorphism) -> list[list[int]]:
    """Integer matrix: column j is the exponent vector of the j-th image."""
    n = f.domain.rank
    cols = [abelianize(f.images[name]) for name in f.domain.generators]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@pytest.fixture
def setup():
    return build_counterexample(0)


@pytest.fixture
def amalgam():
    f1 = Alphabet("p q")
    f2 = Alphabet("r s")
    return AmalgamPresentation(f1, f2, parse_word(f1, "p"), parse_word(f2, "r"))


def endo(domain, **images):
    return Endomorphism(domain, {k: parse_word(domain.alphabet, v) for k, v in images.items()})


def test_construction_validation(f2):
    with pytest.raises(ValueError):
        Endomorphism(f2, {"x": w(f2, "x")})
    with pytest.raises(ValueError):
        Endomorphism(f2, {"x": w(f2, "x"), "y": w(f2, "y"), "z": w(f2, "x")})


def test_apply_examples(setup, f2):
    # The explicit map rewrites v exactly as d v d^-1 does.
    gv = setup.g.apply(setup.pres.lift(setup.v))
    assert gv == setup.pres.word("a y^-1 b y^-1 a y b y")

    ident = Endomorphism.identity(f2)
    word_ = w(f2, "x y^-1 x")
    assert ident.apply(word_) == word_

    # Substitution t -> t u on t^2: no pinch arises.
    pres = setup.pres
    images = {name: pres.word(name) for name in pres.base.generators}
    images["t"] = pres.word("t u")
    right_twist = Endomorphism(pres, images)
    assert right_twist.apply(pres.word("t^2")) == pres.word("t u t u")
    # Under this orientation the right twist by u is not a homomorphism.
    assert not right_twist.is_homomorphism


def test_apply_homomorphic(setup, f2):
    rng = random.Random(3)
    nielsen = endo(f2, x="x y", y="y")
    for _ in range(50):
        a = random_reduced(rng, f2, 8)
        b = random_reduced(rng, f2, 8)
        assert nielsen.apply(a * b) == nielsen.apply(a) * nielsen.apply(b)
    pres = setup.pres
    for _ in range(25):
        a = random_reduced(rng, pres.extended, 6)
        b = random_reduced(rng, pres.extended, 6)
        assert hnn_equal(pres, setup.g.apply(a * b), setup.g.apply(a) * setup.g.apply(b))


def test_compose_examples(setup, f2):
    nielsen = endo(f2, x="x y", y="y")
    ident = Endomorphism.identity(f2)
    assert compose(ident, nielsen) == nielsen

    pres = setup.pres
    t2 = compose(dehn_twist(pres, 2), dehn_twist(pres, 3))
    assert t2.images["t"] == dehn_twist(pres, 5).images["t"]

    swap = endo(f2, x="y", y="x")
    assert compose(swap, swap).is_identity()


def test_compose_associative(f2):
    rng = random.Random(9)
    maps = [
        endo(f2, x="x y", y="y"),
        endo(f2, x="y", y="x"),
        endo(f2, x="x^-1", y="y"),
        endo(f2, x="x", y="y x"),
    ]
    for _ in range(20):
        f, g, h = (rng.choice(maps) for _ in range(3))
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert left == right


def test_is_automorphism_free(f2):
    assert is_automorphism_free(endo(f2, x="x y", y="y"))
    assert not is_automorphism_free(endo(f2, x="x^2", y="y"))
    assert is_automorphism_free(endo(f2, x="y", y="x"))


def test_verify_automorphism_pair(setup):
    assert verify_automorphism_pair(setup.g, setup.g_inv)
    ident = Endomorphism.identity(setup.pres)
    assert verify_automorphism_pair(ident, ident)
    assert verify_automorphism_pair(dehn_twist(setup.pres, 1), dehn_twist(setup.pres, -1))
    # The machine check shows g is not its own inverse: g squared is the
    # twist t -> t v^-1, not the identity.
    assert not verify_automorphism_pair(setup.g, setup.g)


def test_g_square_is_inverse_v_twist(setup):
    pres = setup.pres
    g2 = compose(setup.g, setup.g)
    assert hnn_equal(pres, g2.images["t"], pres.word("t") * pres.lift(~setup.v))
    for name in setup.h_alphabet.generators:
        assert g2.images[name] == pres.word(name)
    assert order_bounded(setup.g, 20) is None


def test_verify_pair_rejects_non_homomorphism(setup):
    pres = setup.pres
    images = {name: pres.word(name) for name in pres.base.generators}
    images["t"] = pres.word("t u")
    bad = Endomorphism(pres, images)
    with pytest.raises(ValueError):
        verify_automorphism_pair(bad, bad)


def test_order_bounded(f2):
    swap = endo(f2, x="y", y="x")
    assert order_bounded(swap, 5) == 2
    assert order_bounded(Endomorphism.identity(f2), 5) == 1
    nielsen = endo(f2, x="x y", y="y")
    assert order_bounded(nielsen, 20) is None


def test_fixed_words_examples(f2, f3):
    conj = endo(f2, x="x", y="x y x^-1")
    graph = fixed_words(conj, 6)
    assert graph == subgroup_graph(f2, [w(f2, "x")])

    ident = Endomorphism.identity(f2)
    assert fixed_words(ident, 2).is_rose()

    swap = endo(f3, x="x", y="z", z="y")
    graph3 = fixed_words(swap, 6)
    assert graph3 == subgroup_graph(f3, [w(f3, "x")])


def test_fixed_words_bulk_matches_generic(f3):
    # Same sweep along both code paths: the permutation fast path and the
    # generic word-by-word scan.
    from freegroups.words import iter_reduced_words

    swap = endo(f3, x="x", y="z", z="y")
    bulk_graph = fixed_words(swap, 5)
    fixed = [word_ for word_ in iter_reduced_words(f3, 5) if swap.apply(word_) == word_]
    assert bulk_graph == subgroup_graph(f3, fixed)


def test_fixed_inside_rose_sanity(f2):
    rng = random.Random(21)
    maps = [endo(f2, x="x y", y="y"), endo(f2, x="y", y="x"), endo(f2, x="x", y="x y x^-1")]
    for f in maps:
        if is_automorphism_free(f):
            det = integer_determinant(abelianization_matrix(f))
            assert det in (1, -1)
            graph = fixed_words(f, 4)
            rose = subgroup_graph(f2, [w(f2, "x"), w(f2, "y")])
            for word_ in graph.basis():
                assert rose.contains(word_)


def test_orbit_bounded_hnn(setup):
    pres = setup.pres
    report = orbit_bounded(lambda n: dehn_twist(pres, n), pres.word("t"), 10, "twists")
    assert report.distinct_count == 11
    assert report.first_collision is None

    fixed_el = pres.word("a")
    report2 = orbit_bounded(lambda n: dehn_twist(pres, n), fixed_el, 10)
    assert report2.distinct_count == 1
    assert report2.first_collision == (0, 1)


def test_orbit_bounded_amalgam(amalgam):
    element = amalgam.word("q s")
    report = orbit_bounded(lambda n: dehn_twist(amalgam, n), element, 12)
    assert report.distinct_count == 13
    # An element of factor 1 is fixed by every twist.
    report2 = orbit_bounded(lambda n: dehn_twist(amalgam, n), amalgam.word("q"), 12)
    assert report2.distinct_count == 1


def test_orbit_never_undercounts(setup):
    # All-pairs cross-check at small bound.
    pres = setup.pres
    images = [dehn_twist(pres, n).apply(pres.word("t")) for n in range(21)]
    all_distinct = all(
        not pres.equal(images[i], images[j])
        for i in range(21)
        for j in range(i + 1, 21)
    )
    report = orbit_bounded(lambda n: dehn_twist(pres, n), pres.word("t"), 20)
    assert all_distinct and report.distinct_count == 21


# Baumslag-Solitar BS(2, 3): u = a^2 is not root-free, so the splitting
# hypotheses fail and twist orbits need not be constant or injective.
BS23 = parse_presentation("gens a b\nhnn t : a^2 -> a^3\n")

ORBIT_SPLITTINGS = [
    build_counterexample(0).pres,
    parse_presentation("gens a b\nhnn t : a -> b\n"),
    BS23,
] + [
    parse_presentation(f"gens p q\ngens r s\namalgam : {edge}\n")
    for edge in ("p = r", "p^2 = r^3", "p = r^2")
]


@st.composite
def orbit_cases(draw):
    pres = draw(st.sampled_from(ORBIT_SPLITTINGS))
    return pres, draw(reduced_words(pres.alphabet, 9)), draw(st.integers(-1, 12))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(orbit_cases())
def test_orbit_matches_pairwise(case):
    pres, element, bound = case
    family = lambda n: dehn_twist(pres, n)
    assert orbit_bounded(family, element, bound) == oracle.orbit_pairwise(family, element, bound)


@pytest.mark.parametrize("bound", range(9))
def test_orbit_least_period_two(bound):
    report = orbit_bounded(lambda n: dehn_twist(BS23, n), BS23.word("t t a t^-1 t^-1"), bound)
    if bound >= 2:
        assert (report.distinct_count, report.first_collision) == (2, (0, 2))
    else:
        assert (report.distinct_count, report.first_collision) == (bound + 1, None)


def test_orbit_at_bound_one_thousand(setup):
    pres = setup.pres
    report = orbit_bounded(lambda n: dehn_twist(pres, n), pres.word("t"), 1000)
    assert report.distinct_count == 1001
    assert report.first_collision is None


def test_amalgam_presentations_compare_by_value():
    text = "gens p q\ngens r s\namalgam : p^2 = r^3\n"
    p1, p2 = parse_presentation(text), parse_presentation(text)
    assert p1 == p2 and hash(p1) == hash(p2)
    assert dehn_twist(p1, 2) == dehn_twist(p2, 2)
    assert compose(dehn_twist(p1, 1), dehn_twist(p2, -1)).is_identity()


# The free group and splittings answer the same four questions: alphabet,
# relators, normal_form and equal.
DOMAINS = [Alphabet("x y")] + ORBIT_SPLITTINGS + [
    parse_presentation("gens a b\nhnn t : a b^2 a^-1 -> b a b^-1\n"),
    parse_presentation("gens p q\ngens r s\namalgam : q p^2 q^-1 = r\n"),
]


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
def test_domain_interface(domain):
    rng = random.Random(11)
    alphabet = domain.alphabet
    for _ in range(60):
        a, b, g = (random_reduced(rng, alphabet, 6) for _ in range(3))
        word_ = a * b
        for r in domain.relators:
            # a g r^+-1 g^-1 b is a b in the group: the relator must cancel.
            planted = a * g * r ** rng.choice((-1, 1)) * ~g * b
            assert domain.equal(planted, word_)
            word_ = planted
        nf = domain.normal_form(word_)
        assert domain.equal(word_, nf)
        assert domain.normal_form(nf) == nf
    assert Endomorphism.identity(domain).is_homomorphism


def test_amalgam_non_homomorphism_is_rejected(amalgam):
    # p -> p^2, r -> r breaks the relation p = r of <p, q> *_{p = r} <r, s>.
    assert not endo(amalgam, p="p^2", q="q", r="r", s="s").is_homomorphism


def test_abelianization_matrix(f2):
    nielsen = endo(f2, x="x y", y="y")
    assert abelianization_matrix(nielsen) == [[1, 0], [1, 1]]
    assert integer_determinant([[2, 0], [0, 3]]) == 6
    assert integer_determinant([[0, 1], [1, 0]]) == -1
