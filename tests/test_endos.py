import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freegroups import endos, splittings
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
from freegroups.splittings import (
    AmalgamPresentation,
    HnnPresentation,
    dehn_twist,
    hnn_equal,
    parse_presentation,
    validate_presentation,
)
from freegroups.stallings import subgroup_graph
from freegroups.whitehead import whitehead_moves
from freegroups.words import Alphabet, Word, abelianize, extract_root, parse_word

import splittings_oracle as oracle
import whitehead_oracle
from conftest import identity_map, integer_determinant, random_reduced, reduced_words, w


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

    ident = identity_map(f2)
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
    ident = identity_map(f2)
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
    ident = identity_map(setup.pres)
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


def pair_cases():
    """(f, g) pairs: free-group Whitehead moves with their inverses and with
    other moves, twists of the pipeline's splitting and of an amalgam with
    p + q = 0 and p + q != 0, the pipeline's g with g^-1 and with g, and
    identity maps whose images are words equal to the generators only in
    the group."""
    rng = random.Random(1729)
    cases = []
    for gens in ("x y", "x y z", "a b c d"):
        moves = [whitehead_oracle.endomorphism(move) for move in whitehead_moves(Alphabet(gens))]
        for f, other in zip(rng.sample(moves, 8), rng.sample(moves, 8)):
            cases += [(f, inverse_of(f, moves)), (f, other)]
    setup = build_counterexample(0)
    amalgam = parse_presentation("gens p q\ngens r s\namalgam : p^2 = r^3\n")
    for pres in (setup.pres, amalgam):
        for p, q in ((1, -1), (-2, 2), (3, -3), (1, 1), (2, -1), (0, 0), (0, 2)):
            cases.append((dehn_twist(pres, p), dehn_twist(pres, q)))
    cases += [(setup.g, setup.g_inv), (setup.g_inv, setup.g), (setup.g, setup.g), (setup.g_inv, setup.g_inv)]
    # The identity written through the relation, so a composite equals a
    # generator only after a pinch or an amalgam merge.
    pinched = endo(setup.pres, a="a", b="b", u="t a y b y a y^-1 b y^-1 t^-1", y="y", t="t")
    merged = endo(amalgam, p="p", q="r^3 p^-2 q", r="r", s="s")
    for f in (pinched, merged):
        ident = identity_map(f.domain)
        cases += [(f, ident), (ident, f), (f, f), (f, dehn_twist(f.domain, 1))]
    return cases


def inverse_of(f: Endomorphism, moves: list[Endomorphism]) -> Endomorphism:
    return next(g for g in moves if compose(f, g).is_identity())


@pytest.mark.parametrize("f, g", pair_cases(), ids=repr)
def test_verify_pair_equals_both_composed_checks(f, g):
    # In these Hopfian groups f o g = id iff g o f = id, so the truth
    # value alone cannot tell one order from two: the test also records
    # the substitutions a True verdict makes, one per generator and order.
    expected = compose(f, g).is_identity() and compose(g, f).is_identity()
    assert f.is_homomorphism and g.is_homomorphism  # cached before recording
    substituted = []
    real = Endomorphism._image
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Endomorphism, "_image", lambda self, w: substituted.append((self, w)) or real(self, w))
        assert verify_automorphism_pair(f, g) == expected
    gens = f.domain.alphabet.generators
    both_orders = [(f, g.images[x].letters) for x in gens] + [(g, f.images[x].letters) for x in gens]
    if expected:
        assert substituted == both_orders
    else:
        assert len(substituted) <= len(both_orders)


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
    assert order_bounded(identity_map(f2), 5) == 1
    nielsen = endo(f2, x="x y", y="y")
    assert order_bounded(nielsen, 20) is None


@pytest.mark.parametrize("max_order, expected", [(0, None), (1, None), (2, 2), (3, 2), (8, None)])
def test_order_bounded_composes_no_power_past_its_bound(monkeypatch, f2, max_order, expected):
    """f^k is built only to be tested, k <= max_order: at most max_order - 1 compositions."""
    calls = []
    monkeypatch.setattr(endos, "compose", lambda f, g, real=endos.compose: calls.append(f) or real(f, g))
    f = endo(f2, x="y", y="x") if expected else endo(f2, x="x y", y="x")  # a swap, or Fibonacci's map
    assert order_bounded(f, max_order) == expected
    assert len(calls) == max((expected or max_order) - 1, 0)


def test_fixed_words_examples(f2, f3):
    conj = endo(f2, x="x", y="x y x^-1")
    graph = fixed_words(conj, 6)
    assert graph == subgroup_graph(f2, [w(f2, "x")])

    ident = identity_map(f2)
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
    report = orbit_bounded(lambda n: dehn_twist(pres, n), pres.word("t"), 10)
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


@pytest.mark.parametrize("pres", ORBIT_SPLITTINGS)
@pytest.mark.parametrize("bound", [-1, 0, 1, 2, 12])
def test_orbit_calls_the_family_at_zero_and_one_only(pres, bound):
    # f_n = tau^n: the scan applies tau = f_1 to the last image, so the
    # family is asked for f_0 and, for a bound of 1 or more, f_1 alone.
    calls = []

    def family(n):
        calls.append(n)
        return dehn_twist(pres, n)

    element = pres.word(pres.alphabet.generators[-1])
    report = orbit_bounded(family, element, bound)
    assert calls == ([0, 1] if bound >= 1 else [0])
    assert report == oracle.orbit_pairwise(lambda n: dehn_twist(pres, n), element, bound)


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


@st.composite
def lemma_splittings(draw):
    """A splitting that meets the fixed-subgroup lemma's hypotheses."""
    if draw(st.booleans()):
        base = Alphabet("a b c" if draw(st.booleans()) else "a b")
        u, v = draw(reduced_words(base, 4)), draw(reduced_words(base, 4))
        assume(u and v)
        pres = HnnPresentation(base, "t", u, v)
        assume(validate_presentation(pres).ok)
    else:
        f1, f2 = Alphabet("p q"), Alphabet("r s")
        c1, c2 = draw(reduced_words(f1, 4)), draw(reduced_words(f2, 4))
        assume(c1 and c2 and extract_root(c2)[1] == 1)
        pres = AmalgamPresentation(f1, f2, c1, c2)
    return pres


def vertex_group_word(draw, pres) -> Word:
    """A word planted in the vertex group: base words around t^-1 u^k t
    for HNN, factor-1 words around c2^k for amalgams."""
    if isinstance(pres, HnnPresentation):
        side, inner = pres.base, pres.word("t^-1") * pres.lift(pres.u) ** draw(st.integers(-2, 2)) * pres.word("t")
        lift = pres.lift
    else:
        side, inner = pres.factor1, pres.to_union(2, pres.c2 ** draw(st.integers(-2, 2)))
        lift = lambda g: pres.to_union(1, g)
    return lift(draw(reduced_words(side, 3))) * inner * lift(draw(reduced_words(side, 3)))


@st.composite
def lemma_orbit_cases(draw):
    pres = draw(lemma_splittings())
    planted = vertex_group_word(draw, pres)
    element = draw(st.sampled_from([
        planted,
        planted * draw(reduced_words(pres.alphabet, 4)),
        draw(reduced_words(pres.alphabet, 9)),
    ]))
    return pres, element, draw(st.sampled_from([1, -1, 2, -2, 3])), draw(st.integers(-1, 12))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lemma_orbit_cases())
def test_orbit_exact_path_matches_pairwise(case):
    pres, element, p, bound = case
    family = lambda n: dehn_twist(pres, p * n)
    assert orbit_bounded(family, element, bound) == oracle.orbit_pairwise(family, element, bound)
    if bound >= 1:
        in_vertex_group = pres.twist_fixes(family(1), element)
        assert in_vertex_group is not None
        assert in_vertex_group == pres.equal(family(1).apply(element), element)


def count_equality_tests(monkeypatch) -> list:
    """Record each ``hnn_equal`` and ``amalgam_equal`` call from now on."""
    calls = []
    for name in ("hnn_equal", "amalgam_equal"):
        real = getattr(splittings, name)
        monkeypatch.setattr(splittings, name, lambda *args, real=real: calls.append(args) or real(*args))
    return calls


def powers(f: Endomorphism):
    """n -> f^n, for families that are not twists."""
    cache = [identity_map(f.domain)]
    def family(n):
        while len(cache) <= n:
            cache.append(compose(f, cache[-1]))
        return cache[n]
    return family


@pytest.mark.parametrize("pres", [ORBIT_SPLITTINGS[0], ORBIT_SPLITTINGS[1], ORBIT_SPLITTINGS[3]], ids=repr)
@pytest.mark.parametrize("scale", [2, -1])
def test_twist_families_take_the_exact_path(monkeypatch, pres, scale):
    family = lambda n: dehn_twist(pres, scale * n)
    for name in pres.alphabet.generators:
        element = pres.word(name)
        calls = count_equality_tests(monkeypatch)
        report = orbit_bounded(family, element, 12)
        assert calls == []
        monkeypatch.undo()
        assert report == oracle.orbit_pairwise(family, element, 12)


def base_automorphism(pres) -> Endomorphism:
    """Conjugation by the first base or factor-1 generator: an automorphism, never a twist."""
    g = pres.word(pres.alphabet.generators[0])
    return Endomorphism(pres, {name: g * pres.word(name) * ~g for name in pres.alphabet.generators})


SCAN_FAMILIES = [
    ("p = 0", ORBIT_SPLITTINGS[0], lambda n: dehn_twist(ORBIT_SPLITTINGS[0], 0)),
    ("p = 0", ORBIT_SPLITTINGS[3], lambda n: dehn_twist(ORBIT_SPLITTINGS[3], 0)),
    ("twist then conjugation", ORBIT_SPLITTINGS[0],
     powers(compose(base_automorphism(ORBIT_SPLITTINGS[0]), dehn_twist(ORBIT_SPLITTINGS[0], 1)))),
    ("twist then conjugation", ORBIT_SPLITTINGS[3],
     powers(compose(base_automorphism(ORBIT_SPLITTINGS[3]), dehn_twist(ORBIT_SPLITTINGS[3], 1)))),
    ("BS(2, 3)", BS23, lambda n: dehn_twist(BS23, n)),
    ("c2 = r^2 is a square", ORBIT_SPLITTINGS[5], lambda n: dehn_twist(ORBIT_SPLITTINGS[5], n)),
]


@pytest.mark.parametrize("why, pres, family", SCAN_FAMILIES, ids=[f"{why}: {pres!r}" for why, pres, _ in SCAN_FAMILIES])
def test_other_families_take_the_scan(monkeypatch, why, pres, family):
    element = pres.word(pres.alphabet.generators[-1])
    assert pres.twist_fixes(family(1), element) is None
    calls = count_equality_tests(monkeypatch)
    report = orbit_bounded(family, element, 6)
    assert calls
    monkeypatch.undo()
    assert report == oracle.orbit_pairwise(family, element, 6)


def test_free_group_orbits_take_the_scan(f2):
    nielsen = endo(f2, x="x y", y="y")
    assert f2.twist_fixes(nielsen, w(f2, "x")) is None
    for text in ("x", "y", "x y^-1"):
        report = orbit_bounded(powers(nielsen), w(f2, text), 8)
        assert report == oracle.orbit_pairwise(powers(nielsen), w(f2, text), 8)


@pytest.mark.parametrize("pres", [ORBIT_SPLITTINGS[0], ORBIT_SPLITTINGS[3]], ids=repr)
@pytest.mark.parametrize("p", [1, -2])
def test_hand_built_twists_take_the_scan(monkeypatch, pres, p):
    # Only dehn_twist records its power: an equal map built from the same
    # images is not recognised, and its orbit is the twist family's.
    twist = dehn_twist(pres, p)
    hand_built = Endomorphism(pres, twist.images)
    assert hand_built == twist and hand_built.twist_power is None and twist.twist_power == p
    family = lambda n: Endomorphism(pres, dehn_twist(pres, p * n).images)
    for name in pres.alphabet.generators:
        element = pres.word(name)
        assert pres.twist_fixes(hand_built, element) is None
        calls = count_equality_tests(monkeypatch)
        report = orbit_bounded(family, element, 6)
        assert calls
        monkeypatch.undo()
        assert report == orbit_bounded(lambda n: dehn_twist(pres, p * n), element, 6)


def test_twist_fixes_needs_a_twist_of_its_own_splitting():
    hnn, amalgam = ORBIT_SPLITTINGS[0], ORBIT_SPLITTINGS[3]
    other_amalgam = parse_presentation("gens p q\ngens r s\namalgam : p = s\n")
    for p1, p2 in [(hnn, ORBIT_SPLITTINGS[1]), (amalgam, other_amalgam), (ORBIT_SPLITTINGS[1], amalgam)]:
        element = p2.word(p2.alphabet.generators[0])
        assert p2.twist_fixes(dehn_twist(p2, 1), element) is not None
        assert p2.twist_fixes(dehn_twist(p1, 1), element) is None
    # A presentation equal by value is the same splitting.
    same = build_counterexample(0).pres
    assert same is not hnn and same.twist_fixes(dehn_twist(hnn, 1), same.word("a")) is True


# <p, q> *_{[p, q] = s} <s>: no generator moves, so every twist is the
# identity map; c2 = s is root-free, so the exact path answers.
RANK_ONE_FACTOR = parse_presentation("gens p q\ngens s\namalgam : p q p^-1 q^-1 = s\n")


@pytest.mark.parametrize("scale", [1, -2])
def test_rank_one_second_factor_takes_the_exact_path(monkeypatch, scale):
    pres = RANK_ONE_FACTOR
    family = lambda n: dehn_twist(pres, scale * n)
    assert family(1) == identity_map(pres)
    for text in ("p", "q", "s", "p s^2 q^-1", "s^-1 q p"):
        element = pres.word(text)
        calls = count_equality_tests(monkeypatch)
        report = orbit_bounded(family, element, 12)
        assert calls == []
        monkeypatch.undo()
        assert report == oracle.orbit_pairwise(family, element, 12)
        assert pres.twist_fixes(family(1), element) is True


def test_orbit_of_a_million_twists_without_equality_tests(monkeypatch, setup):
    # The ROADMAP target: a moved element at n = 10^6 answers at once.
    pres = setup.pres
    family = lambda n: dehn_twist(pres, n)
    calls = count_equality_tests(monkeypatch)
    moved = orbit_bounded(family, pres.word("t"), 10**6)
    assert (moved.distinct_count, moved.first_collision) == (10**6 + 1, None)
    fixed = orbit_bounded(family, pres.word("t^-1 u t"), 10**6)
    assert (fixed.distinct_count, fixed.first_collision) == (1, (0, 1))
    assert calls == []


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
    assert identity_map(domain).is_homomorphism


@st.composite
def maps_on_domains(draw):
    """A drawn map on the free group, or on an HNN extension or an amalgam
    with drawn edge words (hypotheses not required)."""
    kind = draw(st.sampled_from(("free", "hnn", "amalgam")))
    if kind == "amalgam":
        f1, f2 = Alphabet("p q"), Alphabet("r s")
        c1, c2 = draw(reduced_words(f1, 4)), draw(reduced_words(f2, 4))
        assume(c1 and c2)
        domain = AmalgamPresentation(f1, f2, c1, c2)
    else:
        domain = Alphabet("a b c")
        if kind == "hnn":
            u, v = draw(reduced_words(domain, 4)), draw(reduced_words(domain, 4))
            assume(u and v)
            domain = HnnPresentation(domain, "t", u, v)
    alphabet = domain.alphabet
    return Endomorphism(domain, {name: draw(reduced_words(alphabet, 5)) for name in alphabet.generators})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(maps_on_domains())
def test_letter_built_tables_equal_word_algebra(f):
    # The substitution table's inverse rows and each splitting's kept
    # relator are built from letters; Word algebra builds them afresh.
    domain = f.domain
    for i, name in enumerate(domain.alphabet.generators, 1):
        assert f._table[i] == f.images[name].letters
        assert f._table[-i] == (~f.images[name]).letters
    if isinstance(domain, HnnPresentation):
        t = domain.word("t")
        assert domain.relators == (~t * domain.lift(domain.u) * t * ~domain.lift(domain.v),)
    elif isinstance(domain, AmalgamPresentation):
        assert domain.relators == (domain.to_union(1, domain.c1) * ~domain.to_union(2, domain.c2),)


def test_amalgam_non_homomorphism_is_rejected(amalgam):
    # p -> p^2, r -> r breaks the relation p = r of <p, q> *_{p = r} <r, s>.
    assert not endo(amalgam, p="p^2", q="q", r="r", s="s").is_homomorphism


def test_abelianization_matrix(f2):
    nielsen = endo(f2, x="x y", y="y")
    assert abelianization_matrix(nielsen) == [[1, 0], [1, 1]]
    assert integer_determinant([[2, 0], [0, 3]]) == 6
    assert integer_determinant([[0, 1], [1, 0]]) == -1
