import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stallings_oracle as oracle
from freegroups import stallings
from freegroups.stallings import (
    SubgroupGraph,
    graph_from_text,
    intersect,
    is_malnormal,
    subgroup_graph,
)
from freegroups.words import (
    Alphabet,
    Word,
    extract_root,
    identity,
    iter_reduced_words,
)

from conftest import random_reduced, reduced_words, w


def is_cyclically_reduced(w: Word) -> bool:
    lets = w.letters
    return len(lets) < 2 or lets[0] != -lets[-1]


def test_single_loop(f2):
    g = subgroup_graph(f2, [w(f2, "x")])
    assert len(g.vertices) == 1
    assert len(g.edges) == 1
    assert g.rank() == 1


def test_folding_example(f2):
    # Hand oracle via cosets: the prefixes of {x^2, x y x^-1} fall into the
    # two cosets H and Hx (x y x^-1 in H identifies Hxy with Hx), so the
    # folded core has two vertices and rank 2.
    g = subgroup_graph(f2, [w(f2, "x^2"), w(f2, "x y x^-1")])
    assert len(g.vertices) == 2
    assert g.rank() == 2


def test_empty_generating_set(f2):
    g = subgroup_graph(f2, [])
    assert len(g.vertices) == 1
    assert len(g.edges) == 0
    assert g.rank() == 0
    assert g.contains(identity(f2))
    assert not g.contains(w(f2, "x"))
    assert SubgroupGraph(f2, []) == g
    assert SubgroupGraph(f2, []).vertices == {0}
    assert SubgroupGraph(f2, []).rank() == 0
    # step: None for a missing edge and for a vertex not in the graph.
    assert g.step(0, 1) is None
    assert g.step(5, 1) is None
    loop = subgroup_graph(f2, [w(f2, "x")])
    assert (loop.step(0, 1), loop.step(0, -1)) == (0, 0)
    assert loop.step(0, 2) is None
    assert loop.step(1, 1) is None


def test_contains_examples(f2):
    gx = subgroup_graph(f2, [w(f2, "x")])
    assert gx.contains(w(f2, "x^3"))
    assert not gx.contains(w(f2, "y"))
    g = subgroup_graph(f2, [w(f2, "x^2"), w(f2, "x y x^-1")])
    assert g.contains(w(f2, "x y x^-1 x^2"))


def test_contains_brute_force_products(f2):
    rng = random.Random(3)
    for _ in range(20):
        gens = [random_reduced(rng, f2, 4, min_len=1) for _ in range(rng.randint(1, 3))]
        graph = subgroup_graph(f2, gens)
        pool = gens + [~g for g in gens]
        for k in range(1, 4):
            for combo in itertools.product(pool, repeat=k):
                product = identity(f2)
                for word_ in combo:
                    product = product * word_
                assert graph.contains(product)


def test_basis_examples(f2):
    rose = subgroup_graph(f2, [w(f2, "x"), w(f2, "y")])
    rank = rose.rank()
    basis = rose.basis()
    assert rank == 2
    assert sorted(str(b) for b in basis) == ["x", "y"]
    g = subgroup_graph(f2, [w(f2, "x^2"), w(f2, "x y x^-1")])
    assert g.rank() == 2
    trivial = subgroup_graph(f2, [])
    assert trivial.rank() == 0 and trivial.basis() == []


def test_basis_round_trip(f2, f3):
    rng = random.Random(17)
    for alphabet in (f2, f3):
        for _ in range(25):
            gens = [random_reduced(rng, alphabet, 5, min_len=1) for _ in range(rng.randint(1, 3))]
            graph = subgroup_graph(alphabet, gens)
            rebuilt = subgroup_graph(alphabet, graph.basis())
            assert rebuilt == graph


def test_folding_confluence(f2):
    rng = random.Random(29)
    for _ in range(20):
        gens = [random_reduced(rng, f2, 5, min_len=1) for _ in range(3)]
        graphs = {subgroup_graph(f2, list(perm)) for perm in itertools.permutations(gens)}
        assert len(graphs) == 1


def test_intersect_examples(f2):
    gx = subgroup_graph(f2, [w(f2, "x")])
    gy = subgroup_graph(f2, [w(f2, "y")])
    assert intersect(gx, gy).rank() == 0

    g2 = subgroup_graph(f2, [w(f2, "x^2")])
    g3 = subgroup_graph(f2, [w(f2, "x^3")])
    meet = intersect(g2, g3)
    for k in range(-12, 13):
        expected = k % 6 == 0
        assert meet.contains(w(f2, "x") ** k) == expected
    assert meet == subgroup_graph(f2, [w(f2, "x^6")])

    gxy2 = subgroup_graph(f2, [w(f2, "x"), w(f2, "y^2")])
    gy = subgroup_graph(f2, [w(f2, "y")])
    meet2 = intersect(gxy2, gy)
    for k in range(-8, 9):
        assert meet2.contains(w(f2, "y") ** k) == (k % 2 == 0)
    assert not meet2.contains(w(f2, "x"))


def test_intersect_membership_conjunction(f2):
    rng = random.Random(37)
    for _ in range(8):
        g1 = subgroup_graph(
            f2, [random_reduced(rng, f2, 4, min_len=1) for _ in range(rng.randint(1, 3))]
        )
        g2 = subgroup_graph(
            f2, [random_reduced(rng, f2, 4, min_len=1) for _ in range(rng.randint(1, 3))]
        )
        meet = intersect(g1, g2)
        for word_ in iter_reduced_words(f2, 6):
            assert meet.contains(word_) == (g1.contains(word_) and g2.contains(word_))


def test_malnormal_examples(f2, f3, h_rank4):
    assert is_malnormal(subgroup_graph(f2, [w(f2, "x")]))
    assert not is_malnormal(subgroup_graph(f2, [w(f2, "x^2")]))
    v = w(h_rank4, "a y b y a y^-1 b y^-1")
    assert extract_root(v) == (v, 1)
    assert is_malnormal(subgroup_graph(h_rank4, [v]))
    assert is_malnormal(subgroup_graph(h_rank4, [w(h_rank4, "u")]))
    # The whole group is trivially non-malnormal once rank >= 1 conjugates
    # land inside it; the rose has the diagonal component only, so stays True.
    assert is_malnormal(subgroup_graph(f2, [w(f2, "x"), w(f2, "y")]))
    # Over x y z, each row also against the oracle.  In the first, x and y
    # both join {0, p} to {1, q}, where z reaches p: parallel edges once the
    # product's pairs are taken unordered.
    for gens, expected in [(["x y^-1", "z x y^-1 z^-1"], False), (["x y^-1 z", "y z^-1 x"], True)]:
        graph = subgroup_graph(f3, [w(f3, g) for g in gens])
        assert is_malnormal(graph) is oracle.is_malnormal(graph.edges) is expected, gens


def test_malnormal_matches_root_free_for_cyclic(f2):
    rng = random.Random(43)
    for _ in range(40):
        word_ = random_reduced(rng, f2, 6, min_len=1)
        graph = subgroup_graph(f2, [word_])
        assert is_malnormal(graph) == (extract_root(word_)[1] == 1)


def test_serialization_round_trip(f2):
    g = subgroup_graph(f2, [w(f2, "x^2"), w(f2, "x y x^-1")])
    text = g.to_text()
    assert text.splitlines()[0] == "gens x y"
    assert graph_from_text(text) == g


def test_equality_is_label_isomorphism_for_built_graphs_only(f2):
    # The constructor keeps the caller's vertex ids; a graph file is renumbered.
    fold = subgroup_graph(f2, [w(f2, "x^2"), w(f2, "x y x^-1"), w(f2, "y x y^-1")])
    relabelled = SubgroupGraph(f2, {(-7 * src, g, -7 * dst) for src, g, dst in fold.edges})
    assert relabelled != fold
    assert graph_from_text(relabelled.to_text()) == fold


def test_graph_from_text_errors():
    with pytest.raises(ValueError):
        graph_from_text("0 x 1\n")
    with pytest.raises(ValueError):
        graph_from_text("gens x\nbase 1\n")
    with pytest.raises(ValueError):
        graph_from_text("gens x\n0 x 1\n2 x 3\n")
    # A later gens line would relabel the edges read before it.
    with pytest.raises(ValueError, match="repeated gens line 'gens x y z'"):
        graph_from_text("gens a b\nbase 0\n0 a 1\n1 b 0\ngens x y z\n")
    # Vertices are ASCII integers: int() would read an Arabic-Indic three.
    with pytest.raises(ValueError, match="^bad edge line '\u0663 x 0'$"):
        graph_from_text("gens x y\nbase 0\n\u0663 x 0\n")
    for unfolded in ("0 x 1\n0 x 2\n", "1 x 0\n2 x 0\n"):
        with pytest.raises(ValueError, match="graph is not folded"):
            graph_from_text("gens x y\nbase 0\n" + unfolded)


def test_not_folded_rejected(f2):
    with pytest.raises(ValueError):
        SubgroupGraph(f2, {(0, 1, 1), (0, 1, 2)})
    with pytest.raises(ValueError, match="graph is not folded"):
        SubgroupGraph(f2, {(1, 1, 0), (2, 1, 0)})


@pytest.mark.parametrize("edges, label", [
    ([(0, -1, 1), (1, 2, 0)], -1),  # would read as x^-1 y
    ([(0, 0, 0)], 0),  # would read as a y^-1 loop
    ([(0, 5, 0)], 5),  # basis() and to_text() would raise IndexError
])
def test_edge_labels_outside_the_rank_rejected(f2, edges, label):
    with pytest.raises(ValueError, match=f"^edge label {label} is not a generator of rank 2$"):
        SubgroupGraph(f2, edges)


def test_disconnected_edge_sets_rejected(f2):
    # A loop away from the base: rank 0 and "malnormal" if it were accepted.
    with pytest.raises(ValueError, match="^graph must be connected to base vertex 0$"):
        SubgroupGraph(Alphabet(["x"]), {(1, 1, 1)})
    # Two components, each folded: x^2 at the base and a y-loop on 2, 3.
    with pytest.raises(ValueError, match="^graph must be connected to base vertex 0$"):
        SubgroupGraph(f2, {(0, 1, 1), (1, 1, 0), (2, 2, 3), (3, 2, 2)})
    assert SubgroupGraph(f2, {(0, 1, 1), (1, 1, 0), (1, 2, -7)}).vertices == {0, 1, -7}


def test_express_in_basis(f2):
    g = subgroup_graph(f2, [w(f2, "x^2"), w(f2, "x y x^-1")])
    basis = g.basis()
    rng = random.Random(53)
    for _ in range(40):
        expr = [rng.choice([1, -1]) * rng.randint(1, len(basis)) for _ in range(rng.randint(0, 4))]
        member = identity(f2)
        for idx in expr:
            member = member * (basis[idx - 1] if idx > 0 else ~basis[-idx - 1])
        coords = g.express_in_basis(member)
        assert coords is not None
        rebuilt = identity(f2)
        for idx in coords:
            rebuilt = rebuilt * (basis[idx - 1] if idx > 0 else ~basis[-idx - 1])
        assert rebuilt == member
    assert g.express_in_basis(w(f2, "y")) is None


def test_express_in_basis_checks_the_alphabet(f2):
    # Like contains: p^2 over p q is not read as x^2 over x y.
    g = subgroup_graph(f2, [w(f2, "x^2"), w(f2, "x y x^-1")])
    pq = Alphabet(["p", "q"])
    with pytest.raises(ValueError, match="alphabet mismatch"):
        g.contains(w(pq, "p^2"))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        g.express_in_basis(w(pq, "p^2"))


# ---------------------------------------------------------------------------
# Differential tests against the original quadratic path (stallings_oracle).

DIFFERENTIAL = settings(derandomize=True, max_examples=200, deadline=None)
ALPHABETS = [Alphabet([f"g{i}" for i in range(1, rank + 1)]) for rank in range(1, 5)]


@st.composite
def generator_lists(draw):
    """An alphabet of rank 1-4 and 0-5 reduced words of length 0-12."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    return alphabet, draw(st.lists(reduced_words(alphabet, 12), max_size=5))


@st.composite
def graph_texts(draw):
    """A connected folded graph in file form, core or not (hairs and all)."""
    rank = draw(st.integers(1, 3))
    out, inc, lines = set(), set(), []
    vertices = 1
    for _ in range(draw(st.integers(0, 14))):
        src = draw(st.integers(0, vertices - 1))
        dst = draw(st.integers(0, vertices))  # == vertices: a new one
        if draw(st.booleans()):
            src, dst = dst, src
        g = draw(st.integers(1, rank))
        if (src, g) in out or (dst, g) in inc:
            continue
        out.add((src, g))
        inc.add((dst, g))
        lines.append(f"{src} g{g} {dst}")
        vertices += vertices in (src, dst)
    gens = " ".join(f"g{g}" for g in range(1, rank + 1))
    return "\n".join([f"gens {gens}", "base 0"] + lines) + "\n"


@DIFFERENTIAL
@given(generator_lists())
def test_fold_matches_oracle(case):
    alphabet, gens = case
    assert subgroup_graph(alphabet, gens).edges == oracle.subgroup_edges(alphabet.rank, gens)


@st.composite
def related_generator_lists(draw):
    """Generators built from earlier ones, so that reads run far into the graph.

    Each later word is a product, inverse, conjugate or power of earlier
    ones, shares a prefix or suffix with one, or is a product of them, a
    word already in the subgroup.
    """
    alphabet = draw(st.sampled_from(ALPHABETS))
    gens = [draw(reduced_words(alphabet, 10))]
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        other = draw(reduced_words(alphabet, 6))
        cut = draw(st.integers(0, len(a)))
        kind = draw(st.sampled_from(["product", "inverse", "conjugate", "power", "prefix", "suffix", "member"]))
        if kind == "product":
            new = a * b
        elif kind == "inverse":
            new = ~a
        elif kind == "conjugate":
            new = other * a * ~other
        elif kind == "power":
            new = a ** draw(st.integers(2, 4))
        elif kind == "prefix":
            new = Word(alphabet, a.letters[:cut]) * other
        elif kind == "suffix":
            new = other * Word(alphabet, a.letters[cut:])
        else:
            new = Word(alphabet, ())
            for g in draw(st.lists(st.sampled_from(gens), min_size=1, max_size=4)):
                new = new * (g if draw(st.booleans()) else ~g)
        gens.append(new)
    return alphabet, gens


@DIFFERENTIAL
@given(related_generator_lists())
def test_fold_of_related_generators_matches_oracle(case):
    alphabet, gens = case
    assert subgroup_graph(alphabet, gens).edges == oracle.subgroup_edges(alphabet.rank, gens)


@pytest.mark.parametrize(
    "gens, expected",
    [
        # The third word is already in the subgroup: both reads end at one vertex.
        (["x^2", "x y x^-1", "x^3 y x^-1"], ["x^2", "x y x^-1"]),
        # x^3 reads all the way round the 5-cycle of x^5 and meets the base at
        # vertex 3: the identification cascades down the cycle to one loop.
        (["x^5", "x^3"], ["x"]),
        (["x y x y x y x y", "x y x y x y x y x y x y"], ["x y x y"]),
        # x closes a new loop on the triangle of x^2 y; merging its ends
        # folds the triangle to the rose.
        (["x^2 y", "x"], ["x", "y"]),
    ],
)
def test_fold_when_the_reads_meet(f2, gens, expected):
    words = [w(f2, g) for g in gens]
    graph = subgroup_graph(f2, words)
    assert graph.edges == oracle.subgroup_edges(2, words)
    assert graph == subgroup_graph(f2, [w(f2, g) for g in expected])


@DIFFERENTIAL
@given(generator_lists(), st.data())
def test_fold_invariant_under_order_and_inversion(case, data):
    alphabet, gens = case
    flips = data.draw(st.lists(st.booleans(), min_size=len(gens), max_size=len(gens)))
    moved = data.draw(st.permutations([~x if f else x for x, f in zip(gens, flips)]))
    assert subgroup_graph(alphabet, moved) == subgroup_graph(alphabet, gens)


@DIFFERENTIAL
@given(generator_lists(), st.data())
def test_malnormal_and_intersect_match_oracle(case, data):
    alphabet, gens = case
    graph = subgroup_graph(alphabet, gens)
    assert is_malnormal(graph) == oracle.is_malnormal(graph.edges)
    other = subgroup_graph(alphabet, data.draw(st.lists(reduced_words(alphabet, 12), max_size=3)))
    expected = oracle.intersect_edges(alphabet.rank, graph.edges, other.edges)
    assert intersect(graph, other).edges == expected


@DIFFERENTIAL
@given(graph_texts())
def test_malnormal_matches_oracle_on_non_core_graphs(text):
    graph = graph_from_text(text)
    assert is_malnormal(graph) == oracle.is_malnormal(graph.edges)
    # A graph file is renumbered, never trimmed: its hairs stay.
    gens, _, *lines = text.splitlines()
    rank = len(gens.split()) - 1
    file_edges = set()
    for line in lines:
        src, label, dst = line.split()
        file_edges.add((int(src), int(label.removeprefix("g")), int(dst)))
    assert graph.edges == oracle.canonical(rank, file_edges, 0)
    assert [b.letters for b in graph.basis()] == oracle.basis(rank, graph.edges)


@DIFFERENTIAL
@given(graph_texts(), st.data())
def test_malnormal_matches_oracle_on_arbitrary_vertex_ids(text, data):
    # The public constructor keeps its vertex ids: sparse, negative, any
    # order, as long as every vertex is joined to base vertex 0.  Ids drawn
    # from a few times V make a product key built from raw ids collide.
    gens, _, *lines = text.splitlines()
    alphabet = Alphabet(gens.split()[1:])
    edges = {(int(src), alphabet.index(label) + 1, int(dst)) for src, label, dst in map(str.split, lines)}
    vertices = sorted({0} | {v for src, _, dst in edges for v in (src, dst)})
    others = st.integers(-2 * len(vertices), 2 * len(vertices)).filter(bool)
    ids = data.draw(st.lists(others, min_size=len(vertices) - 1, max_size=len(vertices) - 1, unique=True))
    rename = dict(zip(vertices, [0] + ids))
    moved = {(rename[src], g, rename[dst]) for src, g, dst in edges}
    assert is_malnormal(SubgroupGraph(alphabet, moved)) == oracle.is_malnormal(moved) == oracle.is_malnormal(edges)


# ---------------------------------------------------------------------------
# Sizes at which a super-linear fold or malnormality test would not finish.
# The answers are known by construction; nothing is timed.


@DIFFERENTIAL
@given(generator_lists(), st.data())
def test_basis_and_express_match_oracle(case, data):
    alphabet, gens = case
    graph = subgroup_graph(alphabet, gens)
    edges, rank = graph.edges, alphabet.rank
    assert [b.letters for b in graph.basis()] == oracle.basis(rank, edges)
    probes = [data.draw(reduced_words(alphabet, 12)) for _ in range(3)]
    for _ in range(3):  # members: products of generators and their inverses
        factors = data.draw(st.lists(st.sampled_from(gens), max_size=4)) if gens else []
        member = Word(alphabet, ())
        for g in factors:
            member = member * (g if data.draw(st.booleans()) else ~g)
        probes.append(member)
    for probe in probes:
        assert graph.express_in_basis(probe) == oracle.express(rank, edges, probe.letters)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(generator_lists(), st.data())
def test_repeated_express_in_basis_matches_oracle(case, data):
    # The spanning tree is made once per graph and shared with basis(): every
    # call, in any order and repeated, answers as a fresh tree would.
    alphabet, gens = case
    graph = subgroup_graph(alphabet, gens)
    edges, rank = graph.edges, alphabet.rank
    calls, bfs = [], stallings._bfs
    stallings._bfs = lambda *args: calls.append(args) or bfs(*args)  # counts the spanning-tree searches
    try:
        for round_ in range(3):
            probes = [data.draw(reduced_words(alphabet, 12)) for _ in range(2)]
            if gens:  # a member: a product of generators
                factors = data.draw(st.lists(st.sampled_from(gens), max_size=3))
                probes.append(Word(alphabet, [l for g in factors for l in g.letters]))
            for probe in probes + probes:
                assert graph.express_in_basis(probe) == oracle.express(rank, edges, probe.letters)
            if round_ == 1:
                assert [b.letters for b in graph.basis()] == oracle.basis(rank, edges)
    finally:
        stallings._bfs = bfs
    assert len(calls) == 1


def _root_free_cyclic(rng: random.Random, alphabet: Alphabet, length: int) -> Word:
    while True:
        word_ = random_reduced(rng, alphabet, length, min_len=length)
        if is_cyclically_reduced(word_) and extract_root(word_) == (word_, 1):
            return word_


def test_fold_long_conjugator(f3):
    # p ends in z, so p x^i y x^-i p^-1 is reduced; the x^i y x^-i
    # (i = 0..5) are a free basis, so the conjugates generate rank 6.
    rng = random.Random(61)
    p = random_reduced(rng, f3, 999, min_len=999)
    while p.letters[-1] == -3:
        p = random_reduced(rng, f3, 999, min_len=999)
    p = p * w(f3, "z")
    assert len(p) == 1000
    gens = [p * w(f3, "x") ** i * w(f3, "y") * w(f3, "x") ** -i * ~p for i in range(6)]
    graph = subgroup_graph(f3, gens)
    assert graph.rank() == 6
    assert all(graph.contains(g) for g in gens)


def test_fold_many_conjugates_by_one_long_word(f3):
    # Twenty conjugates p x^i y x^-i p^-1 with |p| = 240, 10,000 letters in
    # all, then their product, a member.  The graph is the path p and a comb
    # at its end: x-path of 19 edges, a y-loop at each of its 20 vertices.
    rng = random.Random(73)
    p = random_reduced(rng, f3, 239, min_len=239)
    while p.letters[-1] == -3:
        p = random_reduced(rng, f3, 239, min_len=239)
    p = p * w(f3, "z")
    x, y = w(f3, "x"), w(f3, "y")
    gens = [p * x**i * y * x**-i * ~p for i in range(20)]
    assert sum(map(len, gens)) == 10_000
    product = identity(f3)
    for g in gens:
        product = product * g
    graph = subgroup_graph(f3, gens + [product])
    assert (len(graph.vertices), len(graph.edges), graph.rank()) == (260, 279, 20)
    assert all(graph.contains(g) for g in gens)
    assert not graph.contains(p * x**20 * y * x**-20 * ~p)


def test_malnormal_long_root_free_word(f2):
    word_ = _root_free_cyclic(random.Random(67), f2, 600)
    assert is_malnormal(subgroup_graph(f2, [word_]))


def test_not_malnormal_long_square(f2):
    word_ = _root_free_cyclic(random.Random(71), f2, 300)
    assert not is_malnormal(subgroup_graph(f2, [word_**2]))
