import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import whitehead_oracle as oracle
from freegroups import stallings, whitehead
from freegroups.whitehead import (
    WhiteheadMove,
    _descend,
    _drop_lone,
    _first_move,
    _max_flow,
    _min_cut_move,
    _multiplier_move,
    is_free_factor,
    is_primitive,
    minimize_tuple,
    whitehead_moves,
)
from freegroups.words import Alphabet, Word, abelianize, commutator, cyclically_reduce, identity, iter_reduced_words

from conftest import integer_determinant, random_reduced, reduced_words, w
from whitehead_oracle import _deltas


def type_ii_move_count(rank: int) -> int:
    """Closed form: 2n multipliers, 2^(2n-2) - 1 nontrivial sets each."""
    if rank == 0:
        return 0
    return 2 * rank * (2 ** (2 * rank - 2) - 1)


def test_rank_one_moves():
    f1 = Alphabet("x")
    moves = whitehead_moves(f1)
    assert len(moves) == 2
    assert all(m.kind == "permutation" for m in moves)
    images = {m.images for m in moves}
    assert images == {(1,), (-1,)}


def test_move_counts(f2, f3):
    for alphabet, n in ((f2, 2), (f3, 3)):
        moves = whitehead_moves(alphabet)
        type_i = [m for m in moves if m.kind == "permutation"]
        type_ii = [m for m in moves if m.kind == "multiplier"]
        assert len(type_i) == 2**n * [1, 1, 2, 6][n]
        assert len(type_ii) == type_ii_move_count(n)
    assert type_ii_move_count(2) == 12
    assert type_ii_move_count(3) == 90


def test_unknown_kinds_is_rejected(f2):
    with pytest.raises(ValueError, match="'both', 'permutation' or 'multiplier'"):
        whitehead_moves(f2, kinds="multipliers")


def test_nielsen_move_present(f2):
    # x -> x y, y -> y is the multiplier move (A = {x, y}, a = y).
    target = {"x": w(f2, "x y"), "y": w(f2, "y")}
    for move in whitehead_moves(f2, kinds="multiplier"):
        if all(move.apply(w(f2, name)) == img for name, img in target.items()):
            return
    raise AssertionError("Nielsen move x -> xy missing from move list")


def test_move_inverse_identity(f2):
    rng = random.Random(7)
    moves = whitehead_moves(f2)
    samples = [random_reduced(rng, f2, 8) for _ in range(20)]
    for move in moves:
        inverse = move.inverse()
        for word_ in samples:
            assert inverse.apply(move.apply(word_)) == word_
            assert move.apply(inverse.apply(word_)) == word_


def test_move_is_automorphism(f2):
    from freegroups.endos import is_automorphism_free

    for move in whitehead_moves(f2):
        assert is_automorphism_free(oracle.endomorphism(move))


def test_minimize_examples(f2):
    trace = minimize_tuple([w(f2, "x y")])
    assert trace.final_length == 1
    assert len(trace.final[0]) == 1

    trace = minimize_tuple([w(f2, "x")])
    assert trace.moves == ()
    assert trace.final == (w(f2, "x"),)

    trace = minimize_tuple([commutator(w(f2, "x"), w(f2, "y"))])
    assert trace.final_length == 4


def test_minimize_trace_replays(f2):
    rng = random.Random(13)
    for _ in range(30):
        words = tuple(random_reduced(rng, f2, 6) for _ in range(rng.randint(1, 3)))
        trace = minimize_tuple(words)
        current = list(trace.initial)
        total = sum(len(x) for x in current)
        for move in trace.moves:
            current = [move.apply(x) for x in current]
            new_total = sum(len(x) for x in current)
            assert new_total <= total
            total = new_total
        assert tuple(current) == trace.final


def test_is_primitive_examples(f2):
    assert is_primitive(w(f2, "x"))
    assert is_primitive(w(f2, "x y"))
    assert not is_primitive(commutator(w(f2, "x"), w(f2, "y")))
    assert not is_primitive(w(f2, "x^2"))
    assert not is_primitive(w(f2, "x^2 y^2"))
    with pytest.raises(ValueError):
        is_primitive(identity(f2))


def test_is_primitive_rank_one():
    f1 = Alphabet("x")
    assert is_primitive(w(f1, "x"))
    assert is_primitive(w(f1, "x^-1"))
    assert not is_primitive(w(f1, "x^2"))


def test_is_free_factor_examples(f2):
    assert is_free_factor([w(f2, "x")], f2)
    assert not is_free_factor([w(f2, "x^2")], f2)
    assert is_free_factor([w(f2, "x"), w(f2, "y")], f2)
    assert is_free_factor([], f2)
    assert is_free_factor([w(f2, "y x y^-1")], f2)
    assert not is_free_factor([w(f2, "x^2"), w(f2, "y")], f2)
    assert not is_free_factor([w(f2, "x^2 y^2")], f2)


def test_is_free_factor_precondition(f2):
    with pytest.raises(ValueError):
        is_free_factor([w(f2, "x"), w(f2, "x^-1")], f2)
    with pytest.raises(ValueError):
        is_free_factor([w(f2, "x y"), w(f2, "x"), w(f2, "y")], f2)


def test_is_free_factor_cap(f2):
    """The test is exact: there is no search cap, and the input that once exceeded one is decided."""
    with pytest.raises(TypeError):
        is_free_factor([w(f2, "x^2 y^2")], f2, max_visited=1)
    assert is_free_factor([w(f2, "x^2 y^2")], f2) is False


def test_primitive_iff_singleton_free_factor_small(f2):
    for word_ in iter_reduced_words(f2, 4, min_len=1):
        assert is_primitive(word_) == is_free_factor([word_], f2)


def test_automorphism_invariance(f2):
    rng = random.Random(19)
    moves = whitehead_moves(f2)
    for _ in range(40):
        word_ = random_reduced(rng, f2, 6, min_len=1)
        image = word_
        for _ in range(rng.randint(1, 3)):
            image = rng.choice(moves).apply(image)
        if not image:
            continue
        assert is_primitive(word_) == is_primitive(image)


# ---------------------------------------------------------------------------
# Differential tests against applying every move (whitehead_oracle).

DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None)
ALPHABETS = {rank: Alphabet([f"g{i}" for i in range(1, rank + 1)]) for rank in range(1, 13)}
MOVES = {rank: whitehead_moves(ALPHABETS[rank]) for rank in range(1, 6)}


@st.composite
def word_tuples(draw, ranks=(1, 2, 3, 4, 5), max_len=10, max_size=3):
    """An alphabet of one of the given ranks and 1..max_size reduced words."""
    alphabet = ALPHABETS[draw(st.sampled_from(ranks))]
    return alphabet, tuple(draw(st.lists(reduced_words(alphabet, max_len), min_size=1, max_size=max_size)))


@st.composite
def moved_generators(draw, ranks, size):
    """The images of ``size`` distinct generators under 0-4 random Whitehead moves."""
    rank = draw(st.sampled_from(ranks))
    alphabet = ALPHABETS[rank]
    words = [Word(alphabet, (g,)) for g in range(1, size + 1)]
    for _ in range(draw(st.integers(0, 4))):
        move = draw(st.sampled_from(MOVES[rank]))
        words = [move.apply(x) for x in words]
    return alphabet, tuple(words)


def _assert_deltas_exact(alphabet, words, cyclic):
    if cyclic:
        words = tuple(cyclically_reduce(x)[0] for x in words)
    before = sum(map(len, words))
    shape = oracle.cyclic_core if cyclic else (lambda letters: letters)
    deltas = [
        (_multiplier_move(alphabet, a, others, mask), d[mask])
        for a, others, d in _deltas(words, cyclic)
        for mask in range(1, len(d))
    ]
    assert [m for m, _ in deltas] == whitehead_moves(alphabet, kinds="multiplier")
    for move, delta in deltas:
        after = sum(len(shape(oracle.apply(move, x.letters))) for x in words)
        assert delta == after - before, (move, words)


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_delta_exact_on_empty_and_one_letter_words(rank, cyclic):
    alphabet = ALPHABETS[rank]
    empty = Word(alphabet, ())
    for letter in {1, -1, rank, -rank}:  # first and last generator, both signs
        one = Word(alphabet, (letter,))
        for words in ((empty,), (one,), (empty, one), (one, Word(alphabet, (letter, letter)))):
            _assert_deltas_exact(alphabet, words, cyclic)


@DIFFERENTIAL
@given(word_tuples(max_len=12), st.booleans())
def test_delta_equals_length_change(case, cyclic):
    _assert_deltas_exact(*case, cyclic)


def _assert_descent_matches(alphabet, words, cyclic):
    trace = minimize_tuple(words, cyclic=cyclic)
    moves, final = oracle.minimize(alphabet, [x.letters for x in words], cyclic)
    assert list(trace.moves) == moves
    assert tuple(x.letters for x in trace.final) == final


@DIFFERENTIAL
@given(word_tuples(ranks=(1, 2, 3, 4)), st.booleans())
def test_descent_matches_oracle(case, cyclic):
    _assert_descent_matches(*case, cyclic)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(word_tuples(ranks=(5,), max_len=6, max_size=2), st.booleans())
def test_descent_matches_oracle_rank_five(case, cyclic):
    _assert_descent_matches(*case, cyclic)


@DIFFERENTIAL
@given(st.one_of(word_tuples(ranks=(1, 2, 3, 4), max_size=1), moved_generators((2, 3, 4), 1)))
def test_is_primitive_matches_oracle(case):
    alphabet, (word_,) = case
    if word_:
        assert is_primitive(word_) == oracle.is_primitive(alphabet, word_.letters)


# ---------------------------------------------------------------------------
# The deciders' min-cut picker against the enumerated deltas.


def _shape(cyclic):
    return oracle.cyclic_core if cyclic else (lambda letters: letters)


def _assert_min_cut_exact(alphabet, words, cyclic):
    """The picker's move changes the length by the most negative delta of any move, or is None.

    Its multiplier is the first in canonical order with that delta, and
    its set A lies inside every other set of that multiplier and delta.
    """
    rows = [(a, others, d) for a, others, d in _deltas(words, cyclic) if len(d) > 1]
    steepest = min((min(d[1:]) for _, _, d in rows), default=0)
    move = _min_cut_move(words, cyclic)
    if steepest >= 0:
        assert move is None, words
        return None
    after = sum(len(_shape(cyclic)(oracle.apply(move, x.letters))) for x in words)
    assert after - sum(map(len, words)) == steepest, (move, words)
    a, others, d = next(row for row in rows if min(row[2][1:]) == steepest)
    cuts = [_multiplier_move(alphabet, a, others, m) for m in range(1, len(d)) if d[m] == steepest]
    assert move in cuts and all(move.affected <= cut.affected for cut in cuts), (move, words)
    return move


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_min_cut_exact_on_empty_and_one_letter_words(rank, cyclic):
    alphabet = ALPHABETS[rank]
    empty = Word(alphabet, ())
    for letter in {1, -1, rank, -rank}:
        one = Word(alphabet, (letter,))
        for words in ((empty,), (one,), (empty, one), (one, Word(alphabet, (letter, letter)))):
            _assert_min_cut_exact(alphabet, words, cyclic)


@DIFFERENTIAL
@given(word_tuples(ranks=(1, 2, 3, 4, 5, 6), max_len=12), st.booleans())
def test_min_cut_move_is_steepest(case, cyclic):
    # The deciders' descent, checked at every step: each move shortens by the
    # steepest delta, and the descent ends at the first-move descent's length.
    alphabet, start = case
    words = tuple(Word(alphabet, _shape(cyclic)(x.letters)) for x in start)
    while (move := _assert_min_cut_exact(alphabet, words, cyclic)) is not None:
        words = tuple(Word(alphabet, _shape(cyclic)(oracle.apply(move, x.letters))) for x in words)
    assert sum(map(len, words)) == minimize_tuple(start, cyclic=cyclic).final_length


@DIFFERENTIAL
@given(st.one_of(word_tuples(ranks=(1, 2, 3, 4, 5, 6), max_len=12), moved_generators((2, 3, 4, 5), 1)))
def test_cyclic_step_matches_both_signs_picker(case):
    # A cyclic step tries only the multipliers a > 0; at every step of the
    # descent that is the move, None included, of the picker that tries all 2n.
    def pick(words, cyclic):
        move = _min_cut_move(words, cyclic)
        assert move == oracle.min_cut_move_both_signs(words, cyclic), words
        return move

    _descend(case[1], True, pick)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(8, 12), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_high_rank_generator_images_are_primitive(rank, steps, seed):
    # Moves are drawn without listing them all (about 10^8 at rank 12), with
    # uniform sets A: a drawn integer mask would stay small and move little.
    # The same moves take x^3 y^2, not primitive, to a word whose exponent
    # sums still have gcd 1, so only the descent can answer it.
    rng = random.Random(seed)
    alphabet = ALPHABETS[rank]
    letters = alphabet.letters()
    x, y = rng.sample(range(1, rank + 1), 2)
    image, other = Word(alphabet, (x,)), Word(alphabet, (x, x, x, y, y))
    for _ in range(steps):
        a = rng.choice(letters)
        others = [l for l in letters if abs(l) != abs(a)]
        move = _multiplier_move(alphabet, a, others, rng.randrange(1, 2 ** len(others)))
        image, other = move.apply(image), move.apply(other)
    assert is_primitive(image)
    assert not is_primitive(image**2)
    assert math.gcd(*abelianize(other)) == 1 and not is_primitive(other)


@pytest.mark.parametrize("rank", [8, 9, 10, 11, 12])
def test_product_of_squares_is_not_primitive(rank, monkeypatch):
    # Whitehead-minimal: the first-move picker would enumerate every delta
    # of 2n(4^(n-1) - 1) moves, about 10^8 at rank 12.  The exponent sums
    # of g1^2 ... gn^2 have gcd 2, which answers it before any descent;
    # those of g1^3 g2^2 ... gn^2 have gcd 1, so there the descent runs.
    alphabet = ALPHABETS[rank]
    descents = []
    monkeypatch.setattr(whitehead, "_descend", lambda *args: descents.append(args) or _descend(*args))
    assert not is_primitive(Word(alphabet, [g for g in range(1, rank + 1) for _ in (0, 1)]))
    assert descents == []
    odd = Word(alphabet, [1] + [g for g in range(1, rank + 1) for _ in (0, 1)])
    assert not is_primitive(odd)
    assert descents == [((odd,), True, _min_cut_move, True)]


# ---------------------------------------------------------------------------
# The exponent-sum gcd test against the descent alone, and the move records.


@st.composite
def primitivity_candidates(draw):
    """Random words, proper powers of them, and Whitehead images of generators or their powers, at ranks 1-5."""
    kind = draw(st.sampled_from(["random", "power", "image"]))
    if kind == "image":
        alphabet, (word_,) = draw(moved_generators((1, 2, 3, 4, 5), 1))
    else:
        alphabet, (word_,) = draw(word_tuples(ranks=(1, 2, 3, 4, 5), max_len=10, max_size=1))
    if kind != "random":
        word_ = word_ ** draw(st.sampled_from([1, 2, 3, -2, 6]))
    return alphabet, word_


@DIFFERENTIAL
@given(primitivity_candidates())
def test_is_primitive_matches_descent_alone(case):
    # The gcd test answers only False, and only where the descent does.
    alphabet, word_ = case
    if not word_:
        return
    assert is_primitive(word_) == (_descend((word_,), True, _min_cut_move).final_length == 1), word_
    assert is_free_factor([word_], alphabet) == (_descend((word_,), False, _min_cut_move).final_length == 1), word_


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_letter_tables_match_letter_image(rank):
    alphabet = ALPHABETS[rank]
    letters = alphabet.letters()
    probe = Word(alphabet, [g for g in range(1, rank + 1) for _ in (0, 1)] + [-1, -rank])
    for move in whitehead_moves(alphabet):
        # A fresh move each time, so every table below is built by the move's own first apply.
        twin = WhiteheadMove(move.alphabet, move.kind, move.images, move.multiplier, move.affected)
        image = twin.apply(probe)
        assert [twin._table[x] for x in letters] == [move.letter_image(x) for x in letters], move
        assert image.letters == oracle.apply(move, probe.letters), move
        assert move.apply(probe, cyclic=True) == cyclically_reduce(image)[0], move
        # Runs a^+-k of the multiplier on both sides of each other letter, so that
        # the a or a^-1 that a letter of A or of A^-1 gains cancels into a run.
        a = move.multiplier
        for x, s, t, k in itertools.product(letters if a else (), (1, -1), (1, -1), (1, 2)):
            if x not in (a, -a):
                run = Word(alphabet, [s * a] * k + [x] + [t * a] * k)
                image = move.apply(run)
                assert image.letters == oracle.apply(move, run.letters), (move, run)
                assert move.apply(run, cyclic=True) == cyclically_reduce(image)[0], (move, run)


def test_move_records_compare_hash_and_are_immutable(f2):
    a = WhiteheadMove(f2, "multiplier", multiplier=1, affected=frozenset({1, 2}))
    b = WhiteheadMove(f2, "multiplier", (), 1, frozenset({2, 1}))
    perm = WhiteheadMove(f2, "permutation", (2, -1))
    assert a == b and hash(a) == hash(b) and len({a, b, perm}) == 2
    assert hash(a) == hash((f2, "multiplier", (), 1, frozenset({1, 2})))
    assert a != perm and a != WhiteheadMove(f2, "multiplier", multiplier=-1, affected=frozenset({-1, 2}))
    assert a != WhiteheadMove(f2, "multiplier", multiplier=1, affected=frozenset({1, -2}))
    assert a != (f2, "multiplier", (), 1, frozenset({1, 2}))
    assert a.apply(w(f2, "x y")) == w(f2, "x y x") and a == b  # a table does not take part in equality
    assert (a.alphabet, a.kind, a.images, a.multiplier, a.affected) == (f2, "multiplier", (), 1, frozenset({1, 2}))
    assert repr(a) == "WhiteheadMove(mult x; A={x y})" and repr(perm) == "WhiteheadMove(perm: x->y, y->x^-1)"
    for field in ("alphabet", "kind", "images", "multiplier", "affected", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        del a.kind
    assert a.inverse() == WhiteheadMove(f2, "multiplier", multiplier=-1, affected=frozenset({-1, 2}))
    assert perm.inverse().apply(perm.apply(w(f2, "x y^-1"))) == w(f2, "x y^-1")


# ---------------------------------------------------------------------------
# _max_flow on its own, against every cut.


def _brute_force_cuts(cap, s, t):
    """(least capacity, smallest source side) over every S with s in S and t, 0 outside.

    The min cuts are closed under intersection, so the smallest is the
    intersection of all of them.
    """
    size = len(cap)
    free = [v for v in range(size) if v not in (0, s, t)]
    best, smallest = None, None
    for mask in range(1 << len(free)):
        side = {s} | {v for i, v in enumerate(free) if mask >> i & 1}
        capacity = sum(cap[u][v] for u in side for v in range(size) if v not in side)
        if best is None or capacity < best:
            best, smallest = capacity, side
        elif capacity == best:
            smallest &= side
    return best, smallest


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(5, 11), st.integers(0, 2**32 - 1))
def test_max_flow_matches_brute_force_cuts(size, seed):
    # Symmetric capacities like a star graph's, then forced edges x -> t as
    # _first_move adds them, both fresh and resumed from a capped run.
    rng = random.Random(seed)
    cap = [[0] * size for _ in range(size)]
    for u in range(size):
        for v in range(u, size):
            if rng.random() < 0.5:
                cap[u][v] = cap[v][u] = rng.randint(1, 4)
    s, t = rng.sample(range(1, size), 2)
    forced, big = sum(map(sum, cap)) + 1, 2 * sum(map(sum, cap)) + 2
    value, smallest = _brute_force_cuts(cap, s, t)
    flow, side = _max_flow([row[:] for row in cap], s, t, big)
    assert (flow, set(side)) == (value, smallest)

    forced_cap = [row[:] for row in cap]
    pushed = rng.sample([v for v in range(1, size) if v not in (s, t)], rng.randint(1, 2))
    for x in pushed:
        forced_cap[x][t] += forced
    forced_value, forced_smallest = _brute_force_cuts(forced_cap, s, t)
    flow, side = _max_flow([row[:] for row in forced_cap], s, t, big)
    assert (flow, set(side)) == (forced_value, forced_smallest)
    assert not forced_smallest & set(pushed)

    if value:
        limit = rng.randint(1, value)
        residual = [row[:] for row in cap]
        assert _max_flow(residual, s, t, limit) == (limit, None)
        for x in pushed:
            residual[x][t] += forced
        flow, side = _max_flow(residual, s, t, big, limit)
        assert (flow, set(side)) == (forced_value, forced_smallest)


# ---------------------------------------------------------------------------
# minimize_tuple's lexicographic min-cut picker against the enumerated deltas.


def _assert_first_move_matches(alphabet, start, cyclic):
    """At every step of the oracle's first-move descent the picker agrees,
    None included, and ``minimize_tuple`` records the same whole trace."""
    words, moves = tuple(Word(alphabet, _shape(cyclic)(x.letters)) for x in start), []
    while (move := oracle._first_move(words, cyclic)) is not None:
        assert _first_move(words, cyclic) == move, (words, cyclic)
        words = tuple(Word(alphabet, _shape(cyclic)(oracle.apply(move, x.letters))) for x in words)
        moves.append(move)
    assert _first_move(words, cyclic) is None, (words, cyclic)
    trace = minimize_tuple(start, cyclic=cyclic)
    assert (list(trace.moves), trace.final) == (moves, words)


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_first_move_exact_on_empty_and_one_letter_words(rank, cyclic):
    alphabet = ALPHABETS[rank]
    empty = Word(alphabet, ())
    for letter in {1, -1, rank, -rank}:
        one = Word(alphabet, (letter,))
        for words in ((empty,), (one,), (empty, one), (one, Word(alphabet, (letter, letter)))):
            _assert_first_move_matches(alphabet, words, cyclic)


@DIFFERENTIAL
@given(word_tuples(ranks=(1, 2, 3, 4, 5, 6), max_len=12), st.booleans())
def test_first_move_matches_oracle(case, cyclic):
    _assert_first_move_matches(*case, cyclic)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.integers(8, 12), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_high_rank_basis_images_minimize_to_the_basis(rank, steps, seed):
    # As above, moves are drawn with uniform sets A instead of being listed.
    rng = random.Random(seed)
    alphabet = ALPHABETS[rank]
    letters = alphabet.letters()
    images = tuple(Word(alphabet, (g,)) for g in range(1, rank + 1))
    for _ in range(steps):
        a = rng.choice(letters)
        others = [l for l in letters if abs(l) != abs(a)]
        move = _multiplier_move(alphabet, a, others, rng.randrange(1, 2 ** len(others)))
        images = tuple(move.apply(x) for x in images)
    trace = minimize_tuple(images)
    assert trace.final_length == rank
    replayed = images
    for move in trace.moves:
        replayed = tuple(move.apply(x) for x in replayed)
    assert replayed == trace.final


@pytest.mark.parametrize("rank", [8, 9, 10, 11, 12])
def test_product_of_squares_is_whitehead_minimal(rank):
    alphabet = ALPHABETS[rank]
    trace = minimize_tuple([Word(alphabet, [g for g in range(1, rank + 1) for _ in (0, 1)])])
    assert trace.moves == () and trace.final_length == 2 * rank


ORACLE_CAP = 3_000


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.one_of(
        word_tuples(ranks=(2, 3), max_len=6, max_size=2),
        word_tuples(ranks=(2, 3), max_len=10, max_size=2),
        moved_generators((2, 3), 1),
        moved_generators((2, 3), 2),
    )
)
# The orbit search reaches its cap on this non-factor (minors gcd 2).
@example((ALPHABETS[3], (Word(ALPHABETS[3], (2, 2, -1, -1, -3)), Word(ALPHABETS[3], (3,)))))
def test_is_free_factor_matches_oracle(case):
    # The orbit search answers True only by reaching a basis subtuple, and
    # False only by exhausting the orbit; where it runs out of cap first,
    # the descent alone must still say False.
    alphabet, words = case
    if stallings.subgroup_graph(alphabet, words).rank() != len(words):
        with pytest.raises(ValueError):
            is_free_factor(words, alphabet)
        return
    try:
        expected = oracle.is_free_factor(alphabet, [x.letters for x in words], ORACLE_CAP)
    except oracle.OrbitCapExceeded:
        expected = False
    assert is_free_factor(words, alphabet) == expected


# Images of 1-3 generators at ranks 2-5 (never more generators than the rank).
BASES = st.one_of(*(moved_generators(tuple(r for r in (2, 3, 4, 5) if r >= k), k) for k in (1, 2, 3)))


@DIFFERENTIAL
@given(BASES)
def test_moved_generators_are_free_factors(case):
    alphabet, words = case
    assert is_free_factor(words, alphabet)


@DIFFERENTIAL
@given(BASES, st.data())
def test_squared_basis_word_is_not_a_free_factor(case, data):
    # Independent certificate: the abelianized basis of a free factor spans
    # a direct summand of Z^n, so the gcd of its k x k minors is 1.
    # Squaring one word doubles every minor.
    alphabet, words = case
    i = data.draw(st.integers(0, len(words) - 1))
    words = words[:i] + (words[i] ** 2,) + words[i + 1 :]
    rows = [abelianize(x) for x in words]
    minors = [
        integer_determinant([[row[j] for j in columns] for row in rows])
        for columns in itertools.combinations(range(alphabet.rank), len(rows))
    ]
    assert math.gcd(*minors) != 1
    assert not is_free_factor(words, alphabet)


# Pairs, not triples, of random words: the orbit search on rank-4 triples
# takes seconds.  Of the 300 examples, 24 are not free factors.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(
        word_tuples(ranks=(2, 3, 4), max_len=6, max_size=2),
        *(moved_generators(tuple(r for r in (2, 3, 4) if r >= k), k) for k in (1, 2, 3)),
    ),
    st.data(),
)
def test_conjugated_tuples_match_descent_and_oracle(case, data):
    # is_free_factor descends from the spanning-tree basis of the folded
    # core, a conjugate of <U>: on c U c^-1 it must agree with the descent
    # on c U c^-1 itself and with the orbit search on U.
    alphabet, words = case
    assume(stallings.subgroup_graph(alphabet, words).rank() == len(words))
    try:
        expected = oracle.is_free_factor(alphabet, [x.letters for x in words], ORACLE_CAP)
    except oracle.OrbitCapExceeded:
        expected = False
    c = data.draw(reduced_words(alphabet, 8))
    words = tuple(c * x * ~c for x in words)
    descent = not _descend(words, False, _min_cut_move, True).final
    assert is_free_factor(words, alphabet) == descent == expected, words


@st.composite
def lone_letter_tuples(draw):
    """At ranks 2-4, a word A x^+-1 B and 0-2 words free of x, under 0-2 random Whitehead moves.

    Without moves x occurs once, so the deciders drop its word at once;
    a move may hide x, and then the rule fires only later in the descent.
    """
    rank = draw(st.sampled_from((2, 3, 4)))
    alphabet = ALPHABETS[rank]
    x = draw(st.integers(1, rank))
    free_of_x = st.lists(st.sampled_from([l for l in alphabet.letters() if abs(l) != x]), max_size=5)
    words = [Word(alphabet, draw(free_of_x) + [draw(st.sampled_from((x, -x)))] + draw(free_of_x))]
    words += [Word(alphabet, draw(free_of_x)) for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 2))):
        move = draw(st.sampled_from(MOVES[rank]))
        words = [move.apply(w) for w in words]
    return alphabet, tuple(words)


@DIFFERENTIAL
@given(lone_letter_tuples())
def test_lone_letter_rule_matches_oracle(case):
    # The deciders drop words; the oracle and the descent alone never do.
    alphabet, words = case
    if len(words) == 1:
        assert is_primitive(words[0]) == oracle.is_primitive(alphabet, words[0].letters), words
    if stallings.subgroup_graph(alphabet, words).rank() != len(words):
        return
    descent = _descend(words, False, _min_cut_move).final_length == len(words)
    try:
        expected = oracle.is_free_factor(alphabet, [w.letters for w in words], ORACLE_CAP)
    except oracle.OrbitCapExceeded:
        expected = False
    assert is_free_factor(words, alphabet) == descent == expected, words


@DIFFERENTIAL
@given(word_tuples(ranks=(1, 2, 3, 4), max_len=8, max_size=4))
def test_drop_lone_keeps_the_largest_lone_free_subtuple(case):
    # Subtuples with no generator occurring once are closed under union, so
    # there is a largest, and dropping never removes one of its words.
    _, words = case

    def lone_free(indices):
        letters = [abs(l) for i in indices for l in words[i].letters]
        return all(letters.count(g) != 1 for g in letters)

    subtuples = [c for k in range(len(words) + 1) for c in itertools.combinations(range(len(words)), k)]
    largest = max(filter(lone_free, subtuples), key=len)
    assert _drop_lone(words) == tuple(words[i] for i in largest)
