"""Hand-worked examples for the benchmark's reference computations.

    python3 -m pytest bench -q
"""

import random

import pytest

import reference as ref
import workloads

A, B, C = 1, 2, 3


def test_reduce_and_cores():
    assert ref.reduce((A, B, -B, -A, C)) == (C,)
    assert ref.reduce((A, -A)) == ()
    assert ref.product((A, B), (-B, C)) == (A, C)
    assert ref.power((A, B, -A), 3) == (A, B, B, B, -A)
    assert ref.power((A, B), -2) == (-B, -A, -B, -A)
    assert ref.cyclic_core((B, A, C, -B)) == (A, C)
    assert ref.rotations((A, B, C)) == {(A, B, C), (B, C, A), (C, A, B)}


def test_proper_powers():
    assert ref.is_proper_power((A, B, A, B))
    assert ref.is_proper_power((C, A, B, A, B, -C))
    assert not ref.is_proper_power((A, B, A))
    assert not ref.is_proper_power((A,))


def test_reduced_words_in_canonical_order():
    words = list(ref.reduced_words(2, 2))
    assert words == [
        (1, 1), (1, 2), (1, -2),
        (-1, -1), (-1, 2), (-1, -2),
        (2, 1), (2, -1), (2, 2),
        (-2, 1), (-2, -1), (-2, -2),
    ]
    assert len(list(ref.reduced_words(5, 4))) == 10 * 9**3


def test_equation_and_its_solutions():
    a, b, y = 1, 2, 4
    v = (a, y, b, y, a, -y, b, -y)
    assert ref.equation_word((y,), a, b) == v
    # E(y^-1) is v with its two halves swapped: a rotation.
    assert ref.equation_word((-y,), a, b) == v[4:] + v[:4]
    # E(a) = a a b a a a^-1 b a^-1 reduces to a a b a b a^-1, core a b a b.
    assert ref.cyclic_core(ref.equation_word((a,), a, b)) == (a, b, a, b)
    assert ref.solution_set(4, v, a, b, 3) == [(y,), (-y,)]


def test_letter_permutation():
    assert ref.letter_permutation({1: (1,), 2: (-2,)}) == {1: 1, -1: -1, 2: -2, -2: 2}
    assert ref.letter_permutation({1: (1, 2), 2: (2,)}) is None


def _rose(rank):
    return {(0, g, 0) for g in range(1, rank + 1)}


def test_fold_by_hand():
    # <ab, ac>: base -a-> v, then v -b-> base and v -c-> base.
    assert ref.based_isomorphic(ref.fold([(A, B), (A, C)]), {(0, A, 1), (1, B, 0), (1, C, 0)})
    # <b a b^-1>: the stem to the a-loop stays, since the base is kept.
    assert ref.based_isomorphic(ref.fold([(B, A, -B)]), {(0, B, 7), (7, A, 7)})
    # <ab, a> = F(a, b): the hanging vertex folds into the rose.
    assert ref.based_isomorphic(ref.fold([(A, B), (A,)]), _rose(2))
    assert ref.fold([(A, -A)]) == set()


def test_based_isomorphism_fixes_the_base():
    stem_loop = {(0, A, 1), (1, B, 1)}
    assert ref.based_isomorphic(stem_loop, {(0, A, 5), (5, B, 5)})
    assert not ref.based_isomorphic(stem_loop, {(1, A, 0), (0, B, 0)})
    assert not ref.based_isomorphic(stem_loop, {(0, A, 1), (1, C, 1)})


def test_membership():
    g = ref.fold([(A, B)])
    assert ref.accepts(g, (A, B, A, B))
    assert ref.accepts(g, ())
    assert not ref.accepts(g, (A,))


def test_intersection_of_cyclic_subgroups():
    # <a^2> meet <a^3> = <a^6>.
    meet = ref.intersection(ref.fold([(A, A)]), ref.fold([(A, A, A)]))
    assert ref.based_isomorphic(meet, ref.fold([(A,) * 6]))
    assert ref.intersection(ref.fold([(A,)]), ref.fold([(B,)])) == set()


def test_malnormality_by_hand():
    assert ref.is_malnormal(ref.fold([(A,)]))
    assert not ref.is_malnormal(ref.fold([(A, A)]))  # a <a^2> a^-1 = <a^2>
    assert not ref.is_malnormal(ref.fold([(A,), (B, A, -B)]))  # b^-1 H b contains a
    assert ref.is_malnormal(ref.fold([(A, B, -A, -B)]))  # root-free cyclic


def test_nielsen_images_are_bases():
    rng = random.Random(0)
    for rank in (2, 3, 4):
        images = ref.nielsen_images(rng, rank, 12)
        assert ref.based_isomorphic(ref.fold(images), _rose(rank))
        assert ref.is_unimodular(ref.abelianization(images[0], rank))
    assert ref.is_unimodular((2, 3)) and not ref.is_unimodular((2, 4))


def test_splitting_words():
    assert ref.twist_image((3,), 5, 2) == (3, 3, 5)
    # t^-1 u t a t^-1 u^-2 t b pinches to v a v^-2 b; here v = a b.
    syllables = [(1, (A,)), (-2, (B,))]
    assert ref.hnn_pinch_word((3,), 5, syllables) == (-5, 3, 5, A, -5, -3, -3, 5, B)
    assert ref.hnn_pinched((A, B), syllables) == (A, B, A, -B, -A, -B, -A, B)


def test_verify_report_check_rejects_wrong_reports():
    call = workloads._verify_inputs("verify-separation")["calls"][0]
    lines = ["a0_size: 0", "rank: 4", "l_solution: 4", "l_separation: 8"]
    lines += [f"{name}: PASS [detail]" for name in workloads.CHECK_NAMES[:5]]
    good = lines + [
        "solution_set: PASS [solutions up to length 4: {y, y^-1}]",
        "dcl_separation_ok: PASS [no fixed word up to length 8]",
        "overall: PASS",
    ]
    assert workloads._check_verify(call, (0, "\n".join(good)))
    assert not workloads._check_verify(call, (1, "\n".join(good)))
    wrong_set = [l.replace("{y, y^-1}", "{y}") for l in good]
    assert not workloads._check_verify(call, (0, "\n".join(wrong_set)))
    failed = [l.replace("dcl_separation_ok: PASS", "dcl_separation_ok: FAIL") for l in good]
    assert not workloads._check_verify(call, (0, "\n".join(failed)))


@pytest.mark.parametrize("seed", [0, 1])
def test_toolkit_inputs_depend_only_on_the_seed(seed):
    assert workloads.generate("toolkit", seed) == workloads.generate("toolkit", seed)
    assert workloads.generate("toolkit", seed) != workloads.generate("toolkit", seed + 2)
