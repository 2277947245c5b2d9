"""The benchmark's workloads: seeded inputs, reference answers, checked calls.

``generate`` runs in the parent process, uses only ``reference`` and the
seed, and returns plain data: the inputs as text in the program's word
syntax plus the answers the reference computed for them.  ``build`` runs
in the workload process and turns that data into program objects with
the program's own constructors (``Alphabet``, ``parse_word``,
``build_counterexample``, ``subgroup_graph``); it returns the operations
of one round.  An operation is one checked CLI or library call, and
every program function is looked up at call time, so a traced run sees
the wrapped version.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import reference as ref

WORKLOADS = ("verify-separation", "verify-solution", "toolkit")

# (a0, l_solution, l_separation) for the two CLI calls of a round.
VERIFY_GRIDS = {
    "verify-separation": [(0, 4, 8), (1, 4, 7)],
    "verify-solution": [(0, 7, 4), (1, 6, 4)],
}
# Brute-force length for the reference solution set (rank 5: 8,282 words).
BRUTE_LEN = 4
CHECK_NAMES = (
    "presentation_valid",
    "abelianization_obstruction_ok",
    "g_is_homomorphism",
    "g_is_automorphism",
    "gv_conjugate_to_v",
    "solution_set",
    "dcl_separation_ok",
)

# Toolkit sizes.  Three sizes per scaling series, spanning 4x.
FOLD_CONJUGATOR = (20, 40, 80)  # |p| in p w_i p^-1, six generators, |w_i| = 10
FOLD_GENERATORS, FOLD_WORD = 6, 10
MALNORMAL_PETAL = (8, 16, 32)  # three petals of this length: 24 / 48 / 96 edges
BRITTON_PINCHES = (100, 200, 400)
ORBIT_BOUND = 100
# The Whitehead inputs come from one fixed catalogue; the run seed moves
# them only by symmetries the greedy descent is blind to (see README).
WHITEHEAD_CATALOGUE_SEED = 1108_5641
PRIMITIVE_RANK4 = 2  # words, cyclic length 90..130, plus their squares
PRIMITIVE_RANK5 = 1  # word, cyclic length 20..26 (no square: 2,550 moves per step)
MIN_TUPLES = 2  # rank-4 basis images, total length 25..40
FREE_FACTORS = 2  # pairs from rank-4 basis images, total length 20..35
CONTAINS_WORDS = 40


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    ops: list[Op]
    # Checks of the built inputs themselves, run once per run.
    once: list[tuple[str, Callable[[], bool]]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Text form of words, for the program's parse_word.


def to_text(names: list[str], w) -> str:
    return " ".join(names[abs(x) - 1] + ("" if x > 0 else "^-1") for x in w) or "1"


def _rank_names(rank: int) -> list[str]:
    return list("abcdefgh"[:rank])


# ---------------------------------------------------------------------------
# verify-separation / verify-solution


def _verify_inputs(workload: str) -> dict:
    calls = []
    for a0, l_sol, l_sep in VERIFY_GRIDS[workload]:
        names = [f"c{i + 1}" for i in range(a0)] + ["a", "b", "u", "y"]
        rank = len(names)
        a, b, u, y = (names.index(n) + 1 for n in ("a", "b", "u", "y"))
        v = (a, y, b, y, a, -y, b, -y)
        if not (ref.solves((y,), v, a, b) and ref.solves((-y,), v, a, b)):
            raise RuntimeError("reference: y and y^-1 must solve the equation")
        brute = ref.solution_set(rank, v, a, b, min(l_sol, BRUTE_LEN))
        if brute != [(y,), (-y,)]:
            raise RuntimeError(f"reference: brute-force solution set is {brute}")
        calls.append(
            {
                "argv": [
                    "verify-counterexample",
                    "--a0", str(a0),
                    "--l-solution", str(l_sol),
                    "--l-separation", str(l_sep),
                ],
                "a0": a0,
                "names": names,
                "v": list(v),
                "u": u,
                "y": y,
                "l_solution": l_sol,
                "l_separation": l_sep,
                "solutions": [to_text(names, s) for s in brute],
            }
        )
    return {"calls": calls}


def _parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(": ")
        if sep:
            out[key] = rest
    return out


def _check_verify(call: dict, result) -> bool:
    """Verdicts and facts of the text report, not its wording."""
    code, text = result
    lines = _parse_report(text)
    header = {
        "a0_size": str(call["a0"]),
        "rank": str(len(call["names"])),
        "l_solution": str(call["l_solution"]),
        "l_separation": str(call["l_separation"]),
    }
    if code != 0 or any(lines.get(k) != v for k, v in header.items()):
        return False
    if not all(lines.get(name, "").startswith("PASS") for name in CHECK_NAMES + ("overall",)):
        return False
    detail = lines["solution_set"]
    found = detail[detail.find("{") + 1 : detail.rfind("}")].split(", ")
    return found == call["solutions"]


def _check_separation_map(call: dict, setup) -> bool:
    """g on H is a signed letter permutation fixing A and inverting y.

    Such a map sends a reduced word letter by letter to a reduced word of
    the same length, so a word is fixed iff each of its letters is; no
    word containing y is fixed at any length, and PASS is the right
    verdict for dcl_separation_ok at every bound.
    """
    names = call["names"]
    if list(setup.h_alphabet.generators) != names or list(setup.v.letters) != call["v"]:
        return False
    images = {i + 1: setup.g_base.images[n].letters for i, n in enumerate(names)}
    table = ref.letter_permutation(images)
    if table is None:
        return False
    y = call["y"]
    return table[y] == -y and all(table[g] == g for g in range(1, len(names) + 1) if g != y)


def _verify_build(inputs: dict, fg) -> Workload:
    ops, once = [], []
    for call in inputs["calls"]:
        setup = fg.closure.build_counterexample(call["a0"])
        label = "a0_{a0}".format(**call)

        def run(argv=call["argv"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = fg.cli.main(argv)
            return code, buf.getvalue()

        ops.append(Op(f"verify.{label}", run, lambda r, c=call: _check_verify(c, r)))
        once.append((f"separation_map.{label}", lambda c=call, s=setup: _check_separation_map(c, s)))
    return Workload(ops, once)


# ---------------------------------------------------------------------------
# toolkit


def _conjugated_generators(rng: random.Random, size: int) -> list:
    p = ref.random_reduced(rng, 3, size)
    return [
        ref.product(p, ref.random_reduced(rng, 3, FOLD_WORD, first_not=(-p[-1],), last_not=(p[-1],)), ref.inverse(p))
        for _ in range(FOLD_GENERATORS)
    ]


def _petals(rng: random.Random, length: int) -> list:
    """Three cyclically reduced words whose six end letters are all distinct.

    Nothing folds at the base, so the graph is three petals with exactly
    3 * length edges; candidates are redrawn until the reference finds
    the subgroup malnormal.
    """
    while True:
        ends = ref.canonical_letters(3)
        rng.shuffle(ends)
        words = []
        for k in range(3):
            first, last = ends[2 * k], -ends[2 * k + 1]
            middle = ref.random_reduced(rng, 3, length - 2, first_not=(-first,), last_not=(-last,))
            words.append((first,) + middle + (last,))
        edges = ref.fold(words)
        if all(ref.reduce(w) == w for w in words) and len(edges) == 3 * length and ref.is_malnormal(edges):
            return words


def _not_malnormal(rng: random.Random) -> tuple[list, list]:
    """<s^2, w1, w2> with s not in it: s conjugates s^2 back into the subgroup."""
    while True:
        s = ref.random_reduced(rng, 3, 12)
        if ref.cyclic_core(s) != s:
            continue
        words = [ref.power(s, 2), ref.random_reduced(rng, 3, 12), ref.random_reduced(rng, 3, 12)]
        edges = ref.fold(words)
        if not ref.accepts(edges, s) and not ref.is_malnormal(edges):
            return words, s


def _basis_image(rng: random.Random, rank: int, steps: int, lo: int, hi: int, length) -> list:
    while True:
        images = ref.nielsen_images(rng, rank, steps)
        if lo <= length(images) <= hi:
            return images


def _whitehead_catalogue() -> dict:
    rng = random.Random(WHITEHEAD_CATALOGUE_SEED)
    first_core = lambda ims: len(ref.cyclic_core(ims[0]))
    return {
        "primitive4": [ref.cyclic_core(_basis_image(rng, 4, 16, 90, 130, first_core)[0]) for _ in range(PRIMITIVE_RANK4)],
        "primitive5": [ref.cyclic_core(_basis_image(rng, 5, 12, 20, 26, first_core)[0]) for _ in range(PRIMITIVE_RANK5)],
        "tuples": [_basis_image(rng, 4, 10, 25, 40, lambda ims: sum(map(len, ims))) for _ in range(MIN_TUPLES)],
        "factors": [_basis_image(rng, 4, 9, 20, 35, lambda ims: len(ims[0]) + len(ims[1]))[:2] for _ in range(FREE_FACTORS)],
    }


def _rotate_invert(rng: random.Random, w) -> tuple:
    """A rotation of the cyclic word, inverted or not: same cyclic descent."""
    k = rng.randrange(len(w))
    w = w[k:] + w[:k]
    return ref.inverse(w) if rng.random() < 0.5 else w


def _permute_invert(rng: random.Random, words) -> list:
    """Members reordered and some inverted: same total-length descent."""
    words = [ref.inverse(w) if rng.random() < 0.5 else w for w in words]
    rng.shuffle(words)
    return words


def _toolkit_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    names3, names4, names5 = _rank_names(3), _rank_names(4), _rank_names(5)
    t3 = lambda w: to_text(names3, w)
    data: dict[str, Any] = {}

    folds = []
    for size in FOLD_CONJUGATOR:
        gens = _conjugated_generators(rng, size)
        folds.append({"size": size, "gens": [t3(g) for g in gens], "edges": sorted(ref.fold(gens))})
    data["fold"] = folds

    malnormal = []
    for length in MALNORMAL_PETAL:
        words = _petals(rng, length)
        malnormal.append({"size": 3 * length, "gens": [t3(w) for w in words]})
    data["malnormal"] = malnormal
    bad, s = _not_malnormal(rng)
    data["not_malnormal"] = {"gens": [t3(w) for w in bad], "s": t3(s)}

    common = ref.random_reduced(rng, 3, 30)
    h1 = [common] + [ref.random_reduced(rng, 3, 30) for _ in range(2)]
    h2 = [common] + [ref.random_reduced(rng, 3, 30) for _ in range(2)]
    meet = ref.intersection(ref.fold(h1), ref.fold(h2))
    if not meet:
        raise RuntimeError("reference: the intersection must contain the common generator")
    data["intersect"] = {"h1": [t3(w) for w in h1], "h2": [t3(w) for w in h2], "edges": sorted(meet)}

    hgens = [ref.random_reduced(rng, 3, 20) for _ in range(4)]
    hedges = ref.fold(hgens)
    probes = []
    for i in range(CONTAINS_WORDS):
        if i % 2 == 0:
            factors = [rng.choice(hgens) for _ in range(30)]
            w = ref.product(*[f if rng.random() < 0.5 else ref.inverse(f) for f in factors])
        else:
            w = ref.random_reduced(rng, 3, 400)
        probes.append({"word": t3(w), "member": ref.accepts(hedges, w)})
    data["contains"] = {"gens": [t3(w) for w in hgens], "probes": probes}

    cat = _whitehead_catalogue()
    data["primitive"] = []
    for rank, names, key in ((4, names4, "primitive4"), (5, names5, "primitive5")):
        for w in cat[key]:
            w = _rotate_invert(rng, w)
            # A primitive element has unimodular abelianisation; its square does not.
            ab = ref.abelianization(w, rank)
            if not ref.is_unimodular(ab) or ref.is_unimodular([2 * x for x in ab]):
                raise RuntimeError("reference: primitive input with non-unimodular abelianisation")
            data["primitive"].append({"rank": rank, "word": to_text(names, w), "square": rank == 4})
    data["min_tuples"] = [[to_text(names4, w) for w in _permute_invert(rng, tup)] for tup in cat["tuples"]]
    data["free_factors"] = [[to_text(names4, w) for w in _permute_invert(rng, pair)] for pair in cat["factors"]]

    # The splitting of the counterexample at a0 = 0: base a b u y, u^t = v.
    base = ["a", "b", "u", "y"]
    u, v = (3,), (1, 4, 2, 4, 1, -4, 2, -4)
    britton = []
    for n in BRITTON_PINCHES:
        # Base words of length 3 are never in <v> (|v| = 8), so every
        # pinch is t^-1 u^p t -> v^p and all of them are sequential.
        syllables = [(rng.choice((1, -1, 2, -2)), ref.random_reduced(rng, 4, 3)) for _ in range(n)]
        word = ref.hnn_pinch_word(u, 5, syllables)
        britton.append(
            {"size": n, "word": to_text(base + ["t"], word), "head": to_text(base, ref.hnn_pinched(v, syllables))}
        )
    data["britton"] = britton
    images = {ref.twist_image(u, 5, n) for n in range(ORBIT_BOUND + 1)}
    if len(images) != ORBIT_BOUND + 1:
        raise RuntimeError("reference: twist images of t must be pairwise distinct")
    data["orbit"] = {"bound": ORBIT_BOUND}

    x = ref.random_reduced(rng, 4, 7)
    data["pow"] = {"base": to_text(names4, x), "n": 600, "power": to_text(names4, ref.power(x, 600))}
    while True:
        w1 = ref.random_reduced(rng, 4, 3000)
        if ref.cyclic_core(w1) == w1:
            break
    c = ref.random_reduced(rng, 4, 20)
    w2 = ref.product(c, w1[1500:] + w1[:1500], ref.inverse(c))
    data["conjugate"] = {"w1": to_text(names4, w1), "w2": to_text(names4, w2)}
    while True:
        r = ref.random_reduced(rng, 4, 60)
        if ref.cyclic_core(r) == r and not ref.is_proper_power(r):
            break
    c = ref.random_reduced(rng, 4, 10)
    data["root"] = {"word": to_text(names4, ref.product(c, ref.power(r, 200), ref.inverse(c))), "exponent": 200}
    return data


def _toolkit_build(d: dict, fg) -> Workload:
    words, stallings, whitehead = fg.words, fg.stallings, fg.whitehead
    splittings, endos = fg.splittings, fg.endos
    A3, A4, A5 = (words.Alphabet(_rank_names(k)) for k in (3, 4, 5))
    parse3 = lambda texts: [words.parse_word(A3, t) for t in texts]
    letters = lambda w: tuple(w.letters)
    ops: list[Op] = []

    for i, item in enumerate(d["fold"], 1):
        gens = parse3(item["gens"])
        expected = {tuple(e) for e in item["edges"]}
        ops.append(Op(
            f"fold.s{i}",
            lambda g=gens: stallings.subgroup_graph(A3, g),
            lambda out, e=expected: ref.based_isomorphic(out.edges, e),
        ))

    for i, item in enumerate(d["malnormal"], 1):
        graph = stallings.subgroup_graph(A3, parse3(item["gens"]))
        ops.append(Op(f"malnormal.s{i}", lambda g=graph: stallings.is_malnormal(g), lambda out: out is True))
    bad = stallings.subgroup_graph(A3, parse3(d["not_malnormal"]["gens"]))
    ops.append(Op("malnormal.non", lambda: stallings.is_malnormal(bad), lambda out: out is False))

    g1 = stallings.subgroup_graph(A3, parse3(d["intersect"]["h1"]))
    g2 = stallings.subgroup_graph(A3, parse3(d["intersect"]["h2"]))
    meet = {tuple(e) for e in d["intersect"]["edges"]}
    ops.append(Op(
        "intersect",
        lambda: stallings.intersect(g1, g2),
        lambda out: ref.based_isomorphic(out.edges, meet),
    ))

    member_graph = stallings.subgroup_graph(A3, parse3(d["contains"]["gens"]))
    for i, probe in enumerate(d["contains"]["probes"]):
        w = words.parse_word(A3, probe["word"])
        ops.append(Op(f"contains.{i:02d}", lambda w=w: member_graph.contains(w), lambda out, m=probe["member"]: out is m))

    alphabets = {4: A4, 5: A5}
    for i, item in enumerate(d["primitive"]):
        A = alphabets[item["rank"]]
        w = words.parse_word(A, item["word"])
        ops.append(Op(f"is_primitive.true{i}", lambda w=w: whitehead.is_primitive(w), lambda out: out is True))
        if item["square"]:
            ops.append(Op(f"is_primitive.square{i}", lambda w=w * w: whitehead.is_primitive(w), lambda out: out is False))

    for i, texts in enumerate(d["min_tuples"]):
        tup = [words.parse_word(A4, t) for t in texts]
        ops.append(Op(
            f"minimize_tuple.{i}",
            lambda t=tup: whitehead.minimize_tuple(t),
            lambda out, k=len(tup): sum(len(w) for w in out.final) == k,
        ))
    for i, texts in enumerate(d["free_factors"]):
        pair = [words.parse_word(A4, t) for t in texts]
        ops.append(Op(f"is_free_factor.{i}", lambda p=pair: whitehead.is_free_factor(p, A4), lambda out: out is True))

    pres = fg.closure.build_counterexample(0).pres
    for i, item in enumerate(d["britton"], 1):
        w = words.parse_word(pres.extended, item["word"])
        head = letters(words.parse_word(pres.base, item["head"]))
        ops.append(Op(
            f"britton.s{i}",
            lambda w=w: splittings.britton_reduce(pres, w),
            lambda out, h=head: out.tail == () and letters(out.head) == h,
        ))

    t_word = words.parse_word(pres.extended, pres.stable)
    bound = d["orbit"]["bound"]
    ops.append(Op(
        "orbit_bounded",
        lambda: endos.orbit_bounded(lambda n: splittings.dehn_twist(pres, n), t_word, bound),
        lambda out: out.distinct_count == bound + 1 and out.first_collision is None,
    ))

    x = words.parse_word(A4, d["pow"]["base"])
    n = d["pow"]["n"]
    power = letters(words.parse_word(A4, d["pow"]["power"]))
    ops.append(Op("pow", lambda: x**n, lambda out: letters(out) == power))

    w1 = words.parse_word(A4, d["conjugate"]["w1"])
    w2 = words.parse_word(A4, d["conjugate"]["w2"])
    ops.append(Op(
        "is_conjugate",
        lambda: words.is_conjugate(w1, w2),
        lambda g: g is not None and ref.product(g.letters, w1.letters, ref.inverse(g.letters)) == letters(w2),
    ))

    rw = words.parse_word(A4, d["root"]["word"])
    e = d["root"]["exponent"]
    ops.append(Op(
        "extract_root",
        lambda: words.extract_root(rw),
        lambda out: out[1] == e and ref.power(out[0].letters, e) == letters(rw) and not ref.is_proper_power(out[0].letters),
    ))
    return Workload(ops)


def generate(workload: str, seed: int) -> dict:
    """Inputs and reference answers for one run; depends only on the seed."""
    if workload == "toolkit":
        return _toolkit_inputs(seed)
    return _verify_inputs(workload)


def build(workload: str, inputs: dict, fg) -> Workload:
    if workload == "toolkit":
        return _toolkit_build(inputs, fg)
    return _verify_build(inputs, fg)
