"""Reference paths for the splitting-layer tests: the original rescanning loops.

``orbit_pairwise`` compares each image f_n(w) with one representative
of every class found so far, about bound^2 / 2 equality tests, and needs
nothing of the family.  ``amalgam_rescan`` merges same-side neighbours,
converts the leftmost edge power, and starts over until nothing
changes.  ``classify_loop`` tries every exponent up to a length bound.
They are slow but follow the definitions literally, and the
differential tests in ``test_endos.py`` and ``test_splittings.py``
require the library's single passes to agree with them exactly.
"""

from __future__ import annotations

from freegroups.endos import OrbitReport
from freegroups.splittings import ClassificationResult, validate_presentation
from freegroups.words import Word, is_conjugate, power_of


def orbit_pairwise(family, element, bound: int) -> OrbitReport:
    """Count pairwise-distinct images f_n(element), 0 <= n <= bound, by all-pairs comparison."""
    reps = []
    first_collision = None
    for n in range(bound + 1):
        f = family(n)
        image = f.apply(element)
        hit = next((idx for idx, rep in reps if f.domain.equal(rep, image)), None)
        if hit is None:
            reps.append((n, image))
        elif first_collision is None:
            first_collision = (hit, n)
    return OrbitReport(len(reps), first_collision)


def amalgam_rescan(pres, w) -> tuple:
    """Syllables (side, factor word) of the amalgam normal form, by rescanning.

    This carries one fix over the loop it preserves: after a trivial
    syllable is dropped the merge pass steps back one index, so the two
    neighbours it leaves adjacent are merged.  Without it they could
    stay apart, and the conversion step then multiplied words of
    different factors.
    """
    syl = []
    for letter in w.letters:
        side = pres.side_of(letter)
        if syl and syl[-1][0] == side:
            syl[-1][1].append(letter)
        else:
            syl.append((side, [letter]))
    # Union letters to factor words, shifting factor 2 back by factor 1's rank here.
    shift = pres.factor1.rank
    to_factor = {
        1: lambda ls: Word(pres.factor1, ls),
        2: lambda ls: Word(pres.factor2, [l - shift if l > 0 else l + shift for l in ls]),
    }
    edge = {1: pres.c1, 2: pres.c2}
    syl = [(side, to_factor[side](ls)) for side, ls in syl]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(syl):
            side, wd = syl[i]
            if not wd:
                del syl[i]
                i = max(i - 1, 0)
                changed = True
                continue
            if i + 1 < len(syl) and syl[i + 1][0] == side:
                syl[i] = (side, wd * syl[i + 1][1])
                del syl[i + 1]
                changed = True
                continue
            i += 1
        if len(syl) < 2:
            break
        for i, (side, wd) in enumerate(syl):
            p = power_of(wd, edge[side])
            if p is None:
                continue
            other = 2 if side == 1 else 1
            converted = edge[other] ** p
            if i + 1 < len(syl):
                syl[i : i + 2] = [(other, converted * syl[i + 1][1])]
            else:
                syl[i - 1 : i + 1] = [(other, syl[i - 1][1] * converted)]
            changed = True
            break
    return tuple(syl)


def classify_loop(pres, alpha, beta) -> ClassificationResult:
    """``classify_base_conjugacy`` by trying |p| = 1, 2, ... up to a length bound.

    |u^p| grows linearly in p, so larger exponents cannot match.  Each
    |p| tries p before -p, and case 1 (alpha ~ u^p) before case 2.
    """
    if not validate_presentation(pres).ok:
        raise ValueError("presentation does not satisfy the splitting hypotheses")
    if not alpha or not beta:
        raise ValueError("alpha and beta must be nontrivial")
    core = min(len(s) * e for _, s, _, _, e in pres._edge_parts)
    bound = max(len(alpha), len(beta)) // core + 1
    t = Word(pres.extended, (pres.t_letter,), _reduced=True)
    for p_abs in range(1, bound + 1):
        for p in (p_abs, -p_abs):
            for case, first, second in ((1, pres.u, pres.v), (2, pres.v, pres.u)):
                h1 = is_conjugate(first**p, alpha)
                if h1 is None:
                    continue
                h2 = is_conjugate(second**p, beta)
                if h2 is None:
                    continue
                gamma, delta = ~h1, ~h2
                mid = t if case == 1 else ~t
                s = pres.lift(~gamma) * mid * pres.lift(delta)
                return ClassificationResult(True, case, p, gamma, delta, s)
    return ClassificationResult(False)
