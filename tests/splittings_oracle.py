"""Reference paths for the splitting-layer tests: the original rescanning loops.

``orbit_pairwise`` compares each image f_n(w) with one representative
of every class found so far, about bound^2 / 2 equality tests, and needs
nothing of the family.  ``amalgam_rescan`` merges same-side neighbours,
converts the leftmost edge power, and starts over until nothing
changes.  They are slow but follow the definitions literally, and the
differential tests in ``test_endos.py`` and ``test_splittings.py``
require the library's single passes to agree with them exactly.
"""

from __future__ import annotations

from freegroups.endos import OrbitReport, words_equal
from freegroups.words import power_of


def orbit_pairwise(family, element, bound: int, description: str = "family") -> OrbitReport:
    """Count pairwise-distinct images f_n(element), 0 <= n <= bound, by all-pairs comparison."""
    reps = []
    first_collision = None
    for n in range(bound + 1):
        f = family(n)
        image = f.apply(element)
        hit = next((idx for idx, rep in reps if words_equal(f.domain, rep, image)), None)
        if hit is None:
            reps.append((n, image))
        elif first_collision is None:
            first_collision = (hit, n)
    return OrbitReport(description, element, bound, len(reps), first_collision)


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
    syl = [(side, pres.to_factor(side, tuple(ls))) for side, ls in syl]
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
            p = power_of(wd, pres.edge_word(side))
            if p is None:
                continue
            other = 2 if side == 1 else 1
            converted = pres.edge_word(other) ** p
            if i + 1 < len(syl):
                syl[i : i + 2] = [(other, converted * syl[i + 1][1])]
            else:
                syl[i - 1 : i + 1] = [(other, syl[i - 1][1] * converted)]
            changed = True
            break
    return tuple(syl)
