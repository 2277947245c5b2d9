"""Reference paths for the solution-set tests.

``solution_set`` visits every reduced h up to ``max_len`` in enumeration
order (length, then canonical letter order), freely reduces the equation
word a h b h a h^-1 b h^-1 one candidate at a time, and keeps h when the
cyclic core is a rotation of v's.  It is slow but simple.
``solution_set_bulk`` is the library's former check-6 sweep: the same
list from a vectorized sweep over a, b and the letters of v, fast enough
for length 8 and for the one-letter perturbations of v.
``test_closure.py`` requires the library's exact decider, cut at
``max_len``, to return exactly the list of each.

``dcl_scan`` is the former word-by-word scan of check 7, the reference
for ``closure.dcl_separation_check``, which takes its words from
``endos.iter_fixed_words`` (only the fixed generators for a letter map).

``bulk_reduce`` is the earlier pass-based numpy reduction of padded rows,
kept as the reference for the column-stack kernel in ``_bulk``, and
``cyclic_bounds`` the earlier loop that strips one end pair of every row
per pass, the reference for the active-row loop in ``_bulk``, which
compares only the rows still matching.

``v_perturbations`` lists the one-letter perturbations of v that keep
the splitting's hypotheses: the negative controls of the pipeline tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from freegroups import _bulk
from freegroups.closure import build_counterexample
from freegroups.endos import Endomorphism
from freegroups.splittings import HnnPresentation, validate_presentation
from freegroups.words import Alphabet, Word, cyclically_reduce, free_reduce, iter_reduced_letter_tuples


def solution_set(alphabet: Alphabet, v: Word, max_len: int) -> list[Word]:
    """Every reduced h with |h| <= max_len whose equation word is conjugate to v."""
    a_code = alphabet.letter("a")
    b_code = alphabet.letter("b")
    core = cyclically_reduce(v)[0].letters
    rotations = {core[k:] + core[:k] for k in range(max(len(core), 1))}
    solutions: list[Word] = []
    for h in iter_reduced_letter_tuples(alphabet.rank, max_len):
        inv = tuple(-l for l in reversed(h))
        lets = free_reduce(
            (a_code,) + h + (b_code,) + h + (a_code,) + inv + (b_code,) + inv
        )
        i, j = 0, len(lets)
        while j - i >= 2 and lets[i] == -lets[j - 1]:
            i += 1
            j -= 1
        if j - i == len(core) and lets[i:j] in rotations:
            solutions.append(Word(alphabet, h, _reduced=True))
    return solutions


def bulk_reduce(arr: np.ndarray) -> np.ndarray:
    """Freely reduce every row (zero-padded, letters stay left-aligned).

    Each pass removes, inside every maximal run of adjacent cancelling
    positions, the alternate pairs starting at the run head; cascades
    resolve over successive passes.  Rows with no remaining cancellation
    are parked between passes, so late passes touch few rows.
    """
    out = arr.astype(np.int8, copy=True)
    m = out.shape[1]
    if m < 2 or out.shape[0] == 0:
        return out
    idx = np.arange(out.shape[0])
    work = out
    cols = np.arange(m)
    while True:
        nxt = np.zeros_like(work)
        nxt[:, :-1] = work[:, 1:]
        cancel = (work != 0) & (work == -nxt)
        has = cancel.any(axis=1)
        if not has.any():
            out[idx] = work
            return out
        done = ~has
        if done.any():
            out[idx[done]] = work[done]
            idx = idx[has]
            work = work[has]
            cancel = cancel[has]
        prev = np.zeros_like(cancel)
        prev[:, 1:] = cancel[:, :-1]
        run_start = cancel & ~prev
        last_start = np.maximum.accumulate(np.where(run_start, cols, -1), axis=1)
        select = cancel & ((cols - last_start) % 2 == 0) & (last_start >= 0)
        remove = select.copy()
        remove[:, 1:] |= select[:, :-1]
        keep = (work != 0) & ~remove
        counts = np.cumsum(keep, axis=1, dtype=np.int32)
        compacted = np.zeros_like(work)
        rows_k, cols_k = np.nonzero(keep)
        compacted[rows_k, counts[rows_k, cols_k] - 1] = work[rows_k, cols_k]
        work = compacted


def cyclic_bounds(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (start, end) of the cyclic core of reduced rows."""
    n, m = arr.shape
    start = np.zeros(n, dtype=np.intp)
    end = (arr != 0).sum(axis=1).astype(np.intp)
    if m == 0:
        return start, end
    rows = np.arange(n)
    while True:
        active = end - start >= 2
        first = arr[rows, np.minimum(start, m - 1)]
        last = arr[rows, np.maximum(end - 1, 0)]
        strip = active & (first == -last)
        if not strip.any():
            return start, end
        start = start + strip
        end = end - strip


def _equation_rows(h_rows: np.ndarray, a_code: int, b_code: int) -> np.ndarray:
    """Rows a h b h a h^-1 b h^-1 for a block of candidate rows h."""
    n, length = h_rows.shape
    out = np.empty((n, 4 * length + 4), dtype=np.int8)
    inv = -h_rows[:, ::-1]
    out[:, 0] = a_code
    out[:, 1 : 1 + length] = h_rows
    out[:, 1 + length] = b_code
    out[:, 2 + length : 2 + 2 * length] = h_rows
    out[:, 2 + 2 * length] = a_code
    out[:, 3 + 2 * length : 3 + 3 * length] = inv
    out[:, 3 + 3 * length] = b_code
    out[:, 4 + 3 * length :] = inv
    return out


def solution_set_bulk(alphabet: Alphabet, v: Word, max_len: int) -> list[Word]:
    """``solution_set`` as a vectorized sweep over a, b and the letters of v.

    Every solution lies in <C>, C being {a, b} and the generators of v
    (the free-product argument in ``closure._solution_set``), so only
    words over C are enumerated.  The sweep is halved: h solves iff h^-1
    does, and a nonempty reduced h never equals h^-1, so it keeps h
    before h^-1 in canonical order (letter key 2|x| + (x < 0), first
    differing column) and adds h^-1 to each hit.
    """
    rank = alphabet.rank
    if rank > _bulk.MAX_RANK:
        raise ValueError(f"rank {rank} exceeds {_bulk.MAX_RANK}, the most int8 letter codes hold")
    a_code, b_code = alphabet.letter("a"), alphabet.letter("b")
    core = cyclically_reduce(v)[0].letters
    rotations = {core[k:] + core[:k] for k in range(max(len(core), 1))}
    gens = sorted({a_code, b_code} | {abs(x) for x in v.letters})
    codes = np.array([0] + gens, dtype=np.int8)
    hits: list[tuple[int, ...]] = []
    chunk_rows = 1 << 15
    for length in range(0, max_len + 1):
        block = _bulk.words_of_length(len(gens), length)
        for lo in range(0, block.shape[0], chunk_rows):
            h_rows = block[lo : lo + chunk_rows]
            h_rows = np.sign(h_rows) * codes[np.abs(h_rows)]
            if length:
                key = 2 * np.abs(h_rows.astype(np.int16)) + (h_rows < 0)
                diff = key - (key + np.sign(h_rows))[:, ::-1]  # key(x^-1) = key(x) + sign(x)
                h_rows = h_rows[diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)] < 0]
            reduced = _bulk.bulk_reduce(_equation_rows(h_rows, a_code, b_code))
            start, end = _bulk.cyclic_bounds(reduced)
            for i in np.nonzero((end - start) == len(core))[0]:
                if tuple(int(x) for x in reduced[i, start[i] : end[i]]) in rotations:
                    h = tuple(int(x) for x in h_rows[i])
                    hits += [h, tuple(-x for x in reversed(h))] if h else [h]
    hits.sort(key=lambda h: (len(h), [2 * abs(x) + (x < 0) for x in h]))
    return [Word(alphabet, h, _reduced=True) for h in hits]


def dcl_scan(g: Endomorphism, a_names: tuple[str, ...], max_len: int) -> tuple[bool, Optional[Word]]:
    """(ok, first word of length 1..max_len with a generator outside
    a_names that g fixes, or None), scanning every reduced word in
    enumeration order."""
    alphabet = g.domain
    marked = {i + 1 for i, name in enumerate(alphabet.generators) if name not in a_names}
    for lets in iter_reduced_letter_tuples(alphabet.rank, max_len, min_len=1):
        if any(abs(x) in marked for x in lets):
            w = Word(alphabet, lets, _reduced=True)
            if g.apply(w) == w:
                return False, w
    return True, None


def v_perturbations(a0_size: int = 0) -> list[Word]:
    """All valid one-letter perturbations of v (negative-control inputs).

    Valid means the perturbed word is still reduced, cyclically reduced,
    and the presentation hypotheses still hold.
    """
    setup = build_counterexample(a0_size)
    v_letters = setup.v.letters
    alphabet = setup.h_alphabet
    out: list[Word] = []
    for pos in range(len(v_letters)):
        for letter in alphabet.letters():
            if letter == v_letters[pos]:
                continue
            candidate = v_letters[:pos] + (letter,) + v_letters[pos + 1 :]
            if free_reduce(candidate) != candidate:
                continue
            if len(candidate) >= 2 and candidate[0] == -candidate[-1]:
                continue
            w = Word(alphabet, candidate, _reduced=True)
            try:
                pres = HnnPresentation(alphabet, "t", setup.pres.u, w)
            except ValueError:
                continue
            if validate_presentation(pres).ok:
                out.append(w)
    return out
