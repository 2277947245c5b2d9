"""Reference paths for the solution-set tests.

``solution_set`` visits every reduced h up to ``max_len`` in enumeration
order (length, then canonical letter order), freely reduces the equation
word a h b h a h^-1 b h^-1 one candidate at a time, and keeps h when the
cyclic core is a rotation of v's.  It is slow but simple, and
``test_closure.py`` requires the library's vectorized sweep to return
exactly the same list.

``bulk_reduce`` is the earlier pass-based numpy reduction of padded rows,
kept as the reference for the column-stack kernel in ``_bulk``, and
``cyclic_bounds`` the earlier loop that strips one end pair of every row
per pass, the reference for the active-row loop in ``_bulk``, which
compares only the rows still matching.
"""

from __future__ import annotations

import numpy as np

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
