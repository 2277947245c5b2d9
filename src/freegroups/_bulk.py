"""Vectorized word sweeps (numpy) for the large brute-force searches.

Words are rows of signed int8 letters, left-aligned with zero padding.
Row order always matches ``words.iter_reduced_letter_tuples``: length
ascending, then lexicographic in the canonical letter order (+1, -1,
+2, -2, ...), so sequential and bulk sweeps enumerate identically.
"""

from __future__ import annotations

import numpy as np

MAX_RANK = 127


def _canonical_letters(rank: int) -> np.ndarray:
    out = np.empty(2 * rank, dtype=np.int8)
    out[0::2] = np.arange(1, rank + 1)
    out[1::2] = -np.arange(1, rank + 1)
    return out


def words_of_length(rank: int, length: int) -> np.ndarray:
    """All reduced words of exactly this length, one row each."""
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds {MAX_RANK}, the most int8 letter codes hold")
    if rank == 0 or length == 0:
        return np.zeros((1 if length == 0 else 0, length), dtype=np.int8)
    letters = _canonical_letters(rank)
    arr = letters.reshape(-1, 1)
    if length == 1:
        return arr
    # allowed[i] lists, in canonical order, every letter except the
    # inverse of the letter at canonical position i.
    allowed = np.empty((2 * rank, 2 * rank - 1), dtype=np.int8)
    for i, letter in enumerate(letters):
        allowed[i] = letters[letters != -letter]
    for _ in range(length - 1):
        last = arr[:, -1]
        pos = (np.abs(last).astype(np.intp) - 1) * 2 + (last < 0)
        nxt = allowed[pos]
        arr = np.concatenate(
            [np.repeat(arr, 2 * rank - 1, axis=0), nxt.reshape(-1, 1)], axis=1
        )
    return arr


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


def row_lengths(arr: np.ndarray) -> np.ndarray:
    return (arr != 0).sum(axis=1)


def cyclic_bounds(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (start, end) of the cyclic core of reduced rows."""
    n, m = arr.shape
    start = np.zeros(n, dtype=np.intp)
    end = row_lengths(arr).astype(np.intp)
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
