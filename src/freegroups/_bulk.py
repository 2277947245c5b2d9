"""Vectorized word sweeps (numpy), the kernels of the former check-6 sweep.

No runtime code calls this module: check 6 is now an exact decider
(``closure._solution_set``), and ``import freegroups.cli`` does not load
numpy.  The tests use these kernels as the fast reference sweep
(``tests/closure_oracle.py::solution_set_bulk``), and the benchmark
still resolves them by name, so the module stays in the package until
both move to the test tree.

Words are rows of signed int8 letters, left-aligned with zero padding;
``bulk_reduce`` reduces a block in one column-by-column stack pass, and
``cyclic_bounds`` finds the cyclic core of each reduced row.  Row order
always matches ``words.iter_reduced_letter_tuples``: length ascending,
then lexicographic in the canonical letter order (+1, -1, +2, -2, ...),
so sequential and bulk sweeps enumerate identically.
"""

from __future__ import annotations

import numpy as np

MAX_RANK = 127


def words_of_length(rank: int, length: int) -> np.ndarray:
    """All reduced words of exactly this length, one row each."""
    if rank == 0 or length == 0:
        return np.zeros((1 if length == 0 else 0, length), dtype=np.int8)
    letters = np.array([x for g in range(1, rank + 1) for x in (g, -g)], dtype=np.int8)
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

    One stack push/pop per column, for all rows at once: the stacks share
    a flat int8 array whose column 0 holds -128, the inverse of no letter.
    A letter cancels the top when it is its inverse, else it is pushed; a
    zero letter does neither.  It is written above the top either way, and
    every cell above a row's final depth is zeroed at the end.
    """
    cols = np.ascontiguousarray(np.asarray(arr, dtype=np.int8).T)
    n, m = cols.shape
    stack = np.zeros((m, n + 1), dtype=np.int8)
    stack[:, 0] = -128
    flat = stack.reshape(-1)
    base = np.arange(m, dtype=np.intp) * (n + 1)
    top = base.copy()
    for letter in cols:
        cancel = flat.take(top) == -letter
        flat[top + 1] = letter
        top += (letter != 0).view(np.int8) - 2 * cancel.view(np.int8)
    out = stack[:, 1:]
    out[np.arange(n) >= (top - base)[:, None]] = 0
    return np.ascontiguousarray(out)


def cyclic_bounds(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (start, end) of the cyclic core of reduced rows.

    A row of length n strips its leading pairs row[i] == -row[n - 1 - i]
    with i < n - 1 - i; each step compares only the rows still matching.
    """
    end = (arr != 0).sum(axis=1)
    depth = np.zeros(len(end), dtype=np.intp)
    live = np.arange(len(end))
    for i in range(arr.shape[1] // 2):
        back = end[live] - 1 - i
        live = live[(i < back) & (arr[live, i] == -arr[live, back])]
        if not len(live):
            break
        depth[live] += 1
    return depth, end - depth
