"""Reference computations the benchmark checks the program against.

Everything here is written apart from ``freegroups`` and imports nothing
from it.  A word is a tuple of signed generator indices (``+i`` is the
i-th generator, ``-i`` its inverse, both 1-based).  A graph is a set of
edges ``(src, generator, dst)`` with base vertex 0, the same layout the
program's ``SubgroupGraph.edges`` uses, so outputs are compared as data.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Sequence

Word = tuple[int, ...]
Edge = tuple


# ---------------------------------------------------------------------------
# Words.


def reduce(seq: Iterable[int]) -> Word:
    """Free reduction by cancelling adjacent inverse letters on a stack."""
    out: list[int] = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w: Sequence[int]) -> Word:
    return tuple(-x for x in reversed(w))


def product(*words: Sequence[int]) -> Word:
    return reduce(x for w in words for x in w)


def power(w: Sequence[int], n: int) -> Word:
    base = tuple(w) if n >= 0 else inverse(w)
    return reduce(base * abs(n))


def cyclic_core(w: Sequence[int]) -> Word:
    w = reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def rotations(w: Sequence[int]) -> set[Word]:
    w = tuple(w)
    return {w[k:] + w[:k] for k in range(max(len(w), 1))}


def is_proper_power(w: Sequence[int]) -> bool:
    """True iff the cyclic core is a period repeated at least twice."""
    core = cyclic_core(w)
    n = len(core)
    return any(n % d == 0 and core[:d] * (n // d) == core for d in range(1, n))


def abelianization(w: Sequence[int], rank: int) -> tuple[int, ...]:
    counts = [0] * rank
    for x in w:
        counts[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(counts)


def canonical_letters(rank: int) -> list[int]:
    """The program's documented letter order: +1, -1, +2, -2, ..."""
    return [s * i for i in range(1, rank + 1) for s in (1, -1)]


def reduced_words(rank: int, length: int) -> Iterator[Word]:
    """Every reduced word of exactly this length, in canonical order."""
    letters = canonical_letters(rank)

    def extend(prefix: Word) -> Iterator[Word]:
        if len(prefix) == length:
            yield prefix
            return
        for x in letters:
            if not prefix or x != -prefix[-1]:
                yield from extend(prefix + (x,))

    yield from extend(())


def random_reduced(rng: random.Random, rank: int, length: int, first_not=(), last_not=()) -> Word:
    """A reduced word of exactly this length.

    ``first_not`` and ``last_not`` exclude letters at the two ends, so the
    caller can make a concatenation reduced or cyclically reduced.
    """
    letters = canonical_letters(rank)
    while True:
        out: list[int] = []
        for i in range(length):
            choices = [x for x in letters if not (out and x == -out[-1])]
            if i == 0:
                choices = [x for x in choices if x not in first_not]
            out.append(rng.choice(choices))
        if not out or out[-1] not in last_not:
            return tuple(out)


# ---------------------------------------------------------------------------
# The counterexample's equation, solved by brute force.


def equation_word(h: Sequence[int], a: int, b: int) -> Word:
    """E(h) = a h b h a h^-1 b h^-1, freely reduced."""
    hi = inverse(h)
    return product((a,), h, (b,), h, (a,), hi, (b,), hi)


def solves(h: Sequence[int], v: Sequence[int], a: int, b: int) -> bool:
    """E(h) is conjugate to v: their cyclic cores are rotations."""
    return cyclic_core(equation_word(h, a, b)) in rotations(cyclic_core(v))


def solution_set(rank: int, v: Sequence[int], a: int, b: int, max_len: int) -> list[Word]:
    """Every reduced h with |h| <= max_len solving the equation, in order."""
    return [
        h
        for length in range(max_len + 1)
        for h in reduced_words(rank, length)
        if solves(h, v, a, b)
    ]


def letter_permutation(images: dict[int, Word]) -> dict[int, int] | None:
    """The signed-letter table of a map, or None if some image is not one letter."""
    table: dict[int, int] = {}
    for g, img in images.items():
        if len(img) != 1:
            return None
        table[g], table[-g] = img[0], -img[0]
    return table


# ---------------------------------------------------------------------------
# Subgroup graphs.


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[ry] = rx
        return True


def fold(words: Sequence[Sequence[int]]) -> set[Edge]:
    """Folded core graph of <words>, base 0, by a union-find worklist.

    Each vertex keeps one outgoing and one incoming edge per label; a
    second one is merged into the first, and merging two vertices merges
    their label maps, which may queue further merges.
    """
    edges: list[Edge] = []
    fresh = 1
    for w in words:
        w = reduce(w)
        cur = 0
        for i, x in enumerate(w):
            nxt = 0 if i == len(w) - 1 else fresh
            fresh += i != len(w) - 1
            edges.append((cur, x, nxt) if x > 0 else (nxt, -x, cur))
            cur = nxt
    uf = _UnionFind()
    # adj[v] maps a signed label to the neighbour reached by reading it.
    adj: dict[int, dict[int, int]] = {}
    pending: list[tuple[int, int]] = []

    def attach(v: int, label: int, w: int) -> None:
        m = adj.setdefault(v, {})
        if label in m:
            pending.append((m[label], w))
        else:
            m[label] = w

    for a, g, b in edges:
        attach(a, g, b)
        attach(b, -g, a)
    while pending:
        x, y = pending.pop()
        keep, gone = uf.find(x), uf.find(y)
        if keep == gone:
            continue
        uf.union(keep, gone)
        for label, w in adj.pop(gone, {}).items():
            attach(keep, label, w)
    folded = {(uf.find(a), g, uf.find(b)) for a, g, b in edges}
    return trim(folded, uf.find(0))


def trim(edges: set[Edge], base) -> set[Edge]:
    """Drop non-base vertices of degree <= 1 with a queue, then rename base to 0.

    A loop counts twice towards the degree of its vertex.
    """
    edges = set(edges)
    incident: dict = {}
    degree: dict = {}
    for e in edges:
        for end in (e[0], e[2]):
            incident.setdefault(end, []).append(e)
            degree[end] = degree.get(end, 0) + 1
    queue = [v for v, d in degree.items() if d <= 1 and v != base]
    while queue:
        v = queue.pop()
        for e in incident[v]:
            if e not in edges:
                continue
            edges.remove(e)
            for end in (e[0], e[2]):
                degree[end] -= 1
                if end != v and end != base and degree[end] == 1:
                    queue.append(end)
    if base == 0:
        return edges
    swap = {base: 0, 0: base}
    return {(swap.get(a, a), g, swap.get(b, b)) for a, g, b in edges}


def based_isomorphic(e1: Iterable[Edge], e2: Iterable[Edge]) -> bool:
    """Label isomorphism fixing base 0, for folded graphs.

    Folded graphs read every word along at most one path, so walking both
    graphs from the base in step fixes the only candidate bijection.
    """
    e1, e2 = set(e1), set(e2)
    if len(e1) != len(e2):
        return False

    def moves(edges):
        adj: dict = {0: {}}
        for a, g, b in edges:
            adj.setdefault(a, {})[g] = b
            adj.setdefault(b, {})[-g] = a
        return adj

    adj1, adj2 = moves(e1), moves(e2)
    if len(adj1) != len(adj2):
        return False
    image = {0: 0}
    queue = [0]
    while queue:
        v = queue.pop()
        m1, m2 = adj1.get(v, {}), adj2.get(image[v], {})
        if m1.keys() != m2.keys():
            return False
        for label, w in m1.items():
            if w in image:
                if image[w] != m2[label]:
                    return False
            else:
                image[w] = m2[label]
                queue.append(w)
    return len(set(image.values())) == len(image) == len(adj1)


def accepts(edges: Iterable[Edge], w: Sequence[int]) -> bool:
    """True iff w labels a closed path at the base."""
    out, inc = {}, {}
    for a, g, b in edges:
        out[(a, g)] = b
        inc[(b, g)] = a
    cur = 0
    for x in w:
        cur = out.get((cur, x)) if x > 0 else inc.get((cur, -x))
        if cur is None:
            return False
    return cur == 0


def fiber_product(e1: Iterable[Edge], e2: Iterable[Edge]) -> list[Edge]:
    by_label: dict[int, list[tuple]] = {}
    for a, g, b in e2:
        by_label.setdefault(g, []).append((a, b))
    return [((a, p), g, (b, q)) for a, g, b in e1 for p, q in by_label.get(g, ())]


def intersection(e1: Iterable[Edge], e2: Iterable[Edge]) -> set[Edge]:
    """Core graph of H1 meet H2: the base component of the fiber product."""
    edges = fiber_product(e1, e2)
    uf = _UnionFind()
    for a, _, b in edges:
        uf.union(a, b)
    root = uf.find((0, 0))
    names = {(0, 0): 0}
    kept = set()
    for a, g, b in edges:
        if uf.find(a) == root:
            for v in (a, b):
                names.setdefault(v, len(names))
            kept.add((names[a], g, names[b]))
    return trim(kept, 0)


def is_malnormal(edges: Iterable[Edge]) -> bool:
    """Every component of the fiber product off the diagonal is a forest.

    A component with V vertices and E edges is a forest iff E = V - 1.
    """
    product_edges = fiber_product(edges, edges)
    uf = _UnionFind()
    for a, _, b in product_edges:
        uf.union(a, b)
    n_edges: dict = {}
    for a, _, _ in product_edges:
        r = uf.find(a)
        n_edges[r] = n_edges.get(r, 0) + 1
    n_verts: dict = {}
    diagonal: set = set()
    for v in {v for a, _, b in product_edges for v in (a, b)}:
        r = uf.find(v)
        n_verts[r] = n_verts.get(r, 0) + 1
        if v[0] == v[1]:
            diagonal.add(r)
    return all(n_edges[r] == n_verts[r] - 1 for r in n_edges if r not in diagonal)


# ---------------------------------------------------------------------------
# Automorphisms and splittings.


def nielsen_images(rng: random.Random, rank: int, steps: int) -> list[Word]:
    """Images of the generators under a product of random Nielsen moves.

    Each move replaces one image x_i by x_i x_j^e or x_j^e x_i (i != j),
    so the result is always a free basis.
    """
    images = [(i,) for i in range(1, rank + 1)]
    for _ in range(steps):
        i, j = rng.sample(range(rank), 2)
        other = images[j] if rng.random() < 0.5 else inverse(images[j])
        images[i] = product(images[i], other) if rng.random() < 0.5 else product(other, images[i])
    return images


def is_unimodular(vector: Sequence[int]) -> bool:
    """gcd of the entries is 1; necessary for a primitive element."""
    return math.gcd(*vector) == 1


def twist_image(u: Sequence[int], t: int, n: int) -> Word:
    """Image of t under t -> u^n t."""
    return product(power(u, n), (t,))


def hnn_pinch_word(u: Sequence[int], t: int, syllables: Sequence[tuple[int, Word]]) -> Word:
    """Prod_i t^-1 u^{p_i} t g_i: each factor pinches to v^{p_i} g_i."""
    return product(*[(-t,) + power(u, p) + (t,) + g for p, g in syllables])


def hnn_pinched(v: Sequence[int], syllables: Sequence[tuple[int, Word]]) -> Word:
    """The base word Prod_i v^{p_i} g_i that every complete Britton reduction reaches."""
    return product(*[power(v, p) + g for p, g in syllables])
