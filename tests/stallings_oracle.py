"""Reference path for the Stallings-graph tests: the original quadratic code.

``fold`` re-collects and re-sorts every edge after each merge, ``trim``
and ``trim_all`` delete leaves by repeated full passes, and
``is_malnormal`` trims every non-diagonal fiber-product component, and
``tree_paths`` stores the whole letter path to every vertex for
``basis`` and ``express``.  They are slow but simple, and the
differential tests in ``test_stallings.py`` require the library's
near-linear versions to agree with them exactly.  Everything here
returns plain edge sets and letter tuples, never library objects, so the
oracle shares no code with the path it checks.
"""

from __future__ import annotations

from freegroups.words import Word


def fold(edges: set, base: int) -> tuple[set, int]:
    """Identify targets (sources) of same-labeled edges until folded."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    while True:
        current = {(find(a), g, find(b)) for a, g, b in edges}
        merge = None
        out: dict[tuple[int, int], int] = {}
        inc: dict[tuple[int, int], int] = {}
        for a, g, b in sorted(current):
            if (a, g) in out and out[(a, g)] != b:
                merge = (out[(a, g)], b)
                break
            out[(a, g)] = b
            if (b, g) in inc and inc[(b, g)] != a:
                merge = (inc[(b, g)], a)
                break
            inc[(b, g)] = a
        if merge is None:
            return current, find(base)
        x, y = find(merge[0]), find(merge[1])
        if x != y:
            parent[max(x, y)] = min(x, y)


def trim(edges: set, base: int) -> set:
    """Remove non-base vertices of total degree <= 1 until core."""
    edges = set(edges)
    while True:
        degree: dict[int, int] = {}
        for a, _, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        dead = {v for v, d in degree.items() if d <= 1 and v != base}
        if not dead:
            return edges
        edges = {e for e in edges if e[0] not in dead and e[2] not in dead}


def trim_all(edges: set) -> set:
    """Trim degree <= 1 vertices with no protected base vertex."""
    edges = set(edges)
    while True:
        degree: dict = {}
        for a, _, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        dead = {v for v, d in degree.items() if d <= 1}
        if not dead:
            return edges
        edges = {e for e in edges if e[0] not in dead and e[2] not in dead}


def canonical(rank: int, edges: set, base) -> frozenset:
    """Renumber vertices by BFS from the base, generator index then out before in."""
    rename = {base: 0}
    queue = [base]
    out = {(a, g): b for a, g, b in edges}
    inc = {(b, g): a for a, g, b in edges}
    while queue:
        v = queue.pop(0)
        for g in range(1, rank + 1):
            for nbr in (out.get((v, g)), inc.get((v, g))):
                if nbr is not None and nbr not in rename:
                    rename[nbr] = len(rename)
                    queue.append(nbr)
    return frozenset((rename[a], g, rename[b]) for a, g, b in edges)


def subgroup_edges(rank: int, words: list[Word]) -> frozenset:
    """Canonical edge set of the folded core graph of <words>."""
    edges: set = set()
    fresh = 1
    for w in words:
        cur = 0
        n = len(w.letters)
        for i, letter in enumerate(w.letters):
            nxt = 0 if i == n - 1 else fresh
            if i != n - 1:
                fresh += 1
            if letter > 0:
                edges.add((cur, letter, nxt))
            else:
                edges.add((nxt, -letter, cur))
            cur = nxt
    folded, base = fold(edges, 0)
    return canonical(rank, trim(folded, base), base)


def product_edges(e1, e2) -> list:
    """All pairs of same-labeled edges: the labeled fiber product."""
    return [((p, q), g, (p2, q2)) for p, g, p2 in e1 for q, h, q2 in e2 if g == h]


def intersect_edges(rank: int, e1, e2) -> frozenset:
    """Canonical edge set of the core of the base component of the product."""
    edges = product_edges(e1, e2)
    adjacency: dict = {}
    for a, _, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    seen = {(0, 0)}
    queue = [(0, 0)]
    while queue:
        v = queue.pop(0)
        for w in adjacency.get(v, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    kept = {e for e in edges if e[0] in seen and e[2] in seen}
    return canonical(rank, trim(kept, (0, 0)), (0, 0))


def is_malnormal(edges) -> bool:
    """True iff every non-diagonal fiber-product component trims to nothing."""
    product = product_edges(edges, edges)
    adjacency: dict = {}
    for a, _, b in product:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    seen: set = set()
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = {start}
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in adjacency.get(v, ()):
                if w not in component:
                    component.add(w)
                    queue.append(w)
        seen |= component
        if any(p == q for p, q in component):
            continue
        if trim_all({e for e in product if e[0] in component}):
            return False
    return True


def tree_paths(rank: int, edges) -> tuple[dict, list]:
    """Whole letter paths from vertex 0 in BFS order, plus the sorted non-tree edges."""
    out = {(a, g): b for a, g, b in edges}
    inc = {(b, g): a for a, g, b in edges}
    path = {0: ()}
    tree = set()
    queue = [0]
    while queue:
        v = queue.pop(0)
        for g in range(1, rank + 1):
            for letter, nbr in ((g, out.get((v, g))), (-g, inc.get((v, g)))):
                if nbr is not None and nbr not in path:
                    path[nbr] = path[v] + (letter,)
                    tree.add((v, g, nbr) if letter > 0 else (nbr, g, v))
                    queue.append(nbr)
    return path, sorted(e for e in edges if e not in tree)


def basis(rank: int, edges) -> list[tuple[int, ...]]:
    """path(src) g path(dst)^-1, freely reduced, for each non-tree edge."""
    path, non_tree = tree_paths(rank, edges)
    return [_reduce(path[a] + (g,) + tuple(-l for l in reversed(path[b]))) for a, g, b in non_tree]


def express(rank: int, edges, letters) -> tuple[int, ...] | None:
    """Signed 1-based indices of the non-tree edges a closed path at 0 crosses, reduced."""
    out = {(a, g): b for a, g, b in edges}
    inc = {(b, g): a for a, g, b in edges}
    index = {e: k + 1 for k, e in enumerate(tree_paths(rank, edges)[1])}
    cur, crossed = 0, []
    for letter in letters:
        nxt = out.get((cur, letter)) if letter > 0 else inc.get((cur, -letter))
        if nxt is None:
            return None
        k = index.get((cur, letter, nxt) if letter > 0 else (nxt, -letter, cur))
        if k is not None:
            crossed.append(k if letter > 0 else -k)
        cur = nxt
    return _reduce(crossed) if cur == 0 else None


def _reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)
