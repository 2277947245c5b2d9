"""Folded core graphs for finitely generated subgroups of free groups.

A subgroup graph is a connected, folded, directed graph with edges
labeled by generators and a distinguished base vertex.  Folded means no
vertex carries two outgoing (or two incoming) edges with the same label,
so paths reading a given word are unique in both directions.  Core means
every vertex except possibly the base has total degree >= 2; the base is
kept even at degree <= 1 because membership is base-point sensitive.

Graphs are canonically renumbered (breadth-first from the base, edges
ordered by generator index and sign) on construction, so two graphs are
label-isomorphic exactly when their edge sets are equal.  Instances are
immutable after construction and all operations here are pure.

Costs, for V vertices and E edges over rank n: folding generators of
total length L is near-linear in L (a union-find worklist); trimming is
linear (a degree queue); renumbering and searches are one breadth-first
pass, O(V n).  ``intersect`` is linear in the base component of the fiber
product, ``is_malnormal`` in the whole product (about E^2 / n edges).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional, Sequence

from .words import Alphabet, Word, content_lines, free_reduce

Edge = tuple[int, int, int]  # (src, generator letter > 0, dst)


class SubgroupGraph:
    __slots__ = ("alphabet", "edges", "_out", "_in", "_vertices")

    def __init__(self, alphabet: Alphabet, edges: Iterable[Edge]):
        self.alphabet = alphabet
        self.edges = frozenset(edges)
        out: dict[tuple[int, int], int] = {}
        inc: dict[tuple[int, int], int] = {}
        verts = {0}
        for src, g, dst in self.edges:
            if (src, g) in out or (dst, g) in inc:
                raise ValueError("graph is not folded")
            out[(src, g)] = dst
            inc[(dst, g)] = src
            verts.add(src)
            verts.add(dst)
        self._out = out
        self._in = inc
        self._vertices = frozenset(verts)

    # The base vertex is always 0 after canonical renumbering.
    base = 0

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubgroupGraph)
            and self.alphabet == other.alphabet
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.edges))

    def __repr__(self) -> str:
        return f"SubgroupGraph(vertices={len(self._vertices)}, edges={len(self.edges)}, rank={self.rank()})"

    def step(self, vertex: int, letter: int) -> Optional[int]:
        """Follow one letter from a vertex; None if no such edge."""
        if letter > 0:
            return self._out.get((vertex, letter))
        return self._in.get((vertex, -letter))

    def contains(self, w: Word) -> bool:
        """True iff w labels a closed path at the base vertex."""
        if w.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        cur: Optional[int] = 0
        for letter in w.letters:
            cur = self.step(cur, letter)
            if cur is None:
                return False
        return cur == 0

    def rank(self) -> int:
        return len(self.edges) - len(self._vertices) + 1

    def is_rose(self) -> bool:
        return len(self._vertices) == 1 and len(self.edges) == self.alphabet.rank

    def _spanning_tree(self) -> tuple[dict, list[Edge]]:
        """BFS tree steps from the base plus the non-tree edges (sorted).

        Each vertex maps to the (parent, letter) step that reached it, the
        base to None; exploration order is (generator index, out before
        in), matching the canonical renumbering.
        """
        found = _bfs(0, _neighbours(self.step, self.alphabet))
        tree_edges = {(v, g, w) if g > 0 else (w, -g, v) for w, (v, g) in list(found.items())[1:]}
        return found, sorted(e for e in self.edges if e not in tree_edges)

    def basis(self) -> list[Word]:
        """A free basis from the spanning-tree complement."""
        found, non_tree = self._spanning_tree()

        def up(v: int) -> list[int]:
            """Inverse letters of the tree path from v back to the base."""
            out = []
            while found[v] is not None:
                v, letter = found[v]
                out.append(-letter)
            return out

        return [
            Word(self.alphabet, free_reduce([-l for l in reversed(up(src))] + [g] + up(dst)), _reduced=True)
            for src, g, dst in non_tree
        ]

    def express_in_basis(self, w: Word) -> Optional[tuple[int, ...]]:
        """Rewrite a member word over the spanning-tree basis.

        Returns signed basis indices (1-based, aligned with ``basis()``),
        or None when w is not in the subgroup.
        """
        _, non_tree = self._spanning_tree()
        index = {e: k + 1 for k, e in enumerate(non_tree)}
        cur = 0
        out: list[int] = []
        for letter in w.letters:
            nxt = self.step(cur, letter)
            if nxt is None:
                return None
            edge = (cur, letter, nxt) if letter > 0 else (nxt, -letter, cur)
            k = index.get(edge)
            if k is not None:
                out.append(k if letter > 0 else -k)
            cur = nxt
        if cur != 0:
            return None
        return free_reduce(out)

    def to_text(self) -> str:
        lines = ["gens " + " ".join(self.alphabet.generators), "base 0"]
        for src, g, dst in sorted(self.edges):
            lines.append(f"{src} {self.alphabet.generators[g - 1]} {dst}")
        return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> SubgroupGraph:
    alphabet = None
    edges = []
    for line in content_lines(text):
        parts = line.split()
        if parts[0] == "gens":
            alphabet = Alphabet(parts[1:])
        elif parts[0] == "base":
            if parts[1:] != ["0"]:
                raise ValueError("graph files use base vertex 0")
        else:
            if alphabet is None:
                raise ValueError("graph file must declare gens before edges")
            if len(parts) != 3 or not all(v.removeprefix("-").isdecimal() for v in parts[::2]):
                raise ValueError(f"bad edge line {line!r}")
            src, label, dst = parts
            edges.append((int(src), alphabet.index(label) + 1, int(dst)))
    if alphabet is None:
        raise ValueError("graph file missing gens line")
    SubgroupGraph(alphabet, edges)  # raises ValueError("graph is not folded")
    declared = {0} | {v for e in edges for v in (e[0], e[2])}
    adjacency = _adjacency(edges)
    seen = _bfs(0, lambda v: adjacency.get(v, ())).keys()
    if seen != declared:
        raise ValueError("graph file must be connected to base vertex 0")
    return _canonical(alphabet, set(edges), 0)


def _find(parent: dict, x):
    """Root of x in a union-find forest (absent keys are roots); halves the path."""
    while (up := parent.get(x, x)) != x:
        grand = parent.get(up, up)
        parent[x] = grand
        x = grand
    return x


def _bfs(start, neighbours: Callable) -> dict:
    """Breadth-first search; ``neighbours(v)`` yields (label, w) in exploration order.

    Returns every vertex reached, in discovery order, mapped to the
    (parent, label) step that found it; the start maps to None.
    """
    found = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for label, w in neighbours(v):
            if w not in found:
                found[w] = (v, label)
                queue.append(w)
    return found


def _neighbours(step: Callable, alphabet: Alphabet) -> Callable:
    """(letter, step(v, letter)) for each letter that leads somewhere, in canonical order."""
    letters = alphabet.letters()

    def neighbours(v):
        for letter in letters:
            w = step(v, letter)
            if w is not None:
                yield letter, w

    return neighbours


def _adjacency(edges) -> dict:
    """Vertex -> list of (signed letter, neighbour), in edge order."""
    adjacency: dict = {}
    for a, g, b in edges:
        adjacency.setdefault(a, []).append((g, b))
        adjacency.setdefault(b, []).append((-g, a))
    return adjacency


def _fold(edges: set[Edge], base: int) -> tuple[set[Edge], int]:
    """Identify targets (sources) of same-labeled edges until folded.

    Each root keeps a {signed letter: neighbour} map, its neighbours
    resolved through the union-find ``parent`` on read.  A merge moves
    the smaller map onto the larger root and queues a merge for every
    letter both maps hold; a map has at most 2n letters.  Folding is
    confluent, so the merge order does not change the result.
    """
    parent: dict[int, int] = {}
    maps: dict[int, dict[int, int]] = {}
    pending: list[tuple[int, int]] = []

    def attach(root: int, letter: int, w: int) -> None:
        m = maps.setdefault(root, {})
        clash = m.setdefault(letter, w)
        if clash != w:
            pending.append((clash, w))

    for a, g, b in edges:
        attach(a, g, b)
        attach(b, -g, a)
    while pending:
        x, y = (_find(parent, v) for v in pending.pop())
        if x == y:
            continue
        if len(maps[x]) < len(maps[y]):
            x, y = y, x
        parent[y] = x
        for letter, w in maps.pop(y).items():
            attach(x, letter, w)
    folded = {(v, g, _find(parent, w)) for v, m in maps.items() for g, w in m.items() if g > 0}
    return folded, _find(parent, base)


def _trim(edges: set[Edge], base) -> set[Edge]:
    """Remove non-base vertices of total degree <= 1 until core.

    A degree queue: a vertex is queued when its degree falls to 1, and
    removing it lowers the degree of its neighbour, if any, so each edge
    is removed at most once.
    """
    incident = _adjacency(edges)
    degree = {v: len(nbrs) for v, nbrs in incident.items()}
    alive = set(edges)
    queue = deque(v for v, d in degree.items() if d <= 1 and v != base)
    while queue:
        v = queue.popleft()
        for g, w in incident[v]:
            edge = (v, g, w) if g > 0 else (w, -g, v)
            if edge in alive:
                alive.remove(edge)
                degree[w] -= 1
                if degree[w] == 1 and w != base:
                    queue.append(w)
    return alive


def _canonical(alphabet: Alphabet, edges: set[Edge], base) -> SubgroupGraph:
    """Renumber vertices by BFS from the base; gives a unique labeled form."""
    out = {(a, g): b for a, g, b in edges}
    inc = {(b, g): a for a, g, b in edges}

    def step(v, letter):
        return out.get((v, letter)) if letter > 0 else inc.get((v, -letter))

    rename = {v: i for i, v in enumerate(_bfs(base, _neighbours(step, alphabet)))}
    new_edges = {(rename[a], g, rename[b]) for a, g, b in edges}
    return SubgroupGraph(alphabet, new_edges)


def subgroup_graph(alphabet: Alphabet, words: Sequence[Word]) -> SubgroupGraph:
    """Folded core graph of the subgroup generated by the given words.

    The empty list yields the single-vertex graph (trivial subgroup).
    Folding is confluent: any generator order gives a label-isomorphic
    result.
    """
    edges: set[Edge] = set()
    fresh = 1
    for w in words:
        if w.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
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
    folded, base = _fold(edges, 0)
    cored = _trim(folded, base)
    return _canonical(alphabet, cored, base)


def _product_edges(g1: SubgroupGraph, g2: SubgroupGraph):
    """Labeled fiber product over the rose: pairs of same-labeled edges."""
    by_label: dict[int, list[tuple[int, int]]] = {}
    for (q, h), q2 in g2._out.items():
        by_label.setdefault(h, []).append((q, q2))
    return [((p, q), g, (p2, q2)) for (p, g), p2 in g1._out.items() for q, q2 in by_label.get(g, ())]


def intersect(g1: SubgroupGraph, g2: SubgroupGraph) -> SubgroupGraph:
    """Core of the base component of the fiber product: H1 meet H2.

    Only the component of (0, 0) is built, in time linear in its size.
    """
    if g1.alphabet != g2.alphabet:
        raise ValueError("alphabet mismatch")

    def step(v, letter):
        p, q = g1.step(v[0], letter), g2.step(v[1], letter)
        return None if p is None or q is None else (p, q)

    neighbours = _neighbours(step, g1.alphabet)
    kept = {(v, g, w) for v in _bfs((0, 0), neighbours) for g, w in neighbours(v) if g > 0}
    return _canonical(g1.alphabet, _trim(kept, (0, 0)), (0, 0))


def is_malnormal(graph: SubgroupGraph) -> bool:
    """True iff every non-diagonal fiber-product component has trivial core.

    In a folded graph paths are deterministic in both directions, so the
    diagonal pairs (p, p) form one component isomorphic to the graph; any
    other component with a cycle witnesses a nontrivial intersection with
    a conjugate.  For a cyclic subgroup this is equivalent to the
    generator being root-free.  A component is a forest iff none of its
    edges joins two vertices already connected (E = V - 1), so one
    union-find pass over the product edges decides.
    """
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    closing = []  # one end of every edge that closed a cycle
    for a, _, b in _product_edges(graph, graph):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            closing.append(ra)
        else:
            parent[ra] = rb
    diagonal = _find(parent, (0, 0))
    return all(_find(parent, v) == diagonal for v in closing)
