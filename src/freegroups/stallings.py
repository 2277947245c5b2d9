"""Folded core graphs for finitely generated subgroups of free groups.

A subgroup graph is a connected, folded, directed graph with edges
labeled by generators and a distinguished base vertex.  Folded means no
vertex carries two outgoing (or two incoming) edges with the same label,
so paths reading a given word are unique in both directions.  Core means
every vertex except possibly the base has total degree >= 2; the base is
kept even at degree <= 1 because membership is base-point sensitive.

The graphs built here (fold, ``intersect``, ``graph_from_text``) are
renumbered canonically, breadth-first from the base in letter order, so
for these ``==`` is label-isomorphism; ``SubgroupGraph(alphabet, edges)``
keeps the caller's vertex ids, and reading its ``to_text`` renumbers it.
Graphs are immutable, held as letter maps, vertex -> {signed letter:
neighbour}, the form the fold builds; all operations here are pure.

Costs, for V vertices and E edges over rank n: folding generators of
total length L is near-linear in L, as each word is read in from both
ends, only its unread middle is added, and union-find merges run only
when the reads meet.  Each result graph is built once: a degree queue
trims its letter maps in place, then ``_bfs``, O(V n), numbers the
vertices and each row is copied into the final maps.  ``intersect`` is
linear in the base component of the fiber product; ``is_malnormal``
streams only the unordered pairs of off-diagonal product edges (about
E^2 / 2n), each one ``_find`` step on integer keys, and stops at the
first cycle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .words import Alphabet, Word, content_lines, free_reduce

Edge = tuple[int, int, int]  # (src, generator letter > 0, dst)


class SubgroupGraph:
    __slots__ = ("alphabet", "edges", "_adj", "_tree")

    def __init__(self, alphabet: Alphabet, edges: Iterable[Edge], _source: str = "graph"):
        """A folded graph on any int vertex ids, all joined to base vertex 0 (``_source`` names it if not)."""
        self.alphabet, self.edges, self._tree = alphabet, frozenset(edges), None
        self._adj = adj = {0: {}}
        for src, g, dst in self.edges:
            if not 0 < g <= alphabet.rank:
                raise ValueError(f"edge label {g} is not a generator of rank {alphabet.rank}")
            out, inc = adj.setdefault(src, {}), adj.setdefault(dst, {})
            if g in out or -g in inc:
                raise ValueError("graph is not folded")
            out[g], inc[-g] = dst, src
        if len(_bfs(0, adj, alphabet.letters())) != len(adj):
            raise ValueError(f"{_source} must be connected to base vertex 0")

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._adj)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SubgroupGraph)
            and self.alphabet == other.alphabet
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.edges))

    def __repr__(self) -> str:
        return f"SubgroupGraph(vertices={len(self._adj)}, edges={len(self.edges)}, rank={self.rank()})"

    def step(self, vertex: int, letter: int) -> int | None:
        """Follow one letter from a vertex; None if no such edge."""
        return self._adj.get(vertex, {}).get(letter)

    def contains(self, w: Word) -> bool:
        """True iff w labels a closed path at the base vertex."""
        if w.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        adj, cur = self._adj, 0
        for letter in w.letters:
            if (cur := adj[cur].get(letter)) is None:
                return False
        return cur == 0

    def rank(self) -> int:
        return len(self.edges) - len(self._adj) + 1

    def is_rose(self) -> bool:
        return len(self._adj) == 1 and len(self.edges) == self.alphabet.rank

    def _spanning_tree(self) -> tuple[dict, dict[Edge, int]]:
        """BFS tree steps from the base, and the non-tree edges numbered from 1 in sorted order.

        Each vertex maps to the (parent, letter) step that reached it, the
        base to None; exploration order is (generator index, out before
        in), matching the canonical renumbering.  Made once per graph.
        """
        if self._tree is None:
            found = _bfs(0, self._adj, self.alphabet.letters())
            tree_edges = {(v, g, w) if g > 0 else (w, -g, v) for w, (v, g) in list(found.items())[1:]}
            non_tree = sorted(e for e in self.edges if e not in tree_edges)
            self._tree = found, {e: k for k, e in enumerate(non_tree, 1)}
        return self._tree

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

    def express_in_basis(self, w: Word) -> tuple[int, ...] | None:
        """Rewrite a member word over the spanning-tree basis.

        Returns signed basis indices (1-based, aligned with ``basis()``),
        or None when w is not in the subgroup.
        """
        if w.alphabet != self.alphabet:
            raise ValueError("alphabet mismatch")
        index, adj, cur = self._spanning_tree()[1], self._adj, 0
        out: list[int] = []
        for letter in w.letters:
            if (nxt := adj[cur].get(letter)) is None:
                return None
            edge = (cur, letter, nxt) if letter > 0 else (nxt, -letter, cur)
            if (k := index.get(edge)) is not None:
                out.append(k if letter > 0 else -k)
            cur = nxt
        return free_reduce(out) if cur == 0 else None

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
            if alphabet is not None:
                raise ValueError(f"repeated gens line {line!r}")
            alphabet = Alphabet(parts[1:])
        elif parts[0] == "base":
            if parts[1:] != ["0"]:
                raise ValueError("graph files use base vertex 0")
        else:
            if alphabet is None:
                raise ValueError("graph file must declare gens before edges")
            try:  # int() also raises past its digit limit (4,300 by default)
                if len(parts) != 3 or not all(v.isascii() and v.removeprefix("-").isdecimal() for v in parts[::2]):
                    raise ValueError
                src, dst = map(int, parts[::2])
            except ValueError:
                raise ValueError(f"bad edge line {line!r}") from None
            edges.append((src, alphabet.index(parts[1]) + 1, dst))
    if alphabet is None:
        raise ValueError("graph file missing gens line")
    adj = SubgroupGraph(alphabet, edges, "graph file")._adj  # raises unless folded and connected
    return _canonical(alphabet, adj, 0)  # renumbered, not trimmed: the file's hairs stay


def _find(parent: dict, x):
    """Root of x in a union-find forest (absent keys are roots); halves the path."""
    while (up := parent.get(x, x)) != x:
        grand = parent.get(up, up)
        parent[x] = grand
        x = grand
    return x


def _bfs(start, adj: dict, letters: list[int]) -> dict:
    """Breadth-first search over letter maps, trying ``letters`` in order.

    Returns every vertex reached, in discovery order, mapped to the
    (parent, letter) step that found it; the start maps to None.
    """
    found, queue = {start: None}, [start]
    for v in queue:  # the queue grows as vertices are found
        m = adj[v]
        for letter in letters:
            w = m.get(letter)
            if w is not None and w not in found:
                found[w] = (v, letter)
                queue.append(w)
    return found


def _trim(adj: dict, base) -> None:
    """Remove non-base vertices of total degree <= 1 from letter maps, in place, until core.

    A degree queue: a vertex is queued when its degree falls to 1, and
    removing it lowers its neighbour's degree, so each edge goes once.
    """
    queue = [v for v, m in adj.items() if len(m) <= 1 and v != base]
    for v in queue:
        for letter, w in adj.pop(v).items():
            m = adj[w]
            del m[-letter]
            if len(m) == 1 and w != base:
                queue.append(w)


def _canonical(alphabet: Alphabet, adj: dict, base) -> SubgroupGraph:
    """Renumber the base component in the order ``_bfs`` finds it, copying each row into the final maps.

    This gives a unique labeled form.  The maps are trusted to be folded.
    """
    rename = {v: i for i, v in enumerate(_bfs(base, adj, alphabet.letters()))}
    maps = {i: {letter: rename[w] for letter, w in adj[v].items()} for v, i in rename.items()}
    graph = SubgroupGraph.__new__(SubgroupGraph)
    graph.alphabet, graph._adj, graph._tree = alphabet, maps, None
    graph.edges = frozenset((v, g, w) for v, m in maps.items() for g, w in m.items() if g > 0)
    return graph


def subgroup_graph(alphabet: Alphabet, words: Sequence[Word]) -> SubgroupGraph:
    """Folded core graph of the subgroup generated by the given words.

    The empty list yields the single-vertex graph (trivial subgroup).
    Folding is confluent: any generator order gives a label-isomorphic
    result.

    A word is read in from both ends, to p and q; its unread middle becomes
    a fresh path from p to q that folds nothing, as neither read goes on
    and, at p = q, a first letter a and last letter a^-1 share a new vertex.
    Reads that meet merge p and q by union-find over letter maps.
    """
    parent: dict[int, int] = {}
    maps: dict[int, dict[int, int]] = {0: {}}
    pending: list[tuple[int, int]] = []

    def read(letters) -> tuple[int, int]:
        v = _find(parent, 0)
        for k, letter in enumerate(letters):
            if (w := maps[v].get(letter)) is None:
                return k, v
            v = _find(parent, w)
        return len(letters), v

    fresh = 1
    for word in words:
        if word.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
        letters, n = word.letters, len(word.letters)
        i, p = read(letters)
        j, q = read((~word).letters[: n - i])
        if i + j == n:
            pending.append((p, q))
        else:
            while i + j < n - 1:
                if p == q and letters[i] == -letters[n - 1 - j]:
                    q, j = fresh, j + 1
                maps[p][letters[i]], maps[fresh] = fresh, {-letters[i]: p}
                p, fresh, i = fresh, fresh + 1, i + 1
            maps[p][letters[i]], maps[q][-letters[i]] = q, p
        while pending:
            x, y = (_find(parent, v) for v in pending.pop())
            if x == y:
                continue
            if len(maps[x]) < len(maps[y]):
                x, y = y, x
            parent[y] = x
            for letter, w in maps.pop(y).items():
                if (clash := maps[x].setdefault(letter, w)) != w:
                    pending.append((clash, w))
    for m in maps.values():
        for letter, w in m.items():
            m[letter] = _find(parent, w)
    base = _find(parent, 0)
    _trim(maps, base)
    return _canonical(alphabet, maps, base)


def intersect(g1: SubgroupGraph, g2: SubgroupGraph) -> SubgroupGraph:
    """Core of the base component of the fiber product: H1 meet H2.

    Only the component of (0, 0) is built, in time linear in its size.
    """
    if g1.alphabet != g2.alphabet:
        raise ValueError("alphabet mismatch")
    adj1, adj2 = g1._adj, g2._adj
    adj: dict[tuple[int, int], dict[int, tuple[int, int]]] = {(0, 0): {}}
    queue = [(0, 0)]
    for p, q in queue:
        m2, row = adj2[q], adj[p, q]
        for letter, p2 in adj1[p].items():
            if (q2 := m2.get(letter)) is not None:
                row[letter] = w = (p2, q2)
                if w not in adj:
                    adj[w] = {}
                    queue.append(w)
    _trim(adj, (0, 0))
    return _canonical(g1.alphabet, adj, (0, 0))


def is_malnormal(graph: SubgroupGraph) -> bool:
    """True iff every non-diagonal fiber-product component is a forest.

    A cycle in such a component witnesses a nontrivial intersection with a
    conjugate; for a cyclic subgroup this is the generator being root-free.
    The diagonal {(p, p)} is exactly the component of (0, 0): the graph is
    connected, so every (p, p) is joined to (0, 0) by the diagonal lift of
    a path from 0 to p; and as each letter steps injectively both ways in
    a folded graph, a product edge (p, q) -g-> (p', q') has p = q iff
    p' = q', so no edge leaves it.

    Let P be the rest of the product.  The swap (p, q) -> (q, p) acts
    freely on its vertices and edges, so P double-covers the quotient
    P/swap, whose vertices are unordered pairs {p, q} and whose edges are
    unordered pairs of distinct same-label edges.  P is a forest iff the
    quotient is: a cover of a tree is a disjoint union of trees, and a
    component D with a cycle is covered either by two copies of D or by a
    connected C with Euler characteristic 2 chi(D) <= 0.  A letter that
    swaps p and q gives a loop in the quotient, a cycle, as <x^2> needs.
    So each unordered edge pair goes through ``_find`` once, on the key
    min(p, q) * V + max(p, q) of vertex indices, and the first that
    closes a cycle answers False.
    """
    adj, size, parent = graph._adj, len(graph._adj), {}
    index = {v: i for i, v in enumerate(adj)}
    for g in range(1, graph.alphabet.rank + 1):
        pairs = [(index[p], index[m[g]]) for p, m in adj.items() if g in m]  # sources ascending: p < q below
        for k, (p, p2) in enumerate(pairs, 1):
            row = p * size
            for q, q2 in pairs[k:]:
                a = _find(parent, row + q)
                b = _find(parent, p2 * size + q2 if p2 < q2 else q2 * size + p2)
                if a == b:
                    return False
                parent[a] = b
    return True
