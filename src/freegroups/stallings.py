"""Folded core graphs for finitely generated subgroups of free groups.

A subgroup graph is a connected, folded, directed graph with edges
labeled by generators and a distinguished base vertex.  Folded means no
vertex carries two outgoing (or two incoming) edges with the same label,
so paths reading a given word are unique in both directions.  Core means
every vertex except possibly the base has total degree >= 2; the base is
kept even at degree <= 1 because membership is base-point sensitive.

Graphs are canonically renumbered (breadth-first from the base, edges
ordered by generator index and sign) on construction, so two graphs are
label-isomorphic exactly when their edge sets are equal.  A graph is held
as letter maps, vertex -> {signed letter: neighbour}, the form the fold
builds.  Instances are immutable and all operations here are pure.

Costs, for V vertices and E edges over rank n: folding generators of
total length L is near-linear in L, as each word is read in from both
ends, only its unread middle is added, and union-find merges run only
when the reads meet.  Each result graph is built once: a degree queue
trims its letter maps in place, then one breadth-first pass, O(V n),
renumbers them into the final maps.  ``intersect`` is linear in the base
component of the fiber product; ``is_malnormal`` streams only the
off-diagonal product edges (about E^2 / n), each one union-find step on
integer keys, and stops at the first cycle.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .words import Alphabet, Word, content_lines, free_reduce

Edge = tuple[int, int, int]  # (src, generator letter > 0, dst)


class SubgroupGraph:
    __slots__ = ("alphabet", "edges", "_adj", "_tree")

    def __init__(self, alphabet: Alphabet, edges: Iterable[Edge], _source: str = "graph"):
        """A folded graph on any int vertex ids, all joined to base vertex 0 (``_source`` names it if not)."""
        self.alphabet, self.edges, self._tree = alphabet, frozenset(edges), None
        self._adj = adj = {0: {}}
        for src, g, dst in self.edges:
            out, inc = adj.setdefault(src, {}), adj.setdefault(dst, {})
            if g in out or -g in inc:
                raise ValueError("graph is not folded")
            out[g], inc[-g] = dst, src
        if len(_bfs(0, adj, alphabet.letters())) != len(adj):
            raise ValueError(f"{_source} must be connected to base vertex 0")

    # The base vertex is always 0 after canonical renumbering.
    base = 0

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

    def step(self, vertex: int, letter: int) -> Optional[int]:
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

    def express_in_basis(self, w: Word) -> Optional[tuple[int, ...]]:
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
    """Renumber the base component by BFS in canonical letter order, building its final maps.

    This gives a unique labeled form.  The maps are trusted to be folded.
    """
    letters = alphabet.letters()
    rename, order, maps = {base: 0}, [base], {}
    for i, v in enumerate(order):  # order grows as vertices are found
        m = adj[v]
        row = maps[i] = {}
        for letter in letters:
            if (w := m.get(letter)) is not None:
                if (j := rename.get(w)) is None:
                    j = rename[w] = len(order)
                    order.append(w)
                row[letter] = j
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
    p' = q', so no edge leaves it.  Hence only same-label edge pairs with
    p != q go through one union-find, and the first that closes a cycle
    answers False.  A product vertex is the int i * V + j of two vertex indices.
    """
    adj, size, parent = graph._adj, len(graph._adj), {}
    index = {v: i for i, v in enumerate(adj)}
    for g in range(1, graph.alphabet.rank + 1):
        pairs = [(index[p], index[m[g]]) for p, m in adj.items() if g in m]
        for p, p2 in pairs:
            row, row2 = p * size, p2 * size
            for q, q2 in pairs:
                if p != q:
                    a, b = row + q, row2 + q2
                    while (up := parent.get(a, a)) != a:
                        parent[a] = a = parent.get(up, up)
                    while (up := parent.get(b, b)) != b:
                        parent[b] = b = parent.get(up, up)
                    if a == b:
                        return False
                    parent[a] = b
    return True
