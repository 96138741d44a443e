"""Bipartite graph and set-system substrate, expansion arithmetic, and the
problem-equivalence reductions (set systems <-> bipartite graphs, and the
union variant of small-set vertex expansion on general graphs).

Vertices are dense 0-indexed integers on each side.  Every value is
immutable after construction, except that a ``BipartiteGraph`` fills its
right view once, on the first read of ``adj_right``.  Two threads whose
first reads overlap may each build that view; the tuples they build are
equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CliqueTooSmallError, EmptySetError, InvalidBudgetError


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph given by its left rows: adj_left[u] is the sorted
    duplicate-free tuple of u's right neighbours, each below n_right.

    The left part has n = len(adj_left) vertices.  adj_right[v], the left
    neighbours of v in ascending order, is the transpose of the rows, built
    on its first read.
    """

    n_right: int
    adj_left: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, n_right: int,
                   edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        """Build the rows of an edge list; duplicate edges are collapsed."""
        rows: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n_right):
                raise IndexError(f"edge ({u},{v}) out of range for {n}x{n_right}")
            rows[u].add(v)
        return cls(n_right, tuple(tuple(sorted(s)) for s in rows))

    @classmethod
    def from_rows(cls, n_right: int,
                  rows: Sequence[tuple[int, ...]]) -> "BipartiteGraph":
        """Wrap left rows that are already sorted duplicate-free tuples of
        right ids below n_right, as those of another graph are; the rows
        are taken as they are, unchecked."""
        return cls(n_right, tuple(rows))

    @property
    def n(self) -> int:
        return len(self.adj_left)

    @cached_property
    def adj_right(self) -> tuple[tuple[int, ...], ...]:
        cols: list[list[int]] = [[] for _ in range(self.n_right)]
        for u, row in enumerate(self.adj_left):
            for v in row:
                cols[v].append(u)
        return tuple(map(tuple, cols))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj_left[u]]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj_left)

    def degree_left(self, u: int) -> int:
        return len(self.adj_left[u])

    def degree_right(self, v: int) -> int:
        return len(self.adj_right[v])

    def left_masks(self) -> list[int]:
        """Per-left-vertex neighbor bitmask (bit v set iff (u,v) is an edge)."""
        return [_mask(a) for a in self.adj_left]

    def right_masks(self) -> list[int]:
        return [_mask(a) for a in self.adj_right]


def _mask(indices: Sequence[int]) -> int:
    """Bitmask with bit i set for each i, from one base-2 parse of a digit
    string (digit i set, then the string reversed so the highest index
    comes first): linear in the top index, where one big-int OR per bit
    would copy the growing mask each time."""
    if not indices:
        return 0
    digits = bytearray(b"0" * (max(indices) + 1))
    for i in indices:
        digits[i] = 49  # ord("1")
    return int(digits[::-1], 2)


@dataclass(frozen=True)
class Hypergraph:
    """Set system over a universe of n_elements; each set is a sorted
    duplicate-free tuple of element ids, and sets may repeat."""

    n_elements: int
    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_sets(cls, n_elements: int,
                  sets: Iterable[Iterable[int]]) -> "Hypergraph":
        normalized = []
        for s in sets:
            t = tuple(sorted(set(s)))
            for e in t:
                if not 0 <= e < n_elements:
                    raise IndexError(f"element {e} out of range")
            normalized.append(t)
        return cls(n_elements=n_elements, sets=tuple(normalized))


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph on n vertices; adj[a] is the sorted tuple
    of a's neighbours."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int,
                   edges: Iterable[tuple[int, int]]) -> "UndirectedGraph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise IndexError(f"edge ({a},{b}) out of range")
            nbrs[a].add(b)
            nbrs[b].add(a)
        return cls(n=n, adj=tuple(tuple(sorted(s)) for s in nbrs))

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in self.adj[a] if a < b]

    def masks(self) -> list[int]:
        """Per-vertex neighbor bitmask (bit b set iff {a,b} is an edge)."""
        return [_mask(a) for a in self.adj]

    def open_neighborhood(self, s: Iterable[int]) -> set[int]:
        """Union of neighbors of s; may intersect s, never restricted to it."""
        out: set[int] = set()
        for a in s:
            out.update(self.adj[a])
        return out


@dataclass(frozen=True)
class SsbveInstance:
    graph: BipartiteGraph
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.graph.n:
            raise InvalidBudgetError(
                f"budget k={self.k} outside [1, {self.graph.n}]")


@dataclass(frozen=True)
class Solution:
    """A chosen left set with its exact neighborhood size and expansion."""

    chosen: tuple[int, ...]
    neighborhood_size: int
    expansion: Fraction

    @classmethod
    def from_set(cls, g: BipartiteGraph, s: Iterable[int]) -> "Solution":
        chosen = tuple(sorted(set(s)))
        if not chosen:
            raise EmptySetError("solution set is empty")
        check_left_ids(g, chosen)
        size = len(neighborhood(g, chosen))
        return cls(chosen=chosen,
                   neighborhood_size=size,
                   expansion=Fraction(size, len(chosen)))

    def sort_key(self) -> tuple:
        """Deterministic comparison key: expansion, then |N|, then lex set."""
        return (self.expansion, self.neighborhood_size, self.chosen)


def check_left_ids(g: BipartiteGraph, ids: Sequence[int]) -> None:
    """Raise IndexError unless the ascending ids all lie in [0, n); a
    negative id would otherwise alias a vertex through Python indexing."""
    if not (ids[0] >= 0 and ids[-1] < g.n):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise IndexError(f"left id {bad} out of range for n={g.n}")


def neighborhood(g: BipartiteGraph, s: Iterable[int]) -> set[int]:
    """Union of adj_left over s (the right-side neighborhood N(S))."""
    adj = g.adj_left
    return set().union(*[adj[u] for u in s])


def expansion(g: BipartiteGraph, s: Sequence[int] | set[int]) -> Fraction:
    """Exact |N(s)| / |s|; raises EmptySetError on empty s."""
    s = list(s)
    if not s:
        raise EmptySetError("expansion of the empty set is undefined")
    return Fraction(len(neighborhood(g, s)), len(s))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def mku_to_ssbve(h: Hypergraph, k: int) -> SsbveInstance:
    """Membership bipartite graph: one left vertex per set, one right vertex
    per element, an edge for each (set, member) pair.  Unions of set
    collections become neighborhoods of the corresponding left subsets."""
    m = len(h.sets)
    if not 1 <= k <= m:
        raise InvalidBudgetError(f"k={k} outside [1, {m}]")
    return SsbveInstance(graph=BipartiteGraph.from_rows(h.n_elements, h.sets),
                         k=k)


def ssbve_to_mku(inst: SsbveInstance) -> tuple[Hypergraph, int]:
    """Inverse view: each left vertex's neighbor list becomes a set."""
    g = inst.graph
    return (Hypergraph(n_elements=g.n_right, sets=tuple(g.adj_left)), inst.k)


def ssveu_to_ssbve(g: UndirectedGraph, k: int) -> SsbveInstance:
    """Two copies of the vertex set; (u_left, v_right) iff {u,v} is an edge.
    Left-subset neighborhoods coincide with open neighborhoods in g."""
    return SsbveInstance(graph=BipartiteGraph.from_rows(g.n, g.adj), k=k)


def ssbve_to_ssveu(inst: SsbveInstance,
                   clique_size: int | None = None) -> UndirectedGraph:
    """Disjoint U + V + clique C with the original edges plus all V-C edges.

    The clique must be strictly larger than n + n' so that touching it is
    never profitable; the default is the smallest such size.
    """
    g = inst.graph
    if clique_size is None:
        clique_size = g.n + g.n_right + 1
    if clique_size <= g.n + g.n_right:
        raise CliqueTooSmallError(
            f"clique_size={clique_size} must exceed n+n'={g.n + g.n_right}")
    n_total = g.n + g.n_right + clique_size
    v_off = g.n
    c_off = g.n + g.n_right
    edges: list[tuple[int, int]] = [(u, v_off + v) for u, v in g.edges()]
    clique = list(range(c_off, n_total))
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            edges.append((a, b))
    for v in range(g.n_right):
        for c in clique:
            edges.append((v_off + v, c))
    return UndirectedGraph.from_edges(n_total, edges)


# ---------------------------------------------------------------------------
# Subgraph helpers shared by the solvers
# ---------------------------------------------------------------------------

def induced_left_subgraph(
        g: BipartiteGraph, left_ids: Sequence[int],
) -> tuple[BipartiteGraph, tuple[int, ...]]:
    """Subgraph on the given left vertices; the right side keeps its
    indexing.  Returns (graph, left_ids) where left_ids maps new left
    indices back to the originals."""
    left_ids = tuple(sorted(set(left_ids)))
    adj = g.adj_left
    rows = [adj[u] for u in left_ids]
    return BipartiteGraph.from_rows(g.n_right, rows), left_ids
