"""Shared helpers for building small seeded instances."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from ssbve.graph import BipartiteGraph, SsbveInstance, UndirectedGraph
from ssbve.rng import stream


def random_bipartite(seed: int, n: int, n_right: int,
                     p: float = 0.35) -> BipartiteGraph:
    rng = stream(seed, 0x7465)
    edges = [(u, v) for u in range(n) for v in range(n_right)
             if rng.bernoulli(p)]
    return BipartiteGraph.from_edges(n, n_right, edges)


def validate_rows(g: BipartiteGraph) -> None:
    """Check that every left row of g is sorted, duplicate-free and in
    range; raises on violation."""
    for u, nbrs in enumerate(g.adj_left):
        if list(nbrs) != sorted(set(nbrs)):
            raise ValueError(f"adj_left[{u}] not sorted duplicate-free")
        for v in nbrs:
            if not 0 <= v < g.n_right:
                raise ValueError(f"right index {v} out of range")


def random_instance(seed: int, max_n: int = 12, max_right: int = 8,
                    p: float = 0.35) -> SsbveInstance:
    rng = stream(seed, 0x696E)
    n = 2 + rng.randrange(max_n - 1)
    n_right = 1 + rng.randrange(max_right)
    g = random_bipartite(seed * 31 + 7, n, n_right, p)
    k = 1 + rng.randrange(n)
    return SsbveInstance(graph=g, k=k)


def random_undirected(seed: int, n: int, p: float = 0.4) -> UndirectedGraph:
    rng = stream(seed, 0x756E)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.bernoulli(p)]
    return UndirectedGraph.from_edges(n, edges)


def brute_force_min_ratio_at_most(g: BipartiteGraph, k: int) -> Fraction:
    """min over nonempty left S with |S| <= k of |N(S)|/|S| (naive)."""
    masks = g.left_masks()
    best = None
    for size in range(1, min(k, g.n) + 1):
        for subset in combinations(range(g.n), size):
            m = 0
            for u in subset:
                m |= masks[u]
            r = Fraction(m.bit_count(), size)
            if best is None or r < best:
                best = r
    assert best is not None
    return best


@pytest.fixture
def tiny_star() -> BipartiteGraph:
    """Two left vertices sharing a single right neighbor."""
    return BipartiteGraph.from_edges(2, 1, [(0, 0), (1, 0)])
