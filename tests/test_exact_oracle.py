"""Brute-force oracle behavior: tie-breaking, budgets, re-enumeration."""

from fractions import Fraction
from itertools import combinations

import pytest

from ssbve.errors import BudgetExceededError, TooLargeError
from ssbve.exact import exact_les, exact_ssbve, exact_ssve
from ssbve.graph import (BipartiteGraph, SsbveInstance, UndirectedGraph,
                         expansion, neighborhood)

from conftest import random_bipartite, random_undirected


class TestExactSsbve:
    def test_star_forced(self, tiny_star):
        sol = exact_ssbve(SsbveInstance(graph=tiny_star, k=2))
        assert sol.chosen == (0, 1)
        assert sol.neighborhood_size == 1

    def test_matching_all_equal(self):
        g = BipartiteGraph.from_edges(4, 4, [(i, i) for i in range(4)])
        sol = exact_ssbve(SsbveInstance(graph=g, k=2))
        assert sol.neighborhood_size == 2
        assert sol.chosen == (0, 1)  # lexicographically smallest

    def test_k_equals_n(self):
        g = random_bipartite(5, 7, 5)
        sol = exact_ssbve(SsbveInstance(graph=g, k=7))
        assert sol.chosen == tuple(range(7))
        assert sol.neighborhood_size == len(neighborhood(g, range(7)))

    def test_budget(self):
        g = random_bipartite(6, 40, 5)  # C(40, 20) > SUBSET_BUDGET
        with pytest.raises(BudgetExceededError):
            exact_ssbve(SsbveInstance(graph=g, k=20))

    @pytest.mark.parametrize("seed", range(20))
    def test_spot_reenumeration(self, seed):
        g = random_bipartite(seed, 9, 6)
        k = 3
        sol = exact_ssbve(SsbveInstance(graph=g, k=k))
        for s in combinations(range(9), k):
            assert sol.neighborhood_size <= len(neighborhood(g, s))


class TestExactLes:
    def test_star(self):
        g = BipartiteGraph.from_edges(3, 1, [(0, 0), (1, 0), (2, 0)])
        sol = exact_les(g)
        assert sol.expansion == Fraction(1, 3)
        assert sol.chosen == (0, 1, 2)

    def test_matching_tie_break(self):
        g = BipartiteGraph.from_edges(3, 3, [(i, i) for i in range(3)])
        sol = exact_les(g)
        assert sol.expansion == 1
        assert sol.chosen == (0,)  # smallest set, lexicographically first

    def test_too_large(self):
        g = random_bipartite(0, 21, 3)
        with pytest.raises(TooLargeError):
            exact_les(g)

    @pytest.mark.parametrize("seed", range(30))
    def test_ratio_lower_bounds_random_sets(self, seed):
        from ssbve.rng import stream
        g = random_bipartite(seed + 50, 10, 6)
        best = exact_les(g).expansion
        rng = stream(seed, 9)
        for _ in range(100):
            s = [u for u in range(10) if rng.bernoulli(0.4)]
            if s:
                assert best <= expansion(g, s)


class TestExactSsve:
    def test_clique_whole_graph(self):
        g = UndirectedGraph.from_edges(
            4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        s, ratio = exact_ssve(g, 4)
        assert ratio == 0
        assert s == (0, 1, 2, 3)

    def test_path_leaf(self):
        g = UndirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        s, ratio = exact_ssve(g, 1)
        assert ratio == 1
        assert s == (0,)

    def test_too_large(self):
        g = random_undirected(1, 17)
        with pytest.raises(TooLargeError):
            exact_ssve(g, 2)

    @pytest.mark.parametrize("seed", range(15))
    def test_double_enumeration(self, seed):
        g = random_undirected(seed + 10, 12)
        k = 4
        s, ratio = exact_ssve(g, k)
        assert len(s) <= k
        best = None
        for size in range(1, k + 1):
            for t in combinations(range(12), size):
                out = len(g.open_neighborhood(t) - set(t))
                r = Fraction(out, size)
                if best is None or r < best:
                    best = r
        assert ratio == best
