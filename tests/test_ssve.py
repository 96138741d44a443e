"""Edge-expansion oracles and the vertex-expansion reduction."""

from fractions import Fraction

import pytest

from ssbve.errors import TooLargeError, UnsupportedRegimeError
from ssbve.exact import exact_ssve
from ssbve.graph import UndirectedGraph
from ssbve.ssve import (SWEEP_MAX_N, SseOracle, edge_boundary, sse_solve,
                        ssve_via_sse)

from conftest import random_undirected

BRUTE = SseOracle(kind="bruteforce")
SWEEP = SseOracle(kind="sweep")


def cycle(n):
    return UndirectedGraph.from_edges(n, [(i, (i + 1) % n)
                                          for i in range(n)])


class TestSseSolve:
    def test_isolated_vertex_zero_cut(self):
        g = UndirectedGraph.from_edges(
            4, [(0, 1), (1, 2), (0, 2)])  # triangle + isolated 3
        chosen, ratio = sse_solve(g, 1, BRUTE)
        assert chosen == (3,)
        assert ratio == 0

    def test_cycle_six(self):
        chosen, ratio = sse_solve(cycle(6), 3, BRUTE)
        assert ratio == Fraction(2, 3)
        # contiguous arc of length 3
        s = set(chosen)
        assert len(s) == 3 and edge_boundary(cycle(6), s) == 2

    def test_bruteforce_budget(self):
        with pytest.raises(TooLargeError):
            sse_solve(random_undirected(1, 17), 2, BRUTE)

    def test_sweep_budget(self):
        # One vertex past the bound: the dense n x n arrays are never built.
        g = UndirectedGraph.from_edges(SWEEP_MAX_N + 1, [(0, 1)])
        with pytest.raises(TooLargeError, match=f"^n={SWEEP_MAX_N + 1} "
                           f"exceeds the sweep budget {SWEEP_MAX_N}$"):
            sse_solve(g, 1, SWEEP)

    @pytest.mark.parametrize("seed", range(10))
    def test_sweep_never_beats_bruteforce(self, seed):
        g = random_undirected(seed + 20, 10, 0.35)
        k = 3
        _, exact_ratio = sse_solve(g, k, BRUTE)
        sw_chosen, sw_ratio = sse_solve(g, k, SWEEP)
        assert sw_ratio >= exact_ratio
        assert 1 <= len(sw_chosen) <= k
        assert sw_ratio == Fraction(
            edge_boundary(g, set(sw_chosen)), len(sw_chosen))

    def test_sweep_finds_disconnected_component(self):
        g = UndirectedGraph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        _, ratio = sse_solve(g, 3, SWEEP)
        assert ratio == 0


class TestSsveViaSse:
    def test_unsupported_regime(self):
        g = random_undirected(3, 9, 0.4)
        with pytest.raises(UnsupportedRegimeError):
            ssve_via_sse(g, 4, BRUTE)

    def test_clique_pair(self):
        n = 9
        g = UndirectedGraph.from_edges(
            n, [(a, b) for a in range(n) for b in range(a + 1, n)])
        out = ssve_via_sse(g, 2, BRUTE)
        assert out["vertex_expansion"] == Fraction(n - 2, 2)
        s, ratio = exact_ssve(g, 2)
        assert ratio == Fraction(n - 2, 2)

    @pytest.mark.parametrize("seed", range(20))
    def test_vertex_at_most_edge_and_factor_k(self, seed):
        g = random_undirected(seed + 50, 12, 0.3)
        k = 3
        out = ssve_via_sse(g, k, BRUTE)
        assert 1 <= len(out["chosen"]) <= k
        assert out["vertex_expansion"] <= out["edge_expansion"]
        _, opt = exact_ssve(g, k)
        assert out["vertex_expansion"] <= k * opt

    @pytest.mark.parametrize("seed", range(8))
    def test_reported_ratios_recompute(self, seed):
        g = random_undirected(seed + 80, 11, 0.35)
        out = ssve_via_sse(g, 3, BRUTE)
        s = set(out["chosen"])
        assert out["edge_expansion"] == Fraction(edge_boundary(g, s), len(s))
        assert out["vertex_expansion"] == Fraction(
            len(g.open_neighborhood(s) - s), len(s))
