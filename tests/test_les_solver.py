"""Least Expanding Set solver vs brute force, and the min-cut subroutine."""

from fractions import Fraction
from itertools import combinations

import pytest

from ssbve.errors import EmptyLeftSideError, NegativeLambdaError
from ssbve.exact import exact_les
from ssbve.generators import PlantedSpec, gen_planted
from ssbve.graph import (BipartiteGraph, expansion, induced_left_subgraph,
                         neighborhood)
from ssbve import les
from ssbve.les import (_dinkelbach, _Network, least_expanding_set,
                       least_expanding_subset, memo_scope, min_cut_select)
from ssbve.maxflow import Dinic
from ssbve.rng import stream

from conftest import random_bipartite


def brute_min_linear(g: BipartiteGraph, lam: Fraction) -> Fraction:
    """min over all S (including empty) of |N(S)| - lam|S|."""
    best = Fraction(0)
    for size in range(1, g.n + 1):
        for s in combinations(range(g.n), size):
            val = Fraction(len(neighborhood(g, s))) - lam * size
            best = min(best, val)
    return best


def dinic_source_side(g: BipartiteGraph, allowed, forbidden,
                      lam: Fraction) -> tuple[list[int], int]:
    """Reference cut: the maximal min-cut source side (as indices into the
    sorted `allowed`) and its |N(S)|, from an explicit Dinic network on the
    induced subgraph with lambda = a/b scaled to integer capacities."""
    sub, _ = induced_left_subgraph(g, allowed, frozenset(forbidden))
    a, b = lam.numerator, lam.denominator
    n, n_right = sub.n, sub.n_right
    source = n + n_right
    sink = source + 1
    ceil_lam = -(-a // b) if a else 1
    inf_cap = (n_right + 1) * max(1, ceil_lam) * b
    net = Dinic(sink + 1)
    for u in range(n):
        net.add_edge(source, u, a)
        for v in sub.adj_left[u]:
            net.add_edge(u, n + v, inf_cap)
    for v in range(n_right):
        net.add_edge(n + v, sink, b)
    net.max_flow(source, sink)
    side = net.source_side_max(sink)
    chosen = [u for u in range(n) if u in side]
    return chosen, len(neighborhood(sub, chosen))


def planted_instance(seed: int):
    """The planted family at n=4096 that the `planted` benchmark solves."""
    return gen_planted(PlantedSpec(n=4096, alpha=0.5, beta=0.5, gamma=0.2,
                                   r_degree=12, seed=seed))


class TestKernelMatchesDinic:
    """The bipartite kernel against the explicit Dinic network."""

    @staticmethod
    def lambdas(n_right: int) -> list[Fraction]:
        return [Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(1, 2),
                Fraction(2, 3), Fraction(1), Fraction(4, 3), Fraction(5, 2),
                Fraction(n_right), Fraction(n_right + 1),
                Fraction(3 * n_right + 1, 2)]

    def check(self, g, allowed, forbidden):
        allowed, forbidden = sorted(set(allowed)), set(forbidden)
        net = _Network([[v for v in g.adj_left[u] if v not in forbidden]
                        for u in allowed], g.n_right)
        for lam in self.lambdas(g.n_right):
            got = net.cut(lam.numerator, lam.denominator)
            assert got == dinic_source_side(g, allowed, forbidden, lam), lam

    @pytest.mark.parametrize("seed", range(60))
    def test_random_masks(self, seed):
        rng = stream(seed, 0x4B52)
        n, n_right = 1 + rng.randrange(12), 1 + rng.randrange(9)
        p = (0.1, 0.3, 0.6)[rng.randrange(3)]
        g = random_bipartite(seed + 5000, n, n_right, p)
        allowed = [u for u in range(n) if rng.bernoulli(0.7)] or [n - 1]
        forbidden = [v for v in range(n_right) if rng.bernoulli(0.25)]
        self.check(g, allowed, forbidden)

    def test_isolated_left_vertices(self):
        g = BipartiteGraph.from_edges(5, 3, [(0, 0), (0, 1), (2, 1), (4, 2)])
        self.check(g, range(5), ())
        self.check(g, [1, 3], ())

    def test_all_right_forbidden(self):
        g = random_bipartite(5100, 7, 5)
        self.check(g, range(7), range(5))

    @pytest.fixture
    def phases(self, monkeypatch):
        """Per Dinic phase of the kernel: whether it augmented, and whether
        it cancelled flow on some edge (a right -> left arc in a path)."""
        log: list[tuple[bool, bool]] = []
        phase = _Network._phase

        def recorded(net, flow, supply, room, carry):
            before = flow[:]
            found = phase(net, flow, supply, room, carry)
            log.append((found, any(map(int.__lt__, flow, before))))
            return found

        monkeypatch.setattr(_Network, "_phase", recorded)
        return log

    @staticmethod
    def skewed_bipartite(rng, n: int, n_right: int) -> BipartiteGraph:
        """Each left vertex draws 1-5 right vertices, each the lower of two
        uniform draws: low ids are popular, so their rooms overflow and the
        flow must be rerouted through right -> left arcs."""
        edges = {(u, min(rng.randrange(n_right), rng.randrange(n_right)))
                 for u in range(n) for _ in range(1 + rng.randrange(5))}
        return BipartiteGraph.from_edges(n, n_right, sorted(edges))

    @pytest.mark.parametrize("skewed", [False, True])
    def test_mid_size_random(self, skewed, phases):
        # n 40-200, n_right 8-40: the sizes where a cut takes several
        # phases and paths through right -> left arcs.
        for seed in range(40):
            rng = stream(seed, 0x4B53)
            n, n_right = 40 + rng.randrange(161), 8 + rng.randrange(33)
            if skewed:
                g = self.skewed_bipartite(rng, n, n_right)
            else:
                p = (0.05, 0.15, 0.4)[rng.randrange(3)]
                g = random_bipartite(seed + 5200, n, n_right, p)
            forbidden = [v for v in range(n_right) if rng.bernoulli(0.1)]
            self.check(g, range(n), forbidden)
        runs = "".join("1" if found else "0" for found, _ in phases)
        assert "11" in runs  # some cut augmented in two phases or more
        assert any(cancelled for _, cancelled in phases)

    def test_few_of_many_right_ids(self, phases):
        # Rows draw from a pool of 8-40 of 400 right ids, so size < n_right
        # and the BFS stops at size labelled heads, not n_right; the skewed
        # draws make cuts take several phases and cancel flow.
        for seed in range(30):
            rng = stream(seed, 0x4B54)
            n, n_right = 40 + rng.randrange(161), 400
            pool = sorted({rng.randrange(n_right)
                           for _ in range(8 + rng.randrange(33))})
            edges = {(u, pool[min(rng.randrange(len(pool)),
                                  rng.randrange(len(pool)))])
                     for u in range(n) for _ in range(1 + rng.randrange(5))}
            g = BipartiteGraph.from_edges(n, n_right, sorted(edges))
            assert _Network(g.adj_left, n_right).size < n_right
            forbidden = [v for v in pool if rng.bernoulli(0.1)]
            self.check(g, range(n), forbidden)
        runs = "".join("1" if found else "0" for found, _ in phases)
        assert "11" in runs
        assert any(cancelled for _, cancelled in phases)

    @pytest.mark.parametrize("seed", range(3))
    def test_planted_neighbourhoods(self, seed):
        # W = N(v) on the planted family at n=4096, cut at the first
        # Dinkelbach lambda |N(W)|/|W|: for v in the planted T the cut drops
        # most of W, for another v it confirms W.
        inst, filled = planted_instance(seed)
        g = inst.graph
        outside = min(set(range(g.n_right)) - set(filled.planted_t))
        for v, confirms in ((filled.planted_t[0], False), (outside, True)):
            w = sorted(g.adj_right[v])
            net = _Network([g.adj_left[u] for u in w], g.n_right)
            lam = Fraction(net.size, len(w))
            got = net.cut(lam.numerator, lam.denominator)
            assert got == dinic_source_side(g, w, (), lam)
            assert (got == (list(range(len(w))), net.size)) == confirms

    def test_every_planted_neighbourhood(self):
        # Every W = N(v) of one planted instance, cut at |N(W)|/|W|.
        inst, _ = planted_instance(0)
        g = inst.graph
        confirmed = 0
        for v in range(g.n_right):
            w = sorted(g.adj_right[v])
            net = _Network([g.adj_left[u] for u in w], g.n_right)
            lam = Fraction(net.size, len(w))
            got = net.cut(lam.numerator, lam.denominator)
            assert got == dinic_source_side(g, w, (), lam), v
            confirmed += got == (list(range(len(w))), net.size)
        assert 0 < confirmed < g.n_right

    def test_phase_stops_once_every_head_has_a_level(self, monkeypatch):
        # On a confirming planted cut every head gets a level within the
        # first few left vertices; the BFS stops there instead of sweeping
        # every edge, so a phase reads fewer heads than the network has.
        class Counting(list):
            reads = 0

            def __getitem__(self, k):
                Counting.reads += 1
                return list.__getitem__(self, k)

        phase = _Network._phase
        reads: list[int] = []

        def counted(net, *state):
            plain, net.head = net.head, Counting(net.head)
            Counting.reads = 0
            try:
                return phase(net, *state)
            finally:
                net.head = plain
                reads.append(Counting.reads)

        monkeypatch.setattr(_Network, "_phase", counted)
        inst, filled = planted_instance(0)
        g = inst.graph
        v = min(set(range(g.n_right)) - set(filled.planted_t))
        w = sorted(g.adj_right[v])
        net = _Network([g.adj_left[u] for u in w], g.n_right)
        lam = Fraction(net.size, len(w))
        got = net.cut(lam.numerator, lam.denominator)
        assert got == (list(range(len(w))), net.size)
        assert reads and all(r < len(net.head) for r in reads)

    def test_reverse_adjacency_only_when_the_cut_drops_vertices(self):
        # A confirming cut (every head saturated) builds no reverse
        # adjacency; the first cut that drops a vertex builds it, and later
        # cuts reuse it.
        g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 1), (2, 0), (2, 1)])
        net = _Network(g.adj_left, g.n_right)
        assert net.size == 2
        assert net.cut(2, 3) == ([0, 1, 2], 2)
        assert net._into is None
        assert net.cut(1, 3) == ([], 0)
        into = net._into
        assert into == [[0, 2], [1, 3]]
        assert net.cut(0, 1) == ([], 0)
        assert net._into is into

    def test_source_side_is_maximal_on_ties(self):
        # At lambda = 1 both {} and {0} minimize |N(S)| - |S| on a single
        # edge; the maximal side takes the vertex.
        g = BipartiteGraph.from_edges(1, 1, [(0, 0)])
        assert _Network(g.adj_left, g.n_right).cut(1, 1) == ([0], 1)


class TestMemo:
    """LES answers inside memo_scope equal fresh solves."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_memo_free(self, seed):
        rng = stream(seed, 0x3E31)
        n, n_right = 2 + rng.randrange(14), 1 + rng.randrange(9)
        g = random_bipartite(seed + 7000, n, n_right,
                             (0.15, 0.35, 0.6)[rng.randrange(3)])
        masks = []
        for _ in range(12):
            allowed = [u for u in range(n) if rng.bernoulli(0.6)] or [0]
            forbidden = [v for v in range(n_right) if rng.bernoulli(0.3)]
            masks.append((allowed, forbidden))
        fresh = [least_expanding_subset(g, a, f) for a, f in masks]
        fresh_set = least_expanding_set(g)
        with memo_scope():
            # Twice over, so the second pass is answered from the memo.
            for _ in range(2):
                assert [least_expanding_subset(g, a, f)
                        for a, f in masks] == fresh
                assert least_expanding_set(g) == fresh_set

    def test_identical_rows_keep_their_own_ids(self):
        # Vertices 0, 1 and 3, 4 have the same rows; 2 is a spare.
        g = BipartiteGraph.from_edges(5, 3, [
            (0, 0), (1, 0), (1, 1), (1, 2), (2, 1),
            (3, 0), (4, 0), (4, 1), (4, 2)])
        with memo_scope():
            first = least_expanding_subset(g, [0, 1])
            second = least_expanding_subset(g, [4, 3])
            masked = least_expanding_subset(g, [3, 4, 2], forbidden_right=[1])
            assert len(les._MEMO.get()) == 2
        assert first.chosen == (0,) and second.chosen == (3,)
        assert first.neighborhood_size == second.neighborhood_size == 1
        assert masked == least_expanding_subset(g, [2, 3, 4], [1])
        assert les._MEMO.get() is None

    def test_scope_is_removed_on_error(self):
        with pytest.raises(EmptyLeftSideError):
            with memo_scope():
                least_expanding_subset(random_bipartite(1, 3, 2), [])
        assert les._MEMO.get() is None


class TestMinCutSelect:
    def test_lambda_zero_no_isolated(self, tiny_star):
        cut = min_cut_select(tiny_star, 0)
        assert cut.chosen == ()
        assert cut.objective == 0

    def test_lambda_zero_isolated_vertices_join(self):
        g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 1)])
        cut = min_cut_select(g, 0)
        # Objective 0 either way; the maximal side picks up vertex 2.
        assert 2 in cut.chosen
        assert cut.objective == 0

    def test_large_lambda_takes_everything(self):
        g = random_bipartite(11, 7, 4)
        cut = min_cut_select(g, g.n_right + 1)
        assert cut.chosen == tuple(range(7))

    def test_negative_lambda(self, tiny_star):
        with pytest.raises(NegativeLambdaError):
            min_cut_select(tiny_star, Fraction(-1, 2))

    @pytest.mark.parametrize("seed", range(25))
    def test_objective_matches_enumeration(self, seed):
        g = random_bipartite(seed, 8, 5)
        for lam in (Fraction(1, 2), Fraction(1), Fraction(3, 4),
                    Fraction(7, 3)):
            cut = min_cut_select(g, lam)
            assert cut.objective == brute_min_linear(g, lam)
            # Recompute the objective from the chosen set.
            val = (Fraction(len(neighborhood(g, cut.chosen)))
                   - lam * len(cut.chosen))
            assert val == cut.objective

    @pytest.mark.parametrize("seed", range(10))
    def test_cut_value_identity(self, seed):
        # max-flow value = lam|U| - max_S(lam|S| - |N(S)|), checked through
        # the returned objective since flow = lam*n + min_S objective(S).
        g = random_bipartite(seed + 100, 7, 5)
        lam = Fraction(2, 3)
        cut = min_cut_select(g, lam)
        best_gain = max(
            (lam * len(s) - len(neighborhood(g, s))
             for size in range(0, g.n + 1)
             for s in combinations(range(g.n), size)),
            default=Fraction(0))
        assert -cut.objective == best_gain


class TestLeastExpandingSet:
    def test_three_star(self):
        g = BipartiteGraph.from_edges(3, 1, [(0, 0), (1, 0), (2, 0)])
        sol = least_expanding_set(g)
        assert sol.expansion == Fraction(1, 3)
        assert sol.chosen == (0, 1, 2)

    def test_isolated_vertex_short_circuit(self):
        g = BipartiteGraph.from_edges(3, 2, [(0, 0), (2, 1)])
        sol = least_expanding_set(g)
        assert sol.expansion == 0
        assert sol.chosen == (1,)

    def test_empty_left_side(self):
        g = BipartiteGraph.from_edges(0, 3, [])
        with pytest.raises(EmptyLeftSideError):
            least_expanding_set(g)

    @pytest.mark.parametrize("seed", range(200))
    def test_oracle_sweep(self, seed):
        g = random_bipartite(seed, 10, 6)
        assert least_expanding_set(g).expansion == exact_les(g).expansion

    @pytest.mark.parametrize("seed", range(30))
    def test_lambda_strictly_decreases(self, seed):
        g = random_bipartite(seed + 400, 9, 6)
        chosen, _, lam, trace = _dinkelbach(g.adj_left, g.n_right)
        assert all(a > b for a, b in zip(trace, trace[1:]))
        assert expansion(g, chosen) == lam

    @pytest.mark.parametrize("seed", range(20))
    def test_result_beats_random_sets(self, seed):
        from ssbve.rng import stream
        g = random_bipartite(seed + 700, 9, 6)
        if all(g.adj_left[u] for u in range(g.n)):
            best = least_expanding_set(g).expansion
            rng = stream(seed, 42)
            for _ in range(50):
                s = [u for u in range(g.n) if rng.bernoulli(0.5)]
                if s:
                    assert best <= expansion(g, s)


class TestLeastExpandingSubset:
    def test_no_mask_matches_les(self):
        from ssbve.graph import induced_left_subgraph
        g = random_bipartite(77, 8, 5)
        allowed = [1, 2, 4, 6]
        sub = least_expanding_subset(g, allowed)
        inner_g, _ = induced_left_subgraph(g, allowed)
        inner = least_expanding_set(inner_g)
        assert sub.expansion == inner.expansion

    def test_everything_masked(self):
        g = random_bipartite(78, 6, 4)
        sol = least_expanding_subset(g, range(6), forbidden_right=range(4))
        assert sol.expansion == 0
        assert sol.chosen == tuple(range(6))

    @pytest.mark.parametrize("seed", range(20))
    def test_masked_oracle(self, seed):
        g = random_bipartite(seed + 900, 8, 6)
        forbidden = {v for v in range(6) if g.degree_right(v) >= 3}
        allowed = tuple(range(8))
        sol = least_expanding_subset(g, allowed, forbidden)
        # Brute force on the masked graph.
        best = None
        for size in range(1, 9):
            for s in combinations(range(8), size):
                nb = {v for v in neighborhood(g, s) if v not in forbidden}
                r = Fraction(len(nb), size)
                if best is None or r < best:
                    best = r
        assert sol.expansion == best
