"""Schedule construction, preprocessing, step operations, and the solvers."""

import contextlib
import math
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from ssbve import approx, les
from ssbve.approx import (BranchState, Branches, Done, Step,
                          bucket_and_regularize, caterpillar_schedule,
                          exact_from_atmost, final_step, first_step,
                          hair_step, backbone_step, preprocess,
                          pruning_constant, solve_gamma, solve_planted,
                          solve_worst_case, subsample_left, trivial_ksubset)
from ssbve.errors import (NotCoprimeError, PreconditionViolatedError,
                          SolverStalledError)
from ssbve.exact import exact_les, exact_ssbve
from ssbve.generators import PlantedSpec, gen_planted
from ssbve.graph import (BipartiteGraph, Solution, SsbveInstance, expansion,
                         neighborhood)
from ssbve.bench import _random_small_instance
from ssbve.generators import gen_random_bipartite
from ssbve.les import least_expanding_subset
from ssbve.rng import stream

from conftest import random_bipartite, random_instance


class TestTrivialKsubset:
    def test_k_equals_n(self):
        g = random_bipartite(1, 6, 4)
        sol = trivial_ksubset(SsbveInstance(graph=g, k=6))
        assert sol.chosen == tuple(range(6))

    def test_isolated_first(self):
        g = BipartiteGraph.from_edges(5, 3, [(0, 0), (0, 1), (3, 2)])
        sol = trivial_ksubset(SsbveInstance(graph=g, k=2))
        assert sol.neighborhood_size == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_union_bound(self, seed):
        g = random_bipartite(seed, 30, 10)
        sol = trivial_ksubset(SsbveInstance(graph=g, k=5))
        degs = sorted(g.degree_left(u) for u in range(30))
        assert sol.neighborhood_size <= sum(degs[:5])


class TestExactFromAtmost:
    def test_matching(self):
        g = BipartiteGraph.from_edges(4, 4, [(i, i) for i in range(4)])
        inst = SsbveInstance(graph=g, k=3)
        sol = exact_from_atmost(
            inst, lambda si: exact_les(si.graph))
        assert len(sol.chosen) == 3
        assert sol.neighborhood_size == 3

    def test_isolated_first_zero_expansion(self):
        g = BipartiteGraph.from_edges(5, 2, [(3, 0), (4, 1)])

        def isolated_singletons(si):
            for u in range(si.graph.n):
                if si.graph.degree_left(u) == 0:
                    return Solution.from_set(si.graph, [u])
            return Solution.from_set(si.graph, [0])

        sol = exact_from_atmost(SsbveInstance(graph=g, k=3),
                                isolated_singletons)
        assert sol.neighborhood_size == 0

    def test_stall_detected(self):
        g = random_bipartite(2, 4, 3)

        class FakeSol:
            chosen = ()

        with pytest.raises(SolverStalledError):
            exact_from_atmost(SsbveInstance(graph=g, k=2),
                              lambda si: FakeSol())

    def test_ratio_vs_exact_recorded(self):
        # Greedy removal with an exact inner solver: the sweep's worst ratio
        # to the exact optimum is recorded; 8/3 observed, near the (1+ln k)
        # scale one expects from iterated coverage arguments.
        k = 4
        worst = Fraction(0)
        for seed in range(20):
            g = random_bipartite(seed + 40, 14, 8)
            inst = SsbveInstance(graph=g, k=k)
            sol = exact_from_atmost(inst, lambda si: exact_les(si.graph))
            assert len(sol.chosen) == k
            opt = exact_ssbve(inst)
            assert sol.neighborhood_size >= opt.neighborhood_size
            worst = max(worst, Fraction(sol.neighborhood_size,
                                        max(1, opt.neighborhood_size)))
        assert worst <= Fraction(8, 3)  # frozen from this seeded sweep


class TestBucketRegularize:
    def test_regular_passthrough(self):
        g = BipartiteGraph.from_edges(
            4, 4, [(u, v) for u in range(4) for v in (u, (u + 1) % 4)])
        cands = bucket_and_regularize(SsbveInstance(graph=g, k=2))
        assert len(cands) == 1
        assert cands[0].r == 2
        assert cands[0].graph.num_edges() == g.num_edges()

    def test_two_buckets(self):
        g = BipartiteGraph.from_edges(
            4, 3, [(0, 0), (1, 1), (2, 0), (2, 1), (3, 1), (3, 2)])
        cands = bucket_and_regularize(SsbveInstance(graph=g, k=2))
        assert [c.r for c in cands] == [1, 2]
        assert cands[0].left_ids == (0, 1)
        assert cands[1].left_ids == (2, 3)

    @pytest.mark.parametrize("seed", range(10))
    def test_left_regular_and_expansion_distortion(self, seed):
        g = random_bipartite(seed + 60, 12, 7)
        inst = SsbveInstance(graph=g, k=4)
        rng = stream(seed, 0xB0)
        for cand in bucket_and_regularize(inst):
            assert all(cand.graph.degree_left(u) == cand.r
                       for u in range(cand.graph.n))
            # Padding at most doubles any set's expansion vs the raw bucket.
            for _ in range(20):
                s = [u for u in range(cand.graph.n) if rng.bernoulli(0.5)]
                if not s:
                    continue
                padded = expansion(cand.graph, s)
                raw_nbhd = len({v for u in s
                                for v in cand.graph.adj_left[u]
                                if v < g.n_right})
                if raw_nbhd:
                    assert padded <= 2 * Fraction(raw_nbhd, len(s))

    @pytest.mark.parametrize("seed", range(12))
    def test_padded_rows_match_edge_build(self, seed):
        rng = stream(seed, 0xB1)
        g = random_bipartite(seed + 80, 5 + rng.randrange(30),
                             1 + rng.randrange(12), 0.1 + 0.6 * rng.random())
        buckets: dict[int, list[int]] = {}
        for u in range(g.n):
            if g.adj_left[u]:
                buckets.setdefault((g.degree_left(u) - 1).bit_length(),
                                   []).append(u)
        cands = bucket_and_regularize(SsbveInstance(graph=g, k=1))
        assert [c.left_ids for c in cands] == \
            [tuple(buckets[i]) for i in sorted(buckets)]
        for cand in cands:
            # The padding as a round-robin edge list, built by from_edges.
            r, edges, cursor = cand.r, [], 0
            for new_u, u in enumerate(cand.left_ids):
                edges += [(new_u, v) for v in g.adj_left[u]]
                deficiency = r - g.degree_left(u)
                edges += [(new_u, g.n_right + (cursor + j) % r)
                          for j in range(deficiency)]
                cursor += deficiency
            cand.graph.validate()
            assert cand.graph == BipartiteGraph.from_edges(
                len(cand.left_ids), g.n_right + r, edges)


class TestSolveGamma:
    def test_left_endpoint(self):
        k = 10 ** 3
        assert solve_gamma(k ** 0.55, 10 ** 6, k, 0.5, 0.05) == 0.0

    def test_back_substitution(self):
        n, alpha, eps = 10 ** 6, 0.5, 0.05
        k = round(n ** (1 - alpha))
        d = k ** 0.8
        gamma = solve_gamma(d, n, k, alpha, eps)
        assert 0 < gamma < 1
        k_gamma = n ** (1 - alpha - gamma)
        lhs = d * n ** (-gamma)
        rhs = k_gamma ** (alpha / (1 - gamma) + eps)
        assert abs(lhs - rhs) / rhs < 1e-6

    def test_endpoint_sign(self):
        # At n^gamma = d the left side is 1 and the right side is >= 1.
        n, alpha, eps = 10 ** 6, 0.5, 0.05
        k = round(n ** 0.5)
        d = k ** 0.8
        gamma = math.log(d) / math.log(n)
        k_gamma = n ** (1 - alpha - gamma)
        assert k_gamma ** (alpha / (1 - gamma) + eps) >= 1.0


class TestSubsample:
    def test_gamma_zero_identity(self):
        g = random_bipartite(5, 10, 4)
        assert subsample_left(g, 0.0, 3) == g

    def test_cap_keeps_someone(self):
        g = random_bipartite(6, 10, 4)
        sub = subsample_left(g, 50.0, 3)
        assert sub.n >= 1

    def test_binomial_count(self):
        g = random_bipartite(7, 10 ** 4, 1, 0.0)
        gamma = 1.0 / 4  # n^-gamma = 0.1
        sub = subsample_left(g, gamma, 11)
        mean, sd = 10 ** 3, math.sqrt(10 ** 4 * 0.1 * 0.9)
        assert abs(sub.n - mean) <= 4 * sd


class TestPreprocess:
    def test_square_snap(self):
        g = random_bipartite(8, 16, 6, 0.5)
        inst = SsbveInstance(graph=g, k=4)
        cands = preprocess(inst, eps=0.05, q_max=2)
        assert cands
        assert all((c.p, c.q) == (1, 2) for c in cands)

    def test_pruning_constant_frozen(self):
        assert pruning_constant(1, 2, 0.1) == pytest.approx(0.45)

    def test_candidate_count_bound(self):
        g = random_bipartite(9, 14, 8)
        inst = SsbveInstance(graph=g, k=5)
        buckets = bucket_and_regularize(inst)
        grid = 1 + math.floor(math.log2(max(
            c.graph.n_right / c.r for c in buckets)))
        assert len(preprocess(inst, 0.1)) <= len(buckets) * grid

    def test_v_d_bound(self):
        g = random_bipartite(10, 20, 8)
        inst = SsbveInstance(graph=g, k=6)
        for cand in preprocess(inst, 0.1):
            assert cand.v_d == frozenset(
                v for v in range(cand.graph.n_right)
                if cand.graph.degree_right(v) >= cand.cap_d)
            assert len(cand.v_d) <= cand.r * cand.k ** (
                1 - cand.c * cand.eps) + 1e-9


class TestSchedule:
    def test_q2(self):
        assert caterpillar_schedule(1, 2).steps == (Step.FIRST, Step.FINAL)

    def test_q3_backbone(self):
        assert caterpillar_schedule(1, 3).steps == (
            Step.FIRST, Step.BACKBONE, Step.FINAL)

    def test_q3_hair(self):
        assert caterpillar_schedule(2, 3).steps == (
            Step.FIRST, Step.HAIR, Step.FINAL)

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            caterpillar_schedule(2, 4)
        with pytest.raises(NotCoprimeError):
            caterpillar_schedule(3, 2)

    def test_exhaustive_interval_check(self):
        for q in range(2, 7):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                steps = caterpillar_schedule(p, q).steps
                assert steps[0] is Step.FIRST and steps[-1] is Step.FINAL
                for j in range(2, q):
                    has_int = any(
                        (j - 1) * p < m * q < j * p
                        for m in range(0, p + 1))
                    expected = Step.HAIR if has_int else Step.BACKBONE
                    assert steps[j - 1] is expected

    def test_hair_count_equals_interval_integers(self):
        for q in range(2, 7):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                steps = caterpillar_schedule(p, q).steps
                hairs = sum(1 for s in steps if s is Step.HAIR)
                lo, hi = Fraction(p, q), Fraction((q - 1) * p, q)
                count = sum(1 for m in range(0, p + 1) if lo < m < hi)
                assert hairs == count


def _toy_pre(seed=0, n=10, n_right=6, k=3, eps=0.1):
    g = random_bipartite(seed, n, n_right, 0.4)
    cands = preprocess(SsbveInstance(graph=g, k=k), eps)
    assert cands
    return cands[0]


def reference_first_step(pre):
    """first_step with per-vertex generator counts, kept as its oracle."""
    g, r, k, c, eps = pre.graph, pre.r, pre.k, pre.c, pre.eps
    thr = max(1.0, r / (2.0 * k ** (c * eps)))
    u_d = [u for u in range(g.n)
           if sum(1 for v in g.adj_left[u] if v not in pre.v_d) <= thr]
    if len(u_d) >= k / 2 and u_d:
        return Done(tuple(u_d[:min(len(u_d), k)]))
    return Branches(states=tuple(
        BranchState(current=g.adj_right[v], guesses=(v,), step_index=1)
        for v in range(g.n_right) if v not in pre.v_d and g.adj_right[v]))


def reference_hair_step(pre, st):
    """hair_step scanning every right vertex, kept as its oracle."""
    g, r, k, c, eps = pre.graph, pre.r, pre.k, pre.c, pre.eps
    u_hat = set(st.current)
    d_hat = len(u_hat) / k ** (1.0 - c * eps)
    thr = max(1.0, r / k ** (c * eps))
    counts: dict[int, int] = {}
    for u in st.current:
        for v in g.adj_left[u]:
            counts[v] = counts.get(v, 0) + 1
    v_hat_d = {v for v, cnt in counts.items() if cnt >= d_hat}
    u_d = [u for u in st.current
           if sum(1 for v in g.adj_left[u] if v not in v_hat_d) <= thr]
    if len(u_d) >= k:
        return Done(tuple(u_d[:k]))
    if u_d:
        sol = least_expanding_subset(g, u_d)
        if sol.expansion <= Fraction(thr):
            return Done(sol.chosen)
    states = []
    for v in range(g.n_right):
        if v in v_hat_d:
            continue
        cur = tuple(sorted(u_hat.intersection(g.adj_right[v])))
        if cur:
            states.append(BranchState(current=cur, guesses=st.guesses + (v,),
                                      step_index=st.step_index + 1))
    return Branches(states=tuple(states))


def reference_backbone_step(pre, st, seed):
    """backbone_step counting each bin's members afresh, kept as its
    oracle."""
    g, r, k, c, eps = pre.graph, pre.r, pre.k, pre.c, pre.eps
    if len(st.current) > k:
        raise PreconditionViolatedError("|current| > k")
    thr = max(1.0, r / k ** (c * eps))
    v_hat = {v for v in neighborhood(g, st.current) if v not in pre.v_d}
    sol = least_expanding_subset(g, st.current, forbidden_right=pre.v_d)
    if sol.expansion <= Fraction(thr):
        return Done(sol.chosen)
    if not v_hat:
        return Branches(states=())
    reach = set()
    for v in v_hat:
        reach.update(g.adj_right[v])
    states = []
    n_bins = max(1, math.ceil(math.log2(r))) if r > 1 else 1
    for i in range(1, n_bins + 1):
        r_i = r / 2.0 ** (i - 1)
        members = [u for u in sorted(reach)
                   if r_i / 2.0 <= sum(1 for v in g.adj_left[u]
                                       if v in v_hat) <= r_i]
        if not members:
            continue
        keep_p = r_i / r
        rng = stream(seed, 0x6262, i)
        kept = tuple(u for u in members
                     if keep_p >= 1.0 or rng.bernoulli(keep_p))
        if kept:
            states.append(BranchState(current=kept,
                                      guesses=st.guesses + (-i,),
                                      step_index=st.step_index + 1))
    return Branches(states=tuple(states))


def _step_outcome(step, *args):
    try:
        return step(*args)
    except PreconditionViolatedError:
        return PreconditionViolatedError


class TestStepsMatchReference:
    """The set-based step classifiers against the per-vertex loops."""

    @pytest.mark.parametrize("seed", range(8))
    def test_walk(self, seed):
        rng = stream(seed, 0x57E9)
        g = gen_random_bipartite(30 + rng.randrange(50), 8 + rng.randrange(20),
                                 0.1 + 0.2 * rng.random(), seed + 1300)
        inst = SsbveInstance(graph=g, k=2 + rng.randrange(6))
        checked = 0
        for pre in preprocess(inst, 0.1, seed=seed):
            res = first_step(pre)
            assert res == reference_first_step(pre)
            frontier = list(res.states) if isinstance(res, Branches) else []
            for _ in range(2):  # two levels below the first step
                following = []
                for st in frontier[:40]:
                    hair = hair_step(pre, st)
                    assert hair == reference_hair_step(pre, st)
                    bone = _step_outcome(backbone_step, pre, st, seed)
                    assert bone == _step_outcome(reference_backbone_step,
                                                 pre, st, seed)
                    checked += 1
                    for out in (hair, bone):
                        if isinstance(out, Branches):
                            following += out.states
                frontier = following
        assert checked


class TestSteps:
    def test_first_step_fully_masked(self):
        # Every right vertex exceeds the degree cap => V_D is everything.
        g = BipartiteGraph.from_edges(
            6, 2, [(u, v) for u in range(6) for v in range(2)])
        from ssbve.approx import PreprocessedInstance
        pre = PreprocessedInstance(
            graph=g, r=2, k=3, left_ids=tuple(range(6)), t_guess=2, d=3.0,
            p=1, q=2, eps=0.1, c=0.45, cap_d=1.0,
            v_d=frozenset(range(2)))
        res = first_step(pre)
        assert isinstance(res, Done)
        assert res.chosen == (0, 1, 2)
        masked = {v for u in res.chosen for v in g.adj_left[u]
                  if v not in pre.v_d}
        assert not masked

    def test_first_step_branches_bounded_by_cap(self):
        pre = _toy_pre(seed=3)
        res = first_step(pre)
        if isinstance(res, Branches):
            for st in res.states:
                v = st.guesses[0]
                assert pre.graph.degree_right(v) < pre.cap_d
                assert len(st.current) < pre.cap_d

    def test_hair_step_branch_size_bound(self):
        # Left-regular r=3 with spread-out neighborhoods: the working set's
        # degree threshold empties U-hat_D-hat, forcing guess branches.
        from ssbve.approx import PreprocessedInstance
        rng = stream(123, 0xAB)
        edges = []
        for u in range(12):
            nbrs = rng.sample_range(9, 3)
            edges.extend((u, v) for v in nbrs)
        g = BipartiteGraph.from_edges(12, 9, edges)
        pre = PreprocessedInstance(
            graph=g, r=3, k=2, left_ids=tuple(range(12)), t_guess=3,
            d=2.0, p=1, q=3, eps=0.1, c=0.45, cap_d=1e9, v_d=frozenset())
        st = BranchState(current=tuple(range(8)), guesses=(0,), step_index=1)
        out = hair_step(pre, st)
        assert isinstance(out, Branches) and out.states
        d_hat = len(st.current) / pre.k ** (1 - pre.c * pre.eps)
        for child in out.states:
            assert len(child.current) <= d_hat
            assert set(child.current) <= set(st.current)

    def test_hair_step_done_neighbor_bound(self):
        # Concentrated working set: the calm core covers k and the returned
        # set has at most 2*r*k^(1-c*eps) neighbors (thresholds unfloored).
        from ssbve.approx import PreprocessedInstance
        edges = [(u, v) for u in range(12) for v in range(3)]
        edges += [(u, 3 + u % 6) for u in range(12)]  # pad degree to 4
        g = BipartiteGraph.from_edges(12, 9, edges)
        pre = PreprocessedInstance(
            graph=g, r=4, k=2, left_ids=tuple(range(12)), t_guess=4,
            d=2.0, p=1, q=3, eps=0.1, c=0.45, cap_d=1e9, v_d=frozenset())
        assert pre.r / pre.k ** (pre.c * pre.eps) >= 1  # not floored
        st = BranchState(current=tuple(range(8)), guesses=(0,), step_index=1)
        out = hair_step(pre, st)
        assert isinstance(out, Done)
        bound = 2 * pre.r * pre.k ** (1 - pre.c * pre.eps)
        assert len(neighborhood(g, out.chosen)) <= bound

    def test_backbone_subsample_concentration(self):
        # 200 low-overlap vertices fall in the half-rate bin; the retained
        # count concentrates around half of them.
        import math as _math
        from ssbve.approx import PreprocessedInstance
        edges = []
        for u in range(10):  # working set: disjoint 4-neighborhoods
            edges += [(u, 4 * u + j) for j in range(4)]
        for i, u in enumerate(range(10, 210)):  # two in-span + two pads
            edges += [(u, (2 * i) % 40), (u, (2 * i + 1) % 40),
                      (u, 40 + (2 * i) % 4), (u, 40 + (2 * i + 1) % 4)]
        g = BipartiteGraph.from_edges(210, 44, edges)
        pre = PreprocessedInstance(
            graph=g, r=4, k=10, left_ids=tuple(range(210)), t_guess=4,
            d=2.0, p=1, q=3, eps=0.1, c=0.45, cap_d=1e9, v_d=frozenset())
        st = BranchState(current=tuple(range(10)), guesses=(0,),
                         step_index=1)
        out = backbone_step(pre, st, seed=5)
        assert isinstance(out, Branches)
        by_bin = {-s.guesses[-1]: s for s in out.states}
        assert set(by_bin) == {1, 2}
        assert len(by_bin[1].current) == 210  # top bin keeps everyone
        kept = len(by_bin[2].current)
        mean, sd = 100.0, _math.sqrt(200 * 0.25)
        assert abs(kept - mean) <= 4 * sd

    def test_backbone_precondition(self):
        pre = _toy_pre(seed=6)
        big = BranchState(current=tuple(range(pre.graph.n)), guesses=(0,),
                          step_index=1)
        if pre.graph.n > pre.k:
            with pytest.raises(PreconditionViolatedError):
                backbone_step(pre, big, seed=1)

    def test_backbone_top_bin_no_subsampling(self):
        pre = _toy_pre(seed=7, n=12, n_right=7, k=5)
        st = BranchState(current=tuple(range(min(pre.k, pre.graph.n))),
                         guesses=(0,), step_index=1)
        out = backbone_step(pre, st, seed=9)
        if isinstance(out, Branches):
            v_hat = {v for v in neighborhood(pre.graph, st.current)
                     if v not in pre.v_d}
            for child in out.states:
                i = -child.guesses[-1]
                if i == 1:
                    r_i = pre.r
                    members = [
                        u for u in range(pre.graph.n)
                        if any(v in v_hat for v in pre.graph.adj_left[u])
                        and r_i / 2 <= sum(
                            1 for v in pre.graph.adj_left[u]
                            if v in v_hat) <= r_i]
                    assert child.current == tuple(sorted(members))

    def test_final_step_trims_masked_les(self):
        pre = _toy_pre(seed=8, n=10, n_right=6, k=2)
        st = BranchState(current=tuple(range(pre.graph.n)), guesses=(0,),
                         step_index=1)
        chosen = final_step(pre, st)
        assert 1 <= len(chosen) <= pre.k
        inner = least_expanding_subset(pre.graph, st.current,
                                       forbidden_right=pre.v_d)
        assert chosen == tuple(sorted(inner.chosen)[:pre.k])

    def test_final_step_masked_matches_brute(self):
        pre = _toy_pre(seed=9, n=8, n_right=5, k=3)
        current = tuple(range(min(6, pre.graph.n)))
        st = BranchState(current=current, guesses=(0,), step_index=1)
        inner = least_expanding_subset(pre.graph, current,
                                       forbidden_right=pre.v_d)
        best = None
        for size in range(1, len(current) + 1):
            for s in combinations(current, size):
                nb = {v for v in neighborhood(pre.graph, s)
                      if v not in pre.v_d}
                r = Fraction(len(nb), size)
                best = r if best is None else min(best, r)
        assert inner.expansion == best


class TestSolvePlanted:
    def test_q2_equals_per_vertex_les(self):
        g = random_bipartite(20, 14, 6, 0.4)
        inst = SsbveInstance(graph=g, k=4)
        sol = solve_planted(inst, 1, 2, branch_cap=10 ** 6, seed=1)
        best = None
        for v in range(g.n_right):
            w = g.adj_right[v]
            if not w:
                continue
            les = least_expanding_subset(g, w)
            trimmed = sorted(les.chosen)[:inst.k]
            cand = Solution.from_set(g, trimmed)
            if best is None or cand.sort_key() < best.sort_key():
                best = cand
        assert best is not None
        assert sol == best

    def test_branch_cap_one_deterministic(self):
        g = random_bipartite(21, 12, 5, 0.4)
        inst = SsbveInstance(graph=g, k=3)
        a = solve_planted(inst, 1, 2, branch_cap=1, seed=5)
        b = solve_planted(inst, 1, 2, branch_cap=1, seed=5)
        assert a == b

    @pytest.mark.parametrize("seed", [9, 3, 14])
    def test_planted_family_smoke(self, seed):
        # Small-scale recovery needs |T| well below |V|/(r+1), otherwise the
        # bulk ratio |V|/|N(v)| beats the planted core and trimming hurts.
        spec = PlantedSpec(n=1024, alpha=0.5, beta=0.5, gamma=0.1,
                           r_degree=10, seed=seed)
        inst, filled = gen_planted(spec)
        sol = solve_planted(inst, 1, 2, branch_cap=1024, seed=3)
        planted_exp = expansion(inst.graph, filled.planted_s)
        assert sol.expansion <= 4 * planted_exp


class TestSolveWorstCase:
    def test_complete_bipartite(self):
        g = BipartiteGraph.from_edges(
            5, 3, [(u, v) for u in range(5) for v in range(3)])
        sol = solve_worst_case(SsbveInstance(graph=g, k=2))
        assert len(sol.chosen) == 2
        assert sol.neighborhood_size == 3

    @pytest.mark.parametrize("seed", range(25))
    def test_feasible_and_never_beats_exact(self, seed):
        inst = random_instance(seed)
        sol = solve_worst_case(inst, branch_cap=8, seed=seed)
        assert len(sol.chosen) == inst.k
        opt = exact_ssbve(inst)
        assert sol.neighborhood_size >= opt.neighborhood_size

    @staticmethod
    def without_memo(monkeypatch, inst, **kw):
        with monkeypatch.context() as m:
            m.setattr(approx, "memo_scope", contextlib.nullcontext)
            return solve_worst_case(inst, **kw)

    @pytest.mark.parametrize("seed", range(20))
    def test_memo_matches_memo_free_oracle_small(self, seed, monkeypatch):
        inst = _random_small_instance(seed)
        assert solve_worst_case(inst, branch_cap=8, seed=seed) == \
            self.without_memo(monkeypatch, inst, branch_cap=8, seed=seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_memo_matches_memo_free_random(self, seed, monkeypatch):
        rng = stream(seed, 0x3E30)
        g = gen_random_bipartite(30 + rng.randrange(40),
                                 10 + rng.randrange(15), 0.15, seed + 900)
        inst = SsbveInstance(graph=g, k=2 + rng.randrange(5))
        assert solve_worst_case(inst, branch_cap=32, seed=seed) == \
            self.without_memo(monkeypatch, inst, branch_cap=32, seed=seed)

    def test_memo_ends_with_the_solve(self, monkeypatch):
        inst = random_instance(4)
        assert les._MEMO.get() is None
        solve_worst_case(inst, branch_cap=8)
        assert les._MEMO.get() is None
        active = []

        def failing(inst, atmost_solver):
            active.append(les._MEMO.get() is not None)
            raise SolverStalledError("stalled")

        monkeypatch.setattr(approx, "exact_from_atmost", failing)
        with pytest.raises(SolverStalledError):
            solve_worst_case(inst, branch_cap=8)
        assert active == [True]
        assert les._MEMO.get() is None

    def test_monotone_in_branch_cap(self):
        g = random_bipartite(33, 12, 7, 0.35)
        inst = SsbveInstance(graph=g, k=4)
        sizes = [solve_worst_case(inst, branch_cap=cap,
                                  seed=7).neighborhood_size
                 for cap in (1, 4, 16)]
        assert sizes[0] >= sizes[1] >= sizes[2]
