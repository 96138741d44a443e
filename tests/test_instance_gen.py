"""Generator determinism, model structure, and concentration checks."""

import hashlib
import math
import tracemalloc
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbve.errors import (ArityTooLargeError, InvalidExponentsError,
                          ProbabilityOutOfRangeError)
from ssbve.formats import parse_planted_sidecar, planted_sidecar, write_ssbve
from ssbve.generators import (DRAW_CHUNK, SUBSET_SAMPLING_BUDGET, HdvrSpec,
                              PlantedSpec, _sample_r_subsets,
                              _unrank_combination, gen_gap_instance,
                              gen_hdvr, gen_planted, gen_random_bipartite)
from ssbve.graph import (BipartiteGraph, Hypergraph, SsbveInstance,
                         neighborhood)
from ssbve.rng import BLOCK, SplitMix64, stream

from conftest import validate_rows

GOLDEN = 0x9E3779B97F4A7C15


class TestRng:
    def test_splitmix_reference_values(self):
        # First outputs for seed 1234567: golden values frozen from the
        # published SplitMix64 recurrence.
        g = SplitMix64(1234567)
        got = [g.u64() for _ in range(3)]
        assert got == [6457827717110365317,
                       3203168211198807973,
                       9817491932198370423]

    def test_streams_reproducible(self):
        a = [stream(99, 5).u64() for _ in range(4)]
        b = [stream(99, 5).u64() for _ in range(4)]
        assert a == b

    def test_sample_range_distinct(self):
        g = stream(3)
        s = g.sample_range(50, 20)
        assert len(set(s)) == 20 and all(0 <= x < 50 for x in s)


def scalar_bytes(g: SplitMix64, count: int, p: float) -> bytes:
    """One bernoulli call per draw: the oracle of bernoulli_bytes."""
    return bytes(g.bernoulli(p) for _ in range(count))


class TestBernoulliBytes:
    @pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                       3 * BLOCK + 7])
    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 2 / 384, 0.15,
                                   1 / 3, 0.5, 1 - 2 ** -53, 1.0,
                                   float("nan"), -0.5, 1.5, float("inf")])
    def test_matches_scalar_draws(self, count, p):
        fast, slow = stream(count, 0x6262), stream(count, 0x6262)
        assert fast.bernoulli_bytes(count, p) == scalar_bytes(slow, count, p)
        assert fast._state == slow._state

    @pytest.mark.parametrize("count", [-3, 0, 1, 74, BLOCK, 2 * BLOCK + 5])
    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_constant_p_skips_the_lanes(self, monkeypatch, count, p):
        # Every draw has one outcome: the bytes and the final state are the
        # scalar loop's, and no lane is mixed.
        fast, slow = stream(count, 0x636F), stream(count, 0x636F)
        monkeypatch.setattr("ssbve.rng._mixed_blocks", None)
        assert fast.bernoulli_bytes(count, p) == scalar_bytes(slow, count, p)
        assert fast._state == slow._state

    def test_threshold_edges(self):
        # Seeds whose first output's top 53 bits are exactly the threshold
        # ceil(p * 2^53) or one below it, for a p that is not a multiple of
        # 2^-53: the draw just under the threshold succeeds, the one on it
        # fails.
        p = 1 / 3
        t = math.ceil(p * 2 ** 53)
        for top, want in ((t - 1, 1), (t, 0)):
            seed = _inverse_mix((top << 11) | 0x5A5) - 0x9E3779B97F4A7C15
            assert SplitMix64(seed).bernoulli(p) == want
            assert SplitMix64(seed).bernoulli_bytes(1, p) == bytes([want])

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 * BLOCK + 50),
           st.one_of(st.floats(0.0, 1.0),
                     st.sampled_from([0.0, 1.0, 2 ** -53, 1 - 2 ** -53])))
    @settings(max_examples=30, deadline=None)
    def test_random_draws_match_scalar(self, seed, count, p):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        assert fast.bernoulli_bytes(count, p) == scalar_bytes(slow, count, p)
        assert fast._state == slow._state


def scalar_range(g: SplitMix64, n: int, count: int) -> list[int]:
    """One randrange call per draw: the oracle of randrange_many."""
    return [g.randrange(n) for _ in range(count)]


class TestRandrangeMany:
    @pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1,
                                       3 * BLOCK + 7])
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 2 ** 32 + 1, 2 ** 63 + 1])
    def test_matches_scalar_draws(self, n, count):
        fast, slow = stream(count, n), stream(count, n)
        assert fast.randrange_many(n, count) == scalar_range(slow, n, count)
        assert fast._state == slow._state

    def test_shortfall_drawn_again(self):
        # Modulus 2^63 + 1 rejects about half of all outputs, so the block
        # draw needs several rounds; it still stops at the last kept one.
        n, count = 2 ** 63 + 1, 3 * BLOCK + 7
        g = stream(1, 0x7272)
        start = g._state
        assert g.randrange_many(n, count) == scalar_range(stream(1, 0x7272),
                                                          n, count)
        drawn = (g._state - start) * pow(GOLDEN, -1, 1 << 64) % (1 << 64)
        assert 1.5 * count < drawn < 2.5 * count

    @pytest.mark.parametrize("n", [0, -3, 2 ** 64 + 1])
    def test_modulus_out_of_range(self, n):
        # Above 2^64 no output is ever below the rejection threshold.
        for draw in (lambda g: g.randrange(n),
                     lambda g: g.randrange_many(n, 5)):
            with pytest.raises(ValueError):
                draw(stream(2))

    @given(st.integers(0, 2 ** 64 - 1),
           st.one_of(st.integers(1, 300), st.integers(1, 2 ** 64)),
           st.integers(0, 2 * BLOCK + 50))
    @settings(max_examples=30, deadline=None)
    def test_random_draws_match_scalar(self, seed, n, count):
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        assert fast.randrange_many(n, count) == scalar_range(slow, n, count)
        assert fast._state == slow._state


def _inverse_mix(z: int) -> int:
    """The state whose SplitMix64 finalizer output is z."""
    mask = (1 << 64) - 1

    def unxorshift(y, k):
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x

    z = unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    z = unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return unxorshift(z, 30)


def reference_random_bipartite(n, s, p, seed):
    """The per-draw generator: one bernoulli call per potential edge, then
    the rows from the edge list."""
    rng = stream(seed, 0x6269)
    edges = [(u, v) for u in range(n) for v in range(s) if rng.bernoulli(p)]
    return BipartiteGraph.from_edges(n, s, edges)


def reference_sample_r_subsets(rng, n, r, p):
    total = comb(n, r)
    count = sum(1 for _ in range(total) if rng.bernoulli(p))
    chosen = set()
    while len(chosen) < count:
        chosen.add(rng.randrange(total))
    return [_unrank_combination(i, n, r) for i in sorted(chosen)]


def reference_hdvr(spec):
    """gen_hdvr with one bernoulli call per candidate hyperedge."""
    rng = stream(spec.seed, 0x6864)
    p_ambient = float(spec.n) ** (spec.alpha - (spec.r_edge - 1))
    sets = reference_sample_r_subsets(rng, spec.n, spec.r_edge, p_ambient)
    if spec.mode == "planted":
        k = spec.k_planted
        members = sorted(rng.sample_range(spec.n, k))
        p_plant = float(k) ** (spec.beta - (spec.r_edge - 1))
        for local in reference_sample_r_subsets(rng, k, spec.r_edge, p_plant):
            sets.append(tuple(members[i] for i in local))
    return Hypergraph.from_sets(spec.n, sets)


def reference_planted(spec):
    """gen_planted with one randrange call per edge, then the rows from
    the edge list."""
    rng = stream(spec.seed, 0x706C)
    planted_s = tuple(sorted(rng.sample_range(spec.n, spec.k)))
    planted_t = tuple(sorted(rng.sample_range(spec.n_right, spec.t_size)))
    in_s = set(planted_s)
    edges = [(u, planted_t[rng.randrange(spec.t_size)] if u in in_s
              else rng.randrange(spec.n_right))
             for u in range(spec.n) for _ in range(spec.r_degree)]
    graph = BipartiteGraph.from_edges(spec.n, spec.n_right, edges)
    return (SsbveInstance(graph=graph, k=spec.k),
            replace(spec, planted_s=planted_s, planted_t=planted_t))


SMALL_P = [0.0, 0.15, 1.0]


class TestGeneratorsMatchPerDraw:
    @pytest.mark.parametrize("n, s, p", [
        *[(n, s, p) for n, s in ((6, 0), (0, 7), (1, 1), (2, BLOCK + 1),
                                 (2, DRAW_CHUNK + 1)) for p in SMALL_P],
        (3, 10000, 0.15), (10000, 3, 0.15), (120, 40, 0.15),
        (1280, 384, 2 / 384), (4096, 64, 0.5)])
    def test_random_bipartite(self, n, s, p):
        got = gen_random_bipartite(n, s, p, 11)
        assert got == reference_random_bipartite(n, s, p, 11)
        validate_rows(got)

    @pytest.mark.parametrize("spec", [
        # alpha 0 (every vertex planted) and 1 (one planted vertex, and an
        # unplanted run longer than a chunk)
        PlantedSpec(n=300, alpha=0.0, beta=0.8, gamma=0.3, r_degree=5,
                    seed=1),
        PlantedSpec(n=4096, alpha=1.0, beta=0.5, gamma=0.2, r_degree=12,
                    seed=2),
        # gamma 0 (|T| = 1), r_degree 1, n_right 1, n 1
        PlantedSpec(n=500, alpha=0.5, beta=0.6, gamma=0.0, r_degree=4,
                    seed=3),
        PlantedSpec(n=700, alpha=0.3, beta=0.9, gamma=0.5, r_degree=1,
                    seed=4),
        PlantedSpec(n=2, alpha=0.5, beta=0.5, gamma=0.0, r_degree=3, seed=5),
        PlantedSpec(n=1, alpha=0.5, beta=1.0, gamma=0.0, r_degree=2, seed=6),
        # n_right 63, which rejects some draws; rows longer than a chunk
        PlantedSpec(n=3969, alpha=0.5, beta=0.5, gamma=0.2, r_degree=12,
                    seed=7),
        PlantedSpec(n=3, alpha=0.5, beta=1.0, gamma=0.5,
                    r_degree=DRAW_CHUNK + 5, seed=8)])
    def test_planted(self, spec):
        got = gen_planted(spec)
        assert got == reference_planted(spec)
        validate_rows(got[0].graph)

    def test_ids_shared_within_each_view(self):
        # One int object per distinct id in the rows, and one in the right
        # view, so no int object per edge.
        g = gen_random_bipartite(300, 300, 0.5, 2)
        for view in (g.adj_left, g.adj_right):
            by_value = {}
            for ids in view:
                for i in ids:
                    assert by_value.setdefault(i, i) is i

    @pytest.mark.parametrize("spec", [
        HdvrSpec(n=8, r_edge=3, alpha=2.0, beta=1.0, k_planted=4,
                 mode="random", seed=1),
        HdvrSpec(n=64, r_edge=3, alpha=1.0, beta=1.0, k_planted=8,
                 mode="random", seed=9),
        HdvrSpec(n=182, r_edge=2, alpha=0.6, beta=0.5, k_planted=10,
                 mode="random", seed=3),  # C(182, 2) = DRAW_CHUNK + 87
        HdvrSpec(n=256, r_edge=2, alpha=0.5, beta=0.8, k_planted=40,
                 mode="planted", seed=4),
        HdvrSpec(n=48, r_edge=3, alpha=0.8, beta=1.6, k_planted=12,
                 mode="planted", seed=4)])
    def test_hdvr(self, spec):
        assert gen_hdvr(spec) == reference_hdvr(spec)

    def test_hdvr_memory_at_budget(self):
        # C(n, r) just under the sampling budget: the count is summed chunk
        # by chunk, so the draws never hold more than a chunk at a time.
        n, r, p = 392, 3, 2.0 ** -20
        assert 0.99 * SUBSET_SAMPLING_BUDGET < comb(n, r) <= (
            SUBSET_SAMPLING_BUDGET)
        tracemalloc.start()
        try:
            _sample_r_subsets(stream(6), n, r, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


# sha256 of write_ssbve for instances made by the per-draw generators: the
# two gap instances of the benchmark's certify case at seed 0, its first
# worst case, its first planted case, and a planted instance whose right
# side (126) is not a power of two.
GOLDEN_TEXTS = [
    (lambda: gen_gap_instance(1280, 384, 2.0, 10_000), 4,
     "de7ba4d14cd7c21d1de2b385a74790133636096c44b0b53011260feb03bd7c0c"),
    (lambda: gen_gap_instance(4096, 64, 32.0, 10_000), 64,
     "fe1d095d9944f1f00e248f32117479a4357e65af6266ec82470dd4122ad01a14"),
    (lambda: gen_random_bipartite(120, 40, 0.15, 10_000), 6,
     "934af78d234013ffad6a1c20a6900fd015878aa1812ac003510e404830d40473"),
    (lambda: gen_planted(PlantedSpec(n=4096, alpha=0.5, beta=0.5, gamma=0.2,
                                     r_degree=12, seed=10_000))[0].graph, 64,
     "68f59c8bcd43c86d0c0cebb921a0c0e022178cc5fe74e22a2adad01de3011a41"),
    (lambda: gen_planted(PlantedSpec(n=1000, alpha=0.5, beta=0.7, gamma=0.3,
                                     r_degree=7, seed=3))[0].graph, 32,
     "ed87e73c548f2f27371e450cea8dcfa24a6b07e8f0e91c2f81061308f0b1eadd"),
]


@pytest.mark.parametrize("make, k, digest", GOLDEN_TEXTS,
                         ids=["certify-sdp", "certify-sa", "worst", "planted",
                              "planted-126"])
def test_instance_text_golden(make, k, digest):
    text = write_ssbve(SsbveInstance(graph=make(), k=k))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestRandomBipartite:
    def test_p_zero(self):
        g = gen_random_bipartite(5, 4, 0.0, 1)
        assert g.num_edges() == 0

    def test_p_one(self):
        g = gen_random_bipartite(5, 4, 1.0, 1)
        assert g.num_edges() == 20

    def test_determinism(self):
        a = gen_random_bipartite(30, 10, 0.3, 777)
        b = gen_random_bipartite(30, 10, 0.3, 777)
        assert a == b

    def test_binomial_concentration(self):
        g = gen_random_bipartite(200, 20, 0.1, 42)
        mean = 400.0
        sd = math.sqrt(200 * 20 * 0.1 * 0.9)
        assert abs(g.num_edges() - mean) <= 4 * sd

    def test_valid_invariants(self):
        validate_rows(gen_random_bipartite(40, 15, 0.25, 5))


class TestPlanted:
    def make_spec(self, seed=7, gamma=0.45):
        return PlantedSpec(n=4096, alpha=0.5, beta=0.5, gamma=gamma,
                           r_degree=12, seed=seed)

    def test_invalid_exponents(self):
        with pytest.raises(InvalidExponentsError):
            PlantedSpec(n=64, alpha=0.5, beta=0.4, gamma=0.5, r_degree=3,
                        seed=1)

    @pytest.mark.parametrize("alpha, beta, gamma", [
        (0.5, 0.5, 0.5), (math.nan, 0.5, 0.2), (0.5, 0.5, math.nan),
        (0.5, math.nan, 0.2), (-1.0, 0.5, 0.2), (1.5, 0.5, 0.2),
        (0.5, 1e6, 0.2), (0.5, 0.5, -0.1), (math.inf, 0.5, 0.2)])
    def test_out_of_range_exponents(self, alpha, beta, gamma):
        # Sizes n^(1-alpha) <= n and n^gamma < n^beta <= n, or no instance.
        with pytest.raises(InvalidExponentsError):
            PlantedSpec(n=64, alpha=alpha, beta=beta, gamma=gamma,
                        r_degree=3, seed=1)

    @pytest.mark.parametrize("n, r_degree", [(0, 3), (-5, 3), (64, 0),
                                             (64, -2)])
    def test_sizes_below_one(self, n, r_degree):
        with pytest.raises(InvalidExponentsError):
            PlantedSpec(n=n, alpha=0.5, beta=0.5, gamma=0.2,
                        r_degree=r_degree, seed=1)

    def test_planted_neighborhood_containment(self):
        inst, spec = gen_planted(self.make_spec())
        nbhd = neighborhood(inst.graph, spec.planted_s)
        assert nbhd <= set(spec.planted_t)

    def test_sizes_tight_case(self):
        # alpha = beta = 1/2: |S| = |V| = sqrt(n).
        inst, spec = gen_planted(self.make_spec())
        assert len(spec.planted_s) == 64
        assert inst.graph.n_right == 64
        assert inst.k == 64

    def test_planted_expansion_bounded_by_t(self):
        inst, spec = gen_planted(self.make_spec())
        nbhd = neighborhood(inst.graph, spec.planted_s)
        assert len(nbhd) <= len(spec.planted_t)

    def test_back_degree_scale(self):
        inst, spec = gen_planted(self.make_spec(seed=11))
        s_set = set(spec.planted_s)
        edges_into_s = sum(
            len(set(inst.graph.adj_right[v]) & s_set)
            for v in spec.planted_t)
        avg_back = edges_into_s / len(spec.planted_t)
        target = spec.r_degree * len(spec.planted_s) / len(spec.planted_t)
        assert target / 2 <= avg_back <= 2 * target

    def test_determinism(self):
        a, sa = gen_planted(self.make_spec(seed=3))
        b, sb = gen_planted(self.make_spec(seed=3))
        assert a == b and sa == sb

    def test_sidecar_round_trip(self):
        _, spec = gen_planted(self.make_spec(seed=5))
        data = parse_planted_sidecar(planted_sidecar(spec))
        assert tuple(data["planted_s"]) == spec.planted_s
        assert tuple(data["planted_t"]) == spec.planted_t
        assert data["alpha"] == spec.alpha


class TestHdvr:
    def test_boundary_exponent_complete(self):
        spec = HdvrSpec(n=8, r_edge=3, alpha=2.0, beta=1.0, k_planted=4,
                        mode="random", seed=1)
        h = gen_hdvr(spec)
        assert len(h.sets) == comb(8, 3)

    def test_total_count_concentration(self):
        spec = HdvrSpec(n=64, r_edge=3, alpha=1.0, beta=1.0, k_planted=8,
                        mode="random", seed=9)
        h = gen_hdvr(spec)
        m = comb(64, 3)
        p = 64.0 ** (1.0 - 2)
        mean = m * p
        sd = math.sqrt(m * p * (1 - p))
        assert abs(len(h.sets) - mean) <= 4 * sd

    @staticmethod
    def _planted_tail(spec):
        """Planted additions = suffix beyond the same-seed random-mode run."""
        import dataclasses
        ambient = gen_hdvr(dataclasses.replace(spec, mode="random"))
        full = gen_hdvr(spec)
        assert full.sets[:len(ambient.sets)] == ambient.sets
        return full.sets[len(ambient.sets):]

    def test_planted_count_scale_pairs(self):
        # r=2: planted edge count within factor 2 of k^(1+beta)/r.
        spec = HdvrSpec(n=256, r_edge=2, alpha=0.5, beta=0.8, k_planted=40,
                        mode="planted", seed=4)
        tail = self._planted_tail(spec)
        expected = 40.0 ** (1 + 0.8) / 2
        assert expected / 2 <= len(tail) <= 2 * expected

    def test_planted_tail_inside_one_subset(self):
        spec = HdvrSpec(n=48, r_edge=3, alpha=0.8, beta=1.6, k_planted=12,
                        mode="planted", seed=4)
        tail = self._planted_tail(spec)
        members = set()
        for s in tail:
            members.update(s)
        assert len(members) <= 12
        # Count concentrates around the model expectation C(k,r)*k^(beta-r+1).
        expected = comb(12, 3) * 12.0 ** (1.6 - 2)
        sd = math.sqrt(expected)
        assert abs(len(tail) - expected) <= 4 * sd

    @pytest.mark.parametrize("alpha", [
        math.nan, math.inf, -math.inf, 1e6, 2.5])
    def test_invalid_ambient_exponent(self, alpha):
        # Above r-1 = 2 the ambient probability n^(alpha-2) exceeds 1.
        with pytest.raises(InvalidExponentsError):
            HdvrSpec(n=10, r_edge=3, alpha=alpha, beta=1.0, k_planted=3,
                     mode="random", seed=1)

    @pytest.mark.parametrize("k_planted", [0, -2])
    def test_planted_size_below_one(self, k_planted):
        # gen_hdvr would divide by zero (0) or fail to sample (-2).
        with pytest.raises(InvalidExponentsError, match="k_planted"):
            HdvrSpec(n=10, r_edge=3, alpha=1.0, beta=1.0,
                     k_planted=k_planted, mode="planted", seed=1)

    def test_arity_budget(self):
        spec = HdvrSpec(n=300, r_edge=5, alpha=3.0, beta=3.0, k_planted=10,
                        mode="random", seed=2)
        with pytest.raises(ArityTooLargeError):
            gen_hdvr(spec)


class TestGapInstance:
    def test_probability_out_of_range(self):
        with pytest.raises(ProbabilityOutOfRangeError):
            gen_gap_instance(64, 8, 10.0, 3)

    def test_expected_degrees(self):
        n, s, d_l = 512, 23, 20.0
        g = gen_gap_instance(n, s, d_l, 123)
        avg_left = g.num_edges() / n
        assert abs(avg_left - d_l) < 4 * math.sqrt(d_l / n) * math.sqrt(n)
        d_r = n * d_l / s
        avg_right = g.num_edges() / s
        assert abs(avg_right - d_r) <= 4 * math.sqrt(n * (d_l / s))

    def test_determinism(self):
        assert gen_gap_instance(64, 8, 4.0, 5) == gen_gap_instance(
            64, 8, 4.0, 5)
