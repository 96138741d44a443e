"""Certificate builders/verifiers, cover costs, instance properties, and the
gap-exponent calculator."""

from fractions import Fraction
from itertools import combinations

import mpmath
import pytest

from ssbve.certs import (biregularize, build_sa_certificate,
                         build_sdp_certificate, cap_degrees,
                         check_instance_properties, cover_cost,
                         hardness_gap_calculator, sa_lift_value,
                         sample_property_checks, verify_sa_certificate,
                         verify_sdp_certificate)
from ssbve.certs.sa import _verify_naive, _View
from ssbve.certs.report import VerifyReport
from ssbve.errors import (InfeasibleError, InvalidRegimeError, NoCoverError,
                          ParameterRegimeError, SizeExceededError)
from ssbve.generators import gen_gap_instance
from ssbve.graph import BipartiteGraph

from conftest import random_bipartite


def circulant_biregular(n: int, s: int, d_l: int) -> BipartiteGraph:
    """Exactly biregular graph: edge e joins left e//d_l to right e%s."""
    assert d_l <= s and (n * d_l) % s == 0
    edges = [(e // d_l, e % s) for e in range(n * d_l)]
    return BipartiteGraph.from_edges(n, s, edges)


# ---------------------------------------------------------------------------
# Biregularization
# ---------------------------------------------------------------------------

class TestBiregularize:
    def test_already_biregular_identity(self):
        g = circulant_biregular(12, 6, 2)
        assert biregularize(g, 2, 4) == g

    def test_empty_to_matching(self):
        g = BipartiteGraph.from_edges(2, 2, [])
        out = biregularize(g, 1, 1)
        assert sorted(out.edges()) in ([(0, 0), (1, 1)], [(0, 1), (1, 0)])

    def test_infeasible_sums(self):
        g = BipartiteGraph.from_edges(3, 2, [])
        with pytest.raises(InfeasibleError):
            biregularize(g, 1, 1)

    def test_over_degree_rejected(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1)])
        with pytest.raises(InfeasibleError):
            biregularize(g, 1, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_capped_instance_degree_audit(self, seed):
        n, s, d_l = 64, 16, 4
        g = gen_gap_instance(n, s, d_l, seed)
        d_l_t, d_r_t = 6, 24  # 3/2 of the expected degrees
        capped = cap_degrees(g, d_l_t, d_r_t)
        out = biregularize(capped, d_l_t, d_r_t)
        assert all(out.degree_left(u) == d_l_t for u in range(n))
        assert all(out.degree_right(v) == d_r_t for v in range(s))
        out.validate()

    def test_preserves_existing_edges(self):
        g = BipartiteGraph.from_edges(4, 4, [(0, 0), (1, 1)])
        out = biregularize(g, 2, 2)
        existing = set(g.edges())
        assert existing <= set(out.edges())


# ---------------------------------------------------------------------------
# SDP certificate
# ---------------------------------------------------------------------------

VALID = dict(n=512, s=64, d_l=1, k=4)     # tau = 1/16 < 1/8
SMALL = dict(n=99, s=33, d_l=1, k=3)      # tau = 4/33, dense-checkable


class TestSdpCertificate:
    def test_build_valid_regime(self):
        g = circulant_biregular(VALID["n"], VALID["s"], VALID["d_l"])
        cert = build_sdp_certificate(g, VALID["k"])
        assert cert.sdp_alpha == Fraction(1, 2)
        assert cert.tau == Fraction(1, 16)
        assert cert.tau == 4 * max(Fraction(1, 64), Fraction(4, 512))

    def test_rejects_non_biregular(self):
        g = random_bipartite(3, 8, 5)
        with pytest.raises(ParameterRegimeError):
            build_sdp_certificate(g, 2)

    def test_rejects_tau_regime(self):
        # Complete-ish biregular with big degrees: tau blows past 1/8.
        g = circulant_biregular(16, 8, 4)
        with pytest.raises(ParameterRegimeError, match="tau"):
            build_sdp_certificate(g, 3)

    def test_rejects_large_k(self):
        g = circulant_biregular(12, 6, 1)
        with pytest.raises(ParameterRegimeError, match="k"):
            build_sdp_certificate(g, 6)

    def test_verify_passes_valid_regime(self):
        g = circulant_biregular(VALID["n"], VALID["s"], VALID["d_l"])
        cert = build_sdp_certificate(g, VALID["k"])
        rep = verify_sdp_certificate(cert)
        assert rep.passed, rep.failing()
        assert rep.extra["objective"] == pytest.approx(4.0)

    def test_objective_identity(self):
        g = circulant_biregular(VALID["n"], VALID["s"], VALID["d_l"])
        cert = build_sdp_certificate(g, VALID["k"])
        n, s, k, d_l = VALID["n"], VALID["s"], VALID["k"], VALID["d_l"]
        assert cert.objective == 4 * max(
            Fraction(d_l * d_l), Fraction(d_l * k * s, n))

    def test_c_nonedge_positive(self):
        g = circulant_biregular(VALID["n"], VALID["s"], VALID["d_l"])
        cert = build_sdp_certificate(g, VALID["k"])
        assert cert.c_nonedge > 0
        assert cert.zeta >= 0

    def test_dense_fraction_decomposition(self):
        """Entrywise X = Y + Z + sum_v X^(v) in exact rationals."""
        g = circulant_biregular(SMALL["n"], SMALL["s"], SMALL["d_l"])
        cert = build_sdp_certificate(g, SMALL["k"])
        n, s = SMALL["n"], SMALL["s"]
        mu, eta = cert.a_off_coeff, cert.a_off_const
        tau, zeta = cert.tau, cert.zeta
        ce, cn = cert.c_edge, cert.c_nonedge
        total = n + s
        adj = {(u, n + v) for u, v in cert.graph.edges()}

        def x_entry(w1, w2):
            if w1 > w2:
                w1, w2 = w2, w1
            if w2 < n:
                if w1 == w2:
                    return cert.a_diag
                return mu * int(cert.nu[w1, w2]) + eta
            if w1 >= n:
                return tau if w1 == w2 else tau / 2
            return ce if (w1, w2) in adj else cn

        def decomposed(w1, w2):
            if w1 > w2:
                w1, w2 = w2, w1
            val = Fraction(0)
            # sum over right vertices v of X^(v)
            if w2 < n:
                val += mu * int(cert.nu[w1, w2]) if w1 != w2 else mu * int(
                    cert.nu[w1, w1])
            elif w1 < n <= w2:
                if (w1, w2) in adj:
                    val += cert.a_diag - cn
            else:
                if w1 == w2:
                    val += tau / 2
            # Y
            if w2 < n:
                val += eta
            elif w1 < n:
                val += cn
            else:
                val += tau / 2
            # Z
            if w1 == w2 and w1 < n:
                val += zeta
            return val

        for w1 in range(0, total, 7):
            for w2 in range(0, total, 5):
                assert x_entry(w1, w2) == decomposed(w1, w2), (w1, w2)

    def test_verify_small_dense(self):
        g = circulant_biregular(SMALL["n"], SMALL["s"], SMALL["d_l"])
        cert = build_sdp_certificate(g, SMALL["k"])
        rep = verify_sdp_certificate(cert)
        assert rep.passed, rep.failing()


# ---------------------------------------------------------------------------
# Instance properties
# ---------------------------------------------------------------------------

class TestInstanceProperties:
    def test_complete_bipartite_item1(self):
        g = BipartiteGraph.from_edges(
            10, 4, [(u, v) for u in range(10) for v in range(4)])
        rep = check_instance_properties(g, k=4, samples=50, seed=1)
        row = next(r for r in rep.checks
                   if r.constraint_id == "item1-optimum-lb")
        assert row.lhs == 4  # |N(S)| = s for every subset
        assert row.slack == 0

    def test_degree_audit_flags_outlier(self):
        edges = [(u, v) for u in range(8) for v in range(4)]
        edges += [(8, 0)]  # degree-1 outlier vs mean 33/9
        g = BipartiteGraph.from_edges(9, 4, edges)
        rep = check_instance_properties(g, k=2, samples=10, seed=1)
        row = next(r for r in rep.checks
                   if r.constraint_id == "item2-degree-bounds")
        assert row.slack > 0

    def test_gap_instance_seeded(self):
        g = gen_gap_instance(256, 16, 14.0, 5)
        rep = check_instance_properties(g, k=16, samples=200, seed=3)
        assert rep.extra["item3_checked"]
        assert rep.passed, rep.failing()


# ---------------------------------------------------------------------------
# Cover cost
# ---------------------------------------------------------------------------

def brute_cover_cost(g: BipartiteGraph, subset) -> int:
    """Independent oracle: enumerate (connected vertex set, leftover) covers.

    Any connected vertex superset of the terminals admits a spanning tree on
    exactly those vertices, so minimizing over connected sets equals
    minimizing over trees.
    """
    n, s = g.n, g.n_right
    total = n + s
    adj = [set() for _ in range(total)]
    for u, v in g.edges():
        adj[u].add(n + v)
        adj[n + v].add(u)
    subset = frozenset(subset)
    s_u = {w for w in subset if w < n}
    nbhd = set()
    for u in s_u:
        nbhd |= adj[u]
    s_v = {w for w in subset if w >= n} - nbhd
    if not s_u and not s_v:
        return 0
    best = None
    for keep in range(1 << len(s_v)):
        s_v_list = sorted(s_v)
        s_prime = {s_v_list[i] for i in range(len(s_v_list))
                   if keep >> i & 1}
        terminals = s_u | (s_v - s_prime)
        if not terminals:
            cand = len(s_prime)
            best = cand if best is None else min(best, cand)
            continue
        for mask in range(1 << total):
            members = {w for w in range(total) if mask >> w & 1}
            if not terminals <= members:
                continue
            if not any(w < n for w in members):
                continue
            if not _connected(members, adj):
                continue
            cand = sum(1 for w in members if w < n) + len(s_prime) + 1
            best = cand if best is None else min(best, cand)
    if best is None:
        raise NoCoverError("no cover")
    return best


def _connected(members, adj) -> bool:
    if not members:
        return False
    seen = set()
    stack = [next(iter(members))]
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        stack.extend(adj[w] & members - seen)
    return seen == members


class TestCoverCost:
    def test_empty(self):
        g = random_bipartite(1, 5, 3)
        assert cover_cost(g, []) == 0

    def test_right_singleton(self):
        g = random_bipartite(2, 5, 3)
        for v in range(3):
            assert cover_cost(g, [5 + v]) == 1

    def test_left_singleton(self):
        g = random_bipartite(3, 5, 3)
        for u in range(5):
            assert cover_cost(g, [u]) == 2

    def test_pair_classes(self):
        g = BipartiteGraph.from_edges(
            4, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)])
        n = 4
        # adjacent / non-adjacent left-right pairs
        assert cover_cost(g, [0, n + 0]) == 2
        assert cover_cost(g, [0, n + 1]) == 3
        # two rights
        assert cover_cost(g, [n + 0, n + 1]) == 2
        # two lefts with and without a common neighbor
        assert cover_cost(g, [0, 1]) == 3
        assert cover_cost(g, [0, 2]) == 4   # path 0-0-1-1-2

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_oracle(self, seed):
        g = random_bipartite(seed + 5, 5, 4, 0.45)
        total = 9
        for size in (0, 1, 2, 3):
            for subset in combinations(range(total), size):
                try:
                    expected = brute_cover_cost(g, subset)
                except NoCoverError:
                    with pytest.raises(NoCoverError):
                        cover_cost(g, subset)
                    continue
                assert cover_cost(g, subset) == expected, subset

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_under_subset(self, seed):
        from ssbve.rng import stream
        g = random_bipartite(seed + 30, 6, 4, 0.5)
        rng = stream(seed, 0xC0)
        view = _View(g)
        for _ in range(40):
            big = frozenset(rng.sample_range(10, 1 + rng.randrange(3)))
            small = frozenset(w for w in big if rng.bernoulli(0.6))
            try:
                c_small = cover_cost(g, small, view)
                c_big = cover_cost(g, big, view)
            except NoCoverError:
                continue
            assert c_small <= c_big


# ---------------------------------------------------------------------------
# SA certificate
# ---------------------------------------------------------------------------

def sa_instance(n=256, s=16, d_l=8, seed=7):
    g = gen_gap_instance(n, s, float(d_l), seed)
    return build_sa_certificate(g, rounds=1)


class TestSaCertificate:
    def test_parameters_round1(self):
        cert = sa_instance()
        assert cert.sa_alpha == Fraction(1, 4)
        assert cert.sa_beta == Fraction(1, 16)
        assert cert.k == max(1, round(Fraction(1, 16) * 16 / 4))
        assert cert.exact and cert.quarter_root == 4

    def test_x_empty_is_one(self):
        cert = sa_instance()
        assert cert.x_value([]) == 1

    def test_singleton_values(self):
        cert = sa_instance()
        n = cert.n
        assert cert.x_value([n]) == Fraction(1, 4) * Fraction(1, 4)
        assert cert.x_value([0]) == Fraction(1, 16) * Fraction(1, 16)

    def test_saturation_on_forced_neighbor(self):
        cert = sa_instance()
        u = next(u for u in range(cert.n) if cert.graph.adj_left[u])
        v = cert.n + cert.graph.adj_left[u][0]
        assert cert.x_value([u, v]) == cert.x_value([u])

    def test_decay_on_free_vertex(self):
        cert = sa_instance()
        u = 0
        free = next(cert.n + v for v in range(cert.s)
                    if v not in cert.graph.adj_left[u])
        assert cert.x_value([u, free]) <= cert.sa_alpha * cert.x_value([u])

    def test_lift_plain(self):
        cert = sa_instance()
        assert sa_lift_value(cert, [0], []) == cert.x_value([0])

    def test_lift_zero_on_neighbor(self):
        cert = sa_instance()
        u = next(u for u in range(cert.n) if cert.graph.adj_left[u])
        v = cert.n + cert.graph.adj_left[u][0]
        assert sa_lift_value(cert, [u], [v]) == 0

    def test_lift_range_disjoint(self):
        cert = sa_instance()
        u = 0
        non_nbr = next(cert.n + v for v in range(cert.s)
                       if v not in cert.graph.adj_left[u])
        val = sa_lift_value(cert, [u], [non_nbr])
        x_s = cert.x_value([u])
        assert x_s / 2 <= val <= x_s

    def test_size_guard(self):
        cert = sa_instance()
        with pytest.raises(SizeExceededError):
            sa_lift_value(cert, [0, 1], [cert.n])

    def test_property_samples_zero_violations(self):
        cert = sa_instance()
        rep = sample_property_checks(cert, 2000, seed=5)
        assert rep.passed, rep.failing()

    def test_mpmath_branch(self):
        g = gen_gap_instance(10, 3, 2.0, 1)
        cert = build_sa_certificate(g, rounds=1)
        assert not cert.exact
        assert abs(cert.x_value([]) - 1) < 1e-40
        val = sa_lift_value(cert, [0], [])
        assert val > 0

    def test_float_mode_leaves_global_precision(self):
        # n = 10 is not a fourth power, so values are 60-digit floats.
        dps = mpmath.mp.dps
        cert = build_sa_certificate(gen_gap_instance(10, 3, 2.0, 1), rounds=1)
        verify_sa_certificate(cert, samples=50, seed=1)
        sample_property_checks(cert, 100, seed=1)
        assert mpmath.mp.dps == dps
        with mpmath.workdps(60):
            fourth_root = mpmath.mpf(10) ** mpmath.mpf(-0.25)
        assert cert.scale(1) == fourth_root
        assert mpmath.mp.dps == dps

    def test_small_scale_cardinality_fails_as_expected(self):
        # beta*sqrt(n)/4 < 1 at n=256 while k is floored at 1, so the
        # cardinality constraints cannot hold; everything else does.
        cert = sa_instance()
        rep = verify_sa_certificate(cert, samples=200, seed=2)
        assert not rep.passed
        for row in rep.failing():
            assert row.constraint_id.startswith("cardinality")

    def test_fast_matches_naive_small(self):
        g = gen_gap_instance(16, 4, 2.0, 3)
        cert = build_sa_certificate(g, rounds=1)
        fast = verify_sa_certificate(cert, samples=100, seed=4)
        cert2 = build_sa_certificate(g, rounds=1)
        naive = VerifyReport(tolerance=0.0)
        _verify_naive(cert2, naive, samples=100, seed=4)

        def family_worst(rep, prefix):
            return max((r.slack for r in rep.checks
                        if r.constraint_id.startswith(prefix)), default=0.0)

        assert family_worst(fast, "cardinality") == pytest.approx(
            family_worst(naive, "cardinality"))
        assert (family_worst(fast, "edge") > 0) == (
            family_worst(naive, "edge") > 0)

    def test_rounds2_naive_small(self):
        g = gen_gap_instance(12, 4, 2.0, 9)
        cert = build_sa_certificate(g, rounds=2)
        rep = verify_sa_certificate(cert, samples=50, seed=1, budget=500)
        # Bounds and edge families hold; cardinality fails at toy scale.
        for row in rep.failing():
            assert row.constraint_id.startswith("cardinality")


# ---------------------------------------------------------------------------
# Gap calculator
# ---------------------------------------------------------------------------

class TestCalculator:
    def test_by_n_r16_exact(self):
        out = hardness_gap_calculator(16, Fraction(0), "by_n")
        assert out.gap_exponent == Fraction(9, 16)
        assert out.k_exponent == Fraction(1, 4)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_by_m_eps0(self, r):
        out = hardness_gap_calculator(r, Fraction(0), "by_m")
        assert out.gap_exponent == Fraction(1, 4) - Fraction(1, 2 * r)

    def test_by_m_float(self):
        out = hardness_gap_calculator(4, 0.1, "by_m")
        expected = 1 / 1.9 - 1 / 3.6 - 1 / 8
        assert out.gap_exponent == pytest.approx(expected, abs=1e-12)

    def test_by_m_limit_toward_quarter(self):
        out = hardness_gap_calculator(10 ** 6, 1e-9, "by_m")
        assert abs(float(out.gap_exponent) - 0.25) < 1e-5

    def test_invalid_regime(self):
        with pytest.raises(InvalidRegimeError):
            hardness_gap_calculator(3, 0.0, "by_k")
        with pytest.raises(InvalidRegimeError):
            hardness_gap_calculator(3, 0.5, "by_m")
        with pytest.raises(InvalidRegimeError):
            hardness_gap_calculator(1, 0.0, "by_n")
