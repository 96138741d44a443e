"""Certificate builders/verifiers, cover costs, instance properties, and the
gap-exponent calculator."""

from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest

from ssbve.certs import (biregularize, build_sa_certificate,
                         build_sdp_certificate, cap_degrees,
                         check_instance_properties, cover_cost,
                         hardness_gap_calculator, sa_lift_value,
                         sample_property_checks, verify_sa_certificate,
                         verify_sdp_certificate)
from ssbve.certs import sdp
from ssbve.certs.sa import _verify_naive, _View
from ssbve.certs.report import VerifyReport
from ssbve.errors import (InfeasibleError, InvalidRegimeError, NoCoverError,
                          ParameterRegimeError, SizeExceededError,
                          SsbveError, StalledError)
from ssbve.generators import gen_gap_instance
from ssbve.graph import BipartiteGraph
from ssbve.rng import stream

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


def reference_cap_degrees(g, d_l_max, d_r_max):
    """cap_degrees scanning every left vertex per shed edge, kept as its
    oracle."""
    adj = [set(nbrs) for nbrs in g.adj_left]
    deg_l = [len(a) for a in adj]
    deg_r = [0] * g.n_right
    for a in adj:
        for v in a:
            deg_r[v] += 1
    for v in range(g.n_right):
        while deg_r[v] > d_r_max:
            u = max((u for u in range(g.n) if v in adj[u]),
                    key=lambda u: (deg_l[u], u))
            adj[u].discard(v)
            deg_l[u] -= 1
            deg_r[v] -= 1
    for u in range(g.n):
        while deg_l[u] > d_l_max:
            v = max(adj[u], key=lambda v: (deg_r[v], v))
            adj[u].discard(v)
            deg_l[u] -= 1
            deg_r[v] -= 1
    return BipartiteGraph.from_edges(
        g.n, g.n_right, [(u, v) for u in range(g.n) for v in adj[u]])


def reference_biregularize(g, d_l_target, d_r_target):
    """biregularize rescanning both sides for every added edge, kept as its
    oracle."""
    if g.n * d_l_target != g.n_right * d_r_target:
        raise InfeasibleError(
            f"n*d_l = {g.n * d_l_target} != s*d_r = {g.n_right * d_r_target}")
    for u in range(g.n):
        if g.degree_left(u) > d_l_target:
            raise InfeasibleError(f"left degree {g.degree_left(u)} "
                                  f"exceeds target {d_l_target}")
    for v in range(g.n_right):
        if g.degree_right(v) > d_r_target:
            raise InfeasibleError(f"right degree {g.degree_right(v)} "
                                  f"exceeds target {d_r_target}")
    adj = [set(nbrs) for nbrs in g.adj_left]
    radj = [set(nbrs) for nbrs in g.adj_right]
    def_l = [d_l_target - len(a) for a in adj]
    def_r = [d_r_target - len(a) for a in radj]
    while True:
        deficient_left = [u for u in range(g.n) if def_l[u] > 0]
        if not deficient_left:
            break
        u = max(deficient_left, key=lambda x: (def_l[x], -x))
        candidates = [v for v in range(g.n_right)
                      if def_r[v] > 0 and v not in adj[u]]
        if candidates:
            v = max(candidates, key=lambda x: (def_r[x], -x))
            adj[u].add(v)
            radj[v].add(u)
            def_l[u] -= 1
            def_r[v] -= 1
            continue
        v = max((x for x in range(g.n_right) if def_r[x] > 0),
                key=lambda x: (def_r[x], -x))
        if not _reference_swap(g.n_right, adj, radj, u, v):
            raise StalledError(
                f"no augmenting swap for left {u} / right {v}")
        def_l[u] -= 1
        def_r[v] -= 1
    return BipartiteGraph.from_edges(
        g.n, g.n_right, [(u, v) for u in range(g.n) for v in adj[u]])


def _reference_swap(s, adj, radj, u, v):
    for v2 in range(s):
        if v2 == v or v2 in adj[u]:
            continue
        for u2 in sorted(radj[v2]):
            if u2 != u and v not in adj[u2]:
                adj[u2].discard(v2)
                radj[v2].discard(u2)
                adj[u].add(v2)
                radj[v2].add(u)
                adj[u2].add(v)
                radj[v].add(u2)
                return True
    return False


def _fit_outcome(fit, g, d_l, d_r):
    """Edge list and both adjacency views, or the error raised."""
    try:
        out = fit(g, d_l, d_r)
    except SsbveError as exc:
        return type(exc), str(exc)
    return out.edges(), out.adj_left, out.adj_right


def _fit_cases():
    """(graph, d_l target, d_r target): seeded gap instances from sparse to
    nearly complete, so the greedy stalls and swaps on the dense ones."""
    cases = []
    shapes = [(12, 6), (16, 8), (20, 10), (9, 6), (8, 8), (24, 8), (40, 10),
              (64, 16)]
    for i in range(40):
        n, s = shapes[i % len(shapes)]
        targets = [t for t in range(1, s + 1) if n * t % s == 0]
        d_l = targets[(5 * i + i // 8) % len(targets)]
        density = (0.5, 0.9, 1.3)[i % 3]
        g = gen_gap_instance(n, s, min(float(s), density * d_l), 2000 + i)
        cases.append((g, d_l, n * d_l // s))
    empty = BipartiteGraph.from_edges(1, 1, [])
    cases += [
        (empty, 2, 2),                                     # stalls
        (BipartiteGraph.from_edges(2, 1, [(0, 0)]), 2, 4),  # stalls
        (BipartiteGraph.from_edges(3, 2, []), 1, 1),        # bad sums
        (BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1)]), 1, 1),
        (BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 0)]), 1, 1),
    ]
    return cases


FIT_CASES = _fit_cases()


class TestDegreeFittingMatchesReference:
    """cap_degrees and biregularize against their rescanning oracles."""

    @pytest.mark.parametrize("case", range(len(FIT_CASES)))
    def test_cap_then_biregularize(self, case):
        g, d_l, d_r = FIT_CASES[case]
        capped = cap_degrees(g, d_l, d_r)
        assert capped == reference_cap_degrees(g, d_l, d_r)
        assert (_fit_outcome(biregularize, capped, d_l, d_r)
                == _fit_outcome(reference_biregularize, capped, d_l, d_r))
        # The uncapped graph, so the over-degree checks are compared too.
        assert (_fit_outcome(biregularize, g, d_l, d_r)
                == _fit_outcome(reference_biregularize, g, d_l, d_r))

    @pytest.mark.parametrize("seed", range(6))
    def test_cap_below_degrees(self, seed):
        g = gen_gap_instance(60, 12, 6.0, 2100 + seed)
        for d_l, d_r in [(3, 15), (2, 10), (5, 4), (1, 30)]:
            capped = cap_degrees(g, d_l, d_r)
            assert capped == reference_cap_degrees(g, d_l, d_r)
            capped.validate()

    def test_cases_reach_swap_stall_and_rejects(self, monkeypatch):
        swaps = []
        real_swap = sdp._augment_swap

        def counting_swap(*args):
            swaps.append(args)
            return real_swap(*args)

        monkeypatch.setattr(sdp, "_augment_swap", counting_swap)
        kinds = set()
        for g, d_l, d_r in FIT_CASES:
            before = len(swaps)
            out = _fit_outcome(biregularize, cap_degrees(g, d_l, d_r),
                               d_l, d_r)
            if isinstance(out[0], type):
                kinds.add(out[0])
            elif len(swaps) > before:
                kinds.add("swap")
        assert kinds == {"swap", StalledError, InfeasibleError}


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

    @pytest.mark.parametrize("which", range(6))
    def test_nu_matches_int64_product(self, which):
        if which < 2:
            spec = (VALID, SMALL)[which]
            g = circulant_biregular(spec["n"], spec["s"], spec["d_l"])
            k = spec["k"]
        else:
            g = biregularize(cap_degrees(
                gen_gap_instance(400, 160, 1.5, 2200 + which), 2, 5), 2, 5)
            k = 4
        cert = build_sdp_certificate(g, k)
        b = np.zeros((g.n, g.n_right), dtype=np.int64)
        for u, v in g.edges():
            b[u, v] = 1
        assert cert.nu.dtype == np.int64
        assert np.array_equal(cert.nu, b @ b.T)
        assert np.array_equal(cert.biadj, b)


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


def direct_x_value(cert, subset):
    """beta^|S_U| alpha^|S_V| n^(-cost/4) straight from the definition,
    with no table."""
    n = cert.n
    s_u = [w for w in subset if w < n]
    nbhd = {n + v for u in s_u for v in cert.graph.adj_left[u]}
    s_v = [w for w in subset if w >= n and w not in nbhd]
    base = cert.sa_beta ** len(s_u) * cert.sa_alpha ** len(s_v)
    cost = cover_cost(cert.graph, subset)
    if cert.exact:
        return base * Fraction(1, cert.quarter_root ** cost)
    mp = mpmath.MPContext()
    mp.dps = 60
    return (mp.mpf(base.numerator) / base.denominator
            * mp.mpf(n) ** (mp.mpf(-cost) / 4))


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

    @pytest.mark.parametrize("n, s, d_l, rounds, exact", [
        (256, 16, 8.0, 2, True), (100, 20, 10.0, 1, False)])
    def test_class_values_match_direct_formula(self, n, s, d_l, rounds,
                                               exact):
        g = gen_gap_instance(n, s, d_l, 31)
        cert = build_sa_certificate(g, rounds=rounds)
        assert cert.exact == exact
        rng = stream(31, n)
        subsets = [frozenset(rng.sample_range(n + s, rng.randrange(
            rounds + 2))) for _ in range(300)]
        subsets += [frozenset((u, u + 1)) for u in range(0, 40, 2)]
        for subset in subsets + subsets[::-1]:
            assert cert.x_value(subset) == direct_x_value(cert, subset)
        # Many subsets share a value class.
        assert len(cert.class_table) < len(cert.x_table) / 4

    def test_naive_edge_row_counts_violations(self):
        g = gen_gap_instance(16, 8, 5.0, 9)

        def naive_rows(cert):
            rep = VerifyReport(tolerance=cert.tolerance)
            _verify_naive(cert, rep, samples=20, seed=1)
            edges = [r for r in rep.checks if r.constraint_id.startswith(
                "edge-") and r.constraint_id != "edge-family-violations"]
            summary, = (r for r in rep.checks
                        if r.constraint_id == "edge-family-violations")
            return rep, edges, summary

        _, edges, summary = naive_rows(build_sa_certificate(g, rounds=1))
        assert not edges and summary.lhs == 0 and summary.slack == 0
        # x_v = 0 for one right vertex breaks x_v >= x_u on its edges.
        bad = build_sa_certificate(g, rounds=1)
        v = max(range(g.n_right), key=g.degree_right)
        bad.x_table[frozenset({g.n + v})] = Fraction(0)
        rep, edges, summary = naive_rows(bad)
        assert summary.lhs == len(edges) >= g.degree_right(v) > 0
        assert summary.slack == max(r.slack for r in edges) > bad.tolerance
        assert summary in rep.failing()

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
