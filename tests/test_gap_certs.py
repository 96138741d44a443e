"""Certificate builders/verifiers, cover costs, instance properties, and the
gap-exponent calculator."""

import dataclasses
import hashlib
import json
import math
import os
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

import mpmath
import numpy as np
import pytest

from ssbve.certs import (SdpCertificate, biregularize, build_sa_certificate,
                         build_sdp_certificate, cap_degrees,
                         check_instance_properties, cover_cost,
                         hardness_gap_calculator, sa_lift_value,
                         sample_property_checks, verify_sa_certificate,
                         verify_sdp_certificate)
from ssbve.certs import sa, sdp
from ssbve.certs.sa import SaCertificate, _verify_naive, _View
from ssbve.certs.report import VerifyReport
from ssbve.errors import (BudgetExceededError, InfeasibleError,
                          InvalidRegimeError, NoCoverError,
                          ParameterRegimeError, SizeExceededError,
                          SsbveError, StalledError)
from ssbve.generators import gen_gap_instance
from ssbve.graph import BipartiteGraph
from ssbve.rng import SplitMix64, stream

from conftest import random_bipartite, validate_rows


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
        validate_rows(out)

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


def _small_fit_cases(count=300):
    """(graph, d_l target, d_r target) on small random graphs of every
    density; left targets up to s + 1, which no graph can meet, so some
    runs stall."""
    cases = []
    for i in range(count):
        rng = stream(i, 0x4252)
        n, s = 2 + rng.randrange(11), 1 + rng.randrange(8)
        targets = [t for t in range(1, s + 2) if n * t % s == 0]
        d_l = targets[rng.randrange(len(targets))]
        g = random_bipartite(4000 + i, n, s, (0.2, 0.5, 0.8, 0.95)[i % 4])
        cases.append((g, d_l, n * d_l // s))
    return cases


SMALL_FIT_CASES = _small_fit_cases()


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
            validate_rows(capped)

    @pytest.mark.parametrize("bench_seed", [0, 300, 3103])
    def test_certify_gap_seeds(self, bench_seed):
        # The benchmark's certify SDP instance at these seeds, capped to the
        # CLI's targets for --dl 2 (3 left, 10 right).
        g = gen_gap_instance(1280, 384, 2.0, 10_000 + 1_000 * bench_seed)
        capped = cap_degrees(g, 3, 10)
        assert capped == reference_cap_degrees(g, 3, 10)
        got = _fit_outcome(biregularize, capped, 3, 10)
        assert not isinstance(got[0], type)
        assert got == _fit_outcome(reference_biregularize, capped, 3, 10)

    def test_small_random_cases(self, monkeypatch):
        swaps = []
        real_swap = sdp._augment_swap

        def counting_swap(*args):
            swaps.append(args)
            return real_swap(*args)

        monkeypatch.setattr(sdp, "_augment_swap", counting_swap)
        kinds = set()
        for g, d_l, d_r in SMALL_FIT_CASES:
            capped = cap_degrees(g, d_l, d_r)
            before = len(swaps)
            got = _fit_outcome(biregularize, capped, d_l, d_r)
            assert got == _fit_outcome(reference_biregularize, capped, d_l,
                                       d_r)
            kinds.add(got[0] if isinstance(got[0], type)
                      else "swap" if len(swaps) > before else "greedy")
            assert (_fit_outcome(biregularize, g, d_l, d_r)
                    == _fit_outcome(reference_biregularize, g, d_l, d_r))
        assert kinds == {"greedy", "swap", StalledError}

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
        b = dense_biadj(cert.graph)
        nu = (b @ b.T).astype(np.int64)

        def x_entry(w1, w2):
            if w1 > w2:
                w1, w2 = w2, w1
            if w2 < n:
                if w1 == w2:
                    return cert.a_diag
                return mu * int(nu[w1, w2]) + eta
            if w1 >= n:
                return tau if w1 == w2 else tau / 2
            return ce if (w1, w2) in adj else cn

        def decomposed(w1, w2):
            if w1 > w2:
                w1, w2 = w2, w1
            val = Fraction(0)
            # sum over right vertices v of X^(v)
            if w2 < n:
                val += mu * int(nu[w1, w2])
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

    def test_psd_m1_diagonal_values(self):
        g = circulant_biregular(VALID["n"], VALID["s"], VALID["d_l"])
        cert = build_sdp_certificate(g, VALID["k"])
        row = report_row(verify_sdp_certificate(cert), "psd-m1-diagonal")
        assert row.lhs == float(min(cert.a_off_coeff, cert.tau)) > 0
        assert row.rhs == 0.0 and row.slack == 0.0


def report_row(rep: VerifyReport, name: str):
    row, = [r for r in rep.checks if r.constraint_id == name]
    return row


class TestSdpSizesFromGraph:
    def test_sizes_cannot_drift_from_the_graph(self):
        # n and s are the graph's: a certificate whose s could be set to
        # 383 on this 384-right-vertex instance passed with objective
        # 43.0875 instead of 43.2.
        g = _certify_shape_graph(1)
        cert = build_sdp_certificate(g, 12)
        assert (cert.n, cert.s) == (g.n, g.n_right) == (1280, 384)
        for name in ("n", "s"):
            with pytest.raises(AttributeError):
                setattr(cert, name, 383)
        assert (cert.n, cert.s) == (1280, 384)
        rep = verify_sdp_certificate(cert)
        assert rep.passed
        assert cert.objective == Fraction(216, 5)


class TestReportRows:
    def test_violations_then_one_row_per_family_then_the_rest(self):
        rep = VerifyReport()
        for u in range(300):
            rep.add(f"card-u{u}", 0, 0, 0.5 if u in (7, 9) else 0.0)
        rep.add("edges-a", 1, 0, 2.0)
        rep.add("edges-b", 0, 0, 0.0)
        rep.add("bounds-level1", 0, 0, 0.0)
        d = rep.as_dict()
        ids = [row["id"] for row in d["checks"]]
        assert d["num_checks"] == 303 and len(ids) == 200
        # card-u7 already shows the card-u family, so card-u0 waits.
        assert ids[:5] == ["edges-a", "card-u7", "card-u9", "edges-b",
                           "bounds-level1"]
        assert ids[5:] == [f"card-u{u}" for u in range(197)
                           if u not in (7, 9)]


# Dense oracle for the eigenvalue guard: X built entry by entry from the
# certificate's classes, and its full spectrum from LAPACK.

def a_mat(cert) -> np.ndarray:
    b = dense_biadj(cert.graph)
    a = float(cert.a_off_coeff) * (b @ b.T) + float(cert.a_off_const)
    np.fill_diagonal(a, float(cert.a_diag))
    return a


def b_mat(cert) -> np.ndarray:
    b = np.full((cert.s, cert.s), float(cert.tau) / 2.0)
    np.fill_diagonal(b, float(cert.tau))
    return b


def c_mat(cert) -> np.ndarray:
    ce, cn = float(cert.c_edge), float(cert.c_nonedge)
    return cn + (ce - cn) * dense_biadj(cert.graph)


def x_dense(cert) -> np.ndarray:
    c = c_mat(cert)
    return np.block([[a_mat(cert), c], [c.T, b_mat(cert)]])


def dense_extremes(cert) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh(x_dense(cert))
    return float(eigs[0]), float(max(abs(eigs[0]), abs(eigs[-1])))


def fitted_biregular(n, s, d_l, d_r, seed) -> BipartiteGraph:
    """Seeded biregular graph: a sparse random graph, capped and fitted."""
    g = random_bipartite(seed, n, s, p=min(d_l / s, d_r / n) / 2)
    return biregularize(cap_degrees(g, d_l, d_r), d_l, d_r)


def disjoint_union(*graphs: BipartiteGraph) -> BipartiteGraph:
    edges, n, s = [], 0, 0
    for g in graphs:
        edges += [(u + n, v + s) for u, v in g.edges()]
        n, s = n + g.n, s + g.n_right
    return BipartiteGraph.from_edges(n, s, edges)


def dense_biadj(g: BipartiteGraph) -> np.ndarray:
    b = np.zeros((g.n, g.n_right))
    for u, v in g.edges():
        b[u, v] = 1.0
    return b


def direct_certificate(g: BipartiteGraph, k: int,
                       tau_scale: Fraction = Fraction(1)) -> SdpCertificate:
    """SdpCertificate with the builder's alpha and tau (tau scaled), built
    without the builder's regime guard."""
    n, s = g.n, g.n_right
    d_l, d_r = g.degree_left(0), g.degree_right(0)
    alpha = Fraction(1, 2) * min(Fraction(d_l * n, k * s), Fraction(1))
    tau = tau_scale * 2 * Fraction(d_l * d_l) / (alpha * s)
    return SdpCertificate(k=k, d_l=d_l, d_r=d_r, sdp_alpha=alpha, tau=tau,
                          graph=g)


def _certify_shape_graph(seed: int) -> BipartiteGraph:
    capped = cap_degrees(gen_gap_instance(1280, 384, 2.0, seed), 3, 10)
    return biregularize(capped, 3, 10)


def _blocks_k32(count: int) -> BipartiteGraph:
    k32 = BipartiteGraph.from_edges(3, 2, [(u, v) for u in range(3)
                                           for v in range(2)])
    return disjoint_union(*[k32] * count)


SHRUNK = Fraction(1, 50)  # tau small enough that X is not PSD
GUARD_CASES = {
    "certify-987000": (lambda: _certify_shape_graph(987000), 4, 1),
    **{f"n>s-120x36-{seed}": (
        lambda seed=seed: fitted_biregular(120, 36, 3, 10, seed), 4, 1)
       for seed in range(5)},
    **{f"n>s-90x30-{seed}": (
        lambda seed=seed: fitted_biregular(90, 30, 2, 6, seed), 3, 1)
       for seed in (5, 6)},
    **{f"n<s-30x60-{seed}": (
        lambda seed=seed: fitted_biregular(30, 60, 6, 3, seed), 4, 1)
       for seed in range(4)},
    "n<s-24x40": (lambda: fitted_biregular(24, 40, 5, 3, 4), 3, 1),
    "n=s-40x40": (lambda: fitted_biregular(40, 40, 3, 3, 0), 4, 1),
    **{f"disconnected-n>s-{seed}": (
        lambda seed=seed: disjoint_union(fitted_biregular(60, 20, 2, 6, seed),
                                         fitted_biregular(60, 20, 2, 6,
                                                          seed + 10)), 4, 1)
       for seed in (0, 1)},
    "disconnected-n<s": (
        lambda: disjoint_union(fitted_biregular(20, 40, 4, 2, 2),
                               fitted_biregular(20, 40, 4, 2, 3)), 4, 1),
    "rank-deficient-circulant-12x6": (
        lambda: circulant_biregular(12, 6, 2), 2, 1),
    "rank-deficient-circulant-60x20": (
        lambda: circulant_biregular(60, 20, 4), 4, 1),
    "rank-deficient-k32-blocks": (lambda: _blocks_k32(4), 2, 1),
    "not-psd-n>s": (lambda: fitted_biregular(120, 36, 3, 10, 0), 4, SHRUNK),
    "not-psd-n<s": (lambda: fitted_biregular(30, 60, 6, 3, 0), 4, SHRUNK),
    "not-psd-rank-deficient": (
        lambda: circulant_biregular(60, 20, 4), 4, SHRUNK),
}


def reference_eigen_extremes(cert) -> tuple[float, float]:
    """The guard's formula with its Gram matrix taken as the float64 product
    of the graph's 0/1 biadjacency M (M^T M when s <= n, else M M^T)."""
    b = dense_biadj(cert.graph)
    n, s = b.shape
    mu, eta, zeta, ce, cn, half_tau = (float(x) for x in (
        cert.a_off_coeff, cert.a_off_const, cert.zeta, cert.c_edge,
        cert.c_nonedge, cert.tau / 2))
    sig2 = np.clip(np.linalg.eigvalsh(b.T @ b if s <= n else b @ b.T)[:-1],
                   0.0, None)
    top = cert.d_l * cert.d_r
    a = np.append(mu * sig2 + zeta, mu * top + eta * n + zeta)
    off = np.append((ce - cn) * np.sqrt(sig2),
                    cn * np.sqrt(n * s) + (ce - cn) * np.sqrt(top))
    c = np.append(np.full(sig2.size, half_tau), half_tau * (s + 1))
    mid, rad = (a + c) / 2, np.hypot((a - c) / 2, off)
    rest = [zeta] * (n > s) + [half_tau] * (s > n)
    eigs = np.concatenate([mid - rad, mid + rad, rest])
    return float(eigs.min()), float(np.abs(eigs).max())


class TestEigenGuardMatchesDense:
    """The structured guard (one eigvalsh of the smaller Gram matrix of B)
    against the dense eigvalsh of the (n+s)^2 matrix X."""

    @pytest.mark.parametrize("case", [*GUARD_CASES, "certify-1",
                                      "certify-2"])
    def test_gram_from_lists_is_bit_identical(self, case):
        """The Gram matrix counted from the adjacency lists is the product
        it replaced, so eigvalsh gets the same input and the guard's
        extremes are equal, not just close."""
        if case in GUARD_CASES:
            make_graph, k, tau_scale = GUARD_CASES[case]
            cert = direct_certificate(make_graph(), k, tau_scale)
        else:
            cert = build_sdp_certificate(
                _certify_shape_graph(int(case.split("-")[1])), 4)
        assert sdp._eigen_extremes(cert) == reference_eigen_extremes(cert)

    @pytest.mark.parametrize("case", GUARD_CASES)
    def test_extremes_match_dense(self, case):
        make_graph, k, tau_scale = GUARD_CASES[case]
        cert = direct_certificate(make_graph(), k, tau_scale)
        min_eig, norm = sdp._eigen_extremes(cert)
        dense_min, dense_norm = dense_extremes(cert)
        assert abs(min_eig - dense_min) <= 1e-12 * dense_norm
        assert abs(norm - dense_norm) <= 1e-12 * dense_norm
        row = report_row(verify_sdp_certificate(cert), "eigen-min")
        assert row.lhs == min_eig
        if tau_scale == SHRUNK:
            # Built to fail: both guards must flag it.
            assert dense_min < -1e-9 * dense_norm
            assert row.slack > 0

    def test_cases_cover_the_shapes(self):
        shapes = {name: make_graph() for name, (make_graph, _, _)
                  in GUARD_CASES.items()}
        assert len(shapes) >= 20
        assert any(g.n < g.n_right for g in shapes.values())
        assert any(g.n > g.n_right for g in shapes.values())
        for name, g in shapes.items():
            b = dense_biadj(g)
            gram = np.linalg.eigvalsh(b.T @ b)
            top = g.degree_left(0) * g.degree_right(0)
            assert len({g.degree_left(u) for u in range(g.n)}) == 1, name
            assert len({g.degree_right(v) for v in range(g.n_right)}) == 1
            if name.startswith("disconnected"):
                assert np.isclose(gram[-2], top)
            if name.startswith("rank-deficient"):
                assert np.linalg.matrix_rank(b) < min(g.n, g.n_right)


class TestCorruptedSdpCertificate:
    """Each data-dependent row catches its own fault, as a failing report
    and never an exception."""

    @staticmethod
    def cert() -> SdpCertificate:
        return build_sdp_certificate(_certify_shape_graph(1), 4)

    def test_valid_certificate_rows_zero(self):
        cert = self.cert()
        rep = verify_sdp_certificate(cert)
        assert rep.passed
        assert rep.as_dict()["num_checks"] == len(rep.checks) == 23
        row = report_row(rep, "decomp-u-diagonal")
        assert row.lhs == row.rhs == float(cert.a_diag)
        for name in ("nu-diagonal", "rowsum-u-counts", "rowsum-v-degrees"):
            row = report_row(rep, name)
            assert (row.lhs, row.rhs, row.slack) == (0.0, 0.0, 0.0)

    def test_decomp_u_diagonal_values(self):
        """A zeta that breaks mu*d_l + eta + zeta = a_diag shows both sides."""
        cert = self.cert()
        cert.zeta += Fraction(1, 7)
        rep = verify_sdp_certificate(cert)
        row = report_row(rep, "decomp-u-diagonal")
        assert row.lhs == float(cert.a_off_coeff * cert.d_l
                                + cert.a_off_const + cert.zeta)
        assert row.rhs == float(cert.a_diag) and row.slack == 1.0

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_moved_edge_fails_its_rows(self, side):
        """cert.graph swapped for a copy with the edge (0, v) moved to another
        left vertex, or to another right vertex: the report fails without
        raising, and the degree rows count what the dense nu = M M^T of the
        new graph gives."""
        cert = self.cert()
        g = cert.graph
        v = g.adj_left[0][0]
        if side == "left":
            moved = (next(u for u in range(1, g.n)
                          if v not in g.adj_left[u]), v)
        else:
            moved = (0, next(w for w in range(g.n_right)
                             if w not in g.adj_left[0]))
        cert.graph = BipartiteGraph.from_edges(
            g.n, g.n_right, [e for e in g.edges() if e != (0, v)] + [moved])
        rep = verify_sdp_certificate(cert)
        assert not rep.passed
        b = dense_biadj(cert.graph)
        nu = (b @ b.T).astype(np.int64)
        want = {
            "nu-diagonal": np.count_nonzero(nu.diagonal() != cert.d_l),
            "rowsum-u-counts": np.count_nonzero(
                nu.sum(axis=1) - nu.diagonal() != cert.d_l * (cert.d_r - 1)),
            "rowsum-v-degrees": np.count_nonzero(b.sum(axis=0) != cert.d_r),
        }
        assert want["nu-diagonal" if side == "left"
                    else "rowsum-v-degrees"] == 2
        assert want["rowsum-u-counts"] > 0
        for name, count in want.items():
            row = report_row(rep, name)
            assert row.lhs == count and (row.slack > 0) == (count > 0)

    @pytest.mark.parametrize("name", ["k", "tau", "sdp_alpha"])
    def test_constant_edited_to_zero_fails(self, name):
        """k, tau or alpha set to 0 on a built certificate fails rows instead
        of dividing by zero: the identities divided by k read inf, a zero
        objective gives gap_ratio inf, as in the SA report, and an alpha
        that the entry classes were not built from fails alpha-identity."""
        cert = self.cert()
        setattr(cert, name, 0)
        rep = verify_sdp_certificate(cert)
        assert not rep.passed
        failing = {r.constraint_id for r in rep.failing()}
        if name == "k":
            for row_id in ("rowsum-u-identity", "rowsum-v-identity",
                           "v0-norm"):
                assert row_id in failing
                assert report_row(rep, row_id).lhs == math.inf
            assert report_row(rep, "alpha-identity").rhs == math.inf
            assert "alpha-identity" in failing
            assert rep.extra["gap_ratio"] == 0.0
        elif name == "sdp_alpha":
            assert failing == {"alpha-identity"}
            row = report_row(rep, "alpha-identity")
            assert (row.lhs, row.rhs) == (0.0, 0.5)
            assert rep.extra["params"]["alpha"] == 0.0
        else:
            assert {"tau-identity", "psd-m1-diagonal",
                    "objective-identity"} <= failing
            assert rep.extra["objective"] == 0.0
            assert rep.extra["gap_ratio"] == math.inf

    @pytest.mark.parametrize("case", ["guard", "tier", "empty"])
    def test_nu_gram_count_matches_product(self, case):
        """The co-degree counts from the right-vertex lists (nu, n x n) and
        from the left-vertex lists (the guard's Gram, s x s) against the
        float64 products of the 0/1 biadjacency, on biregular graphs with
        n < s and n > s, on graphs with ragged rows and isolated vertices on
        both sides, and on edgeless ones."""
        if case == "guard":
            graphs = [make() for make, _, _ in GUARD_CASES.values()]
            assert {g.n < g.n_right for g in graphs} == {True, False}
        elif case == "tier":
            graphs = TIER_GRAPHS
        else:
            graphs = [BipartiteGraph.from_edges(n, s, [])
                      for n, s in ((1, 1), (3, 2), (2, 5))]
        for g in graphs:
            b = dense_biadj(g)
            for got, want in ((sdp._co_degrees(g.adj_right, g.n), b @ b.T),
                              (sdp._co_degrees(g.adj_left, g.n_right),
                               b.T @ b)):
                assert got.dtype == np.int64 and got.shape == want.shape
                assert np.array_equal(got, want.astype(np.int64))


class TestSdpCertificateIsItsGraph:
    def test_no_array_fields(self):
        cert = build_sdp_certificate(_certify_shape_graph(1), 4)
        assert not [f.name for f in dataclasses.fields(cert)
                    if isinstance(getattr(cert, f.name), np.ndarray)]

    def test_build_and_verify_peak_under_one_nu(self):
        """Build plus verify on the certify-shaped graph allocates less
        than one n x n int64 array at its peak (a stored nu alone was
        that large)."""
        g = _certify_shape_graph(1)
        tracemalloc.start()
        try:
            rep = verify_sdp_certificate(build_sdp_certificate(g, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert peak < g.n * g.n * 8


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
        for _ in range(40):
            big = frozenset(rng.sample_range(10, 1 + rng.randrange(3)))
            small = frozenset(w for w in big if rng.bernoulli(0.6))
            try:
                c_small = cover_cost(g, small)
                c_big = cover_cost(g, big)
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

    @pytest.mark.parametrize("graph_seed, seed", [
        (17003, 3), (17005, 5), (17007, 7)])
    def test_rounds2_property_samples_compare_exactly(self, graph_seed, seed):
        # Exact mode must compare Fractions against an exact zero
        # tolerance: adding the float 0.0 turned alpha*x_S and x_S/2 into
        # rounded floats, and true decay and lift-range samples failed.
        g = gen_gap_instance(256, 32, 8.0, graph_seed)
        cert = build_sa_certificate(g, rounds=2)
        assert cert.exact
        rep = sample_property_checks(cert, 2000, seed=seed)
        assert rep.passed, rep.failing()
        assert rep.extra["samples_decay"] > 300
        assert rep.extra["samples_lift-range"] > 300

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
        assert len(cert.class_table) < len(set(subsets)) / 4

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
        # x_v = 0 for the right vertices breaks x_v >= x_u on every edge.
        bad = build_sa_certificate(g, rounds=1)
        bad.class_table[(0, 1, 1)] = Fraction(0)
        rep, edges, summary = naive_rows(bad)
        assert summary.lhs == len(edges) >= len(list(g.edges())) > 0
        assert summary.slack == max(r.slack for r in edges) > bad.tolerance
        assert summary in rep.failing()

    def test_rounds2_naive_small(self):
        g = gen_gap_instance(12, 4, 2.0, 9)
        cert = build_sa_certificate(g, rounds=2)
        rep = verify_sa_certificate(cert, samples=50, seed=1)
        # Bounds and edge families hold; cardinality fails at toy scale.
        for row in rep.failing():
            assert row.constraint_id.startswith("cardinality")

    def test_rounds2_exhaustive_budget(self):
        # n + s = 200 gives 1 + 200 + C(200, 2) = 20101 base sets, the
        # smallest count above the budget; n + s = 199 gives 19901.
        def base_sets(m):
            return sum(math.comb(m, j) for j in range(3))
        assert base_sets(199) <= sa.EXHAUSTIVE_BUDGET < base_sets(200)
        cert = build_sa_certificate(gen_gap_instance(184, 16, 4.0, 1), 2)
        with pytest.raises(BudgetExceededError,
                           match=f"20101 exceeds {sa.EXHAUSTIVE_BUDGET}$"):
            verify_sa_certificate(cert)


# ---------------------------------------------------------------------------
# SA cover classes and lift memo against the code they replaced
# ---------------------------------------------------------------------------

def reference_key(cert, subset):
    """(|S_U|, |S_V|, cost) from the neighbourhood split and the general
    cover search, with no structural tiers; the oracle of
    SaCertificate.key."""
    n = cert.n
    s_u = [w for w in subset if w < n]
    nbhd = set()
    for u in s_u:
        nbhd.update(cert.view.adj[u])
    s_v = [w for w in subset if w >= n and w not in nbhd]
    return len(s_u), len(s_v), sa._cover_cost(cert.view, frozenset(subset))


def reference_lift(cert, s_set, t_set):
    """Inclusion-exclusion over x values with no memo; the oracle of
    sa_lift_value."""
    s_set = frozenset(s_set)
    t_set = tuple(sorted(set(t_set)))
    if len(s_set) + len(t_set) > cert.rounds + 1:
        raise SizeExceededError("too big")
    total = 0
    for r in range(len(t_set) + 1):
        for j in combinations(t_set, r):
            term = cert.x_value(s_set | frozenset(j))
            total = total + term if r % 2 == 0 else total - term
    return total


def reference_top_level(cert, rep, samples, seed):
    """The top-level bound sampler computing every lift in full; the
    oracle of _sample_top_level_bounds."""
    rng = stream(seed, 0x544F)
    total_v = cert.n + cert.s
    level = cert.rounds + 1
    violations = 0
    worst = 0.0
    for _ in range(samples):
        members = rng.sample_range(total_v, min(level, total_v))
        split = [rng.bernoulli(0.5) for _ in members]
        s_set = frozenset(m for m, inc in zip(members, split) if inc)
        t_set = frozenset(m for m, inc in zip(members, split) if not inc)
        val = reference_lift(cert, s_set, t_set)
        if 0 <= val <= 1:
            continue
        bad = max(0.0, float(-val), float(val) - 1.0)
        if bad > cert.tolerance:
            violations += 1
        worst = max(worst, bad)
    rep.add("bounds-top-level-sampled", violations, 0, worst)
    rep.extra["top_level_samples"] = samples


def reference_cardinality_rows(cert):
    """Rows cardinality-u* and -tu* summed vertex by vertex, in the order
    the one-round verifier sums them, from the class values of the
    reference keys."""
    n, k = cert.n, cert.k
    one = Fraction(1) if cert.exact else sa._mp().mpf(1)
    xu = [cert.x_value([u]) for u in range(n)]
    sum_xu = sum(xu)
    x_uu_near = cert.class_value((2, 0, 3))
    biadj = np.zeros((n, cert.s), dtype=np.int32)
    for u, v in cert.graph.edges():
        biadj[u, v] = 1
    common = biadj @ biadj.T  # common-neighbour counts
    np.fill_diagonal(common, -1)
    rows, rows_tu = [], []
    for w in range(n):
        total = xu[w] + int((common[w] > 0).sum()) * x_uu_near
        for u2 in np.flatnonzero(common[w] == 0).tolist():
            total += cert.class_value(reference_key(cert, frozenset((w, u2))))
        rows.append((f"cardinality-u{w}", float(total), float(k * xu[w]),
                     max(0.0, float(k * xu[w] - total))))
        lhs, rhs = sum_xu - total, k * (one - xu[w])
        rows_tu.append((f"cardinality-tu{w}", float(lhs), float(rhs),
                        max(0.0, float(rhs - lhs))))
    return rows + rows_tu


def reference_right_cardinality_rows(cert):
    """Rows cardinality-v* and -tv* vertex by vertex: the pair sum of right
    vertex v is deg(v) adjacent uv pairs and n - deg(v) others."""
    n, k = cert.n, cert.k
    one = Fraction(1) if cert.exact else sa._mp().mpf(1)
    x_adj, x_non = cert.class_value((1, 0, 2)), cert.class_value((1, 1, 3))
    sum_xu = sum(cert.x_value([u]) for u in range(n))
    rows, rows_tv = [], []
    for v in range(cert.s):
        deg = cert.graph.degree_right(v)
        x_v = cert.x_value([n + v])
        total = deg * x_adj + (n - deg) * x_non
        rows.append((f"cardinality-v{v}", float(total), float(k * x_v),
                     max(0.0, float(k * x_v - total))))
        lhs, rhs = sum_xu - total, k * (one - x_v)
        rows_tv.append((f"cardinality-tv{v}", float(lhs), float(rhs),
                        max(0.0, float(rhs - lhs))))
    return rows + rows_tv


def check_cardinality_class_rows(rep, cert):
    """The one-round cardinality class rows against the per-vertex
    references: each row is its first vertex's reference row exactly, and
    rows weighted by their counts make the references' multiset of
    (family, lhs, rhs, slack)."""
    ref = {cid: tuple(row) for cid, *row in reference_cardinality_rows(cert)
           + reference_right_cardinality_rows(cert)}
    got = Counter()
    for r in rep.checks:
        family = re.sub(r"\d+$", "", r.constraint_id)
        if family in ("cardinality-u", "cardinality-tu", "cardinality-v",
                      "cardinality-tv"):
            assert (r.lhs, r.rhs, r.slack) == ref[r.constraint_id], r
            got[family, r.lhs, r.rhs, r.slack] += r.count
        else:
            assert r.count == 1, r
    assert got == Counter((re.sub(r"\d+$", "", cid), *row)
                          for cid, row in ref.items())
    return {r.constraint_id: r for r in rep.checks}


def brute_top_level(cert):
    """(violations, worst, classes) of the top-level value bounds at
    rounds=1, over every pair {a, b} in its four splits with lifts from
    reference_lift; classes counts the distinct (x_a, x_b, key({a, b}))
    triples, a < b."""
    violations = 0
    worst = 0.0
    triples = set()
    for a, b in combinations(range(cert.n + cert.s), 2):
        triples.add((cert.x_value([a]), cert.x_value([b]),
                     reference_key(cert, frozenset((a, b)))))
        for s_set in ((a, b), (a,), (b,), ()):
            val = reference_lift(cert, s_set, {a, b}.difference(s_set))
            if 0 <= val <= 1:
                continue
            bad = max(0.0, float(-val), float(val) - 1.0)
            violations += bad > cert.tolerance
            worst = max(worst, bad)
    return violations, worst, len(triples)


# Graphs up to this many vertices get the brute-force top-level oracle in
# reference_report (gap-256 takes about 3 s); the certify instance (8.6M
# pairs) keeps the class check, and the sampler coverage test covers it.
BRUTE_TOP_LEVEL_MAX = 300
CHECK_TOP_LEVEL_CLASSES = sa._check_top_level_classes


def reference_top_level_classes(cert, rep, top):
    """The one-round top-level row from brute_top_level, ignoring the
    classes the verifier tallied."""
    if cert.n + cert.s > BRUTE_TOP_LEVEL_MAX:
        return CHECK_TOP_LEVEL_CLASSES(cert, rep, top)
    violations, worst, classes = brute_top_level(cert)
    rep.add("bounds-top-level-classes", violations, 0, worst)
    rep.extra["top_level_classes"] = classes


def reference_report(monkeypatch, cert, **kwargs):
    """verify_sa_certificate with the class tiers, the lift memo and the
    top-level checks (every pair at rounds=1, the sampler at rounds >= 2)
    replaced by their oracles."""
    with monkeypatch.context() as m:
        m.setattr(SaCertificate, "key", reference_key)
        m.setattr(sa, "sa_lift_value", reference_lift)
        m.setattr(sa, "_sample_top_level_bounds", reference_top_level)
        m.setattr(sa, "_check_top_level_classes", reference_top_level_classes)
        return verify_sa_certificate(cert, **kwargs)


def _cover_outcome(fn, *args):
    """fn(*args), or the NoCoverError it raised."""
    try:
        return fn(*args)
    except NoCoverError as exc:
        return NoCoverError, str(exc)


def _tier_graphs():
    """Small graphs with isolated vertices on both sides and left vertices
    in different components, plus seeded random ones."""
    graphs = [
        BipartiteGraph.from_edges(5, 4, [(0, 0), (1, 0), (1, 1), (2, 1)]),
        BipartiteGraph.from_edges(4, 3, [(0, 0), (1, 0), (2, 2)]),
        BipartiteGraph.from_edges(3, 3, []),
        BipartiteGraph.from_edges(6, 3, [(0, 0), (1, 0), (2, 1), (3, 1),
                                         (3, 2), (4, 2)]),
    ]
    for seed in range(20):
        n, s = 3 + seed % 5, 2 + seed % 4
        graphs.append(random_bipartite(900 + seed, n, s,
                                       (0.15, 0.3, 0.5, 0.8)[seed % 4]))
    return graphs


TIER_GRAPHS = _tier_graphs()


def chain(n):
    """Left i joined to right i and i+1: far-apart left pairs of every
    cost, so vertices agree on (x_w, c_near, far count) but not on their
    far costs."""
    return BipartiteGraph.from_edges(
        n, n + 1, [(u, u + d) for u in range(n) for d in (0, 1)])


ONE_ROUND_GRAPHS = {
    "gap-256": lambda: gen_gap_instance(256, 16, 8.0, 7),
    # The benchmark's certify instance at seed 300.
    "certify-4096": lambda: gen_gap_instance(4096, 64, 32.0, 310_000),
    "gap-100": lambda: gen_gap_instance(100, 20, 10.0, 31),
    "gap-300": lambda: gen_gap_instance(300, 30, 10.0, 5),
    "chain-16": lambda: chain(16),
    "chain-10": lambda: chain(10),
}


with open(os.path.join(os.path.dirname(__file__), "data",
                       "sa_one_round_float.json")) as _fh:
    FLOAT_GOLDEN = json.load(_fh)


def reference_edge_scan(cert):
    """{family: (count above tolerance, count of any shortfall, worst
    shortfall)} over every level-<=1 edge constraint x_{S+v,T} >= x_{S+u,T},
    (u, v) an edge, by context family: "base" (S = T = empty), "sv"/"su"
    (S = {w}, w right/left) and "tv"/"tu" (T = {w}).  Each context's lifts
    come from cert.x_value by inclusion-exclusion (so values set by hand
    count); its instances are grouped by the pair of lift values they
    compare, and each distinct pair is subtracted once."""
    n = cert.n
    edges = list(cert.graph.edges())
    ends = sorted({u for u, _ in edges} | {n + v for _, v in edges})
    at = {z: i for i, z in enumerate(ends)}
    eu = np.array([at[u] for u, _ in edges], dtype=np.int64)
    ev = np.array([at[n + v] for _, v in edges], dtype=np.int64)
    x = [cert.x_value([z]) for z in ends]  # lifts at each edge end z
    contexts = [("base", x)]
    for w in range(n + cert.s):
        x_w = [cert.x_value([w, z]) for z in ends]
        side = "v" if w >= n else "u"
        contexts += [("s" + side, x_w),
                     ("t" + side, [a - b for a, b in zip(x, x_w)])]
    out = dict.fromkeys(("base", "sv", "su", "tv", "tu"), (0, 0, 0.0))
    for family, lifts in contexts:
        above, anything, worst = out[family]
        ids: dict = {}
        of = np.array([ids.setdefault(val, len(ids)) for val in lifts],
                      dtype=np.int64)
        values = list(ids)
        keys, counts = np.unique(of[eu] * len(values) + of[ev],
                                 return_counts=True)
        for key, count in zip(keys.tolist(), counts.tolist()):
            short = values[key // len(values)] - values[key % len(values)]
            if short > 0:
                anything += count
                above += count * (short > cert.tolerance)
                worst = max(worst, float(short))
        out[family] = above, anything, worst
    return out


class TestSaClassesMatchReference:
    @pytest.mark.parametrize("which", range(len(TIER_GRAPHS)))
    def test_key_on_every_small_subset(self, which):
        g = TIER_GRAPHS[which]
        cert = build_sa_certificate(g, rounds=2)
        total = g.n + g.n_right
        for size in (0, 1, 2, 3):
            for subset in combinations(range(total), size):
                subset = frozenset(subset)
                assert (_cover_outcome(SaCertificate.key, cert, subset)
                        == _cover_outcome(reference_key, cert, subset)), subset

    def test_fixtures_reach_every_tier_and_no_cover(self):
        seen = set()
        for g in TIER_GRAPHS:
            cert = build_sa_certificate(g, rounds=1)
            for pair in combinations(range(g.n + g.n_right), 2):
                got = _cover_outcome(SaCertificate.key, cert, frozenset(pair))
                seen.add(got[0] if got[0] is NoCoverError else got)
        assert {(1, 0, 2), (1, 1, 3), (0, 2, 2), (2, 0, 3),
                NoCoverError} <= seen
        assert any(k[0] == 2 and k[2] > 3 for k in seen if k is not
                   NoCoverError)  # a far-apart left pair with a cover

    @pytest.mark.parametrize("which", range(len(TIER_GRAPHS)))
    def test_forced_on_every_small_subset(self, which):
        # N(S_U) against a per-vertex loop over the graph's left rows.
        g = TIER_GRAPHS[which]
        view = _View(g)
        for size in (0, 1, 2, 3):
            for subset in combinations(range(g.n + g.n_right), size):
                want = set()
                for u in subset:
                    if u < g.n:
                        want.update(g.n + v for v in g.adj_left[u])
                assert sa._forced(view, frozenset(subset)) == want, subset

    def test_singleton_keys_are_structural(self):
        # Against the general cover search on every vertex, isolated ones
        # included; the structural tier runs no search.
        graphs = TIER_GRAPHS + [
            random_bipartite(950 + seed, 6 + seed, 5, 0.1)
            for seed in range(6)]
        isolated = set()
        for g in graphs:
            cert = build_sa_certificate(g, rounds=1)
            for w in range(g.n + g.n_right):
                isolated.add((w < g.n, not cert.view.adj[w]))
                assert cert.key(frozenset({w})) == (
                    int(w < g.n), int(w >= g.n),
                    sa._cover_cost(cert.view, frozenset({w})))
            assert not cert.cost_table
        assert isolated == {(True, True), (True, False), (False, True),
                            (False, False)}

    @pytest.mark.parametrize("name", sorted(FLOAT_GOLDEN))
    def test_float_one_round_report_golden(self, name):
        """One-round reports in 60-digit mode against those recorded before
        singleton keys became structural and the level-1 sums went by value
        class, less the rows edges-su-self, edge-family-mode,
        edge-family-explicit, singleton-uniform, edges-tv-self and
        edges-sv-guess-at-v, dropped since, and with edges-su-far added
        (tests/data/sa_one_round_float.json holds each report's instance
        count, failing-instance count, worst slack and extra, all from the
        per-vertex rows, and the SHA-256 of the compact JSON class rows
        [id, lhs, rhs, slack, count]).  The singleton-override entries were
        recorded when that corruption became an edit of the singleton
        classes, from reports equal to reference_report's."""
        graph, corruption = name.split("/")
        g = ONE_ROUND_GRAPHS[graph]()
        cert = build_sa_certificate(g, rounds=1)
        assert not cert.exact
        assert CORRUPTIONS[corruption](cert)
        rep = verify_sa_certificate(cert, samples=2000, seed=g.n)
        rows = [[r.constraint_id, r.lhs, r.rhs, r.slack, r.count]
                for r in rep.checks]
        want = FLOAT_GOLDEN[name]
        assert rep.as_dict()["num_checks"] == want["checks"]
        assert sum(r.count for r in rep.failing()) == want["failing"]
        assert rep.max_violation == want["max_violation"]
        assert json.loads(json.dumps(rep.extra)) == want["extra"]
        blob = json.dumps(rows, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == want["rows_sha256"]

    @pytest.mark.parametrize("which", range(0, len(TIER_GRAPHS), 3))
    @pytest.mark.parametrize("rounds", [1, 2])
    def test_lifts(self, which, rounds):
        g = TIER_GRAPHS[which]
        cert = build_sa_certificate(g, rounds=rounds)
        ref = build_sa_certificate(g, rounds=rounds)
        rng = stream(which, rounds)
        for _ in range(300):
            members = rng.sample_range(g.n + g.n_right,
                                       rng.randrange(rounds + 2))
            s_set = [m for m in members if rng.bernoulli(0.5)]
            t_set = [m for m in members if m not in s_set]
            assert (_cover_outcome(sa_lift_value, cert, s_set, t_set)
                    == _cover_outcome(reference_lift, ref, s_set, t_set)), (
                        s_set, t_set)
        assert cert.lift_table

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    @pytest.mark.parametrize("n, s, rounds, override", [
        (16, 4, 1, [3]), (16, 4, 1, [19]), (10, 3, 2, [2, 11]),
        (10, 3, 2, [4])])
    def test_lifts_with_overridden_values(self, order, n, s, rounds,
                                          override):
        # The class of one subset set apart from its formula value: every
        # lift on every (S, T) of the top level must still be the oracle's
        # sum of class values, whichever lift filled the class memo first.
        g = gen_gap_instance(n, s, 2.0, 1)
        cert = build_sa_certificate(g, rounds=rounds)
        ref = build_sa_certificate(g, rounds=rounds)
        for c in (cert, ref):
            c.class_table[c.key(frozenset(override))] = c.x_value(override) / 2
        calls = [(frozenset(j), frozenset(members).difference(j))
                 for members in combinations(range(n + s), rounds + 1)
                 for r in range(rounds + 2)
                 for j in combinations(members, r)]
        for s_set, t_set in calls[::order]:
            assert (_cover_outcome(sa_lift_value, cert, s_set, t_set)
                    == _cover_outcome(reference_lift, ref, s_set, t_set)), (
                        s_set, t_set)
        assert cert.lift_table

    @pytest.mark.parametrize("name, exact", [
        ("gap-256", True), ("certify-4096", True), ("gap-100", False),
        ("chain-16", True), ("chain-10", False)])
    def test_one_round_report(self, monkeypatch, name, exact):
        g = ONE_ROUND_GRAPHS[name]()
        seed = g.n
        cert = build_sa_certificate(g, rounds=1)
        assert cert.exact == exact
        rep = verify_sa_certificate(cert, samples=2000, seed=seed)
        ref = reference_report(monkeypatch, build_sa_certificate(g, rounds=1),
                               samples=2000, seed=seed)
        assert rep.checks == ref.checks
        assert rep.extra == ref.extra
        rows = check_cardinality_class_rows(rep,
                                            build_sa_certificate(g, rounds=1))
        if name == "certify-4096":
            # Every two-hop mask saturates: one left class for all n.
            assert rows["cardinality-u0"].count == g.n
            assert rows["cardinality-tu0"].count == g.n

    @pytest.mark.parametrize("mode, rounds", [
        ("exhaustive", 2), ("sampled", 1), ("sampled", 2)])
    @pytest.mark.parametrize("n, s, d_l", [(16, 4, 2.0), (10, 3, 2.0)])
    def test_naive_and_sampled_reports(self, monkeypatch, mode, rounds, n, s,
                                       d_l):
        g = gen_gap_instance(n, s, d_l, 9)
        kwargs = dict(mode=mode, samples=200, seed=3)
        rep = verify_sa_certificate(build_sa_certificate(g, rounds), **kwargs)
        ref = reference_report(monkeypatch, build_sa_certificate(g, rounds),
                               **kwargs)
        assert rep.checks == ref.checks
        assert rep.extra == ref.extra

    def test_naive_summary_skips_rounding_noise(self):
        # Float mode, rounds=2: some edge rows fall short by about 1e-63,
        # far below the 1e-40 tolerance.
        cert = build_sa_certificate(gen_gap_instance(10, 3, 2.0, 1), 2)
        rep = verify_sa_certificate(cert, samples=300, seed=1)
        edges = [r for r in rep.checks if r.constraint_id.startswith(
            "edge-") and r.constraint_id != "edge-family-violations"]
        summary, = (r for r in rep.checks
                    if r.constraint_id == "edge-family-violations")
        assert edges and all(0 < r.slack <= cert.tolerance for r in edges)
        assert summary.lhs == 0
        assert summary.slack == max(r.slack for r in edges)

    def test_top_level_summary_skips_rounding_noise(self, monkeypatch):
        g = gen_gap_instance(12, 4, 2.0, 9)
        kwargs = dict(samples=300, seed=9)
        rep = verify_sa_certificate(build_sa_certificate(g, 2), **kwargs)
        ref = reference_report(monkeypatch, build_sa_certificate(g, 2),
                               **kwargs)
        row, = (r for r in rep.checks
                if r.constraint_id == "bounds-top-level-sampled")
        assert row in ref.checks
        assert row.lhs == 0 and 0 < row.slack <= 1e-40

    @pytest.mark.parametrize("n, s, d_l, rounds", [
        (16, 4, 2.0, 1), (20, 5, 3.0, 1), (16, 4, 2.0, 2), (10, 3, 2.0, 2)])
    def test_corrupted_class_counts(self, monkeypatch, n, s, d_l, rounds):
        # x_v = 0 for every right vertex: the edge class rows (one round) or
        # the edge rows (two rounds) fail, and lifts such as x_{v} - x_{u,v}
        # go negative at the top level.
        g = gen_gap_instance(n, s, d_l, 9)

        def corrupted():
            cert = build_sa_certificate(g, rounds)
            zero = Fraction(0) if cert.exact else sa._mp().mpf(0)
            cert.class_table[reference_key(cert, frozenset({n}))] = zero
            return cert

        kwargs = dict(samples=500, seed=2)
        rep = verify_sa_certificate(corrupted(), **kwargs)
        ref = reference_report(monkeypatch, corrupted(), **kwargs)
        assert rep.checks == ref.checks
        counts = {r.constraint_id: r.lhs for r in rep.checks
                  if r.constraint_id in ("edge-family-violations",
                                         "bounds-top-level-classes",
                                         "bounds-top-level-sampled")}
        assert len(counts) == rounds and all(c > 0 for c in counts.values())
        if rounds == 1:
            assert report_row(rep, "edges-base") in rep.failing()
        assert not rep.passed


def reference_census(cert):
    """(top, left_rows, right_rows) of the one-round census from every
    pair's cert.key, in the census's insertion order: a left vertex tallies
    its near pairs above it, then its far pairs above it in partner order,
    and is filed under its far classes in partner order; a right vertex
    files its degree, then tallies its pairs with the left vertices
    (adjacent ones first) and with the right vertices before it."""
    n = cert.n
    top, left_rows, right_rows = {}, {}, {}
    for w in range(n):
        keys = [(u, cert.key(frozenset((w, u)))) for u in range(n) if u != w]
        near = [u for u, key in keys if u > w and key == sa.CLASS_UU_NEAR]
        if near:
            top.setdefault(sa.CLASS_UU_NEAR, [0, w, near[0]])[0] += len(near)
        far = [(u, key) for u, key in keys if key != sa.CLASS_UU_NEAR]
        for u, key in far:
            if u > w:
                top.setdefault(key, [0, w, u])[0] += 1
        left_rows.setdefault(tuple(key for _, key in far), [0, w])[0] += 1
    for w in range(cert.s):
        v = n + w
        keys = [(u, cert.key(frozenset((u, v)))) for u in range(n)]
        right_rows.setdefault(sum(key == sa.CLASS_U for _, key in keys),
                              [0, w])[0] += 1
        for u, key in sorted(keys, key=lambda uk: uk[1] != sa.CLASS_U):
            top.setdefault(key, [0, u, v])[0] += 1
        for u in range(n, v):
            top.setdefault(cert.key(frozenset((u, v))), [0, u, v])[0] += 1
    return top, left_rows, right_rows


def saturated(seed):
    """A gap instance in which every two left vertices share a neighbour."""
    return gen_gap_instance(256, 16, 12.0, seed)


CENSUS_GRAPHS = {
    **{f"saturated-{seed}": (lambda seed=seed: saturated(seed))
       for seed in range(3)},
    **{f"gap-256-8-{seed}": (lambda seed=seed: gen_gap_instance(
        256, 16, 8.0, seed)) for seed in (1, 2)},
    "chain-16": lambda: chain(16),
    "gap-81": lambda: gen_gap_instance(81, 9, 4.0, 5),
    "gap-625": lambda: gen_gap_instance(625, 25, 8.0, 7),
    "gap-256-32": lambda: gen_gap_instance(256, 32, 8.0, 9),
    "one-left-1x3": lambda: BipartiteGraph.from_edges(1, 3, []),
    "one-left-1x4": lambda: BipartiteGraph.from_edges(1, 4, [(0, 1)]),
    # Left vertex 2 is isolated: no cover joins it to another left vertex.
    "isolated-left-3x2": lambda: BipartiteGraph.from_edges(
        3, 2, [(0, 0), (1, 0)]),
    "gap-256-8-0": lambda: gen_gap_instance(256, 16, 8.0, 0),
}


@cache
def census_outcomes(name):
    """The census of one CENSUS_GRAPHS graph and its reference, or the
    NoCoverError each raised.  The reference runs second on the same
    certificate, so it reads the far pairs' cover costs the census
    memoised instead of searching again."""
    g = CENSUS_GRAPHS[name]()
    cert = build_sa_certificate(g, 1)
    return (g, _cover_outcome(sa._pair_census, cert),
            _cover_outcome(reference_census, cert))


class TestPairCensus:
    """The one-round census against every pair's cover class."""

    @pytest.mark.parametrize("name", CENSUS_GRAPHS)
    def test_matches_every_pair(self, name):
        _, got, want = census_outcomes(name)
        if want[0] is NoCoverError:
            assert got[0] is NoCoverError
            return
        assert [list(d.items()) for d in got] == [list(d.items())
                                                  for d in want]

    def test_fixtures_reach_every_case(self):
        seen = set()
        for name in CENSUS_GRAPHS:
            g, got, _ = census_outcomes(name)
            if got[0] is NoCoverError:
                seen.add("no-cover")
                continue
            left_rows = got.left_rows
            seen.add("n=1" if g.n == 1 else "all-near" if list(left_rows)
                     == [()] else "far")
            if () in left_rows and len(left_rows) > 1:
                seen.add("mixed")
        assert seen == {"no-cover", "n=1", "all-near", "far", "mixed"}

    @pytest.mark.parametrize("seed", range(3))
    def test_saturated_census_keys_no_pair(self, monkeypatch, seed):
        cert = build_sa_certificate(saturated(seed), 1)
        calls = []
        key = SaCertificate.key
        monkeypatch.setattr(SaCertificate, "key",
                            lambda self, subset: calls.append(subset)
                            or key(self, subset))
        census = sa._pair_census(cert)
        assert list(census.left_rows) == [()]
        assert calls == []

    def test_keys_only_far_pairs(self, monkeypatch):
        # Each left vertex keys each of its far partners once, and no other.
        cert = build_sa_certificate(gen_gap_instance(256, 16, 8.0, 1), 1)
        calls = []
        key = SaCertificate.key
        monkeypatch.setattr(SaCertificate, "key",
                            lambda self, subset: calls.append(subset)
                            or key(self, subset))
        census = sa._pair_census(cert)
        far = sum(count * len(keys)
                  for keys, (count, _) in census.left_rows.items())
        assert far and len(calls) == far
        assert all(key(cert, pair) != sa.CLASS_UU_NEAR for pair in calls)


def spy_top_level(monkeypatch, cert):
    """verify_sa_certificate(cert) at rounds=1, and the pair classes it
    tallied for the top-level check, {triple: [pairs, a, b]}."""
    seen = {}

    def spy(cert, rep, top):
        seen.update(top)
        CHECK_TOP_LEVEL_CLASSES(cert, rep, top)

    with monkeypatch.context() as m:
        m.setattr(sa, "_check_top_level_classes", spy)
        rep = verify_sa_certificate(cert)
    return rep, seen


def chain2(n):
    """Left u joined to right u // 2 and u // 2 + 1: far-apart left pairs
    of several costs at an exact n (16)."""
    return BipartiteGraph.from_edges(
        n, n // 2 + 1, [(u, u // 2 + d) for u in range(n) for d in (0, 1)])


BRUTE_GRAPHS = {
    **{f"tier-{i}": (lambda i=i: TIER_GRAPHS[i])
       for i in range(len(TIER_GRAPHS))},
    # One left vertex, everything isolated (exact: n = 1).
    "isolated-1x3": lambda: BipartiteGraph.from_edges(1, 3, []),
    "one-left-1x4": lambda: BipartiteGraph.from_edges(1, 4, [(0, 1), (0, 2)]),
    # A connected left side with two isolated right vertices.
    "isolated-right-4x6": lambda: BipartiteGraph.from_edges(
        4, 6, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]),
    "chain-10": lambda: chain(10),
    "chain-14": lambda: chain(14),
    "chain2-16": lambda: chain2(16),
    "gap-16": lambda: gen_gap_instance(16, 4, 2.0, 9),
    "gap-20": lambda: gen_gap_instance(20, 5, 3.0, 9),
}


# Each corruption edits a fresh one-round certificate in place and returns
# whether it applies to the graph.

def _zero_right(cert):
    zero = Fraction(0) if cert.exact else sa._mp().mpf(0)
    cert.class_table[reference_key(cert, frozenset({cert.n}))] = zero
    return True


def _far_above_left(cert):
    """The far uu class of the smallest realised cost set above x_u, so
    x_a - x_ab < 0 on all its pairs."""
    keys = [_cover_outcome(reference_key, cert, frozenset(p))
            for p in combinations(range(cert.n), 2)]
    far = min((k for k in keys if k[0] is not NoCoverError and k[2] > 3),
              default=None)
    if far is None:
        return False
    cert.class_table[far] = 2 * cert.x_value([0])
    return True


def _override_singletons(cert):
    """The singleton classes set by hand: x_u halved (and with it the
    adjacent u-v pairs, which share its class) and x_v doubled."""
    cert.class_table[(1, 0, 2)] = cert.class_value((1, 0, 2)) / 2
    cert.class_table[(0, 1, 1)] = 2 * cert.class_value((0, 1, 1))
    return True


CORRUPTIONS = {
    "none": lambda cert: True,
    "right-zero": _zero_right,
    "far-above-left": _far_above_left,
    "singleton-override": _override_singletons,
}


class TestTopLevelClasses:
    """The one-round top-level check, one representative per realised pair
    class, against every pair and against the kept sampler."""

    @staticmethod
    def corrupted(g, corruption):
        cert = build_sa_certificate(g, rounds=1)
        return cert if CORRUPTIONS[corruption](cert) else None

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    @pytest.mark.parametrize("name", BRUTE_GRAPHS)
    def test_matches_every_pair(self, monkeypatch, name, corruption):
        g = BRUTE_GRAPHS[name]()
        assert g.n + g.n_right <= 30
        cert = self.corrupted(g, corruption)
        if cert is None:
            return  # the corruption does not apply to this graph
        got = _cover_outcome(spy_top_level, monkeypatch, cert)
        want = _cover_outcome(brute_top_level, self.corrupted(g, corruption))
        if want[0] is NoCoverError:  # disconnected left vertices
            assert got[0] is NoCoverError
            return
        rep, top = got
        row = report_row(rep, "bounds-top-level-classes")
        violations, worst, classes = want
        assert (row.lhs, row.rhs, row.slack) == (violations, 0, worst)
        assert rep.extra["top_level_classes"] == classes == len(top)
        assert sum(pairs for pairs, _, _ in top.values()) == math.comb(
            g.n + g.n_right, 2)

    def test_brute_fixtures_reach_every_case(self, monkeypatch):
        """Both value modes, far classes of several costs, corruptions that
        fail, isolated vertices on both sides and NoCoverError all occur
        among the brute-force cases."""
        seen = set()
        for name, make in BRUTE_GRAPHS.items():
            g = make()
            isolated_u = any(not a for a in g.adj_left)
            isolated_v = any(not a for a in g.adj_right)
            for corruption in CORRUPTIONS:
                cert = self.corrupted(g, corruption)
                if cert is None:
                    continue
                out = _cover_outcome(brute_top_level, cert)
                if out[0] is NoCoverError:
                    seen.add("no-cover")
                    continue
                seen.add("exact" if cert.exact else "float")
                seen.add(f"{corruption}-fails" if out[0] else corruption)
                far = {k[2] for k in map(cert.key, map(
                    frozenset, combinations(range(g.n), 2))) if k[2] > 3}
                if len(far) >= 2:
                    seen.add("far-costs")
                if isolated_u:
                    seen.add("isolated-u")
                if isolated_v:
                    seen.add("isolated-v")
        assert {"exact", "float", "no-cover", "far-costs", "isolated-u",
                "isolated-v", "none", "right-zero-fails",
                "far-above-left-fails", "singleton-override"} <= seen
        assert "none-fails" not in seen

    @staticmethod
    def sampler_draws(monkeypatch, cert, seed):
        """Every (S, T) the kept top-level sampler draws, 10k, seed-fixed."""
        drawn = []

        def record(cert, s_set, t_set):
            drawn.append((frozenset(s_set), frozenset(t_set)))
            return reference_lift(cert, s_set, t_set)

        with monkeypatch.context() as m:
            m.setattr(sa, "sa_lift_value", record)
            sa._sample_top_level_bounds(cert, VerifyReport(), 10_000, seed)
        return drawn

    def check_coverage(self, monkeypatch, g, seed):
        cert = build_sa_certificate(g, rounds=1)
        _, top = spy_top_level(monkeypatch, cert)
        enumerated = {}
        for _, a, b in top.values():
            triple = (cert.x_value([a]), cert.x_value([b]),
                      reference_key(cert, frozenset((a, b))))
            assert triple not in enumerated
            enumerated[triple] = tuple(
                reference_lift(cert, s_set, t_set) for s_set, t_set in (
                    ((a, b), ()), ((a,), (b,)), ((b,), (a,)), ((), (a, b))))
        fresh = build_sa_certificate(g, rounds=1)
        draws = self.sampler_draws(monkeypatch, fresh, seed)
        assert len(draws) == 10_000
        for s_set, t_set in draws:
            a, b = sorted(s_set | t_set)
            triple = (fresh.x_value([a]), fresh.x_value([b]),
                      reference_key(fresh, frozenset((a, b))))
            split = [frozenset((a, b)), frozenset((a,)), frozenset((b,)),
                     frozenset()].index(s_set)
            value = enumerated[triple][split]
            assert value == sa_lift_value(fresh, s_set, t_set)
            assert value == reference_lift(fresh, s_set, t_set)
        return top

    @pytest.mark.parametrize("name", ONE_ROUND_GRAPHS)
    def test_sampler_draws_are_enumerated(self, monkeypatch, name):
        top = self.check_coverage(monkeypatch, ONE_ROUND_GRAPHS[name](),
                                  seed=7)
        if name == "certify-4096":
            # uv adjacent and non-adjacent, vv, and uu near.
            assert len(top) == 4

    def test_sampler_draws_are_enumerated_tier_graphs(self, monkeypatch):
        outcomes = [_cover_outcome(self.check_coverage, monkeypatch, g, 5)
                    for g in TIER_GRAPHS]
        for g, out in zip(TIER_GRAPHS, outcomes):
            if not isinstance(out, dict):  # a left pair with no cover
                assert out[0] is NoCoverError
                assert _cover_outcome(brute_top_level, build_sa_certificate(
                    g, rounds=1))[0] is NoCoverError
        assert sum(isinstance(out, dict) for out in outcomes) >= 6

    def test_each_certify_pair_class_set_to_5_fails(self, monkeypatch):
        """x_S = 5 breaks x_S <= 1 on every pair of the edited class: the
        certify instance's report fails for each realised pair class."""
        g = ONE_ROUND_GRAPHS["certify-4096"]()
        _, top = spy_top_level(monkeypatch, build_sa_certificate(g, rounds=1))
        assert set(top) == {(1, 0, 2), (1, 1, 3), (0, 2, 2), (2, 0, 3)}
        for key in top:
            cert = build_sa_certificate(g, rounds=1)
            cert.class_table[key] = 5
            rep = verify_sa_certificate(cert)
            assert report_row(rep, "bounds-top-level-classes") in (
                rep.failing()), key

    def test_class_edit_between_verifies_matches_fresh(self):
        """Lifts memoised by a first verify and property run do not outlive
        it: after a class edit, both reports equal a fresh certificate's
        with the same edit."""
        g = ONE_ROUND_GRAPHS["certify-4096"]()
        reports = []
        for reused in (True, False):
            cert = build_sa_certificate(g, rounds=1)
            if reused:
                verify_sa_certificate(cert)
                sample_property_checks(cert, 500, seed=3)
            cert.class_table[(1, 1, 3)] = 5
            reports.append([(rep.checks, rep.max_violation, rep.extra)
                            for rep in (verify_sa_certificate(cert),
                                        sample_property_checks(cert, 500,
                                                               seed=3))])
        assert reports[0] == reports[1]
        checks = reports[1][0][0]
        row = next(r for r in checks
                   if r.constraint_id == "bounds-top-level-classes")
        assert row.lhs == 524160
        # The property class rows read the edited value as well.
        assert reports[1][1][1] > 0


def _nudge_right(cert):
    """x_v set 1e-50 below x_u for every right vertex: the level-0 edge
    instances fall short by that much only (below the float tolerance),
    while other contexts truly fail."""
    cert.class_table[(0, 1, 1)] = cert.x_value([0]) - (
        Fraction(1, 10 ** 50) if cert.exact else sa._mp().mpf("1e-50"))
    return True


EDGE_SCAN_GRAPHS = {**BRUTE_GRAPHS, **{
    name: ONE_ROUND_GRAPHS[name]
    for name in ("gap-100", "gap-256", "gap-300", "chain-16")}}
EDGE_SCAN_CORRUPTIONS = {
    **{name: CORRUPTIONS[name]
       for name in ("none", "right-zero", "far-above-left",
                    "singleton-override")},
    "nudge": _nudge_right,
}
# The rows that bound each context family of reference_edge_scan.  An
# adjacent pair {u, v} has u's class, so in S = {v} the inequality
# x_v >= x_{u,v} is edges-base's; in S = {u} x_{u,v} >= x_u and in T = {v}
# 0 >= 0 hold by class.  edges-su-far is emitted only where a far class is
# realised.
EDGE_FAMILY_ROWS = {
    "base": ("edges-base",),
    "sv": ("edges-base", "edges-sv-adj", "edges-sv-non"),
    "su": ("edges-base", "edges-su-adj", "edges-su-non", "edges-su-far"),
    "tv": ("edges-base", "edges-tv"),
    "tu": ("edges-tu-adj", "edges-tu-non"),
}


class TestEdgeRowsAgainstScan:
    """The one-round edge class rows against every level-<=1 edge instance,
    with pair values edited by hand among the corruptions."""

    @pytest.mark.parametrize("corruption", EDGE_SCAN_CORRUPTIONS)
    @pytest.mark.parametrize("name", EDGE_SCAN_GRAPHS)
    def test_rows_bound_every_edge_instance(self, name, corruption):
        cert = build_sa_certificate(EDGE_SCAN_GRAPHS[name](), rounds=1)
        if not EDGE_SCAN_CORRUPTIONS[corruption](cert):
            return  # the corruption does not apply to this graph
        rep = _cover_outcome(verify_sa_certificate, cert)
        if isinstance(rep, tuple):  # a left pair with no cover
            assert rep[0] is NoCoverError
            return
        slack = {r.constraint_id: r.slack for r in rep.checks}
        far = any(key[0] == 2 and key[2] > 3 for key in cert.class_table)
        assert {r for rows in EDGE_FAMILY_ROWS.values() for r in rows} - (
            set() if far else {"edges-su-far"}) == {
            r for r in slack if r.startswith("edges-")}
        # The scan reads the values the verifier cached: no new cover search.
        scan = reference_edge_scan(cert)
        for family, (above, anything, worst) in scan.items():
            bound = max(slack.get(r, 0.0) for r in EDGE_FAMILY_ROWS[family])
            # Each family's rows bound its worst shortfall (up to float-mode
            # rounding), so running the scan in the verifier would change no
            # verdict and no max_violation.
            assert worst <= bound + cert.tolerance, family
            if above:
                assert bound > cert.tolerance, family
        if corruption == "nudge":
            above, anything, _ = map(sum, zip(*scan.values()))
            if anything:
                assert (above == anything) if cert.exact else (
                    0 < above < anything)
        if corruption == "far-above-left":
            assert slack["edges-su-far"] > cert.tolerance


# ---------------------------------------------------------------------------
# One-round property class rows against every instance and the sampler
# ---------------------------------------------------------------------------

def brute_property_instances(cert):
    """Every one-round property instance (family, S, extra): |S| <= 1, and
    w (decay) or T (lift range, |S| + |T| <= 2) outside S and N(S_U), or a
    left u outside S (growth); N(S_U) from the graph's left rows."""
    n = cert.n
    everyone = range(n + cert.s)
    for size in (0, 1):
        for s_tuple in combinations(everyone, size):
            s_set = frozenset(s_tuple)
            forced = {n + v for u in s_set if u < n
                      for v in cert.graph.adj_left[u]}
            free = [w for w in everyone if w not in s_set and w not in forced]
            for w in free:
                yield "decay", s_set, frozenset({w})
            for t_size in range(3 - size):
                for t_set in combinations(free, t_size):
                    yield "lift-range", s_set, frozenset(t_set)
            for u in range(n):
                if u not in s_set:
                    yield "growth", s_set, frozenset({u})


def family_fails(rep) -> set:
    """The property families with a failing row."""
    return {re.match(r"property-([a-z-]+?)(-\(|$)", r.constraint_id)[1]
            for r in rep.failing()}


def _five_singletons(cert):
    """x_u, x_v and x_{u,v} (u, v not adjacent) set to 5: decay, lift range
    and growth each fail on some class."""
    for key in (sa.CLASS_U, sa.CLASS_V, sa.CLASS_UV_NON):
        cert.class_table[key] = 5
    return True


PROPERTY_CORRUPTIONS = {**CORRUPTIONS, "five": _five_singletons}
SAMPLER_GRAPHS = {
    # The golden lifted-LP instances, all with a far class (2, 0, 4).
    "golden-100x20": lambda: gen_gap_instance(100, 20, 10.0, 0),
    "golden-24x6": lambda: gen_gap_instance(24, 6, 3.0, 0),
    "golden-40x8": lambda: gen_gap_instance(40, 8, 4.0, 0),
    "certify-seed1": lambda: gen_gap_instance(4096, 64, 32.0, 1),
    "certify-seed2": lambda: gen_gap_instance(4096, 64, 32.0, 2),
    "chain-16": lambda: chain(16),  # far classes of several costs
}


class TestPropertyClasses:
    """The one-round property check, one row per realised class pair,
    against every instance and against the kept sampler."""

    @pytest.mark.parametrize("corruption", PROPERTY_CORRUPTIONS)
    @pytest.mark.parametrize("name", BRUTE_GRAPHS)
    def test_rows_are_every_instance(self, name, corruption):
        """Each class row counts exactly the instances whose classes it
        names, and each of them has the row's values."""
        cert = build_sa_certificate(BRUTE_GRAPHS[name](), rounds=1)
        if not PROPERTY_CORRUPTIONS[corruption](cert):
            return
        rep = _cover_outcome(sample_property_checks, cert, 0)
        if isinstance(rep, tuple):  # a left pair with no cover
            assert rep[0] is NoCoverError
            return
        rows = {r.constraint_id: r for r in rep.checks}
        counts = Counter()
        for family, s_set, extra in brute_property_instances(cert):
            row = rows[sa._property_id(cert, family, s_set, extra)]
            lhs, rhs, bad = sa._property_values(cert, family, s_set, extra)
            assert (row.lhs, row.rhs, row.slack) == (
                float(lhs), float(rhs), max(0.0, float(bad))), row
            counts[row.constraint_id] += 1
        assert counts == {cid: r.count for cid, r in rows.items()}
        for family in sa.PROPERTY_FAMILIES:
            assert rep.extra[f"instances_{family}"] == sum(
                r.count for cid, r in rows.items()
                if cid.startswith(f"property-{family}-("))

    @pytest.mark.parametrize("corruption", ["none", "five"])
    @pytest.mark.parametrize("name", SAMPLER_GRAPHS)
    def test_sampler_agrees(self, name, corruption):
        """The one-round sampler's family verdicts are the class rows', and
        every failing sampled instance lies in a failing class row.  With
        x_u, x_v and x_{u,v} set to 5 every family fails."""
        g = SAMPLER_GRAPHS[name]()
        cert = build_sa_certificate(g, rounds=1)
        PROPERTY_CORRUPTIONS[corruption](cert)
        classes = sample_property_checks(cert, 0)
        sampled = sa._sample_properties(cert, 2000, 11)
        assert family_fails(sampled) == family_fails(classes)
        if corruption == "five":
            assert family_fails(classes) == set(sa.PROPERTY_FAMILIES)
        elif name != "chain-16":
            # On the chain the far pairs of high cost are below the growth
            # floor, which is a property of gap instances only.
            assert classes.passed
        failing = {r.constraint_id for r in classes.failing()}
        for family, s_set, extra in sa._property_draws(cert, 2000, 11):
            if sa._property_values(cert, family, s_set,
                                   extra)[2] > cert.tolerance:
                assert sa._property_id(cert, family, s_set,
                                       extra) in failing

    def test_one_round_reads_no_view_and_draws_nothing(self, monkeypatch):
        """On the certify instance at one round, the build, the verify and
        the property check build no global-id view, make no random draw
        in the property check, and count the pair classes once."""
        censuses = []
        draws = []
        census = sa._pair_census
        monkeypatch.setattr(sa, "_pair_census",
                            lambda cert: censuses.append(1) or census(cert))
        cert = build_sa_certificate(gen_gap_instance(4096, 64, 32.0, 1), 1)
        assert verify_sa_certificate(cert).passed
        for name in ("u64", "_skip"):
            method = getattr(SplitMix64, name)
            monkeypatch.setattr(
                SplitMix64, name,
                lambda rng, *args, method=method: draws.append(1) or method(
                    rng, *args))
        assert sample_property_checks(cert, 2000, seed=5).passed
        assert sample_property_checks(cert, 2000, seed=6).passed
        assert not draws
        assert verify_sa_certificate(cert).passed
        assert len(censuses) == 1
        assert "view" not in cert.__dict__


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
