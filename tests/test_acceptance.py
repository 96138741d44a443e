"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 5's stated parameter grid (s = k = sqrt(n) with d_L about
20 ln n) is structurally infeasible: a simple bipartite graph cannot have
left degree d_L > s, and even after capping, tau = 4*max(d_L^2/s, d_L*k/n)
exceeds 1/8 by orders of magnitude at desk scale, so the builder's regime
guards reject it.  That test is marked xfail (strict) and a companion test
proves the full certificate machinery green in a valid regime.
"""

import json
import math
import os
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from ssbve.approx import (Step, caterpillar_schedule, solve_planted,
                          solve_worst_case)
from ssbve.certs import (build_sa_certificate, check_instance_properties,
                         gap_certificate, hardness_gap_calculator,
                         sample_property_checks, verify_sa_certificate,
                         verify_sdp_certificate)
from ssbve.errors import ProbabilityOutOfRangeError, SsbveError
from ssbve.exact import exact_les, exact_ssbve, exact_ssve
from ssbve.generators import PlantedSpec, gen_gap_instance, gen_planted
from ssbve.graph import (BipartiteGraph, Hypergraph, SsbveInstance,
                         UndirectedGraph, expansion, mku_to_ssbve,
                         neighborhood, ssbve_to_mku, ssbve_to_ssveu,
                         ssveu_to_ssbve)
from ssbve.les import least_expanding_set
from ssbve.rng import stream
from ssbve.ssve import SseOracle, ssve_via_sse

DATA = os.path.join(os.path.dirname(__file__), "data")


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")


def small_bipartite(seed: int, tag: int, max_n=12, max_right=8, p=0.35):
    rng = stream(seed, tag)
    n = 2 + rng.randrange(max_n - 1)
    n_right = 1 + rng.randrange(max_right)
    edges = [(u, v) for u in range(n) for v in range(n_right)
             if rng.bernoulli(p)]
    return BipartiteGraph.from_edges(n, n_right, edges)


def test_criterion_1_les_exactness():
    """500 random graphs: flow-based LES ratio == brute-force ratio."""
    mismatches = 0
    for seed in range(500):
        g = small_bipartite(seed, 0xAC1)
        if least_expanding_set(g).expansion != exact_les(g).expansion:
            mismatches += 1
    report(1, mismatches == 0, f"{mismatches}/500 ratio mismatches")
    assert mismatches == 0


def _mku_brute(h: Hypergraph, k: int) -> int:
    best = None
    for pick in combinations(range(len(h.sets)), k):
        union = set()
        for i in pick:
            union.update(h.sets[i])
        best = len(union) if best is None else min(best, len(union))
    return best


def _atmost_ratio_bip(g: BipartiteGraph, k: int) -> Fraction:
    best = None
    for size in range(1, min(k, g.n) + 1):
        for s in combinations(range(g.n), size):
            r = Fraction(len(neighborhood(g, s)), size)
            best = r if best is None else min(best, r)
    return best


def _atmost_ratio_und(g: UndirectedGraph, k: int) -> Fraction:
    best = None
    for size in range(1, min(k, g.n) + 1):
        for s in combinations(range(g.n), size):
            r = Fraction(len(g.open_neighborhood(s)), size)
            best = r if best is None else min(best, r)
    return best


def test_criterion_2_equivalence_reductions():
    bad = 0
    for seed in range(200):
        rng = stream(seed, 0xAC2)
        n_el = 2 + rng.randrange(9)   # <= 10 elements
        m = 2 + rng.randrange(9)      # <= 10 sets
        sets = [[e for e in range(n_el) if rng.bernoulli(0.4)]
                for _ in range(m)]
        h = Hypergraph.from_sets(n_el, sets)
        k = 1 + rng.randrange(m)
        inst = mku_to_ssbve(h, k)
        if _mku_brute(h, k) != exact_ssbve(inst).neighborhood_size:
            bad += 1
        h2, k2 = ssbve_to_mku(inst)
        if h2 != h or k2 != k:
            bad += 1
    und_bad = 0
    for seed in range(100):
        rng = stream(seed, 0xAC2A)
        # Direction 1: undirected -> bipartite double cover.
        n = 3 + rng.randrange(7)  # <= 9
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.bernoulli(0.4)]
        g = UndirectedGraph.from_edges(n, edges)
        k = 1 + rng.randrange(max(1, n // 2))
        img = ssveu_to_ssbve(g, k)
        if _atmost_ratio_und(g, k) != _atmost_ratio_bip(img.graph, k):
            und_bad += 1
        # Direction 2: bipartite -> clique-attached undirected graph.
        bn = 2 + rng.randrange(4)       # <= 5 left
        bs = 1 + rng.randrange(4)       # <= 4 right
        bedges = [(u, v) for u in range(bn) for v in range(bs)
                  if rng.bernoulli(0.5)]
        bg = BipartiteGraph.from_edges(bn, bs, bedges)
        bk = 1 + rng.randrange(min(3, bn))
        binst = SsbveInstance(graph=bg, k=bk)
        out = ssbve_to_ssveu(binst)
        if _atmost_ratio_und(out, bk) != _atmost_ratio_bip(bg, bk):
            und_bad += 1
    ok = bad == 0 and und_bad == 0
    report(2, ok, f"set-system mismatches {bad}/200, "
                  f"vertex-expansion mismatches {und_bad}/100")
    assert ok


def test_criterion_3_worst_case_sanity():
    with open(os.path.join(DATA, "golden_worst_case.json")) as fh:
        golden = json.load(fh)
    worst_ratio = 0.0
    infeasible = 0
    beats_exact = 0
    for seed in range(200):
        rng = stream(seed, 0xAC3)
        n = 4 + rng.randrange(9)
        n_right = 2 + rng.randrange(7)
        edges = [(u, v) for u in range(n) for v in range(n_right)
                 if rng.bernoulli(0.35)]
        inst = SsbveInstance(
            graph=BipartiteGraph.from_edges(n, n_right, edges),
            k=1 + rng.randrange(n))
        sol = solve_worst_case(inst, branch_cap=8, seed=seed)
        if len(sol.chosen) != inst.k:
            infeasible += 1
            continue
        opt = exact_ssbve(inst)
        if sol.neighborhood_size < opt.neighborhood_size:
            beats_exact += 1
        if opt.neighborhood_size:
            worst_ratio = max(worst_ratio,
                              sol.neighborhood_size / opt.neighborhood_size)
        elif sol.neighborhood_size:
            worst_ratio = float("inf")
    regression = worst_ratio > golden["max_ratio"] * 1.2
    ok = infeasible == 0 and beats_exact == 0 and not regression
    report(3, ok, f"max ratio {worst_ratio:.3f} "
                  f"(golden {golden['max_ratio']}, alert at +20%), "
                  f"infeasible {infeasible}, below-exact {beats_exact}")
    assert ok


def test_criterion_4_planted_recovery():
    alpha = beta = 0.5
    gamma = (beta - 0.1) * (1 - alpha)
    hits = 0
    worst = 0.0
    for seed in range(50):
        spec = PlantedSpec(n=4096, alpha=alpha, beta=beta, gamma=gamma,
                           r_degree=12, seed=seed)
        inst, filled = gen_planted(spec)
        sol = solve_planted(inst, 1, 2, branch_cap=4096, seed=seed)
        ratio = float(sol.expansion / expansion(inst.graph, filled.planted_s))
        worst = max(worst, ratio)
        if ratio <= 4.0:
            hits += 1
    ok = hits >= 45
    report(4, ok, f"{hits}/50 seeds within 4x (worst ratio {worst:.3f})")
    assert ok


SDP_STATED_GRID = [(256, 16), (512, 23)]  # (n, s = k), d_L = 2*ceil(10 ln n)


@pytest.mark.xfail(
    strict=True,
    reason="stated grid is infeasible: d_L = 2*ceil(10 ln n) exceeds s, so "
           "the generator needs edge probability > 1 and the builder's "
           "regime guard tau < 1/8 cannot hold at this scale")
def test_criterion_5_sdp_certificate_stated_grid():
    results = []
    for n, s in SDP_STATED_GRID:
        k = s
        d_l = 2 * math.ceil(10 * math.log(n))
        try:
            g = gen_gap_instance(n, s, float(d_l), seed=1)
            rep = verify_sdp_certificate(gap_certificate(g, d_l, k))
            results.append(rep.passed)
        except (ProbabilityOutOfRangeError, SsbveError) as exc:
            report(5, False, f"n={n}, s=k={s}, d_L={d_l}: {exc}")
            raise AssertionError(
                f"stated grid unbuildable at n={n}: {exc}") from exc
    report(5, all(results), f"grid verdicts {results}")
    assert all(results)


def test_criterion_5_companion_valid_regime():
    """The same pipeline and checks, in a regime the construction admits:
    exact tau identity, entrywise decomposition, eigenvalue guard, and the
    exact objective identity."""
    n, s, d_l, k = 1280, 384, 2, 4
    g = gen_gap_instance(n, s, float(d_l), seed=1)
    cert = gap_certificate(g, d_l, k)
    rep = verify_sdp_certificate(cert)
    tau_id = cert.tau == 4 * max(Fraction(cert.d_l ** 2, cert.s),
                                 Fraction(cert.d_l * cert.k, cert.n))
    obj_id = cert.objective == 4 * max(
        Fraction(cert.d_l ** 2), Fraction(cert.d_l * cert.k * cert.s, cert.n))
    ok = rep.passed and tau_id and obj_id
    report(5, ok, f"valid-regime companion n={n}, s={s}, k={k}, "
                  f"d_l'={cert.d_l}: verified={rep.passed}, "
                  f"tau/objective identities exact={tau_id and obj_id} "
                  f"(stated grid itself: infeasible, see xfail)")
    assert ok


def test_criterion_6_sa_certificate():
    g = gen_gap_instance(4096, 64, 32.0, seed=1)
    cert = build_sa_certificate(g, rounds=1)
    assert cert.exact and cert.sa_alpha == Fraction(1, 4)
    rep = verify_sa_certificate(cert, mode="exhaustive", samples=10_000,
                                seed=2)
    objective = cert.objective
    obj_ok = objective == Fraction(1, 4) * 64 * Fraction(1, 8) == 2
    props = sample_property_checks(cert, 10_000, seed=3)
    ok = rep.passed and obj_ok and props.passed
    report(6, ok, f"constraints passed={rep.passed} "
                  f"(max violation {rep.max_violation}), "
                  f"objective={objective} (==2: {obj_ok}), "
                  f"property samples passed={props.passed}")
    assert ok


def test_criterion_7_gap_instance_properties():
    n, s, k, d_l = 512, 23, 23, 20
    item1_ok = item2_ok = 0
    path_fail_on_passing = 0
    for seed in range(20):
        g = gen_gap_instance(n, s, float(d_l), seed)
        rep = check_instance_properties(g, k=k, samples=1000, seed=seed)
        rows = {r.constraint_id: r for r in rep.checks}
        if rows["item2-degree-bounds"].slack == 0:
            item2_ok += 1
            if rows["item3-length4-paths"].slack > 0:
                path_fail_on_passing += 1
        if rows["item1-optimum-lb"].slack == 0:
            item1_ok += 1
    ok = item1_ok >= 19 and item2_ok >= 19 and path_fail_on_passing == 0
    report(7, ok, f"item1 {item1_ok}/20, item2 {item2_ok}/20, "
                  f"length-4 failures on passing seeds: "
                  f"{path_fail_on_passing}")
    assert ok


def test_criterion_8_hardness_calculator():
    by_n = hardness_gap_calculator(16, Fraction(0), "by_n")
    exact_16 = by_n.gap_exponent == Fraction(9, 16)
    by_m_ok = all(
        hardness_gap_calculator(r, Fraction(0), "by_m").gap_exponent
        == Fraction(1, 4) - Fraction(1, 2 * r)
        for r in (2, 3, 4))
    ok = exact_16 and by_m_ok
    report(8, ok, f"by_n(16, 0) = {by_n.gap_exponent}, "
                  f"by_m eps=0 identity for r in 2..4: {by_m_ok}")
    assert ok


def test_criterion_9_caterpillar_schedules():
    bad = 0
    total = 0
    for q in range(2, 7):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            total += 1
            steps = caterpillar_schedule(p, q)
            expected = [Step.FIRST]
            for j in range(2, q):
                has_int = any((j - 1) * p < m * q < j * p
                              for m in range(p + 1))
                expected.append(Step.HAIR if has_int else Step.BACKBONE)
            expected.append(Step.FINAL)
            if list(steps) != expected:
                bad += 1
    report(9, bad == 0, f"{total - bad}/{total} coprime (p,q) schedules "
                        f"match the interval count, q <= 6")
    assert bad == 0


def test_criterion_10_ssve_bruteforce():
    oracle = SseOracle(kind="bruteforce")
    bad = 0
    for seed in range(100):
        rng = stream(seed, 0xACA)
        n = 9 + rng.randrange(4)  # 9..12 so that k=3 stays in regime
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.bernoulli(0.3)]
        g = UndirectedGraph.from_edges(n, edges)
        k = 1 + rng.randrange(3)
        out = ssve_via_sse(g, k, oracle)
        _, opt = exact_ssve(g, k)
        feasible = 1 <= len(out["chosen"]) <= k
        dominated = out["vertex_expansion"] <= out["edge_expansion"]
        within_k = out["vertex_expansion"] <= k * opt
        if not (feasible and dominated and within_k):
            bad += 1
    report(10, bad == 0, f"{100 - bad}/100 runs feasible, vertex <= edge, "
                         f"and within factor k of the exact optimum")
    assert bad == 0
