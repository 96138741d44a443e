"""Benchmark suites tying the solvers and certificates together.

Reports are deterministic given (suite, seeds, parameters): every row carries
the seed that regenerates it, rows are ordered by seed, and the JSON schema
is versioned.
"""

from __future__ import annotations

from .approx import (les_exactly_k, solve_planted, solve_worst_case,
                     trivial_ksubset)
from .certs import (build_sa_certificate, gap_certificate,
                    verify_sa_certificate, verify_sdp_certificate)
from .exact import exact_ssbve
from .generators import PlantedSpec, gen_gap_instance, gen_planted
from .graph import BipartiteGraph, SsbveInstance, expansion
from .rng import stream

SCHEMA_VERSION = 1

PLANTED_DEFAULTS = dict(n=4096, alpha=0.5, beta=0.5, gamma=0.2, r_degree=12,
                        branch_cap=4096)

SDP_GRID = [dict(n=1280, s=384, d_l=2, k=4),
            dict(n=1280, s=384, d_l=2, k=8)]
SA_GRID = [dict(n=4096, s=64, d_l=32, rounds=1)]


def _random_small_instance(seed: int) -> SsbveInstance:
    rng = stream(seed, 0xB31C)
    n = 4 + rng.randrange(9)            # 4..12
    n_right = 2 + rng.randrange(7)      # 2..8
    edges = [(u, v) for u in range(n) for v in range(n_right)
             if rng.bernoulli(0.35)]
    k = 1 + rng.randrange(n)
    return SsbveInstance(graph=BipartiteGraph.from_edges(n, n_right, edges),
                         k=k)


def _oracle_small_row(seed: int) -> dict:
    inst = _random_small_instance(seed)
    opt = exact_ssbve(inst)
    algos = {
        "exact": opt,
        "les_trim": les_exactly_k(inst),
        "worst": solve_worst_case(inst, branch_cap=8, seed=seed),
        "baseline": trivial_ksubset(inst),
    }
    base = max(1, opt.neighborhood_size)
    return {
        "seed": seed,
        "n": inst.graph.n,
        "k": inst.k,
        "results": {name: {
            "neighborhood": sol.neighborhood_size,
            "ratio": sol.neighborhood_size / base
            if opt.neighborhood_size else (1.0 if not sol.neighborhood_size
                                           else float("inf")),
        } for name, sol in algos.items()},
    }


def _planted_row(seed: int, cfg: dict) -> dict:
    spec = PlantedSpec(n=cfg["n"], alpha=cfg["alpha"], beta=cfg["beta"],
                       gamma=cfg["gamma"], r_degree=cfg["r_degree"],
                       seed=seed)
    inst, filled = gen_planted(spec)
    planted_exp = expansion(inst.graph, filled.planted_s)
    sol = solve_planted(inst, 1, 2, branch_cap=cfg["branch_cap"], seed=seed)
    ratio = float(sol.expansion / planted_exp)
    return {"seed": seed, "planted_expansion": float(planted_exp),
            "solved_expansion": float(sol.expansion), "ratio": ratio}


def _gap_cert_rows(seed: int) -> list[dict]:
    rows = []
    for cfg in SDP_GRID:
        g = gen_gap_instance(cfg["n"], cfg["s"], float(cfg["d_l"]), seed)
        rep = verify_sdp_certificate(gap_certificate(g, cfg["d_l"], cfg["k"]))
        rows.append({"seed": seed, "kind": "sdp", **cfg,
                     "passed": rep.passed,
                     "objective": rep.extra["objective"],
                     "gap_ratio": rep.extra["gap_ratio"]})
    for cfg in SA_GRID:
        g = gen_gap_instance(cfg["n"], cfg["s"], float(cfg["d_l"]), seed)
        cert = build_sa_certificate(g, rounds=cfg["rounds"])
        rep = verify_sa_certificate(cert, samples=1000, seed=seed)
        rows.append({"seed": seed, "kind": "sa", **cfg,
                     "passed": rep.passed,
                     "objective": rep.extra["objective"],
                     "gap_ratio": rep.extra["gap_ratio"]})
    return rows


def run_benchmark(suite: str, seeds: int,
                  planted_cfg: dict | None = None) -> dict:
    """Run a suite over `seeds` seeded instances and return the report."""
    if suite == "oracle_small":
        rows = [_oracle_small_row(s) for s in range(seeds)]
        summary = {
            algo: max(r["results"][algo]["ratio"] for r in rows)
            for algo in ("exact", "les_trim", "worst", "baseline")}
        report = {"schema": SCHEMA_VERSION, "suite": suite, "rows": rows,
                  "max_ratio": summary}
    elif suite == "planted":
        cfg = {**PLANTED_DEFAULTS, **(planted_cfg or {})}
        rows = [_planted_row(s, cfg) for s in range(seeds)]
        frac_ok = sum(1 for r in rows if r["ratio"] <= 4.0) / max(1, len(rows))
        report = {"schema": SCHEMA_VERSION, "suite": suite, "config": cfg,
                  "rows": rows, "fraction_within_4x": frac_ok}
    elif suite == "gap_certs":
        rows = [r for s in range(seeds) for r in _gap_cert_rows(s)]
        sa_ratios = [r["gap_ratio"] for r in rows if r["kind"] == "sa"]
        report = {"schema": SCHEMA_VERSION, "suite": suite, "rows": rows,
                  "all_passed": all(r["passed"] for r in rows),
                  "min_sa_gap_ratio": min(sa_ratios, default=None)}
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return report


def format_table(report: dict) -> str:
    """Human-readable rendering of a benchmark report."""
    lines = [f"suite: {report['suite']}  (schema {report['schema']})"]
    rows = report.get("rows", [])
    if report["suite"] == "oracle_small":
        lines.append(f"{'seed':>5} {'n':>3} {'k':>3} "
                     + " ".join(f"{a:>10}" for a in
                                ("exact", "les_trim", "worst", "baseline")))
        for r in rows:
            vals = " ".join(f"{r['results'][a]['ratio']:>10.3f}"
                            for a in ("exact", "les_trim", "worst",
                                      "baseline"))
            lines.append(f"{r['seed']:>5} {r['n']:>3} {r['k']:>3} {vals}")
        lines.append(f"max ratios: {report['max_ratio']}")
    elif report["suite"] == "planted":
        lines.append(f"{'seed':>5} {'planted':>10} {'solved':>10} "
                     f"{'ratio':>8}")
        for r in rows:
            lines.append(f"{r['seed']:>5} {r['planted_expansion']:>10.5f} "
                         f"{r['solved_expansion']:>10.5f} {r['ratio']:>8.3f}")
        lines.append(f"fraction within 4x: {report['fraction_within_4x']}")
    else:
        lines.append(f"{'seed':>5} {'kind':>5} {'passed':>7} "
                     f"{'objective':>12} {'gap_ratio':>10}")
        for r in rows:
            lines.append(f"{r['seed']:>5} {r['kind']:>5} "
                         f"{str(r['passed']):>7} {r['objective']:>12.4f} "
                         f"{r['gap_ratio']:>10.4f}")
    return "\n".join(lines) + "\n"
