"""The benchmark's workloads: seeded inputs, the timed op and its check.

Each workload turns the run's seed into a pool of cases during set-up.  One
op runs the chain of library calls the matching ``ssbve`` CLI command makes
on one case and returns a result that can be compared for equality; the
check recomputes the answer from the generated instance.  Library functions
are looked up on their modules at call time so that the tracer's wrappers
are seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import ssbve.approx as approx
import ssbve.certs as certs
import ssbve.formats as formats
import ssbve.generators as generators
from ssbve.graph import BipartiteGraph, SsbveInstance

# Case seeds start here, so no benchmark instance is one of the seeds 0-49
# that the acceptance and oracle tests were tuned on.
SEED_BASE = 10_000
SEED_STRIDE = 1_000


@dataclass(frozen=True)
class Case:
    seed: int
    graph: BipartiteGraph
    k: int
    text: str = ""          # serialised instance the op parses
    base: Fraction = Fraction(1)  # quality denominator
    sa_graph: BipartiteGraph | None = None  # certify: the SA instance


@dataclass(frozen=True)
class Outcome:
    ok: bool
    quality: float


def case_seeds(seed: int, count: int) -> list[int]:
    return [SEED_BASE + SEED_STRIDE * seed + i for i in range(count)]


def _check_solution(case: Case, sol, exact_k: bool) -> bool:
    """Distinct in-range nonempty set of the right size, whose |N(S)| and
    expansion, recomputed from the generated graph, match the Solution."""
    g, chosen = case.graph, sol.chosen
    if not chosen or len(set(chosen)) != len(chosen):
        return False
    if not all(isinstance(u, int) and 0 <= u < g.n for u in chosen):
        return False
    if len(chosen) > case.k or (exact_k and len(chosen) != case.k):
        return False
    size = len(set().union(*(g.adj_left[u] for u in chosen)))
    return (sol.neighborhood_size == size
            and sol.expansion == Fraction(size, len(chosen)))


class Planted:
    """``ssbve solve --algo planted --branch-cap 4096`` on the planted
    family at n=4096, alpha=beta=0.5, gamma=0.2, r=12."""

    name = "planted"
    pool_size = 4
    quality_cases = 4
    traced_cases = 4

    def __init__(self, seed: int) -> None:
        self.cases = []
        for s in case_seeds(seed, self.pool_size):
            spec = generators.PlantedSpec(n=4096, alpha=0.5, beta=0.5,
                                          gamma=0.2, r_degree=12, seed=s)
            inst, filled = generators.gen_planted(spec)
            g = inst.graph
            planted_n = len(set().union(*(g.adj_left[u]
                                          for u in filled.planted_s)))
            self.cases.append(Case(
                seed=s, graph=g, k=inst.k, text=formats.write_ssbve(inst),
                base=Fraction(planted_n, len(filled.planted_s))))

    def op(self, case: Case):
        inst = formats.parse_ssbve(case.text)
        return approx.solve_planted(inst, 1, 2, branch_cap=4096,
                                    seed=case.seed)

    def check(self, case: Case, sol) -> Outcome:
        # The ratio to the planted expansion is quality, not a gate: the
        # acceptance criterion asks only 45 of 50 seeds to be within 4x.
        return Outcome(_check_solution(case, sol, exact_k=False),
                       float(sol.expansion / case.base))


class Worst:
    """``ssbve solve --algo worst`` with the CLI defaults (eps=0.1, branch
    cap 64, q_max=3) on uniform random 120x40 graphs, p=0.15, k=6."""

    name = "worst"
    pool_size = 160
    quality_cases = 160
    traced_cases = 16

    def __init__(self, seed: int) -> None:
        self.cases = []
        for s in case_seeds(seed, self.pool_size):
            g = generators.gen_random_bipartite(120, 40, 0.15, s)
            inst = SsbveInstance(graph=g, k=6)
            trivial = approx.trivial_ksubset(inst)
            self.cases.append(Case(
                seed=s, graph=g, k=6, text=formats.write_ssbve(inst),
                base=Fraction(max(1, trivial.neighborhood_size))))

    def op(self, case: Case):
        inst = formats.parse_ssbve(case.text)
        return approx.solve_worst_case(inst, eps=0.1, branch_cap=64,
                                       seed=case.seed, q_max=3)

    def check(self, case: Case, sol) -> Outcome:
        return Outcome(_check_solution(case, sol, exact_k=True),
                       float(sol.neighborhood_size / case.base))


class Certify:
    """``ssbve certify --kind sdp --n 1280 --s 384 --dl 2 --k 4`` followed by
    ``ssbve certify --kind sa --n 4096 --s 64 --dl 32 --rounds 1``."""

    name = "certify"
    pool_size = 1
    quality_cases = 1
    traced_cases = 1

    def __init__(self, seed: int) -> None:
        (s,) = case_seeds(seed, 1)
        self.cases = [Case(
            seed=s, graph=generators.gen_gap_instance(1280, 384, 2.0, s), k=4,
            sa_graph=generators.gen_gap_instance(4096, 64, 32.0, s))]

    def op(self, case: Case):
        # dl=2 is even, so the CLI's biregular targets are 3*2/2 = 3 on the
        # left and 3*1280*2/(2*384) = 10 on the right.
        capped = certs.cap_degrees(case.graph, 3, 10)
        sdp = certs.verify_sdp_certificate(certs.build_sdp_certificate(
            certs.biregularize(capped, 3, 10), case.k))
        cert = certs.build_sa_certificate(case.sa_graph, rounds=1)
        sa = certs.verify_sa_certificate(cert, mode="exhaustive",
                                         samples=10_000, seed=case.seed)
        props = certs.sample_property_checks(cert, 2000, seed=case.seed)
        return tuple((rep.passed, len(rep.checks), rep.max_violation,
                      rep.extra.get("gap_ratio"))
                     for rep in (sdp, sa, props))

    def check(self, case: Case, result) -> Outcome:
        (sdp_ok, _, _, sdp_gap), (sa_ok, _, _, sa_gap), (props_ok, *_) = \
            result
        ok = sdp_ok and sa_ok and props_ok and sdp_gap > 0 and sa_gap > 0
        quality = (1 / sdp_gap + 1 / sa_gap) / 2 if ok else float("nan")
        return Outcome(ok, quality)


WORKLOADS = {w.name: w for w in (Planted, Worst, Certify)}
