"""Seeded instance generators: uniform random bipartite graphs, the planted
low-expansion family, dense-vs-random hypergraphs, and the relaxation-gap
family.  Identical seeds produce identical instances on every platform (see
rng.py for the generator specification)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress, groupby
from math import comb, isfinite

from .errors import (ArityTooLargeError, InvalidExponentsError,
                     ProbabilityOutOfRangeError)
from .graph import BipartiteGraph, Hypergraph, SsbveInstance
from .rng import stream

SUBSET_SAMPLING_BUDGET = 10 ** 7
# Draws per bernoulli_bytes or randrange_many call, whose results are held
# at once; the random bipartite and planted generators round it down to
# whole rows (at least one).
DRAW_CHUNK = 1 << 14


def _round_size(x: float) -> int:
    """Nearest integer, minimum 1 (scale-stable size rounding)."""
    return max(1, round(x))


@dataclass(frozen=True)
class PlantedSpec:
    """Parameters and ground truth for the planted family.

    Left side has n vertices; the right side has round(n^beta).  A hidden set
    S of round(n^(1-alpha)) left vertices has all its edges resampled into a
    hidden target T of round(n^gamma) right vertices, so N(S) is a subset of
    T by construction.  The exponents need 0 <= alpha <= 1 and
    0 <= gamma < beta <= 1, so that |S| <= n and |T| <= |V| <= n.
    """

    n: int
    alpha: float
    beta: float
    gamma: float
    r_degree: int
    seed: int
    planted_s: tuple[int, ...] = ()
    planted_t: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # NaN fails every comparison, so it is rejected too.
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidExponentsError(f"alpha={self.alpha} outside [0, 1]")
        if not 0.0 <= self.gamma < self.beta <= 1.0:
            raise InvalidExponentsError(
                f"need 0 <= gamma < beta <= 1, got gamma={self.gamma}, "
                f"beta={self.beta}")
        if not self.n >= 1:
            raise InvalidExponentsError(f"n={self.n} below 1")
        if not self.r_degree >= 1:
            raise InvalidExponentsError(f"r_degree={self.r_degree} below 1")

    @property
    def k(self) -> int:
        return _round_size(self.n ** (1.0 - self.alpha))

    @property
    def n_right(self) -> int:
        return _round_size(self.n ** self.beta)

    @property
    def t_size(self) -> int:
        return _round_size(self.n ** self.gamma)


@dataclass(frozen=True)
class HdvrSpec:
    """Dense-vs-random r-uniform hypergraph parameters."""

    n: int
    r_edge: int
    alpha: float
    beta: float
    k_planted: int
    mode: str  # "random" | "planted"
    seed: int

    def __post_init__(self) -> None:
        # alpha <= r-1 keeps the ambient probability n^(alpha-(r-1)) <= 1.
        if not (isfinite(self.alpha) and self.alpha <= self.r_edge - 1):
            raise InvalidExponentsError(
                f"alpha={self.alpha} not finite or above "
                f"r-1={self.r_edge - 1}")
        if not 0 < self.beta < self.r_edge - 1:
            raise InvalidExponentsError(
                f"beta={self.beta} outside (0, r-1={self.r_edge - 1})")
        if not 1 <= self.k_planted <= self.n:
            raise InvalidExponentsError(
                f"k_planted={self.k_planted} outside [1, n={self.n}]")
        if self.mode not in ("random", "planted"):
            raise ValueError(f"unknown mode {self.mode!r}")


def gen_random_bipartite(n: int, s: int, p: float, seed: int) -> BipartiteGraph:
    """Each of the n*s potential edges present independently with prob. p,
    drawn row by row (left vertex u, then right vertex v)."""
    if not 0.0 <= p <= 1.0:
        raise ProbabilityOutOfRangeError(f"p={p} outside [0, 1]")
    rng = stream(seed, 0x6269)  # tag: bipartite
    # The rows straight from the 0/1 draws, a chunk of whole rows at a
    # time; every right id is taken from one list, so each is one object.
    right_ids = list(range(s))
    rows: list[tuple[int, ...]] = []
    per_chunk = max(1, DRAW_CHUNK // max(s, 1))
    for u0 in range(0, n, per_chunk):
        count = min(per_chunk, n - u0)
        bits = rng.bernoulli_bytes(count * s, p)
        rows += [tuple(compress(right_ids, bits[i * s:i * s + s]))
                 for i in range(count)]
    return BipartiteGraph.from_rows(s, rows)


def gen_planted(spec: PlantedSpec) -> tuple[SsbveInstance, PlantedSpec]:
    """Planted instance plus the spec with its ground-truth sets filled in.

    Every left vertex draws r_degree neighbors uniformly at random (with
    replacement, deduplicated afterwards): planted vertices draw from T,
    the rest from all of V.
    """
    n_right = spec.n_right
    k = spec.k
    t_size = spec.t_size
    r = spec.r_degree
    rng = stream(spec.seed, 0x706C)  # tag: planted
    planted_s = tuple(sorted(rng.sample_range(spec.n, k)))
    planted_t = tuple(sorted(rng.sample_range(n_right, t_size)))
    # Rows straight from the draws: each run of consecutive planted (or
    # unplanted) vertices draws its ids from T (or V) in one call per chunk
    # of whole rows.
    per_chunk = max(1, DRAW_CHUNK // r)
    rows: list[tuple[int, ...]] = []
    for planted, run in groupby(range(spec.n), set(planted_s).__contains__):
        size = sum(1 for _ in run)
        for done in range(0, size, per_chunk):
            count = min(per_chunk, size - done) * r
            if planted:
                draws = list(map(planted_t.__getitem__,
                                 rng.randrange_many(t_size, count)))
            else:
                draws = rng.randrange_many(n_right, count)
            rows += [tuple(sorted(set(draws[i:i + r])))
                     for i in range(0, count, r)]
    graph = BipartiteGraph.from_rows(n_right, rows)
    filled = replace(spec, planted_s=planted_s, planted_t=planted_t)
    return SsbveInstance(graph=graph, k=k), filled


def _unrank_combination(index: int, n: int, r: int) -> tuple[int, ...]:
    """index-th r-subset of [0, n) in colexicographic order."""
    out = []
    for i in range(r, 0, -1):
        # Largest c with C(c, i) <= index.
        c = i - 1
        while comb(c + 1, i) <= index:
            c += 1
        out.append(c)
        index -= comb(c, i)
    return tuple(sorted(out))


def _sample_r_subsets(rng, n: int, r: int, p: float) -> list[tuple[int, ...]]:
    """Binomial(C(n,r), p) distinct r-subsets drawn uniformly."""
    total = comb(n, r)
    if total > SUBSET_SAMPLING_BUDGET:
        raise ArityTooLargeError(
            f"C({n},{r})={total} exceeds the sampling budget")
    count = sum(rng.bernoulli_bytes(min(DRAW_CHUNK, total - start),
                                    p).count(1)
                for start in range(0, total, DRAW_CHUNK))
    chosen: set[int] = set()
    while len(chosen) < count:
        chosen.add(rng.randrange(total))
    return [_unrank_combination(i, n, r) for i in sorted(chosen)]


def gen_hdvr(spec: HdvrSpec) -> Hypergraph:
    """Random r-uniform hypergraph with ambient log-density alpha; in planted
    mode additionally plants hyperedges of log-density beta inside a uniform
    k_planted-subset (added to, not replacing, the ambient edges)."""
    if spec.r_edge > 4 and comb(spec.n, spec.r_edge) > SUBSET_SAMPLING_BUDGET:
        raise ArityTooLargeError(
            f"r={spec.r_edge} with n={spec.n} overflows the sampling budget")
    p_ambient = float(spec.n) ** (spec.alpha - (spec.r_edge - 1))
    rng = stream(spec.seed, 0x6864)  # tag: hdvr
    sets = _sample_r_subsets(rng, spec.n, spec.r_edge, p_ambient)
    if spec.mode == "planted":
        k = spec.k_planted
        members = sorted(rng.sample_range(spec.n, k))
        # k >= 1 and beta < r-1 keep this at most 1.
        p_plant = float(k) ** (spec.beta - (spec.r_edge - 1))
        for local in _sample_r_subsets(rng, k, spec.r_edge, p_plant):
            sets.append(tuple(members[i] for i in local))
    return Hypergraph.from_sets(spec.n, sets)


def gen_gap_instance(n: int, s: int, d_l: float, seed: int) -> BipartiteGraph:
    """Gap-family instance: random bipartite with edge probability d_l/s."""
    p = d_l / s
    if not 0.0 <= p <= 1.0:
        raise ProbabilityOutOfRangeError(
            f"d_l/s = {p} outside [0, 1] (d_l={d_l}, s={s})")
    return gen_random_bipartite(n, s, p, seed)
