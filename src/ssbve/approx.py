"""Approximation machinery for small-set bipartite vertex expansion.

The pipeline mirrors the caterpillar-guessing strategy that is exact on
planted random instances and degrades gracefully on arbitrary ones:

* preprocessing buckets left vertices by degree, pads each bucket to exact
  left-regularity, tries each guess of the optimum's neighborhood size on a
  geometric grid, optionally subsamples the left side to normalize the
  back-degree, and snaps the size exponent to a small rational p/q;
* a schedule of First / Hair / Backbone / Final steps is derived from p/q;
* each step either finishes early with a small low-expansion set or
  branches on a guessed right vertex (or a degree bin) and shrinks/regrows
  the working set;
* every collected at-most-k set is fed through the at-most -> exact-k
  conversion, and the best of everything (including baselines) wins.

A branch state is a working set plus the index of the step that reads it;
no step reads the guess path that led there.  `preprocess` gives each
distinct candidate once, with the seed tags of the t guesses that give it:
the guesses that do not subsample all give their bucket's candidate.  The
walks of one candidate share a step memo keyed by working set and step
index, so each First, Hair and Final step runs once per candidate, working
set and index, and guess paths that meet share one step call.  Backbone
steps stay out of it: they subsample their branches from the popped state's
seed, which differs between tags, and their LES work is already served by
the solve-scoped LES memo.  A schedule with no Backbone step thus walks one
fixed tree per candidate, and once one tag has walked all of it, the later
tags are skipped.

High-degree right vertices (the set V_D) are excluded from expansion targets
during the walk and re-absorbed only in final accounting; their total size is
bounded, so they cannot dominate the neighborhood of the output.
"""

from __future__ import annotations

import enum
import heapq
import logging
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, islice, product
from typing import Callable

from .errors import (InvalidParameterError, NotCoprimeError,
                     PreconditionViolatedError, SolverStalledError)
from .graph import (BipartiteGraph, Solution, SsbveInstance,
                    induced_left_subgraph, neighborhood)
from .les import least_expanding_set, least_expanding_subset, memo_scope
from .rng import mix64, stream

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class Step(enum.Enum):
    FIRST = "first"
    HAIR = "hair"
    BACKBONE = "backbone"
    FINAL = "final"


@dataclass(frozen=True)
class PreprocessedInstance:
    """Left-regular candidate with its guessed/derived analysis constants.

    left_ids maps candidate left indices back to the source instance; pad
    right vertices occupy indices >= the source right-side size.
    """

    graph: BipartiteGraph
    r: int
    k: int
    left_ids: tuple[int, ...]
    p: int
    q: int
    eps: float
    c: float
    v_d: frozenset[int]


@dataclass(frozen=True)
class BranchState:
    """A working set (ascending, duplicate-free left vertices of the
    candidate graph) and the index of the schedule step that reads it."""

    current: tuple[int, ...]
    step_index: int


@dataclass(frozen=True)
class Done:
    """A step's early exit: the chosen left vertices of the candidate graph,
    measured only once mapped back to the source graph."""

    chosen: tuple[int, ...]


StepResult = Done | tuple[BranchState, ...]


# ---------------------------------------------------------------------------
# Baselines and the at-most -> exact conversion
# ---------------------------------------------------------------------------

def _lowest_degree(g: BipartiteGraph, k: int) -> list[int]:
    """The k left vertices of smallest degree in that order, ties by id
    (nsmallest is stable), without sorting all of them."""
    return heapq.nsmallest(k, range(g.n), key=g.degree_left)


def _trim_lex(chosen, k: int) -> tuple[int, ...]:
    return tuple(sorted(chosen)[:k])


def trivial_ksubset(inst: SsbveInstance) -> Solution:
    """The k left vertices of smallest degree (greedy arbitrary-set bound)."""
    return Solution.from_set(inst.graph, _lowest_degree(inst.graph, inst.k))


def exact_from_atmost(
        inst: SsbveInstance,
        atmost_solver: Callable[[SsbveInstance], Solution]) -> Solution:
    """Exactly-k solution from an at-most-k solver: repeatedly solve on the
    residual instance, remove the chosen vertices, and accumulate until k are
    chosen (the final batch is truncated lexicographically)."""
    g = inst.graph
    remaining = list(range(g.n))
    accumulated: list[int] = []
    budget = inst.k
    while budget > 0:
        sub, ids = induced_left_subgraph(g, remaining)
        sol = atmost_solver(SsbveInstance(graph=sub, k=min(budget, sub.n)))
        if not sol.chosen:
            raise SolverStalledError("at-most solver returned an empty set")
        batch = _trim_lex((ids[u] for u in sol.chosen), budget)
        accumulated.extend(batch)
        budget -= len(batch)
        drop = set(batch)
        remaining = [u for u in remaining if u not in drop]
    return Solution.from_set(g, accumulated)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

Bucket = tuple[BipartiteGraph, int, int, tuple[int, ...]]


def bucket_and_regularize(inst: SsbveInstance) -> list[Bucket]:
    """One left-regular (graph, r, k, left_ids) per nonempty degree bucket
    (2^(i-1), 2^i].

    The bucket's induced subgraph is padded with r fresh right vertices so
    every left degree becomes exactly r = 2^i; pad edges are assigned
    round-robin.  Degree-0 vertices are excluded (they are a free win that
    the baselines always pick up).  The budget is clamped to the bucket size.
    """
    g = inst.graph
    buckets: dict[int, list[int]] = {}
    for u in range(g.n):
        deg = g.degree_left(u)
        if deg == 0:
            continue
        buckets.setdefault((deg - 1).bit_length(), []).append(u)
    out = []
    for i in sorted(buckets):
        members = buckets[i]
        r = 1 << i
        rows: list[tuple[int, ...]] = []
        cursor = 0
        for u in members:
            nbrs = g.adj_left[u]
            deficiency = r - len(nbrs)
            # Pad ids all exceed the real ones and are distinct (deficiency
            # < r), so sorting just the pad keeps the row sorted.
            rows.append(nbrs + tuple(sorted(
                g.n_right + (cursor + j) % r for j in range(deficiency))))
            cursor += deficiency
        padded = BipartiteGraph.from_rows(g.n_right + r, rows)
        out.append((padded, r, min(inst.k, len(members)), tuple(members)))
    return out


def solve_gamma(d: float, n: int, k: int, alpha: float, eps: float) -> float:
    """Subsampling exponent: the gamma in [0, log_n d] where the rescaled
    back-degree d*n^-gamma meets (n^(1-alpha-gamma))^(alpha/(1-gamma)+eps),
    found by bisection to 1e-9; 0.0 (no subsampling) when k or n is below 2,
    d is at most k^(alpha+eps), or the two sides do not cross there."""
    if k < 2 or n < 2 or d <= k ** (alpha + eps):
        return 0.0

    ln_n = math.log(n)

    def f(gamma: float) -> float:
        k_gamma = n ** (1.0 - alpha - gamma)
        rhs = k_gamma ** (alpha / (1.0 - gamma) + eps)
        return d * n ** (-gamma) - rhs

    # gamma = 1 would leave ~1 survivor and divides by zero in the exponent;
    # the cap only matters for degenerate k = n candidates.
    hi = min(math.log(d) / ln_n, 1.0 - 1e-9)
    lo = 0.0
    if f(lo) < 0 or f(hi) > 1e-12:
        return 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def subsample_left(g: BipartiteGraph, gamma: float,
                   seed: int) -> tuple[BipartiteGraph, tuple[int, ...]]:
    """Retain each left vertex independently with probability n^-gamma;
    returns the induced graph and the kept vertices' ids in g."""
    gamma = min(max(gamma, 0.0), 1.0)  # cap: expected survivors >= 1
    if gamma == 0.0 or g.n == 0:
        return g, tuple(range(g.n))
    p_keep = float(g.n) ** (-gamma)
    rng = stream(seed, 0x7375)
    kept = list(compress(range(g.n), rng.bernoulli_bytes(g.n, p_keep)))
    if not kept:
        kept = [0]
    return induced_left_subgraph(g, kept)


def _snap_alpha(alpha: float, q_max: int) -> tuple[int, int]:
    """Nearest p/q with 0 < p < q <= q_max, coprime; ties prefer smaller q."""
    best: tuple[float, int, int] | None = None
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            key = (abs(alpha - p / q), q, p)
            if best is None or key < best:
                best = key
    assert best is not None
    return best[2], best[1]


def pruning_constant(p: int, q: int, eps: float) -> float:
    """c strictly inside all three schedule constraints."""
    bounds = [0.5, q / (p + 2 * q - 2)]
    if eps > 0:
        bounds.append(1.0 / (q * q * eps))
    return 0.9 * min(bounds)


def _check_parameters(eps: float, q_max: int) -> None:
    """Reject a q_max with no exponent p/q to snap to, and an eps that is
    not a finite nonnegative number (NaN would make every threshold
    comparison false)."""
    if q_max < 2:
        raise InvalidParameterError(f"q_max must be at least 2, got {q_max}")
    if not 0.0 <= eps < math.inf:
        raise InvalidParameterError(
            f"eps must be finite and nonnegative, got {eps}")


def _alpha(n: int, k: int) -> float:
    """The size exponent alpha with k = n^(1-alpha), 0 when k >= n."""
    return math.log(n / k) / math.log(n) if k < n else 0.0


def preprocess(inst: SsbveInstance, eps: float, q_max: int = 3, seed: int = 0
               ) -> list[tuple[PreprocessedInstance, list[int]]]:
    """Full preprocessing: bucket+regularize, guess the optimum neighborhood
    size on the geometric grid {r*2^j}, subsample when the derived
    back-degree overshoots, snap the exponent, and compute the pruning
    constants and the high-degree right set V_D.

    Returns each distinct candidate once, in order of first tag, with the
    seed tags (0, 1, ... in (bucket, t) order) of the t guesses that give
    it: a subsampled guess gives its own candidate, the others their
    bucket's.  Raises InvalidParameterError for q_max < 2 or a negative or
    non-finite eps."""
    _check_parameters(eps, q_max)
    out: list[tuple[PreprocessedInstance, list[int]]] = []
    tags = count()
    for cand_idx, (g, r, k, ids) in enumerate(bucket_and_regularize(inst)):
        if g.n < 2 or k < 1:
            continue
        own: list[int] = []  # tags of the guesses that do not subsample
        t = r
        while t <= g.n_right:
            gamma = solve_gamma(k * r / t, g.n, k, _alpha(g.n, k), eps)
            if gamma <= 1e-12:
                if not own:
                    out.append((_candidate(g, r, k, ids, eps, q_max), own))
                own.append(next(tags))
            else:
                sub, kept = subsample_left(g, gamma,
                                           mix64(seed ^ cand_idx ^ t))
                if sub.n >= 2:
                    k_sub = max(1, min(sub.n, round(k * g.n ** (-gamma))))
                    out.append((_candidate(sub, r, k_sub,
                                           tuple(ids[u] for u in kept),
                                           eps, q_max), [next(tags)]))
            t *= 2
    return out


def _candidate(g: BipartiteGraph, r: int, k: int, ids: tuple[int, ...],
               eps: float, q_max: int) -> PreprocessedInstance:
    """A left-regular graph with its snapped exponent p/q, pruning constant
    c and high-degree right set V_D."""
    p, q = _snap_alpha(_alpha(g.n, k), q_max)
    c = pruning_constant(p, q, eps)
    cap_d = g.n / k ** (1.0 - c * eps)
    v_d = frozenset(v for v, row in enumerate(g.adj_right)
                    if len(row) >= cap_d)
    return PreprocessedInstance(
        graph=g, r=r, k=k, left_ids=ids, p=p, q=q, eps=eps, c=c, v_d=v_d)


# ---------------------------------------------------------------------------
# Caterpillar schedule
# ---------------------------------------------------------------------------

def caterpillar_schedule(p: int, q: int) -> tuple[Step, ...]:
    """First, then per j in 2..q-1 a Hair step iff ((j-1)p/q, jp/q) contains
    an integer (else Backbone), then Final."""
    if not (0 < p < q) or math.gcd(p, q) != 1:
        raise NotCoprimeError(f"need coprime 0 < p < q, got p={p}, q={q}")
    steps = [Step.FIRST]
    for j in range(2, q):
        # Endpoints (j-1)p/q, jp/q are non-integral for 1 < j < q, so the
        # open interval contains an integer iff the floors differ.
        if (j * p) // q > ((j - 1) * p) // q:
            steps.append(Step.HAIR)
        else:
            steps.append(Step.BACKBONE)
    steps.append(Step.FINAL)
    return tuple(steps)


# ---------------------------------------------------------------------------
# Planted-instance solver
# ---------------------------------------------------------------------------

def solve_planted(inst: SsbveInstance, p: int, q: int, branch_cap: int,
                  seed: int) -> Solution:
    """Caterpillar walk for planted-style instances.

    Guesses a start vertex v (W = N(v)); Backbone steps replace W by its
    two-hop left set N(N(W)); Hair steps intersect W with the neighborhood of
    a fresh guess; after step q-1 the least-expanding-set solver runs on the
    graph induced on (W, V) and the result is trimmed to k vertices.  All
    guess tuples are enumerated when their number is at most branch_cap,
    otherwise branch_cap tuples are sampled uniformly.
    """
    g = inst.graph
    k = inst.k
    inner = caterpillar_schedule(p, q)[1:-1]
    n_picks = 1 + sum(1 for s in inner if s is Step.HAIR)
    if g.n_right == 0:
        return trivial_ksubset(inst)
    total = g.n_right ** n_picks
    if total <= branch_cap:
        tuples = product(range(g.n_right), repeat=n_picks)
    else:
        rng = stream(seed, 0x706C61)
        tuples = (tuple(rng.randrange(g.n_right) for _ in range(n_picks))
                  for _ in range(branch_cap))
    best: Solution | None = None
    for picks in tuples:
        w = set(g.adj_right[picks[0]])
        gi = 1
        for step in inner:
            if not w:
                break
            if step is Step.BACKBONE:
                w = set().union(*(g.adj_right[v] for v in neighborhood(g, w)))
            else:  # HAIR
                w &= set(g.adj_right[picks[gi]])
                gi += 1
        if not w:
            continue
        sol = least_expanding_subset(g, w)
        trimmed = _trim_lex(sol.chosen, k)
        measured = Solution.from_set(g, trimmed)
        if best is None or measured.sort_key() < best.sort_key():
            best = measured
    return best if best is not None else trivial_ksubset(inst)


# ---------------------------------------------------------------------------
# Worst-case step operations
# ---------------------------------------------------------------------------

def _thr(value: float) -> float:
    """Degenerate guard: expansion thresholds are floored at 1."""
    return max(1.0, value)


def first_step(pre: PreprocessedInstance) -> StepResult:
    """Either most of the optimum hides behind V_D (return k vertices whose
    neighborhoods outside V_D are tiny), or branch on a start guess."""
    g, r, k, c, eps = pre.graph, pre.r, pre.k, pre.c, pre.eps
    thr = _thr(r / (2.0 * k ** (c * eps)))
    adj, v_d = g.adj_left, pre.v_d
    # Rows are duplicate-free, so this counts the neighbours outside V_D.
    u_d = [u for u in range(g.n)
           if len(adj[u]) - len(v_d.intersection(adj[u])) <= thr]
    if len(u_d) >= k / 2 and u_d:
        return Done(tuple(u_d[:min(len(u_d), k)]))
    states = []
    for v in range(g.n_right):
        if v in pre.v_d or not g.adj_right[v]:
            continue
        states.append(BranchState(current=g.adj_right[v], step_index=1))
    return tuple(states)


def hair_step(pre: PreprocessedInstance, st: BranchState) -> StepResult:
    """Degree classification relative to the working set, then either an
    early exit (big calm core, or small-expansion set) or one branch per
    admissible guess, each shrinking the working set."""
    g, r, k, c, eps = pre.graph, pre.r, pre.k, pre.c, pre.eps
    d_hat = len(st.current) / k ** (1.0 - c * eps)
    thr = _thr(r / k ** (c * eps))
    adj = g.adj_left
    counts = Counter(chain.from_iterable(adj[u] for u in st.current))
    v_hat_d = {v for v, cnt in counts.items() if cnt >= d_hat}
    # The scan stops at k calm vertices; fewer means it saw every one.
    u_d = list(islice(
        (u for u in st.current
         if len(adj[u]) - len(v_hat_d.intersection(adj[u])) <= thr), k))
    if len(u_d) >= k:
        return Done(tuple(u_d))
    if u_d:
        sol = least_expanding_subset(g, u_d)
        if sol.expansion <= Fraction(thr):
            return Done(sol.chosen)
    u_hat = set(st.current)
    states = []
    # Only a right vertex that meets the working set gives a nonempty branch.
    for v in sorted(counts):
        if v in v_hat_d:
            continue
        cur = tuple(sorted(u_hat.intersection(g.adj_right[v])))
        states.append(BranchState(current=cur, step_index=st.step_index + 1))
    return tuple(states)


def backbone_step(pre: PreprocessedInstance, st: BranchState,
                  seed: int) -> StepResult:
    """Two-hop regrowth: either the working set already expands mildly into
    V \\ V_D, or its two-hop neighborhood is binned by degree into N(U-hat)'s
    span and each bin is subsampled into a branch."""
    g, r, k, c, eps = pre.graph, pre.r, pre.k, pre.c, pre.eps
    if len(st.current) > k:
        raise PreconditionViolatedError(
            f"backbone step needs |current| <= k ({len(st.current)} > {k})")
    thr = _thr(r / k ** (c * eps))
    v_hat = neighborhood(g, st.current) - pre.v_d
    sol = least_expanding_subset(g, st.current, forbidden_right=pre.v_d)
    if sol.expansion <= Fraction(thr):
        return Done(sol.chosen)
    if not v_hat:
        return ()
    reach = set().union(*[g.adj_right[v] for v in v_hat])
    # Each two-hop vertex with its number of neighbours in V-hat.
    hits = [(u, len(v_hat.intersection(g.adj_left[u])))
            for u in sorted(reach)]
    states = []
    n_bins = max(1, math.ceil(math.log2(r))) if r > 1 else 1
    for i in range(1, n_bins + 1):
        r_i = r / 2.0 ** (i - 1)
        members = [u for u, h in hits if r_i / 2.0 <= h <= r_i]
        if not members:
            continue
        keep_p = r_i / r
        rng = stream(seed, 0x6262, i)
        kept = tuple(compress(members,
                              rng.bernoulli_bytes(len(members), keep_p)))
        if kept:
            states.append(BranchState(current=kept,
                                      step_index=st.step_index + 1))
    return tuple(states)


def final_step(pre: PreprocessedInstance, st: BranchState) -> tuple[int, ...]:
    """Least expanding subset of the working set with V_D masked, trimmed to
    k; the caller measures it against the source graph's full right side."""
    sol = least_expanding_subset(pre.graph, st.current,
                                 forbidden_right=pre.v_d)
    return _trim_lex(sol.chosen, pre.k)


# ---------------------------------------------------------------------------
# Worst-case orchestration
# ---------------------------------------------------------------------------

def _run_candidate(pre: PreprocessedInstance, schedule: tuple[Step, ...],
                   branch_cap: int, seed: int, cand_tag: int, memo: dict
                   ) -> tuple[list[tuple[int, ...]], bool]:
    """Best-first branch exploration with a pop budget; returns the chosen
    sets it collects, in candidate-graph ids, and whether it walked the
    whole tree (its heap emptied within the budget).

    Each state is keyed by a priority derived from its guess path alone, so
    raising branch_cap extends the pop sequence without reordering it and
    the collected set list only grows.

    `memo` holds the first, hair and final step results of `pre`, shared
    by the walks of its seed tags (see `preprocess`).  A branch state is a
    working set plus a step index, and a result depends only on `pre` and
    the state, so the memo is keyed by the state and a stored result is
    exactly what a fresh call would return; guess paths that meet in one
    working set at one step share one step call.  Backbone steps stay out:
    their branches are subsampled from the popped state's seed, which
    differs between tags (their LES work is served by the `les` memo).
    """
    collected: list[tuple[int, ...]] = []
    res = memo.get(())
    if res is None:
        res = memo[()] = first_step(pre)
    if isinstance(res, Done):
        collected.append(res.chosen)
        return collected, True
    heap: list[tuple[int, int, int, BranchState]] = []
    seq = 0

    def push(states, parent_seed: int) -> None:
        nonlocal seq
        for ordinal, state in enumerate(states):
            child_seed = mix64(parent_seed ^ mix64(ordinal + 1))
            heapq.heappush(heap, (mix64(child_seed), seq, child_seed, state))
            seq += 1

    root_seed = mix64(seed ^ mix64(cand_tag))
    push(res, root_seed)
    pops = 0
    while heap and pops < branch_cap:
        _, _, state_seed, state = heapq.heappop(heap)
        pops += 1
        step = schedule[state.step_index]
        if step is Step.BACKBONE:
            try:
                out = backbone_step(pre, state, seed=state_seed)
            except PreconditionViolatedError as exc:
                logger.debug("dropping branch: %s", exc)
                continue
        else:
            key = (state.current, state.step_index)
            out = memo.get(key)
            if out is None:
                out = memo[key] = final_step(pre, state) \
                    if step is Step.FINAL else hair_step(pre, state)
            if step is Step.FINAL:
                collected.append(out)
                continue
        if isinstance(out, Done):
            collected.append(out.chosen)
        else:
            push(out, state_seed)
    return collected, not heap


def les_exactly_k(inst: SsbveInstance) -> Solution:
    """Least expanding set trimmed lexicographically, or padded with the
    smallest-degree vertices, to exactly k vertices."""
    g, k = inst.graph, inst.k
    chosen = list(least_expanding_set(g).chosen)
    if len(chosen) > k:
        chosen = _trim_lex(chosen, k)
    elif len(chosen) < k:
        # The first k - |chosen| vertices outside the LES in degree order
        # all lie among the k of smallest degree.
        have = set(chosen)
        extras = [u for u in _lowest_degree(g, k) if u not in have]
        chosen.extend(extras[:k - len(chosen)])
    return Solution.from_set(g, chosen)


def _best_atmost(inst: SsbveInstance, eps: float, q_max: int,
                 branch_cap: int, seed: int) -> Solution:
    """Best at-most-k set over the caterpillar pipeline plus fallbacks."""
    g, k = inst.graph, inst.k
    candidates: list[Solution] = []
    # min keeps the first of equal keys, so a repeated set cannot win.
    measured: set[tuple[int, ...]] = set()
    for pre, tags in preprocess(inst, eps, q_max=q_max, seed=seed):
        schedule = caterpillar_schedule(pre.p, pre.q)
        memo: dict = {}
        for tag in tags:
            sets, whole = _run_candidate(pre, schedule, branch_cap, seed, tag,
                                         memo)
            for chosen in sets:
                mapped = _trim_lex((pre.left_ids[u] for u in chosen), k)
                if mapped not in measured:
                    measured.add(mapped)
                    candidates.append(Solution.from_set(g, mapped))
            # Without a backbone step every step is memoised, so each tag
            # walks the same tree; once one walk has emptied its heap, a
            # later tag could only collect sets already measured.
            if whole and Step.BACKBONE not in schedule:
                break
    les_sol = least_expanding_set(g)
    candidates.append(Solution.from_set(g, _trim_lex(les_sol.chosen, k)))
    lowest = _lowest_degree(g, k)
    candidates.append(Solution.from_set(g, lowest))
    candidates.append(Solution.from_set(g, lowest[:1]))
    return min(candidates, key=Solution.sort_key)


def solve_worst_case(inst: SsbveInstance, eps: float = 0.1,
                     branch_cap: int = 64, seed: int = 0,
                     q_max: int = 3) -> Solution:
    """Best exactly-k solution over the full pipeline and the baselines.

    LES subproblems repeat across branches and at-most rounds; one memo
    (`les.memo_scope`) serves the whole solve and ends with it.  Within one
    at-most round, `preprocess` gives each distinct candidate once with the
    seed tags of its t guesses, and the walks of its tags share a step
    memo, so each first, hair and final step runs once per candidate,
    working set and step index (see `_run_candidate`); backbone steps run
    on every pop, since their branches depend on the popped state's seed.

    Raises InvalidParameterError for q_max < 2 or a negative or non-finite
    eps, before any work."""
    _check_parameters(eps, q_max)

    def inner(sub: SsbveInstance) -> Solution:
        return _best_atmost(sub, eps, q_max, branch_cap, seed)

    with memo_scope():
        pipeline = exact_from_atmost(inst, inner)
        candidates = [pipeline, trivial_ksubset(inst), les_exactly_k(inst)]
    return min(candidates,
               key=lambda s: (s.neighborhood_size, s.chosen))
