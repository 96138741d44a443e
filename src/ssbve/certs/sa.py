"""Lifted-LP certificate built from cover costs.

Vertices get global ids: left vertices are 0..n-1, right vertices are
n..n+s-1.  For a subset S, write S_U = S intersect U and
S_V = (S intersect V) minus N(S_U).  A cover of S is a pair (T, S') where T
is a tree (containing at least one U vertex when nonempty), S' is a subset
of S_V, and every vertex of S_U union S_V lies in T or S'.  Its cost is
|T intersect U| + |S'|, plus 1 when the tree is nonempty; the +1 is charged
only for nonempty trees, which is the only convention consistent with the
required x_empty = 1 and with the singleton right-vertex value.

The certificate value of a subset is then

    x_S = beta^{|S_U|} * alpha^{|S_V|} * n^(-cost(S)/4)

with alpha = 1/(2(rounds+1)) and beta = alpha^(rounds+1); lifted pair values
x_{S,T} follow by inclusion-exclusion.  When n is a perfect fourth power all
values are exact rationals; otherwise they are 60-digit mpmath floats
from a private mpmath context, so the process-wide precision is never
changed.

Verification at one round scales to large instances through exact
class-based accounting: singleton and pairwise cover costs collapse to a
fixed set of structural classes (one per side for singletons; adjacency,
common-neighbor, and the rare far-apart pairs, which are routed through the
general Steiner search), so every constraint instance is covered by a
handful of exact class inequalities plus counts over the graph's
right-vertex bitsets, which each verification builds once.  The pair
tiers test membership on the sorted adjacency tuples; no per-vertex set is
kept.  Singleton values are each side's structural class value, patched
with the singleton entries of x_table, and are grouped into value classes
(more than one per side only when x_table overrides a value); the sum of
the left values, the level-1 bounds and the top-level value bounds are
checked once per class.  A left vertex's near partners come from a two-hop
bitset that stops growing once it holds every left vertex, so only
vertices with far partners pay for the cover search.  The cardinality rows
are class rows: one report row per family for each class of vertices whose
rows agree, with the class size as its count.  The edge class rows assume
one value per side: a certificate with overridden singleton values fails
the singleton-uniform row instead of being scanned edge by edge.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import mpmath

from ..errors import BudgetExceededError, NoCoverError, SizeExceededError
from ..graph import BipartiteGraph
from ..rng import stream
from .report import VerifyReport

_INF = float("inf")


# ---------------------------------------------------------------------------
# Global-id graph view and the Steiner subroutine
# ---------------------------------------------------------------------------

class _View:
    """Combined adjacency over global ids: one sorted tuple per vertex.  No
    per-vertex sets: the pair tiers and the path search test membership on
    the tuples and build a set only for the pair at hand."""

    def __init__(self, g: BipartiteGraph) -> None:
        n = self.n = g.n
        self.total = n + g.n_right
        self.adj: list[tuple[int, ...]] = [
            tuple([v + n for v in row]) for row in g.adj_left
        ] + list(g.adj_right)

    def is_u(self, w: int) -> bool:
        return w < self.n

    def weight(self, w: int) -> int:
        return 1 if w < self.n else 0


def _forced(view: _View, subset) -> set[int]:
    """N(S_U): the right vertices adjacent to the left vertices of subset."""
    forced: set[int] = set()
    for w in subset:
        if w < view.n:
            forced.update(view.adj[w])
    return forced


def _path_ucount(view: _View, a: int, b: int) -> int:
    """Minimum number of U vertices on a path from a to b, endpoints
    included.  Exact tiers for the common cases, 0/1-BFS otherwise."""
    if a == b:
        return view.weight(a)
    adj = view.adj
    au, bu = view.is_u(a), view.is_u(b)
    if au != bu:
        u, v = (a, b) if au else (b, a)
        if v in adj[u]:
            return 1
        near_u = set(adj[u])
        for mid in adj[v]:
            if mid != u and not near_u.isdisjoint(adj[mid]):
                return 2
    elif not set(adj[a]).isdisjoint(adj[b]):
        return 2 if au else 1
    return _bfs01(view, a, b)


def _bfs01(view: _View, a: int, b: int) -> int:
    dist = [-1] * view.total
    dist[a] = view.weight(a)
    dq = deque([a])
    while dq:
        x = dq.popleft()
        if x == b:
            return dist[x]
        for y in view.adj[x]:
            cost = dist[x] + view.weight(y)
            if dist[y] == -1 or cost < dist[y]:
                dist[y] = cost
                if view.weight(y):
                    dq.append(y)
                else:
                    dq.appendleft(y)
    raise NoCoverError(f"vertices {a} and {b} are disconnected")


def _steiner_ucount(view: _View, terminals: tuple[int, ...]) -> int:
    """Minimum |T intersect U| over trees T containing all terminals and at
    least one U vertex.

    Two or more distinct terminals force a U vertex automatically (V-V edges
    do not exist); a lone V terminal is joined to one neighbor.
    """
    t = len(terminals)
    if t == 0:
        return 0
    if t == 1:
        w = terminals[0]
        if view.is_u(w):
            return 1
        if not view.adj[w]:
            raise NoCoverError(f"right vertex {w} is isolated")
        return 1
    if t == 2:
        return _path_ucount(view, terminals[0], terminals[1])
    return _steiner_dp(view, terminals)


def _steiner_dp(view: _View, terminals: tuple[int, ...]) -> int:
    """Dreyfus-Wagner over terminal subsets with 0/1 node weights."""
    t = len(terminals)
    full = (1 << t) - 1
    big = view.n + 1
    dp = [[big] * view.total for _ in range(full + 1)]
    for i, term in enumerate(terminals):
        dp[1 << i][term] = view.weight(term)
    for mask in range(1, full + 1):
        row = dp[mask]
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:  # each split once
                a, b = dp[sub], dp[other]
                for v in range(view.total):
                    cand = a[v] + b[v] - view.weight(v)
                    if cand < row[v]:
                        row[v] = cand
            sub = (sub - 1) & mask
        # Dijkstra relaxation with node costs.
        heap = [(row[v], v) for v in range(view.total) if row[v] < big]
        heapq.heapify(heap)
        while heap:
            d, x = heapq.heappop(heap)
            if d > row[x]:
                continue
            for y in view.adj[x]:
                nd = d + view.weight(y)
                if nd < row[y]:
                    row[y] = nd
                    heapq.heappush(heap, (nd, y))
    best = min(dp[full])
    if best >= big:
        raise NoCoverError(f"terminals {terminals} are disconnected")
    return best


def cover_cost(g: BipartiteGraph, subset, view: _View | None = None) -> int:
    """Minimum cover cost of a global-id vertex subset (see module docs)."""
    if view is None:
        view = _View(g)
    return _cover_cost(view, frozenset(subset))


def _cover_cost(view: _View, subset: frozenset[int]) -> int:
    s_u = tuple(sorted(w for w in subset if w < view.n))
    forced = _forced(view, s_u)
    s_v = tuple(sorted(w for w in subset if w >= view.n and w not in forced))
    if not s_u and not s_v:
        return 0
    best: int | None = None
    for keep in range(1 << len(s_v)):
        s_prime = [s_v[i] for i in range(len(s_v)) if keep >> i & 1]
        terminals = s_u + tuple(v for v in s_v if v not in s_prime)
        if not terminals:
            cand = len(s_prime)
        else:
            try:
                cand = _steiner_ucount(view, terminals) + len(s_prime) + 1
            except NoCoverError:
                continue
        if best is None or cand < best:
            best = cand
    if best is None:
        raise NoCoverError(f"no cover exists for {sorted(subset)}")
    return best


# ---------------------------------------------------------------------------
# Certificate
# ---------------------------------------------------------------------------

# Float-mode values are built in this 60-digit context; mpmath numbers
# carry their context, so arithmetic on them keeps 60 digits whatever
# `mpmath.mp.dps` is.
_MP = mpmath.MPContext()
_MP.dps = 60


@dataclass
class SaCertificate:
    graph: BipartiteGraph
    rounds: int
    sa_alpha: Fraction
    sa_beta: Fraction
    k: int
    exact: bool          # n is a perfect fourth power
    quarter_root: int    # n^(1/4) when exact
    x_table: dict = field(default_factory=dict)
    cost_table: dict = field(default_factory=dict)
    # x_S depends on S only through key(S) = (|S_U|, |S_V|, cost(S)); the
    # value of each class is computed once, and so is each lift, keyed by
    # the classes of its inclusion-exclusion terms.
    class_table: dict = field(default_factory=dict)
    lift_table: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.view = _View(self.graph)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def s(self) -> int:
        return self.graph.n_right

    def key(self, subset: frozenset[int]) -> tuple[int, int, int]:
        """Cover class (|S_U|, |S_V|, cost(S)) of a subset.

        Singletons and pairs take their structural tier: a left vertex costs
        2 (itself in a tree) and a right one 1 (itself in S'), whether
        isolated or not; a left-right pair costs 2 when adjacent (the right
        vertex is then forced) and 3 otherwise, two right vertices cost 2,
        and two left vertices with a common neighbor cost 3.  Far-apart left
        pairs and larger sets run the general cover search, memoised by
        subset."""
        n = self.n
        size = len(subset)
        if size == 1:
            (w,) = subset
            return (1, 0, 2) if w < n else (0, 1, 1)
        if size == 2:
            a, b = subset
            if a > b:
                a, b = b, a
            adj = self.view.adj
            if b < n:
                if not set(adj[a]).isdisjoint(adj[b]):
                    return (2, 0, 3)
            elif a < n:
                return (1, 0, 2) if b in adj[a] else (1, 1, 3)
            else:
                return (0, 2, 2)
        s_u = [w for w in subset if w < n]
        n_v = size - len(s_u)
        if s_u and n_v:  # drop the right vertices that S_U forces
            forced = _forced(self.view, s_u)
            n_v = sum(1 for w in subset if w >= n and w not in forced)
        cost = self.cost_table.get(subset)
        if cost is None:
            cost = self.cost_table[subset] = _cover_cost(self.view, subset)
        return len(s_u), n_v, cost

    def scale(self, cost: int):
        """n^(-cost/4), exact when possible."""
        if self.exact:
            return Fraction(1, self.quarter_root ** cost)
        return _MP.mpf(self.n) ** (_MP.mpf(-cost) / 4)

    def x_value(self, subset):
        subset = frozenset(subset)
        if len(subset) > self.rounds + 1:
            raise SizeExceededError(
                f"|S|={len(subset)} exceeds rounds+1={self.rounds + 1}")
        got = self.x_table.get(subset)
        if got is None:
            got = self.x_table[subset] = self.class_value(self.key(subset))
        return got

    def class_value(self, key: tuple[int, int, int]):
        """The value of a cover class, as class_table holds it."""
        got = self.class_table.get(key)
        if got is None:
            n_u, n_v, cost = key
            base = self.sa_beta ** n_u * self.sa_alpha ** n_v
            scale = self.scale(cost)
            got = base * scale if self.exact else _MP.mpf(
                base.numerator) / base.denominator * scale
            self.class_table[key] = got
        return got

    @property
    def tolerance(self) -> float:
        """0 in exact mode; rounding headroom for the 60-digit float mode."""
        return 0.0 if self.exact else 1e-40

    @property
    def objective(self):
        total = 0
        for v in range(self.s):
            total += self.x_value([self.n + v])
        return total


def build_sa_certificate(g: BipartiteGraph, rounds: int) -> SaCertificate:
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    n = g.n
    alpha = Fraction(1, 2 * (rounds + 1))
    beta = alpha ** (rounds + 1)
    k = max(1, round(beta * math.sqrt(n) / 4))
    root = round(n ** 0.25)
    exact = root ** 4 == n
    return SaCertificate(graph=g, rounds=rounds, sa_alpha=alpha,
                         sa_beta=beta, k=k, exact=exact,
                         quarter_root=root if exact else 0)


def sa_lift_value(cert: SaCertificate, s_set, t_set):
    """x_{S,T} = sum over J subset of T of (-1)^|J| x_{S union J}.

    The sum depends only on the classes of its terms, so each distinct
    tuple of term classes is summed once per certificate.  A term whose
    value in x_table differs from its class value (a value set by hand)
    makes the lift its own: it is summed from its terms and not stored."""
    s_set = frozenset(s_set)
    t_set = tuple(sorted(set(t_set)))
    if len(s_set) + len(t_set) > cert.rounds + 1:
        raise SizeExceededError(
            f"|S|+|T| = {len(s_set) + len(t_set)} exceeds rounds+1")
    if not t_set:
        return cert.x_value(s_set)
    terms = [(r % 2, s_set.union(j)) for r in range(len(t_set) + 1)
             for j in combinations(t_set, r)]
    classes = tuple(cert.key(term) for _, term in terms)
    shared = all(cert.x_table.get(term, value) == value for (_, term), value
                 in zip(terms, map(cert.class_table.get, classes)))
    total = cert.lift_table.get(classes) if shared else None
    if total is None:
        total = 0
        for odd, term in terms:
            x = cert.x_value(term)
            total = total - x if odd else total + x
        if shared:
            cert.lift_table[classes] = total
    return total


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_sa_certificate(cert: SaCertificate, mode: str = "exhaustive",
                          samples: int = 10_000, seed: int = 0,
                          budget: int = 20_000) -> VerifyReport:
    """Check the lifted-LP constraints.

    exhaustive: every constraint at levels |S|+|T| <= rounds, plus the
    value bounds at level rounds+1: every realised top-level class at
    rounds=1, sampled at rounds >= 2.  One-round certificates use the
    exact class-based fast path (any instance size); deeper certificates
    enumerate naively and require sum_j C(n+s, j) <= budget.

    sampled: `samples` random (S,T) pairs across all levels.
    """
    rep = VerifyReport(tolerance=cert.tolerance)
    rep.extra = {
        "kind": "sa",
        "params": {"n": cert.n, "s": cert.s, "k": cert.k,
                   "rounds": cert.rounds,
                   "alpha": float(cert.sa_alpha),
                   "beta": float(cert.sa_beta)},
    }
    x_empty = cert.x_value(frozenset())
    rep.add("x-empty", float(x_empty), 1.0, abs(float(x_empty) - 1.0))

    if mode == "exhaustive":
        if cert.rounds == 1:
            _verify_one_round(cert, rep)
        else:
            total = sum(math.comb(cert.n + cert.s, j)
                        for j in range(cert.rounds + 1))
            if total > budget:
                raise BudgetExceededError(
                    f"exhaustive base-set count {total} exceeds {budget}")
            _verify_naive(cert, rep, samples, seed)
    elif mode == "sampled":
        _verify_sampled(cert, rep, samples, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    objective = cert.objective
    lb = min(cert.k, cert.s) / 2
    rep.extra["objective"] = float(objective)
    if cert.exact:
        rep.extra["objective_exact"] = str(objective)
    rep.extra["combinatorial_lb"] = lb
    rep.extra["gap_ratio"] = lb / float(objective) if objective else _INF
    return rep


def _check_bounds(cert, rep, s_set, t_set, label) -> None:
    val = sa_lift_value(cert, s_set, t_set)
    lo_bad = max(0.0, float(-val))
    hi_bad = max(0.0, float(val) - 1.0)
    rep.add(label, float(val), 1.0, max(lo_bad, hi_bad))


def _verify_naive(cert, rep, samples, seed) -> None:
    """Straight enumeration; only for small instances."""
    everyone = range(cert.n + cert.s)
    us = range(cert.n)
    edges = [(u, cert.n + v) for u, v in cert.graph.edges()]
    k = cert.k
    violations = 0
    worst = 0.0
    for level in range(cert.rounds + 1):
        for base in combinations(everyone, level):
            for pick in range(1 << level):
                s_set = frozenset(base[i] for i in range(level)
                                  if pick >> i & 1)
                t_set = frozenset(base[i] for i in range(level)
                                  if not pick >> i & 1)
                x_st = sa_lift_value(cert, s_set, t_set)
                total = 0
                for u in us:
                    total += sa_lift_value(cert, s_set | {u}, t_set)
                rep.add(f"cardinality-{sorted(s_set)}-{sorted(t_set)}",
                        float(total), float(k * x_st),
                        max(0.0, float(k * x_st - total)))
                for u, v in edges:
                    lhs = sa_lift_value(cert, s_set | {v}, t_set)
                    rhs = sa_lift_value(cert, s_set | {u}, t_set)
                    if lhs < rhs:
                        violations += rhs - lhs > cert.tolerance
                        worst = max(worst, float(rhs - lhs))
                        rep.add(f"edge-{u}-{v}-{sorted(s_set)}"
                                f"-{sorted(t_set)}",
                                float(lhs), float(rhs), float(rhs - lhs))
                _check_bounds(cert, rep, s_set, t_set,
                              f"bounds-{sorted(s_set)}-{sorted(t_set)}")
    rep.add("edge-family-violations", violations, 0, worst)
    _sample_top_level_bounds(cert, rep, samples, seed)


def _verify_sampled(cert, rep, samples, seed) -> None:
    rng = stream(seed, 0x5341)
    total_v = cert.n + cert.s
    k = cert.k
    us = range(cert.n)
    for i in range(samples):
        level = rng.randrange(cert.rounds + 2)
        members = rng.sample_range(total_v, min(level, total_v))
        split = [rng.bernoulli(0.5) for _ in members]
        s_set = frozenset(m for m, inc in zip(members, split) if inc)
        t_set = frozenset(m for m, inc in zip(members, split) if not inc)
        _check_bounds(cert, rep, s_set, t_set, f"bounds-sample-{i}")
        if len(members) <= cert.rounds:
            x_st = sa_lift_value(cert, s_set, t_set)
            total = sum(sa_lift_value(cert, s_set | {u}, t_set) for u in us)
            rep.add(f"cardinality-sample-{i}", float(total), float(k * x_st),
                    max(0.0, float(k * x_st - total)))
            u = rng.randrange(cert.n)
            if cert.graph.adj_left[u]:
                v = cert.n + cert.graph.adj_left[u][
                    rng.randrange(len(cert.graph.adj_left[u]))]
                lhs = sa_lift_value(cert, s_set | {v}, t_set)
                rhs = sa_lift_value(cert, s_set | {u}, t_set)
                rep.add(f"edge-sample-{i}", float(lhs), float(rhs),
                        max(0.0, float(rhs - lhs)))


def _sample_top_level_bounds(cert, rep, samples, seed) -> None:
    """Value bounds 0 <= x_{S,T} <= 1 at the top level rounds+1, sampled."""
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
        val = sa_lift_value(cert, s_set, t_set)
        if 0 <= val <= 1:
            continue
        bad = max(0.0, float(-val), float(val) - 1.0)
        violations += bad > cert.tolerance
        worst = max(worst, bad)
    rep.add("bounds-top-level-sampled", violations, 0, worst)
    rep.extra["top_level_samples"] = samples


# ---------------------------------------------------------------------------
# One-round exact fast path
# ---------------------------------------------------------------------------

def _verify_one_round(cert, rep) -> None:
    """Exact verification of every level-0/1 constraint via structural cover
    classes, and of every top-level value bound once per realised pair
    class.  With pair values at their class values, the edge rows bound
    every edge instance of their class, so a failing instance fails its
    class row or singleton-uniform.

    The cardinality rows are class rows: vertices whose rows must agree
    (left: singleton value class and far pair costs in order; right: degree
    and value class) share one row per family, whose count is the class
    size and whose id ends with the class's first vertex."""
    n, s, k = cert.n, cert.s, cert.k
    alpha, beta = cert.sa_alpha, cert.sa_beta
    one = Fraction(1) if cert.exact else _MP.mpf(1)

    # Singleton values: each side's structural class value, patched with
    # the singleton entries of x_table (the values set by hand are what can
    # tell vertices apart).  Their classes: left values are numbered from
    # 0, right ones after them, with the value and size of each class.
    xu = [cert.class_value((1, 0, 2))] * n
    xv = [cert.class_value((0, 1, 1))] * s
    for subset, x in cert.x_table.items():
        if len(subset) == 1:
            (w,) = subset
            if w < n:
                xu[w] = x
            else:
                xv[w - n] = x
    xu0, xv0 = xu[0], xv[0]
    left_of, left_values = _value_classes(xu, 0)
    n_left = len(left_values)
    right_of, right_values = _value_classes(xv, n_left)
    class_values = left_values + right_values
    class_sizes = Counter(left_of)
    class_sizes.update(right_of)
    uniform = n_left == 1 and len(right_values) == 1
    rep.add_exact("singleton-uniform", uniform, 1, 1)
    left_masks = [0] * n_left
    for u, c in enumerate(left_of):
        left_masks[c] |= 1 << u

    # Every top-level lift on a pair {a, b} (a < b) is a function of the
    # classes of a and b and the cover class of {a, b}.  The loops below
    # tally each realised triple with its pair count and one representative
    # pair: {triple: [pairs, a, b]}.
    top: dict = {}

    q = cert.scale(1)
    # Structural pair classes (each is a theorem about covers on bipartite
    # graphs; the uu far-apart class routes through the general search).
    x_uv_adj = beta * q ** 2
    x_uv_non = beta * alpha * q ** 3
    x_vv = alpha * alpha * q ** 2
    x_uu_near = beta * beta * q ** 3

    # --- Cardinality constraints -----------------------------------------
    sum_xu = sum(class_sizes[c] * x for c, x in enumerate(left_values))
    rep.add("cardinality--", float(sum_xu), float(k),
            max(0.0, float(k - sum_xu)))

    # Per-left-vertex pair sums from bitsets.  Both rows of w depend only
    # on x_w and the far pair costs in order (w has n - 1 minus their count
    # near partners), so left vertices are tallied by that row class:
    # {(class of x_w, far costs): [vertices, first vertex]}.  The two-hop
    # mask stops growing once it holds every left vertex.
    right_masks = cert.graph.right_masks()
    all_u_mask = (1 << n) - 1
    row_classes: dict = {}
    for w in range(n):
        mask = 0
        for v in cert.graph.adj_left[w]:
            mask |= right_masks[v]
            if mask == all_u_mask:
                break
        mask_others = mask & ~(1 << w)
        cw = left_of[w]
        for c, cmask in enumerate(left_masks):
            m = (mask_others & cmask) >> (w + 1)  # near partners b > w
            if m:
                top.setdefault((cw, c, (2, 0, 3)), [
                    0, w, w + (m & -m).bit_length()])[0] += m.bit_count()
        m = all_u_mask & ~mask_others & ~(1 << w)
        far_costs = []
        while m:
            low = m & (-m)
            u2 = low.bit_length() - 1
            key = cert.key(frozenset((w, u2)))
            far_costs.append(key[2])
            if u2 > w:
                top.setdefault((cw, left_of[u2], key), [0, w, u2])[0] += 1
            m ^= low
        row_classes.setdefault((cw, tuple(far_costs)), [0, w])[0] += 1

    for (cw, far_costs), (count, w) in row_classes.items():
        x_w = class_values[cw]
        total = x_w + (n - 1 - len(far_costs)) * x_uu_near
        for cost in far_costs:
            total += beta * beta * cert.scale(cost)
        rhs = k * x_w
        rep.add(f"cardinality-u{w}", total, rhs, rhs - total, count)
        # (S, T) = (empty, {w}): sum_u (x_u - x_{u,w}) >= k (1 - x_w).
        lhs = sum_xu - total
        rhs = k * (one - x_w)
        rep.add(f"cardinality-tu{w}", lhs, rhs, rhs - lhs, count)

    # Right vertices by degree and value class, {(degree, class): [vertices,
    # first vertex]}.
    right_classes: dict = {}
    seen_right: dict = {}  # right class -> [count so far, first vertex]
    for w in range(s):
        right_classes.setdefault((cert.graph.degree_right(w), right_of[w]),
                                 [0, w])[0] += 1
        # Top-level uv pairs by the degree of w in each left class, and vv
        # pairs from the right class counts before w.
        v, cv = n + w, right_of[w]
        for c, cmask in enumerate(left_masks):
            for m, key in ((cmask & right_masks[w], (1, 0, 2)),
                           (cmask & ~right_masks[w], (1, 1, 3))):
                if m:
                    top.setdefault((c, cv, key), [
                        0, (m & -m).bit_length() - 1, v])[0] += m.bit_count()
        for c, (count, first) in seen_right.items():
            top.setdefault((c, cv, (0, 2, 2)), [0, first, v])[0] += count
        seen_right.setdefault(cv, [0, v])[0] += 1

    for (deg, cv), (count, w) in right_classes.items():
        total = deg * x_uv_adj + (n - deg) * x_uv_non
        rhs = k * class_values[cv]
        rep.add(f"cardinality-v{w}", total, rhs, rhs - total, count)
        lhs = sum_xu - total
        rhs = k * (one - class_values[cv])
        rep.add(f"cardinality-tv{w}", lhs, rhs, rhs - lhs, count)

    # --- Edge constraints --------------------------------------------------
    # Class inequalities; each covers a family of constraint instances whose
    # left side is the class minimum and right side the class maximum.
    checks = [
        ("edges-base", xv0, xu0),
        # S = {w in V}: (v=w) alpha*q >= beta*q^2; (u in N(w)) alpha^2 q^2 >=
        # beta q^2; else alpha^2 q^2 >= alpha*beta*q^3.
        ("edges-sv-guess-at-v", xv0, x_uv_adj),
        ("edges-sv-adj", x_vv, x_uv_adj),
        ("edges-sv-non", x_vv, x_uv_non),
        # S = {w in U}: (u'=w) x_{u,v} >= x_u, the row edges-tv-self;
        # (v in N(w)) beta q^2 >= beta^2 q^3; else alpha*beta*q^3 >=
        # beta^2 q^3.
        ("edges-su-adj", x_uv_adj, x_uu_near),
        ("edges-su-non", x_uv_non, x_uu_near),
        # T = {w in V}: (v=w) 0 >= 0 by the forced equality x_{u,w} = x_u on
        # edges; else lhs >= x_v - x_vv lower bound, rhs <= x_u.
        ("edges-tv", xv0 - x_vv, xu0),
        ("edges-tv-self", x_uv_adj, xu0),
        # T = {w in U}: lhs >= min over v-classes, rhs <= x_u.
        ("edges-tu-adj", xv0 - x_uv_adj, xu0),
        ("edges-tu-non", xv0 - x_uv_non, xu0),
    ]
    for name, lhs, rhs in checks:
        rep.add(name, lhs, rhs, rhs - lhs)
    # The far-apart uu class only shrinks right-hand sides (cost >= 4), and
    # x_{u,w} <= x_u needs cost monotonicity, which holds by cover
    # restriction; so with uniform singletons and every class row passing,
    # all level-1 edge constraints hold.

    # Bounds at level <= 1 are implied by 0 <= x_w <= 1 for all w.
    bad = sum(class_sizes[c] for c, x in enumerate(class_values)
              if not 0 <= x <= 1)
    rep.add("bounds-level1", bad, 0, bad)

    _check_top_level_classes(cert, rep, top)


def _value_classes(values: list, first_id: int) -> tuple[list[int], list]:
    """A class id per value, equal values sharing one, numbered from
    first_id in order of first appearance; and the value of each class.
    Values mostly share one object, so each distinct object is hashed once
    (a Fraction's hash is a modular inverse)."""
    ids: dict = {}
    by_object: dict = {}
    of = []
    for x in values:
        c = by_object.get(id(x))
        if c is None:
            c = by_object[id(x)] = ids.setdefault(x, first_id + len(ids))
        of.append(c)
    return of, list(ids)


def _check_top_level_classes(cert, rep, top) -> None:
    """Value bounds 0 <= x_{S,T} <= 1 at |S u T| = 2, checked once per
    realised pair class in each split through sa_lift_value (whose memo
    never holds a lift with a value set by hand); a violation counts every
    pair of its class."""
    violations = 0
    worst = 0.0
    for pairs, a, b in top.values():
        for s_set, t_set in (((a, b), ()), ((a,), (b,)), ((b,), (a,)),
                             ((), (a, b))):
            val = sa_lift_value(cert, s_set, t_set)
            if 0 <= val <= 1:
                continue
            bad = max(0.0, float(-val), float(val) - 1.0)
            if bad > cert.tolerance:
                violations += pairs
            worst = max(worst, bad)
    rep.add("bounds-top-level-classes", violations, 0, worst)
    rep.extra["top_level_classes"] = len(top)


# ---------------------------------------------------------------------------
# Decay/saturation property samples
# ---------------------------------------------------------------------------

def sample_property_checks(cert: SaCertificate, n_samples: int,
                           seed: int = 0) -> VerifyReport:
    """Sampled checks of the certificate's structural properties: decay when
    adding non-forced vertices, saturation on forced ones, vanishing lifts
    on neighbor-hitting pairs, the two-sided lift bounds, and the
    left-vertex growth floor."""
    rep = VerifyReport(tolerance=cert.tolerance)
    # An exact zero in exact mode: the float 0.0 would round the Fractions
    # it is added to.
    tol = 0 if cert.exact else cert.tolerance
    rng = stream(seed, 0x434C)
    view = cert.view
    n, s, r = cert.n, cert.s, cert.rounds
    total_v = n + s
    alpha, beta = cert.sa_alpha, cert.sa_beta
    half = Fraction(1, 2) if cert.exact else _MP.mpf("0.5")
    growth_floor = (beta * cert.scale(2) if cert.exact
                    else _MP.mpf(beta.numerator) / beta.denominator
                    * cert.scale(2))
    counts = {"decay": 0, "saturate": 0, "lift-zero": 0, "lift-range": 0,
              "growth": 0}
    fails = dict.fromkeys(counts, 0)

    def rand_set(max_size: int) -> frozenset[int]:
        size = rng.randrange(max_size + 1)
        return frozenset(rng.sample_range(total_v, size))

    for _ in range(n_samples):
        which = rng.randrange(5)
        if which == 0:  # decay: w not in N(S_U), w not in S
            s_set = rand_set(r)
            w = rng.randrange(total_v)
            if w in s_set or w in _forced(view, s_set):
                continue
            counts["decay"] += 1
            if not (cert.x_value(s_set | {w})
                    <= alpha * cert.x_value(s_set) + tol):
                fails["decay"] += 1
        elif which == 1:  # saturation: w in N(S_U)
            u = rng.randrange(n)
            if not view.adj[u]:
                continue
            s_set = rand_set(r - 1) | {u}
            if len(s_set) > r:
                continue
            w = view.adj[u][rng.randrange(len(view.adj[u]))]
            if w in s_set:
                continue
            counts["saturate"] += 1
            if abs(cert.x_value(s_set | {w})
                   - cert.x_value(s_set)) > tol:
                fails["saturate"] += 1
        elif which == 2:  # lift vanishes when T hits N(S)
            u = rng.randrange(n)
            if not view.adj[u]:
                continue
            w = view.adj[u][rng.randrange(len(view.adj[u]))]
            t_extra = rand_set(r - 1)
            t_set = frozenset({w}) | t_extra
            if len(t_set) + 1 > r + 1 or u in t_set:
                continue
            counts["lift-zero"] += 1
            if abs(sa_lift_value(cert, {u}, t_set)) > tol:
                fails["lift-zero"] += 1
        elif which == 3:  # disjoint lift range
            s_set = rand_set(r)
            t_size = rng.randrange(r + 2 - len(s_set))
            t_set = frozenset(rng.sample_range(total_v, t_size))
            if s_set & t_set or t_set & _forced(view, s_set):
                continue
            counts["lift-range"] += 1
            val = sa_lift_value(cert, s_set, t_set)
            x_s = cert.x_value(s_set)
            if not (half * x_s - tol <= val <= x_s + tol):
                fails["lift-range"] += 1
        else:  # growth floor: adding a left vertex
            s_set = rand_set(r)
            u = rng.randrange(n)
            if u in s_set:
                continue
            counts["growth"] += 1
            if not (cert.x_value(s_set | {u})
                    >= growth_floor * cert.x_value(s_set) - tol):
                fails["growth"] += 1
    for name in counts:
        rep.add(f"property-{name}", fails[name], 0, fails[name])
        rep.extra[f"samples_{name}"] = counts[name]
    return rep
