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
changed.  That context is built, and mpmath imported, on first use: an
exact certificate never loads mpmath.

The certificate holds its graph, its constants and one value per cover
class: class_table is the only store of values, and every check reads
them from it.

Verification at one round scales to large instances through exact
class-based accounting: singleton and pairwise cover costs collapse to a
fixed set of structural classes (one per side for singletons; adjacency,
common-neighbor, and the rare far-apart pairs, which are routed through the
general Steiner search), so every constraint instance is covered by a
handful of exact class inequalities plus counts over the graph's
right-vertex bitsets.  Those counts come from one census per certificate,
built on first use: each realised pair class with its pair count and a
representative pair, the left vertices by their far pair classes and the
right ones by degree.  It holds no values, so a class value set by hand
shows in every report.  The pair tiers test membership on the graph's
sorted rows; no per-vertex set is kept.  A left vertex's far partners come
from an AND of the complement bitsets of its right neighbours, which stops
once it is empty, so a vertex whose partners are all near costs a few
big-integer ANDs and only vertices with far partners pay for the cover
search.  The cardinality rows are class rows: one report row per family
for each class of vertices whose rows agree, with the class size as its
count.

The structural properties (decay on a vertex S_U does not force, the
growth floor for left vertices, the two-sided lift range) compare at one
round singleton and pair class values only, so they too are exact class
rows, one per realised (class(S), class(S + extra)) with the number of
instances it stands for; deeper certificates sample them.  The global-id
adjacency (_View) is built only when the general cover search runs: far
pairs, sets of three or more, cover_cost and the samplers.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from typing import NamedTuple

from ..errors import BudgetExceededError, NoCoverError, SizeExceededError
from ..graph import BipartiteGraph
from ..rng import stream
from .report import VerifyReport

_INF = float("inf")
# Most base sets a deeper-than-one-round exhaustive verify enumerates.
EXHAUSTIVE_BUDGET = 20_000


# ---------------------------------------------------------------------------
# Global-id graph view and the Steiner subroutine
# ---------------------------------------------------------------------------

class _View:
    """Combined adjacency over global ids: one sorted tuple per vertex.  No
    per-vertex sets: the pair tiers and the path search test membership on
    the tuples and build a set only for the pair at hand.  A vertex w is a
    left one, of weight 1 in the searches, exactly when w < n."""

    def __init__(self, g: BipartiteGraph) -> None:
        n = self.n = g.n
        self.total = n + g.n_right
        self.adj: list[tuple[int, ...]] = [
            tuple([v + n for v in row]) for row in g.adj_left
        ] + list(g.adj_right)


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
    # The terminals come from _cover_cost, which passes distinct ones and
    # takes N(S_U) out of them, so a and b are never equal or adjacent.
    adj = view.adj
    au, bu = a < view.n, b < view.n
    if au != bu:
        u, v = (a, b) if au else (b, a)
        near_u = set(adj[u])
        for mid in adj[v]:
            if not near_u.isdisjoint(adj[mid]):
                return 2
    elif not set(adj[a]).isdisjoint(adj[b]):
        return 2 if au else 1
    return _bfs01(view, a, b)


def _bfs01(view: _View, a: int, b: int) -> int:
    n, adj = view.n, view.adj
    dist = [-1] * view.total
    dist[a] = int(a < n)
    dq = deque([a])
    while dq:
        x = dq.popleft()
        if x == b:
            return dist[x]
        for y in adj[x]:
            is_u = y < n
            cost = dist[x] + is_u
            if dist[y] == -1 or cost < dist[y]:
                dist[y] = cost
                if is_u:
                    dq.append(y)
                else:
                    dq.appendleft(y)
    raise NoCoverError(f"vertices {a} and {b} are disconnected")


def _steiner_ucount(view: _View, terminals: tuple[int, ...]) -> int:
    """Minimum |T intersect U| over trees T containing all terminals and at
    least one U vertex.

    Two or more distinct terminals force a U vertex automatically (V-V edges
    do not exist); a lone V terminal is joined to one neighbor.  The
    terminal set is never empty: _cover_cost passes only nonempty ones.
    """
    t = len(terminals)
    if t == 1:
        w = terminals[0]
        if w < view.n:
            return 1
        if not view.adj[w]:
            raise NoCoverError(f"right vertex {w} is isolated")
        return 1
    if t == 2:
        return _path_ucount(view, terminals[0], terminals[1])
    return _steiner_dp(view, terminals)


def _steiner_dp(view: _View, terminals: tuple[int, ...]) -> int:
    """Dreyfus-Wagner over terminal subsets with 0/1 node weights."""
    n, total = view.n, view.total
    t = len(terminals)
    full = (1 << t) - 1
    big = n + 1
    dp = [[big] * total for _ in range(full + 1)]
    for i, term in enumerate(terminals):
        dp[1 << i][term] = int(term < n)
    for mask in range(1, full + 1):
        row = dp[mask]
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:  # each split once
                a, b = dp[sub], dp[other]
                for v in range(total):
                    cand = a[v] + b[v] - (v < n)
                    if cand < row[v]:
                        row[v] = cand
            sub = (sub - 1) & mask
        # Dijkstra relaxation with node costs.
        heap = [(row[v], v) for v in range(total) if row[v] < big]
        heapq.heapify(heap)
        while heap:
            d, x = heapq.heappop(heap)
            if d > row[x]:
                continue
            for y in view.adj[x]:
                nd = d + (y < n)
                if nd < row[y]:
                    row[y] = nd
                    heapq.heappush(heap, (nd, y))
    best = min(dp[full])
    if best >= big:
        raise NoCoverError(f"terminals {terminals} are disconnected")
    return best


def cover_cost(g: BipartiteGraph, subset) -> int:
    """Minimum cover cost of a global-id vertex subset (see module docs)."""
    return _cover_cost(_View(g), frozenset(subset))


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

@cache
def _mp():
    """The 60-digit context float-mode values are built in, on first use;
    mpmath numbers carry their context, so arithmetic on them keeps 60
    digits whatever `mpmath.mp.dps` is."""
    import mpmath
    mp = mpmath.MPContext()
    mp.dps = 60
    return mp

# The structural cover classes (|S_U|, |S_V|, cost) of singletons and
# pairs; any other pair is a far left pair, (2, 0, c) with c > 3.
CLASS_U = (1, 0, 2)        # a left vertex; a left vertex with a neighbour
CLASS_V = (0, 1, 1)        # a right vertex
CLASS_UV_NON = (1, 1, 3)   # a left vertex and a right non-neighbour
CLASS_VV = (0, 2, 2)       # two right vertices
CLASS_UU_NEAR = (2, 0, 3)  # two left vertices with a common neighbour
CLASS_EMPTY = (0, 0, 0)    # the empty set


class _Census(NamedTuple):
    """What the one-round checks count, from the graph alone."""
    top: dict         # {pair class: [pairs, a, b]}, a representative a < b
    left_rows: dict   # {far classes in order: [vertices, first vertex]}
    right_rows: dict  # {degree: [vertices, first vertex]}


@dataclass
class SaCertificate:
    graph: BipartiteGraph
    rounds: int
    sa_alpha: Fraction
    sa_beta: Fraction
    k: int
    exact: bool          # n is a perfect fourth power
    quarter_root: int    # n^(1/4) when exact
    cost_table: dict = field(default_factory=dict)
    # x_S depends on S only through key(S) = (|S_U|, |S_V|, cost(S)); the
    # value of each class is computed once, and so is each lift, keyed by
    # the classes of its inclusion-exclusion terms.  Each verify starts
    # from an empty lift table, so it sees class values set by hand before
    # it; direct sa_lift_value calls see those set before their first lift.
    class_table: dict = field(default_factory=dict)
    lift_table: dict = field(default_factory=dict)

    @cached_property
    def view(self) -> _View:
        """Global-id adjacency for the general cover search."""
        return _View(self.graph)

    @cached_property
    def census(self) -> _Census:
        """The graph's realised one-round classes, counted once."""
        return _pair_census(self)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def s(self) -> int:
        return self.graph.n_right

    def key(self, subset: frozenset[int]) -> tuple[int, int, int]:
        """Cover class (|S_U|, |S_V|, cost(S)) of a subset.

        The empty set costs 0, and singletons and pairs take their
        structural tier, read off the graph's left rows: a left vertex costs
        2 (itself in a tree) and a right one 1 (itself in S'), whether
        isolated or not; a left-right pair costs 2 when adjacent (the right
        vertex is then forced) and 3 otherwise, two right vertices cost 2,
        and two left vertices with a common neighbor cost 3.  Far-apart left
        pairs and larger sets run the general cover search on the view,
        memoised by subset."""
        n = self.n
        size = len(subset)
        if not size:
            return CLASS_EMPTY
        if size == 1:
            (w,) = subset
            return CLASS_U if w < n else CLASS_V
        if size == 2:
            a, b = subset
            if a > b:
                a, b = b, a
            rows = self.graph.adj_left
            if b < n:
                if not set(rows[a]).isdisjoint(rows[b]):
                    return CLASS_UU_NEAR
            elif a < n:
                return CLASS_U if b - n in rows[a] else CLASS_UV_NON
            else:
                return CLASS_VV
        s_u = [w for w in subset if w < n]
        n_v = size - len(s_u)
        if s_u and n_v:  # drop the right vertices that S_U forces
            forced = _forced(self.view, s_u)
            n_v = sum(1 for w in subset if w >= n and w not in forced)
        cost = self.cost_table.get(subset)
        if cost is None:
            cost = self.cost_table[subset] = _cover_cost(self.view, subset)
        return len(s_u), n_v, cost

    def num(self, x: Fraction):
        """x in the certificate's number type: x itself in exact mode, a
        60-digit float otherwise."""
        return x if self.exact else _mp().mpf(x.numerator) / x.denominator

    def scale(self, cost: int):
        """n^(-cost/4), exact when possible."""
        if self.exact:
            return Fraction(1, self.quarter_root ** cost)
        mp = _mp()
        return mp.mpf(self.n) ** (mp.mpf(-cost) / 4)

    def x_value(self, subset):
        subset = frozenset(subset)
        if len(subset) > self.rounds + 1:
            raise SizeExceededError(
                f"|S|={len(subset)} exceeds rounds+1={self.rounds + 1}")
        return self.class_value(self.key(subset))

    def class_value(self, key: tuple[int, int, int]):
        """The value of a cover class, as class_table holds it."""
        got = self.class_table.get(key)
        if got is None:
            n_u, n_v, cost = key
            got = self.class_table[key] = self.num(
                self.sa_beta ** n_u * self.sa_alpha ** n_v) * self.scale(cost)
        return got

    @property
    def tolerance(self) -> float:
        """0 in exact mode; rounding headroom for the 60-digit float mode."""
        return 0.0 if self.exact else 1e-40

    @property
    def objective(self):
        return sum(self.x_value([self.n + v]) for v in range(self.s))


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

    Each term's value is its class value, so the sum depends only on the
    classes of its terms, and each distinct tuple of term classes is summed
    once per certificate."""
    s_set = frozenset(s_set)
    t_set = tuple(sorted(set(t_set)))
    if len(s_set) + len(t_set) > cert.rounds + 1:
        raise SizeExceededError(
            f"|S|+|T| = {len(s_set) + len(t_set)} exceeds rounds+1")
    if not t_set:
        return cert.x_value(s_set)
    terms = [(r % 2, cert.key(s_set.union(j))) for r in range(len(t_set) + 1)
             for j in combinations(t_set, r)]
    classes = tuple(key for _, key in terms)
    total = cert.lift_table.get(classes)
    if total is None:
        total = 0
        for odd, key in terms:
            x = cert.class_value(key)
            total = total - x if odd else total + x
        cert.lift_table[classes] = total
    return total


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_sa_certificate(cert: SaCertificate, mode: str = "exhaustive",
                          samples: int = 10_000,
                          seed: int = 0) -> VerifyReport:
    """Check the lifted-LP constraints.

    exhaustive: every constraint at levels |S|+|T| <= rounds, plus the
    value bounds at level rounds+1: every realised top-level class at
    rounds=1, sampled at rounds >= 2.  One-round certificates use the
    exact class-based fast path (any instance size); deeper certificates
    enumerate naively and require sum_j C(n+s, j) <= EXHAUSTIVE_BUDGET.

    sampled: `samples` random (S,T) pairs across all levels.
    """
    cert.lift_table.clear()
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
            if total > EXHAUSTIVE_BUDGET:
                raise BudgetExceededError(
                    f"exhaustive base-set count {total} exceeds "
                    f"{EXHAUSTIVE_BUDGET}")
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


def _outside_unit(val) -> float:
    """How far val lies outside [0, 1]; 0.0 inside."""
    if 0 <= val <= 1:
        return 0.0
    return max(0.0, float(-val), float(val) - 1.0)


def _draw(cert, rng, size: int) -> list[int]:
    """size distinct vertices, or all n + s of them when size is larger."""
    total_v = cert.n + cert.s
    return rng.sample_range(total_v, min(size, total_v))


def _draw_split(cert, rng, size: int) -> tuple[frozenset, frozenset]:
    """(S, T) from _draw's vertices, each put in S or in T by a fair coin."""
    members = _draw(cert, rng, size)
    split = [rng.bernoulli(0.5) for _ in members]
    return (frozenset(m for m, inc in zip(members, split) if inc),
            frozenset(m for m, inc in zip(members, split) if not inc))


def _check_bounds(cert, rep, s_set, t_set, label) -> None:
    val = sa_lift_value(cert, s_set, t_set)
    rep.add(label, val, 1.0, _outside_unit(val))


def _check_cardinality(cert, rep, s_set, t_set, label) -> None:
    """sum over left u of x_{S+u,T} >= k x_{S,T}."""
    rhs = cert.k * sa_lift_value(cert, s_set, t_set)
    total = sum(sa_lift_value(cert, s_set | {u}, t_set)
                for u in range(cert.n))
    rep.add(label, total, rhs, rhs - total)


def _verify_naive(cert, rep, samples, seed) -> None:
    """Straight enumeration; only for small instances."""
    everyone = range(cert.n + cert.s)
    edges = [(u, cert.n + v) for u, v in cert.graph.edges()]
    violations = 0
    worst = 0.0
    for level in range(cert.rounds + 1):
        for base in combinations(everyone, level):
            for pick in range(1 << level):
                s_set = frozenset(base[i] for i in range(level)
                                  if pick >> i & 1)
                t_set = frozenset(base[i] for i in range(level)
                                  if not pick >> i & 1)
                _check_cardinality(
                    cert, rep, s_set, t_set,
                    f"cardinality-{sorted(s_set)}-{sorted(t_set)}")
                for u, v in edges:
                    lhs = sa_lift_value(cert, s_set | {v}, t_set)
                    rhs = sa_lift_value(cert, s_set | {u}, t_set)
                    if lhs < rhs:
                        violations += rhs - lhs > cert.tolerance
                        worst = max(worst, float(rhs - lhs))
                        rep.add(f"edge-{u}-{v}-{sorted(s_set)}"
                                f"-{sorted(t_set)}", lhs, rhs, rhs - lhs)
                _check_bounds(cert, rep, s_set, t_set,
                              f"bounds-{sorted(s_set)}-{sorted(t_set)}")
    rep.add("edge-family-violations", violations, 0, worst)
    _sample_top_level_bounds(cert, rep, samples, seed)


def _verify_sampled(cert, rep, samples, seed) -> None:
    rng = stream(seed, 0x5341)
    for i in range(samples):
        s_set, t_set = _draw_split(cert, rng, rng.randrange(cert.rounds + 2))
        _check_bounds(cert, rep, s_set, t_set, f"bounds-sample-{i}")
        if len(s_set) + len(t_set) <= cert.rounds:
            _check_cardinality(cert, rep, s_set, t_set,
                               f"cardinality-sample-{i}")
            u = rng.randrange(cert.n)
            if cert.graph.adj_left[u]:
                v = cert.n + cert.graph.adj_left[u][
                    rng.randrange(len(cert.graph.adj_left[u]))]
                lhs = sa_lift_value(cert, s_set | {v}, t_set)
                rhs = sa_lift_value(cert, s_set | {u}, t_set)
                rep.add(f"edge-sample-{i}", lhs, rhs, rhs - lhs)


def _sample_top_level_bounds(cert, rep, samples, seed) -> None:
    """Value bounds 0 <= x_{S,T} <= 1 at the top level rounds+1, sampled."""
    rng = stream(seed, 0x544F)
    violations = 0
    worst = 0.0
    for _ in range(samples):
        s_set, t_set = _draw_split(cert, rng, cert.rounds + 1)
        bad = _outside_unit(sa_lift_value(cert, s_set, t_set))
        violations += bad > cert.tolerance
        worst = max(worst, bad)
    rep.add("bounds-top-level-sampled", violations, 0, worst)
    rep.extra["top_level_samples"] = samples


# ---------------------------------------------------------------------------
# One-round exact fast path
# ---------------------------------------------------------------------------

def _pair_census(cert) -> _Census:
    """The realised pair classes and the left and right row classes of the
    certificate's graph, from its right-vertex bitsets.

    Every top-level lift on a pair {a, b} is a function of the cover class
    of {a, b}; each realised class is tallied with its pair count and one
    representative pair a < b.  Both cardinality rows of a left vertex w
    depend only on its far pair classes in order (w has n - 1 minus their
    count near partners), and those of a right vertex only on its degree.

    The far partners of w are the other left vertices in no mask of its
    row: the AND of the row's complement masks, which stops once it is
    empty.  A vertex with no far partner then takes a fast exit: its near
    partners above it are w + 1..n - 1, so it builds no further big
    integer.  Only a vertex with far partners keys them, in ascending
    order, through the cover search."""
    n, g = cert.n, cert.graph
    top: dict = {}
    right_masks = g.right_masks()
    all_u_mask = (1 << n) - 1
    non = [all_u_mask & ~m for m in right_masks]
    left_rows: dict = {}
    for w in range(n):
        far = all_u_mask & ~(1 << w)
        for v in g.adj_left[w]:
            far &= non[v]
            if not far:
                break
        if not far:  # every other left vertex is near
            if w + 1 < n:
                top.setdefault(CLASS_UU_NEAR, [0, w, w + 1])[0] += n - 1 - w
            left_rows.setdefault((), [0, w])[0] += 1
            continue
        m = (all_u_mask ^ far) >> (w + 1)  # near partners b > w
        if m:
            top.setdefault(CLASS_UU_NEAR, [
                0, w, w + (m & -m).bit_length()])[0] += m.bit_count()
        keys = []
        while far:
            low = far & -far
            u2 = low.bit_length() - 1
            key = cert.key(frozenset((w, u2)))
            keys.append(key)
            if u2 > w:
                top.setdefault(key, [0, w, u2])[0] += 1
            far ^= low
        left_rows.setdefault(tuple(keys), [0, w])[0] += 1

    # The uv pairs of each right vertex, and its vv pairs with the right
    # vertices before it.
    right_rows: dict = {}
    for w in range(g.n_right):
        right_rows.setdefault(g.degree_right(w), [0, w])[0] += 1
        v = n + w
        for m, key in ((right_masks[w], CLASS_U), (non[w], CLASS_UV_NON)):
            if m:
                top.setdefault(key, [
                    0, (m & -m).bit_length() - 1, v])[0] += m.bit_count()
        if w:
            top.setdefault(CLASS_VV, [0, n, v])[0] += w
    return _Census(top, left_rows, right_rows)


def _verify_one_round(cert, rep) -> None:
    """Exact verification of every level-0/1 constraint via structural cover
    classes, and of every top-level value bound once per realised pair
    class.  Every value is a class value of the certificate: an adjacent
    u-v pair has u's class CLASS_U (v is forced), and a left pair with no
    common neighbour a far class.  Each edge row compares the values of one
    family of edge instances, so a failing instance fails its row.

    The cardinality rows are class rows: vertices whose rows must agree
    (left: far pair classes in order; right: degree) share one row per
    family, whose count is the class size and whose id ends with the
    class's first vertex.  The classes come from the certificate's
    census."""
    census = cert.census
    n, s, k = cert.n, cert.s, cert.k
    value = cert.class_value
    one = cert.num(Fraction(1))
    xu, xv = value(CLASS_U), value(CLASS_V)
    x_uv_non, x_vv = value(CLASS_UV_NON), value(CLASS_VV)
    x_uu_near = value(CLASS_UU_NEAR)

    # --- Cardinality constraints -----------------------------------------
    sum_xu = n * xu
    rep.add("cardinality--", sum_xu, k, k - sum_xu)

    for far, (count, w) in census.left_rows.items():
        total = xu + (n - 1 - len(far)) * x_uu_near
        for key in far:
            total += value(key)
        rhs = k * xu
        rep.add(f"cardinality-u{w}", total, rhs, rhs - total, count)
        # (S, T) = (empty, {w}): sum_u (x_u - x_{u,w}) >= k (1 - x_w).
        lhs = sum_xu - total
        rhs = k * (one - xu)
        rep.add(f"cardinality-tu{w}", lhs, rhs, rhs - lhs, count)

    for deg, (count, w) in census.right_rows.items():
        total = deg * xu + (n - deg) * x_uv_non
        rhs = k * xv
        rep.add(f"cardinality-v{w}", total, rhs, rhs - total, count)
        lhs = sum_xu - total
        rhs = k * (one - xv)
        rep.add(f"cardinality-tv{w}", lhs, rhs, rhs - lhs, count)

    # --- Edge constraints --------------------------------------------------
    # x_{S+v,T} >= x_{S+u,T} on each edge (u, v): one row per family of
    # instances that compare the same two classes (lhs at least, rhs at
    # most the row's; the rhs bounds assume pair values >= 0, which the
    # top-level check tests).
    far_values = [value(key) for key in {key for far in census.left_rows
                                         for key in far}]
    checks = [
        # S = T = empty, and S = {v}: x_v >= x_{u,v}.
        ("edges-base", xv, xu),
        # S = {w in V}, w != v: x_vv >= x_{u,w}, u adjacent to w or not.
        ("edges-sv-adj", x_vv, xu),
        ("edges-sv-non", x_vv, x_uv_non),
        # S = {w in U}, w != u (w = u compares x_u with itself): x_{w,v}
        # >= x_{w,u}, w adjacent to v (so w and u are near) or not.
        ("edges-su-adj", xu, x_uu_near),
        ("edges-su-non", x_uv_non, x_uu_near),
        *([("edges-su-far", x_uv_non, max(far_values))] if far_values
          else []),
        # T = {w in V}, w != v (w = v gives 0 >= 0): x_v - x_vv >= x_u -
        # x_{u,w}.
        ("edges-tv", xv - x_vv, xu),
        # T = {w in U}: x_v - x_{v,w} >= x_u - x_{u,w}, v adjacent to w or
        # not.
        ("edges-tu-adj", xv - xu, xu),
        ("edges-tu-non", xv - x_uv_non, xu),
    ]
    for name, lhs, rhs in checks:
        rep.add(name, lhs, rhs, rhs - lhs)

    # Bounds at level <= 1 are implied by 0 <= x_w <= 1 for all w.
    bad = n * (not 0 <= xu <= 1) + s * (not 0 <= xv <= 1)
    rep.add("bounds-level1", bad, 0, bad)

    _check_top_level_classes(cert, rep, census.top)


def _check_top_level_classes(cert, rep, top) -> None:
    """Value bounds 0 <= x_{S,T} <= 1 at |S u T| = 2, checked once per
    realised pair class in each split through sa_lift_value; a violation
    counts every pair of its class."""
    violations = 0
    worst = 0.0
    for pairs, a, b in top.values():
        for s_set, t_set in (((a, b), ()), ((a,), (b,)), ((b,), (a,)),
                             ((), (a, b))):
            bad = _outside_unit(sa_lift_value(cert, s_set, t_set))
            if bad > cert.tolerance:
                violations += pairs
            worst = max(worst, bad)
    rep.add("bounds-top-level-classes", violations, 0, worst)
    rep.extra["top_level_classes"] = len(top)


# ---------------------------------------------------------------------------
# Structural property checks
# ---------------------------------------------------------------------------

PROPERTY_FAMILIES = ("decay", "lift-range", "growth")


def sample_property_checks(cert: SaCertificate, n_samples: int,
                           seed: int = 0) -> VerifyReport:
    """Checks of the certificate's structural properties: decay,
    x_{S+w} <= alpha x_S for w outside S and N(S_U); the growth floor,
    x_{S+u} >= beta n^(-1/2) x_S for a left u outside S; and the two-sided
    lift range, x_S / 2 <= x_{S,T} <= x_S for T outside S and N(S_U).

    At one round every instance compares singleton and pair class values,
    so every instance is checked: one exact class row per realised
    (class(S), |extra|, class(S + extra)), whose count is the number of
    instances it stands for.  That path reads neither n_samples nor seed,
    makes no random draw and builds no global-id view.  Deeper certificates
    check n_samples random instances drawn from seed, one row per family
    with its failing-instance count."""
    cert.lift_table.clear()
    if cert.rounds == 1:
        return _property_classes(cert)
    return _sample_properties(cert, n_samples, seed)


def _property_values(cert, family: str, s_set: frozenset, extra: frozenset):
    """(lhs, rhs, violation) of one property instance, in the certificate's
    number type; extra is w, u or T.  The instance holds when the violation
    is at most the tolerance."""
    x_s = cert.x_value(s_set)
    if family == "lift-range":
        val = sa_lift_value(cert, s_set, extra)
        return val, x_s, max(cert.num(Fraction(1, 2)) * x_s - val, val - x_s)
    x_more = cert.x_value(s_set | extra)
    if family == "decay":
        rhs = cert.sa_alpha * x_s
        return x_more, rhs, x_more - rhs
    rhs = cert.num(cert.sa_beta) * cert.scale(2) * x_s
    return x_more, rhs, rhs - x_more


def _property_id(cert, family: str, s_set: frozenset,
                 extra: frozenset) -> str:
    """The one-round class row of an instance: its family, class(S),
    |extra| and class(S + extra)."""
    return "property-{}-({},{},{})+{}-({},{},{})".format(
        family, *cert.key(s_set), len(extra), *cert.key(s_set | extra))


def _property_classes(cert) -> VerifyReport:
    """Every one-round property instance, by class: one representative per
    realised (class(S), |extra|, class(S + extra)) is checked, and its row
    counts the instances of those classes, whose values are the same.  The
    realised pair classes and their pair counts come from the census."""
    rep = VerifyReport(tolerance=cert.tolerance)
    n, s = cert.n, cert.s
    top = cert.census.top
    # (S, w, instances) of w added to S outside S and N(S_U): S empty and w
    # on either side; then per pair class one member as S and the other as
    # w, in both orders on one side, and for a left u and a right v as
    # S = {v}, and as S = {u} unless u forces v.
    adds = [((), 0, n), ((), n, s)]
    for key, (pairs, a, b) in top.items():
        if key[0] == 2 or key == CLASS_VV:
            adds.append(((a,), b, 2 * pairs))
        else:
            adds.append(((b,), a, pairs))
            if key == CLASS_UV_NON:
                adds.append(((a,), b, pairs))
    singles = [(s_set, (w,), count) for s_set, w, count in adds]
    instances = {
        "decay": singles,
        # T empty, T one vertex, and T any pair with S empty.
        "lift-range": [((), (), 1), ((0,), (), n), ((n,), (), s), *singles,
                       *(((), (a, b), pairs)
                         for pairs, a, b in top.values())],
        "growth": [(s_set, (w,), count) for s_set, w, count in adds
                   if w < n],
    }
    for family, rows in instances.items():
        total = 0
        for s_set, extra, count in rows:
            if count:
                s_set, extra = frozenset(s_set), frozenset(extra)
                lhs, rhs, bad = _property_values(cert, family, s_set, extra)
                rep.add(_property_id(cert, family, s_set, extra), lhs, rhs,
                        bad, count)
                total += count
        rep.extra[f"instances_{family}"] = total
    return rep


def _property_draws(cert, n_samples: int, seed: int):
    """(family, S, extra) of n_samples random draws, |S| <= rounds; a draw
    that is no instance of its family (w in S or N(S_U), say) yields
    nothing."""
    rng = stream(seed, 0x434C)
    n, r = cert.n, cert.rounds
    for _ in range(n_samples):
        which = rng.randrange(3)
        s_set = frozenset(_draw(cert, rng, rng.randrange(r + 1)))
        if which == 0:
            w = rng.randrange(n + cert.s)
            if w not in s_set and w not in _forced(cert.view, s_set):
                yield "decay", s_set, frozenset({w})
        elif which == 1:
            t_set = frozenset(_draw(cert, rng,
                                    rng.randrange(r + 2 - len(s_set))))
            if s_set.isdisjoint(t_set) and t_set.isdisjoint(
                    _forced(cert.view, s_set)):
                yield "lift-range", s_set, t_set
        else:
            u = rng.randrange(n)
            if u not in s_set:
                yield "growth", s_set, frozenset({u})


def _sample_properties(cert, n_samples: int, seed: int) -> VerifyReport:
    """The property checks on random draws: one row per family, its
    failing-instance count, and the instance counts in extra."""
    rep = VerifyReport(tolerance=cert.tolerance)
    counts = dict.fromkeys(PROPERTY_FAMILIES, 0)
    fails = dict.fromkeys(PROPERTY_FAMILIES, 0)
    for family, s_set, extra in _property_draws(cert, n_samples, seed):
        counts[family] += 1
        # The violation is a Fraction in exact mode, compared exactly.
        fails[family] += (_property_values(cert, family, s_set, extra)[2]
                          > cert.tolerance)
    for family in PROPERTY_FAMILIES:
        rep.add(f"property-{family}", fails[family], 0, fails[family])
        rep.extra[f"samples_{family}"] = counts[family]
    return rep
