"""Exact polynomial-time Least Expanding Set solver.

The ratio objective |N(S)|/|S| is minimized by Dinkelbach iteration over the
linearized objective |N(S)| - lambda|S|, each linearization solved exactly as
a minimum s-t cut in the network

    source -> u   capacity a        (for every left vertex u)
    u -> v        unbounded         (for every edge)
    v -> sink     capacity b        (for every right vertex v)

with lambda = a/b, which keeps the flow problem integral.  Cutting realizes
min over S of  a(n - |S|) + b|N(S)|, so the left vertices on the source side
of a minimum cut minimize |N(S)| - lambda|S|.  Among minimum cuts the unique
maximal source side is returned, which is deterministic (it does not depend
on which maximum flow was found) and never worse for the ratio.

One `_Network` is built per LES solve, straight from the graph's left
adjacency over the allowed left vertices: edges into forbidden right
vertices are dropped.  It reads those rows in place, with no per-edge copy:
edge e = start[i] + k is position k of row i, start being the prefix sums
of the row lengths, so a cut's flow is the one per-edge list.  Every
Dinkelbach lambda is then an integer max flow on that one structure: a
greedy first-fit flow, then Dinic phases (BFS levels, iterative blocking
flow) on the implicit residual graph.  Its left -> right arcs need no
capacity: the max flow is at most b * n_right, so they never bind.  A
right -> left residual arc exists only on an edge that carries flow, so
each cut keeps, per right vertex, the (edge, left vertex) pairs into it
that have carried flow, and walks back along those alone.  The first fit
scans left vertex i's row from position i mod its degree and wraps round,
so that the low-id right vertices do not fill first.  A phase's BFS stops
as soon as every right vertex with an edge has a level: the rest of its
sweep could label nothing new, and on a planted neighbourhood that happens
within the first few dozen of hundreds of left vertices.

The maximal source side is the set of left vertices with no residual path
to the sink, found by a reverse BFS from the sink that also yields |N(S)| as
the count of right vertices it misses.  That search needs every left vertex
with an edge into a right vertex, but only from right vertices the flow
leaves with room: when the flow saturates every right vertex with an edge,
which is how the cut at lambda = |N(W)|/|W| confirms that W itself is least
expanding, S is all of W and nothing is searched.  The reverse adjacency
(left ids per right vertex) is built only for the first cut that needs it.
`maxflow.Dinic` is the reference oracle the tests compare this kernel with.

An LES result depends only on the allowed vertices' rows, in ascending
vertex order, after dropping forbidden right vertices.  Inside `memo_scope`
(which `approx.solve_worst_case` opens around one solve) each such tuple of
rows is solved once: a repeat maps the stored row positions back to its own
left ids.  The memo lives in a context variable, so it is private to the
solve that opened it and gone when the block exits.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Iterator, Sequence

from .errors import EmptyLeftSideError, NegativeLambdaError
from .graph import BipartiteGraph, Solution, check_left_ids
# Unused here; perfbench/spans.py looks it up as ssbve.les.induced_left_subgraph.
from .graph import induced_left_subgraph  # noqa: F401


@dataclass(frozen=True)
class CutSelection:
    lam: Fraction
    chosen: tuple[int, ...]
    objective: Fraction  # |N(chosen)| - lam * |chosen|


# Row positions, |N| and expansion of each LES solved in the open memo_scope,
# keyed by the tuple of rows; None outside a scope.
_MEMO: ContextVar[dict[tuple, tuple[tuple[int, ...], int, Fraction]] | None] \
    = ContextVar("ssbve_les_memo", default=None)


@contextmanager
def memo_scope() -> Iterator[None]:
    """Answer repeated LES subproblems from memory until the block exits."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


class _Network:
    """The source -> left -> right -> sink network of one LES solve, read
    in place from its rows.

    Left vertex i has the right vertices rows[i] (ids below n_right).  Edge
    e = start[i] + k is position k of row i, so start holds the prefix sums
    of the row lengths and a per-edge list (the flow) is indexed by e.
    size counts the distinct right vertices of all the rows, their |N|.  A
    cut walks back from a right vertex only along its carrier list, the
    (edge, left vertex) pairs into it that have carried flow in that cut.
    The reverse adjacency (the left vertices with an edge into each right
    vertex) is built only when a cut's sink-side search needs it, and is
    then kept for the network's later cuts.
    """

    __slots__ = ("n", "n_right", "rows", "start", "size", "_into")

    def __init__(self, rows: Sequence[Sequence[int]], n_right: int) -> None:
        self.n, self.n_right, self.rows = len(rows), n_right, rows
        self.start = [0, *accumulate(map(len, rows))]
        self.size = len(set(chain.from_iterable(rows)))
        self._into: list[list[int]] | None = None

    def cut(self, a: int, b: int) -> tuple[list[int], int]:
        """(S, |N(S)|) for the maximal minimizer S of b|N(S)| - a|S|, as
        ascending left indices."""
        rows, start = self.rows, self.start
        n, n_right = self.n, self.n_right
        flow = [0] * start[-1]
        supply = [a] * n       # residual source -> left
        room = [b] * n_right   # residual right -> sink
        # carry[j] lists the (edge, left vertex) pairs into j that have
        # carried flow, each added when its flow turns positive; it holds
        # every edge with flow into j, plus stale entries whose flow has
        # gone back to 0.
        carry: list[list[tuple[int, int]]] = [[] for _ in range(n_right)]
        if a:
            for i, row in enumerate(rows):
                # Row i from position i mod its degree, wrapping round.
                rem = a
                lo, deg = start[i], len(row)
                mid = i % deg if deg else 0
                for k in range(mid, mid + deg):
                    if k >= deg:
                        k -= deg
                    j = row[k]
                    c = room[j]
                    if c:
                        d = c if c < rem else rem
                        flow[lo + k] = d
                        carry[j].append((lo + k, i))
                        room[j] = c - d
                        rem -= d
                        if not rem:
                            break
                supply[i] = rem
            while self._phase(flow, supply, room, carry):
                pass
        return self._sink_side(flow, room, b)

    def _phase(self, flow: list[int], supply: list[int], room: list[int],
               carry: list[list[tuple[int, int]]]) -> bool:
        """One Dinic phase; False when no augmenting path is left."""
        rows, start = self.rows, self.start
        n, n_right = self.n, self.n_right
        # Left vertices at depth d have level d, and so do the right vertices
        # they reach first; a right vertex at depth d leads to left d + 1.
        # Once every right vertex of the rows has a level, the rest of the
        # frontier can label nothing, so its scan stops there; the levels
        # are those of a full sweep.  If no right vertex with room was found
        # by then, none exists.
        lvl_l = [-1] * n
        lvl_r = [-1] * n_right
        sources = [i for i in range(n) if supply[i]]
        for i in sources:
            lvl_l[i] = 0
        todo = self.size  # right vertices of the rows with no level yet
        frontier, depth, found = sources, 0, False
        while frontier:
            reached = []
            for i in frontier:
                for j in rows[i]:
                    if lvl_r[j] < 0:
                        lvl_r[j] = depth
                        reached.append(j)
                        if room[j]:
                            found = True
                if len(reached) == todo:
                    break
            if found:
                break
            todo -= len(reached)
            if not todo:
                return False
            depth += 1
            frontier = []
            for j in reached:
                for e, i in carry[j]:
                    if flow[e] and lvl_l[i] < 0:
                        lvl_l[i] = depth
                        frontier.append(i)
        if not found:
            return False

        # Blocking flow by iterative DFS with current-arc pointers (a row
        # position per left vertex, a carrier-list position per right one).
        # path holds edge ids and trail the vertex each one leaves: even
        # positions are left -> right arcs, odd ones are right -> left
        # residual arcs (cancelling flow).  A dead end gets level -1 so that
        # no later walk in this phase enters it.  An edge added to carry
        # during the phase joins two vertices of equal level, so it is never
        # admissible before the next phase.
        ptr_l = [0] * n
        ptr_r = [0] * n_right
        for i0 in sources:
            path: list[int] = []
            trail: list[int] = []
            node, at_left = i0, True
            while True:
                if at_left:
                    row, k, want = rows[node], ptr_l[node], lvl_l[node]
                    end = len(row)
                    while k < end and lvl_r[row[k]] != want:
                        k += 1
                    ptr_l[node] = k
                    if k < end:
                        path.append(start[node] + k)
                        trail.append(node)
                        node, at_left = row[k], False
                        continue
                    lvl_l[node] = -1
                    if not path:
                        break
                    path.pop()
                    node, at_left = trail.pop(), False
                    ptr_r[node] += 1
                    continue
                if room[node]:
                    d = supply[i0]
                    if room[node] < d:
                        d = room[node]
                    back = path[1::2]
                    for e in back:
                        if flow[e] < d:
                            d = flow[e]
                    # Left -> right arc 2t leaves trail[2t] for trail[2t + 1],
                    # and the last one enters node.
                    for e, i, j in zip(path[0::2], trail[0::2],
                                       trail[1::2] + [node]):
                        if not flow[e]:
                            carry[j].append((e, i))
                        flow[e] += d
                    for e in back:
                        flow[e] -= d
                    room[node] -= d
                    supply[i0] -= d
                    if not supply[i0]:
                        break
                    path, trail = [], []
                    node, at_left = i0, True
                    continue
                arcs, k, want = carry[node], ptr_r[node], lvl_r[node] + 1
                m = len(arcs)
                while k < m:
                    e, i = arcs[k]
                    if flow[e] and lvl_l[i] == want:
                        break
                    k += 1
                ptr_r[node] = k
                if k < m:
                    path.append(e)
                    trail.append(node)
                    node, at_left = i, True
                    continue
                lvl_r[node] = -1
                path.pop()
                node, at_left = trail.pop(), True
                ptr_l[node] += 1
        return True

    def _sink_side(self, flow: list[int], room: list[int],
                   b: int) -> tuple[list[int], int]:
        """Reverse BFS from the sink over residual arcs.  Unreached left
        vertices form the maximal source side S; a right vertex is unreached
        exactly when it is in N(S), since it is then saturated by flow from S.
        When the flow saturates every right vertex of the rows (one with no
        edge keeps its room b), the search reaches no left vertex, so S is
        every row."""
        n, n_right, size = self.n, self.n_right, self.size
        if sum(room) == b * (n_right - size):
            return list(range(n)), size
        rows, start, into = self.rows, self.start, self._into
        if into is None:
            into = self._into = [[] for _ in range(n_right)]
            for i, row in enumerate(rows):
                for j in row:
                    into[j].append(i)
        seen_l = bytearray(n)
        seen_r = bytearray(n_right)
        queue = [j for j, c in enumerate(room) if c]
        for j in queue:
            seen_r[j] = 1
        for j in queue:
            for i in into[j]:
                if not seen_l[i]:
                    seen_l[i] = 1
                    for f, v in zip(flow[start[i]:start[i + 1]], rows[i]):
                        if f and not seen_r[v]:
                            seen_r[v] = 1
                            queue.append(v)
        chosen = [i for i in range(n) if not seen_l[i]]
        return chosen, n_right - len(queue)


def min_cut_select(g: BipartiteGraph, lam: Fraction | int) -> CutSelection:
    """Left set minimizing |N(S)| - lam*|S| (maximal among minimizers)."""
    lam = Fraction(lam)
    if lam < 0:
        raise NegativeLambdaError(f"lambda={lam} must be nonnegative")
    chosen, size = _Network(g.adj_left, g.n_right).cut(
        lam.numerator, lam.denominator)
    return CutSelection(lam=lam, chosen=tuple(chosen),
                        objective=size - lam * len(chosen))


def _dinkelbach(rows: Sequence[Sequence[int]], n_right: int
                ) -> tuple[tuple[int, ...], int, Fraction]:
    """Least expanding set of the left vertices with the given rows: its
    ascending row positions, |N| and expansion."""
    if not all(rows):
        isolated = tuple(i for i, row in enumerate(rows) if not row)
        return isolated, 0, Fraction(0)
    net = _Network(rows, n_right)
    current, size = range(len(rows)), net.size
    lam = Fraction(size, len(current))
    # |N(S)|/|S| takes at most n*n' distinct values and strictly decreases.
    while True:
        chosen, nb = net.cut(lam.numerator, lam.denominator)
        if not chosen or nb * lam.denominator >= lam.numerator * len(chosen):
            return tuple(current), size, lam
        current, size = chosen, nb
        lam = Fraction(size, len(current))


def _solve(g: BipartiteGraph, left: Sequence[int],
           forbidden: frozenset[int]) -> Solution:
    """Least expanding subset of the ascending vertices `left`, ignoring
    edges into `forbidden`, answered from the memo when one is open."""
    adj = g.adj_left
    if forbidden:
        rows = tuple([tuple([v for v in adj[u] if v not in forbidden])
                      for u in left])
    else:
        rows = tuple([adj[u] for u in left])
    memo = _MEMO.get()
    found = None if memo is None else memo.get(rows)
    if found is None:
        found = _dinkelbach(rows, g.n_right)
        if memo is not None:
            memo[rows] = found
    positions, size, lam = found
    return Solution(chosen=tuple([left[i] for i in positions]),
                    neighborhood_size=size, expansion=lam)


def least_expanding_set(g: BipartiteGraph) -> Solution:
    """Nonempty left set with exactly minimal expansion |N(S)|/|S|."""
    if g.n == 0:
        raise EmptyLeftSideError("graph has no left vertices")
    return _solve(g, range(g.n), frozenset())


def least_expanding_subset(
        g: BipartiteGraph,
        allowed: Iterable[int],
        forbidden_right: Iterable[int] = (),
) -> Solution:
    """Least expanding set among subsets of `allowed`, with edges into
    `forbidden_right` deleted before solving.  The returned Solution is
    expressed in the original graph's indices but its neighborhood counts
    exclude the forbidden right vertices."""
    allowed = tuple(sorted(set(allowed)))
    if not allowed:
        raise EmptyLeftSideError("allowed left set is empty")
    check_left_ids(g, allowed)
    return _solve(g, allowed, frozenset(forbidden_right))
