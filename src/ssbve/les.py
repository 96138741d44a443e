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
vertices are dropped.  Every Dinkelbach lambda is then an integer max flow
on that one structure: a greedy first-fit flow, then Dinic phases (BFS
levels, iterative blocking flow) on the implicit residual graph.  Its
left -> right arcs need no capacity: the max flow is at most b * n_right, so
they never bind.  A right -> left residual arc exists only on an edge that
carries flow, so each cut keeps, per right vertex, the list of edges into it
that have carried flow, and walks back along those alone.  The first fit
scans left vertex i's row from position i mod its degree and wraps round,
so that the low-id right vertices do not fill first.  A phase's BFS stops
as soon as every right vertex with an edge has a level: the rest of its
sweep could label nothing new, and on a planted neighbourhood that happens
within the first few dozen of hundreds of left vertices.

The maximal source side is the set of left vertices with no residual path
to the sink, found by a reverse BFS from the sink that also yields |N(S)| as
the count of right vertices it misses.  That search needs every edge into a
right vertex, but only from right vertices the flow leaves with room: when
the flow saturates every right vertex with an edge, which is how the cut at
lambda = |N(W)|/|W| confirms that W itself is least expanding, S is all of W
and nothing is searched.  The full reverse adjacency is built only for the
first cut that needs it.  `maxflow.Dinic` is the reference oracle the tests
compare this kernel with.

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
from typing import Iterable, Iterator, Sequence

from .errors import EmptyLeftSideError, NegativeLambdaError
# Unused here; perfbench/spans.py looks it up as ssbve.les.induced_left_subgraph.
from .graph import BipartiteGraph, Solution, induced_left_subgraph  # noqa: F401


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
    """The source -> left -> right -> sink network of one LES solve.

    Left vertex i has the right vertices rows[i] (ids below n_right); its
    edges are ids start[i]..start[i+1]-1, and edge e runs from left vertex
    tail[e] to right vertex head[e].  size counts the distinct heads, the
    |N| of all the rows.  A cut walks back from a right vertex only along
    its carrier list, the edges into it that have carried flow in that cut.
    The reverse adjacency (every edge into each right vertex) is built only
    when a cut's sink-side search needs it, and is then kept for the
    network's later cuts.
    """

    __slots__ = ("n", "n_right", "start", "head", "tail", "size", "_into")

    def __init__(self, rows: Sequence[Sequence[int]], n_right: int) -> None:
        start = [0]
        head: list[int] = []
        tail: list[int] = []
        for i, row in enumerate(rows):
            head += row
            tail += [i] * len(row)
            start.append(len(head))
        self.n, self.n_right = len(rows), n_right
        self.start, self.head, self.tail = start, head, tail
        self.size = len(set(head))
        self._into: list[list[int]] | None = None

    def cut(self, a: int, b: int) -> tuple[list[int], int]:
        """(S, |N(S)|) for the maximal minimizer S of b|N(S)| - a|S|, as
        ascending left indices."""
        start, head = self.start, self.head
        n, n_right = self.n, self.n_right
        flow = [0] * len(head)
        supply = [a] * n       # residual source -> left
        room = [b] * n_right   # residual right -> sink
        # carry[j] lists the edges into j that have carried flow, each added
        # when its flow turns positive; it holds every edge with flow into j,
        # plus stale entries whose flow has gone back to 0.
        carry: list[list[int]] = [[] for _ in range(n_right)]
        if a:
            for i in range(n):
                # Row i from position i mod its degree, wrapping round.
                rem = a
                lo, hi = start[i], start[i + 1]
                deg = hi - lo
                mid = lo + i % deg if deg else lo
                for k in range(mid, mid + deg):
                    e = k if k < hi else k - deg
                    j = head[e]
                    c = room[j]
                    if c:
                        d = c if c < rem else rem
                        flow[e] = d
                        carry[j].append(e)
                        room[j] = c - d
                        rem -= d
                        if not rem:
                            break
                supply[i] = rem
            while self._phase(flow, supply, room, carry):
                pass
        return self._sink_side(flow, room, b)

    def _phase(self, flow: list[int], supply: list[int], room: list[int],
               carry: list[list[int]]) -> bool:
        """One Dinic phase; False when no augmenting path is left."""
        start, head, tail = self.start, self.head, self.tail
        n, n_right = self.n, self.n_right
        # Left vertices at depth d have level d, and so do the right vertices
        # they reach first; a right vertex at depth d leads to left d + 1.
        # Once every head has a level, the rest of the frontier can label
        # nothing, so its scan stops there; the levels are those of a full
        # sweep.  If no head with room was found by then, none exists.
        lvl_l = [-1] * n
        lvl_r = [-1] * n_right
        sources = [i for i in range(n) if supply[i]]
        for i in sources:
            lvl_l[i] = 0
        todo = self.size  # heads with no level yet
        frontier, depth, found = sources, 0, False
        while frontier:
            reached = []
            for i in frontier:
                for e in range(start[i], start[i + 1]):
                    j = head[e]
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
                for e in carry[j]:
                    if flow[e]:
                        i = tail[e]
                        if lvl_l[i] < 0:
                            lvl_l[i] = depth
                            frontier.append(i)
        if not found:
            return False

        # Blocking flow by iterative DFS with current-arc pointers.  path
        # holds edge ids: even positions are left -> right arcs, odd ones are
        # right -> left residual arcs (cancelling flow).  A dead end gets
        # level -1 so that no later walk in this phase enters it.  An edge
        # added to carry during the phase joins two vertices of equal level,
        # so it is never admissible before the next phase.
        ptr_l = start[:-1]
        ptr_r = [0] * n_right
        for i0 in sources:
            path: list[int] = []
            node, at_left = i0, True
            while True:
                if at_left:
                    e, end, want = ptr_l[node], start[node + 1], lvl_l[node]
                    while e < end and lvl_r[head[e]] != want:
                        e += 1
                    ptr_l[node] = e
                    if e < end:
                        path.append(e)
                        node, at_left = head[e], False
                        continue
                    lvl_l[node] = -1
                    if not path:
                        break
                    node, at_left = head[path.pop()], False
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
                    for e in path[0::2]:
                        if not flow[e]:
                            carry[head[e]].append(e)
                        flow[e] += d
                    for e in back:
                        flow[e] -= d
                    room[node] -= d
                    supply[i0] -= d
                    if not supply[i0]:
                        break
                    path = []
                    node, at_left = i0, True
                    continue
                arcs, k, want = carry[node], ptr_r[node], lvl_r[node] + 1
                m = len(arcs)
                while k < m and not (flow[arcs[k]]
                                     and lvl_l[tail[arcs[k]]] == want):
                    k += 1
                ptr_r[node] = k
                if k < m:
                    path.append(arcs[k])
                    node, at_left = tail[arcs[k]], True
                    continue
                lvl_r[node] = -1
                node, at_left = tail[path.pop()], True
                ptr_l[node] += 1
        return True

    def _sink_side(self, flow: list[int], room: list[int],
                   b: int) -> tuple[list[int], int]:
        """Reverse BFS from the sink over residual arcs.  Unreached left
        vertices form the maximal source side S; a right vertex is unreached
        exactly when it is in N(S), since it is then saturated by flow from S.
        When the flow saturates every head (a right vertex with no edge keeps
        its room b), the search reaches no left vertex, so S is every row."""
        n, n_right, size = self.n, self.n_right, self.size
        if sum(room) == b * (n_right - size):
            return list(range(n)), size
        start, head, tail, into = self.start, self.head, self.tail, self._into
        if into is None:
            into = self._into = [[] for _ in range(n_right)]
            for e, v in enumerate(head):
                into[v].append(e)
        seen_l = bytearray(n)
        seen_r = bytearray(n_right)
        queue = [j for j, c in enumerate(room) if c]
        for j in queue:
            seen_r[j] = 1
        for j in queue:
            for e in into[j]:
                i = tail[e]
                if not seen_l[i]:
                    seen_l[i] = 1
                    for f in range(start[i], start[i + 1]):
                        if flow[f] and not seen_r[head[f]]:
                            seen_r[head[f]] = 1
                            queue.append(head[f])
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
                ) -> tuple[tuple[int, ...], int, Fraction, list[Fraction]]:
    """Least expanding set of the left vertices with the given rows: its
    ascending row positions, |N| and expansion, plus the (strictly
    decreasing) lambda sequence."""
    net = _Network(rows, n_right)
    isolated = tuple(i for i in range(len(rows))
                     if net.start[i] == net.start[i + 1])
    if isolated:
        return isolated, 0, Fraction(0), [Fraction(0)]
    current, size = range(len(rows)), net.size
    lam = Fraction(size, len(current))
    trace = [lam]
    # |N(S)|/|S| takes at most n*n' distinct values and strictly decreases.
    while True:
        chosen, nb = net.cut(lam.numerator, lam.denominator)
        if not chosen or nb * lam.denominator >= lam.numerator * len(chosen):
            return tuple(current), size, lam, trace
        current, size = chosen, nb
        lam = Fraction(size, len(current))
        trace.append(lam)


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
        found = _dinkelbach(rows, g.n_right)[:3]
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
    return _solve(g, allowed, frozenset(forbidden_right))
