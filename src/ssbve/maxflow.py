"""Dinic maximum flow with integer capacities: the reference oracle.

No solver runs on this class; the LES solver has its own bipartite min-cut
kernel (`ssbve.les`), and the tests check that kernel's cuts against an
explicit network built here.  Exactness matters more than raw speed: all
capacities are integers, all flow values are integers, and min-cut sides are
recovered from the residual graph, so callers can rely on exact cut
identities.
"""

from __future__ import annotations

from collections import deque


class Dinic:
    def __init__(self, n_nodes: int) -> None:
        self.n = n_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Adds u->v with the given capacity; returns the edge id."""
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[u].append(eid)
        self.to.append(u)
        self.cap.append(0)
        self.adj[v].append(eid + 1)
        return eid

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u: int, t: int, f: int, level: list[int],
             it: list[int]) -> int:
        if u == t:
            return f
        while it[u] < len(self.adj[u]):
            eid = self.adj[u][it[u]]
            v = self.to[eid]
            if self.cap[eid] > 0 and level[v] == level[u] + 1:
                d = self._dfs(v, t, min(f, self.cap[eid]), level, it)
                if d > 0:
                    self.cap[eid] -= d
                    self.cap[eid ^ 1] += d
                    return d
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                f = self._dfs(s, t, 1 << 62, level, it)
                if f == 0:
                    break
                flow += f

    def source_side_max(self, t: int) -> set[int]:
        """Maximal min-cut source side: complement of the set of nodes with a
        residual path to the sink."""
        reach_t = {t}
        q = deque([t])
        while q:
            y = q.popleft()
            # Edge x->y has residual capacity cap[eid^1] where eid is the
            # paired reverse edge stored in adj[y].
            for eid in self.adj[y]:
                x = self.to[eid]
                if self.cap[eid ^ 1] > 0 and x not in reach_t:
                    reach_t.add(x)
                    q.append(x)
        return set(range(self.n)) - reach_t
