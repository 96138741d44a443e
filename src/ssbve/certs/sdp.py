"""Gram-matrix certificate for the vector relaxation on biregular gap
instances, with exact rational verification plus a redundant numeric
eigenvalue cross-check.

The certificate matrix X = [[A, C], [C^T, B]] has entries determined by a
handful of rational classes:

    A diagonal      k/n
    A off-diagonal  mu * nu(u1,u2) + eta        (nu = common neighbors)
    B               tau on the diagonal, tau/2 off
    C               k/n on edges, a positive constant off edges

and is proved positive semidefinite by an explicit decomposition
X = Y + Z + sum over right vertices v of X^(v), each part passing a 2x2
minor condition.  All identities are checked in exact arithmetic; the
eigenvalue route, computed from the small invariant blocks of X, is a guard
against implementation mistakes.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from ..errors import InfeasibleError, ParameterRegimeError, StalledError
from ..graph import BipartiteGraph
from .report import VerifyReport


def cap_degrees(g: BipartiteGraph, d_l_max: int,
                d_r_max: int) -> BipartiteGraph:
    """Deterministically delete edges until no degree exceeds its cap.

    Over-degree vertices shed edges to their highest-degree partners first,
    right side first; useful before biregularize, whose precondition needs
    all degrees at or below the targets.
    """
    adj = [set(nbrs) for nbrs in g.adj_left]
    radj = [set(nbrs) for nbrs in g.adj_right]
    deg_l = [len(a) for a in adj]
    deg_r = [len(a) for a in radj]
    for v in range(g.n_right):
        while deg_r[v] > d_r_max:
            u = max(radj[v], key=lambda u: (deg_l[u], u))
            adj[u].discard(v)
            radj[v].discard(u)
            deg_l[u] -= 1
            deg_r[v] -= 1
    for u in range(g.n):
        while deg_l[u] > d_l_max:
            v = max(adj[u], key=lambda v: (deg_r[v], v))
            adj[u].discard(v)
            deg_l[u] -= 1
            deg_r[v] -= 1
    return BipartiteGraph.from_rows(g.n_right, [tuple(sorted(a)) for a in adj])


def biregularize(g: BipartiteGraph, d_l_target: int,
                 d_r_target: int) -> BipartiteGraph:
    """Add edges until every left degree is d_l_target and every right degree
    is d_r_target.  Greedy largest-deficiency pairing, with an augmenting
    edge swap whenever the greedy stalls.

    The left vertex comes from a heap, most deficient first and then the
    lowest id.  The deficient right vertices sit in one ascending list per
    deficiency, so the right vertex is found by walking down from the top
    list and skipping u's neighbours (at most d_l_target of them): again
    most deficient first, then the lowest id."""
    if g.n * d_l_target != g.n_right * d_r_target:
        raise InfeasibleError(
            f"n*d_l = {g.n * d_l_target} != s*d_r = {g.n_right * d_r_target}")
    for u in range(g.n):
        if g.degree_left(u) > d_l_target:
            raise InfeasibleError(f"left degree {g.degree_left(u)} "
                                  f"exceeds target {d_l_target}")
    for v in range(g.n_right):
        if g.degree_right(v) > d_r_target:
            raise InfeasibleError(f"right degree {g.degree_right(v)} "
                                  f"exceeds target {d_r_target}")
    adj = [set(nbrs) for nbrs in g.adj_left]
    radj = [set(nbrs) for nbrs in g.adj_right]
    def_l = [d_l_target - len(a) for a in adj]
    # A step adds one edge at u and one at v (the swap keeps u2's and v2's
    # degrees), so the popped u is the only heap entry to renew and v the
    # only right vertex to move down one bucket.
    heap = [(-d, u) for u, d in enumerate(def_l) if d > 0]
    heapq.heapify(heap)
    buckets: list[list[int]] = [[] for _ in range(d_r_target + 1)]
    for v, nbrs in enumerate(radj):
        if len(nbrs) < d_r_target:
            buckets[d_r_target - len(nbrs)].append(v)
    top = d_r_target
    while heap:
        _, u = heapq.heappop(heap)
        adj_u = adj[u]
        while not buckets[top]:
            top -= 1
        v = next((w for d in range(top, 0, -1) for w in buckets[d]
                  if w not in adj_u), None)
        if v is not None:
            adj_u.add(v)
            radj[v].add(u)
        else:
            # Greedy stall: every deficient right vertex already neighbors u.
            v = buckets[top][0]
            if not _augment_swap(g.n, g.n_right, adj, radj, u, v):
                raise StalledError(
                    f"no augmenting swap for left {u} / right {v}")
        def_l[u] -= 1
        if def_l[u]:
            heapq.heappush(heap, (-def_l[u], u))
        d = d_r_target - len(radj[v]) + 1  # v's deficiency before the step
        bucket = buckets[d]
        del bucket[bisect_left(bucket, v)]
        if d > 1:
            insort(buckets[d - 1], v)
    return BipartiteGraph.from_rows(g.n_right, [tuple(sorted(a)) for a in adj])


def _augment_swap(n, s, adj, radj, u, v) -> bool:
    """Find an edge (u2, v2) with (u, v2) and (u2, v) both absent; replace it
    by those two edges, raising deg(u) and deg(v) by one each."""
    for v2 in range(s):
        if v2 == v or v2 in adj[u]:
            continue
        for u2 in sorted(radj[v2]):
            if u2 != u and v not in adj[u2]:
                adj[u2].discard(v2)
                radj[v2].discard(u2)
                adj[u].add(v2)
                radj[v2].add(u)
                adj[u2].add(v)
                radj[v].add(u2)
                return True
    return False


@dataclass
class SdpCertificate:
    k: int
    d_l: int
    d_r: int
    sdp_alpha: Fraction
    tau: Fraction
    graph: BipartiteGraph
    biadj: np.ndarray  # 0/1 biadjacency, n x s float64
    nu: np.ndarray  # common-neighbor counts, n x n int64

    # Entry classes (exact)
    a_diag: Fraction = field(init=False)
    a_off_coeff: Fraction = field(init=False)  # multiplies nu
    a_off_const: Fraction = field(init=False)
    c_edge: Fraction = field(init=False)
    c_nonedge: Fraction = field(init=False)
    zeta: Fraction = field(init=False)

    def __post_init__(self) -> None:
        n, s, k, d_l, d_r = self.n, self.s, self.k, self.d_l, self.d_r
        alpha, tau = self.sdp_alpha, self.tau
        self.a_diag = Fraction(k, n)
        self.a_off_coeff = alpha * k * k / (d_l * (d_r - 1) * n)
        self.a_off_const = Fraction((1 - alpha) * k * k - k, 1) / (n * (n - 1))
        self.c_edge = Fraction(k, n)
        self.c_nonedge = k * (tau - Fraction(d_r, n)) / (n - d_r)
        self.zeta = (Fraction(k, n)
                     - alpha * k * k / ((d_r - 1) * n)
                     - self.a_off_const)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def s(self) -> int:
        return self.graph.n_right

    @property
    def objective(self) -> Fraction:
        return self.s * self.tau


def build_sdp_certificate(g: BipartiteGraph, k: int) -> SdpCertificate:
    """Certificate for a biregular graph; rejects parameter regimes that
    violate any inequality the positivity argument needs."""
    n, s = g.n, g.n_right
    degrees_l = {g.degree_left(u) for u in range(n)}
    degrees_r = {g.degree_right(v) for v in range(s)}
    if len(degrees_l) != 1 or len(degrees_r) != 1:
        raise ParameterRegimeError("graph is not biregular")
    d_l = degrees_l.pop()
    d_r = degrees_r.pop()
    if d_l == 0 or d_r <= 1:
        raise ParameterRegimeError("degenerate degrees")
    alpha = Fraction(1, 2) * min(Fraction(d_l * n, k * s), Fraction(1))
    tau = 2 * Fraction(d_l * d_l) / (alpha * s)
    if not k < Fraction(n - 1, 2):
        raise ParameterRegimeError(f"need k < (n-1)/2, got k={k}, n={n}")
    if not tau < Fraction(1, 8):
        raise ParameterRegimeError(f"need tau < 1/8, got tau={float(tau):.4g}")
    if not 2 * alpha * k * s <= d_l * n:
        raise ParameterRegimeError("need 2*alpha*k*s <= d_l*n")
    biadj = _biadjacency(g)
    # A float64 product runs on BLAS and is exact: every entry is an
    # integer count of at most s < 2**53.
    nu = (biadj @ biadj.T).astype(np.int64)
    return SdpCertificate(k=k, d_l=d_l, d_r=d_r, sdp_alpha=alpha, tau=tau,
                          graph=g, biadj=biadj, nu=nu)


def _biadjacency(g: BipartiteGraph) -> np.ndarray:
    """The 0/1 n x s biadjacency matrix of g, as float64."""
    b = np.zeros((g.n, g.n_right))
    b[np.repeat(np.arange(g.n), [len(nbrs) for nbrs in g.adj_left]),
      np.fromiter(chain.from_iterable(g.adj_left), np.intp)] = 1.0
    return b


def _common_neighbours(g: BipartiteGraph) -> np.ndarray:
    """The n x n int64 common-neighbour counts of g (its B B^T), counted from
    the right-vertex lists: each right vertex adds one to every ordered pair
    of its left neighbours, the pair (u, u) included."""
    n = g.n
    flat = [np.empty(0, np.int64)]
    for nbrs in g.adj_right:
        a = np.array(nbrs, np.int64)
        flat.append((a[:, None] * n + a).ravel())
    return np.bincount(np.concatenate(flat), minlength=n * n).reshape(n, n)


def _mismatches(got: np.ndarray, want: np.ndarray) -> int:
    """Entries where two matrices differ; every entry if their shapes do."""
    if got.shape != want.shape:
        return max(got.size, want.size)
    return int(np.count_nonzero(got != want))


def _eigen_extremes(cert: SdpCertificate) -> tuple[float, float]:
    """Minimum eigenvalue and spectral norm of X, from its invariant blocks.

    With B the 0/1 biadjacency, X = [[mu BB^T + eta J + zeta I,
    c_n J + (c_e - c_n) B], [., (tau/2)(J + I)]].  For a biregular B, each
    singular value sigma of B off the all-ones pair gives the 2x2 block
    [[mu sigma^2 + zeta, (c_e - c_n) sigma], [., tau/2]], the all-ones pair
    gives one more, and the rest of the larger side has eigenvalue zeta
    (left) or tau/2 (right).
    """
    b = cert.biadj
    n, s = b.shape
    mu, eta, zeta, ce, cn, half_tau = (float(x) for x in (
        cert.a_off_coeff, cert.a_off_const, cert.zeta, cert.c_edge,
        cert.c_nonedge, cert.tau / 2))
    # sigma^2 from the smaller Gram matrix, less one copy of its top value
    # d_l*d_r (the all-ones pair), which a disconnected graph repeats.
    sig2 = np.clip(np.linalg.eigvalsh(b.T @ b if s <= n else b @ b.T)[:-1],
                   0.0, None)
    top = cert.d_l * cert.d_r
    a = np.append(mu * sig2 + zeta, mu * top + eta * n + zeta)
    off = np.append((ce - cn) * np.sqrt(sig2),
                    cn * np.sqrt(n * s) + (ce - cn) * np.sqrt(top))
    c = np.append(np.full(sig2.size, half_tau), half_tau * (s + 1))
    mid, rad = (a + c) / 2, np.hypot((a - c) / 2, off)
    rest = [zeta] * (n > s) + [half_tau] * (s > n)
    eigs = np.concatenate([mid - rad, mid + rad, rest])
    return float(eigs.min()), float(np.abs(eigs).max())


def verify_sdp_certificate(cert: SdpCertificate,
                           eig_tol: float = 1e-9) -> VerifyReport:
    """Exact rational identity checks, the decomposition-based positivity
    witness, and the numeric minimum-eigenvalue guard."""
    rep = VerifyReport(tolerance=0.0)
    n, s, k = cert.n, cert.s, cert.k
    d_l, d_r = cert.d_l, cert.d_r
    alpha, tau = cert.sdp_alpha, cert.tau
    mu, eta = cert.a_off_coeff, cert.a_off_const

    tau_id = 4 * max(Fraction(d_l * d_l, s), Fraction(d_l * k, n))
    rep.add_exact("tau-identity", cert.tau == tau_id, cert.tau, tau_id)

    rep.add_exact("trace-sum", n * cert.a_diag == k, n * cert.a_diag, k)

    # Edge constraint <u,v> = |u|^2 reduces to c_edge == a_diag.
    rep.add_exact("edge-inner-product", cert.c_edge == cert.a_diag,
                  cert.c_edge, cert.a_diag)

    # Row-sum identities realizing <w, v0> = |w|^2 for v0 = (1/k) sum u.
    nu_rowsum = cert.nu.sum(axis=1) - cert.nu.diagonal()
    expected = d_l * (d_r - 1)
    bad_rows = int(np.count_nonzero(nu_rowsum != expected))
    rep.add("rowsum-u-counts", bad_rows, 0, bad_rows)
    row_u = Fraction(1, k) * (cert.a_diag + eta * (n - 1) + mu * expected)
    rep.add_exact("rowsum-u-identity", row_u == cert.a_diag,
                  row_u, cert.a_diag)
    deg_bad = sum(1 for v in range(s) if cert.graph.degree_right(v) != d_r)
    rep.add("rowsum-v-degrees", deg_bad, 0, deg_bad)
    row_v = Fraction(1, k) * (d_r * cert.c_edge + (n - d_r) * cert.c_nonedge)
    rep.add_exact("rowsum-v-identity", row_v == tau, row_v, tau)

    v0_norm = Fraction(1, k * k) * n * (k * cert.a_diag)
    rep.add_exact("v0-norm", v0_norm == 1, v0_norm, 1)

    nonneg = {
        "nonneg-a-diag": cert.a_diag,
        "nonneg-a-off-coeff": mu,
        "nonneg-a-off-const": eta,
        "nonneg-b": tau / 2,
        "nonneg-c-edge": cert.c_edge,
    }
    for name, value in nonneg.items():
        rep.add_exact(name, value >= 0, value, 0)
    rep.add_exact("positive-c-nonedge", cert.c_nonedge > 0,
                  cert.c_nonedge, 0)

    # Entrywise decomposition X = Y + Z + sum_v X^(v), case by case.
    # On an edge the sum is (a_diag - c_nonedge) + c_nonedge, which is
    # c_edge exactly when edge-inner-product holds.
    x_uv_edge = cert.a_diag - cert.c_nonedge  # X^(v) entry on edges
    u_diag = mu * d_l + eta + cert.zeta
    rep.add_exact("decomp-u-diagonal", u_diag == cert.a_diag,
                  u_diag, cert.a_diag)
    # The per-pair nu counts in sum_v X^(v) are the common-neighbor counts
    # of the graph: biadj is its 0/1 matrix and nu its B B^T, recounted
    # here from the graph itself (so nu-gram also fails any asymmetric nu).
    # These rows and the degree rows also make the eigenvalue guard's
    # blocks those of the X checked here.
    bad = int(np.count_nonzero(cert.nu.diagonal() != d_l))
    rep.add_exact("nu-diagonal", bad == 0, bad, 0)
    bad = _mismatches(cert.biadj, _biadjacency(cert.graph))
    rep.add("biadj-graph", bad, 0, bad)
    bad = _mismatches(cert.nu, _common_neighbours(cert.graph))
    rep.add("nu-gram", bad, 0, bad)

    # 2x2 minor witnesses.
    det_m1 = mu * (tau / 2) - x_uv_edge * x_uv_edge
    rep.add_exact("psd-m1-diagonal", min(mu, tau) > 0, min(mu, tau), 0)
    rep.add_exact("psd-m1-determinant", det_m1 >= 0, det_m1, 0)
    det_m2 = eta * (tau / 2) - cert.c_nonedge * cert.c_nonedge
    rep.add_exact("psd-m2-determinant", det_m2 >= 0, det_m2, 0)
    rep.add_exact("psd-zeta", cert.zeta >= 0, cert.zeta, 0)

    # Numeric eigenvalue guard.
    min_eig, norm = _eigen_extremes(cert)
    rep.add("eigen-min", min_eig, -eig_tol * norm,
            max(0.0, -eig_tol * norm - min_eig))

    obj_id = 4 * max(Fraction(d_l * d_l), Fraction(d_l * k * s, n))
    rep.add_exact("objective-identity", cert.objective == obj_id,
                  cert.objective, obj_id)

    rep.extra = {
        "kind": "sdp",
        "params": {"n": n, "s": s, "k": k, "d_l": d_l, "d_r": d_r,
                   "alpha": float(alpha), "tau": float(tau)},
        "objective": float(cert.objective),
        "combinatorial_lb": min(k, s) / 2,
        "gap_ratio": (min(k, s) / 2) / float(cert.objective),
    }
    return rep
