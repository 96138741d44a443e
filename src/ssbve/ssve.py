"""Small-set vertex expansion via a pluggable small-set edge-expansion
oracle: solve for the edge objective, return the same set measured by the
vertex objective (each outside neighbor absorbs at least one cut edge, so
vertex expansion never exceeds edge expansion)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (InvalidBudgetError, TooLargeError,
                     UnsupportedRegimeError)
from .graph import UndirectedGraph


BRUTEFORCE_MAX_N = 16  # the bruteforce oracle's largest vertex count


@dataclass(frozen=True)
class SseOracle:
    kind: str  # "bruteforce" | "sweep"

    def __post_init__(self) -> None:
        if self.kind not in ("bruteforce", "sweep"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")


def edge_boundary(g: UndirectedGraph, s: set[int]) -> int:
    return sum(1 for a in s for b in g.adj[a] if b not in s)


def sse_solve(g: UndirectedGraph, k: int,
              oracle: SseOracle) -> tuple[tuple[int, ...], Fraction]:
    """Set S with |S| <= k minimizing |E(S, complement)|/|S|, exactly for the
    bruteforce oracle and heuristically for the spectral sweep."""
    if k < 1:
        raise InvalidBudgetError(f"budget k={k} must be at least 1")
    if oracle.kind == "bruteforce":
        if g.n > BRUTEFORCE_MAX_N:
            raise TooLargeError(
                f"n={g.n} exceeds the bruteforce budget {BRUTEFORCE_MAX_N}")
        return _sse_bruteforce(g, k)
    return _sse_sweep(g, k)


def _sse_bruteforce(g: UndirectedGraph,
                    k: int) -> tuple[tuple[int, ...], Fraction]:
    masks = [0] * g.n
    for a in range(g.n):
        for b in g.adj[a]:
            masks[a] |= 1 << b
    best: tuple[Fraction, int, tuple[int, ...]] | None = None
    for size in range(1, min(k, g.n) + 1):
        for subset in combinations(range(g.n), size):
            s_mask = 0
            for a in subset:
                s_mask |= 1 << a
            cut = sum((masks[a] & ~s_mask).bit_count() for a in subset)
            key = (Fraction(cut, size), size, subset)
            if best is None or key < best:
                best = key
    assert best is not None
    return best[2], best[0]


def _sse_sweep(g: UndirectedGraph,
               k: int) -> tuple[tuple[int, ...], Fraction]:
    """Sort by the second eigenvector of the normalized Laplacian (power
    iteration with deflation of the trivial eigenvector) and take the best
    prefix of size <= k from either end of the ordering."""
    n = g.n
    deg = np.array([max(1, len(g.adj[a])) for a in range(n)], dtype=float)
    inv_sqrt = 1.0 / np.sqrt(deg)
    adj = np.zeros((n, n))
    for a in range(n):
        for b in g.adj[a]:
            adj[a, b] = 1.0
    # M = I - L_norm = D^(-1/2) A D^(-1/2) has top eigenvector D^(1/2) 1;
    # deflate it and power iterate for the next one.
    m = inv_sqrt[:, None] * adj * inv_sqrt[None, :]
    m = 0.5 * (m + np.eye(n))  # shift into [0, 1] to stabilize iteration
    top = np.sqrt(deg)
    top /= np.linalg.norm(top)
    rng = np.random.default_rng(12345)
    vec = rng.standard_normal(n)
    vec -= top * (top @ vec)
    vec /= np.linalg.norm(vec)
    for _ in range(10_000):
        nxt = m @ vec
        nxt -= top * (top @ nxt)
        norm = np.linalg.norm(nxt)
        if norm == 0:
            break
        nxt /= norm
        if np.linalg.norm(nxt - vec) < 1e-8:
            vec = nxt
            break
        vec = nxt
    order = np.argsort(vec * inv_sqrt, kind="stable")
    best: tuple[Fraction, int, tuple[int, ...]] | None = None
    for ordering in (list(order), list(order[::-1])):
        for size in range(1, min(k, n) + 1):
            subset = tuple(sorted(int(x) for x in ordering[:size]))
            cut = edge_boundary(g, set(subset))
            key = (Fraction(cut, size), size, subset)
            if best is None or key < best:
                best = key
    assert best is not None
    return best[2], best[0]


def ssve_via_sse(g: UndirectedGraph, k: int,
                 oracle: SseOracle) -> dict:
    """Vertex-expansion set from the edge-expansion oracle.

    Only the k <= sqrt(n) regime is handled here; larger budgets need an
    external bicriteria expander-routing solver and are refused explicitly.
    Returns the chosen set with both its edge and vertex expansion.
    """
    if k * k > g.n:
        raise UnsupportedRegimeError(
            f"k={k} exceeds sqrt(n)={g.n ** 0.5:.2f}: this regime requires "
            "an external large-budget bicriteria solver (not implemented)")
    chosen, edge_exp = sse_solve(g, k, oracle)
    s = set(chosen)
    vertex_out = len(g.open_neighborhood(s) - s)
    return {
        "chosen": chosen,
        "edge_expansion": edge_exp,
        "vertex_expansion": Fraction(vertex_out, len(chosen)),
    }
