"""Brute-force exact solvers: the ground truth every approximation and
certificate claim is validated against at desk scale."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import BudgetExceededError, TooLargeError
from .graph import BipartiteGraph, Solution, SsbveInstance, UndirectedGraph

SUBSET_BUDGET = 10 ** 7  # most k-subsets exact_ssbve enumerates
LES_MAX_N = 20           # most left vertices exact_les enumerates 2^n over
SSVE_MAX_N = 16          # most vertices exact_ssve enumerates over


def exact_ssbve(inst: SsbveInstance) -> Solution:
    """Lexicographically-smallest k-subset minimizing |N(S)|."""
    g, k = inst.graph, inst.k
    if comb(g.n, k) > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"C({g.n},{k}) exceeds the enumeration budget {SUBSET_BUDGET}")
    masks = g.left_masks()
    best_set: tuple[int, ...] | None = None
    best_size = g.n_right + 1
    for subset in combinations(range(g.n), k):
        m = 0
        for u in subset:
            m |= masks[u]
        size = m.bit_count()
        if size < best_size:
            best_size = size
            best_set = subset
    assert best_set is not None
    return Solution(chosen=best_set, neighborhood_size=best_size,
                    expansion=Fraction(best_size, k))


def exact_les(g: BipartiteGraph) -> Solution:
    """Exact least expanding set by subset enumeration (n <= LES_MAX_N).

    Ties are broken by smaller |S|, then lexicographically smallest set.
    """
    if g.n > LES_MAX_N:
        raise TooLargeError(
            f"n={g.n} exceeds the enumeration limit {LES_MAX_N}")
    if g.n == 0:
        raise TooLargeError("graph has no left vertices")
    masks = g.left_masks()
    # Incremental neighborhood masks over all 2^n subsets via lowest-bit DP.
    nbhd = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & (-s)
        nbhd[s] = nbhd[s ^ low] | masks[low.bit_length() - 1]
    best_num, best_den = g.n_right, 1  # ratio n_right/1 bounds any expansion
    best_subset = None
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            s = 0
            for u in subset:
                s |= 1 << u
            num = nbhd[s].bit_count()
            if num * best_den < best_num * size:
                best_num, best_den = num, size
                best_subset = subset
    if best_subset is None:  # everything ties with ratio n_right; take {0}
        best_subset = (0,)
        best_num, best_den = len(g.adj_left[0]), 1
    return Solution(chosen=best_subset, neighborhood_size=best_num,
                    expansion=Fraction(best_num, best_den))


def exact_ssve(g: UndirectedGraph,
               k: int) -> tuple[tuple[int, ...], Fraction]:
    """Set S with |S| <= k minimizing |N(S) \\ S| / |S|, by enumeration
    (n <= SSVE_MAX_N)."""
    if g.n > SSVE_MAX_N:
        raise TooLargeError(
            f"n={g.n} exceeds the enumeration limit {SSVE_MAX_N}")
    adj_masks = g.masks()
    best: tuple[Fraction, int, tuple[int, ...]] | None = None
    for size in range(1, min(k, g.n) + 1):
        for subset in combinations(range(g.n), size):
            s_mask = 0
            nb = 0
            for a in subset:
                s_mask |= 1 << a
                nb |= adj_masks[a]
            ratio = Fraction((nb & ~s_mask).bit_count(), size)
            key = (ratio, size, subset)
            if best is None or key < best:
                best = key
    assert best is not None
    return best[2], best[0]
