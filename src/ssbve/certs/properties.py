"""Structural checks for generated gap instances: optimum lower bound,
degree concentration, and length-4 connectivity between left vertices."""

from __future__ import annotations

import math
from math import comb

from ..exact import exact_ssbve
from ..graph import BipartiteGraph, SsbveInstance, neighborhood
from ..rng import stream
from .report import VerifyReport

_EXACT_LIMIT = 200_000


def check_instance_properties(g: BipartiteGraph, k: int, samples: int,
                              seed: int = 0) -> VerifyReport:
    """Three checks on a gap instance:

    1. min |N(S)| over k-subsets is at least min(k, s)/2 (exact when the
       subset count is small, else the minimum over sampled subsets);
    2. every degree lies within [mean/2, 3*mean/2] on both sides, around
       the realized mean degrees;
    3. sampled left pairs are joined by a path of length 4 (only checked
       when s <= ceil(sqrt(n)), where the instance is dense enough).
    """
    rep = VerifyReport(tolerance=0.0)
    n, s = g.n, g.n_right
    rng = stream(seed, 0x4C41)

    lb = min(k, s) / 2
    if comb(n, k) <= _EXACT_LIMIT:
        best = exact_ssbve(SsbveInstance(graph=g, k=k)).neighborhood_size
        rep.extra["item1_mode"] = "exact"
    else:
        best = s + 1
        for _ in range(samples):
            subset = rng.sample_range(n, k)
            best = min(best, len(neighborhood(g, subset)))
        rep.extra["item1_mode"] = "sampled"
    rep.add("item1-optimum-lb", best, lb, max(0.0, lb - best))

    d_l = g.num_edges() / n
    d_r = g.num_edges() / s
    bad = sum(1 for u in range(n)
              if not d_l / 2 <= g.degree_left(u) <= 1.5 * d_l)
    bad += sum(1 for v in range(s)
               if not d_r / 2 <= g.degree_right(v) <= 1.5 * d_r)
    rep.add("item2-degree-bounds", bad, 0, bad)

    if s <= math.ceil(math.sqrt(n)):
        found = 0
        for _ in range(samples):
            u1 = rng.randrange(n)
            u2 = rng.randrange(n)
            while u2 == u1 and n > 1:
                u2 = rng.randrange(n)
            if _length4_path(g, u1, u2):
                found += 1
        rep.add("item3-length4-paths", found, samples, samples - found)
        rep.extra["item3_checked"] = True
    else:
        rep.extra["item3_checked"] = False

    rep.extra.setdefault("params", {})
    rep.extra["params"].update({"n": n, "s": s, "k": k,
                                "d_l": d_l, "samples": samples})
    return rep


def _length4_path(g: BipartiteGraph, u1: int, u2: int) -> bool:
    """u1 - v1 - u' - v2 - u2 with all five vertices distinct."""
    n1 = set(g.adj_left[u1])
    n2 = set(g.adj_left[u2])
    if not n1 or not n2:
        return False
    for mid in range(g.n):
        if mid in (u1, u2):
            continue
        nm = set(g.adj_left[mid])
        a = nm & n1
        b = nm & n2
        if a and b and len(a | b) >= 2:
            return True
    return False
