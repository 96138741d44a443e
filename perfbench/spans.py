"""Outside-in span tracing for the benchmark's traced run.

The tracer replaces module attributes of the ``ssbve`` package with timing
wrappers while a traced op runs and restores them afterwards, so ``src/`` is
never edited and untraced ops run the original functions.  A wrapper goes on
the attribute its callers look up: ``ssbve.approx`` imports the LES solvers
and ``induced_left_subgraph`` by name, ``ssbve.les`` calls ``min_cut_select``
and ``induced_left_subgraph`` through its own globals, and the two ``Dinic``
methods are patched on the class.  ``Dinic.add_edge`` is left alone: a
planted op calls it about 570k times, which would swamp the run.

Each span is one record ``[name, start, end, parent, op, outermost]`` held
in memory; ``write_spans`` dumps them when the benchmark ends.  A span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter

import ssbve.approx
import ssbve.certs
import ssbve.formats
import ssbve.generators
import ssbve.les
from ssbve.errors import PreconditionViolatedError
from ssbve.maxflow import Dinic


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._seen: set = set()
        self._patches = self._build_patches()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap fn so that every call records a span called `name`."""
        spans, stack, depth = self.spans, self._stack, self._depth

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   depth[name] == 0]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                depth[name] -= 1
                stack.pop()
        return wrapper

    def begin_op(self, op) -> None:
        """Start op `op`: LES repeats are counted within one op only."""
        self.op = op
        self._seen = set()

    def _note_subproblem(self, key: tuple) -> None:
        self.counts["les.top_calls"] += 1
        if key in self._seen:
            self.counts["les.repeats"] += 1
        else:
            self._seen.add(key)

    # -- the wrappers ------------------------------------------------------

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        approx, les, certs = ssbve.approx, ssbve.les, ssbve.certs
        counts, span = self.counts, self.span

        def subset_entry(fn):
            inner = span("les.least_expanding_subset", fn)

            def least_expanding_subset(g, allowed, forbidden_right=()):
                allowed = tuple(allowed)
                forbidden = frozenset(forbidden_right)
                self._note_subproblem(tuple(sorted(
                    tuple(v for v in g.adj_left[u] if v not in forbidden)
                    for u in set(allowed))))
                return inner(g, allowed, forbidden)
            return least_expanding_subset

        def set_entry(fn):
            inner = span("les.least_expanding_set", fn)

            def least_expanding_set(g):
                self._note_subproblem(tuple(sorted(g.adj_left)))
                return inner(g)
            return least_expanding_set

        def max_flow(fn):
            inner = span("maxflow.max_flow", fn)

            def wrapper(net, s, t):
                counts["maxflow.arcs"] += len(net.to) // 2
                return inner(net, s, t)
            return wrapper

        def step(name):
            def wrap(fn):
                inner = span(name, fn)

                def wrapper(*args, **kwargs):
                    out = inner(*args, **kwargs)
                    if isinstance(out, approx.Done):
                        counts["approx.done"] += 1
                    return out
                return wrapper
            return wrap

        def backbone(fn):
            inner = step("approx.backbone_step")(fn)

            def wrapper(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                except PreconditionViolatedError:
                    counts["approx.backbone_step.dropped"] += 1
                    raise
            return wrapper

        def checks(name):
            def wrap(fn):
                inner = span(name, fn)

                def wrapper(*args, **kwargs):
                    rep = inner(*args, **kwargs)
                    counts[name + ".checks"] += len(rep.checks)
                    return rep
                return wrapper
            return wrap

        def named(name):
            return lambda fn: span(name, fn)

        table = [
            (ssbve.generators, "gen_planted", named("generators")),
            (ssbve.generators, "gen_random_bipartite", named("generators")),
            (ssbve.generators, "gen_gap_instance", named("generators")),
            (ssbve.formats, "parse_ssbve", named("formats.parse_ssbve")),
            (approx, "induced_left_subgraph",
             named("graph.induced_left_subgraph")),
            (les, "induced_left_subgraph",
             named("graph.induced_left_subgraph")),
            (approx, "least_expanding_subset", subset_entry),
            (approx, "least_expanding_set", set_entry),
            (les, "least_expanding_set", named("les.least_expanding_set")),
            (les, "min_cut_select", named("les.min_cut_select")),
            (Dinic, "max_flow", max_flow),
            (Dinic, "source_side_max", named("maxflow.source_side_max")),
            (approx, "solve_planted", named("approx.solve_planted")),
            (approx, "solve_worst_case", named("approx.solve_worst_case")),
            (approx, "exact_from_atmost", named("approx.exact_from_atmost")),
            (approx, "preprocess", named("approx.preprocess")),
            (approx, "first_step", step("approx.first_step")),
            (approx, "hair_step", step("approx.hair_step")),
            (approx, "backbone_step", backbone),
            (approx, "final_step", named("approx.final_step")),
            (certs, "cap_degrees", named("certs.sdp.prepare")),
            (certs, "biregularize", named("certs.sdp.prepare")),
            (certs, "build_sdp_certificate", named("certs.sdp.build")),
            (certs, "verify_sdp_certificate", checks("certs.sdp.verify")),
            (certs, "build_sa_certificate", named("certs.sa.build")),
            (certs, "verify_sa_certificate", checks("certs.sa.verify")),
            (certs, "sample_property_checks", checks("certs.sa.props")),
        ]
        patches = []
        for owner, attr, make in table:
            original = getattr(owner, attr)
            patches.append((owner, attr, original, make(original)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics: spans and counts of the traced ops, per op;
        generator time is per set-up."""
        total: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        self_time: Counter = Counter()
        setup_generators = 0.0
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for idx, (name, start, end, _, op, outermost) in enumerate(self.spans):
            if op == "setup":
                if name == "generators" and outermost:
                    setup_generators += end - start
                continue
            calls[name] += 1
            self_time[name] += end - start - child[idx]
            if outermost:
                total[name] += end - start
        c = self.counts
        ops = max(1, n_ops)
        out = {"generators.s": setup_generators}

        def timed(name, with_calls=True):
            out[name + ".s"] = total[name] / ops
            if with_calls:
                out[name + ".calls"] = calls[name] / ops

        timed("formats.parse_ssbve", with_calls=False)
        timed("graph.induced_left_subgraph")
        timed("les.least_expanding_subset")
        timed("les.least_expanding_set")
        timed("les.min_cut_select", with_calls=False)
        out["les.min_cut_select.self_s"] = self_time["les.min_cut_select"] / ops
        cuts = calls["les.min_cut_select"]
        out["les.cuts"] = cuts / ops
        out["les.cuts_per_call"] = _ratio(cuts, calls["les.least_expanding_set"])
        out["les.subproblem_repeat_frac"] = _ratio(c["les.repeats"],
                                                   c["les.top_calls"])
        timed("maxflow.max_flow")
        out["maxflow.arcs"] = c["maxflow.arcs"] / ops
        timed("maxflow.source_side_max", with_calls=False)
        timed("approx.solve_planted", with_calls=False)
        timed("approx.solve_worst_case", with_calls=False)
        timed("approx.exact_from_atmost", with_calls=False)
        timed("approx.preprocess")
        steps = ("approx.first_step", "approx.hair_step",
                 "approx.backbone_step", "approx.final_step")
        for name in steps:
            timed(name)
        pops = sum(calls[name] for name in steps)
        out["approx.pops"] = pops / ops
        out["approx.backbone_step.dropped"] = \
            c["approx.backbone_step.dropped"] / ops
        out["approx.step_done_frac"] = _ratio(
            c["approx.done"] + calls["approx.final_step"], pops)
        for kind, parts in (("sdp", ("prepare", "build", "verify")),
                            ("sa", ("build", "verify", "props"))):
            for part in parts:
                out[f"certs.{kind}.{part}_s"] = \
                    total[f"certs.{kind}.{part}"] / ops
        out["certs.sdp.checks"] = c["certs.sdp.verify.checks"] / ops
        out["certs.sa.checks"] = (c["certs.sa.verify.checks"]
                                  + c["certs.sa.props.checks"]) / ops
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span, gzipped: name, start, end, parent index,
        op.  A traced worst run records about half a million spans."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
