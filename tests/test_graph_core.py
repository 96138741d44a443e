"""Graph substrate, expansion arithmetic, and the equivalence reductions."""

import tracemalloc
from dataclasses import fields
from fractions import Fraction
from types import SimpleNamespace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssbve.certs import biregularize, cap_degrees
from ssbve.errors import (CliqueTooSmallError, EmptySetError, FormatError,
                          InvalidBudgetError, SsbveError)
from ssbve.exact import exact_ssbve
from ssbve.formats import (MAX_HEADER_SIZE, _edge_rows, parse_mku,
                           parse_ssbve, parse_ssve, write_mku, write_ssbve,
                           write_ssve)
from ssbve.generators import PlantedSpec, gen_planted, gen_random_bipartite
from ssbve.graph import (BipartiteGraph, Hypergraph, Solution, SsbveInstance,
                         UndirectedGraph, expansion, induced_left_subgraph,
                         mku_to_ssbve, neighborhood, ssbve_to_mku,
                         ssbve_to_ssveu, ssveu_to_ssbve, _mask)
from ssbve.rng import stream

from conftest import (random_bipartite, random_undirected,
                      validate_rows)


def naive_union(g: BipartiteGraph, s) -> set[int]:
    out = set()
    for u in s:
        for v in range(g.n_right):
            if v in g.adj_left[u]:
                out.add(v)
    return out


class TestNeighborhood:
    def test_empty_set(self, tiny_star):
        assert neighborhood(tiny_star, []) == set()

    def test_shared_neighbor(self, tiny_star):
        assert neighborhood(tiny_star, [0, 1]) == {0}

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_double_loop(self, seed):
        g = random_bipartite(seed, 8, 6)
        rng_sets = [list(range(0, 8, 2)), [0], [7, 3], list(range(8))]
        for s in rng_sets:
            assert neighborhood(g, s) == naive_union(g, s)


class TestExpansion:
    def test_singleton_degree_two(self):
        g = BipartiteGraph.from_edges(1, 2, [(0, 0), (0, 1)])
        assert expansion(g, [0]) == Fraction(2, 1)

    def test_perfect_matching(self):
        g = BipartiteGraph.from_edges(3, 3, [(i, i) for i in range(3)])
        assert expansion(g, [0, 1, 2]) == 1

    def test_shared_neighbor(self, tiny_star):
        assert expansion(tiny_star, [0, 1]) == Fraction(1, 2)

    def test_empty_raises(self, tiny_star):
        with pytest.raises(EmptySetError):
            expansion(tiny_star, [])


class TestSolutionFromSet:
    @pytest.mark.parametrize("ids", [[-1], [0, -3], [3], [1, 3]])
    def test_ids_outside_the_left_side_rejected(self, ids):
        # -1 and -3 would read vertices 2 and 0 through negative indexing.
        g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 0), (2, 1)])
        with pytest.raises(IndexError, match="out of range"):
            Solution.from_set(g, ids)

    def test_valid_set_unchanged(self):
        g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 0), (2, 1)])
        assert Solution.from_set(g, [2, 0, 2]) == Solution(
            chosen=(0, 2), neighborhood_size=2, expansion=Fraction(1))


def reference_mask(indices) -> int:
    """One big-int OR per bit; the oracle of graph._mask."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


class TestGraphInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_validate_random(self, seed):
        validate_rows(random_bipartite(seed, 9, 5))

    @given(st.integers(0, 2 ** 31), st.integers(1, 7), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_neighborhood_union_bound(self, seed, n, n_right):
        g = random_bipartite(seed, n, n_right)
        s = list(range(n))
        total = sum(g.degree_left(u) for u in s)
        nbhd = len(neighborhood(g, s))
        assert nbhd <= total
        disjoint = all(
            not set(g.adj_left[a]) & set(g.adj_left[b])
            for a, b in combinations(s, 2))
        assert (nbhd == total) == disjoint

    def test_from_rows_rebuilds_the_graph(self):
        g = random_bipartite(3, 9, 6)
        assert BipartiteGraph.from_rows(g.n_right, g.adj_left) == g
        assert BipartiteGraph.from_rows(4, []) == \
            BipartiteGraph.from_edges(0, 4, [])

    @pytest.mark.parametrize("indices", [
        (), (0,), (5,), (0, 1, 2, 3), (3, 64, 65), (1, 4099), (10_000,),
        (0, 7, 8, 63, 64, 127, 128, 4095)])
    def test_mask_matches_bit_loop(self, indices):
        assert _mask(indices) == reference_mask(indices)

    @pytest.mark.parametrize("seed", range(6))
    def test_masks_match_bit_loop(self, seed):
        # Isolated vertices on both sides give empty rows.
        g = random_bipartite(seed + 500, 12 + seed, 3 + 2 * seed,
                             (0.05, 0.3, 0.9)[seed % 3])
        assert g.left_masks() == [reference_mask(a) for a in g.adj_left]
        assert g.right_masks() == [reference_mask(a) for a in g.adj_right]

    @pytest.mark.parametrize("seed", range(4))
    def test_undirected_masks_match_bit_loop(self, seed):
        # Sparse draws leave isolated vertices.
        g = random_undirected(seed + 40, 3 + 5 * seed, (0.1, 0.5)[seed % 2])
        assert g.masks() == [reference_mask(a) for a in g.adj]

    def test_fields_are_the_rows(self):
        assert [f.name for f in fields(BipartiteGraph)] == ["n_right",
                                                            "adj_left"]
        g = BipartiteGraph.from_rows(3, [(0, 2), (), (1,)])
        assert g.n == 3 and g.num_edges() == 3

    @pytest.mark.parametrize("build", [
        lambda: BipartiteGraph.from_edges(0, 3, []),
        lambda: BipartiteGraph.from_edges(3, 0, []),
        lambda: BipartiteGraph.from_edges(0, 0, []),
        # isolated vertices on both sides
        lambda: BipartiteGraph.from_edges(5, 6, [(1, 0), (1, 4), (3, 4)]),
        lambda: BipartiteGraph.from_rows(4, [(0, 3), (), (1, 2, 3)]),
        lambda: random_bipartite(7, 12, 9, 0.3),
        lambda: gen_random_bipartite(40, 15, 0.2, 3),
        lambda: gen_planted(PlantedSpec(n=64, alpha=0.5, beta=0.5,
                                        gamma=0.2, r_degree=3,
                                        seed=1))[0].graph,
        lambda: parse_ssbve("p ssbve 4 5 1\ne 1 5\ne 3 1\ne 3 5\n").graph,
        lambda: induced_left_subgraph(random_bipartite(8, 10, 6),
                                      [9, 2, 4, 2])[0],
        lambda: cap_degrees(gen_random_bipartite(10, 3, 0.6, 1), 3, 10),
        lambda: biregularize(cap_degrees(gen_random_bipartite(10, 3, 0.3, 1),
                                         3, 10), 3, 10),
    ])
    def test_right_view_is_the_transpose(self, build):
        g = build()
        cols = [[] for _ in range(g.n_right)]
        for u, v in g.edges():
            cols[v].append(u)
        assert g.adj_right == tuple(tuple(sorted(c)) for c in cols)
        assert g.adj_right is g.adj_right

    @pytest.mark.parametrize("seed", range(20))
    def test_induced_subgraph_matches_edge_build(self, seed):
        rng = stream(seed, 0x1D5)
        n, n_right = 1 + rng.randrange(15), rng.randrange(9)
        g = random_bipartite(seed + 300, n, n_right, 0.4)
        ids = [rng.randrange(n) for _ in range(rng.randrange(2 * n))]
        sub, left_ids = induced_left_subgraph(g, ids)
        assert left_ids == tuple(sorted(set(ids)))
        edges = [(new_u, v) for new_u, u in enumerate(left_ids)
                 for v in g.adj_left[u]]
        validate_rows(sub)
        assert sub == BipartiteGraph.from_edges(len(left_ids), n_right,
                                                edges)


class TestMkuSsbve:
    def test_direct_construction(self):
        h = Hypergraph.from_sets(3, [[0, 1], [1, 2]])
        inst = mku_to_ssbve(h, 1)
        assert (inst.graph.n, inst.graph.n_right) == (2, 3)
        assert exact_ssbve(inst).neighborhood_size == 2

    def test_full_selection(self):
        h = Hypergraph.from_sets(4, [[0], [1, 2], [2, 3]])
        inst = mku_to_ssbve(h, 3)
        sol = exact_ssbve(inst)
        assert sol.neighborhood_size == len(
            neighborhood(inst.graph, range(3)))

    def test_invalid_budget(self):
        h = Hypergraph.from_sets(2, [[0]])
        with pytest.raises(InvalidBudgetError):
            mku_to_ssbve(h, 2)

    @pytest.mark.parametrize("seed", range(15))
    def test_union_equals_neighborhood(self, seed):
        from ssbve.rng import stream
        rng = stream(seed, 1)
        sets = [[e for e in range(6) if rng.bernoulli(0.4)]
                for _ in range(5)]
        h = Hypergraph.from_sets(6, sets)
        inst = mku_to_ssbve(h, 2)
        for pair in combinations(range(5), 2):
            union = set(h.sets[pair[0]]) | set(h.sets[pair[1]])
            assert len(union) == len(neighborhood(inst.graph, pair))

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_identity(self, seed):
        g = random_bipartite(seed, 10, 8)
        inst = SsbveInstance(graph=g, k=3)
        h, k = ssbve_to_mku(inst)
        back = mku_to_ssbve(h, k)
        assert back.graph == inst.graph
        assert back.k == inst.k

    def test_isolated_vertex_empty_set(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0)])
        h, _ = ssbve_to_mku(SsbveInstance(graph=g, k=1))
        assert h.sets[1] == ()


class TestSsveuReductions:
    def test_triangle(self):
        g = UndirectedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        inst = ssveu_to_ssbve(g, 1)
        assert len(neighborhood(inst.graph, [0])) == 2
        assert len(g.open_neighborhood([0])) == 2

    def test_edgeless(self):
        g = UndirectedGraph.from_edges(4, [])
        inst = ssveu_to_ssbve(g, 2)
        assert all(len(inst.graph.adj_left[u]) == 0 for u in range(4))

    @pytest.mark.parametrize("seed", range(10))
    def test_neighborhoods_preserved(self, seed):
        g = random_undirected(seed, 9)
        inst = ssveu_to_ssbve(g, 3)
        for size in (1, 2, 3):
            for s in combinations(range(9), size):
                assert (len(g.open_neighborhood(s))
                        == len(neighborhood(inst.graph, s)))

    def test_clique_too_small(self, tiny_star):
        inst = SsbveInstance(graph=tiny_star, k=1)
        with pytest.raises(CliqueTooSmallError):
            ssbve_to_ssveu(inst, clique_size=3)

    def test_single_edge_round(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 0)])
        out = ssbve_to_ssveu(SsbveInstance(graph=g, k=1), clique_size=5)
        # U vertex 0 has the single original neighbor, nothing else.
        assert out.adj[0] == (1,)


def _atmost_ratio_undirected(g: UndirectedGraph, k: int) -> Fraction:
    best = None
    for size in range(1, k + 1):
        for s in combinations(range(g.n), size):
            r = Fraction(len(g.open_neighborhood(s)), size)
            if best is None or r < best:
                best = r
    return best


def _atmost_ratio_bipartite(g: BipartiteGraph, k: int) -> Fraction:
    best = None
    for size in range(1, k + 1):
        for s in combinations(range(g.n), size):
            r = Fraction(len(neighborhood(g, s)), size)
            if best is None or r < best:
                best = r
    return best


class TestReductionOptima:
    def test_star_instance(self, tiny_star):
        inst = SsbveInstance(graph=tiny_star, k=2)
        out = ssbve_to_ssveu(inst, clique_size=10)
        assert _atmost_ratio_undirected(out, 2) == Fraction(1, 2)
        assert _atmost_ratio_bipartite(tiny_star, 2) == Fraction(1, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_equal_optima(self, seed):
        g = random_bipartite(seed, 6, 4)
        inst = SsbveInstance(graph=g, k=2)
        out = ssbve_to_ssveu(inst)
        assert (_atmost_ratio_undirected(out, 2)
                == _atmost_ratio_bipartite(g, 2))


# Body lines for a parser that got past its header: a line keyword, then
# small integers and junk tokens, so that every field check is reached.
_TOKEN = st.one_of(st.integers(-2, 6).map(str),
                   st.sampled_from(["x", "1.5", "0x1", "-", "e", "s"]),
                   st.text(max_size=3))
_LINE = st.builds(lambda key, fields: " ".join([key] + fields),
                  st.sampled_from(["e", "s", "p", "q"]),
                  st.lists(_TOKEN, max_size=4))


def reference_parse_ssbve(text: str) -> SsbveInstance:
    """The line-by-line parser with a running duplicate check, kept as the
    oracle for parse_ssbve."""
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        lines.append(line.split())
    if not lines or lines[0][0] != "p" or len(lines[0]) != 5 \
            or lines[0][1] != "ssbve":
        raise FormatError("expected header 'p ssbve' with 3 integers")
    try:
        n, n_right, k = [int(x) for x in lines[0][2:]]
    except ValueError as exc:
        raise FormatError(f"non-integer header field: {exc}") from exc
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    try:
        for fields in lines[1:]:
            if fields[0] != "e" or len(fields) != 3:
                raise FormatError(f"bad edge line: {' '.join(fields)}")
            u, v = int(fields[1]), int(fields[2])
            if not (1 <= u <= n and 1 <= v <= n_right):
                raise FormatError(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise FormatError(f"duplicate edge line ({u},{v})")
            seen.add((u, v))
            edges.append((u - 1, v - 1))
    except ValueError as exc:
        raise FormatError(f"non-integer edge field: {exc}") from exc
    return SsbveInstance(graph=BipartiteGraph.from_edges(n, n_right, edges),
                         k=k)


def reference_parse_ssve(text: str) -> tuple[UndirectedGraph, int]:
    """The line-by-line parser that stops at the first fault in line order,
    kept as the oracle for parse_ssve."""
    lines = [fields for fields in map(str.split, text.splitlines())
             if fields and fields[0][0] != "c"]
    if not lines or lines[0][:1] != ["p"] or len(lines[0]) != 4 \
            or lines[0][1] != "ssve":
        raise FormatError("expected header 'p ssve' with 2 integers")
    try:
        n, k = [int(x) for x in lines[0][2:]]
    except ValueError as exc:
        raise FormatError(f"non-integer header field: {exc}") from exc
    if not 0 <= n <= MAX_HEADER_SIZE:
        raise FormatError(f"header size {n} is negative or above "
                          f"{MAX_HEADER_SIZE}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    try:
        for fields in lines[1:]:
            if fields[0] != "e" or len(fields) != 3:
                raise FormatError(f"bad edge line: {' '.join(fields)}")
            a, b = int(fields[1]), int(fields[2])
            if a == b:
                raise FormatError(f"self-loop at {a}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise FormatError(f"edge ({a},{b}) out of range")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise FormatError(f"duplicate edge line ({a},{b})")
            seen.add(key)
            edges.append((a - 1, b - 1))
    except ValueError as exc:
        raise FormatError(f"non-integer edge field: {exc}") from exc
    return UndirectedGraph.from_edges(n, edges), k


def _outcome(parse, text: str):
    try:
        return parse(text)
    except SsbveError as exc:
        return type(exc), str(exc)


_SEP = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\n\n",
                        "\n  \t\n"])
_PAD = st.sampled_from(["", " ", "\t", "  ", "\x0b", "\x1f"])
_SSBVE_FIELD = st.one_of(st.integers(-1, 5).map(str),
                         st.sampled_from(["x", "1.5", "+2", "07", "", "e"]))
_SSBVE_EDGE = st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
    lambda uv: f"e {uv[0]} {uv[1]}")
# Mostly in-range edges on a 3x3 header, so that duplicates are common.
_SSBVE_OTHER = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda uv: f"e {uv[0]} {uv[1]}"),
    st.lists(_SSBVE_FIELD, min_size=0, max_size=3).map(
        lambda fs: " ".join(["e"] + fs)),
    st.sampled_from(["c a comment", "c", "cx 1 2", "p ssbve 3 3 1", "",
                     "e 1 1 c", "q 1 1"]))
_SSBVE_LINE = st.integers(0, 9).flatmap(
    lambda i: _SSBVE_EDGE if i < 7 else _SSBVE_OTHER)
_SSBVE_HEADER = st.one_of(
    st.sampled_from(["p ssbve 3 3 1", "p ssbve 3 3 2",
                     "c header comment\n  p ssbve 3 3 3"]),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 5)).map(
        lambda h: f"p ssbve {h[0]} {h[1]} {h[2]}"),
    st.sampled_from(["p ssbve 3 3", "p ssbve 3 x 1", "p mku 3 3 1"]))


def _with_bounds(lo: int, hi: int):
    """An integer in [lo, hi], drawn at either bound half of the time."""
    return st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))


@st.composite
def _ssbve_instances(draw):
    n, n_right = draw(st.integers(1, 7)), draw(st.integers(0, 7))
    # Small edge sets, so that isolated vertices on both sides are common.
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, max(n_right - 1, 0))),
                         max_size=n * n_right))
    return SsbveInstance(graph=BipartiteGraph.from_edges(n, n_right, edges),
                         k=draw(_with_bounds(1, n)))


@st.composite
def _mku_instances(draw):
    n_elements = draw(st.integers(0, 7))
    sets = draw(st.lists(st.sets(st.integers(0, n_elements - 1))
                         if n_elements else st.just(set()), max_size=6))
    h = Hypergraph.from_sets(n_elements, sets)
    return h, draw(_with_bounds(1, max(len(h.sets), 1)))


@st.composite
def _ssve_instances(draw):
    n = draw(st.integers(1, 7))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1))
                         .filter(lambda ab: ab[0] != ab[1])))
    return UndirectedGraph.from_edges(n, pairs), draw(_with_bounds(1, n))


class TestReductionRows:
    """The reductions take their input's rows as they are: each graph is
    the one built from its edge list."""

    @given(inst=_mku_instances().filter(lambda hk: hk[0].sets))
    @settings(max_examples=100, deadline=None)
    def test_mku_rows(self, inst):
        h, k = inst
        g = mku_to_ssbve(h, k).graph
        validate_rows(g)
        assert g == BipartiteGraph.from_edges(
            len(h.sets), h.n_elements,
            [(i, e) for i, s in enumerate(h.sets) for e in s])

    @given(inst=_ssve_instances())
    @settings(max_examples=100, deadline=None)
    def test_ssveu_rows(self, inst):
        g, k = inst
        b = ssveu_to_ssbve(g, k).graph
        validate_rows(b)
        assert b == BipartiteGraph.from_edges(
            g.n, g.n, [(a, c) for a in range(g.n) for c in g.adj[a]])


class TestFormatRoundTrips:
    @given(inst=_ssbve_instances())
    @settings(max_examples=200, deadline=None)
    def test_ssbve(self, inst):
        assert parse_ssbve(write_ssbve(inst)) == inst

    @given(inst=_mku_instances())
    @settings(max_examples=200, deadline=None)
    def test_mku(self, inst):
        h, k = inst
        assert parse_mku(write_mku(h, k)) == (h, k)

    @given(inst=_ssve_instances())
    @settings(max_examples=200, deadline=None)
    def test_ssve(self, inst):
        g, k = inst
        assert parse_ssve(write_ssve(g, k)) == (g, k)


class TestFormats:
    @given(header=_SSBVE_HEADER,
           body=st.lists(st.tuples(_PAD, _SSBVE_LINE, _PAD, _SEP),
                         max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_ssbve_parser_matches_reference(self, header, body):
        text = header + "\n" + "".join(a + line + b + sep
                                        for a, line, b, sep in body)
        got, want = _outcome(parse_ssbve, text), _outcome(
            reference_parse_ssbve, text)
        if isinstance(want, SsbveInstance):
            assert got == want
        else:
            # Only a text that also has a duplicate may name another fault.
            assert isinstance(got, tuple) and got[0] is want[0]
            assert got[1] == want[1] or \
                want[1].startswith("duplicate edge line")

    def test_ssbve_duplicate_reported_after_other_faults(self):
        text = "p ssbve 2 2 1\ne 1 1\r\ne 2 1\x0ce 1 1\n"
        with pytest.raises(FormatError, match=r"duplicate edge line \(1,1\)"):
            parse_ssbve(text)
        with pytest.raises(FormatError, match="out of range"):
            parse_ssbve(text + "e 3 1\n")

    @pytest.mark.parametrize("parse, header", [
        (parse_ssbve, "p ssbve 3 3 2"),
        (parse_mku, "p mku 3 2 1"),
        (parse_ssve, "p ssve 3 2"),
    ])
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_raises_only_ssbve_errors(self, parse, header,
                                                     data):
        text = data.draw(st.one_of(
            st.text(max_size=60),
            st.lists(_LINE, max_size=6).map(
                lambda lines: "\n".join([header] + lines))))
        try:
            parse(text)
        except SsbveError:
            pass

    @pytest.mark.parametrize("parse, text", [
        (parse_ssbve, "p ssbve 2 2 1\ne 1 x\n"),
        (parse_mku, "p mku 3 1 1\ns x 1\n"),
        (parse_mku, "p mku 3 1 1\ns 1 1.5\n"),
        (parse_ssve, "p ssve 3 1\ne x 2\n"),
    ])
    def test_non_integer_field_is_format_error(self, parse, text):
        with pytest.raises(FormatError):
            parse(text)

    def test_ssbve_round_trip(self):
        g = random_bipartite(3, 5, 4)
        inst = SsbveInstance(graph=g, k=2)
        assert parse_ssbve(write_ssbve(inst)) == inst

    def test_ssbve_duplicate_edge_rejected(self):
        text = "p ssbve 2 2 1\ne 1 1\ne 1 1\n"
        with pytest.raises(FormatError):
            parse_ssbve(text)

    def test_ssbve_bad_header(self):
        with pytest.raises(FormatError):
            parse_ssbve("p nope 1 1 1\n")

    def test_mku_round_trip(self):
        h = Hypergraph.from_sets(5, [[0, 2], [1], [], [2, 3, 4]])
        text = write_mku(h, 2)
        h2, k2 = parse_mku(text)
        assert h2 == h and k2 == 2

    def test_mku_duplicate_element_rejected(self):
        with pytest.raises(FormatError):
            parse_mku("p mku 3 1 1\ns 2 1 1\n")

    def test_ssve_round_trip(self):
        g = random_undirected(5, 6)
        text = write_ssve(g, 3)
        g2, k2 = parse_ssve(text)
        assert g2 == g and k2 == 3

    def test_comments_ignored(self):
        text = "c comment line\np ssbve 1 1 1\nc another\ne 1 1\n"
        inst = parse_ssbve(text)
        assert inst.graph.num_edges() == 1
        indented = "  c x\r\np ssbve 2 1 1\x0c\t c\x1ce 1 1\r\n \x0b e 2 1\n"
        assert parse_ssbve(indented).graph.num_edges() == 2


# Mostly edges on four vertices, so that self-loops, pairs given both ways
# and exact repeats are all common.
_SSVE_OTHER = st.one_of(
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(
        lambda ab: f"e {ab[0]} {ab[1]}"),
    st.lists(_SSBVE_FIELD, min_size=0, max_size=3).map(
        lambda fs: " ".join(["e"] + fs)),
    st.sampled_from(["c a comment", "c", "cx 1 2", "p ssve 4 1", "",
                     "e 1 1 c", "q 1 2", "e 07 +2"]))
_SSVE_LINE = st.integers(0, 9).flatmap(
    lambda i: st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda ab: f"e {ab[0]} {ab[1]}") if i < 7 else _SSVE_OTHER)
# Mostly a header that holds, so that the body is read.
_SSVE_HEADER = st.integers(0, 9).flatmap(lambda i: st.sampled_from(
    ["p ssve 4 1", "p ssve 4 2", "p ssve 3 1", "p ssve 5 2",
     "c header comment\n  p ssve 4 2"]) if i < 8 else st.one_of(
    st.tuples(st.integers(-1, 5), st.integers(-1, 3)).map(
        lambda h: f"p ssve {h[0]} {h[1]}"),
    st.sampled_from(["p ssve 4", "p ssve x 1", "p ssbve 4 4 1"])))
_HEADER_FAULTS = ("expected header", "non-integer header", "header size")


def _ssve_faults(text: str) -> int:
    """The number of faults in the edge lines of an SSVE text whose header
    holds: one for a line that is not ``e`` and two integers, and one for
    each self-loop, id out of range, and pair met before in either order."""
    lines = [fields for fields in map(str.split, text.splitlines())
             if fields and fields[0][0] != "c"]
    n = int(lines[0][2])
    faults = 0
    seen: set[tuple[int, int]] = set()
    for fields in lines[1:]:
        try:
            if fields[0] != "e" or len(fields) != 3:
                raise ValueError
            a, b = int(fields[1]), int(fields[2])
        except ValueError:
            faults += 1
            continue
        key = (min(a, b), max(a, b))
        faults += (a == b) + (not (1 <= a <= n and 1 <= b <= n)) \
            + (key in seen)
        seen.add(key)
    return faults


@st.composite
def _ssve_texts(draw):
    """A simple graph and a text of it: each edge once, in a drawn order
    and orientation, with padding, line breaks and comments drawn too."""
    g, k = draw(_ssve_instances())
    edges = draw(st.permutations(g.edges()))
    lines = [f"e {a + 1} {b + 1}" if draw(st.booleans())
             else f"e {b + 1} {a + 1}" for a, b in edges]
    lines = [line for edge in lines for line in
             [edge] + draw(st.lists(st.sampled_from(["c x", "", " c"]),
                                    max_size=1))]
    body = "".join(draw(_PAD) + line + draw(_PAD) + draw(_SEP)
                   for line in lines)
    return f"p ssve {g.n} {k}\n" + body, (g, k)


class TestSsveParser:
    """parse_ssve, which reads through the SSBVE edge reader, against the
    line-by-line reference parser."""

    @given(header=_SSVE_HEADER,
           body=st.lists(st.tuples(_PAD, _SSVE_LINE, _PAD, _SEP),
                         max_size=10))
    @settings(max_examples=500, deadline=None)
    def test_matches_reference(self, header, body):
        text = header + "\n" + "".join(a + line + b + sep
                                        for a, line, b, sep in body)
        got, want = _outcome(parse_ssve, text), _outcome(
            reference_parse_ssve, text)
        if isinstance(want[0], UndirectedGraph):
            assert got == want
            return
        assert got[0] is want[0] is FormatError
        if want[1].startswith(_HEADER_FAULTS) or _ssve_faults(text) == 1:
            assert got[1] == want[1]

    @given(case=_ssve_texts())
    @settings(max_examples=300, deadline=None)
    def test_valid_texts_match_reference(self, case):
        text, want = case
        assert parse_ssve(text) == reference_parse_ssve(text) == want

    def test_random_graphs_match_reference(self):
        # Edge lines in a seeded random order and orientation, so that the
        # rows are not u-sorted and half the pairs are closed by symmetry.
        for seed in range(10):
            g = random_undirected(seed, 60, 0.2)
            rng = stream(seed, 0x7376)
            edges = [f"e {a + 1} {b + 1}" if rng.bernoulli(0.5)
                     else f"e {b + 1} {a + 1}" for a, b in g.edges()]
            _shuffle(edges, rng)
            text = "\n".join(["p ssve 60 3"] + edges) + "\n"
            assert parse_ssve(text) == reference_parse_ssve(text) == (g, 3)

    @pytest.mark.parametrize("body, want, ref", [
        # A grammar fault is named before an earlier self-loop.
        ("e 1 1\ne 1 x\n", "non-integer edge field: invalid literal for "
         "int() with base 10: 'x'", "self-loop at 1"),
        # An id out of range is named before an earlier pair given both
        # ways.
        ("e 1 2\ne 2 1\ne 1 9\n", "edge (1,9) out of range",
         "duplicate edge line (2,1)"),
        # An exact repeat is named before an earlier pair given both ways.
        ("e 1 2\ne 2 1\ne 1 2\n", "duplicate edge line (1,2)",
         "duplicate edge line (2,1)"),
        ("e 3 3\ne 1 2\ne 1 2\n", "duplicate edge line (1,2)",
         "self-loop at 3"),
    ])
    def test_ssbve_faults_named_first(self, body, want, ref):
        text = "p ssve 4 1\n" + body
        assert _outcome(reference_parse_ssve, text) == (FormatError, ref)
        assert _outcome(parse_ssve, text) == (FormatError, want)

    @pytest.mark.parametrize("body, message", [
        ("e 1 2\ne 2 3\ne 3 3\n", "self-loop at 3"),
        ("e 4 2\ne 1 3\ne 2 4\n", "duplicate edge line (2,4)"),
        ("e 1 2\ne 2 1\ne 3 3\n", "duplicate edge line (2,1)"),
        ("e 3 3\ne 1 2\ne 2 1\n", "self-loop at 3"),
    ])
    def test_first_pair_fault_in_line_order(self, body, message):
        text = "p ssve 4 1\n" + body
        assert _outcome(reference_parse_ssve, text) == (FormatError, message)
        assert _outcome(parse_ssve, text) == (FormatError, message)

    @pytest.mark.parametrize("body", ["e 1 2\n", "e 2 3\ne 2 1\n"])
    def test_huge_sparse_header_builds_no_row_per_vertex(self, body):
        # A few edges under a 2^20 header, in u order and not: a set per
        # declared vertex took about 232 MB traced; the 2^20 shared empty
        # rows take 8 MB.
        text = f"p ssve {MAX_HEADER_SIZE} 1\n" + body
        tracemalloc.start()
        try:
            g, k = parse_ssve(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        assert (g.n, k) == (MAX_HEADER_SIZE, 1)
        assert g == reference_parse_ssve(text)[0]


def reference_write_ssbve(inst) -> str:
    """One formatted line per edge: the oracle of write_ssbve."""
    g = inst.graph
    lines = [f"p ssbve {g.n} {g.n_right} {inst.k}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


_PLAIN = "p ssbve 3 4 2\ne 1 2\ne 1 4\ne 3 1\n"


class TestSsbveTextPaths:
    """The writer against the per-edge one, and the parser's read-as-is
    path against the reference on texts that must be normalized first."""

    @pytest.mark.parametrize("inst", [
        SsbveInstance(graph=BipartiteGraph.from_edges(
            6, 4, [(1, 0), (1, 3), (3, 2), (5, 0)]), k=2),
        SsbveInstance(graph=BipartiteGraph.from_edges(3, 0, []), k=1),
        SsbveInstance(graph=BipartiteGraph.from_edges(2, 5, []), k=2),
        SimpleNamespace(graph=BipartiteGraph.from_edges(0, 3, []), k=1),
        SimpleNamespace(graph=BipartiteGraph.from_edges(0, 0, []), k=0),
        *[SsbveInstance(graph=random_bipartite(seed, 30, 300), k=3)
          for seed in range(3)]])
    def test_writer_matches_per_edge_lines(self, inst):
        assert write_ssbve(inst) == reference_write_ssbve(inst)

    def test_writer_memory_follows_the_edges(self):
        # One edge under the largest header: a numeral per declared right
        # id would take about 60 MB.
        inst = parse_ssbve(
            f"p ssbve {MAX_HEADER_SIZE} {MAX_HEADER_SIZE} 1\ne 2 3\n")
        tracemalloc.start()
        try:
            text = write_ssbve(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == reference_write_ssbve(inst)
        assert peak < 16 << 20

    def test_plain_text_read_as_is(self):
        inst = parse_ssbve(_PLAIN)
        assert inst == reference_parse_ssbve(_PLAIN)
        assert write_ssbve(inst) == _PLAIN

    @pytest.mark.parametrize("text", [
        _PLAIN.replace("\n", "\r\n"),  # CRLF line ends
        _PLAIN.replace("\ne 1 4", "\n  e 1 4"),  # an indented line
        _PLAIN.replace("\ne 3", "\n\te 3"),
        "c before\n" + _PLAIN,  # comments before and after the header
        "c before\n\n" + _PLAIN.replace("\ne 3", "\n\ne 3"),
        _PLAIN.replace("\ne 1 2", "\nc after\ne 1 2"),
        _PLAIN.replace("\ne 1 4", "\n\ne 1 4"),  # blank lines
        _PLAIN + "\n\n",
        _PLAIN.replace("\ne 1 4", "  \ne 1 4  "),  # trailing spaces
        _PLAIN + "   ",
        _PLAIN.replace("\ne 1 4", " e 1 4"),  # two edges on one line
        _PLAIN[:-1],  # no final newline
        _PLAIN + "c end",
        "\n" + _PLAIN,
        "  " + _PLAIN,
        # a line break other than "\n" inside a line or the header
        _PLAIN.replace("e 1 4", "e 1\x0c4"),
        _PLAIN.replace("e 1 4", "e 1\x1d4"),
        _PLAIN.replace("3 4 2", "3\x0b4 2"),
        _PLAIN.replace("e 1 4", "e 1\x854"),
        _PLAIN.replace("e 1 4", "e 1\u20284"),
        # header faults under a plain body, and no header at all
        "c p ssbve 3 4 2\ne 1 2\n", "\ne 1 2\n", "p ssbve 3 4\ne 1 2\n",
        "", "\n", "e 1 2\n", "p ssbve 3 4 2",
        # body faults in a plain text
        _PLAIN + "e 1 2\n", _PLAIN + "e 4 1\n", _PLAIN + "e 1 x\n",
        _PLAIN + "e 1 2 3\n", _PLAIN + "e1 2\n",
    ])
    def test_normalized_texts_match_reference(self, text):
        assert _outcome(parse_ssbve, text) == _outcome(reference_parse_ssbve,
                                                       text)


@pytest.fixture(scope="module")
def planted_texts():
    """Two planted instances of the benchmark's size (n=4096, 64 right
    vertices, about 45k edge lines), as written."""
    return [write_ssbve(gen_planted(PlantedSpec(
        n=4096, alpha=0.5, beta=0.5, gamma=0.2, r_degree=12, seed=seed))[0])
        for seed in (3, 4)]


def _decorated(text: str, seed: int) -> str:
    """The same instance with CRLF line ends and comment, indented comment
    and blank lines between its lines."""
    rng = stream(seed, 0x6465)
    extras = ["", "c note", "  c 1 2", "\t", "c"]
    lines = []
    for line in text.splitlines():
        lines.append(line)
        if rng.bernoulli(0.2):
            lines.append(extras[rng.randrange(len(extras))])
    return "\r\n".join(lines) + "\r\n"


def _shuffle(items: list, rng) -> None:
    """Fisher-Yates, one randrange draw per position from the last."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


class TestSsbveParserFullSize:
    """The bulk parser against the line-by-line reference on large texts,
    where a fault can sit far from the lines that show it."""

    def test_planted_matches_reference(self, planted_texts):
        for seed, text in enumerate(planted_texts):
            got = parse_ssbve(text)
            assert got == reference_parse_ssbve(text)
            validate_rows(got.graph)
            assert got.graph.num_edges() == text.count("\ne")
            decorated = _decorated(text, seed)
            assert parse_ssbve(decorated) == got
            assert reference_parse_ssbve(decorated) == got

    def test_random_texts_match_reference(self):
        # Edge lines in a seeded random order, so that rows are sorted by
        # the parser and not by the writer.
        for seed in range(20):
            inst = SsbveInstance(
                graph=gen_random_bipartite(120, 40, 0.15, seed), k=6)
            header, *edges = write_ssbve(inst).splitlines()
            _shuffle(edges, stream(seed, 0x7368))
            text = "\n".join([header] + edges) + "\n"
            assert parse_ssbve(text) == reference_parse_ssbve(text) == inst

    @staticmethod
    def _row_lines(lines: list[str]) -> list[int]:
        """Indices of the edge lines of the first left vertex with three or
        more edges, in text order."""
        by_u: dict[str, list[int]] = {}
        for t, line in enumerate(lines):
            if line.startswith("e "):
                by_u.setdefault(line.split()[1], []).append(t)
        return next(ts for ts in by_u.values() if len(ts) >= 3)

    def test_duplicate_inside_its_sorted_row(self, planted_texts):
        lines = planted_texts[0].splitlines()
        t = self._row_lines(lines)[1]
        lines.insert(t + 1, lines[t])
        text = "\n".join(lines) + "\n"
        want = _outcome(reference_parse_ssbve, text)
        assert want[1].startswith("duplicate edge line")
        assert _outcome(parse_ssbve, text) == want

    def test_edges_swapped_within_a_row(self, planted_texts):
        lines = planted_texts[0].splitlines()
        t, t2 = self._row_lines(lines)[:2]
        lines[t], lines[t2] = lines[t2], lines[t]
        text = "\n".join(lines) + "\n"
        got = parse_ssbve(text)
        assert got == reference_parse_ssbve(text) == parse_ssbve(
            planted_texts[0])

    @pytest.mark.parametrize("u_field, want_ok", [
        ("07", True), ("+2", True), ("\u0661", True), ("4097", False)])
    def test_numerals_off_the_table(self, planted_texts, u_field, want_ok):
        # A leading zero, a sign, an Arabic-Indic digit one and an id above
        # n in the middle of a u-sorted text: int() reads each as the
        # reference parser does.
        lines = planted_texts[1].splitlines()
        t = len(lines) // 2
        if want_ok:  # a line whose u is the numeral's value
            target = str(int(u_field))
            t = next(t for t, line in enumerate(lines)
                     if line.split()[1:2] == [target])
        _, _, v = lines[t].split()
        lines[t] = f"e {u_field} {v}"
        text = "\n".join(lines) + "\n"
        want = _outcome(reference_parse_ssbve, text)
        assert isinstance(want, SsbveInstance) == want_ok
        assert _outcome(parse_ssbve, text) == want
        if want_ok:
            assert want == parse_ssbve(planted_texts[1])

    def test_huge_sparse_header_builds_no_right_view(self):
        # The parse holds the 2^20 left rows and no right list; a list per
        # declared right id took about 88 MB.
        text = f"p ssbve {MAX_HEADER_SIZE} {MAX_HEADER_SIZE} 1\ne 1 1\n"
        tracemalloc.start()
        try:
            g = parse_ssbve(text).graph
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20
        assert g.adj_right[0] == (0,)

    def test_huge_sparse_header_lines_out_of_order(self):
        # Edge lines not in u order are read through a set per row with an
        # edge; one per declared left vertex took about 232 MB.
        text = (f"p ssbve {MAX_HEADER_SIZE} {MAX_HEADER_SIZE} 1\n"
                "e 2 3\ne 1 2\n")
        tracemalloc.start()
        try:
            g = parse_ssbve(text).graph
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        assert g.adj_left[:3] == ((1,), (2,), ()) and g.num_edges() == 2

    def test_huge_sparse_header_builds_no_id_table(self):
        # One edge line under a 2^20 x 2^20 header reads its ids with
        # int(): a table of 2^20 numerals would take over 100 MB, where the
        # 2^20 empty rows take 8 MB.
        text = f"p ssbve {MAX_HEADER_SIZE} {MAX_HEADER_SIZE} 1\ne 2 3\n"
        g = parse_ssbve(text).graph
        assert g.adj_left[1] == (2,) and g.adj_right[2] == (1,)
        assert g.num_edges() == 1
        tracemalloc.start()
        try:
            rows = _edge_rows("e 2 3\n", MAX_HEADER_SIZE, MAX_HEADER_SIZE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows[1] == (2,) and len(rows) == MAX_HEADER_SIZE
        assert peak < 16 << 20

    @pytest.mark.parametrize("last", [
        "e 1 2 e", "e 1", "e", "e 1 x", "e 4097 1", "e 1 65", "e 0 1",
        "e 1 0", "e1 2 3", "f 1 2", "p ssbve 1 1 1", "e 1 2 3 4"])
    def test_fault_on_last_line(self, planted_texts, last):
        text = planted_texts[0] + last + "\n"
        want = _outcome(reference_parse_ssbve, text)
        assert isinstance(want, tuple)
        assert _outcome(parse_ssbve, text) == want

    def test_first_duplicate_is_reported(self, planted_texts):
        text = planted_texts[0]
        lines = text.splitlines()
        for extra in ([lines[1]], [lines[5], lines[1]]):
            bad = text + "\n".join(extra) + "\n"
            want = _outcome(reference_parse_ssbve, bad)
            assert want[1].startswith("duplicate edge line")
            assert _outcome(parse_ssbve, bad) == want

    def test_far_duplicate_reported_after_range_fault(self, planted_texts):
        # The reference stops at the duplicate; the parser reports every
        # other fault first, here an out-of-range edge after it.
        text = planted_texts[1]
        first = text.splitlines()[1]
        text += first + "\ne 2 1\ne 4097 3\n"
        with pytest.raises(FormatError, match=r"^duplicate edge line"):
            reference_parse_ssbve(text)
        with pytest.raises(FormatError,
                           match=r"^edge \(4097,3\) out of range$"):
            parse_ssbve(text)

    @pytest.mark.parametrize("text, message", [
        # Three fields to a line on average, and "e" at every third field:
        # only the line check sees that the first line is too long.
        ("p ssbve 4 4 1\ne 1 2 e\n3 4\n", "bad edge line: e 1 2 e"),
        ("p ssbve 4 4 1\ne1 2 3\n", "bad edge line: e1 2 3"),
        ("p ssbve 4 4 1\ne 1 2\ne1 2 3\n", "bad edge line: e1 2 3"),
        ("p ssbve 4 4 1\ne 1 2\n1 e 2\n", "bad edge line: 1 e 2"),
    ])
    def test_line_faults_the_field_pattern_misses(self, text, message):
        assert _outcome(reference_parse_ssbve, text) == (FormatError,
                                                          message)
        with pytest.raises(FormatError) as exc:
            parse_ssbve(text)
        assert str(exc.value) == message

    def test_negative_header_size_rejected(self):
        for header in ("p ssbve -1 2 1", "p ssbve 2 -1 1"):
            with pytest.raises(FormatError, match="negative"):
                parse_ssbve(header + "\n")

    @pytest.mark.parametrize("parse, header", [
        (parse_ssbve, f"p ssbve {MAX_HEADER_SIZE + 1} 1 1"),
        (parse_ssbve, f"p ssbve 1 {MAX_HEADER_SIZE + 1} 1"),
        (parse_ssve, "p ssve -3 1"),
        (parse_ssve, f"p ssve {MAX_HEADER_SIZE + 1} 1"),
        (parse_mku, "p mku -2 0 1"),
        (parse_mku, "p mku 1 -1 1"),
        (parse_mku, f"p mku {MAX_HEADER_SIZE + 1} 0 1"),
        (parse_mku, f"p mku 1 {MAX_HEADER_SIZE + 1} 1"),
    ])
    def test_header_size_out_of_bounds_rejected(self, parse, header):
        with pytest.raises(FormatError, match="^header size .* negative or "
                           f"above {MAX_HEADER_SIZE}$"):
            parse(header + "\n")

    def test_header_size_bounds_accepted(self):
        assert parse_ssbve("p ssbve 1 0 1\n").graph.n_right == 0
        assert parse_ssve("p ssve 0 1\n")[0].n == 0
        h, _ = parse_mku(f"p mku {MAX_HEADER_SIZE} 0 1\n")
        assert h.n_elements == MAX_HEADER_SIZE and h.sets == ()

    def test_huge_header_rejected_before_allocating(self):
        # 10^9 declared left vertices would ask for about 220 GB of rows.
        tracemalloc.start()
        try:
            with pytest.raises(FormatError):
                parse_ssbve("p ssbve 1000000000 1 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
