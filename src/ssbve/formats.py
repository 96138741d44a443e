"""Instance text formats, all read by one reader (``_read``).

SSBVE:  ``p ssbve <n> <n'> <k>`` then one ``e <u> <v>`` line per edge.
MkU:    ``p mku <n_elements> <m> <k>`` then one ``s <size> <e1> ...`` line
        per set.
SSVE:   ``p ssve <n> <k>`` then edge lines as in SSBVE with n' = n, of a
        simple graph: no self-loop, and no pair given both ways.

Ids are 1-indexed, and a repeated edge line is rejected.  Blank lines and
lines starting with ``c`` are comments.  Every header field but the
trailing ``k`` is a size, from 0 to ``MAX_HEADER_SIZE``.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import defaultdict
from itertools import chain, compress
from operator import lt

from .errors import FormatError
from .graph import BipartiteGraph, Hypergraph, SsbveInstance, UndirectedGraph

# Largest size a header may declare: far above any instance built here, and
# small enough that the per-vertex rows a parser allocates from the header
# alone stay in the hundreds of megabytes.
MAX_HEADER_SIZE = 1 << 20


# The line breaks of ``str.splitlines`` in ASCII text, other than "\n".
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e"


def _read(text: str, kind: str, argc: int,
          key: str) -> tuple[list[int], str, int | None]:
    """The argc header values of a ``p <kind>`` text, its body lines, each
    ended by "\n", and their number if each starts with key (else None).

    A text whose lines after the first all start with key, as the writers
    write it, is read as it is.  Any other text is first brought to that
    form: its lines stripped on the left, its comment and blank lines
    dropped, and the first line left taken as the header."""
    head, _, body = text.partition("\n")
    m = _key_lines(body, key)
    if m is None or not text.isascii() \
            or any(map(text.__contains__, _OTHER_BREAKS)):
        lines = [line for line in map(str.lstrip, text.splitlines())
                 if line and line[0] != "c"]
        head = lines[0] if lines else ""
        body = "\n".join(lines[1:] + [""])
        m = _key_lines(body, key)
    fields = head.split()
    if fields[:1] != ["p"] or len(fields) != 2 + argc or fields[1] != kind:
        raise FormatError(f"expected header 'p {kind}' with {argc} integers")
    try:
        values = [int(x) for x in fields[2:]]
    except ValueError as exc:
        raise FormatError(f"non-integer header field: {exc}") from exc
    for size in values[:-1]:
        if not 0 <= size <= MAX_HEADER_SIZE:
            raise FormatError(f"header size {size} is negative or above "
                              f"{MAX_HEADER_SIZE}")
    return values, body, m


def parse_ssbve(text: str) -> SsbveInstance:
    (n, n_right, k), body, m = _read(text, "ssbve", 3, "e")
    rows = _edge_rows(body, m, n, n_right)
    if rows is None:
        _raise_edge_fault(body.splitlines(), n, n_right)
    return SsbveInstance(graph=BipartiteGraph.from_rows(n_right, rows), k=k)


def _key_lines(body: str, key: str) -> int | None:
    """The number of lines of body if each starts with key and ends with
    "\n" (one "\n" + key per line after the first), else None."""
    m = body.count("\n")
    if not body or (body[0] == key and body[-1] == "\n"
                    and body.count("\n" + key) == m - 1):
        return m
    return None


def _edge_rows(body: str, m: int | None, n: int,
               n_right: int) -> list[tuple[int, ...]] | None:
    """Sorted left rows of the m ``e <u> <v>`` lines of body, each ended by
    "\n", in one bulk pass over all their fields, or None if any line has
    a fault (m None: some line does not start with ``e``).

    Every line starts with ``e``, so no line's first field is an integer;
    with 3m fields, ``e`` at every third and integers at the rest, each
    line is then exactly ``e <u> <v>``.  With at least (n + n') / 2 lines,
    the ids are read through tables of the numerals "1".."n" and
    "1".."n'", one table when n = n', so the extra memory stays O(m)."""
    if m is None:
        return None
    tok = body.split()
    if len(tok) != 3 * m or tok[0::3].count("e") != m:
        return None
    tabled = n + n_right <= 2 * m
    table = _numerals(n) if tabled else None
    us = _ids(tok[1::3], n, table)
    if tabled and n_right != n:
        del table  # free the u table before the v table is built
        table = _numerals(n_right)
    vs = _ids(tok[2::3], n_right, table)
    del tok, table  # the 3m field strings set the peak memory: free them
    if us is None or vs is None:
        return None
    return _rows(us, vs, n)


def _numerals(size: int) -> dict[str, int]:
    """{"1": 0, ..., str(size): size - 1}."""
    return {str(i + 1): i for i in range(size)}


def _ids(tokens: list[str], size: int,
         table: dict[str, int] | None) -> list[int] | None:
    """0-based ids of the numerals, or None unless each is an integer in
    [1, size].  A lookup in the table of "1".."size" is much cheaper than
    ``int()``; a numeral it misses (``07``, ``+2``, an id out of range)
    sends every numeral through ``int()``, so the outcome is that of
    ``int()`` alone."""
    if table is not None:
        try:
            return list(map(table.__getitem__, tokens))
        except KeyError:
            pass
    try:
        ids = list(map(int, tokens))
    except ValueError:
        return None
    if ids and not (1 <= min(ids) and max(ids) <= size):
        return None
    return [i - 1 for i in ids]


def _rows(us: list[int], vs: list[int],
          n: int) -> list[tuple[int, ...]] | None:
    """Sorted left rows of the edges (us[t], vs[t]), or None if one repeats.
    When the u ids are non-decreasing, as ``write_ssbve`` emits them, each
    row is a slice of vs, kept as it is when strictly increasing; any other
    order goes through a set per row with an edge."""
    m = len(us)
    rows: list[tuple[int, ...]] = [()] * n
    if us == sorted(us):
        lo = 0
        while lo < m:
            u = us[lo]
            hi = bisect_right(us, u, lo)
            row = tuple(vs[lo:hi])
            if not all(map(lt, row, row[1:])):
                break
            rows[u] = row
            lo = hi
        else:
            return rows
    sets: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in zip(us, vs):
        sets[u].add(v)
    if sum(map(len, sets.values())) != m:  # a duplicate edge line
        return None
    for u, row in sets.items():
        rows[u] = tuple(sorted(row))
    return rows


def _raise_edge_fault(body: list[str], n: int, n_right: int,
                      simple: bool = False) -> None:
    """Raise the first fault of the edge lines in line order.  A duplicate
    line is reported only when no line has another fault, and then, in a
    simple graph, the first self-loop or pair given both ways."""
    seen: set[tuple[int, int]] = set()
    dup = pair = None
    for line in body:
        fields = line.split()
        if fields[0] != "e" or len(fields) != 3:
            raise FormatError(f"bad edge line: {' '.join(fields)}")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError as exc:
            raise FormatError(f"non-integer edge field: {exc}") from exc
        if not (1 <= u <= n and 1 <= v <= n_right):
            raise FormatError(f"edge ({u},{v}) out of range")
        if dup is None and (u, v) in seen:
            dup = f"duplicate edge line ({u},{v})"
        elif simple and pair is None and (u == v or (v, u) in seen):
            pair = (f"self-loop at {u}" if u == v
                    else f"duplicate edge line ({u},{v})")
        seen.add((u, v))
    raise FormatError(dup or pair)


def write_ssbve(inst: SsbveInstance) -> str:
    g = inst.graph
    # A numeral only for right ids with an edge, so that a sparse graph
    # under a large header builds no string per declared id.
    names = {v: str(v + 1) for v in set(chain.from_iterable(g.adj_left))}
    parts = [f"p ssbve {g.n} {g.n_right} {inst.k}"]
    for u, row in enumerate(g.adj_left, 1):
        if row:
            head = f"\ne {u} "
            parts += (head, head.join(map(names.__getitem__, row)))
    parts.append("\n")
    return "".join(parts)


def parse_mku(text: str) -> tuple[Hypergraph, int]:
    (n_elements, m, k), body, _ = _read(text, "mku", 3, "s")
    sets: list[tuple[int, ...]] = []
    try:
        for fields in map(str.split, body.splitlines()):
            if fields[0] != "s" or len(fields) < 2:
                raise FormatError(f"bad set line: {' '.join(fields)}")
            size = int(fields[1])
            elems = [int(x) for x in fields[2:]]
            if len(elems) != size:
                raise FormatError(f"set line declares {size} elements, "
                                  f"has {len(elems)}")
            if len(set(elems)) != size:
                raise FormatError("duplicate element inside a set line")
            for e in elems:
                if not 1 <= e <= n_elements:
                    raise FormatError(f"element {e} out of range")
            sets.append(tuple(sorted(e - 1 for e in elems)))
    except ValueError as exc:
        raise FormatError(f"non-integer set field: {exc}") from exc
    if len(sets) != m:
        raise FormatError(f"header declares {m} sets, found {len(sets)}")
    return Hypergraph(n_elements=n_elements, sets=tuple(sets)), k


def write_mku(h: Hypergraph, k: int) -> str:
    lines = [f"p mku {h.n_elements} {len(h.sets)} {k}"]
    for s in h.sets:
        lines.append("s " + " ".join([str(len(s))] + [str(e + 1) for e in s]))
    return "\n".join(lines) + "\n"


def parse_ssve(text: str) -> tuple[UndirectedGraph, int]:
    """Read as an SSBVE text with n' = n, then closed under symmetry."""
    (n, k), body, m = _read(text, "ssve", 2, "e")
    rows = _edge_rows(body, m, n, n)
    if rows is None or not _close_rows(rows):
        _raise_edge_fault(body.splitlines(), n, n, simple=True)
    return UndirectedGraph(n=n, adj=tuple(rows)), k


def _close_rows(rows: list[tuple[int, ...]]) -> bool:
    """Add u to row v for each v in row u, in place, touching only the rows
    that gain a neighbour; False if a row would then hold a vertex twice,
    that is on a self-loop or a pair given both ways."""
    back: defaultdict[int, list[int]] = defaultdict(list)
    for u in compress(range(len(rows)), rows):
        for v in rows[u]:
            back[v].append(u)  # in ascending u
    for v, us in back.items():
        row = sorted(rows[v] + tuple(us))  # a merge of two sorted runs
        if not all(map(lt, row, row[1:])):
            return False
        rows[v] = tuple(row)
    return True


def write_ssve(g: UndirectedGraph, k: int) -> str:
    lines = [f"p ssve {g.n} {k}"]
    lines += [f"e {a + 1} {b + 1}" for a, b in g.edges()]
    return "\n".join(lines) + "\n"


def planted_sidecar(spec) -> str:
    """Ground-truth JSON for a planted instance (1-indexed vertex lists)."""
    payload = {
        "planted_s": [u + 1 for u in spec.planted_s],
        "planted_t": [v + 1 for v in spec.planted_t],
        "alpha": spec.alpha,
        "beta": spec.beta,
        "gamma": spec.gamma,
        "n": spec.n,
        "r_degree": spec.r_degree,
        "seed": spec.seed,
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_planted_sidecar(text: str) -> dict:
    data = json.loads(text)
    data["planted_s"] = [u - 1 for u in data["planted_s"]]
    data["planted_t"] = [v - 1 for v in data["planted_t"]]
    return data
