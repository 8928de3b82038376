"""Reference parsers for the fuzz tests of simdom.graph.parse_graph.

Each is a line loop that strips every line before testing it and orders
each edge's ends after the sign or range test, and it ends in the
checked ``Graph(n, edges)`` build, not the trusted one. The library's
parsers must give the same graph, or the same GraphParseError message
and line, on every text.
"""

from simdom import Graph, GraphParseError
from simdom import graph


def parse_dimacs(text: str) -> Graph:
    n = None
    declared_m = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError("repeated problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError("expected 'p edge <n> <m>'", lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError("non-integer problem line", lineno) from None
            if n < 0 or declared_m < 0:
                raise GraphParseError("negative counts in problem line", lineno)
            if n > graph.MAX_VERTICES:
                raise GraphParseError(f"more than {graph.MAX_VERTICES} vertices", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError("edge before problem line", lineno)
            if len(parts) != 3:
                raise GraphParseError("expected 'e <u> <v>'", lineno)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise GraphParseError("non-integer edge endpoints", lineno) from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"vertex index out of range 1..{n}", lineno)
            if u == v:
                raise GraphParseError("self-loop", lineno)
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphParseError("duplicate edge", lineno)
            seen.add(e)
            edges.append(e)
        else:
            raise GraphParseError(f"unrecognized line kind {parts[0]!r}", lineno)
    if n is None:
        raise GraphParseError("missing 'p edge' line")
    if declared_m is not None and declared_m != len(edges):
        raise GraphParseError(
            f"problem line declares {declared_m} edges, found {len(edges)}"
        )
    return Graph(n, edges)


def parse_edgelist(text: str) -> Graph:
    edges = []
    seen = set()
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("expected '<u> <v>'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("non-integer edge endpoints", lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError("negative vertex index", lineno)
        if u == v:
            raise GraphParseError("self-loop", lineno)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphParseError("duplicate edge", lineno)
        seen.add(e)
        edges.append(e)
        if e[1] > top:
            top = e[1]
            if top >= graph.MAX_VERTICES:
                raise GraphParseError(f"more than {graph.MAX_VERTICES} vertices", lineno)
    return Graph(top + 1, edges)
