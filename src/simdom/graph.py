"""Simple undirected graphs with dense 0-based vertices.

Graphs are immutable after construction; every operation returns a new
graph. DIMACS edge format and plain edge lists are supported for I/O.
"""

from __future__ import annotations

from typing import Iterable

from .errors import GraphParseError

MAX_VERTICES = 10**6  # parse_graph refuses more, before allocating any


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Self-loops and parallel edges are rejected at construction. Edges are
    stored normalized as (u, v) with u < v and sorted, so two graphs with
    the same vertex count and edge set compare equal.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbours(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def adjacency_masks(self) -> list[int]:
        """Neighbour sets as bitmasks, one int per vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest vertex."""
        seen = [False] * self.n
        out: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            comp = [start]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced on ``vertices``.

    Returns the new graph and the sorted list of original ids; new vertex i
    corresponds to original id ``kept[i]``. Edges are gathered from the
    adjacency of the kept vertices, so a call costs O(sum of deg(kept))
    plus sorting, not a scan of every edge of ``g``.
    """
    kept = sorted(set(vertices))
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    index = {old: new for new, old in enumerate(kept)}
    adj = g.adj
    edges = [
        (i, index[w])
        for i, u in enumerate(kept)
        for w in adj[u]
        if u < w and w in index
    ]
    return Graph(len(kept), edges), kept


def delete_vertices(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on V minus ``s`` plus the old-to-new index map."""
    drop = set(s)
    for v in drop:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    sub, kept = induced_subgraph(g, (v for v in range(g.n) if v not in drop))
    return sub, {old: new for new, old in enumerate(kept)}


def delete_edges_within(g: Graph, s: Iterable[int]) -> Graph:
    """Same vertex set with every edge joining two vertices of ``s`` removed."""
    inside = set(s)
    for v in inside:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    edges = [e for e in g.edges if not (e[0] in inside and e[1] in inside)]
    return Graph(g.n, edges)


def parse_graph(text: str, fmt: str = "dimacs") -> Graph:
    """Parse a graph from DIMACS edge format or a plain edge list.

    DIMACS: 'c' comment lines, one 'p edge <n> <m>' line, 'e <u> <v>' lines
    with 1-based vertices. Edge list: one '<u> <v>' pair per line, 0-based;
    blank lines and lines starting with '#' are skipped. A graph of more
    than MAX_VERTICES vertices is refused with GraphParseError.
    """
    if fmt == "dimacs":
        return _parse_dimacs(text)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def _parse_dimacs(text: str) -> Graph:
    n: int | None = None
    declared_m: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
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
            if n > MAX_VERTICES:
                raise GraphParseError(f"more than {MAX_VERTICES} vertices", lineno)
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


def _parse_edgelist(text: str) -> Graph:
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
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
        top = max(top, u, v)
        if top >= MAX_VERTICES:
            raise GraphParseError(f"more than {MAX_VERTICES} vertices", lineno)
    return Graph(top + 1, edges)


def write_graph(g: Graph, fmt: str = "dimacs") -> str:
    """Serialize in the same formats parse_graph reads."""
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
        return "\n".join(lines) + "\n"
    if fmt == "edgelist":
        return "".join(f"{u} {v}\n" for u, v in g.edges)
    raise ValueError(f"unknown graph format {fmt!r}")
