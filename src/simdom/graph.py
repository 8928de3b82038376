"""Simple undirected graphs with dense 0-based vertices.

Graphs are immutable after construction; every operation returns a new
graph. DIMACS edge format and plain edge lists are supported for I/O.

The trust boundary is ``Graph(n, edges)``: it checks every edge (range,
self-loops, duplicates) and sorts them. Builds inside the package whose
edges are already normalised, unique, in range and sorted (the parsers
after their own line-numbered checks, induced subgraphs, edge deletion
and the solver's residuals) go through ``Graph._trusted``, which skips
those checks. Both end in the same adjacency build. It appends each
edge's two ends to per-vertex lists in sorted edge order, so every list
comes out ascending; the graph keeps these lists as ``nbrs`` and builds
its ``adj`` frozensets from them. So a graph's ``adj`` iterates the same
way however it was built, and a reader that needs a neighbourhood in
ascending order reads ``nbrs`` instead of sorting.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from .errors import GraphParseError

MAX_VERTICES = 10**6  # parse_graph refuses more, before allocating any


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Self-loops and parallel edges are rejected at construction. Edges are
    stored normalized as (u, v) with u < v and sorted, so two graphs with
    the same vertex count and edge set compare equal. ``nbrs[v]`` lists
    v's neighbours in ascending order and must not be changed; ``adj[v]``
    holds the same neighbours as a frozenset.
    """

    __slots__ = ("n", "edges", "nbrs", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        self._build(n, sorted(seen))

    @classmethod
    def _trusted(cls, n: int, edges: list[tuple[int, int]]) -> Graph:
        """Graph on edges known to be normalised (u < v), unique, in
        range 0..n-1 and sorted, built without checking any of that.

        For builds inside the package only; outside callers use
        ``Graph(n, edges)``.
        """
        g = cls.__new__(cls)
        g._build(n, edges)
        return g

    def _build(self, n: int, edges: list[tuple[int, int]]) -> None:
        # Each vertex's lower neighbours arrive first, then its higher
        # ones, each group ascending, as the edges are sorted. Read-only
        # by contract: lists, as tuples made every reader slower.
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(edges)
        self.nbrs: list[list[int]] = nbrs
        self.adj: tuple[frozenset[int], ...] = tuple(map(frozenset, nbrs))

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

    def coloured_components(self) -> list[tuple[list[int], list[int] | None]]:
        """Connected components in one breadth-first pass, ordered by
        smallest vertex. Each is its sorted vertex list and, for each of
        those vertices, its side (0 or 1) of the component's two-colouring,
        or None when the component has an odd cycle.

        The smallest vertex is on side 0. A connected bipartite graph has
        no other two-colouring that does so, so the sides do not depend on
        the order in which neighbours are visited.
        """
        nbrs = self.nbrs
        side = [-1] * self.n
        out: list[tuple[list[int], list[int] | None]] = []
        for root in range(self.n):
            if side[root] >= 0:
                continue
            side[root] = 0
            comp = [root]
            odd = False
            for u in comp:  # the list grows while it is read: a BFS queue
                other = 1 - side[u]
                for w in nbrs[u]:
                    if side[w] < 0:
                        side[w] = other
                        comp.append(w)
                    elif side[w] != other:
                        odd = True
            comp.sort()
            out.append((comp, None if odd else [side[v] for v in comp]))
        return out

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by smallest vertex."""
        return [comp for comp, _ in self.coloured_components()]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.coloured_components()) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def induced_edges(
    adj: tuple[frozenset[int], ...], vertices: AbstractSet[int], kept: list[int]
) -> list[tuple[int, int]]:
    """Sorted edges among ``vertices`` relabelled by position in ``kept``,
    the same vertices in ascending order.

    Each kept vertex's neighbourhood is intersected with ``vertices``,
    which walks the smaller of the two, so a call costs the sum over kept
    vertices of min(degree, len(kept)), plus sorting: a high-degree
    vertex shared by many small vertex sets is not scanned whole for
    each of them.
    """
    index = {v: i for i, v in enumerate(kept)}
    edges = [
        (i, index[w]) for i, v in enumerate(kept) for w in adj[v] & vertices if v < w
    ]
    edges.sort()
    return edges


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced on ``vertices``.

    Returns the new graph and the sorted list of original ids; new vertex i
    corresponds to original id ``kept[i]``. The edges come from
    induced_edges, checked by construction, so the graph takes the
    trusted build.
    """
    keep = set(vertices)
    kept = sorted(keep)
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return Graph._trusted(len(kept), induced_edges(g.adj, keep, kept)), kept


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
    return Graph._trusted(g.n, edges)


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
    for lineno, line in enumerate(text.splitlines(), start=1):
        # split() and strip() share one definition of whitespace, so the
        # first token starts with the line's first non-blank character
        parts = line.split()
        if not parts or parts[0][0] == "c":
            continue
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
            if u > v:
                u, v = v, u
            if u < 0 or v >= n:
                raise GraphParseError(f"vertex index out of range 1..{n}", lineno)
            if u == v:
                raise GraphParseError("self-loop", lineno)
            e = (u, v)
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
    edges.sort()
    return Graph._trusted(n, edges)


def _parse_edgelist(text: str) -> Graph:
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    top = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()  # see _parse_dimacs
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise GraphParseError("expected '<u> <v>'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("non-integer edge endpoints", lineno) from None
        if u > v:
            u, v = v, u
        if u < 0:
            raise GraphParseError("negative vertex index", lineno)
        if u == v:
            raise GraphParseError("self-loop", lineno)
        e = (u, v)
        if e in seen:
            raise GraphParseError("duplicate edge", lineno)
        seen.add(e)
        edges.append(e)
        if v > top:
            top = v
            if top >= MAX_VERTICES:
                raise GraphParseError(f"more than {MAX_VERTICES} vertices", lineno)
    edges.sort()
    return Graph._trusted(top + 1, edges)


def write_graph(g: Graph, fmt: str = "dimacs") -> str:
    """Serialize in the same formats parse_graph reads."""
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
        return "\n".join(lines) + "\n"
    if fmt == "edgelist":
        return "".join(f"{u} {v}\n" for u, v in g.edges)
    raise ValueError(f"unknown graph format {fmt!r}")
