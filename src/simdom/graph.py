"""Simple undirected graphs with dense 0-based vertices.

Graphs are immutable after construction; every operation returns a new
graph. The I/O formats, ``FORMATS``, are DIMACS edge format and plain
edge lists; ``parse_graph(text, "auto")`` reads DIMACS when the first
line that neither parser skips as a comment starts with 'p' or 'e', and
an edge list otherwise.

A graph holds one adjacency: ``nbrs``, each vertex's neighbours in an
ascending list. The sorted ``edges`` tuple, which mirrors
``Graph(n, edges)`` for the writers and the oracles, is derived from it
on first read and cached, so a graph that nobody asks for it keeps one
container per vertex: on graphs of thousands of small blocks, every
long-lived container makes cyclic GC walk further.

The trust boundary is ``Graph(n, edges)``: it checks every edge (range,
self-loops, duplicates). Builds inside the package whose neighbour
lists are already ascending, symmetric, in range and loop-free (the
parsers after their own line-numbered checks, induced subgraphs, edge
deletion, the solver's residuals and the cover search's kernels) go
through ``Graph._trusted`` or ``Graph._of_ends``, which skip those
checks. However a graph
was built, its ``nbrs`` and ``edges`` come out the same, and equal
graphs compare and hash equal.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from .errors import GraphParseError

MAX_VERTICES = 10**6  # parse_graph refuses more, before allocating any
# The parsers pack an edge u < v into one int, u << EDGE_SHIFT | v, to
# find duplicates with no tuple per edge. That is exact because every
# vertex they accept is below MAX_VERTICES < 2**EDGE_SHIFT.
EDGE_SHIFT = 20
FORMATS = ("dimacs", "edgelist")  # what parse_graph reads and write_graph writes


def _nbrs_of_ends(n: int, ends: Iterable[int]) -> list[list[int]]:
    """Neighbour lists of sorted edges laid out flat. Each vertex's lower
    neighbours arrive first, then its higher ones, each group ascending,
    so every list comes out ascending."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    it = iter(ends)
    for u, v in zip(it, it):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Self-loops and parallel edges are rejected at construction.
    ``nbrs[v]`` lists v's neighbours in ascending order and must not be
    changed. ``edges`` holds each edge once as (u, v) with u < v, sorted,
    and is built from ``nbrs`` when first read. Two graphs with the same
    vertex count and edge set compare equal.
    """

    __slots__ = ("n", "m", "nbrs", "_edges")

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
        self._set(_nbrs_of_ends(n, chain.from_iterable(sorted(seen))))

    @classmethod
    def _trusted(cls, nbrs: list[list[int]]) -> Graph:
        """Graph on vertices 0..len(nbrs)-1 whose neighbour lists are
        known to be ascending, symmetric, in range and free of
        self-loops, built without checking any of that. The graph keeps
        the lists.

        For builds inside the package only; outside callers use
        ``Graph(n, edges)``.
        """
        g = cls.__new__(cls)
        g._set(nbrs)
        return g

    @classmethod
    def _of_ends(cls, n: int, ends: Iterable[int]) -> Graph:
        """Graph on vertices 0..n-1 whose edges, normalised (u < v),
        unique, in range and sorted, are laid out flat in ends as u0,
        v0, u1, v1, ..., built without checking any of that."""
        return cls._trusted(_nbrs_of_ends(n, ends))

    def _set(self, nbrs: list[list[int]]) -> None:
        # Read-only by contract: lists, as tuples made every reader slower.
        self.n = len(nbrs)
        self.m = sum(map(len, nbrs)) >> 1
        self.nbrs = nbrs
        self._edges: tuple[tuple[int, int], ...] | None = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        edges = self._edges
        if edges is None:
            it = iter(edge_ends(self))
            edges = self._edges = tuple(zip(it, it))
        return edges

    def adjacency_masks(self) -> list[int]:
        """Neighbour sets as bitmasks, one int per vertex."""
        masks = []
        for row in self.nbrs:
            mask = 0
            for w in row:
                mask |= 1 << w
            masks.append(mask)
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

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.coloured_components()) == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # the lists are ascending, so they are equal exactly when the
        # edge sets are
        return self.nbrs == other.nbrs

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def edge_ends(g: Graph) -> list[int]:
    """g's sorted edges laid out flat: u0, v0, u1, v1, ..., each u < v."""
    ends: list[int] = []
    for u, row in enumerate(g.nbrs):
        for v in row:
            if v > u:
                ends.append(u)
                ends.append(v)
    return ends


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced on ``vertices``.

    Returns the new graph and the sorted list of original ids; new vertex i
    corresponds to original id ``kept[i]``. Each kept vertex's neighbour
    list is filtered and relabelled in order, which keeps it ascending,
    so the graph takes the trusted build. A call costs the kept
    vertices' degrees.
    """
    kept = sorted(set(vertices))
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(kept)}
    nbrs = g.nbrs
    return Graph._trusted(
        [[index[w] for w in nbrs[v] if w in index] for v in kept]
    ), kept


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
    return Graph._trusted(
        [
            [w for w in row if w not in inside] if v in inside else list(row)
            for v, row in enumerate(g.nbrs)
        ]
    )


def parse_graph(text: str, fmt: str = "dimacs") -> Graph:
    """Parse a graph from DIMACS edge format or a plain edge list.

    DIMACS: 'c' comment lines, one 'p edge <n> <m>' line, 'e <u> <v>' lines
    with 1-based vertices. Edge list: one '<u> <v>' pair per line, 0-based;
    blank lines and lines starting with '#' are skipped. fmt "auto" reads
    DIMACS when the first line that neither parser skips starts with 'p'
    or 'e', and an edge list otherwise. A graph of more than MAX_VERTICES
    vertices is refused with GraphParseError.
    """
    if fmt == "dimacs":
        return _parse_dimacs(text)
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "auto":
        return _parse_dimacs(text) if _is_dimacs(text) else _parse_edgelist(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def _is_dimacs(text: str) -> bool:
    # the parsers' own first-token tests: _parse_dimacs skips a token
    # starting with 'c', _parse_edgelist one starting with '#'
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0][0] not in "c#":
            return parts[0] in ("p", "e")
    return False


def _parse_dimacs(text: str) -> Graph:
    n: int | None = None
    declared_m: int | None = None
    seen: set[int] = set()  # packed edges, see EDGE_SHIFT
    nbrs: list[list[int]] = []
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
            nbrs = [[] for _ in range(n)]
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
            key = u << EDGE_SHIFT | v
            if key in seen:
                raise GraphParseError("duplicate edge", lineno)
            seen.add(key)
            nbrs[u].append(v)
            nbrs[v].append(u)
        else:
            raise GraphParseError(f"unrecognized line kind {parts[0]!r}", lineno)
    if n is None:
        raise GraphParseError("missing 'p edge' line")
    if declared_m is not None and declared_m != len(seen):
        raise GraphParseError(
            f"problem line declares {declared_m} edges, found {len(seen)}"
        )
    return _sorted_graph(nbrs)


def _parse_edgelist(text: str) -> Graph:
    seen: set[int] = set()  # packed edges, see EDGE_SHIFT
    nbrs: list[list[int]] = []
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
        if v > top:
            # before the duplicate test: only an end below the cap packs
            # exactly, and no earlier line can hold an end above it
            if v >= MAX_VERTICES:
                raise GraphParseError(f"more than {MAX_VERTICES} vertices", lineno)
            nbrs += [[] for _ in range(v - top)]
            top = v
        key = u << EDGE_SHIFT | v
        if key in seen:
            raise GraphParseError("duplicate edge", lineno)
        seen.add(key)
        nbrs[u].append(v)
        nbrs[v].append(u)
    return _sorted_graph(nbrs)


def _sorted_graph(nbrs: list[list[int]]) -> Graph:
    """The graph of checked neighbour lists in line order, each sorted
    in place: sorting a few short lists costs less than sorting every
    edge."""
    for row in nbrs:
        row.sort()
    return Graph._trusted(nbrs)


def write_graph(g: Graph, fmt: str = "dimacs") -> str:
    """Serialize in the same formats parse_graph reads."""
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
        return "\n".join(lines) + "\n"
    if fmt == "edgelist":
        return "".join(f"{u} {v}\n" for u, v in g.edges)
    raise ValueError(f"unknown graph format {fmt!r}")
