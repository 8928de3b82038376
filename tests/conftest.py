"""Shared graph builders and helpers for the test suite."""

import itertools
import random

from hypothesis import strategies as st

from simdom import Graph
from simdom.generators import random_connected_graph


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def clique(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> Graph:
    # vertex 0 is the centre
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def two_triangles_sharing_vertex() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def random_colouring_values(n: int, seed: int) -> list[int]:
    """Random values in {0, 1, 2} used to build colourings in tests."""
    rng = random.Random(seed)
    return [rng.randrange(3) for _ in range(n)]


@st.composite
def small_graphs(draw, max_n=14):
    """Any graph on up to max_n vertices: isolated vertices and several
    components included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


PETALS = ([(0, 1)], [(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2), (2, 3), (0, 3)])


@st.composite
def connected_graphs(draw, max_n=12):
    """Random connected graphs, half of them small blocks (edges,
    triangles, 4-cycles) hung at random vertices, where residuals recur."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=max_n))
        m = draw(st.integers(min_value=n - 1, max_value=n * (n - 1) // 2))
        return random_connected_graph(n, m, draw(st.integers(0, 10**6)))
    n, edges = 1, []
    for petal in draw(st.lists(st.sampled_from(PETALS), max_size=max_n)):
        k = max(max(e) for e in petal)
        if n + k > max_n:
            break
        ids = [draw(st.integers(0, n - 1))] + list(range(n, n + k))
        edges += [(ids[u], ids[v]) for u, v in petal]
        n += k
    return Graph(n, edges)


VERTEX = st.integers(0, 7).map(str)
MIXED_LINE = st.one_of(
    st.builds("p edge {} {}".format, st.integers(0, 8), st.integers(0, 6)),
    st.builds("e {} {}".format, st.integers(1, 8), st.integers(1, 8)),
    st.builds("{} {}".format, VERTEX, VERTEX),
    st.sampled_from(["", "  ", "c", "c x", "comment line", "\tcx", "#", "# 0 1", "#0 1"]),
    st.sampled_from(["p", "p edge 3", "e 1", "e", "0", "0 1 2", "x y", "-1 2", "1 1"]),
)


@st.composite
def mixed_graph_texts(draw):
    """Up to 8 lines mixing DIMACS, edge-list, comment and junk lines.
    Half the time a 'p edge' line with the right counts goes in too, so
    that the DIMACS parser often accepts the text."""
    lines = draw(st.lists(MIXED_LINE, max_size=8))
    if draw(st.booleans()):
        ends = [
            int(w) for line in lines if line.startswith("e ") for w in line.split()[1:]
        ]
        count = sum(line.startswith("e ") for line in lines)
        header = f"p edge {max(ends, default=1)} {count}"
        lines.insert(draw(st.integers(0, len(lines))), header)
    return "\n".join(lines)
