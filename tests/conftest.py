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
