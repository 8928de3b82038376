"""Shared graph builders and helpers for the test suite."""

import itertools
import random

from hypothesis import strategies as st

from simdom import Graph


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
