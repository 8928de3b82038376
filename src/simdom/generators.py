"""Seeded graph generators for tests, benchmarks, and the CLI.

All generators are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Iterable, Sequence

from .graph import Graph


class _PairsOutside(Sequence):
    """The pairs (u, v), u < v < n, not in ``taken``, in lexicographic
    order, without listing them: memory is linear in n and len(taken).

    A pair is found by bisection twice: over the rows' first indices for
    u, then over the taken pairs of row u, each keyed by how many free
    pairs come before it in the row, for v. ``rng.sample`` draws the
    same indices from this as from the full list, so it draws the same
    pairs.
    """

    def __init__(self, n: int, taken: Iterable[tuple[int, int]]):
        # per row with taken pairs: the free pairs before each of them
        self._before: dict[int, list[int]] = {}
        for u, v in sorted(taken):  # each normalised, u < v
            row = self._before.setdefault(u, [])
            row.append(v - u - 1 - len(row))
        self._starts = []
        total = 0
        for u in range(n):
            self._starts.append(total)
            total += n - 1 - u - len(self._before.get(u, ()))
        self._len = total

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> tuple[int, int]:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("pair index out of range")
        u = bisect_right(self._starts, i) - 1
        j = i - self._starts[u]  # the j-th free pair of row u
        return u, u + 1 + j + bisect_right(self._before.get(u, ()), j)


def gap_graph(k: int) -> Graph:
    """Clique on k vertices, each with a dangling path of length two.

    Vertices 0..k-1 form the clique, k+i is the middle and 2k+i the end of
    the path hanging off clique vertex i. The minimum vertex cover has
    2k-1 vertices while the k path middles already dominate every
    spanning tree, so the two optima differ by a factor approaching 2.
    """
    if k < 1:
        raise ValueError("k must be positive")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for i in range(k):
        edges.append((i, k + i))
        edges.append((k + i, 2 * k + i))
    return Graph(3 * k, edges)


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly m edges (not necessarily connected)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    max_m = n * (n - 1) // 2
    if not 0 <= m <= max_m:
        raise ValueError(f"m must be in 0..{max_m}")
    rng = random.Random(seed)
    return Graph(n, rng.sample(_PairsOutside(n, ()), m))


def random_connected_graph(n: int, m: int, seed: int) -> Graph:
    """Random spanning tree plus m-(n-1) extra random edges."""
    if n < 1:
        raise ValueError("n must be positive")
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise ValueError(f"m must be in {n - 1}..{max_m}")
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    edges.update(rng.sample(_PairsOutside(n, edges), m - len(edges)))
    return Graph(n, edges)


def random_2connected_graph(n: int, m: int, seed: int) -> Graph:
    """Cycle on n vertices plus m-n random chords; 2-connected by construction."""
    if n < 3:
        raise ValueError("n must be at least 3")
    max_m = n * (n - 1) // 2
    if not n <= m <= max_m:
        raise ValueError(f"m must be in {n}..{max_m}")
    rng = random.Random(seed)
    edges = {(v, (v + 1) % n) if v < (v + 1) % n else ((v + 1) % n, v) for v in range(n)}
    edges.update(rng.sample(_PairsOutside(n, edges), m - len(edges)))
    return Graph(n, edges)


def random_chordal_graph(n: int, fill: float, seed: int) -> Graph:
    """Random connected base graph closed under elimination fill-in.

    Eliminating vertices 0..n-1 in order and adding every fill edge yields
    a graph for which that order is a perfect elimination ordering, hence
    chordal. ``fill`` controls the density of the random base graph.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= fill <= 1.0:
        raise ValueError("fill must be in [0, 1]")
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    for u in range(n):
        for v in range(u + 1, n):
            if v not in adj[u] and rng.random() < fill:
                adj[u].add(v)
                adj[v].add(u)
    # Fill: later neighbours of each eliminated vertex become a clique.
    for v in range(n):
        later = sorted(w for w in adj[v] if w > v)
        for i, a in enumerate(later):
            for b in later[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph(n, edges)


def random_bipartite_graph(a: int, b: int, p: float, seed: int) -> Graph:
    """Bipartite graph on sides 0..a-1 and a..a+b-1 with edge probability p."""
    if a < 0 or b < 0:
        raise ValueError("side sizes must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, a + v)
        for u in range(a)
        for v in range(b)
        if rng.random() < p
    ]
    return Graph(a + b, edges)
