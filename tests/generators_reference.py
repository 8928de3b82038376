"""Test-only reference: the list-based random generators.

Copied line for line from ``simdom.generators`` as it was before the
pairs outside the spanning tree or cycle were indexed lazily. Each lists
every free vertex pair, so memory is quadratic in n. The tests pin the
library's seeded graphs against them; the library keeps one
implementation.
"""

from __future__ import annotations

import random

from simdom import Graph


def random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with exactly m edges (not necessarily connected)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    max_m = n * (n - 1) // 2
    if not 0 <= m <= max_m:
        raise ValueError(f"m must be in 0..{max_m}")
    rng = random.Random(seed)
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(all_edges, m))


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
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(spare, m - len(edges)))
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
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(spare, m - len(edges)))
    return Graph(n, edges)
