"""Seeded inputs for the four benchmark workloads.

Every operation is one graph, given to the program as edge-list text,
plus the call to make on it. Only the standard library is used here, so
the inputs do not depend on the code under test.

``--seed`` draws everything that varies between runs. For ``cactus`` and
``low-width`` that is the whole graph: those rounds hold thousands of
blocks or are dominated by vertex count, so their cost barely moves with
the seed. The cost of branch and bound (``dense``) and of the exact
simplex (``lp``) swings severalfold between random graphs of one size,
so those workloads keep fixed structures, built from fixed generator
seeds, and the run seed draws a fresh vertex labelling of each. The
labelling changes every tie-break in the program (search order, pivot
order, peel order) but not the optimum, which is what lets the ``dense``
optima be stored (see reference.py).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOADS = ("cactus", "dense", "low-width", "lp")

Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Op:
    """One operation: solve (or approximate) one graph.

    kind is "sds" (solve_sds), "crsds" (solve_crsds under ``colours``)
    or "approx" (approx2_sds). ``structure`` names a fixed structure
    whose optimum is stored; ``seeded`` is False only for the fixed
    adversarial operation.
    """

    name: str
    kind: str
    n: int
    edges: Edges
    colours: tuple[str, ...] | None = None
    seeded: bool = True
    structure: str | None = None
    structure_sha: str | None = None

    def text(self) -> str:
        return "".join(f"{u} {v}\n" for u, v in self.edges)


def _norm(edges) -> Edges:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))


def edges_sha(n: int, edges: Edges) -> str:
    body = f"{n}\n" + "".join(f"{u} {v}\n" for u, v in _norm(edges))
    return hashlib.sha256(body.encode()).hexdigest()


def relabel(n: int, edges, rng: random.Random) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return _norm((perm[u], perm[v]) for u, v in edges)


def cycle_with_chords(n: int, m: int, rng: random.Random, span: int = 0) -> Edges:
    """Hamiltonian cycle 0..n-1 plus m-n distinct random chords.

    A positive span keeps every chord within span steps along the cycle,
    which keeps the min-fill width of a sparse block well under the
    dispatcher's cap of 12 (4 to 8 over 100 seeds at n=301, m=331).
    """
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    while len(edges) < m:
        u = rng.randrange(n)
        v = u + rng.randint(2, span) if span else rng.randrange(n)
        if u != v and v < n:
            edges.add((min(u, v), max(u, v)))
    return _norm(edges)


def chain(
    sizes: list[int], ratio: float, rng: random.Random, span: int = 0
) -> tuple[int, Edges]:
    """Blocks of cycle_with_chords glued in a path: block k+1 shares
    one vertex, drawn at random, with block k."""
    edges: list[tuple[int, int]] = []
    n = 0
    prev: list[int] = []
    for size in sizes:
        block = cycle_with_chords(size, round(ratio * size), rng, span)
        if prev:
            ids = [rng.choice(prev)] + list(range(n, n + size - 1))
            n += size - 1
        else:
            ids = list(range(size))
            n = size
        edges += [(ids[u], ids[v]) for u, v in block]
        prev = ids
    return n, _norm(edges)


def cactus_graph(blocks: int, rng: random.Random) -> tuple[int, Edges]:
    """Bridges, triangles, 4- and 5-cycles and K4s, each hung at a random
    vertex of the graph built so far (about 2.6 vertices per block)."""
    n = 1
    edges: list[tuple[int, int]] = []
    for _ in range(blocks):
        kind = rng.choice(("bridge", "triangle", "c4", "c5", "k4"))
        size = {"bridge": 2, "triangle": 3, "c4": 4, "c5": 5, "k4": 4}[kind]
        vs = [rng.randrange(n)] + list(range(n, n + size - 1))
        n += size - 1
        if kind == "k4":
            edges += [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
        elif kind == "bridge":
            edges.append((vs[0], vs[1]))
        else:
            edges += [(vs[i], vs[(i + 1) % size]) for i in range(size)]
    return n, _norm(edges)


def random_colours(n: int, rng: random.Random) -> tuple[str, ...]:
    """Partial colouring: 15% ONE, 25% ZERO, the rest ZERO_HAT."""
    out = []
    for _ in range(n):
        r = rng.random()
        out.append("1" if r < 0.15 else "0" if r < 0.40 else "0hat")
    return tuple(out)


def adversarial_even_cycle(length: int = 3000) -> Op:
    """Even cycle hung by its pivot vertex off a triangle.

    The cycle is peeled as a leaf block. Deleting the pivot for the ONE
    recolouring leaves a path v_0..v_{L-2} that the auto dispatcher
    sends to König. The labels make the path's smallest vertex odd-
    indexed (so the odd side is the left side of Hopcroft-Karp) and make
    the greedy first phase match v_1-v_2 and v_{2j+1}-v_{2j} for j >= 2.
    That leaves v_3 as the only free left vertex, with both neighbours
    taken, and v_0 and v_{L-2} as the free right vertices. v_3 tries
    v_4 before v_2, so the second phase follows the augmenting path
    v_3, v_4, ..., v_{L-2} and the recursive dfs nests about L/2 deep.
    """
    path = length - 1
    odd = [1] + list(range(5, path, 2)) + [3]
    even = list(range(4, path, 2)) + [2, 0]
    label = {}
    for v in odd + even:
        label[v] = len(label)
    pivot, a, b = length - 1, length, length + 1
    edges = [(label[i], label[i + 1]) for i in range(path - 1)]
    edges += [(label[0], pivot), (label[path - 1], pivot)]
    edges += [(pivot, a), (pivot, b), (a, b)]
    return Op("adversarial-even-cycle", "sds", length + 2, _norm(edges), seeded=False)


# Fixed structures of the dense workload: (name, block sizes, generator seed).
# Chains send leaf blocks through all three recolourings; single blocks
# send only the root through one cover call.
DENSE_STRUCTURES = (
    ("single-100", [100], 1),
    ("single-105", [105], 2),
    ("single-110", [110], 3),
    ("chain-100x2", [100, 100], 5),
    ("chain-105x2", [105, 105], 6),
    ("chain-100x3", [100, 100, 100], 7),
)
DENSE_RATIO = 2.5
# Search effort under one labelling swings by about 12% (quartile spread
# of summed nodes over 10 seeds); three labellings of each structure
# bring the round's spread down to about 7%.
DENSE_LABELLINGS = 3

# Fixed structures of the lp workload: (name, n, m, generator seed). One
# relabelled instance swings by a quarter to a half in time, so the round
# holds thirty small ones, five of each size. A round of ten at n = 30-39
# spread by about a tenth between seeds.
LP_STRUCTURES = tuple(
    (f"lp-{n}-{k}", n, round(1.5 * n), 100 * n + k) for n in range(20, 25) for k in range(5)
)


def dense_structure(sizes: list[int], seed: int) -> tuple[int, Edges]:
    return chain(sizes, DENSE_RATIO, random.Random(seed))


def random_connected(n: int, m: int, rng: random.Random) -> Edges:
    """Random spanning tree plus m-(n-1) distinct random edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return _norm(edges)


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one round, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    if workload == "cactus":
        for i in range(2):
            n, edges = cactus_graph(1000, rng)
            edges = relabel(n, edges, rng)
            ops.append(Op(f"cactus-{i}", "sds", n, edges))
            ops.append(Op(f"cactus-{i}-coloured", "crsds", n, edges, random_colours(n, rng)))
        ops.append(adversarial_even_cycle())
    elif workload == "dense":
        for name, sizes, struct_seed in DENSE_STRUCTURES:
            n, edges = dense_structure(sizes, struct_seed)
            sha = edges_sha(n, edges)
            for k in range(DENSE_LABELLINGS):
                ops.append(
                    Op(f"{name}/{k}", "sds", n, relabel(n, edges, rng),
                       structure=name, structure_sha=sha)
                )
    elif workload == "low-width":
        # Min-fill cost on one graph swings by about a fifth with the
        # labelling, so the round holds three cycles and six pairs.
        for n in (999, 1001, 1003):
            cycle = [(v, (v + 1) % n) for v in range(n)]
            ops.append(Op(f"odd-cycle-{n}", "sds", n, relabel(n, cycle, rng)))
        for i in range(6):
            n, edges = chain([301, 301], 1.1, rng, span=60)
            ops.append(Op(f"sparse-pair-{i}", "sds", n, relabel(n, edges, rng)))
    elif workload == "lp":
        for name, n, m, struct_seed in LP_STRUCTURES:
            edges = random_connected(n, m, random.Random(struct_seed))
            ops.append(Op(name, "approx", n, relabel(n, edges, rng)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
