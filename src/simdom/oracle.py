"""Ground-truth solvers for small instances.

Everything here is exact and exponential. These routines exist to
validate the polynomial machinery, so they deliberately avoid sharing
code with it: spanning trees are enumerated directly, covers and
dominating sets are found by subset search ordered by size then
lexicographically, which makes the returned optimum canonical. The 0/1
program of lpapprox is solved by enumerating assignments, and its LP
relaxation by enumerating basic solutions. The paper's extension of an
SD-set to a vertex cover of at most 2|S| - 1 vertices lives here too,
over the block-cut tree rooted by blocks.root_block_tree (each cut
vertex's parent block; its other blocks are its children): only tests
call it, to check the lemma behind approx4_sds_via_vc. The
brute-force SD-set search tests each subset against per-vertex
domination requirements, read off the graph's neighbour lists and the
block-cut tree's flat layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import AbstractSet, Iterator

from .blocks import BlockCutTree, blocks_and_cut_vertices, root_block_tree
from .domination import Colour, Colouring, all_zero_hat, is_sd_set
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    GuaranteeError,
    InvalidSdSetError,
)
from .graph import Graph
from .lpapprox import LpModel
from .vertexcover import is_vertex_cover

EDGE_ENUMERATION_BUDGET = 16
VC_VERTEX_BUDGET = 20
SDS_VERTEX_BUDGET = 16


@dataclass(frozen=True)
class SpanningTree:
    edges: frozenset[tuple[int, int]]


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True

    def copy(self) -> "_DSU":
        d = _DSU(0)
        d.parent = self.parent.copy()
        return d


def enumerate_spanning_trees(
    g: Graph, edge_budget: int = EDGE_ENUMERATION_BUDGET
) -> Iterator[SpanningTree]:
    """Yield every spanning tree exactly once.

    Backtracking over edge inclusion/exclusion; a branch is pruned when
    the edges still available cannot connect all vertices.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("spanning trees require a connected graph")
    if g.m > edge_budget:
        raise BudgetExceededError(
            f"{g.m} edges exceeds the enumeration budget of {edge_budget}"
        )
    n, edges = g.n, g.edges
    if n == 1:
        yield SpanningTree(frozenset())
        return

    def spannable(dsu: _DSU, start: int) -> bool:
        d = dsu.copy()
        parts = sum(1 for v in range(n) if d.find(v) == v)
        for u, v in edges[start:]:
            if d.union(u, v):
                parts -= 1
        return parts == 1

    def walk(i: int, dsu: _DSU, chosen: list[tuple[int, int]]) -> Iterator[SpanningTree]:
        if len(chosen) == n - 1:
            yield SpanningTree(frozenset(chosen))
            return
        if i == len(edges) or len(chosen) + (len(edges) - i) < n - 1:
            return
        u, v = edges[i]
        if dsu.find(u) != dsu.find(v):
            inc = dsu.copy()
            inc.union(u, v)
            chosen.append((u, v))
            yield from walk(i + 1, inc, chosen)
            chosen.pop()
        if spannable(dsu, i + 1):
            yield from walk(i + 1, dsu, chosen)

    yield from walk(0, _DSU(n), [])


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees by the matrix-tree theorem, exactly.

    Integer-preserving (Bareiss) elimination on the Laplacian minor, so
    the count is exact for any size.
    """
    if g.n == 0:
        return 0
    if g.n == 1:
        return 1
    n = g.n
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def is_sd_set_by_enumeration(
    g: Graph, s: AbstractSet[int], edge_budget: int = EDGE_ENUMERATION_BUDGET
) -> bool:
    """Literal check: s dominates every spanning tree."""
    for tree in enumerate_spanning_trees(g, edge_budget):
        nbr: list[set[int]] = [set() for _ in range(g.n)]
        for u, v in tree.edges:
            nbr[u].add(v)
            nbr[v].add(u)
        for v in range(g.n):
            if v not in s and not (nbr[v] & s):
                return False
    return True


def sds_to_vertex_cover(
    g: Graph, bct: BlockCutTree, s: AbstractSet[int]
) -> frozenset[int]:
    """Extend an SD-set to a vertex cover, adding at most |s| - 1 vertices.

    The block tree is rooted at a block meeting s; a cut vertex joins
    the cover whenever one of its child blocks (its blocks other than
    its parent) contains an s-vertex.
    """
    if g.n < 2:
        raise ValueError("cover extension is defined for graphs with n >= 2")
    if not is_sd_set(g, bct, s):
        raise InvalidSdSetError("input set is not a simultaneous dominating set")
    chosen = frozenset(s)
    blocks = bct.blocks
    root_block = next(i for i, blk in enumerate(blocks) if blk & chosen)
    tree = root_block_tree(bct, ("block", root_block))
    result = chosen.union(
        v
        for v, (_, parent) in tree.items()
        if any(blocks[b] & chosen for b in bct.cut_blocks[v] if b != parent)
    )
    if not is_vertex_cover(g, result):
        raise GuaranteeError("cover extension missed an edge")
    if len(result) > 2 * len(chosen) - 1:
        raise GuaranteeError("cover extension exceeded the size bound")
    return result


def _subsets_by_size(universe: list[int]) -> Iterator[tuple[int, ...]]:
    for k in range(len(universe) + 1):
        yield from itertools.combinations(universe, k)


def min_vc_bruteforce(g: Graph, vertex_budget: int = VC_VERTEX_BUDGET) -> frozenset[int]:
    """Lexicographically-smallest minimum vertex cover by subset search."""
    if g.n > vertex_budget:
        raise BudgetExceededError(
            f"{g.n} vertices exceeds the vertex-cover oracle budget of {vertex_budget}"
        )
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges]
    for combo in _subsets_by_size(list(range(g.n))):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if all(mask & em for em in edge_masks):
            return frozenset(combo)
    raise GuaranteeError("the full vertex set always covers")


def min_sds_bruteforce(
    g: Graph, vertex_budget: int = SDS_VERTEX_BUDGET
) -> frozenset[int]:
    """Lexicographically-smallest minimum simultaneous dominating set:
    the all-ZERO_HAT colouring's. When the graph is small enough the
    winner is re-checked against direct spanning-tree enumeration.
    """
    result = min_crsds_bruteforce(g, all_zero_hat(g.n), vertex_budget)
    if g.n >= 2 and g.m <= EDGE_ENUMERATION_BUDGET:
        if not is_sd_set_by_enumeration(g, result):
            raise GuaranteeError("block conditions and spanning trees disagree")
    return result


def min_crsds_bruteforce(
    g: Graph, colouring: Colouring, vertex_budget: int = SDS_VERTEX_BUDGET
) -> frozenset[int]:
    """Smallest colour-respecting SD-set by subset search over free
    vertices, ordered by size then lexicographically.

    A vertex is simultaneously dominated by s when it is in s, or when
    some block holding it has all of its neighbours in that block in s.
    A non-cut vertex's one block holds all its neighbours.
    """
    if g.n > vertex_budget:
        raise BudgetExceededError(
            f"{g.n} vertices exceeds the SD-set oracle budget of {vertex_budget}"
        )
    if not g.is_connected():
        raise DisconnectedGraphError("SD-sets are defined on connected graphs")
    bct = blocks_and_cut_vertices(g)
    members, start = bct.members, bct.member_start
    block_masks = [
        sum(1 << v for v in members[start[b]:start[b + 1]])
        for b in range(len(start) - 1)
    ]
    nbr_masks = g.adjacency_masks()
    req_masks = [
        [nbr_masks[v] & block_masks[b] for b in bct.cut_blocks[v]]
        if v in bct.cut_blocks
        else [nbr_masks[v]]
        for v in range(g.n)
    ]
    ones_mask = 0
    for v in range(g.n):
        if colouring[v] is Colour.ONE:
            ones_mask |= 1 << v
    free = [v for v in range(g.n) if colouring[v] is not Colour.ONE]
    needs = [v for v in range(g.n) if colouring[v] is Colour.ZERO_HAT]
    for combo in _subsets_by_size(free):
        mask = ones_mask
        for v in combo:
            mask |= 1 << v
        ok = True
        for v in needs:
            if (mask >> v) & 1:
                continue
            if not any(rm & ~mask == 0 for rm in req_masks[v]):
                ok = False
                break
        if ok:
            return frozenset(v for v in range(g.n) if (mask >> v) & 1)
    raise GuaranteeError("the full vertex set always respects any colouring")


def ip_optimum_bruteforce(m: LpModel, *, vertex_budget: int = 16) -> int:
    """Minimum objective over binary assignments satisfying every row.

    y-variables carry no objective weight, so for each x the best
    candidate sets y_{v,B} = 1 exactly when every block-neighbour row of
    that column allows it; all rows are then evaluated literally.
    """
    if m.n > vertex_budget:
        raise BudgetExceededError(
            f"{m.n} vertices exceeds the IP enumeration budget of {vertex_budget}"
        )
    supporters: dict[int, list[int]] = {m.n + i: [] for i in range(len(m.y_keys))}
    for row in m.rows:
        if row.kind == "block-neighbour":
            ycol = next(c for c, a in row.coeffs.items() if a == -1)
            xcol = next(c for c, a in row.coeffs.items() if a == 1)
            supporters[ycol].append(xcol)
    best: int | None = None
    for bits in range(1 << m.n):
        value = [0] * m.num_cols
        for v in range(m.n):
            value[v] = (bits >> v) & 1
        for ycol, xs in supporters.items():
            value[ycol] = 1 if all(value[u] for u in xs) else 0
        ok = all(
            sum(a * value[c] for c, a in row.coeffs.items()) >= row.rhs
            for row in m.rows
        )
        if ok:
            size = sum(value[: m.n])
            if best is None or size < best:
                best = size
    if best is None:
        raise GuaranteeError("the all-ones assignment is always feasible")
    return best


def lp_vertex_enumeration_optimum(
    m: LpModel, *, system_budget: int = 200_000
) -> Fraction:
    """LP optimum by enumerating basic solutions of the small polytope.

    A basic solution lies on n_vars constraint planes: k model rows held
    at equality and the planes x_c = 0 of the other n_vars - k columns.
    Those columns are substituted by zero, so each choice is solved as a
    k x k equality system on the k free columns; feasible solutions are
    scored by the objective. Exists to cross-check the simplex on tiny
    models only.
    """
    nv = m.num_cols
    planes: list[tuple[tuple[Fraction, ...], Fraction]] = []
    seen = set()
    for row in m.rows:
        vec = tuple(
            Fraction(row.coeffs.get(c, 0)) for c in range(nv)
        )
        if (vec, row.rhs) not in seen:
            seen.add((vec, row.rhs))
            planes.append((vec, Fraction(row.rhs)))
    systems = comb(len(planes) + nv, nv)
    if systems > system_budget:
        raise BudgetExceededError(f"{systems} candidate systems exceed the budget")

    best: Fraction | None = None
    for k in range(min(len(planes), nv) + 1):
        for chosen in itertools.combinations(planes, k):
            for free in itertools.combinations(range(nv), k):
                a = [[vec[c] for c in free] + [rhs] for vec, rhs in chosen]
                values = _solve_square(a, k)
                if values is None or any(v < 0 for v in values):
                    continue
                point = list(zip(free, values))
                if any(sum(vec[c] * v for c, v in point) < rhs for vec, rhs in planes):
                    continue
                objective = sum((v for c, v in point if c < m.n), start=Fraction(0))
                if best is None or objective < best:
                    best = objective
    if best is None:
        raise GuaranteeError("the model family always has feasible vertices")
    return best


def _solve_square(a: list[list[Fraction]], nv: int) -> list[Fraction] | None:
    """Gaussian elimination on an augmented nv x (nv+1) system."""
    for col in range(nv):
        pivot = next((r for r in range(col, nv) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(nv):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][nv] for r in range(nv)]
