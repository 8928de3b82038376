"""Polynomial verification of simultaneous domination.

A set dominates every spanning tree of a connected graph exactly when
each vertex v outside it either has all its neighbours inside (v not a
cut vertex) or has all its neighbours inside some single block
containing v (v a cut vertex). This check replaces enumerating the
exponentially many spanning trees; the oracle module validates the
equivalence on small instances.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, Iterable, Sequence

from .blocks import BlockCutTree
from .graph import Graph


class Colour(enum.IntEnum):
    """Vertex colours ordered worst to best.

    ZERO_HAT: not in the set, still needs simultaneous domination.
    ZERO: not in the set, exempt from domination.
    ONE: forced into the set.
    """

    ZERO_HAT = 0
    ZERO = 1
    ONE = 2


# Total per-vertex colour assignment.
Colouring = Sequence[Colour]

COLOUR_TOKENS = {"1": Colour.ONE, "0": Colour.ZERO, "0hat": Colour.ZERO_HAT}
TOKEN_OF_COLOUR = {c: t for t, c in COLOUR_TOKENS.items()}


def all_zero_hat(n: int) -> list[Colour]:
    return [Colour.ZERO_HAT] * n


def _first_undominated(
    g: Graph, bct: BlockCutTree, s: AbstractSet[int], vertices: Iterable[int]
) -> int | None:
    """First of ``vertices`` that s does not simultaneously dominate, or
    None. The one domination test of the module: v is dominated when it
    is in s, or all its neighbours are (v not a cut vertex), or all its
    neighbours in one of its blocks are (v a cut vertex). Each of a cut
    vertex's blocks holds one of its neighbours, so v is dominated
    exactly when its neighbours outside s miss one of its blocks."""
    if not isinstance(s, (set, frozenset)):
        s = frozenset(s)
    nbrs = g.nbrs
    cut_blocks = bct.cut_blocks
    edge_block = bct.edge_block
    for v in vertices:
        if v in s:
            continue
        row = nbrs[v]
        if s.issuperset(row):
            continue
        blocks = cut_blocks.get(v)
        if blocks is None:
            return v
        missed = {edge_block(v, w) for w in row if w not in s}
        if len(missed) == len(blocks):
            return v
    return None


def is_sd_set(g: Graph, bct: BlockCutTree, s: AbstractSet[int]) -> bool:
    """True iff every vertex is simultaneously dominated by s."""
    return sd_witness(g, bct, s) is None


def sd_witness(g: Graph, bct: BlockCutTree, s: AbstractSet[int]) -> int | None:
    """Smallest vertex not simultaneously dominated, or None if s is valid."""
    return _first_undominated(g, bct, s, range(g.n))


def is_colour_respecting(
    g: Graph, bct: BlockCutTree, colouring: Colouring, s: AbstractSet[int]
) -> bool:
    """True iff s contains every ONE vertex and simultaneously dominates
    every ZERO_HAT vertex."""
    if len(colouring) != g.n:
        raise ValueError(f"colouring has {len(colouring)} entries for n={g.n}")
    one, zero_hat = Colour.ONE, Colour.ZERO_HAT
    for v, c in enumerate(colouring):
        if c is one and v not in s:
            return False
    need = [v for v, c in enumerate(colouring) if c is zero_hat]
    return _first_undominated(g, bct, s, need) is None
