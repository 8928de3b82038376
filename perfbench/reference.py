"""Independent checks of the program's answers.

Nothing here imports simdom. Blocks and cut vertices come from networkx;
optima come from the paper's 0/1 model solved by HiGHS through
scipy.optimize.milp, and LP bounds from its relaxation through linprog.

The model: x_v for every vertex; y_{v,B} for every cut vertex v and block
B containing it. A vertex that needs domination (colour 0hat) and is not
a cut vertex gets x_v + x_u >= 1 for each neighbour u. A cut vertex that
needs domination gets y_{v,B} <= x_u for each neighbour u in B, and
x_v + sum_B y_{v,B} >= 1. ONE vertices are fixed to 1; ZERO vertices
are exempt and get no rows.

The optima of the dense workload's fixed structures take HiGHS from
seconds to minutes each, so they are stored in dense_optima.json.
Regenerate them with:

    python3 perfbench/reference.py --regenerate
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import coo_array

HERE = Path(__file__).resolve().parent
DENSE_OPTIMA = HERE / "dense_optima.json"
TOL = 1e-6


def _graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _blocks_of(g: nx.Graph) -> dict[int, list[frozenset[int]]]:
    """The blocks (networkx biconnected components) containing each vertex."""
    out: dict[int, list[frozenset[int]]] = {v: [] for v in g}
    for blk in nx.biconnected_components(g):
        blk = frozenset(blk)
        for v in blk:
            out[v].append(blk)
    return out


def is_colour_respecting(n: int, edges, colours, s) -> bool:
    """ONE vertices are in s, and every 0hat vertex outside s has some
    block B containing it with all its neighbours in B inside s."""
    g = _graph(n, edges)
    s = set(s)
    if not s <= set(range(n)):
        return False
    blocks_of = _blocks_of(g)
    for v in range(n):
        colour = colours[v] if colours is not None else "0hat"
        if colour == "1" and v not in s:
            return False
        if colour != "0hat" or v in s:
            continue
        nbrs = set(g[v])
        if not any(nbrs & blk <= s for blk in blocks_of[v]):
            return False
    return True


def _model(n: int, edges, colours):
    g = _graph(n, edges)
    blocks_of = _blocks_of(g)
    cuts = set(nx.articulation_points(g))
    ycol: dict[tuple[int, frozenset[int]], int] = {}
    for v in sorted(cuts):
        for blk in blocks_of[v]:
            ycol[(v, blk)] = n + len(ycol)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs: list[float] = []

    def add(row: dict[int, float], lo: float) -> None:
        r = len(rhs)
        for c, a in row.items():
            rows.append(r)
            cols.append(c)
            vals.append(a)
        rhs.append(lo)

    for v in range(n):
        colour = colours[v] if colours is not None else "0hat"
        if colour != "0hat":
            continue
        if v in cuts:
            for blk in blocks_of[v]:
                for u in g[v]:
                    if u in blk:
                        add({u: 1.0, ycol[(v, blk)]: -1.0}, 0.0)
            add({v: 1.0, **{ycol[(v, blk)]: 1.0 for blk in blocks_of[v]}}, 1.0)
        else:
            for u in g[v]:
                add({u: 1.0, v: 1.0}, 1.0)
    ncols = n + len(ycol)
    a = coo_array((vals, (rows, cols)), shape=(len(rhs), ncols)).tocsr()
    cost = np.zeros(ncols)
    cost[:n] = 1.0
    lower = np.zeros(ncols)
    if colours is not None:
        for v in range(n):
            if colours[v] == "1":
                lower[v] = 1.0
    return cost, a, np.array(rhs), lower, ncols


def ilp_optimum(n: int, edges, colours=None) -> tuple[int, frozenset[int]]:
    """Exact optimum of the 0/1 model and one optimal vertex set."""
    cost, a, rhs, lower, ncols = _model(n, edges, colours)
    res = milp(
        cost,
        constraints=LinearConstraint(a, rhs, np.inf),
        integrality=np.ones(ncols),
        bounds=Bounds(lower, np.ones(ncols)),
    )
    if not res.success:
        raise RuntimeError(f"HiGHS did not solve the model: {res.message}")
    value = round(res.fun)
    if abs(res.fun - value) > TOL:
        raise RuntimeError(f"HiGHS optimum {res.fun} is not integral")
    chosen = frozenset(v for v in range(n) if res.x[v] > 0.5)
    return value, chosen


def lp_optimum(n: int, edges) -> float:
    """Optimum of the relaxation of the uncoloured model."""
    cost, a, rhs, lower, ncols = _model(n, edges, None)
    res = linprog(
        cost, A_ub=-a, b_ub=-rhs, bounds=list(zip(lower, np.ones(ncols))), method="highs"
    )
    if not res.success:
        raise RuntimeError(f"HiGHS did not solve the relaxation: {res.message}")
    return float(res.fun)


def stored_dense_optima() -> dict:
    with open(DENSE_OPTIMA, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Checks answers, computing each reference optimum once per run."""

    def __init__(self) -> None:
        self._optimum: dict[str, int] = {}
        self._stored: dict | None = None

    def optimum(self, op) -> int:
        if op.name not in self._optimum:
            if op.structure is not None:
                if self._stored is None:
                    self._stored = stored_dense_optima()
                entry = self._stored[op.structure]
                if entry["edges_sha256"] != op.structure_sha:
                    raise RuntimeError(
                        f"{op.structure}: generator output no longer matches "
                        "the stored optimum; regenerate dense_optima.json"
                    )
                # relabelling keeps the optimum, so the stored value holds
                self._optimum[op.name] = entry["optimum"]
            else:
                self._optimum[op.name] = ilp_optimum(op.n, op.edges, op.colours)[0]
        return self._optimum[op.name]

    def check(self, op, answer: frozenset[int], bound: Fraction | None) -> str | None:
        """None when the answer passes, else what is wrong with it."""
        if not is_colour_respecting(op.n, op.edges, op.colours, answer):
            return "not a colour-respecting SD-set"
        opt = self.optimum(op)
        if op.kind != "approx":
            if len(answer) != opt:
                return f"size {len(answer)} but the ILP optimum is {opt}"
            return None
        if bound is None:
            return "no LP bound returned"
        lp = lp_optimum(op.n, op.edges)
        if abs(float(bound) - lp) > TOL:
            return f"LP bound {bound} but linprog gives {lp}"
        if not bound <= opt <= len(answer) <= 2 * bound:
            return f"bound {bound}, ILP {opt}, |S| {len(answer)} break the sandwich"
        return None

    def self_test(self, op, answer: frozenset[int]) -> bool:
        """True when the check rejects a set one vertex short.

        For an exact operation the answer itself loses a vertex. For an
        approximation, whose answer need not be minimal, an ILP-optimal
        set loses one, which must then fail the domination test.
        """
        if op.kind != "approx":
            short = answer - {min(answer)}
            return self.check(op, short, None) is not None
        _, best = ilp_optimum(op.n, op.edges, op.colours)
        short = best - {min(best)}
        return not is_colour_respecting(op.n, op.edges, op.colours, short)


def regenerate() -> None:
    """Solve each fixed dense structure with HiGHS and store the optima."""
    sys.path.insert(0, str(HERE))
    import workloads

    out = {}
    for name, sizes, seed in workloads.DENSE_STRUCTURES:
        n, edges = workloads.dense_structure(sizes, seed)
        value, chosen = ilp_optimum(n, edges)
        if not is_colour_respecting(n, edges, None, chosen):
            raise RuntimeError(f"{name}: the HiGHS solution is not an SD-set")
        width, _ = nx.algorithms.approximation.treewidth_min_fill_in(_graph(n, edges))
        out[name] = {
            "n": n,
            "m": len(edges),
            "edges_sha256": workloads.edges_sha(n, edges),
            "optimum": value,
            "networkx_min_fill_width": width,
        }
        print(name, out[name], flush=True)
    with open(DENSE_OPTIMA, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python3 perfbench/reference.py --regenerate")
    regenerate()
