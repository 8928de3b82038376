"""Runs one workload's rounds in a fresh interpreter.

Reads a JSON job from stdin and writes one JSON result to stdout. This
process imports simdom, the standard library and the host-speed probe
(hostspeed.py) only, so its peak resident set is that of the program
under test, not of the checker.

Each operation goes the way ``simdom solve`` and ``simdom approx lp``
go: graph text through ``parse_graph``, then ``solve_sds``,
``solve_crsds`` or ``approx2_sds``. Functions are looked up on their
modules at call time, so the trace wrappers apply.

Each untraced round runs the host-speed probe after every operation,
outside the operation's time, so its times can be rescaled to a
nominal host speed.

With tracing on, untraced and traced rounds alternate. The traced ones
wrap the public functions of each module under the names the calling
module binds them by, record a span per call, and restore every
original when the round ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import hostspeed


class Tracer:
    """Spans (name, start, end, parent, attrs) kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, dict]] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = attrs(args, result) if attrs and result is not None else {}
                spans[idx] = (name, start, end, parent, extra)

        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the children's duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out


def _patch_table():
    """(module, attribute, span name, attrs) for every wrapped call site."""
    from simdom import graph, solver
    from simdom import lpapprox as lpa
    from simdom import treewidth as tw
    from simdom import vertexcover as vc

    n_of_arg = lambda args, result: {"n": args[0].n}
    return [
        (graph, "parse_graph", "graph.parse", None),
        (solver, "induced_subgraph", "graph.subgraph", None),
        (solver, "delete_vertices", "graph.subgraph", None),
        (solver, "delete_edges_within", "graph.subgraph", None),
        (vc, "induced_subgraph", "graph.subgraph", None),
        (solver, "blocks_and_cut_vertices", "blocks.decompose", None),
        (lpa, "blocks_and_cut_vertices", "blocks.decompose", None),
        (solver, "leaf_component_order", "blocks.peel_order", None),
        (lpa, "root_block_tree", "blocks.root_tree", None),
        (solver, "solve_crsds", "solver", None),
        (solver, "solve_sds", "solver", None),
        (solver, "min_vertex_cover", "vertexcover.front", n_of_arg),
        (vc, "min_vc_auto", "vertexcover.auto", None),
        (vc, "min_vc_bipartite", "vertexcover.bipartite", None),
        (
            vc, "min_vc_branch_and_bound", "vertexcover.bnb",
            lambda args, result: {"nodes": result.nodes or 0},
        ),
        (tw, "min_fill_decomposition", "treewidth.decompose", None),
        (
            tw, "vc_via_tree_decomposition", "treewidth.dp",
            lambda args, result: {"width": args[1].width},
        ),
        (solver, "is_colour_respecting", "domination.verify", None),
        (solver, "is_sd_set", "domination.verify", None),
        (lpa, "is_sd_set", "domination.verify", None),
        (lpa, "approx2_sds", "lpapprox.self", None),
        (lpa, "build_sds_ip", "lpapprox.build", None),
        (lpa, "round_lp", "lpapprox.round", None),
        (
            lpa, "simplex_min", "simplex.solve",
            lambda args, result: {"rows": len(args[2]), "cols": args[0]},
        ),
    ]


@contextmanager
def traced(tracer: Tracer):
    table = _patch_table()
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in table]
    try:
        for mod, attr, name, attrs in table:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), attrs))
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


# Per-layer self-time metrics and the span names they sum.
SELF_TIME_METRICS = {
    "graph.parse_s": ("graph.parse",),
    "graph.subgraph_s": ("graph.subgraph",),
    "blocks.decompose_s": ("blocks.decompose",),
    "blocks.peel_order_s": ("blocks.peel_order",),
    "blocks.root_tree_s": ("blocks.root_tree",),
    "solver.self_s": ("solver",),
    "vertexcover.dispatch_s": ("vertexcover.front", "vertexcover.auto"),
    "vertexcover.bipartite_s": ("vertexcover.bipartite",),
    "vertexcover.bnb_s": ("vertexcover.bnb",),
    "treewidth.decompose_s": ("treewidth.decompose",),
    "treewidth.dp_s": ("treewidth.dp",),
    "domination.verify_s": ("domination.verify",),
    "lpapprox.self_s": ("lpapprox.self",),
    "lpapprox.build_s": ("lpapprox.build",),
    "lpapprox.round_s": ("lpapprox.round",),
    "simplex.solve_s": ("simplex.solve",),
}


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    self_t = tracer.self_times()
    out = {
        metric: sum(self_t.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    count = lambda name: sum(1 for s in tracer.spans if s[0] == name)
    total = lambda name, key: sum(s[4].get(key, 0) for s in tracer.spans if s[0] == name)
    out["graph.subgraph_calls"] = count("graph.subgraph")
    out["blocks.decompose_calls"] = count("blocks.decompose")
    out["vertexcover.calls"] = count("vertexcover.front")
    out["vertexcover.residual_vertices"] = total("vertexcover.front", "n")
    out["vertexcover.bnb_nodes"] = total("vertexcover.bnb", "nodes")
    widths = [s[4]["width"] for s in tracer.spans if s[0] == "treewidth.dp" and s[4]]
    out["treewidth.width_max"] = max(widths, default=0)
    out["simplex.rows"] = total("simplex.solve", "rows")
    out["simplex.cols"] = total("simplex.solve", "cols")
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(out[m] for m in SELF_TIME_METRICS)
    return out


def peak_rss_mb() -> float:
    """VmHWM of this process. Not ru_maxrss: on Linux that keeps the
    parent's high-water mark across fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from simdom import _kernels, graph, lpapprox, solver
    from simdom.domination import COLOUR_TOKENS

    ops = job["ops"]
    colourings = [
        None if op["colours"] is None else [COLOUR_TOKENS[c] for c in op["colours"]]
        for op in ops
    ]
    # per op: distinct (sorted answer, LP bound or None) pairs seen
    answers: list[list[list]] = [[] for _ in ops]
    outcomes: list[list] = []  # per round: per op, answer index or error name

    def run_round(probe: bool) -> tuple[float, float]:
        """Runs every operation once. Returns the summed operation time
        and, when probe is set, the summed time of a host-speed probe
        run after each operation (0.0 otherwise)."""
        row = []
        wall = probes = 0.0
        for i, op in enumerate(ops):
            start = time.perf_counter()
            bound = None
            try:
                g = graph.parse_graph(op["text"], "edgelist")
                if op["kind"] == "sds":
                    answer = solver.solve_sds(g).solution
                elif op["kind"] == "crsds":
                    answer = solver.solve_crsds(g, colourings[i]).solution
                else:
                    answer, bound = lpapprox.approx2_sds(g)
            except Exception as exc:  # counted as a failed operation
                wall += time.perf_counter() - start
                row.append(type(exc).__name__)
            else:
                wall += time.perf_counter() - start
                entry = [sorted(answer), None if bound is None else str(bound)]
                if entry not in answers[i]:
                    answers[i].append(entry)
                row.append(answers[i].index(entry))
            if probe:
                probes += hostspeed.probe()
        outcomes.append(row)
        return wall, probes

    seconds = job["seconds"]
    plain: list[float] = []
    probe_totals: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    begin = time.perf_counter()
    while True:
        wall, probes = run_round(probe=True)
        plain.append(wall)
        probe_totals.append(probes)
        if job["trace"]:
            tracer = Tracer()
            with traced(tracer):
                wall, _ = run_round(probe=False)
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, wall))
        # Start no round that would end after the deadline.
        elapsed = time.perf_counter() - begin
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break

    json.dump(
        {
            "plain_walls": plain,
            "probe_totals": probe_totals,
            "traced_walls": traced_walls,
            "layers": layers,
            "answers": answers,
            "outcomes": outcomes,
            "peak_rss_mb": peak_rss_mb(),
            "kernel": _kernels.DEFAULT_BACKEND,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
