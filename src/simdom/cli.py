"""Command-line front end.

Commands: solve, approx, verify, gen, oracle, blocks. Results go
to stdout; diagnostics go to stderr. Exit codes: 0 success, 1 failed
verification, the code ``EXIT_CODES`` gives each failure, and 141 when
stdout closed before the output was written (the status a shell reports
for a process that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator, Sequence

from .blocks import blocks_and_cut_vertices
from .domination import COLOUR_TOKENS, TOKEN_OF_COLOUR, all_zero_hat, sd_witness
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    GraphParseError,
    GuaranteeError,
    SimdomError,
    WidthBudgetError,
)
from .generators import (
    gap_graph,
    random_2connected_graph,
    random_bipartite_graph,
    random_chordal_graph,
    random_connected_graph,
)
from .graph import FORMATS, Graph, parse_graph, write_graph
from .lpapprox import approx2_sds, approx4_sds_via_vc
from .oracle import (
    EDGE_ENUMERATION_BUDGET,
    is_sd_set_by_enumeration,
    min_sds_bruteforce,
    min_vc_bruteforce,
    spanning_tree_count,
)
from .solver import solve_crsds
from .vertexcover import BACKENDS

# The exit code of each failure main reports; the first type that matches wins.
EXIT_CODES = (
    (GraphParseError, 2),
    (DisconnectedGraphError, 3),
    ((BudgetExceededError, WidthBudgetError), 4),
    (ValueError, 2),  # a parameter out of range
    (SimdomError, 1),  # a result that failed its check
)
EXIT_PIPE = 141

# gen's families: each one's generator, its parameters' types, and
# whether it takes --seed
GENERATORS = {
    "gap": (gap_graph, (int,), False),
    "random": (random_connected_graph, (int, int), True),
    "random-2connected": (random_2connected_graph, (int, int), True),
    "chordal": (random_chordal_graph, (int, float), True),
    "bipartite": (random_bipartite_graph, (int, int, float), True),
}


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from exc


def _load_graph(args: argparse.Namespace, second: str | None = None) -> Graph:
    """The graph of args. second names the command's other input, which
    may not read stdin when the graph does: it would read it empty."""
    if second and getattr(args, second) == "-" and args.graph in (None, "-"):
        raise ValueError(f"the graph is read from stdin: give the {second} as a file")
    return parse_graph(_read_text(args.graph), args.format)


def _read_vertices(
    path: str, n: int, *, coloured: bool
) -> Iterator[tuple[int, int, str]]:
    """Each vertex of a vertex set file (vertex ids) or, when coloured, of
    a colour file ('vertex colour' lines): its line, the vertex, and its
    line's last token. '#' starts a comment, and vertices are 0..n-1."""
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if coloured and parts and len(parts) != 2:
            raise GraphParseError("expected 'vertex colour'", line=lineno)
        for token in parts[:1] if coloured else parts:
            try:
                v = int(token)
            except ValueError:
                raise GraphParseError(f"bad vertex {token!r}", line=lineno) from None
            if not 0 <= v < n:
                raise GraphParseError(f"vertex {v} out of range", line=lineno)
            yield lineno, v, parts[-1]


def _load_colours(path: str, n: int) -> list:
    colours = all_zero_hat(n)
    first_line: dict[int, int] = {}
    for lineno, v, token in _read_vertices(path, n, coloured=True):
        if v in first_line:
            raise GraphParseError(
                f"vertex {v} already coloured on line {first_line[v]}", line=lineno
            )
        first_line[v] = lineno
        if token not in COLOUR_TOKENS:
            raise GraphParseError(
                f"bad colour {token!r}, expected one of 1, 0, 0hat", line=lineno
            )
        colours[v] = COLOUR_TOKENS[token]
    return colours


def _emit_json(payload: dict) -> None:
    print(json.dumps({"schema": 1, **payload}))


def _check_budget(args: argparse.Namespace) -> None:
    if args.budget < 0:
        raise ValueError(f"--budget must be nonnegative, got {args.budget}")


def cmd_solve(args: argparse.Namespace) -> int:
    _check_budget(args)
    g = _load_graph(args, "colours")
    if args.colours is None:
        colours = all_zero_hat(g.n)
    else:
        colours = _load_colours(args.colours, g.n)
    report = solve_crsds(g, colours, backend=args.backend, node_budget=args.budget)
    # the solver checks every set it returns and raises
    # InvalidSdSetError on a failure, so a report is always verified
    backend = "+".join(report.backends)
    blocks = [
        {
            "block": entry.block,
            "connection": entry.connection_vertex,
            "size_one": entry.size_one,
            "size_zero": entry.size_zero,
            "size_zero_hat": entry.size_zero_hat,
            "case": entry.case,
            "recoloured_to": TOKEN_OF_COLOUR.get(entry.recoloured_to),
        }
        for entry in report.block_log
    ]
    if args.json:
        _emit_json(
            {
                "size": report.size,
                "vertices": sorted(report.solution),
                "blocks": blocks,
                "backend": backend,
                "verified": True,
            }
        )
    else:
        print(f"size {report.size}")
        print("vertices " + " ".join(str(v) for v in sorted(report.solution)))
        print(f"backend {backend}")
        print("verified true")
        for b in blocks:
            print(
                f"block {b['block']} connection {b['connection']} "
                f"sizes 1={b['size_one']} 0={b['size_zero']} "
                f"0hat={b['size_zero_hat']} case {b['case']} "
                f"recoloured {b['recoloured_to'] or '-'}"
            )
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    bound = None
    if args.variant == "lp":
        chosen, bound = approx2_sds(g)
    else:
        chosen = approx4_sds_via_vc(g)
    if args.json:
        payload = {
            "size": len(chosen),
            "vertices": sorted(chosen),
            "method": args.variant,
        }
        if bound is not None:
            payload["bound"] = str(bound)
        _emit_json(payload)
    else:
        print(f"size {len(chosen)}")
        print("vertices " + " ".join(str(v) for v in sorted(chosen)))
        if bound is not None:
            print(f"bound {bound}")
        print(f"method {args.variant}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _check_budget(args)
    g = _load_graph(args, "set")
    chosen = frozenset(v for _, v, _ in _read_vertices(args.set, g.n, coloured=False))
    witness = sd_witness(g, blocks_and_cut_vertices(g), chosen)
    valid = witness is None
    # the spanning-tree reading needs an edge to dominate through, so on
    # one vertex it refuses the empty set that the block test, solve and
    # oracle accept; below two vertices the block test answers alone
    if args.enumerate and g.n >= 2:
        enumerated = is_sd_set_by_enumeration(
            g, chosen, edge_budget=args.budget or EDGE_ENUMERATION_BUDGET
        )
        if enumerated != valid:
            raise GuaranteeError("block conditions and spanning trees disagree")
    if args.json:
        _emit_json({"valid": valid, "witness": witness})
    else:
        if valid:
            print("valid")
        else:
            print(f"invalid witness {witness}")
    return 0 if valid else 1


def cmd_gen(args: argparse.Namespace) -> int:
    make, types, seeded = GENERATORS[args.family]
    if len(args.params) != len(types):
        raise ValueError(
            f"family {args.family!r} takes {len(types)} parameter(s), "
            f"got {len(args.params)}"
        )
    params = [kind(p) for kind, p in zip(types, args.params)]
    g = make(*params, args.seed) if seeded else make(*params)
    fmt = "edgelist" if args.format == "auto" else args.format
    sys.stdout.write(write_graph(g, fmt))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    sds = min_sds_bruteforce(g)
    vc = min_vc_bruteforce(g)
    trees = spanning_tree_count(g) if args.enumerate else None
    if args.json:
        _emit_json({"sds": len(sds), "vc": len(vc), "trees": trees})
    else:
        line = f"sds={len(sds)} vc={len(vc)}"
        if trees is not None:
            line += f" trees={trees}"
        print(line)
    return 0


def cmd_blocks(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    bct = blocks_and_cut_vertices(g)
    if args.json:
        _emit_json(
            {
                "blocks": [sorted(b) for b in bct.blocks],
                "cut_vertices": sorted(bct.cut_vertices),
            }
        )
    else:
        print(f"blocks {len(bct.blocks)}")
        for i, blk in enumerate(bct.blocks):
            print(f"block {i}: " + " ".join(str(v) for v in sorted(blk)))
        print(
            "cut vertices: "
            + (" ".join(str(v) for v in sorted(bct.cut_vertices)) or "-")
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simdom",
        description="Minimum simultaneous dominating set toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "graph",
        nargs="?",
        default=None,
        help="graph file (default or '-' reads stdin)",
    )
    common.add_argument(
        "--format",
        choices=("auto", *FORMATS),
        default="auto",
        help="input format (default: auto-detect)",
    )
    common.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("solve", parents=[common], help="exact minimum SD-set")
    p.add_argument("--colours", default=None, help="colour file: lines 'vertex colour'")
    p.add_argument("--backend", choices=BACKENDS, default="auto")
    p.add_argument(
        "--budget", type=int, default=0, help="branch and bound nodes for the whole solve"
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("approx", parents=[common], help="approximate SD-set")
    p.add_argument("variant", choices=("lp", "vc"))
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("verify", parents=[common], help="check a candidate SD-set")
    p.add_argument("set", help="file of vertex ids")
    p.add_argument(
        "--enumerate",
        action="store_true",
        help="verify against all spanning trees instead of the block test",
    )
    p.add_argument("--budget", type=int, default=0, help="edge cap for --enumerate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write a generated graph to stdout")
    p.add_argument("family", choices=GENERATORS)
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("auto", *FORMATS), default="auto")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", parents=[common], help="brute-force minima")
    p.add_argument(
        "--enumerate", action="store_true", help="also report the spanning tree count"
    )
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("blocks", parents=[common], help="print the block-cut tree")
    p.set_defaults(func=cmd_blocks)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # output still buffered would meet a closed pipe at exit, where
        # the error can only be printed as a traceback
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: send that
        # flush to devnull, as the reader wants no more output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (SimdomError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
