"""Command-line front end.

Commands: solve, approx, verify, gen, oracle, blocks. Results go
to stdout; diagnostics go to stderr. Exit codes: 0 success, 1 failed
verification, 2 parse or parameter error, 3 disconnected input,
4 budget exceeded, 141 stdout closed before the output was written (the
status a shell reports for a process that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

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
from .graph import Graph, parse_graph, write_graph
from .lpapprox import approx2_sds, approx4_sds_via_vc
from .oracle import (
    EDGE_ENUMERATION_BUDGET,
    is_sd_set_by_enumeration,
    min_sds_bruteforce,
    min_vc_bruteforce,
    spanning_tree_count,
)
from .solver import solve_crsds, solve_sds

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141

BACKENDS = ("auto", "bnb", "bipartite", "treewidth")


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc}") from exc


def _detect_format(text: str) -> str:
    """DIMACS when the first line that neither parser skips as a comment
    (first token starting with 'c' or '#') starts with 'p' or 'e'."""
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0][0] in "c#":
            continue
        return "dimacs" if parts[0] in ("p", "e") else "edgelist"
    return "edgelist"


def _load_graph(args: argparse.Namespace) -> Graph:
    text = _read_text(args.graph)
    fmt = args.format
    if fmt == "auto":
        fmt = _detect_format(text)
    return parse_graph(text, fmt)


def _load_colours(path: str, n: int) -> list:
    colours = all_zero_hat(n)
    first_line: dict[int, int] = {}
    text = _read_text(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError("expected 'vertex colour'", line=lineno)
        try:
            v = int(parts[0])
        except ValueError:
            raise GraphParseError(f"bad vertex {parts[0]!r}", line=lineno) from None
        if not 0 <= v < n:
            raise GraphParseError(f"vertex {v} out of range", line=lineno)
        if v in first_line:
            raise GraphParseError(
                f"vertex {v} already coloured on line {first_line[v]}", line=lineno
            )
        first_line[v] = lineno
        if parts[1] not in COLOUR_TOKENS:
            raise GraphParseError(
                f"bad colour {parts[1]!r}, expected one of 1, 0, 0hat", line=lineno
            )
        colours[v] = COLOUR_TOKENS[parts[1]]
    return colours


def _load_vertex_set(path: str, n: int) -> frozenset[int]:
    out = set()
    text = _read_text(path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            try:
                v = int(token)
            except ValueError:
                raise GraphParseError(f"bad vertex {token!r}", line=lineno) from None
            if not 0 <= v < n:
                raise GraphParseError(f"vertex {v} out of range", line=lineno)
            out.add(v)
    return frozenset(out)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


def _check_budget(args: argparse.Namespace) -> None:
    if args.budget < 0:
        raise ValueError(f"--budget must be nonnegative, got {args.budget}")


def cmd_solve(args: argparse.Namespace) -> int:
    _check_budget(args)
    g = _load_graph(args)
    if args.colours is not None:
        colours = _load_colours(args.colours, g.n)
        report = solve_crsds(
            g, colours, backend=args.backend, node_budget=args.budget
        )
    else:
        report = solve_sds(g, backend=args.backend, node_budget=args.budget)
    backend = "+".join(report.backends)
    if args.json:
        _emit_json(
            {
                "schema": 1,
                "size": report.size,
                "vertices": sorted(report.solution),
                "blocks": [
                    {
                        "block": entry.block,
                        "connection": entry.connection_vertex,
                        "size_one": entry.size_one,
                        "size_zero": entry.size_zero,
                        "size_zero_hat": entry.size_zero_hat,
                        "case": entry.case,
                        "recoloured_to": (
                            None
                            if entry.recoloured_to is None
                            else TOKEN_OF_COLOUR[entry.recoloured_to]
                        ),
                    }
                    for entry in report.block_log
                ],
                "backend": backend,
                "verified": report.verified,
            }
        )
    else:
        print(f"size {report.size}")
        print("vertices " + " ".join(str(v) for v in sorted(report.solution)))
        print(f"backend {backend}")
        print(f"verified {str(report.verified).lower()}")
        for entry in report.block_log:
            recoloured = (
                "-"
                if entry.recoloured_to is None
                else TOKEN_OF_COLOUR[entry.recoloured_to]
            )
            print(
                f"block {entry.block} connection {entry.connection_vertex} "
                f"sizes 1={entry.size_one} 0={entry.size_zero} "
                f"0hat={entry.size_zero_hat} case {entry.case} "
                f"recoloured {recoloured}"
            )
    return EXIT_OK


def cmd_approx(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    bound = None
    if args.variant == "lp":
        chosen, bound = approx2_sds(g)
    else:
        chosen = approx4_sds_via_vc(g)
    if args.json:
        payload = {
            "schema": 1,
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
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _check_budget(args)
    g = _load_graph(args)
    chosen = _load_vertex_set(args.set, g.n)
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
        _emit_json({"schema": 1, "valid": valid, "witness": witness})
    else:
        if valid:
            print("valid")
        else:
            print(f"invalid witness {witness}")
    return EXIT_OK if valid else EXIT_INVALID


def cmd_gen(args: argparse.Namespace) -> int:
    family = args.family
    params = args.params

    def want(k: int) -> None:
        if len(params) != k:
            raise ValueError(
                f"family {family!r} takes {k} parameter(s), got {len(params)}"
            )

    if family == "gap":
        want(1)
        g = gap_graph(int(params[0]))
    elif family == "random":
        want(2)
        g = random_connected_graph(int(params[0]), int(params[1]), args.seed)
    elif family == "random-2connected":
        want(2)
        g = random_2connected_graph(int(params[0]), int(params[1]), args.seed)
    elif family == "chordal":
        want(2)
        g = random_chordal_graph(int(params[0]), float(params[1]), args.seed)
    else:
        want(3)
        g = random_bipartite_graph(
            int(params[0]), int(params[1]), float(params[2]), args.seed
        )
    fmt = "edgelist" if args.format == "auto" else args.format
    sys.stdout.write(write_graph(g, fmt))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    sds = min_sds_bruteforce(g)
    vc = min_vc_bruteforce(g)
    trees = spanning_tree_count(g) if args.enumerate else None
    if args.json:
        _emit_json(
            {"schema": 1, "sds": len(sds), "vc": len(vc), "trees": trees}
        )
    else:
        line = f"sds={len(sds)} vc={len(vc)}"
        if trees is not None:
            line += f" trees={trees}"
        print(line)
    return EXIT_OK


def cmd_blocks(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    bct = blocks_and_cut_vertices(g)
    if args.json:
        _emit_json(
            {
                "schema": 1,
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
    return EXIT_OK


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
        choices=("auto", "dimacs", "edgelist"),
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
    p.add_argument(
        "family",
        choices=("gap", "random", "random-2connected", "chordal", "bipartite"),
    )
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--format", choices=("auto", "dimacs", "edgelist"), default="auto"
    )
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
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except (BudgetExceededError, WidthBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SimdomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
