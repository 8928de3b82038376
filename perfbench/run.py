"""Solve/approx benchmark for simdom.

    python3 perfbench/run.py --workload cactus --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout. The program runs from ``src/``
in a fresh interpreter (worker.py) for ``--seconds``, in whole rounds of
the workload's operations. Every answer is then checked in this process
against networkx and HiGHS (reference.py), outside the timed region.

``wall_s`` and ``setup_s`` are rescaled to a nominal host speed by a
fixed pure-Python probe run alongside them (hostspeed.py), because the
shared host's own speed drifts by more than the bounds allow. The
unscaled figures are printed on the ``host:`` line.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from rounds run with every layer wrapped.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
DEADLINE_S = 170.0

# Metric names and units come from BENCHMARK.json, so the two cannot drift.
with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import simdom.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to get simdom.cli imported,
    raw and rescaled by host-speed probes run between the starts.

    One unmeasured start first, so bytecode compilation of a fresh
    checkout is not counted.
    """
    times = []
    probes = 0.0
    for i in range(SETUP_SAMPLES + 1):
        if i:
            probes += hostspeed.probe()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError("simdom.cli failed to import")
        if i:
            times.append(elapsed)
    raw = statistics.median(times)
    return raw, hostspeed.scale(raw, probes, SETUP_SAMPLES)


def run_worker(ops, seconds: int, trace: bool, timeout: float) -> dict:
    job = {
        "src": str(SRC),
        "seconds": seconds,
        "trace": trace,
        "ops": [
            {"name": op.name, "kind": op.kind, "text": op.text(), "colours": op.colours}
            for op in ops
        ],
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def check(ops, result) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over every round run.

    An operation fails when it raises or its answer fails the check. A
    wrong answer, a raise from a seeded operation, or a check that
    accepts a set one vertex short makes the run incorrect; the fixed
    adversarial operation may raise and still leave the run correct.
    """
    from reference import Checker

    checker = Checker()
    verdicts = [
        [
            checker.check(
                op, frozenset(answer), None if bound is None else Fraction(bound)
            )
            for answer, bound in result["answers"][i]
        ]
        for i, op in enumerate(ops)
    ]
    correct = True
    problems: dict[str, int] = {}
    attempted = failed = 0
    for row in result["outcomes"]:
        for i, outcome in enumerate(row):
            attempted += 1
            if isinstance(outcome, str):
                reason = f"{ops[i].name}: raised {outcome}"
                correct &= not ops[i].seeded
            elif verdicts[i][outcome] is not None:
                reason = f"{ops[i].name}: {verdicts[i][outcome]}"
                correct = False
            else:
                continue
            failed += 1
            problems[reason] = problems.get(reason, 0) + 1

    probe = next(
        (i for i in range(len(ops)) if result["answers"][i] and result["answers"][i][0][0]),
        None,
    )
    if probe is None or not checker.self_test(ops[probe], frozenset(result["answers"][probe][0][0])):
        correct = False
        problems["self-test: no answer to probe, or the check accepted a set one vertex short"] = 1
    return correct, attempted, failed, [f"{k} (x{v})" for k, v in problems.items()]


def walls(ops, result) -> list[float]:
    """Each untraced round's operation time, rescaled by the probes run
    in that round (one after each operation)."""
    return [
        hostspeed.scale(wall, probes, len(ops))
        for wall, probes in zip(result["plain_walls"], result["probe_totals"])
    ]


def end_to_end(ops, result, setup_s: float) -> dict[str, float]:
    seeded = [i for i, op in enumerate(ops) if op.seeded]
    sizes = [
        sum(len(result["answers"][i][row[i]][0]) for i in seeded if not isinstance(row[i], str))
        for row in result["outcomes"]
    ]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls(ops, result)),
        "peak_rss_mb": result["peak_rss_mb"],
        "approx_size": statistics.median(sizes),
    }


def per_layer(result) -> dict[str, float]:
    layers = result["layers"]
    out = {key: statistics.fmean(r[key] for r in layers) for key in layers[0]}
    out["vertexcover.bnb_nodes_per_s"] = (
        out["vertexcover.bnb_nodes"] / out["vertexcover.bnb_s"] if out["vertexcover.bnb_s"] else 0.0
    )
    out["trace.overhead_s"] = statistics.fmean(result["traced_walls"]) - statistics.fmean(
        result["plain_walls"]
    )
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    begin = time.perf_counter()
    ops = workloads.build(name, seed)
    setup_raw, setup_s = (None, None) if trace else measure_setup()
    result = run_worker(ops, seconds, trace, DEADLINE_S - (time.perf_counter() - begin))
    correct, attempted, failed, problems = check(ops, result)
    if trace:
        values, units = per_layer(result), PER_LAYER_UNITS
    else:
        values, units = end_to_end(ops, result, setup_s), END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": len(result["plain_walls"]),
        "host": {
            "probe_s": sum(result["probe_totals"]) / (len(ops) * len(result["probe_totals"])),
            "raw_wall_s": statistics.median(result["plain_walls"]),
            "raw_setup_s": setup_raw,
        },
        "kernel": result["kernel"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def environment(kernel: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": kernel,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simdom" / "__init__.py").is_file():
        print(f"error: no simdom source tree at {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        runs[name] = run
        print(
            f"{name}: seed {args.seed}, {run['rounds']} round(s), "
            f"attempted {run['attempted']}, failed {run['failed']}, correct {run['correct']}"
        )
        for problem in run["problems"]:
            print(f"  failed {problem}")
        host = run["host"]
        print(
            f"  host: probe {host['probe_s']:.4f} s (nominal {hostspeed.NOMINAL_S} s), "
            f"unscaled wall {host['raw_wall_s']:.4f} s"
            + ("" if host["raw_setup_s"] is None else f", unscaled setup {host['raw_setup_s']:.4f} s")
        )
        for key, metric in run["metrics"].items():
            print(f"  {key} {metric['value']:.6g} {metric['unit']}")
    print("env " + json.dumps(environment(runs[names[0]]["kernel"])))

    if len(names) == 1:
        metrics = runs[names[0]]["metrics"]
    else:
        metrics = {
            f"{name}.{key}": metric for name, run in runs.items() for key, metric in run["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(run["correct"] for run in runs.values()),
                "attempted": sum(run["attempted"] for run in runs.values()),
                "failed": sum(run["failed"] for run in runs.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
