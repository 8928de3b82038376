"""The names perfbench/worker.py wraps or reads must stay bound where it
looks them up, or ``perfbench/run.py --trace 1`` breaks at run time."""

import importlib
from dataclasses import fields
from pathlib import Path

import pytest

from simdom import _kernels, domination
from simdom.treewidth import TreeDecomposition
from simdom.vertexcover import VcResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker")


def test_trace_table_names_resolve(worker):
    for mod, attr, _, _ in worker._patch_table():
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"


def test_names_the_worker_reads_exist():
    assert isinstance(_kernels.DEFAULT_BACKEND, str)
    assert set(domination.COLOUR_TOKENS) == {"1", "0", "0hat"}
    # read by the trace table's span attributes
    assert "nodes" in {f.name for f in fields(VcResult)}
    assert TreeDecomposition((frozenset({0, 1}),), ()).width == 1


def test_traced_round_restores_every_binding(worker):
    from simdom import graph, lpapprox, solver

    table = worker._patch_table()
    before = [getattr(mod, attr) for mod, attr, _, _ in table]
    tracer = worker.Tracer()
    with worker.traced(tracer):
        g = graph.parse_graph("0 1\n1 2\n2 0\n2 3\n", "edgelist")
        assert solver.solve_sds(g).size == 2
        assert lpapprox.approx2_sds(g)[1] > 0
    assert [getattr(mod, attr) for mod, attr, _, _ in table] == before
    metrics = worker.layer_metrics(tracer, 1.0)
    assert metrics["vertexcover.calls"] >= 1
    assert metrics["simplex.rows"] >= 1
