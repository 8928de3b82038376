import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import simdom
from simdom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def p3(tmp_path):
    return write(tmp_path, "p3.txt", "0 1\n1 2\n")


@pytest.fixture
def triangle(tmp_path):
    return write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")


@pytest.fixture
def gap3(tmp_path, capsys):
    code = main(["gen", "gap", "3"])
    out, _ = capsys.readouterr()
    assert code == 0
    return write(tmp_path, "gap3.txt", out)


def test_solve_path(p3, capsys):
    code, out, _ = run(capsys, "solve", p3)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size 1"
    assert lines[1] == "vertices 1"
    assert "verified true" in out


def test_solve_gap3_json(gap3, capsys):
    code, out, _ = run(capsys, "solve", gap3, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["size"] == 3
    assert payload["vertices"] == sorted(payload["vertices"])
    assert payload["verified"] is True
    assert payload["blocks"]
    for entry in payload["blocks"]:
        assert entry["case"] in {"all-equal", "one-larger", "zero-smaller"}


def test_solve_with_colour_file(triangle, tmp_path, capsys):
    colours = write(tmp_path, "c.txt", "0 1\n")
    code, out, _ = run(capsys, "solve", triangle, "--colours", colours)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size 2"
    assert "0" in lines[1].split()[1:]


def test_solve_reads_stdin(monkeypatch, capsys):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n1 2\n"))
    code, out, _ = run(capsys, "solve")
    assert code == 0
    assert out.splitlines()[0] == "size 1"


def test_solve_dimacs_autodetect(tmp_path, capsys):
    path = write(tmp_path, "g.col", "c tiny\np edge 3 2\ne 1 2\ne 2 3\n")
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert out.splitlines()[1] == "vertices 1"


def test_approx_lp_stays_within_sandwich(gap3, capsys):
    code, out, _ = run(capsys, "approx", gap3, "lp", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "lp"
    assert 3 <= payload["size"] <= 6
    num, _, den = payload["bound"].partition("/")
    bound = int(num) / int(den or 1)
    assert payload["size"] <= 2 * bound


def test_approx_vc_triangle(triangle, capsys):
    code, out, _ = run(capsys, "approx", triangle, "vc")
    assert code == 0
    assert out.splitlines()[0] == "size 2"


def test_approx_lp_path(p3, capsys):
    code, out, _ = run(capsys, "approx", p3, "lp")
    assert code == 0
    assert out.splitlines()[0] == "size 1"


def test_verify_valid_and_invalid(p3, tmp_path, capsys):
    good = write(tmp_path, "good.txt", "1\n")
    code, out, _ = run(capsys, "verify", p3, good)
    assert code == 0
    assert out.strip() == "valid"

    bad = write(tmp_path, "bad.txt", "0\n")
    code, out, _ = run(capsys, "verify", p3, bad)
    assert code == 1
    assert out.strip() == "invalid witness 2"


def test_verify_fig_set_on_gap3(gap3, tmp_path, capsys):
    mids = write(tmp_path, "mids.txt", "3 4 5\n")
    code, out, _ = run(capsys, "verify", gap3, mids, "--enumerate")
    assert code == 0
    assert out.strip() == "valid"


def test_verify_json_reports_witness(p3, tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "0\n")
    code, out, _ = run(capsys, "verify", p3, bad, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload == {"schema": 1, "valid": False, "witness": 2}


def test_gen_gap_arithmetic(capsys):
    code, out, _ = run(capsys, "gen", "gap", "3")
    assert code == 0
    edges = [line for line in out.splitlines() if line.strip()]
    assert len(edges) == 9
    vertices = {int(x) for line in edges for x in line.split()}
    assert vertices == set(range(9))


def test_gen_is_byte_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "random", "6", "8", "--seed", "1")
    assert code == 0
    code, second, _ = run(capsys, "gen", "random", "6", "8", "--seed", "1")
    assert code == 0
    assert first == second


def test_gen_complete_bipartite(capsys):
    code, out, _ = run(capsys, "gen", "bipartite", "3", "3", "1.0")
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_gen_bad_parameters(capsys):
    code, out, err = run(capsys, "gen", "random", "5", "2")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_oracle_lines(triangle, gap3, capsys):
    code, out, _ = run(capsys, "oracle", triangle, "--enumerate")
    assert code == 0
    assert out.strip() == "sds=2 vc=2 trees=3"

    code, out, _ = run(capsys, "oracle", gap3)
    assert code == 0
    assert out.strip() == "sds=3 vc=5"


def test_blocks_listing(p3, capsys):
    code, out, _ = run(capsys, "blocks", p3, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [[0, 1], [1, 2]]
    assert payload["cut_vertices"] == [1]


def test_bench_agrees(gap3, capsys):
    code, out, _ = run(capsys, "bench", gap3, "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["m"]) == (9, 9)
    assert "agree" not in payload
    [row] = payload["kernels"]
    assert (row["name"], row["size"]) == ("pure", 5)
    assert row["nodes"] >= 1 and row["ms"] >= 0


def test_bench_budget_exit_code(gap3, capsys):
    code, out, err = run(capsys, "bench", gap3, "--budget", "1")
    assert code == 4
    assert out == ""
    assert "budget" in err


def test_exit_code_on_parse_error(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "0 zero\n")
    code, out, err = run(capsys, "solve", bad)
    assert code == 2
    assert out == ""
    assert "line 1" in err


@pytest.mark.parametrize(
    "text", ["0 99999999\n", "p edge 100000000 0\n"], ids=["edgelist", "dimacs"]
)
def test_exit_code_on_vertex_count_over_the_cap(tmp_path, capsys, text):
    huge = write(tmp_path, "huge.txt", text)
    code, out, err = run(capsys, "solve", huge)
    assert code == 2
    assert out == ""
    assert "more than" in err


def test_exit_code_on_disconnected(tmp_path, capsys):
    disc = write(tmp_path, "disc.txt", "0 1\n2 3\n")
    code, out, err = run(capsys, "solve", disc)
    assert code == 3
    assert out == ""


def test_exit_code_on_budget(tmp_path, capsys):
    code, big, _ = run(capsys, "gen", "random", "20", "30", "--seed", "2")
    path = write(tmp_path, "big.txt", big)
    code, out, err = run(capsys, "oracle", path)
    assert code == 4
    assert out == ""
    assert "budget" in err


def test_exit_code_on_bad_colour_file(p3, tmp_path, capsys):
    colours = write(tmp_path, "c.txt", "0 2\n")
    code, out, err = run(capsys, "solve", p3, "--colours", colours)
    assert code == 2
    assert out == ""
    assert "colour" in err


def test_solve_backend_flag(p3, capsys):
    for backend in ("auto", "bnb", "treewidth"):
        code, out, _ = run(capsys, "solve", p3, "--backend", backend)
        assert code == 0
        assert out.splitlines()[0] == "size 1"


def test_approx_checks_run_under_optimize(tmp_path, capsys):
    # The LP result checks raise typed errors too: -O changes no output.
    code, text, _ = run(capsys, "gen", "random", "30", "45")
    assert code == 0
    graph = write(tmp_path, "random30.txt", text)
    env = dict(os.environ, PYTHONPATH=str(Path(simdom.__file__).parents[1]))
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "simdom.cli", "approx", graph, "lp", "--json"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["method"] == "lp"


def test_solve_checks_run_under_optimize(gap3):
    # The result checks raise typed errors, so they survive python -O.
    env = dict(os.environ, PYTHONPATH=str(Path(simdom.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "simdom.cli", "solve", gap3],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verified true" in proc.stdout.splitlines()


def many_block_graph():
    """Edge-list text and a colour file for a connected graph of 80
    blocks: bridges, triangles, 4- and 5-cycles, K4s, 5-cycles with a
    chord, and one K14 for branch and bound, each hung at a vertex drawn
    from the ones before it. Only Random.random() is used, whose sequence
    is fixed across Python versions."""
    rng = random.Random(20)
    shapes = [
        [(0, 1)],
        [(0, 1), (1, 2), (0, 2)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)],
    ]
    k14 = [(u, v) for u in range(14) for v in range(u + 1, 14)]
    n, edges = 1, []
    for i in range(80):
        shape = k14 if i == 40 else shapes[int(rng.random() * len(shapes))]
        k = max(max(e) for e in shape)
        ids = [int(rng.random() * n)] + list(range(n, n + k))
        edges += [(ids[u], ids[v]) for u, v in shape]
        n += k
    tokens = ["1", "0", "0hat"]
    colours = "".join(
        f"{v} {tokens[int(rng.random() * 3)]}\n" for v in range(n) if rng.random() < 0.5
    )
    return "".join(f"{u} {v}\n" for u, v in edges), colours


@pytest.mark.parametrize(
    "coloured, digest",
    [
        (False, "14cbde365f218adc4bf2ee272c28fcadf50f5d6253189ca9a8d41be440b0a88d"),
        (True, "ff0b23f0a5a641e0b0b20363920ce81eac7cfa717ec195b7a38bd8da902777bb"),
    ],
    ids=["uncoloured", "coloured"],
)
def test_solve_json_is_pinned_on_a_many_block_graph(tmp_path, capsys, coloured, digest):
    # digests of the output before each residual was searched once per
    # solve: reusing covers may change no answer, block log or backend
    text, colours = many_block_graph()
    argv = ["solve", write(tmp_path, "g.txt", text), "--json"]
    if coloured:
        argv += ["--colours", write(tmp_path, "c.txt", colours)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
