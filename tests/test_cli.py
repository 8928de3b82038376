import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings

import simdom
import simdom.cli
import simdom.treewidth
from conftest import mixed_graph_texts
from simdom import (
    BudgetExceededError,
    DisconnectedGraphError,
    GraphParseError,
    GuaranteeError,
    InvalidSdSetError,
    WidthBudgetError,
)
from simdom.cli import GENERATORS, main


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
    # a first token that only starts with 'c' is a DIMACS comment too
    path = write(tmp_path, "h.col", "comment line\np edge 2 1\ne 1 2\n")
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert out.splitlines()[:2] == ["size 1", "vertices 0"]


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


def test_approx_lp_on_one_vertex(tmp_path, capsys):
    # every command answers size 0 on a single vertex, approx lp included
    k1 = write(tmp_path, "k1.dimacs", "p edge 1 0\n")
    code, out, _ = run(capsys, "approx", k1, "lp", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["size"], payload["vertices"], payload["bound"]) == (0, [], "0")
    code, out, _ = run(capsys, "solve", k1)
    assert code == 0
    assert out.splitlines()[0] == "size 0"


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


def test_verify_enumerate_agrees_with_the_block_test(p3, tmp_path, capsys):
    # the empty set is the SD-set of one vertex for every command, and
    # --enumerate reports a witness with each invalid set
    k1 = write(tmp_path, "k1.dimacs", "p edge 1 0\n")
    empty = write(tmp_path, "empty.txt", "")
    code, out, _ = run(capsys, "verify", k1, empty, "--enumerate")
    assert (code, out) == (0, "valid\n")
    code, out, _ = run(capsys, "verify", k1, empty, "--enumerate", "--json")
    assert code == 0
    assert json.loads(out) == {"schema": 1, "valid": True, "witness": None}
    bad = write(tmp_path, "bad.txt", "0\n")
    code, out, _ = run(capsys, "verify", p3, bad, "--enumerate")
    assert code == 1
    assert out.strip() == "invalid witness 2"


def test_verify_enumerate_refuses_a_disagreement(p3, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simdom.cli, "is_sd_set_by_enumeration", lambda *a, **k: False)
    good = write(tmp_path, "good.txt", "1\n")
    code, out, err = run(capsys, "verify", p3, good, "--enumerate")
    assert code == 1
    assert out == ""
    assert err == "error: block conditions and spanning trees disagree\n"


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


# the parameters of each gen family, as the README lists them
GEN_PARAMETERS = {"gap": 1, "random": 2, "random-2connected": 2, "chordal": 2, "bipartite": 3}


@pytest.mark.parametrize("family", GEN_PARAMETERS)
def test_gen_refuses_one_parameter_too_few(capsys, family):
    assert GENERATORS.keys() == GEN_PARAMETERS.keys()
    k = GEN_PARAMETERS[family]
    assert run(capsys, "gen", family, *["4"] * (k - 1)) == (
        2, "", f"error: family {family!r} takes {k} parameter(s), got {k - 1}\n"
    )


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


@pytest.mark.parametrize(
    "kind, code",
    [
        (GraphParseError, 2),
        (DisconnectedGraphError, 3),
        (BudgetExceededError, 4),
        (WidthBudgetError, 4),
        (ValueError, 2),
        (GuaranteeError, 1),
        (InvalidSdSetError, 1),
    ],
)
def test_each_failure_exits_with_its_documented_code(monkeypatch, capsys, kind, code):
    def fail(args):
        raise kind("what went wrong")

    monkeypatch.setattr(simdom.cli, "cmd_blocks", fail)
    assert run(capsys, "blocks") == (code, "", "error: what went wrong\n")


@pytest.mark.parametrize(
    "argv, second",
    [
        (["solve", "-", "--colours", "-"], "colours"),
        (["solve", "--colours", "-"], "colours"),
        (["verify", "-", "-"], "set"),
    ],
)
def test_only_one_input_reads_stdin(monkeypatch, capsys, argv, second):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n1 2\n"))
    assert run(capsys, *argv) == (
        2, "", f"error: the graph is read from stdin: give the {second} as a file\n"
    )


def test_colours_read_stdin_when_the_graph_is_a_file(triangle, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 1\n"))
    code, out, _ = run(capsys, "solve", triangle, "--colours", "-")
    assert code == 0
    assert out.splitlines()[:2] == ["size 2", "vertices 0 1"]


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


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_negative_budget_is_a_parameter_error(triangle, tmp_path, capsys, command):
    # a parameter out of range, not a budget the search ran out of
    extra = [write(tmp_path, "set.txt", "0 1\n"), "--enumerate"] if command == "verify" else []
    code, out, err = run(capsys, command, triangle, *extra, "--budget", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--budget" in err


def test_treewidth_backend_stops_at_the_width_budget(tmp_path, capsys, monkeypatch):
    # min-fill width 88; the elimination gives up at the DP's budget of
    # 20 instead of finishing the decomposition first
    _, text, _ = run(capsys, "gen", "random-2connected", "300", "750", "--seed", "1")
    path = write(tmp_path, "block.txt", text)
    calls = []
    decompose = simdom.treewidth.min_fill_decomposition

    def recording(g, **kwargs):
        td = decompose(g, **kwargs)
        calls.append((kwargs, td))
        return td

    monkeypatch.setattr(simdom.treewidth, "min_fill_decomposition", recording)
    code, out, err = run(capsys, "solve", path, "--backend", "treewidth")
    assert code == 4
    assert out == ""
    assert err == "error: min-fill decomposition width exceeds the budget of 20\n"
    assert calls == [({"max_width": 20}, None)]


def test_exit_code_on_bad_colour_file(p3, tmp_path, capsys):
    colours = write(tmp_path, "c.txt", "0 2\n")
    code, out, err = run(capsys, "solve", p3, "--colours", colours)
    assert code == 2
    assert out == ""
    assert "colour" in err
    # a vertex given twice is refused at its second line
    colours = write(tmp_path, "c.txt", "1 0\n# a comment\n1 1\n")
    code, out, err = run(capsys, "solve", p3, "--colours", colours)
    assert (code, out) == (2, "")
    assert err == "error: line 3: vertex 1 already coloured on line 1\n"


def test_backend_names_each_backend_once(tmp_path, capsys):
    # the residual has a bipartite component and an odd one, so the
    # dispatcher's own tag is the joined "bipartite+bnb"
    graph = write(tmp_path, "g.txt", "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n1 6\n2 6\n4 7\n")
    colours = write(tmp_path, "c.txt", "0 1\n3 1\n")
    code, out, _ = run(capsys, "solve", graph, "--colours", colours, "--json")
    assert code == 0
    assert json.loads(out)["backend"] == "bipartite+bnb"


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


def test_closed_stdout_exits_without_a_traceback(tmp_path):
    # a reader that stops after 300 bytes, as `| head -c 300` does, of a
    # block log far longer than a pipe's buffer
    text = "".join(f"{v} {v + 1}\n" for v in range(999))
    graph = write(tmp_path, "path.txt", text)
    env = dict(os.environ, PYTHONPATH=str(Path(simdom.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "simdom.cli", "solve", graph, "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(300).startswith(b'{"schema": 1, "size": 334,')
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


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


# Per colouring: the solve's size, and (size_one, size_zero,
# size_zero_hat) of each peeled block in log order. These have held
# since before each residual was searched once per solve; reducing each
# component before min-fill changed covers and backend tags only.
MANY_BLOCK_SIZES = {
    False: (127, """
        2,2,2 1,1,1 1,1,1 2,2,2 1,1,1 2,1,1 1,0,1 1,1,1 3,3,3 2,2,2 2,2,2
        3,3,3 3,3,3 1,1,1 2,2,2 1,1,1 1,1,1 3,3,3 3,3,3 3,3,3 2,2,2 2,2,2
        3,3,3 3,2,2 13,12,13 4,3,3 1,1,1 3,3,3 2,2,2 1,1,1 1,1,1 3,3,3
        3,3,3 1,1,1 4,4,4 4,3,3 2,2,2 2,2,2 3,3,3 3,3,3 3,3,3 1,1,1 3,2,2
        2,2,2 3,3,3 3,3,3 3,2,2 3,3,3 3,3,3 3,3,3 2,1,2 3,3,3 1,1,1 2,2,2
        3,3,3 3,3,3 3,3,3 3,2,2 3,3,3 2,2,2 4,3,3 2,2,2 2,2,2 1,1,1 3,3,3
        3,3,3 3,3,3 3,3,3 4,3,3 2,2,2 2,1,1 3,2,3 2,2,2 3,3,3 3,3,3 3,3,3
        3,3,3 4,3,4 3,3,3
    """),
    True: (137, """
        2,2,2 1,1,1 2,1,1 2,2,2 1,1,1 2,1,1 1,0,1 1,1,1 3,3,3 2,2,2 2,2,2
        4,4,4 3,3,3 1,1,1 2,2,2 1,1,1 2,1,1 3,2,3 3,2,3 3,3,3 2,2,2 2,2,2
        2,1,2 2,2,2 13,12,13 4,3,3 1,1,1 3,3,3 2,1,2 1,1,1 1,1,1 3,3,3
        4,3,3 2,1,1 4,3,3 4,3,3 2,2,2 2,1,2 3,2,3 2,1,2 3,2,3 2,1,1 3,2,2
        2,2,2 3,3,3 4,3,3 2,1,2 4,3,3 3,3,3 4,3,3 2,1,2 3,3,3 2,1,1 2,2,2
        3,3,3 3,3,3 3,3,3 3,2,2 3,3,3 3,2,2 4,3,3 2,2,2 2,2,2 1,1,1 3,3,3
        4,3,3 3,2,2 3,3,3 4,3,3 3,2,2 1,0,1 3,2,3 2,2,2 3,3,3 3,3,3 3,3,3
        4,3,3 5,4,4 3,3,3
    """),
}


@pytest.mark.parametrize(
    "coloured, digest",
    [
        (False, "dcd74650f222c621b7d2b3b56e07c3a347f381486d7401f284f128fa02fb1fac"),
        (True, "ad637c488eb9982c58d3f621f11cf5ae2c1938b044a39a31e23d592ec3e794eb"),
    ],
    ids=["uncoloured", "coloured"],
)
def test_solve_json_is_pinned_on_a_many_block_graph(tmp_path, capsys, coloured, digest):
    # digests of the output since each component is reduced before
    # min-fill; sizes and block-log sizes are pinned on their own above
    text, colours = many_block_graph()
    argv = ["solve", write(tmp_path, "g.txt", text), "--json"]
    if coloured:
        argv += ["--colours", write(tmp_path, "c.txt", colours)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    size, block_sizes = MANY_BLOCK_SIZES[coloured]
    assert payload["size"] == size
    assert [
        f"{b['size_one']},{b['size_zero']},{b['size_zero_hat']}" for b in payload["blocks"]
    ] == block_sizes.split()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def cli_run(text, *argv):
    """main on text read from stdin: its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "-"])
    return code, out.getvalue()


@settings(deadline=None, max_examples=150)
@given(mixed_graph_texts())
@example("comment line\np edge 2 1\ne 1 2\n")
def test_cli_fuzz_exits_with_a_documented_code(text):
    for command in ("solve", "blocks"):
        runs = {
            fmt: cli_run(text, command, "--format", fmt)
            for fmt in ("auto", "dimacs", "edgelist")
        }
        assert all(code in {0, 1, 2, 3, 4} for code, _ in runs.values()), runs
        parsed = [runs[fmt] for fmt in ("dimacs", "edgelist") if runs[fmt][0] == 0]
        if len(parsed) == 1:
            assert runs["auto"] == parsed[0]
