from functools import partial
from unittest import mock

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import parse_reference
from conftest import clique, cycle, mixed_graph_texts, path, small_graphs
from simdom import graph
from simdom import Graph, GraphParseError, parse_graph, write_graph
from simdom import solver
from simdom.domination import Colour
from simdom.graph import FORMATS, delete_edges_within, delete_vertices, induced_subgraph
from simdom.vertexcover import VcResult, _kernel_graph, bipartition


def test_edges_are_normalized_and_sorted():
    g = Graph(4, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.m == 3


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_degree_and_neighbours():
    assert path(4).nbrs == [[1], [0, 2], [1, 3], [2]]


def test_adjacency_masks():
    g = path(3)
    assert g.adjacency_masks() == [0b010, 0b101, 0b010]


def test_components():
    g = Graph(5, [(0, 1), (3, 4)])
    assert [comp for comp, _ in g.coloured_components()] == [[0, 1], [2], [3, 4]]
    assert not g.is_connected()
    assert path(5).is_connected()
    assert Graph(1, []).is_connected()
    assert Graph(0, []).is_connected()


@settings(deadline=None, max_examples=300)
@given(small_graphs())
@example(Graph(0, []))
@example(Graph(5, []))
# a 5-cycle, an isolated vertex and a 4-cycle
@example(
    Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (6, 7), (7, 8), (8, 9), (6, 9)])
)
def test_coloured_components_match_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    expected = sorted(sorted(c) for c in nx.connected_components(h))
    parts = g.coloured_components()
    assert [comp for comp, _ in parts] == expected
    assert g.is_connected() == (len(expected) <= 1)
    side = [-1] * g.n
    for comp, colours in parts:
        assert (colours is not None) == nx.is_bipartite(h.subgraph(comp))
        if colours is not None:
            assert len(colours) == len(comp) and set(colours) <= {0, 1}
            assert colours[0] == 0  # the smallest vertex is on side 0
            for v, c in zip(comp, colours):
                side[v] = c
    # proper on each bipartite component; an edge joins one component
    assert all(side[u] != side[v] for u, v in g.edges if side[u] >= 0)
    bipartite = all(colours is not None for _, colours in parts)
    assert bipartite == nx.is_bipartite(h)
    if bipartite:
        sides = bipartition(g)
        assert sides == (
            frozenset(v for v in range(g.n) if side[v] == 0),
            frozenset(v for v in range(g.n) if side[v] == 1),
        )
    else:
        assert bipartition(g) is None


def test_induced_subgraph_relabels():
    g = cycle(5)
    sub, kept = induced_subgraph(g, [1, 2, 4])
    assert kept == [1, 2, 4]
    assert sub.n == 3
    # only the 1-2 edge survives; 4 is adjacent to 0 and 3, both dropped
    assert sub.edges == ((0, 1),)


def test_delete_vertices_returns_index_map():
    g = path(4)
    sub, old_to_new = delete_vertices(g, {1})
    assert sub.n == 3
    assert sub.edges == ((1, 2),)
    assert old_to_new == {0: 0, 2: 1, 3: 2}


def test_delete_edges_within_keeps_vertices():
    g = clique(4)
    h = delete_edges_within(g, {0, 1, 2})
    assert h.n == 4
    assert h.edges == ((0, 3), (1, 3), (2, 3))


def test_parse_dimacs():
    text = "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
    g = parse_graph(text, "dimacs")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


def test_parse_edgelist():
    g = parse_graph("# comment\n0 1\n1 2\n\n", "edgelist")
    assert g.n == 3
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text,line",
    [
        ("p edge 2 1\np edge 2 1\n", 2),
        ("e 1 2\n", 1),
        ("p edge 3 1\ne 1 1\n", 2),
        ("p edge 3 2\ne 1 2\ne 1 2\n", 3),
        ("p edge 3 1\ne 1 4\n", 2),
        ("p edge 3 1\ne 1 x\n", 2),
        ("p edge 3 1\nq 1 2\n", 2),
    ],
)
def test_dimacs_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text, "dimacs")
    assert err.value.line == line


def test_dimacs_edge_count_mismatch():
    with pytest.raises(GraphParseError):
        parse_graph("p edge 3 2\ne 1 2\n", "dimacs")
    with pytest.raises(GraphParseError):
        parse_graph("c nothing else\n", "dimacs")


@pytest.mark.parametrize(
    "text,fmt",
    [("0 99999999\n", "edgelist"), ("p edge 100000000 0\n", "dimacs")],
    ids=["edgelist", "dimacs"],
)
def test_vertex_count_over_the_cap_is_refused(text, fmt):
    with pytest.raises(GraphParseError, match="more than") as err:
        parse_graph(text, fmt)
    assert err.value.line == 1


def test_vertex_cap_boundary(monkeypatch):
    monkeypatch.setattr(graph, "MAX_VERTICES", 3)
    assert parse_graph("p edge 3 0\n", "dimacs").n == 3
    assert parse_graph("0 2\n", "edgelist").n == 3
    with pytest.raises(GraphParseError, match="more than"):
        parse_graph("p edge 4 0\n", "dimacs")
    with pytest.raises(GraphParseError, match="more than"):
        parse_graph("0 1\n3 1\n", "edgelist")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_graph("0 1\n", "gml")


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph(n, edges)


@given(graphs())
def test_write_parse_round_trip_dimacs(g):
    text = write_graph(g, "dimacs")
    assert parse_graph(text, "dimacs") == parse_graph(text, "auto") == g


@given(graphs())
def test_write_parse_round_trip_edgelist(g):
    # the edge list format cannot express trailing isolated vertices
    top = max((v for e in g.edges for v in e), default=-1)
    text = write_graph(g, "edgelist")
    h = parse_graph(text, "edgelist")
    assert parse_graph(text, "auto") == h
    assert h.edges == g.edges
    assert h.n == top + 1


def edge_scan_subgraph(g, vertices):
    """Reference: keep every edge of g whose endpoints both survive."""
    kept = sorted(set(vertices))
    index = {old: new for new, old in enumerate(kept)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph(len(kept), edges), kept


@st.composite
def graphs_with_subsets(draw):
    g = draw(graphs(max_n=12))
    subset = draw(
        st.one_of(
            st.just(set()),
            st.just(set(range(g.n))),
            st.sets(st.integers(min_value=0, max_value=g.n - 1)),
        )
    )
    return g, subset


@given(graphs_with_subsets())
def test_induced_subgraph_matches_edge_scan(case):
    g, subset = case
    want, want_kept = edge_scan_subgraph(g, subset)
    sub, kept = induced_subgraph(g, subset)
    assert kept == want_kept
    assert (sub.n, sub.edges, sub.nbrs) == (want.n, want.edges, want.nbrs)

    rest, old_to_new = delete_vertices(g, subset)
    want, want_kept = edge_scan_subgraph(g, set(range(g.n)) - subset)
    assert old_to_new == {old: new for new, old in enumerate(want_kept)}
    assert (rest.n, rest.edges, rest.nbrs) == (want.n, want.edges, want.nbrs)


@st.composite
def shuffled_edge_lists(draw, max_n=40):
    """A vertex count and edges in drawn order and orientation."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return n, []
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]


def layout(g):
    return g.n, g.edges, g.nbrs


@given(shuffled_edge_lists(), st.sampled_from(["dimacs", "edgelist"]))
def test_parsers_build_the_checked_graph(case, fmt):
    # the parsers check each line themselves and take the trusted build
    n, edges = case
    if fmt == "edgelist":
        n = max((v for e in edges for v in e), default=-1) + 1
        text = "".join(f"{u} {v}\n" for u, v in edges)
    else:
        text = f"p edge {n} {len(edges)}\n"
        text += "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
    g = Graph(n, edges)
    want = layout(g)
    assert layout(parse_graph(text, fmt)) == want
    assert layout(parse_graph(write_graph(g, fmt), fmt)) == want


@given(shuffled_edge_lists(), st.data())
def test_induced_subgraph_builds_the_checked_graph(case, data):
    n, edges = case
    g = Graph(n, edges)
    subset = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    sub, kept = induced_subgraph(g, subset)
    index = {old: new for new, old in enumerate(kept)}
    local = [(index[u], index[v]) for u, v in edges if u in index and v in index]
    assert layout(sub) == layout(Graph(len(kept), local))


# Fuzzing the parsers against tests/parse_reference.py. The vertex cap
# is lowered to CAP, so that texts reach it without a graph of a
# million vertices; both sides read it at call time.
CAP = 12
WHITESPACE = st.sampled_from(["", " ", "  ", "\t", " \t ", "\u3000", "\x1f"])
LINE_BREAKS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x85", "\u2028", "\x0c"])
GOOD = st.one_of(
    st.integers(min_value=0, max_value=6).map(str),
    st.integers(min_value=CAP - 1, max_value=CAP + 1).map(str),
    st.sampled_from(["+3", "1_0", "0_2", "٣", "３", "007"]),
)
NUMBERS = st.one_of(
    GOOD,
    st.integers(min_value=-2, max_value=CAP + 2).map(str),
    st.sampled_from(["1__0", "_1", "0x1", "2.0", "-0", "-1"]),
)
WORDS = st.sampled_from(["#", "#x", "c", "cx", "e", "p", "edge", "q", "ée"])


@st.composite
def text_lines(draw, kinds, faults):
    """Lines whose tokens are drawn from one of kinds, and in half the
    texts from faults too, joined by drawn whitespace and ended by drawn
    line breaks (the last one maybe not). A kind of None copies an
    earlier line, for duplicate edges and repeated problem lines."""
    if draw(st.booleans()):
        kinds += faults
    lines: list[str] = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(kinds))
        if kind is None:
            if lines:
                lines.append(draw(st.sampled_from(lines)))
            continue
        tokens = [t if isinstance(t, str) else draw(t) for t in kind]
        gaps = [draw(WHITESPACE) for _ in range(len(tokens) + 1)]
        gaps[1:-1] = [gap or " " for gap in gaps[1:-1]]
        lines.append(gaps[0] + "".join(t + gap for t, gap in zip(tokens, gaps[1:])))
    ends = [draw(LINE_BREAKS) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


# comments and a blank line, then edges
EDGE_LIST_LINES = (("#", NUMBERS, WORDS), ("#x",), ()) + ((GOOD, GOOD),) * 4
EDGE_LIST_FAULTS = (
    (NUMBERS, NUMBERS), (NUMBERS, NUMBERS, NUMBERS), (WORDS, NUMBERS), (NUMBERS,), None
)
# 1-based ends, most of them in range when the problem line says 7
GOOD_DIMACS = st.one_of(
    st.integers(min_value=1, max_value=7).map(str),
    st.sampled_from(["+3", "0_2", "٣", "３", "007"]),
)
DIMACS_LINES = (("c", NUMBERS, WORDS), ("cx",), ()) + (("e", GOOD_DIMACS, GOOD_DIMACS),) * 4
DIMACS_FAULTS = (
    ("e", NUMBERS, NUMBERS), ("p", "edge", NUMBERS, NUMBERS), ("p", WORDS, NUMBERS),
    (WORDS, NUMBERS, NUMBERS), ("e", NUMBERS), None,
)


@st.composite
def dimacs_texts(draw):
    """DIMACS texts, most of them opening with a problem line whose edge
    count is that of the 'e' lines below it."""
    body = draw(text_lines(DIMACS_LINES, DIMACS_FAULTS))
    if draw(st.sampled_from([True, True, True, False])):
        n = draw(st.just(7) | st.integers(min_value=0, max_value=CAP + 1))
        m = sum(1 for line in body.splitlines() if line.split()[:1] == ["e"])
        if not draw(st.sampled_from([True, True, True, False])):
            m += draw(st.sampled_from([-1, 1]))
        body = f"p edge {n} {m}" + draw(LINE_BREAKS) + body
    return body


def parse_outcome(parse, text):
    try:
        g = parse(text)
    except GraphParseError as err:
        return "error", str(err), err.line
    return "graph", layout(g), g.nbrs


@settings(deadline=None, max_examples=300)
@given(
    mixed_graph_texts()
    | dimacs_texts()
    | text_lines(EDGE_LIST_LINES, EDGE_LIST_FAULTS)
)
@example("comment line\np edge 2 1\ne 1 2\n")  # 'c' starts a DIMACS comment
@example("# c\n\n0 1\n")  # '#' an edge-list one
@example("")
def test_auto_reads_the_one_format_that_parses(text):
    outcomes = [parse_outcome(partial(parse_graph, fmt=fmt), text) for fmt in FORMATS]
    auto = parse_outcome(partial(parse_graph, fmt="auto"), text)
    # auto gives one format's outcome, errors included, and the graph
    # whenever just one format reads the text
    assert auto in outcomes
    parsed = [outcome for outcome in outcomes if outcome[0] == "graph"]
    if len(parsed) == 1:
        assert auto == parsed[0]


@pytest.mark.parametrize(
    "text, fmt",
    [
        ("", "edgelist"),
        ("c note\n# note\n\n0 1\n", "edgelist"),
        ("# note\nc note\np edge 2 1\ne 1 2\n", "dimacs"),
        ("cx\n e 1 2\n", "dimacs"),
    ],
)
def test_auto_reads_the_format_of_the_first_line_neither_parser_skips(text, fmt):
    # on these texts the two formats' outcomes differ, errors included
    outcomes = {f: parse_outcome(partial(parse_graph, fmt=f), text) for f in FORMATS}
    assert len(set(map(repr, outcomes.values()))) == 2
    assert parse_outcome(partial(parse_graph, fmt="auto"), text) == outcomes[fmt]


@settings(deadline=None, max_examples=400)
@given(text_lines(EDGE_LIST_LINES, EDGE_LIST_FAULTS))
@example("0 1\n1 2\r\n2\t0\x851 3 3 1\n")  # a duplicate after odd breaks
@example(" # c\n\n+3 1_0\n３ ٣\n")  # a duplicate after non-ASCII digits
@example(f"0 {CAP - 1}\n{CAP} 0\n")  # the cap, reached on the second line
@example("2 -1\n-1 2\n1 1\n")  # several faults: the first is reported
def test_edge_list_parser_matches_the_reference(text):
    with mock.patch.object(graph, "MAX_VERTICES", CAP):
        want = parse_outcome(parse_reference.parse_edgelist, text)
        assert parse_outcome(partial(parse_graph, fmt="edgelist"), text) == want


@settings(deadline=None, max_examples=400)
@given(dimacs_texts())
@example("c x\np edge 3 2\r\ne 1 2\x85e\t3 2 ")
@example(f"p edge {CAP} 1\ne {CAP} 1\n")  # the cap itself is allowed
@example(f"p edge {CAP + 1} 0\n")
@example("p edge 3 1\ne 0 1\ne 1 1\n")  # several faults: the first is reported
@example("p edge 3 2\ne 1 2\ne 2 1\n")
def test_dimacs_parser_matches_the_reference(text):
    with mock.patch.object(graph, "MAX_VERTICES", CAP):
        want = parse_outcome(parse_reference.parse_dimacs, text)
        assert parse_outcome(partial(parse_graph, fmt="dimacs"), text) == want


def assert_sorted_lists(g):
    assert len(g.nbrs) == g.n
    assert g.nbrs == [sorted(set(row)) for row in g.nbrs]


@given(shuffled_edge_lists(), st.data())
def test_every_build_keeps_sorted_neighbour_lists(case, data):
    n, edges = case
    g = Graph(n, edges)
    assert_sorted_lists(g)
    for fmt in ("dimacs", "edgelist"):
        assert_sorted_lists(parse_graph(write_graph(g, fmt), fmt))
    subset = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    assert_sorted_lists(induced_subgraph(g, subset)[0])
    assert_sorted_lists(delete_vertices(g, subset)[0])
    assert_sorted_lists(delete_edges_within(g, subset))


class EagerGraph:
    """Reference: a graph's views as they were built before ``edges``
    became lazy, all at once from the sorted edges."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = tuple(sorted((min(e), max(e)) for e in edges))
        self.nbrs = [[] for _ in range(n)]
        for u, v in self.edges:
            self.nbrs[u].append(v)
            self.nbrs[v].append(u)


def assert_eager_views(g, n, edges):
    want = EagerGraph(n, edges)
    assert (g.n, g.m, g.nbrs) == (want.n, len(want.edges), want.nbrs)
    assert g.edges == want.edges
    assert g.edges is g.edges
    assert g == Graph(n, edges) and hash(g) == hash((want.n, want.edges))
    if want.edges:
        assert g != Graph(n, want.edges[1:])


def kernel_input(n, edges, alive):
    """_kernel_graph's arguments: bitmask rows and an alive mask."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return sum(1 << v for v in alive), masks


def relabelled(edges, kept):
    index = {v: i for i, v in enumerate(kept)}
    return [(index[u], index[v]) for u, v in edges if u in index and v in index]


@settings(deadline=None, max_examples=150)
@given(shuffled_edge_lists(), st.data())
def test_every_build_path_derives_the_eager_views(case, data):
    n, edges = case
    g = Graph(n, edges)
    assert_eager_views(g, n, edges)
    assert_eager_views(Graph._trusted([list(row) for row in g.nbrs]), n, edges)
    assert_eager_views(parse_graph(write_graph(g, "dimacs")), n, edges)
    top = max((v for e in edges for v in e), default=-1) + 1
    text = "".join(f"{u} {v}\n" for u, v in edges)  # in drawn order
    assert_eager_views(parse_graph(text, "edgelist"), top, edges)

    subset = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    sub, kept = induced_subgraph(g, subset)
    assert_eager_views(sub, len(kept), relabelled(edges, kept))
    rest, _ = delete_vertices(g, subset)
    kept = sorted(set(range(n)) - subset)
    assert_eager_views(rest, len(kept), relabelled(edges, kept))
    inside = [(u, v) for u, v in edges if not (u in subset and v in subset)]
    assert_eager_views(delete_edges_within(g, subset), n, inside)
    kernel, kept = _kernel_graph(*kernel_input(n, edges, subset))
    assert kept == sorted(subset)
    assert_eager_views(kernel, len(kept), relabelled(edges, kept))

    # a residual drops the ONE vertices and the edges between ZERO ones
    colours = data.draw(st.lists(st.sampled_from(list(Colour)), min_size=n, max_size=n))
    flat = [x for e in g.edges for x in e]
    residuals = []
    with mock.patch.object(solver, "min_vertex_cover") as cover:
        cover.side_effect = lambda h, *args, **kw: residuals.append(h) or VcResult(
            frozenset(), "bnb"
        )
        solver._residual_core(n, flat, colours, "auto", 0, {})
    kept = [v for v in range(n) if colours[v] is not Colour.ONE]
    zero = Colour.ZERO
    live = [(u, v) for u, v in edges if not (colours[u] is zero and colours[v] is zero)]
    assert_eager_views(residuals[0], len(kept), relabelled(live, kept))


def test_parsers_build_no_view():
    g = parse_graph("0 1\n1 2\n2 0\n", "edgelist")
    h = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n")
    assert g.nbrs == [[1, 2], [0, 2], [0, 1]] and h.nbrs == [[1], [0, 2], [1]]
    assert g._edges is h._edges is None


# The parsers pack an edge into u << EDGE_SHIFT | v; these texts sit at
# the edge of what that packs exactly, with the real cap of MAX_VERTICES.
TOP = graph.MAX_VERTICES - 1
WIDE = (1 << graph.EDGE_SHIFT) - 1  # the largest end that still packs


def test_every_accepted_vertex_packs_exactly():
    assert graph.MAX_VERTICES <= 1 << graph.EDGE_SHIFT


@pytest.mark.parametrize(
    "text, fmt, message, line",
    [
        (f"0 {TOP}\n{TOP} 0\n", "edgelist", "duplicate edge", 2),
        (f"{TOP - 1} {TOP}\n{TOP} {TOP - 1}\n", "edgelist", "duplicate edge", 2),
        (f"0 {WIDE}\n", "edgelist", f"more than {graph.MAX_VERTICES} vertices", 1),
        # 0 and 2**EDGE_SHIFT + 2 would pack to the key of (1, 2): the cap
        # is tested first, so this is no duplicate
        (f"1 2\n0 {WIDE + 3}\n", "edgelist", f"more than {graph.MAX_VERTICES} vertices", 2),
        (f"p edge {TOP + 1} 2\ne 1 {TOP + 1}\ne {TOP + 1} 1\n", "dimacs", "duplicate edge", 3),
        (f"p edge 3 1\ne 2 {WIDE + 4}\n", "dimacs", "vertex index out of range 1..3", 2),
    ],
)
def test_packed_edges_at_the_cap_fail_as_the_reference(text, fmt, message, line):
    reference = getattr(parse_reference, f"parse_{fmt}")
    for parse in (reference, partial(parse_graph, fmt=fmt)):
        with pytest.raises(GraphParseError) as err:
            parse(text)
        assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)


@pytest.mark.parametrize(
    "text, fmt",
    [
        (f"{TOP} 0\n5 {TOP}\n{TOP - 1} {TOP}\n", "edgelist"),
        (f"p edge {TOP + 1} 2\ne {TOP + 1} 1\ne {TOP} {TOP + 1}\n", "dimacs"),
    ],
)
def test_packed_edges_at_the_cap_parse_exactly(text, fmt):
    g = parse_graph(text, fmt)
    want = [(0, TOP), (5, TOP), (TOP - 1, TOP)] if fmt == "edgelist" else [(0, TOP), (TOP - 1, TOP)]
    assert (g.n, g.edges) == (graph.MAX_VERTICES, tuple(want))
    assert g.nbrs[TOP] == [u for u, _ in want]
