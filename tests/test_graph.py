import dataclasses
import hashlib
import io
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from streamcut import graph
from streamcut.generators import ClParams, HpParams, generate_cl, generate_hp
from streamcut.graph import (_PARSE_BLOCK_CHARS, EdgeListParseError, EmptyGraphError, Graph,
                             _block_rows, from_edges, load_edge_list,
                             restrict_to_lcc, save_edge_list)
from conftest import graph_from_pairs, random_gnp, several_components

# sha256 of the (indptr, indices, id_map) bytes of generated graphs: a change
# to the build must leave every array bit-identical
GOLDEN_BUILDS = {
    ("hp", 1): ("5706ea21169e442ac1b9548a0d1db29a701488d3265b9a514f46c75bb429a241",
                "7724fa278b7f1aa3fa20d6d0865d7b4fb2bdcace47845e20efd97db1c0870ba1",
                "98e038d3a30a991777ce2f66d2e9b9f377e44b6444635d2b5dd70d38ae78f241"),
    ("hp", 2): ("ec621aeb44af275a0f35b7cc9cebfbd6332a0a91eeccc9e57214ee6695584ad9",
                "7a2837135bd3f1962b09d477feadaa96f7c552966d0a56e0429efa555dd68e91",
                "98e038d3a30a991777ce2f66d2e9b9f377e44b6444635d2b5dd70d38ae78f241"),
    ("cl", 1): ("41bd50928b107af13a7888858a37d7c96f3d4949d33b6f59ec9caaea37634854",
                "445c340ec87759ea63d6851b28ec47b99d1a2980d6e922f04e24023181a30edf",
                "55f385cf2332d9056aaed6f496e7bebd2df52c6a9547ce2144b309432d4b0290"),
    ("cl", 2): ("ec0df2c4092704012263e0ddb7c3a8be826ca5f58a8b2863a5b603907c995867",
                "44f6fd70823f19a7a9fd846b00313d36edd9b8a0626a51cdbbc8d5715d2c341e",
                "55f385cf2332d9056aaed6f496e7bebd2df52c6a9547ce2144b309432d4b0290"),
}


def reference_build(pairs, id_map=None):
    """Pure-Python from_edges: (labels, m, sorted adjacency lists)."""
    if id_map is None:
        labels = sorted({x for pair in pairs for x in pair})
        dense = {x: i for i, x in enumerate(labels)}
        pairs = [(dense[u], dense[v]) for u, v in pairs]
    else:
        labels = list(id_map)
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    adj = [[] for _ in labels]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return labels, len(edges), [sorted(a) for a in adj]


def assert_matches_reference(g, pairs, id_map=None):
    labels, m, adj = reference_build(pairs, id_map)
    assert g.id_map.tolist() == labels
    assert (g.n, g.m) == (len(labels), m)
    assert [g.neighbors(v).tolist() for v in range(g.n)] == adj
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert not (g.indptr.flags.writeable or g.indices.flags.writeable
                or g.id_map.flags.writeable)


@st.composite
def labelled_pairs(draw):
    """Edge lists over a few labels up to 2**62; about a quarter are all self loops."""
    pool = draw(st.lists(st.integers(0, 2**62), min_size=1, max_size=12, unique=True))
    label = st.sampled_from(pool)
    pairs = draw(st.lists(st.tuples(label, label), min_size=1, max_size=60))
    if draw(st.sampled_from([False, False, False, True])):
        pairs = [(u, u) for u, _ in pairs]
    return pairs


@st.composite
def labels_at_table_edge(draw):
    """
    Edge lists whose largest label is 2E - 1 (densified through the label
    table), 2E or 2**63 - 1 (argsorted) for E rows, or that hold a negative label.
    """
    rows = draw(st.integers(1, 30))
    top = {"table": 2 * rows - 1, "past_table": 2 * rows, "int64_max": 2**63 - 1,
           "negative": draw(st.integers(-2**63, -1))}[draw(st.sampled_from(
               ["table", "past_table", "int64_max", "negative"]))]
    flat = draw(st.lists(st.integers(0, 2 * rows - 1), min_size=2 * rows, max_size=2 * rows))
    flat[draw(st.integers(0, 2 * rows - 1))] = top
    return list(zip(flat[0::2], flat[1::2]))


@st.composite
def dense_pairs_with_id_map(draw):
    """Dense edge lists into an explicit id_map that may leave vertices isolated."""
    n = draw(st.integers(1, 20))
    id_map = draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n, unique=True))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    return pairs, id_map


def test_triangle_basics(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert list(triangle.degrees) == [2, 2, 2]
    assert list(triangle.neighbors(0)) == [1, 2]


def test_duplicates_self_loops_directions_collapse():
    g = graph_from_pairs([(0, 1), (1, 0), (0, 1), (1, 1), (2, 0)])
    assert g.n == 3
    assert g.m == 2
    assert list(g.neighbors(0)) == [1, 2]


def test_labels_densified_to_id_map():
    g = graph_from_pairs([(10, 30), (30, 20)])
    assert g.n == 3
    assert list(g.id_map) == [10, 20, 30]
    # dense index 2 is label 30, adjacent to both others
    assert g.degree(2) == 2


def test_explicit_id_map_keeps_isolated_vertices():
    g = from_edges(np.array([[0, 1]]), id_map=np.arange(5))
    assert g.n == 5
    assert g.m == 1
    assert g.degree(4) == 0


def test_explicit_id_map_range_checked():
    with pytest.raises(ValueError):
        from_edges(np.array([[0, 7]]), id_map=np.arange(3))


def test_from_edges_copies_a_supplied_id_map():
    """Freezing the graph leaves the caller's id_map writable, and a later write to it
    does not reach the graph."""
    ids = np.array([10, 20, 30])
    g = from_edges(np.array([[0, 1], [1, 2]]), id_map=ids)
    assert ids.flags.writeable and not g.id_map.flags.writeable
    ids[0] = 99
    assert g.id_map.tolist() == [10, 20, 30]


def test_graph_is_its_three_arrays():
    """n and m are read off the arrays, not passed in beside them."""
    assert [f.name for f in dataclasses.fields(Graph)] == ["indptr", "indices", "id_map"]
    path_0_1_2 = dict(indptr=np.array([0, 1, 3, 4]), indices=np.array([1, 0, 2, 1]),
                      id_map=np.arange(3))
    with pytest.raises(TypeError):
        Graph(n=3, m=5, **path_0_1_2)
    g = Graph(**path_0_1_2)
    assert (g.n, g.m) == (3, 2)


def test_graphs_compare_and_hash_by_identity():
    """Two builds of the same edges are two graphs: == is a bool, not an array
    comparison that raises, and a graph can key a dict."""
    a, b = (from_edges(np.array([[0, 1], [1, 2]])) for _ in range(2))
    assert (a == b) is False and (a != b) is True and (a == a) is True
    keyed = {a: "a", b: "b"}
    assert keyed[a] == "a" and keyed[b] == "b" and hash(a) == hash(a)


def test_n_and_m_are_the_array_lengths(tmp_path):
    """Every way a graph is made: n and m are Python ints equal to the array lengths."""
    p = tmp_path / "g.txt"
    p.write_text("1 2\n2 3\n3 1\n7 8\n")
    built = [generate_hp(HpParams(n=60, k=3, p=0.3, q=0.05, seed=1))[0],
             generate_cl(ClParams(n=80, delta=2.5, avg_degree=4, seed=1)),
             from_edges(np.array([[5, 9], [9, 2**40]])),
             restrict_to_lcc(graph_from_pairs([(0, 1), (1, 2), (5, 6)])),
             load_edge_list(p), load_edge_list(p, lcc=False)]
    for g in built:
        assert type(g.n) is int and type(g.m) is int
        assert g.n == len(g.indptr) - 1 == len(g.id_map)
        assert g.m == len(g.indices) // 2 == len(g.edge_array())


def test_vertex_index_bounds(triangle):
    with pytest.raises(IndexError):
        triangle.degree(3)
    with pytest.raises(IndexError):
        triangle.neighbors(-1)


def test_empty_input_rejected():
    with pytest.raises(EmptyGraphError):
        from_edges(np.empty((0, 2), dtype=np.int64))


def test_edge_array_upper_triangular(two_triangles):
    edges = two_triangles.edge_array()
    assert edges.shape == (7, 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    # rebuilding from edge_array reproduces the adjacency
    g2 = from_edges(edges, id_map=two_triangles.id_map)
    assert np.array_equal(g2.indptr, two_triangles.indptr)
    assert np.array_equal(g2.indices, two_triangles.indices)


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_csr_invariants_random_edge_lists(pairs):
    """Degree sum is 2m and the CSR arrays are structurally consistent."""
    arr = np.array(pairs, dtype=np.int64)
    if np.all(arr[:, 0] == arr[:, 1]):
        return  # nothing but self loops, nothing to build
    g = from_edges(arr)
    assert g.degrees.sum() == 2 * g.m
    assert len(g.indices) == 2 * g.m
    assert np.all(np.diff(g.indptr) >= 0)
    assert g.indptr[0] == 0 and g.indptr[-1] == 2 * g.m
    for v in range(g.n):
        nb = g.neighbors(v)
        assert np.all(np.diff(nb) > 0)  # sorted, no duplicates
        assert v not in nb


@given(st.one_of(labelled_pairs(), labels_at_table_edge()))
@settings(max_examples=200, deadline=None)
def test_from_edges_matches_reference_on_labels(pairs):
    g = from_edges(np.array(pairs, dtype=np.int64))
    assert g.id_map.dtype == np.int64
    assert_matches_reference(g, pairs)


@given(dense_pairs_with_id_map())
@settings(max_examples=150, deadline=None)
def test_from_edges_matches_reference_with_id_map(case):
    pairs, id_map = case
    g = from_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2),
                   id_map=np.array(id_map, dtype=np.int64))
    assert_matches_reference(g, pairs, id_map)


@pytest.mark.parametrize("model,seed", sorted(GOLDEN_BUILDS))
def test_generated_graph_arrays_match_golden(model, seed):
    if model == "hp":
        g, _ = generate_hp(HpParams(300, 4, .5, .1, seed))
    else:
        g = generate_cl(ClParams(2000, 2.5, seed=seed))
    arrays = (g.indptr, g.indices, g.id_map)
    assert all(a.dtype == np.int64 for a in arrays)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) \
        == GOLDEN_BUILDS[model, seed]


def test_lcc_keeps_largest_component():
    g = graph_from_pairs([(0, 1), (1, 2), (2, 0), (10, 11)])
    sub = restrict_to_lcc(g)
    assert sub.n == 3 and sub.m == 3
    assert list(sub.id_map) == [0, 1, 2]


def test_lcc_identity_when_connected(two_triangles):
    assert restrict_to_lcc(two_triangles) is two_triangles


def lcc_by_rebuild(g):
    """Reference: the largest component's edges, renumbered and rebuilt by from_edges."""
    adj = csr_matrix((np.ones(len(g.indices), dtype=np.int8), g.indices, g.indptr),
                     shape=(g.n, g.n))
    ncomp, comp = connected_components(adj, directed=False)
    keep_comp = np.argmax(np.bincount(comp, minlength=ncomp))
    keep = np.flatnonzero(comp == keep_comp)
    edges = g.edge_array()
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    return from_edges(remap[edges[comp[edges[:, 0]] == keep_comp]], id_map=g.id_map[keep])


@given(several_components())
@settings(max_examples=150, deadline=None)
def test_lcc_equals_rebuild_from_edge_list(g):
    sub, ref = restrict_to_lcc(g), lcc_by_rebuild(g)
    assert (sub.n, sub.m) == (ref.n, ref.m)
    for name in ("indptr", "indices", "id_map"):
        a, b = getattr(sub, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


@given(several_components())
@settings(max_examples=150, deadline=None)
def test_components_equal_undirected_labels(g):
    """The strong-component pass over the symmetric rows labels every vertex,
    isolated ones included, exactly as scipy's undirected pass does."""
    adj = csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n, g.n))
    ncomp, comp = connected_components(adj, directed=False)
    got_ncomp, got = g.components
    assert got_ncomp == ncomp and np.array_equal(got, comp)


@given(several_components())
@settings(max_examples=50, deadline=None)
def test_lcc_is_handed_its_one_component(g):
    """restrict_to_lcc hands its result the labels a fresh pass finds (one component,
    all zeros); a graph's labels are found once and shared, so they are read-only."""
    got, want = restrict_to_lcc(g).components, lcc_by_rebuild(g).components
    assert got[0] == want[0] == 1
    assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    assert g.components[1] is g.components[1]
    assert not (got[1].flags.writeable or g.components[1].flags.writeable)


@st.composite
def weights_and_bound(draw):
    """Weights from 0 to twice the bound (so some items exceed it alone), as ints or as
    the floats triangle blocks use; the bound drawn, or None for graph.SPAN."""
    bound = draw(st.one_of(st.none(), st.integers(1, 40)))
    top = 2 * (graph.SPAN if bound is None else bound)
    weights = draw(st.lists(st.one_of(st.just(0), st.integers(0, top)), max_size=60))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    return np.array(weights, dtype=dtype), bound


@given(weights_and_bound())
@settings(max_examples=300, deadline=None)
def test_spans_tile_the_weights_in_maximal_ranges(case):
    """The ranges tile [0, len) in order; each sums to at most the bound or is one item,
    and each is maximal: the next item would take it over the bound."""
    weights, bound = case
    limit = graph.SPAN if bound is None else bound
    ranges = list(graph.spans(weights, bound))
    cuts = [0] + [hi for _, hi in ranges]
    assert [lo for lo, _ in ranges] == cuts[:-1] and cuts[-1] == len(weights)
    for lo, hi in ranges:
        assert hi > lo and (weights[lo:hi].sum() <= limit or hi - lo == 1)
        if hi < len(weights):
            assert weights[lo:hi + 1].sum() > limit


def test_spans_read_the_bound_at_call_time(monkeypatch):
    """Without a bound, spans cut by graph.SPAN as it is when called."""
    weights = np.array([1, 2, 1, 0, 5, 1])
    monkeypatch.setattr(graph, "SPAN", 3)
    assert list(graph.spans(weights)) == [(0, 2), (2, 4), (4, 5), (5, 6)]
    assert list(graph.spans(weights, 4)) == [(0, 4), (4, 5), (5, 6)]
    assert list(graph.spans(weights, 6)) == [(0, 4), (4, 6)]


def test_lcc_tie_keeps_the_component_of_the_lowest_vertex():
    """Two largest components of equal size: the one holding dense vertex 0 is kept,
    as with the undirected labels."""
    g = graph_from_pairs([(1, 3), (3, 5), (0, 2), (2, 4), (6, 7)])
    sub = restrict_to_lcc(g)
    assert list(sub.id_map) == [0, 2, 4]
    assert np.array_equal(sub.indices, lcc_by_rebuild(g).indices)


def test_edge_list_round_trip(tmp_path, two_triangles):
    p = tmp_path / "g.txt"
    save_edge_list(two_triangles, p)
    g2 = load_edge_list(p)
    assert g2.n == two_triangles.n and g2.m == two_triangles.m
    assert np.array_equal(g2.indices, two_triangles.indices)


def test_edge_list_comments_and_lcc(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header\n0 1\n1 2\n\n8 9\n")
    g = load_edge_list(p)
    assert (g.n, g.m) == (3, 2)
    g_all = load_edge_list(p, lcc=False)
    assert (g_all.n, g_all.m) == (5, 3)


def test_edge_list_parse_error_reports_location(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\nnot an edge line\n")
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(p)
    assert "2" in str(err.value) and "bad.txt" in str(err.value)


def test_edge_list_rejects_negatives_and_empty(tmp_path):
    neg = tmp_path / "neg.txt"
    neg.write_text("0 -1\n")
    with pytest.raises(EdgeListParseError):
        load_edge_list(neg)
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(EmptyGraphError):
        load_edge_list(empty)


def test_edge_list_parse_errors_name_first_bad_line(tmp_path):
    """
    Every malformed-row kind names its line, in the first block of lines, on
    the first line of a later block, inside a later block, or last.
    """
    lines = ["# header\n"] + [f"{i} {i + 1}\n" for i in range(10_000)]
    fh = io.StringIO("".join(lines))
    sizes = [len(block) for block in iter(lambda: fh.readlines(_PARSE_BLOCK_CHARS), [])]
    assert len(sizes) > 4
    later = sum(sizes[:3])  # first line of the fourth block
    positions = (5, later, later + sizes[3] // 2, len(lines))
    # "1 2 3" then "4": two tokens a line on average, neither line well formed
    for bad in ("1 2 3", "7", "1 2 3\n4", "1 x", "1.0 2", "3 -4", f"0 {2**63}"):
        text = repr(bad.split("\n")[0])
        for at in positions:
            p = tmp_path / "bad.txt"
            p.write_text("".join(lines[:at]) + bad + "\n" + "".join(lines[at:]))
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(p)
            assert err.value.lineno == at + 1
            assert str(err.value) == f"{p}:{at + 1}: malformed edge line {text}"


def line_scan_rows(path, lines, lineno):
    """Reference: the line-by-line reader, (E, 2) int64 rows or the first bad line's error."""
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            u, v = map(int, parts)
        except ValueError:  # a token count other than two, or a non-integer
            raise EdgeListParseError(path, lineno, line.rstrip("\n")) from None
        if not (0 <= u < 2**63 and 0 <= v < 2**63):
            raise EdgeListParseError(path, lineno, line.rstrip("\n"))
        rows.append((u, v))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def outcome(load):
    """A loaded graph's arrays, or the error the load raised."""
    try:
        g = load()
    except ValueError as err:
        return type(err).__name__, str(err), getattr(err, "lineno", None)
    return g.n, g.m, [(a.dtype, a.tolist()) for a in (g.indptr, g.indices, g.id_map)]


def load_by_line_scan(path, lcc):
    with open(path) as fh:
        edges = line_scan_rows(path, fh.readlines(), 1)
    if len(edges) == 0:
        raise EmptyGraphError(f"{path}: no edges found")
    g = from_edges(edges)
    if g.m == 0:
        raise EmptyGraphError(f"{path}: empty graph after preprocessing")
    return restrict_to_lcc(g) if lcc else g


# integer spellings numpy's C reader and Python's int() might read differently:
# numpy must give int()'s value or reject the block and leave it to the line scan
# (it reads U+01FE then "1" as 4621, so non-ASCII blocks skip it)
INT_PROBES = ("+1", "-0", "00012", "1_0", "\u0661\u0662", "\uff11\uff12", "1.0", "0x10",
              "1e3", str(2**63 - 1), str(2**63), "\u01fe1")
PARSE_CASES = {
    **{f"int_{tok!r}": f"{tok} 5\n5 {tok}\n" for tok in INT_PROBES},
    "trailing_comment": "1 2 # x\n",
    "nul_in_token": "1\x002 5\n",
    "blank_block": (" " * 99 + "\n") * 400,
    "comment_block": ("# " + "c" * 97 + "\n") * 400,
    "separators": "1\x0b2\n3\x0c4\n5\x1c6\n\x0c7 \x1c 8\x0b\n",
    "separator_inside_row": "1 2\x0c3 4\n",
    "crlf": "1 2\r\n3 4\r\n\r\n# c\r\n",
}


@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("case", sorted(PARSE_CASES))
@pytest.mark.parametrize("where", ["first_block", "later_block"])
def test_edge_list_parse_equals_line_scan(tmp_path, case, where):
    """The block reader gives the line scan's graph or error, in any block."""
    lines = ["# header\n"] + [f"{i} {i + 1}\n" for i in range(4000)]
    fh = io.StringIO("".join(lines))
    sizes = [len(block) for block in iter(lambda: fh.readlines(_PARSE_BLOCK_CHARS), [])]
    at = 5 if where == "first_block" else sum(sizes[:2]) + 3
    p = tmp_path / "g.txt"
    p.write_text("".join(lines[:at]) + PARSE_CASES[case] + "".join(lines[at:]))
    with open(p) as fh:
        blocks = list(iter(lambda: fh.readlines(_PARSE_BLOCK_CHARS), []))
    if case.endswith("_block"):  # one block holds nothing else
        assert any(all(s.isspace() or s.lstrip().startswith("#") for s in b) for b in blocks)
    for lcc in (False, True):
        assert outcome(lambda: load_edge_list(p, lcc=lcc)) \
            == outcome(lambda: load_by_line_scan(p, lcc))


@pytest.mark.parametrize("content", ["0 1\r\n1 2\r\n# c\r\n\r\n2 3\r\n",
                                     "".join(f"{i}\n" for i in range(3000)),
                                     "".join(f"{i}\r\n" for i in range(3000))],
                         ids=["crlf", "one_column", "one_column_crlf"])
def test_edge_list_whole_file_cases_equal_line_scan(tmp_path, content):
    p = tmp_path / "g.txt"
    p.write_bytes(content.encode())
    assert outcome(lambda: load_edge_list(p, lcc=False)) \
        == outcome(lambda: load_by_line_scan(p, False))


LINE_ALPHABET = "0123456789 \t\x0b\x0c\x1c#+-_.ex\x00\u01fe\u0661"


@given(st.lists(st.text(LINE_ALPHABET, max_size=12), min_size=1, max_size=30))
@settings(max_examples=300, deadline=None)
def test_block_rows_equal_line_scan(texts):
    """Random lines: a block's rows, or its first bad line, equal the line scan's."""
    lines = [t + "\n" for t in texts]

    def rows(read):
        try:
            r = read("f", lines, 7)
        except EdgeListParseError as err:
            return str(err)
        return r.dtype, r.shape, r.tolist()
    assert rows(_block_rows) == rows(line_scan_rows)


# line ends, and '#' after whitespace or after data, beside the random lines
FILE_LINES = st.one_of(st.text(LINE_ALPHABET + "\r", max_size=12),
                       st.sampled_from(["", " # c", "\t#", "\x0c\x1c# 1 2", "1 2 # x", "3 4#",
                                        "# a # b", "5 6"]))


@pytest.mark.filterwarnings("error::UserWarning")
@given(st.lists(st.tuples(FILE_LINES, st.sampled_from(["\n", "\r\n", "\r", ""])),
                max_size=30))
@example([])
@example([("", "\n"), ("  ", "\r\n"), ("\t", "\r")])
@example([("# a", "\n"), ("  # b", "\r"), ("#", "")])
@settings(max_examples=300, deadline=None)
def test_whole_file_load_equals_line_scan(tmp_path_factory, lines):
    """A whole file of random lines loads to the line scan's graph or error."""
    p = tmp_path_factory.mktemp("whole") / "g.txt"
    p.write_bytes("".join(text + end for text, end in lines).encode())
    for lcc in (False, True):
        assert outcome(lambda: load_edge_list(p, lcc=lcc)) \
            == outcome(lambda: load_by_line_scan(p, lcc))


@pytest.mark.parametrize("content,blocks", [
    ("# header\r\n1\t2\r\n  2 3\r\n\t# c\r\n\r\n4 5\r\n", False),
    ("# header\n1 2\n# caf\u00e9\n2 3\n", True),
    ("# header\n1 2 # x\n2 3\n", True),
    ("# a # b\n1 2\n2 3\n", False),
], ids=["plain", "non_ascii_comment", "comment_after_data", "second_hash_in_comment"])
def test_block_reader_runs_only_off_the_one_pass_parse(tmp_path, monkeypatch, content, blocks):
    """A plain file is parsed in one pass; the block reader reads only what that pass cannot."""
    calls = []

    def spy(*args):
        calls.append(args[2])
        return _block_rows(*args)
    monkeypatch.setattr(graph, "_block_rows", spy)
    p = tmp_path / "g.txt"
    p.write_bytes(content.encode())
    assert outcome(lambda: load_edge_list(p, lcc=False)) \
        == outcome(lambda: load_by_line_scan(p, False))
    assert bool(calls) == blocks


@pytest.mark.parametrize("name", ["g.txt.gz", "g.bz2", "g.xz", "g.lzma", "http://host/g.txt"])
def test_edge_list_path_is_read_as_a_local_text_file(tmp_path, monkeypatch, name):
    """numpy's loadtxt opens a name by its suffix or scheme; a plain local file stays one."""
    monkeypatch.chdir(tmp_path)
    Path(name).parent.mkdir(parents=True, exist_ok=True)
    Path(name).write_text("0 1\n1 2\n")
    g = load_edge_list(name, lcc=False)
    assert (g.id_map.tolist(), g.m) == ([0, 1, 2], 2)


def load_from_pipe(tmp_path, content: bytes):
    """outcome() of loading a named pipe that content is written to once."""
    p = tmp_path / "g.fifo"
    os.mkfifo(p)
    result = {}

    def write():
        try:
            with open(p, "wb") as fh:
                fh.write(content)
        except BrokenPipeError:  # the load stops at a bad line and closes its end
            pass

    def load():
        result["outcome"] = outcome(lambda: load_edge_list(p, lcc=False))
    threads = [threading.Thread(target=f, daemon=True) for f in (write, load)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
    assert not any(th.is_alive() for th in threads)
    return result["outcome"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_edge_list_reads_a_pipe_once(tmp_path):
    """A named pipe gives its rows once: the load must not open it again."""
    _, m, (_, _, (_, id_map)) = load_from_pipe(tmp_path, b"# header\n0 1\n1 2\n")
    assert (id_map, m) == ([0, 1, 2], 2)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("content", [
    b"0 1\n1 2\n\xff\xfe 4\n", b"0 1\r\n1 2\r\n2 \xc3\xa9\xff\r\n", b"0 1\r1 2\r\r\n# \xe9\r",
    b"2 3\n" * 20_000 + b"4 \xc3"],
    ids=["third_line", "crlf_after_text", "bare_cr_comment", "later_block_cut_short"])
def test_a_pipe_names_the_line_that_is_not_utf8(tmp_path, content):
    """The block reader names a byte that is not UTF-8 in a pipe as a file's load does:
    same line (\\r, \\n and \\r\\n each end one), same text."""
    p = tmp_path / "g.txt"
    p.write_bytes(content)
    kind, message, lineno = outcome(lambda: load_edge_list(p))
    assert kind == "EdgeListParseError"
    assert load_from_pipe(tmp_path, content) \
        == (kind, message.replace(str(p), str(tmp_path / "g.fifo")), lineno)


@pytest.mark.parametrize("content,lineno,text", [
    (b"0 1\n\xff\xfe 4\n", 2, "\\xff\\xfe 4"),
    (b"0 1\r\n1 2\r\n2 \xc3\xa9\xff\r\n", 3, "2 \u00e9\\xff"),
    (b"0 1\r1 2\r\r\n# \xe9\r", 4, "# \\xe9"),
    (b"1 x\n" + b"2 3\n" * 20_000 + b"4 \xc3", 1, "1 x"),
], ids=["second_line", "crlf_after_text", "bare_cr", "later_block_cut_short"])
def test_edge_list_names_the_line_that_is_not_utf8(tmp_path, content, lineno, text):
    """The first bad line is named: a line with a byte that is not UTF-8 (its bytes
    shown as \\x escapes), unless a malformed row comes before it."""
    p = tmp_path / "g.txt"
    p.write_bytes(content)
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(p)
    assert err.value.lineno == lineno
    assert str(err.value) == f"{p}:{lineno}: malformed edge line {text!r}"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("content,lineno", [
    (b"0 1\n1 x\n" + b"2 3\n" * 20_000 + b"# \xe9\n", 2),
    (b"0 1\n1 x\n# \xe9\n", 2),
    (b"0 1\n\xff 2\n" + b"2 3\n" * 20_000 + b"1 x\n", 2),
    (b"0 1\n1 2\n# caf\xe9\n2 3\n", 3),
], ids=["malformed_then_later_block_not_utf8", "malformed_then_not_utf8",
        "not_utf8_then_later_block_malformed", "not_utf8_comment_after_rows"])
def test_a_file_and_a_pipe_name_the_same_first_bad_line(tmp_path, content, lineno):
    """The same bytes as a regular file and as a pipe stop at the same first bad line,
    malformed or not UTF-8."""
    p = tmp_path / "g.txt"
    p.write_bytes(content)
    kind, message, got = outcome(lambda: load_edge_list(p, lcc=False))
    assert (kind, got) == ("EdgeListParseError", lineno)
    assert load_from_pipe(tmp_path, content) \
        == (kind, message.replace(str(p), str(tmp_path / "g.fifo")), lineno)


def test_edge_list_accepts_int_syntax_and_largest_label(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(f"  +1\t2 \r\n2 1_0\n\n# c\n{2**63 - 1} 1\n")
    g = load_edge_list(p, lcc=False)
    assert g.id_map.tolist() == [1, 2, 10, 2**63 - 1]
    assert g.m == 3


def test_save_edge_list_bytes(tmp_path):
    g = graph_from_pairs([(100, 7), (7, 2**40), (100, 100), (2**40, 100), (7, 100)])
    p = tmp_path / "g.txt"
    save_edge_list(g, p)
    assert p.read_bytes() == b"7 100\n7 1099511627776\n100 1099511627776\n"


def test_save_uses_original_labels(tmp_path):
    g = graph_from_pairs([(100, 200)])
    p = tmp_path / "labels.txt"
    save_edge_list(g, p)
    assert p.read_text() == "100 200\n"


def test_random_gnp_helper_shape():
    g = random_gnp(12, 0.4, seed=3)
    assert g.n == 12
    assert g.degrees.sum() == 2 * g.m
