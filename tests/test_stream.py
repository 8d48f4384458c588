import hashlib
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamcut.generators import ClParams, generate_cl
from streamcut.graph import from_edges, restrict_to_lcc
from streamcut.stream import ORDER_KINDS, make_stream
from conftest import graph_from_pairs, random_gnp, several_components


@pytest.mark.parametrize("kind", ORDER_KINDS)
@given(n=st.integers(2, 40), seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_every_order_is_a_permutation(kind, n, seed):
    g = random_gnp(n, 0.3, seed=seed % 101)
    plan = make_stream(g, kind, seed)
    assert plan.order_kind == kind and plan.seed == seed
    assert np.array_equal(np.sort(plan.sequence), np.arange(n))


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_orders_are_deterministic(kind):
    g = random_gnp(50, 0.2, seed=7)
    a = make_stream(g, kind, seed=123).sequence
    b = make_stream(g, kind, seed=123).sequence
    c = make_stream(g, kind, seed=124).sequence
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", ["bfs", "dfs"])
def test_traversal_prefixes_touch_earlier_neighbors(kind):
    """Within one component, every non-start vertex follows some neighbor."""
    for seed in range(10):
        g = random_gnp(60, 0.08, seed=seed)
        seq = make_stream(g, kind, seed).sequence
        pos = np.empty(g.n, dtype=np.int64)
        pos[seq] = np.arange(g.n)
        starts = 0
        for v in seq:
            nb = g.neighbors(int(v))
            if len(nb) == 0 or pos[nb].min() > pos[v]:
                starts += 1  # component start (or isolated vertex)
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components
        adj = csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr),
                         shape=(g.n, g.n))
        ncomp, _ = connected_components(adj, directed=False)
        assert starts == ncomp


def test_bfs_layers_on_a_path():
    g = graph_from_pairs([(i, i + 1) for i in range(9)])
    seq = list(make_stream(g, "bfs", seed=0).sequence)
    start = seq[0]
    dist = [abs(v - start) for v in seq]
    assert dist == sorted(dist)  # BFS visits by hop distance


def test_dfs_goes_deep_on_a_path():
    g = graph_from_pairs([(i, i + 1) for i in range(9)])
    seq = make_stream(g, "dfs", seed=0).sequence
    # from the start, consecutive entries stay adjacent until an endpoint
    diffs = np.abs(np.diff(seq))
    assert diffs[0] == 1


def test_unknown_order_rejected(triangle):
    with pytest.raises(ValueError):
        make_stream(triangle, "sorted", seed=0)


def starts_by_rank(n, seed):
    """Reference restarts: rng.integers(n), then every vertex in the order of one
    rng.permutation(n); a walk begins at each of them still unvisited when reached."""
    rng = np.random.Generator(np.random.PCG64(seed))
    first = int(rng.integers(n))
    return [first, *rng.permutation(n).tolist()]


def bfs_by_queue(g, seed):
    """Reference BFS: a FIFO queue over ascending neighbours."""
    seq, visited = [], np.zeros(g.n, dtype=bool)
    for start in starts_by_rank(g.n, seed):
        if visited[start]:
            continue
        visited[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            seq.append(v)
            for u in g.neighbors(v):
                if not visited[u]:
                    visited[u] = True
                    queue.append(int(u))
    return np.array(seq, dtype=np.int64)


def dfs_by_scan(g, seed):
    """Reference DFS: a stack, lowest-index neighbour first, restarts by rank."""
    seq, visited = [], np.zeros(g.n, dtype=bool)
    for start in starts_by_rank(g.n, seed):
        stack = [start]
        while stack:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            seq.append(v)
            stack.extend(int(u) for u in g.neighbors(v)[::-1] if not visited[u])
    return np.array(seq, dtype=np.int64)


REFERENCE_ORDERS = {"bfs": bfs_by_queue, "dfs": dfs_by_scan}


@pytest.mark.parametrize("kind", ["bfs", "dfs"])
@given(g=several_components(max_size=40), seed=st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_traversals_equal_queue_and_scan_reference(kind, g, seed):
    seq = make_stream(g, kind, seed).sequence
    ref = REFERENCE_ORDERS[kind](g, seed)
    assert seq.dtype == ref.dtype and np.array_equal(seq, ref)


def chain(n):
    return np.column_stack([np.arange(n - 1), np.arange(1, n)])


TRAVERSAL_GRAPHS = {
    # n/2 components, each begun by a restart draw: this pins the restart picker
    "disjoint_edges": lambda: from_edges(np.random.default_rng(3).permutation(2000).reshape(-1, 2)),
    "path": lambda: from_edges(chain(5000)),  # BFS levels and DFS frames of one vertex
    "star": lambda: from_edges(np.column_stack([np.full(999, 500), np.delete(np.arange(1000), 500)])),
    # labels 0, 2, 6 and 9 have only self loops: isolated vertices among small components
    "isolated": lambda: from_edges(np.array([[0, 0], [1, 5], [2, 2], [5, 7], [9, 9], [3, 4],
                                             [6, 6], [8, 1], [4, 10]])),
    "one_vertex": lambda: from_edges(np.array([[4, 4]])),
}


@pytest.mark.parametrize("kind, name", [
    pytest.param(kind, name, id=kind if name == "disjoint_edges" else f"{kind}-{name}")
    for name in TRAVERSAL_GRAPHS for kind in ("bfs", "dfs")])
def test_traversals_on_disjoint_edges_equal_reference(kind, name):
    """Restart-heavy and extreme shapes (TRAVERSAL_GRAPHS) against the references;
    each order is a read-only int64 array."""
    g = TRAVERSAL_GRAPHS[name]()
    for seed in (0, 1):
        seq = make_stream(g, kind, seed).sequence
        assert seq.dtype == np.int64 and not seq.flags.writeable
        assert np.array_equal(seq, REFERENCE_ORDERS[kind](g, seed))


def test_dfs_is_linear_on_a_large_star():
    """scipy's DFS rescans a row from its first entry on each return to the vertex:
    on the plain rows a hub of 200 000 leaves takes over ten seconds, on the rows
    make_stream links for DFS some tens of milliseconds."""
    leaves = 200_000
    g = from_edges(np.column_stack([np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)]))
    t0 = time.perf_counter()
    seq = make_stream(g, "dfs", 0).sequence
    assert time.perf_counter() - t0 < 2.0
    start = int(seq[0])
    rest = np.delete(np.arange(1, leaves + 1), start - 1) if start else np.arange(1, leaves + 1)
    assert np.array_equal(seq, np.concatenate([[start], [0] if start else [], rest]))


def test_disjoint_edges_are_ordered_in_linear_time():
    """Restarts come from one permutation, not a draw per component: 100 000 disjoint
    edges are ordered in some tens of milliseconds, each edge's ends one after the other."""
    g = from_edges(np.random.default_rng(5).permutation(200_000).reshape(-1, 2))
    comp = g.components[1]
    for kind in ("bfs", "dfs"):
        t0 = time.perf_counter()
        seq = make_stream(g, kind, 0).sequence
        assert time.perf_counter() - t0 < 0.5, kind
        assert np.array_equal(comp[seq[0::2]], comp[seq[1::2]])


def test_each_restart_is_uniform_over_the_unvisited_vertices():
    """Components of 1, 2, 3 and 4 vertices, 10 000 seeds: given the components walked
    so far, the next start is uniform over the vertices outside them (chi-square, summed
    over every such history and restart)."""
    from scipy.stats import chi2
    g = from_edges(np.array([[0, 0], [1, 2], [3, 4], [4, 5], [6, 7], [7, 8], [8, 9]]))
    comp = g.components[1]
    counts = {}
    for seed in range(10_000):
        seq = make_stream(g, "bfs", seed).sequence
        starts = seq[np.flatnonzero(np.r_[True, comp[seq[1:]] != comp[seq[:-1]]])]
        for r, start in enumerate(starts):
            done = frozenset(comp[starts[:r]].tolist())
            counts.setdefault(done, np.zeros(g.n))[start] += 1
    stat = dof = 0
    for done, seen in counts.items():
        free = ~np.isin(comp, list(done))
        assert not seen[~free].any()
        expected = seen.sum() / free.sum()
        stat += ((seen[free] - expected) ** 2 / expected).sum()
        dof += free.sum() - 1
    assert len(counts) == 15 and chi2.sf(stat, dof) > 1e-3, (stat, dof)


# sha256 of the BFS and DFS orders, seeds 0-2, on two connected graphs: a connected
# graph is walked from its first draw, rng.integers(n), alone, so the permutation that
# ranks the restarts changes none of these orders
ONE_COMPONENT_ORDERS = "eeae4c697912e97ec8ea5649529acee3688b31ba2c2c86e1889f57dd70d83a6f"


def test_one_component_orders_are_pinned():
    h = hashlib.sha256()
    lcc = restrict_to_lcc(generate_cl(ClParams(2000, 2.5, seed=4)))
    path = from_edges(chain(1000))
    for g in (lcc, path):
        assert g.components[0] == 1
        for kind in ("bfs", "dfs"):
            for seed in range(3):
                h.update(make_stream(g, kind, seed).sequence.astype("<i8").tobytes())
    assert h.hexdigest() == ONE_COMPONENT_ORDERS
