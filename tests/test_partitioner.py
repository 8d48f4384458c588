import functools
import gc
import hashlib
import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamcut.generators import ClParams, HpParams, generate_cl, generate_hp
from streamcut import graph
from streamcut.graph import from_edges, spans
from streamcut.objective import (ObjectiveConfig, PartitionSnapshot, SnapshotError,
                                 build_snapshot, delta_g, marginal_cost, recount)
from streamcut.partitioner import (HEURISTICS, TIE_POLICIES, PartitionRun, earlier_lists,
                                   partition_stream)
from streamcut import partitioner
from streamcut.stream import StreamPlan, make_stream
from streamcut.metrics import compute_lambda
from conftest import graph_from_pairs, random_gnp

CFG = ObjectiveConfig()


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_every_heuristic_completes_and_is_deterministic(heuristic):
    g = random_gnp(40, 0.15, seed=5)
    plan = make_stream(g, "random", seed=2)
    snap1, stats1 = partition_stream(g, plan, 4, heuristic, CFG, seed=9)
    snap2, _ = partition_stream(g, plan, 4, heuristic, CFG, seed=9)
    assert snap1.fully_assigned
    assert snap1.assignment.min() >= 0 and snap1.assignment.max() < 4
    assert np.array_equal(snap1.assignment, snap2.assignment)
    assert stats1.runtime_ms >= 0.0


def test_one_pass_scans_each_edge_twice():
    g = random_gnp(60, 0.2, seed=1)
    plan = make_stream(g, "random", seed=1)
    _, stats = partition_stream(g, plan, 3, "fennel", CFG, seed=1)
    assert stats.neighbor_scans == 2 * g.m


def test_unknown_heuristic_and_tie_policy_rejected(triangle):
    plan = make_stream(triangle, "random", seed=0)
    with pytest.raises(ValueError):
        partition_stream(triangle, plan, 2, "metis", CFG, seed=0)
    with pytest.raises(ValueError):
        partition_stream(triangle, plan, 2, "fennel", CFG, seed=0,
                         tie_policy="random")


def test_hash_depends_only_on_seed():
    g = random_gnp(200, 0.05, seed=3)
    plan = make_stream(g, "random", seed=4)
    a, _ = partition_stream(g, plan, 4, "hash", CFG, seed=11)
    b, _ = partition_stream(g, plan, 4, "hash", CFG, seed=11)
    c, _ = partition_stream(g, plan, 4, "hash", CFG, seed=12)
    assert np.array_equal(a.assignment, b.assignment)
    assert not np.array_equal(a.assignment, c.assignment)
    # roughly uniform loads
    assert a.cluster_vertex_counts.min() > 0


def test_balanced_keeps_loads_within_one():
    g = random_gnp(37, 0.2, seed=8)
    plan = make_stream(g, "random", seed=8)
    snap, _ = partition_stream(g, plan, 5, "balanced", CFG, seed=8)
    loads = snap.cluster_vertex_counts
    assert loads.max() - loads.min() <= 1


def test_dg_matches_gamma_one_greedy():
    for seed in range(20):
        g = random_gnp(30, 0.2, seed=seed)
        plan = make_stream(g, "random", seed=seed)
        a, _ = partition_stream(g, plan, 3, "dg", CFG, seed=seed)
        b, _ = partition_stream(g, plan, 3, "fennel",
                                ObjectiveConfig(gamma=1.0), seed=seed)
        assert np.array_equal(a.assignment, b.assignment)


def test_nn_matches_gamma_two_half_alpha_derivative():
    for seed in range(20):
        g = random_gnp(30, 0.2, seed=seed)
        plan = make_stream(g, "random", seed=seed)
        a, _ = partition_stream(g, plan, 3, "nn", CFG, seed=seed)
        cfg = ObjectiveConfig(gamma=2.0, alpha=0.5, marginal_mode="derivative")
        b, _ = partition_stream(g, plan, 3, "fennel", cfg, seed=seed)
        assert np.array_equal(a.assignment, b.assignment)


def test_gamma_one_collapses_to_first_cluster():
    """Constant marginal cost never separates clusters, so with
    lowest-index tie breaking everything lands in cluster 0."""
    for seed in range(5):
        g = random_gnp(50, 0.1, seed=seed)
        plan = make_stream(g, "random", seed=seed)
        snap, _ = partition_stream(g, plan, 4, "fennel",
                                   ObjectiveConfig(gamma=1.0), seed=seed)
        assert np.all(snap.assignment == 0)


def test_two_triangles_worked_example(two_triangles):
    """Bridged triangles, in-order stream: the greedy splits at the
    bridge and cuts exactly one of seven edges."""
    plan = make_stream(two_triangles, "bfs", seed=11)
    assert list(plan.sequence) == [0, 1, 2, 3, 4, 5]
    cfg = ObjectiveConfig(gamma=1.5, alpha=0.5)
    snap, _ = partition_stream(two_triangles, plan, 2, "fennel", cfg, seed=0)
    assert list(snap.assignment) == [0, 0, 0, 1, 1, 1]
    assert compute_lambda(two_triangles, snap) == pytest.approx(1 / 7)


def test_ldg_trace_on_path():
    g = graph_from_pairs([(0, 1), (1, 2), (2, 3)])
    plan = StreamPlan("random", 0, np.arange(4))
    snap, _ = partition_stream(g, plan, 2, "ldg", CFG, seed=0)
    # capacity n/k = 2: vertex 2 ties at zero (full cluster is scored
    # 1*(1-2/2) = 0) and stays on the lower index; vertex 3 goes negative
    # there and moves on
    assert list(snap.assignment) == [0, 0, 0, 1]


def test_edg_scores_exact_zero_without_assigned_neighbors():
    """Scored through the run's table, a cluster with no placed neighbours scores zero
    (either sign), and an oversized one with some scores negative and finite: also at
    a size beyond n/k + 710, where exp overflows, and for a signal as large as n**2."""
    g = from_edges(np.array([[0, 1]]), id_map=np.arange(1200))
    run = PartitionRun(g, 3, "edg", CFG.resolve(g, 3), seed=0)  # n/k = 400
    run.snapshot.cluster_vertex_counts[:] = [0, 450, 1150]

    def scores(signal):  # the step's score: op(signal, load[|S_i|])
        return run._op(signal, run._load[run.snapshot.cluster_vertex_counts])

    for signal in ([0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [0, 3, 1],
                   [1, g.n ** 2, g.n ** 2]):
        signal = np.array(signal, dtype=np.float64)
        got = scores(signal)
        assert np.isfinite(got).all() and got[0] >= 0.0
        assert np.all(got[1:][signal[1:] > 0] < 0.0) and np.all(got[signal == 0] == 0.0)


def brute_triangles(g, assignment, v, k):
    nb = [int(u) for u in g.neighbors(v)]
    acc = np.zeros(k, dtype=np.int64)
    for u, w in itertools.combinations(nb, 2):
        cu, cw = assignment[u], assignment[w]
        if cu >= 0 and cu == cw and w in g.neighbors(u):
            acc[cu] += 1
    return acc


def triangle_counts(run, v):
    """t_{S_i}(v) under the run's current assignment: v as a block of one arrival, after
    every placed vertex, read off the lists' last row."""
    placed = np.flatnonzero(run.snapshot.assignment >= 0)
    lists = earlier_lists(run.graph, np.append(placed, v))
    u = lists[2][lists[1][-2]:]
    owner = np.zeros(len(u), dtype=np.int64)
    return run._block_triangles(1, owner, u, run.snapshot.assignment[u], lists)[0][0]


def place(run, vertices, clusters):
    """Put vertices in clusters and rebuild the run's counters."""
    run.snapshot.assignment[vertices] = clusters
    recount(run.snapshot)


def test_triangle_counts_match_brute_force():
    rng = np.random.default_rng(0)
    for seed in range(10):
        g = random_gnp(18, 0.35, seed=seed)
        k = 3
        run = PartitionRun(g, k, "t", CFG.resolve(g, k), seed=0)
        order = rng.permutation(g.n)
        place(run, order[: g.n // 2], [int(rng.integers(0, k)) for _ in order[: g.n // 2]])
        for v in order[g.n // 2:]:
            got = triangle_counts(run, int(v))
            want = brute_triangles(g, run.snapshot.assignment, int(v), k)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("bound", [1, 8, 512])
def test_triangle_counts_split_large_gathers(monkeypatch, bound):
    """Blocks and gathers over the size bound are split; counts and runs stay the
    same. The default bound cuts the stream into two blocks; at 512 it mixes
    blocks of several arrivals with single arrivals whose gathers are split."""
    g = random_gnp(50, 0.5, seed=3)
    plan = make_stream(g, "random", seed=1)
    want = partition_stream(g, plan, 4, "lt", CFG, seed=1)[0].assignment
    monkeypatch.setattr(graph, "SPAN", bound)
    blocks = []
    block_triangles = PartitionRun._block_triangles
    monkeypatch.setattr(PartitionRun, "_block_triangles",
                        lambda run, b, *gathered: blocks.append(b)
                        or block_triangles(run, b, *gathered))
    assert np.array_equal(partition_stream(g, plan, 4, "lt", CFG, seed=1)[0].assignment, want)
    assert min(blocks) == 1 and (max(blocks) > 1) == (bound == 512)
    run = PartitionRun(g, 3, "t", CFG.resolve(g, 3), seed=0)
    rng = np.random.default_rng(bound)
    for v in range(g.n):
        if rng.random() < 0.6:
            place(run, [v], int(rng.integers(0, 3)))
        else:
            assert np.array_equal(triangle_counts(run, v),
                                  brute_triangles(g, run.snapshot.assignment, v, 3))


@pytest.mark.parametrize("heuristic", ["t", "lt", "et"])
def test_triangle_heuristics_prefer_the_triangle_rich_cluster(heuristic):
    # vertex 6 has one lone neighbor in cluster 0 but a full triangle of
    # neighbors in cluster 1; every triangle score must send it right
    g = graph_from_pairs([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                          (6, 0), (6, 3), (6, 4), (6, 5)])
    run = PartitionRun(g, 2, heuristic, CFG.resolve(g, 2), seed=0)
    place(run, np.arange(6), [0, 0, 0, 1, 1, 1])
    run._assign(np.array([6]))
    assert run.snapshot.assignment[6] == 1


def test_assign_vertex_rejects_repeats_and_negative_ids(monkeypatch):
    """A stream that places vertex 3 and then a repeat, a negative or an
    out-of-range id raises SnapshotError naming that id before any placement."""
    g = random_gnp(10, 0.3, seed=4)
    monkeypatch.setattr(PartitionRun, "_assign", lambda *a: pytest.fail("assigned"))
    for v in (3, -1, g.n, g.n + 4):
        with pytest.raises(SnapshotError, match=f"vertex {v} "):
            partition_stream(g, StreamPlan("random", 0, [3, v]), 2, "fennel", CFG, seed=0)


def run_digest(snap, stats):
    h = hashlib.sha256()
    for arr in (snap.assignment, snap.cluster_vertex_counts, snap.cluster_internal_edges,
                [snap.cut_edges, snap.assigned_count, stats.neighbor_scans,
                 stats.threshold_violations]):
        h.update(np.asarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


# sha256 over run_digest of every heuristic on a stream that covers 37 of 60
# vertices (min_load ties, nu=1.1)
PREFIX_TRACE = "7060b4d75883b1ffb06a08f546524f97e9428f757bdac7bc817aef76483e67b8"


def test_prefix_stream_leaves_a_partial_snapshot():
    g = random_gnp(60, 0.2, seed=8)
    plan = StreamPlan("random", 8, make_stream(g, "random", seed=8).sequence[:37])
    cfg = ObjectiveConfig(nu=1.1)
    h = hashlib.sha256()
    for heuristic in HEURISTICS:
        snap, stats = partition_stream(g, plan, 4, heuristic, cfg, seed=8, tie_policy="min_load")
        assert snap.assigned_count == 37
        h.update(run_digest(snap, stats).encode())
    assert h.hexdigest() == PREFIX_TRACE


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_bad_plans_raise_before_any_vertex_is_assigned(heuristic, monkeypatch):
    """A negative, out-of-range or repeated id raises SnapshotError naming it, and so
    does a plan that is not a 1-D integer sequence; the engine never starts."""
    g = random_gnp(60, 0.2, seed=8)
    seq = make_stream(g, "random", seed=8).sequence
    monkeypatch.setattr(PartitionRun, "_assign", lambda *a: pytest.fail("assigned"))
    for bad in (-1, g.n, g.n + 7, int(seq[5]), int(seq[36])):
        stream = np.concatenate([seq[:37], [bad], seq[37:]])
        with pytest.raises(SnapshotError, match=f"vertex {bad} "):
            partition_stream(g, StreamPlan("random", 8, stream), 4, heuristic, CFG, seed=8)
    for plan, problem in (([0.9, 1.7, 2.2, 3.0, 4.5, 5.99], "float64"),
                          ([True, False], "bool"), (np.arange(6).reshape(2, 3), r"\(2, 3\)")):
        with pytest.raises(SnapshotError, match=f"1-D sequence of integer.*{problem}"):
            partition_stream(g, StreamPlan("random", 8, plan), 4, heuristic, CFG, seed=8)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_the_empty_stream_places_nothing(heuristic):
    """The empty prefix is a legal stream whatever dtype numpy reads it as ([] is
    float64): no vertex is placed and every counter stays 0."""
    g = random_gnp(60, 0.2, seed=8)
    for plan in ([], np.array([], dtype=np.int64), np.array([], dtype=bool)):
        for tie in TIE_POLICIES:
            snap, stats = partition_stream(g, StreamPlan("random", 8, plan), 4, heuristic, CFG,
                                           seed=8, tie_policy=tie)
            assert (snap.assigned_count, snap.cut_edges, stats.neighbor_scans) == (0, 0, 0)
            assert (snap.assignment == -1).all()
            assert not (snap.cluster_vertex_counts.any() or snap.cluster_internal_edges.any())


def test_threshold_restricts_loads():
    g = random_gnp(120, 0.1, seed=6)
    plan = make_stream(g, "random", seed=6)
    cfg = ObjectiveConfig(gamma=1.5, nu=1.1)
    snap, stats = partition_stream(g, plan, 4, "fennel", cfg, seed=6)
    cap = 1.1 * g.n / 4
    if stats.threshold_violations == 0:
        assert snap.cluster_vertex_counts.max() <= math.floor(cap) + 1


def test_threshold_violation_counter_fires_when_binding():
    # nu=1 on a star: the hub's cluster fills, and later vertices go to the
    # other, which is under the cap (no spill is possible at nu >= 1)
    g = graph_from_pairs([(0, i) for i in range(1, 13)])
    plan = StreamPlan("random", 0, np.arange(13))
    cfg = ObjectiveConfig(gamma=1.5, nu=1.0)
    snap, stats = partition_stream(g, plan, 2, "fennel", cfg, seed=0)
    assert snap.fully_assigned
    assert stats.threshold_violations == 0  # eligible set never empties at nu=1
    cap = g.n / 2
    assert snap.cluster_vertex_counts.max() <= math.floor(cap) + 1


@given(n=st.integers(2, 40), p=st.floats(0.0, 0.5), graph_seed=st.integers(0, 100),
       k=st.integers(1, 8), heuristic=st.sampled_from(HEURISTICS),
       order=st.sampled_from(["random", "bfs"]), placed=st.floats(0.0, 1.0),
       size_mode=st.sampled_from(["vertex", "interior_edge"]),
       tie=st.sampled_from(TIE_POLICIES), seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_the_tightest_cap_never_spills(n, p, graph_seed, k, heuristic, order, placed,
                                       size_mode, tie, seed):
    """At nu = 1, k clusters all over the cap n/k would hold more than n vertices, and
    at most n - 1 are placed before an arrival: one is always under it, so none spills."""
    g = random_gnp(n, p, seed=graph_seed)
    plan = make_stream(g, order, seed)
    plan = StreamPlan(order, seed, plan.sequence[:round(placed * g.n)])
    snap, stats = partition_stream(g, plan, k, heuristic,
                                   ObjectiveConfig(nu=1.0, size_mode=size_mode), seed,
                                   tie_policy=tie)
    assert stats.threshold_violations == 0
    if heuristic in partitioner.READS_OBJECTIVE:  # the only rule that reads the cap
        assert snap.cluster_vertex_counts.max() <= g.n // k + 1


def test_tie_policies_agree_for_strict_gamma():
    """For gamma > 1 equal scores force equal loads, so the two tie
    policies pick identical clusters."""
    for seed in range(10):
        g = random_gnp(40, 0.15, seed=seed)
        plan = make_stream(g, "random", seed=seed)
        a, _ = partition_stream(g, plan, 3, "fennel", CFG, seed=seed)
        b, _ = partition_stream(g, plan, 3, "fennel", CFG, seed=seed,
                                tie_policy="min_load")
        assert np.array_equal(a.assignment, b.assignment)


def test_min_load_tie_policy_spreads_dg():
    # two isolated edges: dg scores tie at zero for each fresh endpoint;
    # min_load sends the second edge to the emptier cluster
    g = from_edges(np.array([[0, 1], [2, 3]]))
    plan = make_stream(g, "bfs", seed=17)
    snap_lo, _ = partition_stream(g, plan, 2, "dg", CFG, seed=0)
    snap_ml, _ = partition_stream(g, plan, 2, "dg", CFG, seed=0,
                                  tie_policy="min_load")
    assert len(np.unique(snap_lo.assignment)) == 1
    assert len(np.unique(snap_ml.assignment)) == 2


def test_tie_policy_names_exported():
    assert TIE_POLICIES == ("lowest_index", "min_load")
    assert len(HEURISTICS) == 10


# ---- golden traces ----------------------------------------------------------
# sha256 over (assignment, cut_edges, cluster_vertex_counts,
# cluster_internal_edges, neighbor_scans, threshold_violations) of every run in
# a config's tie policy x nu x order grid: a change to the assignment loop
# must leave every trace and counter bit-identical

GOLDEN_CONFIGS = {**{h: (h, CFG) for h in HEURISTICS},
                  "fennel/discrete": ("fennel", ObjectiveConfig(
                      gamma=1.5, alpha=0.1, marginal_mode="discrete")),
                  "fennel/interior_edge": ("fennel", ObjectiveConfig(
                      gamma=1.5, size_mode="interior_edge"))}

GOLDEN_TRACES = {
    ("hp", "fennel"):
        "1c6259aa883c0a1ffede86f4dce5cd1a3a943c62754372685ae5ca6fefb69f5d",
    ("hp", "hash"):
        "6892d622d7a0ee183de57da5d3100cd5b4869913b722010c2a15a8406651d5a4",
    ("hp", "balanced"):
        "74fd20d3041939d9687ece360ee1cbb185ee67ab5db1f0c25d15e0bd0ea163a2",
    ("hp", "dg"):
        "26b966de3b9e83d11a70de148694a6c62a47b192256737dbde60b6f4bdd0b648",
    ("hp", "ldg"):
        "3a9e92fae820ecf5d5b29ee3937a052ab8fe12496de764f8e38b676a8381b7c6",
    ("hp", "edg"):
        "4e6e5cbe51c6823f79234cc6bc1a852c09c2875815ab66b2087074626e44ab7b",
    ("hp", "t"):
        "132753a4d7c7c37a2281adb7e711fd53007b9fa524df701309e8fc8a615bd994",
    ("hp", "lt"):
        "8078d2a609063f119af59ca47e2283cf66a97d435fa331467c6702a486c4106f",
    ("hp", "et"):
        "5321ccda299eae7e5e5c2f9acef81181f045db2ba0a56ae48286a19bef88c39b",
    ("hp", "nn"):
        "02e9a98a763b78afc2116150dc3f1bc7e26fe8abce0999f87221fd479c417519",
    ("hp", "fennel/discrete"):
        "ebbae1bd16e89bd6860a6d3e164ef5ce16c298ecd78ded6224a2c10d3467327e",
    ("hp", "fennel/interior_edge"):
        "015e2f7fa47c2e83b3b76c1a0049ded221da77483e7a48986a8fb727920e63f0",
    ("cl", "fennel"):
        "315c105d80bcb042f22b5178aeeb92eb5bc57652ab4ab112a1ced40270f2e7c8",
    ("cl", "hash"):
        "687097666a6299189863d083314ad35ad1848d4ba73b636598f594d65bd207bc",
    ("cl", "balanced"):
        "2ec0561defe7e4766428e1e780fd6e6256c3ade6e4bcbf8cd154d0377a8b8db3",
    ("cl", "dg"):
        "c9d8e306be93fdbcf577c2e05d5da8e5d85100ce4ecd6c08aee57c247c0fafab",
    ("cl", "ldg"):
        "6fa0df1f5b7ef789845597afa4d249a5cb6d54259db6cda261cbd4d78e37b947",
    ("cl", "edg"):
        "036bfc89c31902d6daa12bb0050a6be98aec5ce6063271516b922a638713de82",
    ("cl", "t"):
        "838846081bc31edfe69dcc1d98502de5b44a04036b2287759c41180e0646d047",
    ("cl", "lt"):
        "a681797e319f69c2c8d1586a7bee5dcc5dbb779a4532403bf173d139211804d1",
    ("cl", "et"):
        "a681797e319f69c2c8d1586a7bee5dcc5dbb779a4532403bf173d139211804d1",
    ("cl", "nn"):
        "f9e59c3f9ece7224ceb1e4dbeb3487ac29a5d24d1370032e1c8c53b8ef92863a",
    ("cl", "fennel/discrete"):
        "b3d4f728a0fa1777fab990457ed4205434c6b5f24321396216edda4ed14c10d3",
    ("cl", "fennel/interior_edge"):
        "c9b954be24419d34ef453b1561b45cf899af848b5ba6c3dcca4c81aabfc73ea2",
}


# The graphs above fit in one triangle block. These two span many: their
# triangle gathers sum to far more than graph.SPAN adjacency entries, so the
# traces cover triangles closed before a block starts and inside it. The
# neighbour-count rules (recorded with every arrival counted by its own gather)
# run cl2000 in blocks, with a few arrivals one by one under BFS, and hp600,
# whose rows are too long for a block, one arrival at a time.
BLOCK_TRACES = {
    ("cl2000", "t"):
        "ae22b457094979f6b4899845f6cc8975991f0ab600d28892ee1efb1b09c7ec92",
    ("cl2000", "lt"):
        "4cbd88fcebfc417c6e39d38e2891b9e16311ccf4ccef4de8e6091015a6a3eb5c",
    ("cl2000", "et"):
        "4cbd88fcebfc417c6e39d38e2891b9e16311ccf4ccef4de8e6091015a6a3eb5c",
    ("cl2000", "hash"):
        "48011488e797d59c33f298214b6dc65a61c42cd9b9713a84a247bb61487b919e",
    ("hp600", "t"):
        "048f79812b5ac21b50e3ade0b40f0ac2c8d5963e89d6d66598afce19cbf93013",
    ("hp600", "lt"):
        "623e380f02e24a743cf6cc07762584fc6a2e9cb30f0e12739d239d556621d587",
    ("hp600", "et"):
        "9fc32ae1d3e0dbddf610f8796b8ee9dc21062c1f8cf328ffb80fd2ed18000d92",
    ("hp600", "hash"):
        "0e99573915a63624702d32fa87a51dc9f70bb1074440f8e9b64e15966925cbee",
    ('cl2000', 'fennel'):
        "fef87a56a450280932c43ded282784d982dfbf5531854989778078f0ce496683",
    ('cl2000', 'fennel/interior_edge'):
        "802b0207622cf8a620cf9b762c9d5bf46646580ab4ebfa1ab2bd4c851f712ab9",
    ('cl2000', 'ldg'):
        "cba95470271a58290501452b6ff9cb9eb599022b87b3559824428390f3aa2da3",
    ('cl2000', 'edg'):
        "e5d8f3939308fda0e219fa455ac82137b3cb2058e9ffd6631eced9675a34b23b",
    ('cl2000', 'dg'):
        "74ceb2bc28efd6f76917981f74b2ee24c1ca14ceabdc59df3e8b9d678db6bc3c",
    ('cl2000', 'nn'):
        "0c98e7b53162811dea2d8de29bfe67e9f2855a5dd1aaae0e6031c911920478cb",
    ('cl2000', 'balanced'):
        "8125d7c2141f9c31e584241c0a50260109cd2490747fa77c87bcc5f8f053880c",
    ('hp600', 'fennel'):
        "f63b98f934a5efbba8f01cee01a0489e2458b105b454d37a8ece319a495d28c5",
    ('hp600', 'fennel/interior_edge'):
        "5351883136e895ba005eff14cb7b786d9ea82df74eb2a3c566146a20622ed4c6",
    ('hp600', 'ldg'):
        "26fea80ff533ec47365e2b4aaa4c7ab4e614cfdfdf8f892f1284df5f44820bc9",
    ('hp600', 'edg'):
        "b51c9aa6516f3f0eee174486314d2c359757b62900a5f6be0be317512beaf5ad",
    ('hp600', 'dg'):
        "dec351f3e3fbc5a33d81abd69e3de525a7da55605f00fb1d1a9eaacb80cc437f",
    ('hp600', 'nn'):
        "bcd4d8b15364692e5b6d0c668cf98063a2a9ba384ba7e9c100e95a182f679297",
    ('hp600', 'balanced'):
        "0c07d96c82c0bbf56800b5a34e4963c4f8d816fc09c365786d4468da4f08d412",
}


@functools.cache
def golden_graph(name):
    """(graph, k): planted clusters at k=4, and a power-law graph with isolated
    vertices (many BFS restarts) at k=5; larger ones of each kind for
    BLOCK_TRACES."""
    if name == "hp":
        return generate_hp(HpParams(120, 4, 0.3, 0.05, seed=1))[0], 4
    if name == "hp600":
        return generate_hp(HpParams(600, 4, 0.3, 0.05, seed=5))[0], 4
    if name == "cl2000":
        return generate_cl(ClParams(2000, 2.5, seed=4)), 8
    return generate_cl(ClParams(300, 2.5, avg_degree=6.0, seed=2)), 5


def trace_digest(graph, label):
    g, k = golden_graph(graph)
    heuristic, cfg = GOLDEN_CONFIGS[label]
    h = hashlib.sha256()
    for tie, nu, order in itertools.product(TIE_POLICIES, (math.inf, 1.1),
                                            ("random", "bfs")):
        plan = make_stream(g, order, seed=3)
        snap, stats = partition_stream(g, plan, k, heuristic, replace(cfg, nu=nu), seed=3,
                                       tie_policy=tie)
        for arr in (snap.assignment, snap.cluster_vertex_counts,
                    snap.cluster_internal_edges,
                    [snap.cut_edges, stats.neighbor_scans, stats.threshold_violations]):
            h.update(np.asarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("graph", ["hp", "cl"])
@pytest.mark.parametrize("label", list(GOLDEN_CONFIGS))
def test_golden_traces(graph, label):
    assert trace_digest(graph, label) == GOLDEN_TRACES[graph, label]


@pytest.mark.parametrize("graph, label", list(BLOCK_TRACES))
def test_golden_traces_across_triangle_blocks(graph, label):
    assert trace_digest(graph, label) == BLOCK_TRACES[graph, label]


NEIGHBOUR_LABELS = ("fennel", "fennel/interior_edge", "ldg", "edg", "dg", "nn", "balanced")


def record_steps(monkeypatch):
    """The engine's calls of a neighbour-count step, in order: the block size, or None for
    arrivals that read the table, with their number. Interior-edge fennel's blocks and
    every table run go through _steps, the other rules' blocks through _block_steps."""
    calls = []
    steps, block_steps = PartitionRun._steps, PartitionRun._block_steps
    monkeypatch.setattr(PartitionRun, "_steps", lambda run, vertices, block=None:
                        calls.append((None if block is None else len(vertices), len(vertices)))
                        or steps(run, vertices, block))
    monkeypatch.setattr(PartitionRun, "_block_steps", lambda run, vertices, *block:
                        calls.append((len(vertices), len(vertices)))
                        or block_steps(run, vertices, *block))
    return calls


@pytest.mark.parametrize("bound, minimum",
                         [(1, 0), (512, 2), (partitioner.BLOCK, partitioner.MIN_BLOCK),
                          (partitioner.BLOCK, partitioner.BLOCK + 1)])
def test_neighbour_blocks_leave_every_trace_unchanged(monkeypatch, bound, minimum):
    """Blocks of one arrival, blocks of a few, the default choice (blocks alone on cl2000,
    about 11 entries per arrival; table rows alone on hp600, about 69) and table rows alone
    on both (no window holds BLOCK + 1 arrivals) all give the BLOCK_TRACES. Each run takes
    one engine."""
    table = {partitioner.MIN_BLOCK: {"hp600"},  # the graphs whose runs read table rows
             partitioner.BLOCK + 1: {"cl2000", "hp600"}}.get(minimum, set())
    monkeypatch.setattr(partitioner, "BLOCK", bound)
    monkeypatch.setattr(partitioner, "MIN_BLOCK", minimum)
    calls = record_steps(monkeypatch)
    for graph_name in ("cl2000", "hp600"):
        for label in NEIGHBOUR_LABELS:
            assert trace_digest(graph_name, label) == BLOCK_TRACES[graph_name, label], label
        blocks = [b for b, _ in calls if b is not None]
        if graph_name in table:  # one table call per run, over its whole stream
            assert not blocks and {size for _, size in calls} == {golden_graph(graph_name)[0].n}
        else:
            assert blocks and len(blocks) == len(calls) and max(blocks) <= bound
            assert (max(blocks) > 1) == (bound > 1)
        calls.clear()


def mixed_graph():
    """A sparse part (0..999, mean degree about 8) and a dense one (1000..1099, about 75),
    joined by 200 edges; its stream runs half the sparse part, the dense part, then the
    other half: a dense burst inside a sparse stream."""
    rng = np.random.default_rng(11)
    sparse = rng.integers(0, 1000, size=(4000, 2))
    dense = 1000 + np.argwhere(np.triu(rng.random((100, 100)) < 0.75, 1))
    across = np.column_stack([rng.integers(0, 1000, 200), rng.integers(1000, 1100, 200)])
    g = from_edges(np.concatenate([sparse, dense, across]), id_map=np.arange(1100))
    order = rng.permutation(1000)
    seq = np.concatenate([order[:500], 1000 + rng.permutation(100), order[500:]])
    return g, StreamPlan("random", 11, seq)


def test_mixed_runs_equal_all_blocks_and_all_table_rows(monkeypatch):
    """The default run of the mixed stream takes blocks alone, as its mean arrival holds
    about 15 entries; it gives the same run as forced blocks and as forced table rows."""
    g, plan = mixed_graph()
    calls = record_steps(monkeypatch)
    digests = {}
    for minimum in (partitioner.MIN_BLOCK, 0, g.n + 1):
        monkeypatch.setattr(partitioner, "MIN_BLOCK", minimum)
        for label, tie, nu in itertools.product(NEIGHBOUR_LABELS, TIE_POLICIES, (math.inf, 1.1)):
            heuristic, cfg = GOLDEN_CONFIGS[label]
            run = PartitionRun(g, 4, heuristic, replace(cfg, nu=nu).resolve(g, 4), seed=5,
                               tie_policy=tie)
            run._assign(np.asarray(plan.sequence))
            table = minimum == g.n + 1
            assert ("_table" in vars(run)) == table
            ref = build_snapshot(g, run.snapshot.assignment, 4)
            assert run.snapshot.cut_edges == ref.cut_edges
            assert np.array_equal(run.snapshot.cluster_internal_edges, ref.cluster_internal_edges)
            digests.setdefault((label, tie, nu), set()).add(run_digest(run.snapshot, run.stats))
            assert {b is None for b, _ in calls} == {table}
            calls.clear()
    assert all(len(d) == 1 for d in digests.values())


def test_a_dense_burst_in_a_sparse_stream_keeps_no_table():
    """The mixed stream's dense burst fills BLOCK windows of under MIN_BLOCK arrivals, but
    its run (a sparse majority) counts by blocks alone: no (n, k) table is allocated, and
    the counters equal a rebuild."""
    g, plan = mixed_graph()
    seq = np.asarray(plan.sequence)
    size = np.diff([lo for lo, _ in spans(g.degrees[seq] + 1, partitioner.BLOCK)])
    assert (size < partitioner.MIN_BLOCK).any()  # short windows before the last one
    run = PartitionRun(g, 4, "fennel", CFG.resolve(g, 4), seed=5)
    run._assign(seq)
    assert "_table" not in vars(run)
    ref = build_snapshot(g, run.snapshot.assignment, 4)
    assert (run.snapshot.cut_edges, run.snapshot.assigned_count) == (ref.cut_edges, g.n)
    assert np.array_equal(run.snapshot.cluster_vertex_counts, ref.cluster_vertex_counts)
    assert np.array_equal(run.snapshot.cluster_internal_edges, ref.cluster_internal_edges)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_an_edgeless_graph_partitions_under_every_rule_that_reads_no_objective(heuristic):
    """HP(20, 2, 0, 0) has no edges, so alpha 'auto' has nothing to scale by: fennel, the
    one rule that reads it, fails naming the cause; every other rule partitions the graph
    under the default config, with counters equal to a rebuild."""
    g = generate_hp(HpParams(n=20, k=2, p=0.0, q=0.0))[0]
    plan = make_stream(g, "random", seed=1)
    if heuristic in partitioner.READS_OBJECTIVE:
        with pytest.raises(ValueError, match="the graph has no edges: give alpha"):
            partition_stream(g, plan, 2, heuristic, CFG, seed=1)
        return
    snap, _ = partition_stream(g, plan, 2, heuristic, CFG, seed=1)
    ref = build_snapshot(g, snap.assignment, 2)
    assert (snap.cut_edges, snap.assigned_count) == (ref.cut_edges, g.n) == (0, 20)
    assert np.array_equal(snap.cluster_vertex_counts, ref.cluster_vertex_counts)
    assert not snap.cluster_internal_edges.any()


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_derived_cut_equals_a_recount(heuristic):
    """The cut derived at the end of a run equals recount's, on a prefix stream and on a
    full stream over a graph with isolated vertices."""
    g = random_gnp(60, 0.03, seed=2)
    assert (g.degrees == 0).any()
    seq = make_stream(g, "random", seed=2).sequence
    for plan in (StreamPlan("random", 2, seq[:37]), StreamPlan("random", 2, seq)):
        snap, _ = partition_stream(g, plan, 3, heuristic, CFG, seed=2)
        ref = PartitionSnapshot(g, 3)
        ref.assignment[:] = snap.assignment
        recount(ref)
        assert snap.cut_edges == ref.cut_edges
        assert np.array_equal(snap.cluster_internal_edges, ref.cluster_internal_edges)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_neighbours_placed_inside_a_block(monkeypatch, heuristic):
    """On a path in BFS order each arrival's earlier neighbour arrives in its own
    block: the counters still equal a rebuild, and the run equals one whose
    blocks hold a single arrival."""
    g = graph_from_pairs([(i, i + 1) for i in range(49)])
    plan = make_stream(g, "bfs", seed=4)
    pos = np.argsort(plan.sequence)
    assert all(pos[g.neighbors(v)].min() < pos[v] for v in plan.sequence[1:])
    runs = []
    for bound, minimum, span in ((1 << 12, 1, graph.SPAN), (1, 0, 1)):
        monkeypatch.setattr(partitioner, "BLOCK", bound)
        monkeypatch.setattr(partitioner, "MIN_BLOCK", minimum)
        monkeypatch.setattr(graph, "SPAN", span)
        snap, stats = partition_stream(g, plan, 3, heuristic, ObjectiveConfig(nu=1.1), seed=2,
                                       tie_policy="min_load")
        ref = build_snapshot(g, snap.assignment, 3)
        assert (snap.cut_edges, snap.assigned_count) == (ref.cut_edges, g.n)
        assert np.array_equal(snap.cluster_vertex_counts, ref.cluster_vertex_counts)
        assert np.array_equal(snap.cluster_internal_edges, ref.cluster_internal_edges)
        runs.append(run_digest(snap, stats))
    assert runs[0] == runs[1]


def record_engines(monkeypatch):
    """The names of the step methods a run calls, table runs as "table"."""
    called = set()

    def spy(name):
        real = getattr(PartitionRun, name)
        return lambda run, vertices, *rest: called.add(
            "table" if name == "_steps" and not rest else name) or real(run, vertices, *rest)

    for name in ("_steps", "_block_steps", "_triangle_steps"):
        monkeypatch.setattr(PartitionRun, name, spy(name))
    return called


def test_a_table_run_counts_the_vertices_placed_before_it(monkeypatch):
    """HP(200, 4, .8, .5) is dense, so fennel reads the (n, k) table; with vertices 0-99
    placed before the run, the table starts with their adjacency: the picks equal those of
    one-arrival blocks, and the counters a rebuild."""
    g = generate_hp(HpParams(200, 4, 0.8, 0.5, seed=1))[0]
    engines = record_engines(monkeypatch)
    picks = []
    for bound, minimum, engine in ((partitioner.BLOCK, partitioner.MIN_BLOCK, "table"),
                                   (1, 0, "_block_steps")):
        monkeypatch.setattr(partitioner, "BLOCK", bound)
        monkeypatch.setattr(partitioner, "MIN_BLOCK", minimum)
        run = PartitionRun(g, 4, "fennel", CFG.resolve(g, 4), seed=1)
        place(run, np.arange(100), np.arange(100) % 4)
        run._assign(np.arange(100, 200))
        assert engines == {engine}
        engines.clear()
        ref = build_snapshot(g, run.snapshot.assignment, 4)
        assert run.snapshot.cut_edges == ref.cut_edges
        assert np.array_equal(run.snapshot.cluster_vertex_counts, ref.cluster_vertex_counts)
        assert np.array_equal(run.snapshot.cluster_internal_edges, ref.cluster_internal_edges)
        picks.append(run.snapshot.assignment)
    assert np.array_equal(*picks)


ENGINE_LABELS = tuple(HEURISTICS) + ("fennel/interior_edge",)


@given(n=st.integers(2, 40), p=st.floats(0.0, 0.6), graph_seed=st.integers(0, 100),
       k=st.integers(1, 6), label=st.sampled_from(ENGINE_LABELS),
       order=st.sampled_from(["random", "bfs", "dfs"]), tie=st.sampled_from(TIE_POLICIES),
       placed=st.floats(0.0, 1.0), end=st.sampled_from([None, 0.5, 0.8]),
       seed=st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_every_engine_makes_the_same_run(n, p, graph_seed, k, label, order, tie, placed,
                                         end, seed):
    """A run from a snapshot that places the first part of an order already, over the
    rest of it (or a prefix of the rest): its default blocks, one-arrival blocks and, for
    a neighbour-count rule, table rows give the same picks and counters, which equal a
    recount. Each engine takes its own step: neighbour blocks _block_steps (interior-edge
    fennel _steps), triangle blocks _triangle_steps, table rows _steps, hash none."""
    g = random_gnp(n, p, seed=graph_seed)
    heuristic, cfg = GOLDEN_CONFIGS[label]
    seq = make_stream(g, order, seed).sequence
    first = round(placed * g.n)
    last = g.n if end is None else max(first, round(end * g.n))
    clusters = np.random.default_rng(seed).integers(k, size=first)
    triangles = heuristic in ("t", "lt", "et")
    engines = [(partitioner.BLOCK, partitioner.MIN_BLOCK, graph.SPAN), (1, 0, 1)]
    if heuristic != "hash" and not triangles:
        engines.append((partitioner.BLOCK, partitioner.BLOCK + 1, graph.SPAN))
    with pytest.MonkeyPatch.context() as mp:
        called, digests = record_engines(mp), set()
        for bound, minimum, span in engines:
            mp.setattr(partitioner, "BLOCK", bound)
            mp.setattr(partitioner, "MIN_BLOCK", minimum)
            mp.setattr(graph, "SPAN", span)
            run = PartitionRun(g, k, heuristic, cfg.resolve(g, k), seed=seed, tie_policy=tie)
            place(run, seq[:first], clusters)
            run._assign(np.asarray(seq[first:last]))
            ref = PartitionSnapshot(g, k)
            ref.assignment[:] = run.snapshot.assignment
            recount(ref)
            assert run.snapshot.cut_edges == ref.cut_edges
            assert np.array_equal(run.snapshot.cluster_vertex_counts, ref.cluster_vertex_counts)
            assert np.array_equal(run.snapshot.cluster_internal_edges,
                                  ref.cluster_internal_edges)
            digests.add(run_digest(run.snapshot, run.stats))
            if heuristic == "hash" or first == last:
                want = set()
            elif minimum > partitioner.BLOCK:
                want = {"table"}
            elif triangles:
                want = {"_triangle_steps"}
            else:
                want = {"_steps" if label == "fennel/interior_edge" else "_block_steps"}
            assert called == want, (label, minimum)
            called.clear()
        assert len(digests) == 1


def count_builds(monkeypatch):
    """The streams partitioner.earlier_lists is called with, in order."""
    built, real = [], partitioner.earlier_lists
    monkeypatch.setattr(partitioner, "earlier_lists",
                        lambda g, seq: built.append(seq) or real(g, seq))
    return built


def test_hash_builds_no_per_vertex_tables(monkeypatch):
    """Nor any earlier-neighbour list; a neighbour run whose arrivals all fall in blocks
    (cl2000, random order) allocates no table and builds one list, over its stream."""
    built = count_builds(monkeypatch)
    g = random_gnp(60, 0.2, seed=8)
    run = PartitionRun(g, 4, "hash", CFG.resolve(g, 4), seed=1)
    run._assign(np.arange(g.n))
    assert not {"_load", "_indptr", "_table"} & set(vars(run)) and not built
    assert run.snapshot.assigned_count == g.n
    g, k = golden_graph("cl2000")
    run = PartitionRun(g, k, "fennel", CFG.resolve(g, k), seed=3)
    seq = np.asarray(make_stream(g, "random", seed=3).sequence)
    run._assign(seq)
    assert "_table" not in vars(run) and run.snapshot.assigned_count == g.n
    assert len(built) == 1 and np.array_equal(built[0], seq)


def test_table_and_hash_runs_build_no_list(monkeypatch):
    """A dense run that reads the (n, k) table and a hash run never ask for the list, so
    partition_stream leaves their plan's memo empty."""
    built = count_builds(monkeypatch)
    g = generate_hp(HpParams(300, 4, 0.8, 0.5, seed=2))[0]  # about 120 entries an arrival
    plan = make_stream(g, "random", seed=2)
    for heuristic in ("fennel", "ldg", "hash"):
        snap, _ = partition_stream(g, plan, 4, heuristic, CFG, seed=2)
        assert snap.assigned_count == g.n
    assert not built and not plan.earlier


def test_the_list_is_built_once_per_plan_and_freed_with_it(monkeypatch):
    """Block runs of every rule on one plan share one list, which equals a fresh build,
    and which goes when the plan does."""
    built = count_builds(monkeypatch)
    g, k = golden_graph("cl2000")
    plan = make_stream(g, "bfs", seed=5)
    digests = [run_digest(*partition_stream(g, plan, k, h, CFG, seed=5))
               for h in ("fennel", "ldg", "t", "et", "fennel")]
    assert len(built) == 1 and list(plan.earlier) == [g]
    lists = plan.earlier[g]
    assert all(np.array_equal(a, b) for a, b in zip(lists, earlier_lists(g, plan.sequence)))
    assert digests[0] == digests[-1]
    refs = [weakref.ref(a) for a in lists]
    del plan, lists
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_writing_to_the_callers_array_changes_no_run():
    """A plan copies a writable sequence, so its memo cannot go stale: after the caller
    reverses its array, the plan's runs are those of the original order."""
    g, k = golden_graph("cl2000")
    seq = np.array(make_stream(g, "random", seed=6).sequence)
    plan = StreamPlan("random", 6, seq)
    want = [run_digest(*partition_stream(g, plan, k, h, CFG, seed=6)) for h in ("ldg", "t")]
    seq[:] = seq[::-1].copy()
    assert [run_digest(*partition_stream(g, plan, k, h, CFG, seed=6))
            for h in ("ldg", "t")] == want
    fresh = make_stream(g, "random", seed=6)
    assert [run_digest(*partition_stream(g, fresh, k, h, CFG, seed=6))
            for h in ("ldg", "t")] == want


def reference_scores(heuristic, signal, sizes, internal, cfg, n, k):
    """Each rule's score of every cluster, written from its formula with C = n/k."""
    s, size, capacity = np.asarray(signal, dtype=np.float64), np.array(sizes, float), n / k
    if heuristic == "fennel":
        score = (delta_g(internal, cfg, s) if cfg.size_mode == "interior_edge"
                 else s - marginal_cost(cfg, size))
        return np.where(size > cfg.nu * n / k, -np.inf, score)
    if heuristic == "balanced":
        return -size
    if heuristic in ("dg", "t"):
        return s
    if heuristic == "nn":
        return s - size
    if heuristic in ("ldg", "lt"):
        return s * (1.0 - size / capacity)
    with np.errstate(over="ignore", invalid="ignore"):  # edg, et: 0 * -inf is nan
        return np.where(s > 0, s * (1.0 - np.exp(size - capacity)), 0.0)


def reference_assignment(g, plan, k, heuristic, cfg, seed, tie):
    """The step by hand, one arrival at a time: neighbour counts by a loop, triangles by
    brute force, scores from reference_scores, and the tie policy over every cluster
    with the top score; hash gives the stream its seeded draws."""
    a = np.full(g.n, -1, dtype=np.int64)
    if heuristic == "hash":
        a[plan.sequence] = np.random.Generator(np.random.PCG64(seed)).integers(
            k, size=len(plan.sequence))
        return a
    cfg = cfg.resolve(g, k)
    sizes, internal = [0] * k, [0] * k
    for v in plan.sequence:
        counts = np.zeros(k, dtype=np.int64)
        for u in g.neighbors(v):
            if a[u] >= 0:
                counts[a[u]] += 1
        signal = brute_triangles(g, a, v, k) if heuristic in ("t", "lt", "et") else counts
        scores = reference_scores(heuristic, signal, sizes, internal, cfg, g.n, k)
        best = np.flatnonzero(scores == scores.max()).tolist()
        c = best[0] if tie == "lowest_index" else min(best, key=lambda i: (sizes[i], i))
        a[v] = c
        sizes[c] += 1
        internal[c] += int(counts[c])
    return a


@given(n=st.integers(2, 40), p=st.floats(0.0, 0.5), graph_seed=st.integers(0, 100),
       k=st.integers(1, 6), heuristic=st.sampled_from(HEURISTICS),
       order=st.sampled_from(["random", "bfs", "dfs"]),
       tie=st.sampled_from(TIE_POLICIES),
       size_mode=st.sampled_from(["vertex", "interior_edge"]),
       nu=st.sampled_from([math.inf, 1.0, 1.1]), seed=st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_incremental_snapshot_matches_rebuild(n, p, graph_seed, k, heuristic, order,
                                              tie, size_mode, nu, seed):
    """The counters equal a rebuild, and every choice equals the reference step's."""
    g = random_gnp(n, p, seed=graph_seed)
    cfg = ObjectiveConfig(nu=nu, size_mode=size_mode)
    check_against_reference(g, make_stream(g, order, seed), k, heuristic, cfg, seed, tie)


def check_against_reference(g, plan, k, heuristic, cfg, seed, tie):
    """A run over a whole order: every choice equals the reference step's, and the
    counters equal a rebuild."""
    snap, _ = partition_stream(g, plan, k, heuristic, cfg, seed, tie_policy=tie)
    assert np.array_equal(snap.assignment,
                          reference_assignment(g, plan, k, heuristic, cfg, seed, tie))
    ref = build_snapshot(g, snap.assignment, k)
    assert snap.assigned_count == g.n
    assert snap.cut_edges == ref.cut_edges
    assert np.array_equal(snap.cluster_vertex_counts, ref.cluster_vertex_counts)
    assert np.array_equal(snap.cluster_internal_edges, ref.cluster_internal_edges)


@pytest.mark.parametrize("span", [1, 8, 512])
def test_few_triangles_match_the_reference(monkeypatch, span):
    """On a tree plus at most three chords most arrivals close no triangle, so every
    cluster scores 0 and the pick is by load alone; t/lt/et still match the reference
    step and a rebuild, with the triangle blocks cut at each span (at 512 a block holds
    several arrivals, so a charge left stale inside a block would show)."""
    monkeypatch.setattr(graph, "SPAN", span)

    @given(n=st.integers(2, 60), chords=st.integers(0, 3), graph_seed=st.integers(0, 10**6),
           k=st.integers(1, 6), heuristic=st.sampled_from(["t", "lt", "et"]),
           order=st.sampled_from(["random", "bfs", "dfs"]),
           tie=st.sampled_from(TIE_POLICIES), seed=st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def check(n, chords, graph_seed, k, heuristic, order, tie, seed):
        rng = np.random.default_rng(graph_seed)
        parent = [0] + [int(rng.integers(i)) for i in range(1, n)]
        pairs = list(zip(range(1, n), parent[1:]))
        for a in rng.integers(n, size=chords).tolist():  # half to a's grandparent: a triangle
            b = parent[parent[a]] if rng.random() < 0.5 else int(rng.integers(n))
            if a != b:
                pairs.append((a, b))
        g = graph_from_pairs(pairs)
        check_against_reference(g, make_stream(g, order, seed), k, heuristic, CFG, seed, tie)

    check()


@pytest.mark.parametrize("heuristic", ["t", "lt", "et"])
@pytest.mark.parametrize("tie", TIE_POLICIES)
def test_a_pair_across_two_clusters_takes_the_zero_pick(heuristic, tie):
    """Arrivals 4 and 5 close a triangle each with placed vertices, in clusters 0 and 1;
    6 arrives in the same block and its one pair there, (5, 4), spans the two. It closes
    no triangle, so it takes the load-only pick without a score, and every pick equals
    the reference step's."""
    g = from_edges(np.array([(0, 1), (0, 4), (1, 4), (2, 3), (2, 5), (3, 5),
                             (4, 5), (4, 6), (5, 6)]), id_map=np.arange(20))
    k = 3
    run = PartitionRun(g, k, heuristic, CFG.resolve(g, k), seed=0, tie_policy=tie)
    place(run, [0, 1, 2, 3], [0, 0, 1, 1])
    want, sizes = run.snapshot.assignment.copy(), [2, 2, 0]
    for v in (4, 5, 6):
        scores = reference_scores(heuristic, brute_triangles(g, want, v, k), sizes, [0] * k,
                                  CFG, g.n, k)
        best = np.flatnonzero(scores == scores.max()).tolist()
        want[v] = best[0] if tie == "lowest_index" else min(best, key=lambda i: (sizes[i], i))
        sizes[want[v]] += 1
    scored, op = [], run._op
    run._op = lambda signal, charge: scored.append(signal) or op(signal, charge)
    run._assign(np.array([4, 5, 6]))
    assert np.array_equal(run.snapshot.assignment, want)
    assert want[[4, 5, 6]].tolist() == [0, 1, 0 if tie == "lowest_index" else 2]
    assert len(scored) == 2  # 4 and 5; 6 is picked by load alone


@functools.cache
def overflow_graph():
    """150 random rows over 2000 vertices: most are isolated, so at k = 2 with
    lowest-index ties one cluster passes n/k + 710, where exp overflows."""
    rows = np.random.default_rng(0).integers(0, 2000, size=(150, 2))
    return from_edges(rows, id_map=np.arange(2000))


@pytest.mark.parametrize("heuristic", ["edg", "et"])
@pytest.mark.parametrize("tie", TIE_POLICIES)
@pytest.mark.parametrize("order", ["random", "bfs"])
def test_exp_rules_past_the_overflow_match_the_reference(heuristic, tie, order):
    g = overflow_graph()
    plan = make_stream(g, order, seed=1)
    snap, _ = partition_stream(g, plan, 2, heuristic, CFG, seed=1, tie_policy=tie)
    if tie == "lowest_index":
        assert snap.cluster_vertex_counts.max() > g.n / 2 + 710
    assert np.array_equal(snap.assignment,
                          reference_assignment(g, plan, 2, heuristic, CFG, 1, tie))


def test_only_the_objective_rules_read_the_objective():
    """Outside READS_OBJECTIVE a run is the same under any two ObjectiveConfigs (so
    run_bench may share it across gammas); fennel is not."""
    assert partitioner.READS_OBJECTIVE == {"fennel"}
    fennel_differs = []

    @given(n=st.integers(2, 40), p=st.floats(0.0, 0.5), graph_seed=st.integers(0, 100),
           k=st.integers(1, 6), order=st.sampled_from(["random", "bfs"]),
           tie=st.sampled_from(TIE_POLICIES), gammas=st.tuples(
               st.sampled_from([1.0, 1.5]), st.sampled_from([2.0, 3.0])),
           alpha=st.floats(0.01, 10.0), nu=st.sampled_from([1.0, 1.1, 2.0]),
           interior=st.booleans(), discrete=st.booleans(), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def check(n, p, graph_seed, k, order, tie, gammas, alpha, nu, interior, discrete, seed):
        g = random_gnp(n, p, seed=graph_seed)
        plan = make_stream(g, order, seed)
        sizes, marginals = ("vertex", "interior_edge"), ("derivative", "discrete")
        configs = (ObjectiveConfig(gamma=gammas[0], size_mode=sizes[interior],
                                   marginal_mode=marginals[discrete]),
                   ObjectiveConfig(gamma=gammas[1], alpha=alpha, nu=nu,
                                   size_mode=sizes[not interior],
                                   marginal_mode=marginals[not discrete]))
        for heuristic in HEURISTICS:
            (a, sa), (b, sb) = (partition_stream(g, plan, k, heuristic, cfg, seed,
                                                 tie_policy=tie) for cfg in configs)
            same = (np.array_equal(a.assignment, b.assignment)
                    and np.array_equal(a.cluster_vertex_counts, b.cluster_vertex_counts)
                    and np.array_equal(a.cluster_internal_edges, b.cluster_internal_edges)
                    and (a.cut_edges, sa.threshold_violations, sa.neighbor_scans)
                    == (b.cut_edges, sb.threshold_violations, sb.neighbor_scans))
            if heuristic in partitioner.READS_OBJECTIVE:
                fennel_differs.append(not same)
            else:
                assert same, heuristic

    check()
    assert any(fennel_differs)


# ---- lockstep ---------------------------------------------------------------

LOCKSTEP_CALLS = st.lists(st.tuples(
    st.sampled_from([1, 2, 3, 5, 8]),
    st.sampled_from(sorted(partitioner.LOCKSTEP_RULES) + ["t", "hash"]),
    st.builds(ObjectiveConfig, gamma=st.sampled_from([1.0, 1.5, 2.0]),
              alpha=st.sampled_from(["auto", 0.1]), nu=st.sampled_from([math.inf, 1.1]),
              size_mode=st.sampled_from(["vertex", "vertex", "interior_edge"]),
              marginal_mode=st.sampled_from(["derivative", "discrete"])),
    st.sampled_from(TIE_POLICIES)), min_size=1, max_size=12)


def lockstep_key(k, heuristic, cfg, seed, tie):
    """The run a call makes, with its config only if its rule reads one."""
    return k, heuristic, cfg if heuristic in partitioner.READS_OBJECTIVE else None, seed, tie


@pytest.mark.parametrize("bound, minimum", [(partitioner.BLOCK, partitioner.MIN_BLOCK),
                                            (1, 0)])
def test_lockstep_runs_equal_lone_runs(monkeypatch, bound, minimum):
    """A Lockstep over mixed rules, k (1 included), tie policies, nu and marginal modes
    makes each run as a lone partition_stream call does: assignment, sizes, interior
    counts, cut, neighbor_scans and threshold_violations. On a graph with isolated
    vertices, over whole and prefix plans of every order, at the default blocks and at
    one arrival a block. Its distinct neighbour-count runs with vertex sizes share one
    pass if there are two or more (here R * K <= 12 * 8 cells); t, hash and
    interior-edge fennel run alone."""
    monkeypatch.setattr(partitioner, "BLOCK", bound)
    monkeypatch.setattr(partitioner, "MIN_BLOCK", minimum)
    passes, real = [], partitioner._lockstep
    monkeypatch.setattr(partitioner, "_lockstep",
                        lambda runs, *rest: passes.append(len(runs)) or real(runs, *rest))
    g, _ = golden_graph("cl")
    assert (g.degrees == 0).any()

    @given(calls=LOCKSTEP_CALLS, order=st.sampled_from(["random", "bfs", "dfs"]),
           prefix=st.booleans(), seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def check(calls, order, prefix, seed):
        seq = make_stream(g, order, seed).sequence
        plan = StreamPlan(order, seed, seq[:len(seq) // 2] if prefix else seq)
        calls = [(k, heuristic, cfg, seed, tie) for k, heuristic, cfg, tie in calls]
        lockstep = partitioner.Lockstep(calls)
        passes.clear()
        for call in calls:
            together = partition_stream(g, plan, *call[:4], tie_policy=call[4],
                                        lockstep=lockstep)
            alone = partition_stream(g, plan, *call[:4], tie_policy=call[4])
            assert run_digest(*together) == run_digest(*alone), call
        batched = {lockstep_key(*call) for call in calls
                   if call[1] in partitioner.LOCKSTEP_RULES
                   and (call[1] != "fennel" or call[2].size_mode == "vertex")}
        assert passes == ([len(batched)] if len(batched) > 1 else [])

    check()


def test_lockstep_passes_stay_within_their_bounds(monkeypatch):
    """Calls are cut, in order, into passes of at most LOCKSTEP_RUNS runs and LOCKSTEP_CELLS
    runs x clusters: 40 runs at k = 1 then 5 at k = 64 make passes of 16, 16, 8 and 4
    runs, and the last run at k = 64 runs alone."""
    passes, real = [], partitioner._lockstep
    monkeypatch.setattr(partitioner, "_lockstep",
                        lambda runs, *rest: passes.append(len(runs)) or real(runs, *rest))
    g, _ = golden_graph("cl")
    plan = make_stream(g, "random", 1)
    calls = [(k, "fennel", ObjectiveConfig(gamma=1 + i / 64), 1, "min_load")
             for k, count in ((1, 40), (64, 5)) for i in range(count)]
    lockstep = partitioner.Lockstep(calls)
    for call in calls:
        partition_stream(g, plan, *call[:4], tie_policy="min_load", lockstep=lockstep)
    assert (partitioner.LOCKSTEP_RUNS, partitioner.LOCKSTEP_CELLS) == (16, 256)
    assert passes == [16, 16, 8, 4]


def test_a_lockstep_serves_one_plan():
    """Its results are those of the plan it first ran over: another plan is refused."""
    g, k = golden_graph("cl")
    calls = [(k, h, CFG, 1, "min_load") for h in ("ldg", "nn")]
    lockstep = partitioner.Lockstep(calls)
    plan = make_stream(g, "random", 1)
    partition_stream(g, plan, *calls[0][:4], tie_policy="min_load", lockstep=lockstep)
    with pytest.raises(ValueError, match="one graph and stream plan"):
        partition_stream(g, make_stream(g, "random", 1), *calls[1][:4], tie_policy="min_load",
                         lockstep=lockstep)
