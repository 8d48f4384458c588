import functools
import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamcut.generators import ClParams, HpParams, generate_cl, generate_hp
from streamcut import graph
from streamcut.graph import from_edges
from streamcut.objective import (ObjectiveConfig, SnapshotError, build_snapshot, delta_g,
                                 marginal_cost, recount)
from streamcut.partitioner import (HEURISTICS, TIE_POLICIES, PartitionRun,
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
    """t_{S_i}(v) under the run's current assignment: v as a block of one arrival."""
    return run._block_triangles(np.array([v]), 0)[0][0]


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
                        lambda run, block, b0: blocks.append(len(block))
                        or block_triangles(run, block, b0))
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
        "65e906bd980d7f8b1ef14667d2348377f99e10cbbae559c726514b08fa9055d1",
    ("cl", "dg"):
        "eed731daaef158f417ad9fb1a122979249ec21e331cb54cc9edfecf3b6ad8c1f",
    ("cl", "ldg"):
        "a77ee35b436425f344856b937f349f8d75b612e75c7243d55c982b45c8817893",
    ("cl", "edg"):
        "e44876f0addccb3ad72207f31bf467a90806ccc588c173a05efe1d2c58dc7f83",
    ("cl", "t"):
        "940ce037f3af333168db21f65f315f3ac9ff68cfe9f977470ead0c63b8c49ebc",
    ("cl", "lt"):
        "1bc3c59d3684a47523dd97beef5925650f5cf785f3634fae5e9b210c6b2c18ab",
    ("cl", "et"):
        "1bc3c59d3684a47523dd97beef5925650f5cf785f3634fae5e9b210c6b2c18ab",
    ("cl", "nn"):
        "33d3515531ddf01bdeba1e63ae2c01c9d2230438b5cec1964b094387764a2404",
    ("cl", "fennel/discrete"):
        "d90b157e964d33b23b3cf707031d5a14ee532f702cf8e3874113a20df38d85e0",
    ("cl", "fennel/interior_edge"):
        "623ea3832c81d4cc5da160006e277ebb4fe8ebe15f483d0360d098e712c8314f",
}


# The graphs above fit in one triangle block. These two span many: their
# triangle gathers sum to far more than graph.SPAN adjacency entries, so the
# traces cover triangles closed before a block starts and inside it. The
# neighbour-count rules (recorded with every arrival counted by its own gather)
# run cl2000 in blocks, with a few arrivals one by one under BFS, and hp600,
# whose rows are too long for a block, one arrival at a time.
BLOCK_TRACES = {
    ("cl2000", "t"):
        "4a5387ec75cdfbcedfc90204ff27866739d827156b3f656904f64af05a0f3154",
    ("cl2000", "lt"):
        "0d3d09bf72f961997efdfbadf9a78fc085147b18a2b1398914073809b0c09cd8",
    ("cl2000", "et"):
        "0d3d09bf72f961997efdfbadf9a78fc085147b18a2b1398914073809b0c09cd8",
    ("cl2000", "hash"):
        "cf1020c8f4887318c74ce92dca1f062f351de1992a4bb600097d60718c3a5cc1",
    ("hp600", "t"):
        "048f79812b5ac21b50e3ade0b40f0ac2c8d5963e89d6d66598afce19cbf93013",
    ("hp600", "lt"):
        "623e380f02e24a743cf6cc07762584fc6a2e9cb30f0e12739d239d556621d587",
    ("hp600", "et"):
        "9fc32ae1d3e0dbddf610f8796b8ee9dc21062c1f8cf328ffb80fd2ed18000d92",
    ("hp600", "hash"):
        "0e99573915a63624702d32fa87a51dc9f70bb1074440f8e9b64e15966925cbee",
    ('cl2000', 'fennel'):
        "4e88871b009022219048285b0ad6b1f1c318e785a722bc3d3dbfea05158660c9",
    ('cl2000', 'fennel/interior_edge'):
        "5b1b3d4329140cc79c2c4503f419675668888539f5f25c7b16e837e25c3e246b",
    ('cl2000', 'ldg'):
        "4771bb692ea1ade117d96323e1d810165a2a3ad31ea9da9ec29b7c178e1c7dce",
    ('cl2000', 'edg'):
        "d2720ece308fd685329ea02a0edd7562d809aeb514ee95e1e853684d8e8c504c",
    ('cl2000', 'dg'):
        "f42697a332313267b872a9145be78fae1b9b58321af152452af0e5838928295f",
    ('cl2000', 'nn'):
        "96ed2eeda535796f864d14f6fb880a0e374bc376685bb1b28d529392a01e65e5",
    ('cl2000', 'balanced'):
        "e07304d31d92d64ff8178c19daa6906ea40317f8b8ec49273bef5a4f21d7fcde",
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


@pytest.mark.parametrize("bound, minimum",
                         [(1, 1), (512, 2), (partitioner.BLOCK, partitioner.MIN_BLOCK)])
def test_neighbour_blocks_leave_every_trace_unchanged(monkeypatch, bound, minimum):
    """Blocks of one arrival, blocks of a few, and the default split (blocks on
    cl2000, single arrivals on hp600) all give the BLOCK_TRACES."""
    default = (bound, minimum) == (partitioner.BLOCK, partitioner.MIN_BLOCK)
    monkeypatch.setattr(partitioner, "BLOCK", bound)
    monkeypatch.setattr(partitioner, "MIN_BLOCK", minimum)
    blocks = []
    counts = PartitionRun._counts
    monkeypatch.setattr(PartitionRun, "_counts", lambda run, owner, u, cu, b0, b:
                        blocks.append(b) or counts(run, owner, u, cu, b0, b))
    for graph_name in ("cl2000", "hp600"):
        for label in ("fennel", "fennel/interior_edge", "ldg", "edg", "dg", "nn", "balanced"):
            assert trace_digest(graph_name, label) == BLOCK_TRACES[graph_name, label], label
        if default:
            assert bool(blocks) == (graph_name == "cl2000") and min(blocks, default=64) >= 64
        else:
            assert 1 <= min(blocks) and (max(blocks) > 1) == (bound > 1)
            assert max(blocks) <= bound
        blocks.clear()


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
    for bound, minimum, span in ((1 << 12, 1, graph.SPAN), (1, 1, 1)):
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


def test_hash_builds_no_per_vertex_tables():
    g = random_gnp(60, 0.2, seed=8)
    run = PartitionRun(g, 4, "hash", CFG.resolve(g, 4), seed=1)
    run._assign(np.arange(g.n))
    assert not {"_mark", "_load", "_indptr"} & set(vars(run))
    assert run.snapshot.assigned_count == g.n


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
    plan = make_stream(g, order, seed)
    cfg = ObjectiveConfig(nu=nu, size_mode=size_mode)
    snap, _ = partition_stream(g, plan, k, heuristic, cfg, seed, tie_policy=tie)
    assert np.array_equal(snap.assignment,
                          reference_assignment(g, plan, k, heuristic, cfg, seed, tie))
    ref = build_snapshot(g, snap.assignment, k)
    assert snap.assigned_count == g.n
    assert snap.cut_edges == ref.cut_edges
    assert np.array_equal(snap.cluster_vertex_counts, ref.cluster_vertex_counts)
    assert np.array_equal(snap.cluster_internal_edges, ref.cluster_internal_edges)


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
