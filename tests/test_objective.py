import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamcut import graph
from streamcut.generators import HpParams, generate_hp
from streamcut.objective import (ObjectiveConfig, PartitionSnapshot, SnapshotError,
                                 build_snapshot, cost, delta_g, eval_f, eval_g,
                                 eval_g_shifted, eval_modularity_form,
                                 marginal_cost, recount, resolve_alpha)
from conftest import random_gnp

GAMMAS = [1.0, 1.5, 2.0, 3.0]


def partial_f(g, assignment, config):
    """f of a possibly partial assignment, recomputed from scratch."""
    edges = g.edge_array()
    au, av = assignment[edges[:, 0]], assignment[edges[:, 1]]
    both = (au >= 0) & (av >= 0)
    cut = int((au[both] != av[both]).sum())
    sizes = np.bincount(assignment[assignment >= 0])
    return cut + cost(config, sizes).sum()


def test_alpha_scaling_rule():
    g = random_gnp(50, 0.3, seed=1)
    assert resolve_alpha(g, 8, 1.5) == pytest.approx(
        g.m * 8 ** 0.5 / 50 ** 1.5)
    cfg = ObjectiveConfig(gamma=1.5).resolve(g, 8)
    assert cfg.alpha_value == resolve_alpha(g, 8, 1.5)


def test_auto_alpha_on_an_edgeless_graph_names_the_cause():
    """alpha 'auto' scales by m, so on a graph with no edges it would be 0, which a
    config rejects; resolving it says why instead. An explicit alpha still resolves."""
    g = generate_hp(HpParams(n=20, k=2, p=0.0, q=0.0))[0]
    assert (g.n, g.m) == (20, 0)
    with pytest.raises(ValueError, match="the graph has no edges: give alpha"):
        ObjectiveConfig().resolve(g, 2)
    assert ObjectiveConfig(alpha=0.5).resolve(g, 2).alpha_value == 0.5


def test_alpha_must_be_resolved_before_use():
    with pytest.raises(ValueError):
        ObjectiveConfig().alpha_value


@pytest.mark.parametrize("kwargs", [
    dict(gamma=0.5), dict(nu=0.9), dict(alpha=0.0), dict(alpha=-1.0),
    dict(size_mode="cluster"), dict(marginal_mode="midpoint")])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ObjectiveConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(gamma=math.nan), dict(gamma=math.inf), dict(gamma=-math.inf),
    dict(nu=math.nan), dict(alpha=math.nan), dict(alpha=math.inf)])
def test_config_rejects_non_finite(kwargs):
    (name, value), = kwargs.items()
    with pytest.raises(ValueError, match=f"{name} must be"):
        ObjectiveConfig(**kwargs)


def test_config_allows_infinite_nu():
    assert ObjectiveConfig(nu=math.inf).nu == math.inf


@pytest.mark.parametrize("gamma", GAMMAS)
def test_discrete_marginal_matches_cost_difference(gamma):
    cfg = ObjectiveConfig(gamma=gamma, alpha=0.7, marginal_mode="discrete")
    x = np.arange(0, 50, dtype=np.float64)
    np.testing.assert_allclose(
        marginal_cost(cfg, x), cost(cfg, x + 1) - cost(cfg, x), rtol=1e-12)


def test_gamma_one_marginal_is_constant_alpha():
    for mode in ("discrete", "derivative"):
        cfg = ObjectiveConfig(gamma=1.0, alpha=2.5, marginal_mode=mode)
        np.testing.assert_allclose(marginal_cost(cfg, np.arange(20)), 2.5)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_cost_is_supermodular(gamma):
    """Marginal differences c(x+1)-c(x) never decrease in x."""
    cfg = ObjectiveConfig(gamma=gamma, alpha=1.3)
    x = np.arange(0, 200, dtype=np.float64)
    diffs = cost(cfg, x + 1) - cost(cfg, x)
    assert np.all(np.diff(diffs) >= -1e-12)


@pytest.mark.parametrize("span", [1, 8, None])
@given(n=st.integers(2, 25), p=st.floats(0.0, 0.6), seed=st.integers(0, 10 ** 6),
       k=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_recount_matches_per_edge_count(span, n, p, seed, k):
    """recount over a partial assignment equals a per-edge count, whatever the span bound."""
    g = random_gnp(n, p, seed=seed % 997)
    rng = np.random.default_rng(seed)
    snap = PartitionSnapshot(g, k)
    snap.assignment = np.where(rng.random(n) < 0.7, rng.integers(0, k, size=n), -1)
    with pytest.MonkeyPatch.context() as mp:
        if span is not None:
            mp.setattr(graph, "SPAN", span)
        recount(snap)
    a = snap.assignment.tolist()
    internal, cut = [0] * k, 0
    for u, v in g.edge_array().tolist():
        if a[u] >= 0 and a[v] >= 0:
            if a[u] == a[v]:
                internal[a[u]] += 1
            else:
                cut += 1
    assert snap.assigned_count == sum(c >= 0 for c in a)
    assert snap.cluster_vertex_counts.tolist() == [a.count(c) for c in range(k)]
    assert snap.cluster_internal_edges.tolist() == internal
    assert snap.cut_edges == cut


def test_assigned_count_is_the_cluster_sizes_sum(triangle):
    """The placed count is read off the vertex counters; no second counter can be set."""
    snap = PartitionSnapshot(triangle, 2)
    with pytest.raises(AttributeError):
        snap.assigned_count = 3
    assert snap.assigned_count == 0
    snap.assignment = np.array([1, -1, 1])
    recount(snap)
    assert type(snap.assigned_count) is int and snap.assigned_count == 2


def test_eval_requires_full_assignment(triangle):
    snap = PartitionSnapshot(triangle, 2)
    with pytest.raises(SnapshotError):
        eval_f(snap, ObjectiveConfig(alpha=1.0))


def test_build_snapshot_validates(triangle):
    with pytest.raises(SnapshotError):
        build_snapshot(triangle, np.array([0, 1]), 2)
    with pytest.raises(SnapshotError):
        build_snapshot(triangle, np.array([0, 1, 2]), 2)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_f_and_g_decompositions(gamma):
    """f = cut + sum c(s_i); g = m - f; decomposed g = sum e_i - sum c(s_i)."""
    for seed in range(8):
        g = random_gnp(16, 0.4, seed=seed)
        rng = np.random.default_rng(seed)
        snap = build_snapshot(g, rng.integers(0, 3, size=g.n), 3)
        cfg = ObjectiveConfig(gamma=gamma).resolve(g, 3)
        f = eval_f(snap, cfg)
        manual_f = snap.cut_edges + cost(cfg, snap.cluster_vertex_counts).sum()
        assert f == pytest.approx(manual_f, rel=1e-12)
        gv = eval_g(snap, cfg)
        assert gv == pytest.approx(g.m - f, rel=1e-12, abs=1e-12)
        decomposed = (snap.cluster_internal_edges.sum()
                      - cost(cfg, snap.cluster_vertex_counts).sum())
        assert gv == pytest.approx(decomposed, abs=1e-9)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("size_mode", ["vertex", "interior_edge"])
def test_shifted_objective_nonnegative(gamma, size_mode):
    for seed in range(10):
        g = random_gnp(14, 0.5, seed=seed)
        rng = np.random.default_rng(seed + 99)
        k = int(rng.integers(1, 5))
        snap = build_snapshot(g, rng.integers(0, k, size=g.n), k)
        cfg = ObjectiveConfig(gamma=gamma, size_mode=size_mode).resolve(g, k)
        assert eval_g_shifted(snap, cfg) >= -1e-9


def test_edge_size_mode_charges_interior_edges(two_triangles):
    snap = build_snapshot(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
    cfg = ObjectiveConfig(gamma=2.0, alpha=0.1, size_mode="interior_edge")
    # one cut edge, both clusters hold 3 interior edges
    assert eval_f(snap, cfg) == pytest.approx(1 + 0.1 * (9 + 9))


def test_modularity_form_value(two_triangles):
    snap = build_snapshot(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
    # 6 interior edges, each cluster has C(3,2)=3 vertex pairs
    assert eval_modularity_form(snap, p=0.5) == pytest.approx(6 - 0.5 * 6)


@pytest.mark.parametrize("marginal_mode", ["discrete", "derivative"])
@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_delta_g_ranks_clusters_like_exact_f_change(marginal_mode, seed):
    """In discrete mode the greedy score equals the exact change of g;
    both modes must agree with their own recomputed f deltas."""
    g = random_gnp(12, 0.4, seed=seed % 997)
    rng = np.random.default_rng(seed)
    k = 3
    snap = PartitionSnapshot(g, k)
    order = rng.permutation(g.n)
    for v in order[: g.n // 2]:
        snap.assignment[v] = rng.integers(0, k)
    recount(snap)
    v = int(order[g.n // 2])
    cfg = ObjectiveConfig(gamma=1.5, marginal_mode=marginal_mode).resolve(g, k)
    counts = np.array([(snap.assignment[g.neighbors(v)] == c).sum()
                       for c in range(k)], dtype=np.float64)
    scores = delta_g(snap.cluster_vertex_counts, cfg, counts)
    assert scores.shape == (k,)
    if marginal_mode == "discrete":
        # score differences must equal exact f differences, so the greedy
        # argmax is the exact one-step optimum
        trials = []
        for c in range(k):
            trial = snap.assignment.copy()
            trial[v] = c
            trials.append(partial_f(g, trial, cfg))
        for a in range(k):
            for b in range(k):
                assert scores[a] - scores[b] == pytest.approx(
                    trials[b] - trials[a], abs=1e-9)
    else:
        # derivative mode keeps the neighbor term exact; the size term is
        # the derivative at the current load
        sizes = snap.cluster_vertex_counts.astype(np.float64)
        expected = counts - cfg.alpha_value * 1.5 * sizes ** 0.5
        np.testing.assert_allclose(scores, expected, rtol=1e-12)
