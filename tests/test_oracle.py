import itertools

import numpy as np
import pytest

from streamcut.objective import ObjectiveConfig, build_snapshot, eval_g
from streamcut.oracle import (InstanceTooLarge, brute_force_optimal,
                              brute_force_pair_optimal)
from streamcut.partitioner import HEURISTICS, partition_stream
from streamcut.stream import make_stream
from conftest import random_gnp


def exhaustive_best_f(g, k, config):
    """Independent reference: scan all k^n labelings with plain Python."""
    config = config.resolve(g, k)
    edges = g.edge_array()
    best = np.inf
    for labels in itertools.product(range(k), repeat=g.n):
        a = np.array(labels)
        cut = int((a[edges[:, 0]] != a[edges[:, 1]]).sum())
        if config.size_mode == "vertex":
            x = np.bincount(a, minlength=k)
        else:
            same = a[edges[:, 0]] == a[edges[:, 1]]
            x = np.bincount(a[edges[same, 0]], minlength=k)
        f = cut + (config.alpha_value * x.astype(float) ** config.gamma).sum()
        best = min(best, f)
    return best


def test_triangle_stays_whole():
    g = random_gnp(3, 1.0, seed=0)  # the triangle
    cfg = ObjectiveConfig(gamma=1.5, alpha=0.1)
    res = brute_force_optimal(g, 2, cfg)
    assert np.array_equal(res.best_assignment, [0, 0, 0])
    assert res.best_f == pytest.approx(0.1 * 3 ** 1.5)
    assert res.partitions_enumerated == 2 ** 2  # vertex 0 pinned


@pytest.mark.parametrize("size_mode", ["vertex", "interior_edge"])
def test_oracle_matches_plain_enumeration(size_mode):
    for seed in range(4):
        g = random_gnp(6, 0.5, seed=seed)
        cfg = ObjectiveConfig(gamma=1.5, alpha=0.3, size_mode=size_mode)
        res = brute_force_optimal(g, 2, cfg)
        assert res.best_f == pytest.approx(exhaustive_best_f(g, 2, cfg),
                                           abs=1e-9)


def test_oracle_identities():
    g = random_gnp(7, 0.4, seed=2)
    cfg = ObjectiveConfig(gamma=1.5).resolve(g, 3)
    res = brute_force_optimal(g, 3, cfg)
    assert res.best_g == pytest.approx(g.m - res.best_f, abs=1e-9)
    assert res.best_g_shifted == pytest.approx(
        res.best_g + cfg.alpha_value * g.n ** 1.5, abs=1e-9)
    # pinning vertex 0 loses nothing: the objective ignores label names
    assert res.best_assignment[0] == 0


def test_oracle_is_deterministic():
    g = random_gnp(6, 0.5, seed=9)
    cfg = ObjectiveConfig(gamma=2.0, alpha=0.2)
    a = brute_force_optimal(g, 3, cfg)
    b = brute_force_optimal(g, 3, cfg)
    assert np.array_equal(a.best_assignment, b.best_assignment)
    assert a.best_f == b.best_f


def test_size_guard():
    g = random_gnp(30, 0.2, seed=0)
    with pytest.raises(InstanceTooLarge):
        brute_force_optimal(g, 4, ObjectiveConfig(alpha=1.0))


@pytest.mark.parametrize("call", [
    lambda g: brute_force_optimal(g, 0, ObjectiveConfig(alpha=0.5)),
    lambda g: brute_force_optimal(g, -1, ObjectiveConfig(alpha=0.5)),
    lambda g: brute_force_pair_optimal(g, 0, 1.0),
    lambda g: brute_force_pair_optimal(g, 2, float("nan")),
    lambda g: brute_force_pair_optimal(g, 2, float("inf")),
    lambda g: brute_force_pair_optimal(g, 2, -0.5),
], ids=["k0", "k-1", "pair_k0", "pair_alpha_nan", "pair_alpha_inf", "pair_alpha_neg"])
def test_oracle_rejects_k_below_one_and_bad_pairwise_alpha(triangle, call):
    """k < 1 enumerates nothing, and a NaN or infinite alpha prices every
    assignment at NaN or inf, so no assignment would be best. A negative
    alpha leaves the nonnegative family the relaxation bounds."""
    with pytest.raises(ValueError, match="k must be >= 1|alpha must be finite"):
        call(triangle)


def test_pair_oracle_alpha_zero_is_the_min_cut(triangle):
    res = brute_force_pair_optimal(triangle, 2, 0.0)
    assert res.best_f == 0.0 and np.array_equal(res.best_assignment, [0, 0, 0])


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_no_heuristic_beats_the_oracle(heuristic):
    cfg = ObjectiveConfig(gamma=1.5)
    for seed in range(5):
        g = random_gnp(8, 0.45, seed=seed)
        oracle = brute_force_optimal(g, 2, cfg.resolve(g, 2))
        plan = make_stream(g, "random", seed=seed)
        snap, _ = partition_stream(g, plan, 2, heuristic, cfg, seed=seed)
        got = eval_g(snap, cfg.resolve(g, 2))
        assert got <= oracle.best_g + 1e-9


def test_pair_oracle_matches_quadratic_power_family():
    """Pairwise cost alpha*C(x,2) equals the gamma=2 power family at
    alpha/2 up to the constant alpha*n/2, so the optima must line up."""
    alpha = 0.6
    for seed in range(4):
        g = random_gnp(7, 0.5, seed=seed)
        pair = brute_force_pair_optimal(g, 3, alpha)
        power = brute_force_optimal(
            g, 3, ObjectiveConfig(gamma=2.0, alpha=alpha / 2))
        assert pair.best_g == pytest.approx(
            power.best_g + alpha * g.n / 2, abs=1e-9)


def test_pair_oracle_shift():
    g = random_gnp(6, 0.5, seed=3)
    res = brute_force_pair_optimal(g, 2, 0.4)
    assert res.best_g_shifted == pytest.approx(
        res.best_g + 0.4 * g.n * (g.n - 1) / 2, abs=1e-9)
    # the shifted optimum of a nonneg family is itself nonneg
    assert res.best_g_shifted >= 0.0


def test_pair_oracle_enumeration_value():
    """Cross-check best shifted value against plain enumeration."""
    g = random_gnp(6, 0.5, seed=8)
    alpha = 0.3
    edges = g.edge_array()
    best = -np.inf
    for labels in itertools.product(range(2), repeat=g.n):
        a = np.array(labels)
        internal = int((a[edges[:, 0]] == a[edges[:, 1]]).sum())
        counts = np.bincount(a, minlength=2)
        same_pairs = (counts * (counts - 1) // 2).sum()
        cross = g.n * (g.n - 1) // 2 - same_pairs
        best = max(best, internal + alpha * cross)
    res = brute_force_pair_optimal(g, 2, alpha)
    assert res.best_g_shifted == pytest.approx(best, abs=1e-9)


def test_oracle_beats_every_snapshot_on_small_graph(two_triangles):
    cfg = ObjectiveConfig(gamma=1.5, alpha=0.5)
    res = brute_force_optimal(two_triangles, 2, cfg)
    # the planted split is the optimum here
    snap = build_snapshot(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
    assert res.best_g == pytest.approx(eval_g(snap, cfg), abs=1e-9)
