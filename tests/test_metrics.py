import math

import numpy as np
import pytest

from streamcut.graph import from_edges
from streamcut.metrics import (CSV_COLUMNS, RunResult, aggregate_rows,
                               compute_lambda, compute_rho, error_row,
                               evaluate_run, result_to_row)
from streamcut.objective import ObjectiveConfig, build_snapshot
from conftest import random_gnp


def make_result(**overrides):
    base = dict(graph="g", n=10, m=20, k=2, gamma=1.5, alpha=1.0,
                nu=math.inf, order="random", heuristic="fennel", seed=1,
                lam=0.25, rho=1.1, f=3.0, g=17.0, runtime_ms=1.234,
                threshold_violations=0)
    base.update(overrides)
    return RunResult(**base)


def test_lambda_and_rho_values(two_triangles):
    snap = build_snapshot(two_triangles, np.array([0, 0, 0, 1, 1, 1]), 2)
    assert compute_lambda(two_triangles, snap) == pytest.approx(1 / 7)
    assert compute_rho(snap, 6, 2) == pytest.approx(1.0)
    collapsed = build_snapshot(two_triangles, np.zeros(6, dtype=np.int64), 2)
    assert compute_rho(collapsed, 6, 2) == pytest.approx(2.0)


def test_lambda_zero_on_edgeless_graph():
    g = from_edges(np.array([[0, 0]]), id_map=np.arange(2))
    snap = build_snapshot(g, np.array([0, 1]), 2)
    assert g.m == 0
    assert compute_lambda(g, snap) == 0.0


def test_lambda_complements_internal_fraction():
    for seed in range(6):
        g = random_gnp(25, 0.3, seed=seed)
        rng = np.random.default_rng(seed)
        snap = build_snapshot(g, rng.integers(0, 3, size=g.n), 3)
        lam = compute_lambda(g, snap)
        internal = snap.cluster_internal_edges.sum()
        assert lam + internal / g.m == pytest.approx(1.0)


def test_evaluate_run_is_consistent():
    g = random_gnp(20, 0.3, seed=4)
    rng = np.random.default_rng(4)
    snap = build_snapshot(g, rng.integers(0, 2, size=g.n), 2)
    cfg = ObjectiveConfig(gamma=1.5)
    r = evaluate_run(g, "demo", snap, cfg, "random", "fennel", 7, 2.5, 0)
    assert r.graph == "demo" and r.n == g.n and r.m == g.m
    assert r.g == pytest.approx(g.m - r.f)
    assert r.lam == compute_lambda(g, snap)
    assert r.alpha == cfg.resolve(g, 2).alpha_value


def test_result_row_formatting():
    row = result_to_row(make_result())
    assert len(row) == len(CSV_COLUMNS)
    as_map = dict(zip(CSV_COLUMNS, row))
    assert as_map["lambda"] == "0.250000"
    assert as_map["runtime_ms"] == "1.234"
    assert as_map["nu"] == "inf"
    assert as_map["gamma"] == "1.5"
    assert as_map["error"] == ""


def test_infinite_objective_keeps_its_sign():
    """f = inf, g = -inf (an overflowing cost) print with their signs in run and
    aggregate rows, as partition prints them."""
    r = make_result(f=math.inf, g=-math.inf)
    as_map = dict(zip(CSV_COLUMNS, result_to_row(r)))
    assert (as_map["f"], as_map["g"]) == ("inf", "-inf")
    mean, std = (dict(zip(CSV_COLUMNS, row)) for row in aggregate_rows([r]))
    assert (mean["f"], mean["g"]) == ("inf", "-inf")
    assert (std["f"], std["g"]) == ("0.000000", "0.000000")


def test_error_row_shape():
    row = error_row("g", 2, 1.5, "auto", math.inf, "random", "fennel", 3,
                    "boom")
    assert len(row) == len(CSV_COLUMNS)
    as_map = dict(zip(CSV_COLUMNS, row))
    assert as_map["error"] == "boom"
    assert as_map["lambda"] == ""
    assert as_map["seed"] == "3"


def test_aggregates_group_and_reduce():
    rs = [make_result(seed=1, lam=0.2, rho=1.0, runtime_ms=1.0),
          make_result(seed=2, lam=0.4, rho=1.2, runtime_ms=3.0),
          make_result(seed=1, heuristic="hash", lam=0.5)]
    rows = aggregate_rows(rs)
    # one mean and one std row per (graph, k, gamma, nu, order, heuristic)
    by_kind = {}
    for row in rows:
        as_map = dict(zip(CSV_COLUMNS, row))
        by_kind[(as_map["heuristic"], as_map["seed"])] = as_map
    fennel_mean = by_kind[("fennel", "mean")]
    fennel_std = by_kind[("fennel", "std")]
    assert fennel_mean["lambda"] == "0.300000"
    assert float(fennel_std["lambda"]) == pytest.approx(
        np.std([0.2, 0.4], ddof=1), abs=1e-6)
    # a single-seed group aggregates with zero spread
    assert by_kind[("hash", "std")]["lambda"] == "0.000000"


def test_csv_column_order_is_frozen():
    assert CSV_COLUMNS == [
        "graph", "n", "m", "k", "gamma", "alpha", "nu", "order", "heuristic",
        "seed", "lambda", "rho", "f", "g", "runtime_ms",
        "threshold_violations", "error"]
