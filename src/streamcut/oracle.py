"""Exhaustive ground truth for tiny instances: the optimal k-partition."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .objective import ObjectiveConfig, check_pair_alpha, cost

MAX_ASSIGNMENTS = 10 ** 8


class InstanceTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class OracleResult:
    best_assignment: np.ndarray
    best_f: float
    best_g: float
    best_g_shifted: float
    partitions_enumerated: int


def _optimum(g: Graph, k: int, batch_cost, shift: float) -> OracleResult:
    """
    Scan all labeled assignments with vertex 0 pinned to cluster 0,
    minimizing f = batch_cost (vectorized over batches of assignments);
    g = m - f and the shifted g = g + shift. First minimizer in
    enumeration order wins, so results are stable.
    """
    n = g.n
    if k < 1:  # k=0 would enumerate nothing and return no assignment
        raise ValueError(f"k must be >= 1, got {k}")
    if k ** n > MAX_ASSIGNMENTS:
        raise InstanceTooLarge(
            f"k^n = {k ** n} labeled assignments exceeds the {MAX_ASSIGNMENTS} guard")
    total = k ** max(n - 1, 0)
    powers = k ** np.arange(max(n - 1, 0), dtype=np.int64)
    best_f = np.inf
    best_assignment = None
    batch = 200_000
    for lo in range(0, total, batch):
        idx = np.arange(lo, min(lo + batch, total), dtype=np.int64)
        A = np.zeros((len(idx), n), dtype=np.int64)
        for j in range(1, n):
            A[:, j] = (idx // powers[j - 1]) % k
        fvals = batch_cost(A)
        i = int(np.argmin(fvals))
        if fvals[i] < best_f:
            best_f = float(fvals[i])
            best_assignment = A[i].copy()
    best_g = g.m - best_f
    return OracleResult(best_assignment, best_f, best_g, best_g + shift, total)


def _cut_and_sizes(g: Graph, k: int, A: np.ndarray, interior: bool):
    """Per row of A: the cut edges, and the k cluster sizes x, counted as
    vertices or, if interior, as interior edges."""
    rows = np.arange(len(A))
    cut = np.zeros(len(A), dtype=np.int64)
    inside = np.zeros((len(A), k), dtype=np.int64)
    for u, v in g.edge_array():
        same = A[:, u] == A[:, v]
        cut += ~same
        if interior:
            inside[rows[same], A[same, u]] += 1
    if interior:
        return cut, inside
    return cut, np.stack([(A == c).sum(axis=1) for c in range(k)], axis=1)


def brute_force_optimal(g: Graph, k: int, config: ObjectiveConfig) -> OracleResult:
    """
    Global optimum of f (equivalently g) over all labeled k-assignments.
    Empty clusters are allowed; vertex 0 is pinned to cluster 0 (pure
    symmetry reduction). Guarded at k^n <= 1e8.
    """
    config = config.resolve(g, k)
    interior = config.size_mode == "interior_edge"

    def batch_cost(A):
        cut, x = _cut_and_sizes(g, k, A, interior)
        return cut + cost(config, x).sum(axis=1)

    shift_base = g.m if interior else g.n
    return _optimum(g, k, batch_cost, config.alpha_value * float(shift_base) ** config.gamma)


def brute_force_pair_optimal(g: Graph, k: int, alpha: float) -> OracleResult:
    """
    Optimum of the pairwise-cost family: f = cut + alpha*sum_i C(|S_i|,2),
    whose shifted maximization form is sum_i e(S_i,S_i) + alpha*(cross
    pairs). This is the integral problem the semidefinite relaxation
    bounds; best_g_shifted = best_g + alpha*C(n,2) holds exactly here.
    alpha must be finite and >= 0 (0 keeps only the cut).
    """
    check_pair_alpha(alpha)

    def batch_cost(A):
        cut, sizes = _cut_and_sizes(g, k, A, interior=False)
        s = sizes.astype(np.float64)
        return cut + alpha * (s * (s - 1.0) / 2.0).sum(axis=1)

    return _optimum(g, k, batch_cost, alpha * g.n * (g.n - 1) / 2.0)
