"""Exhaustive ground truth for tiny instances: the optimal k-partition."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .objective import ObjectiveConfig

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


def _enumerate_min_f(g: Graph, k: int, batch_cost) -> tuple[np.ndarray, float, int]:
    """
    Scan all labeled assignments with vertex 0 pinned to cluster 0,
    minimizing batch_cost (vectorized over batches of assignments).
    First minimizer in enumeration order wins, so results are stable.
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
    return best_assignment, best_f, total


def _cut_and_sizes(g: Graph, k: int, A: np.ndarray):
    cut = np.zeros(len(A), dtype=np.int64)
    for u, v in g.edge_array():
        cut += A[:, u] != A[:, v]
    sizes = np.stack([(A == c).sum(axis=1) for c in range(k)], axis=1)
    return cut, sizes


def brute_force_optimal(g: Graph, k: int, config: ObjectiveConfig) -> OracleResult:
    """
    Global optimum of f (equivalently g) over all labeled k-assignments.
    Empty clusters are allowed; vertex 0 is pinned to cluster 0 (pure
    symmetry reduction). Guarded at k^n <= 1e8.
    """
    config = config.resolve(g, k)
    a, gm = config.alpha_value, config.gamma

    if config.size_mode == "vertex":
        def batch_cost(A):
            cut, sizes = _cut_and_sizes(g, k, A)
            return cut + (a * sizes.astype(np.float64) ** gm).sum(axis=1)
    else:
        edges = g.edge_array()

        def batch_cost(A):
            cut = np.zeros(len(A), dtype=np.int64)
            internal = np.zeros((len(A), k), dtype=np.float64)
            rows = np.arange(len(A))
            for u, v in edges:
                same = A[:, u] == A[:, v]
                cut += ~same
                internal[rows[same], A[same, u]] += 1.0
            return cut + (a * internal ** gm).sum(axis=1)

    assignment, best_f, total = _enumerate_min_f(g, k, batch_cost)
    best_g = g.m - best_f
    shift_base = g.n if config.size_mode == "vertex" else g.m
    best_g_shifted = best_g + a * float(shift_base) ** gm
    return OracleResult(assignment, best_f, best_g, best_g_shifted, total)


def brute_force_pair_optimal(g: Graph, k: int, alpha: float) -> OracleResult:
    """
    Optimum of the pairwise-cost family: f = cut + alpha*sum_i C(|S_i|,2),
    whose shifted maximization form is sum_i e(S_i,S_i) + alpha*(cross
    pairs). This is the integral problem the semidefinite relaxation
    bounds; best_g_shifted = best_g + alpha*C(n,2) holds exactly here.
    alpha must be finite and >= 0 (0 keeps only the cut).
    """
    if not 0 <= alpha < np.inf:  # NaN fails every comparison
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")

    def batch_cost(A):
        cut, sizes = _cut_and_sizes(g, k, A)
        s = sizes.astype(np.float64)
        return cut + alpha * (s * (s - 1.0) / 2.0).sum(axis=1)

    assignment, best_f, total = _enumerate_min_f(g, k, batch_cost)
    best_g = g.m - best_f
    best_g_shifted = best_g + alpha * g.n * (g.n - 1) / 2.0
    return OracleResult(assignment, best_f, best_g, best_g_shifted, total)
