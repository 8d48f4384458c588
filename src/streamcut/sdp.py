"""Semidefinite relaxation of the shifted partition objective, with
random-hyperplane rounding into k = 2^t clusters."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .objective import check_pair_alpha

MAX_GRAM_DIM = 60


@dataclass(frozen=True)
class SdpProblem:
    """max sum_{(i,j) in E} y_ij + alpha * sum_{i<j} (1 - y_ij)
    s.t. y_ii = 1, y_ij >= 0, Y PSD."""

    n: int
    edges: np.ndarray  # (m, 2) ints, each edge once
    alpha: float

    def __post_init__(self):
        check_pair_alpha(self.alpha)

    @classmethod
    def from_graph(cls, g: Graph, alpha: float) -> "SdpProblem":
        return cls(n=g.n, edges=g.edge_array(), alpha=alpha)

    def objective_value(self, y: np.ndarray) -> float:
        """Evaluate the objective on a symmetric matrix y."""
        n = self.n
        off_sum = (y.sum() - np.trace(y)) / 2.0
        edge_sum = y[self.edges[:, 0], self.edges[:, 1]].sum()
        return float(edge_sum + self.alpha * (n * (n - 1) / 2.0 - off_sum))

    def gradient(self) -> np.ndarray:
        """Symmetric G with <G, Y> = objective(Y) - alpha*C(n,2)."""
        n = self.n
        grad = np.full((n, n), -self.alpha / 2.0)
        np.fill_diagonal(grad, 0.0)
        u, v = self.edges.T
        np.add.at(grad, (np.r_[u, v], np.r_[v, u]), 0.5)
        return grad


@dataclass(frozen=True)
class GramSolution:
    vectors: np.ndarray  # (n, r) unit rows
    sdp_value: float
    feasibility_residual: float
    converged: bool
    iterations: int

    @property
    def gram(self) -> np.ndarray:
        return self.vectors @ self.vectors.T


def _project_psd(y: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh((y + y.T) / 2.0)
    w = np.maximum(w, 0.0)
    return (q * w) @ q.T


def _clean(problem: SdpProblem, z: np.ndarray) -> tuple[np.ndarray, float]:
    """Pull an iterate onto the feasible set: PSD-project, rescale to a
    unit diagonal (a congruence, so positive semidefiniteness survives),
    then blend toward the all-ones matrix just enough to clear any
    remaining negative entries. The blend target is itself feasible, so
    feasibility becomes exact at a perturbation the size of the worst
    negative entry."""
    y = _project_psd(z)
    d = np.sqrt(np.maximum(np.diag(y), 1e-12))
    y = y / np.outer(d, d)
    np.fill_diagonal(y, 1.0)
    lowest = float(y.min())
    if lowest < 0.0:
        eps = -lowest / (1.0 - lowest)
        y = (1.0 - eps) * y + eps
        np.fill_diagonal(y, 1.0)
    return y, problem.objective_value(y)


def _residual(y: np.ndarray) -> float:
    diag_err = float(np.abs(np.diag(y) - 1.0).max())
    neg_entry = float(max(0.0, -y.min()))
    w = np.linalg.eigvalsh((y + y.T) / 2.0)
    neg_eig = float(max(0.0, -w.min()))
    return max(diag_err, neg_entry, neg_eig)


def solve_sdp(problem: SdpProblem, tol: float = 1e-7,
              max_iters: int = 20000) -> GramSolution:
    """
    Consensus splitting over the three constraint sets (PSD cone via
    eigenvalue clamping, unit diagonal, entrywise nonnegativity), with the
    linear objective folded into the PSD block. Returns the best feasible
    iterate seen; converged=False if residuals never dropped below tol.
    """
    n = problem.n
    if n > MAX_GRAM_DIM:
        raise ValueError(f"gram dimension {n} exceeds desk-scale guard {MAX_GRAM_DIM}")
    if n == 0:
        raise ValueError("empty problem")
    grad = problem.gradient()
    step = grad / (np.linalg.norm(grad) or 1.0)

    z = np.eye(n)
    u1, u2, u3 = np.zeros((3, n, n))
    best_y, best_val = _clean(problem, z)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        x1 = _project_psd(z - u1 + step)
        x2 = z - u2
        np.fill_diagonal(x2, 1.0)
        x3 = np.maximum(z - u3, 0.0)
        z_new = (x1 + u1 + x2 + u2 + x3 + u3) / 3.0
        u1 += x1 - z_new
        u2 += x2 - z_new
        u3 += x3 - z_new
        shift = float(np.abs(z_new - z).max())
        z = z_new
        if it % 50 == 0 or shift < tol or it == max_iters:
            primal = max(float(np.abs(x - z).max()) for x in (x1, x2, x3))
            y, val = _clean(problem, z)
            if val > best_val:
                best_y, best_val = y, val
            if primal < tol and shift < tol:
                converged = True
                break

    w, q = np.linalg.eigh(best_y)
    w = np.maximum(w, 0.0)
    vectors = q * np.sqrt(w)
    norms = np.linalg.norm(vectors, axis=1)
    vectors = vectors / np.maximum(norms, 1e-12)[:, None]
    gram = vectors @ vectors.T
    return GramSolution(
        vectors=vectors,
        sdp_value=problem.objective_value(gram),
        feasibility_residual=_residual(gram),
        converged=converged,
        iterations=it,
    )


@dataclass(frozen=True)
class RoundingResult:
    labels: np.ndarray        # (n, trials) cluster ids in [0, k)
    shifted_values: np.ndarray  # per-trial shifted objective
    mean_shifted: float


def _require_power_of_two(k: int) -> int:
    t = int(round(math.log2(k))) if k >= 2 else 0
    if k < 2 or 2 ** t != k:
        raise ValueError(f"k must be a power of two >= 2 for hyperplane rounding, got {k}")
    return t


def pair_shifted_value(n: int, edges: np.ndarray, assignment: np.ndarray,
                       alpha: float) -> float | np.ndarray:
    """Shifted objective of an integral partition: internal edges plus
    alpha times the number of cross-cluster vertex pairs. An (n,)
    assignment gives a float; an (n, T) batch gives its T values, column
    by column."""
    check_pair_alpha(alpha)
    labels = np.asarray(assignment)
    cols = labels[:, None] if labels.ndim == 1 else labels
    trials = cols.shape[1]
    internal = (cols[edges[:, 0]] == cols[edges[:, 1]]).sum(axis=0)
    # bin label*T + t is (label, column t); a negative label stays negative
    bins = (int(cols.max(initial=0)) + 1) * trials
    counts = np.bincount((cols * trials + np.arange(trials)).ravel(), minlength=bins)
    same_pairs = (counts * (counts - 1) // 2).reshape(-1, trials).sum(axis=0)
    values = internal + alpha * (n * (n - 1) // 2 - same_pairs)
    return float(values[0]) if labels.ndim == 1 else values


def round_hyperplanes(sol: GramSolution, k: int, seed: int, trials: int,
                      alpha: float, edges: np.ndarray) -> RoundingResult:
    """
    SDP-Relax rounding: per trial draw t = log2(k) uniform unit vectors;
    a vertex's cluster is the t-bit sign pattern of its projections.
    Returns all rounded partitions and their shifted-objective values.
    """
    t = _require_power_of_two(k)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, r = sol.vectors.shape
    rng = np.random.Generator(np.random.PCG64(seed))
    dirs = rng.standard_normal((r, t * trials))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=0), 1e-300)
    signs = (sol.vectors @ dirs) >= 0.0  # (n, t*trials)
    bits = signs.reshape(n, trials, t)
    weights = (1 << np.arange(t)).astype(np.int64)
    labels = (bits * weights).sum(axis=2)  # (n, trials)
    values = pair_shifted_value(n, edges, labels, alpha)
    return RoundingResult(labels=labels, shifted_values=values,
                          mean_shifted=float(values.mean()))


def approximation_ratio_bound(k: int) -> float:
    """min(log k / (pi * ln2 * k), 1/2) for k = 2^t."""
    _require_power_of_two(k)
    return min(math.log(k) / (math.pi * math.log(2.0) * k), 0.5)
