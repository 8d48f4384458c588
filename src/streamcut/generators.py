"""Synthetic graphs: hidden-partition and Chung-Lu power-law models."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, from_edges

_PAIR_BLOCK = 4_000_000  # pair draws per chunk; fixed so seeds stay meaningful


@dataclass(frozen=True)
class HpParams:
    """
    Hidden partition HP(n, k, p, q): uniform cluster labels, same-cluster
    pairs joined with probability p (within), cross pairs with q (across).
    """

    n: int
    k: int
    p: float
    q: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be >= 1")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError("p and q must be probabilities")
        if self.q > self.p:
            warnings.warn("q > p: cross-cluster pairs denser than planted clusters",
                          stacklevel=2)


@dataclass(frozen=True)
class ClParams:
    """
    Chung-Lu CL(n, delta): expected-degree weights following a power law
    with slope delta; pair (i, j) joined with probability min(1, w_i*w_j/W).

    Weights are w_i = c*(i+i0)^(-1/(delta-1)). c pins the average degree;
    i0 (auto-chosen unless given) keeps max(w) <= sqrt(W) so the min() never
    truncates.
    """

    n: int
    delta: float
    avg_degree: float = 10.0
    i0: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.delta > 1.0:  # NaN fails every comparison
            raise ValueError("delta must be > 1")
        if not 0 < self.avg_degree < self.n:
            raise ValueError("avg_degree must be in (0, n)")
        if self.i0 is not None and self.i0 < 1:
            raise ValueError("i0 must be >= 1")


def _sample_pairs(rng: np.random.Generator, n: int, prob_row_block) -> np.ndarray:
    """Bernoulli-sample the upper triangle in row blocks; returns (E, 2) edges."""
    chunks = []
    block = max(1, _PAIR_BLOCK // n)
    cols = np.arange(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        rows = np.arange(lo, hi)
        prob = prob_row_block(rows)
        hit = (rng.random((hi - lo, n)) < prob) & (cols[None, :] > rows[:, None])
        ii, jj = np.nonzero(hit)
        if len(ii):
            chunks.append(np.column_stack([rows[ii], jj]))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks)


def generate_hp(params: HpParams):
    """Sample HP(n,k,p,q); returns (Graph, ground-truth labels)."""
    rng = np.random.Generator(np.random.PCG64(params.seed))
    labels = rng.integers(params.k, size=params.n)

    def prob(rows):
        same = labels[rows][:, None] == labels[None, :]
        return np.where(same, params.p, params.q)

    edges = _sample_pairs(rng, params.n, prob)
    g = from_edges(edges, id_map=np.arange(params.n))
    return g, labels


def cl_weights(params: ClParams) -> np.ndarray:
    """Expected-degree sequence for CL(n, delta); sums to n*avg_degree."""
    exponent = -1.0 / (params.delta - 1.0)
    target = params.n * params.avg_degree

    def weights(i0: int) -> np.ndarray:
        base = (np.arange(params.n, dtype=np.float64) + i0) ** exponent
        return base * (target / base.sum())

    if params.i0 is not None:
        return weights(params.i0)
    i0 = 1
    w = weights(i0)
    while w[0] > np.sqrt(target) and i0 < params.n:
        i0 += 1
        w = weights(i0)
    return w


def generate_cl(params: ClParams) -> Graph:
    """Sample CL(n, delta) with pair probability min(1, w_i*w_j/W)."""
    w = cl_weights(params)
    total = w.sum()
    if total <= 0:
        raise ValueError("degenerate weight sequence")
    rng = np.random.Generator(np.random.PCG64(params.seed))

    def prob(rows):
        return np.minimum(1.0, np.outer(w[rows], w) / total)

    edges = _sample_pairs(rng, params.n, prob)
    return from_edges(edges, id_map=np.arange(params.n))
