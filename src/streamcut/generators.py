"""Synthetic graphs: hidden-partition and Chung-Lu power-law models."""
from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _from_keys

# uniforms drawn per block of rows (one row at least). It bounds memory only:
# the draws are taken row-major, so any block size gives the same uniforms to
# the same pairs. Smaller blocks skip more of the square below the diagonal
# (n = 2000 is cut into 8 blocks).
_PAIR_BLOCK = 1 << 19


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


def _sample_graph(rng: np.random.Generator, n: int, prob) -> Graph:
    """
    Join each pair i < j with probability prob(lo, hi)[i - lo, j - lo - 1];
    prob(lo, hi) covers rows [lo, hi) and the columns lo+1..n-1 only, since
    no row of the block can keep a column <= lo.

    Each block of rows draws its full (hi - lo, n) uniforms, so the stream
    is the row-major one over the n x n square whatever _PAIR_BLOCK is; the
    draws on and below the diagonal are taken and never read. A hit (i, j)
    is the CSR key i*n + j of row i and j*n + i of row j. The first kind is
    increasing across blocks, the second sorted within a block (read off the
    transposed hits), so one stable sort merges the runs into row-major
    order. The pairs are distinct and loop-free: nothing is deduplicated.
    """
    block = max(1, _PAIR_BLOCK // n)
    upper, lower = [], []
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        b, w = hi - lo, n - lo - 1
        draws = rng.random((b, n))[:, lo + 1:]
        hit = draws < prob(lo, hi)
        hit[:, :b] = np.triu(hit[:, :b])  # keep (lo + r, lo + 1 + c) for r <= c only
        flat = np.flatnonzero(hit)  # r*w + c for the pair (lo + r, lo + 1 + c)
        upper.append(flat + flat // w * (lo + 1) + (lo * (n + 1) + 1))
        flat = np.flatnonzero(hit.T)  # c*b + r
        lower.append(flat + flat // b * (n - b) + ((lo + 1) * n + lo))
    key = np.concatenate(upper + lower)
    del upper, lower  # free the per-block keys before the sort takes its buffer
    key.sort(kind="stable")
    return _from_keys(key, n, np.arange(n))


def generate_hp(params: HpParams):
    """Sample HP(n,k,p,q); returns (Graph, ground-truth labels)."""
    rng = np.random.Generator(np.random.PCG64(params.seed))
    labels = rng.integers(params.k, size=params.n)

    def prob(lo, hi):
        same = labels[lo:hi, None] == labels[None, lo + 1:]
        return np.where(same, params.p, params.q)

    return _sample_graph(rng, params.n, prob), labels


def cl_weights(params: ClParams) -> np.ndarray:
    """Expected-degree sequence for CL(n, delta); sums to n*avg_degree."""
    exponent = -1.0 / (params.delta - 1.0)
    target = params.n * params.avg_degree

    def weights(i0: int) -> np.ndarray:
        base = (np.arange(params.n, dtype=np.float64) + i0) ** exponent
        return base * (target / base.sum())

    if params.i0 is not None:
        return weights(params.i0)
    # w[0] falls as i0 grows: bisect for the smallest i0 in [1, n) with
    # w[0] <= sqrt(W), or n if there is none
    i0 = 1 + bisect.bisect_left(range(1, params.n), True,
                                key=lambda i: weights(i)[0] <= np.sqrt(target))
    return weights(i0)


def generate_cl(params: ClParams) -> Graph:
    """Sample CL(n, delta) with pair probability min(1, w_i*w_j/W)."""
    w = cl_weights(params)
    total = w.sum()
    if total <= 0:
        raise ValueError("degenerate weight sequence")
    rng = np.random.Generator(np.random.PCG64(params.seed))

    # no min(1, .): a uniform u < 1 is below w_i*w_j/W exactly when it is
    # below min(1, w_i*w_j/W)
    def prob(lo, hi):
        p = np.outer(w[lo:hi], w[lo + 1:])
        p /= total
        return p

    return _sample_graph(rng, params.n, prob)
