"""Synthetic graphs: hidden-partition and Chung-Lu power-law models."""
from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, from_edges

# cells of the n x n square per block of rows (one row at least): the size of the
# draws buffer and of each block's temporaries; HP's n x n hit mask does not shrink
# with it. It bounds memory only: each row skips its cells on and below the diagonal
# by advancing the generator, so any block size gives the same uniforms to the same
# pairs (n = 2000 is cut into 8 blocks).
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


def _blocks(n: int):
    """The [lo, hi) row blocks of the n x n square, _PAIR_BLOCK cells each."""
    block = max(1, _PAIR_BLOCK // n)
    return [(lo, min(lo + block, n)) for lo in range(0, n, block)]


def _row_draws(rng: np.random.Generator, n: int):
    """
    Yield (lo, hi, draws) for each row block: the uniforms of the cells
    (lo + r, lo + 1 + c) at draws[r, c], for the rows [lo, hi) and the columns
    lo+1..n-1 (no row of the block keeps a column <= lo); inf where c < r, below
    the diagonal, which no draw fills and no hit test passes. Every block is
    drawn into one buffer, so a block's draws are gone once the next is yielded.

    They are the row-major stream over the n x n square: row i advances the
    generator past the cells (i, 0..i), one 64-bit output each as random() would
    take them, and draws the cells (i, i+1..n-1). So any _PAIR_BLOCK gives the
    same uniforms to the same pairs.
    """
    blocks = _blocks(n)
    buffer = np.empty((blocks[0][1] - blocks[0][0]) * (n - 1))
    for lo, hi in blocks:
        b, w = hi - lo, n - lo - 1
        draws = buffer[:b * w].reshape(b, w)
        draws[:, :b] = np.inf
        for r in range(b):
            rng.bit_generator.advance(lo + r + 1)
            rng.random(out=draws[r, r:])
        yield lo, hi, draws


def _hp_mask(rng: np.random.Generator, labels: np.ndarray, params: HpParams) -> np.ndarray:
    """
    The n x n bool mask of HP's pairs, symmetric: each row block writes its upper
    cells from its draws and its lower cells as the same block transposed.

    A draw hits below min(p, q) on every cell, and below max(p, q) on the cells
    whose label agreement selects the larger one: the test draw < (p if same
    label else q), without its float matrix.
    """
    n = params.n
    low, high = min(params.p, params.q), max(params.p, params.q)
    # the cells that take the larger of p and q: the same-label ones if p >= q
    takes_high = np.equal if params.p >= params.q else np.not_equal
    mask = np.zeros((n, n), dtype=bool)
    for lo, hi, draws in _row_draws(rng, n):
        hit = mask[lo:hi, lo + 1:]
        np.less(draws, low, out=hit)
        larger = takes_high(labels[lo:hi, None], labels[None, lo + 1:])
        larger &= draws < high
        hit |= larger
        mask[lo + 1:, lo:hi] |= hit.T
    return mask


def generate_hp(params: HpParams):
    """
    Sample HP(n,k,p,q); returns (Graph, ground-truth labels).

    The CSR is read straight off the pairs' n x n mask (n^2 bytes): indptr is
    the running sum of the row counts, and a row block's indices are one
    flatnonzero of its rows, less r*n, so the rows come out sorted with no
    scatter. The pairs are distinct and loop-free: nothing is deduplicated.
    """
    n = params.n
    rng = np.random.Generator(np.random.PCG64(params.seed))
    labels = rng.integers(params.k, size=n)
    mask = _hp_mask(rng, labels, params)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(np.count_nonzero(mask), dtype=np.int64)
    for lo, hi in _blocks(n):
        flat = np.flatnonzero(mask[lo:hi])  # r*n + j
        ends = np.searchsorted(flat, np.arange(1, hi - lo + 1) * n)  # rows' ends in flat
        indptr[lo + 1:hi + 1] = indptr[lo] + ends
        np.subtract(flat, np.repeat(np.arange(hi - lo) * n, np.diff(ends, prepend=0)),
                    out=indices[indptr[lo]:indptr[hi]])
    return Graph(indptr=indptr, indices=indices, id_map=np.arange(n)), labels


def _cl_weights(params: ClParams, i0: int) -> np.ndarray:
    """w_i = c*(i+i0)^(-1/(delta-1)), scaled to sum to n*avg_degree; NaN if it underflows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        base = (np.arange(params.n, dtype=np.float64) + i0) ** (-1.0 / (params.delta - 1.0))
        return base * (params.n * params.avg_degree / base.sum())


def cl_i0(params: ClParams) -> int:
    """params.i0 if given, else the smallest i0 in [1, n) with w[0] <= sqrt(W), or n if
    there is none: w[0] falls as i0 grows, so a bisection finds it."""
    if params.i0 is not None:
        return params.i0
    root = np.sqrt(params.n * params.avg_degree)
    return 1 + bisect.bisect_left(range(1, params.n), True,
                                  key=lambda i: _cl_weights(params, i)[0] <= root)


def cl_weights(params: ClParams) -> np.ndarray:
    """Expected-degree sequence for CL(n, delta); sums to n*avg_degree."""
    i0 = cl_i0(params)
    w = _cl_weights(params, i0)
    if not np.isfinite(w).all():
        raise ValueError(f"delta={params.delta} is too close to 1: the weights "
                         f"(i + {i0}) ** (-1/(delta-1)) underflow")
    return w


def generate_cl(params: ClParams) -> Graph:
    """
    Sample CL(n, delta) with pair probability min(1, w_i*w_j/W). A row block's
    hits, at r*(n - lo - 1) + c in its draws, are the pairs (lo + r, lo + 1 + c),
    distinct and loop-free; from_edges sorts their keys into the CSR.
    """
    n = params.n
    w = cl_weights(params)
    total = w.sum()
    rng = np.random.Generator(np.random.PCG64(params.seed))
    pairs = []
    for lo, hi, draws in _row_draws(rng, n):
        # no min(1, .): a uniform u < 1 is below w_i*w_j/W exactly when it is
        # below min(1, w_i*w_j/W); the inf below the diagonal is below neither
        p = np.outer(w[lo:hi], w[lo + 1:])
        p /= total
        r, c = np.divmod(np.flatnonzero(draws < p), n - lo - 1)
        pairs.append(np.column_stack([lo + r, lo + 1 + c]))
    return from_edges(np.concatenate(pairs), id_map=np.arange(n))
