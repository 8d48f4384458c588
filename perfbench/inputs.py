"""Seeded benchmark inputs, written without calling streamcut.

The inputs of the file-based workloads come from this module alone, so a
change to streamcut's generators cannot change them. Every array is a pure
function of the seed: the same seed gives byte-identical files.
"""
from __future__ import annotations

import numpy as np


def _rng(seed: int, stream: int) -> np.random.Generator:
    # one independent stream per purpose, so adding a draw to one purpose
    # never shifts the draws of another
    return np.random.Generator(np.random.PCG64([seed, stream]))


def powerlaw_rows(n: int, m: int, delta: float, seed: int,
                  community: int = 0, p_in: float = 0.0) -> np.ndarray:
    """
    Sample m endpoint pairs over [0, n) in O(m log n): each endpoint is drawn
    with probability proportional to w_i = (i + i0)^(-1/(delta-1)), the
    expected-degree sequence of a power law with slope delta.

    With community > 0 the vertices are split into random groups of about
    that size, and with probability p_in an edge's second endpoint is drawn
    uniformly from the first endpoint's group instead, which plants dense
    clusters and so triangles. Rows may repeat and may be self loops; the
    reader is expected to collapse them.
    """
    if n < 2 or m < 1 or delta <= 1.0:
        raise ValueError("need n >= 2, m >= 1 and delta > 1")
    rng = _rng(seed, 1)
    i0 = max(1, n // 1000)
    cdf = np.cumsum((np.arange(n, dtype=np.float64) + i0) ** (-1.0 / (delta - 1.0)))
    ends = np.searchsorted(cdf, rng.random(2 * m) * cdf[-1], side="right")
    rows = np.minimum(ends, n - 1).reshape(m, 2)
    if community > 0:
        groups = max(1, n // community)
        member_of = _rng(seed, 2).integers(groups, size=n)
        members = np.argsort(member_of, kind="stable")
        start = np.searchsorted(member_of[members], np.arange(groups + 1))
        src = rows[:, 0]
        grp = member_of[src]
        size = start[grp + 1] - start[grp]
        pick = start[grp] + (rng.random(m) * size).astype(np.int64)
        inside = rng.random(m) < p_in
        rows[inside, 1] = members[pick[inside]]
    return rows


def vertex_labels(n: int, seed: int) -> np.ndarray:
    """n distinct, non-contiguous labels in random order (gaps of 1..9)."""
    rng = _rng(seed, 3)
    labels = 1000 + np.cumsum(rng.integers(1, 10, size=n))
    return labels[rng.permutation(n)]


def write_edge_list(path, rows: np.ndarray, labels: np.ndarray, comment: str) -> None:
    """Write "u v" lines in the given labels, after one '#' comment line."""
    lab = labels[rows]
    body = "\n".join(f"{u} {v}" for u, v in zip(lab[:, 0].tolist(), lab[:, 1].tolist()))
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n")
        fh.write(body)
        fh.write("\n")


ISLANDS = 8  # two-vertex components appended to every file


def write_powerlaw_file(path, n: int, m: int, delta: float, seed: int,
                        community: int = 0, p_in: float = 0.0) -> None:
    """
    powerlaw_rows plus ISLANDS disjoint edges on fresh vertices. The islands
    make every file disconnected, so the reader's largest-component
    restriction always has work; otherwise whether it runs would depend on
    the seed, and so would the time and memory of a job.
    """
    islands = n + np.arange(2 * ISLANDS).reshape(ISLANDS, 2)
    rows = np.concatenate([powerlaw_rows(n, m, delta, seed, community, p_in), islands])
    write_edge_list(path, rows, vertex_labels(n + 2 * ISLANDS, seed),
                    f"perfbench power-law edge list: n={n} rows={m} delta={delta} "
                    f"community={community} p_in={p_in} islands={ISLANDS} seed={seed}")
