"""Vertex arrival orders for the streaming setting: random, BFS, DFS."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph

ORDER_KINDS = ("random", "bfs", "dfs")


@dataclass(frozen=True)
class StreamPlan:
    order_kind: str
    seed: int
    sequence: np.ndarray  # distinct ids in [0, n); a prefix of an order is a legal stream


class _Restarts:
    """
    Restart vertices of a traversal that writes its order into ``seq`` and
    marks it in ``visited``. A restart makes the draw a full scan would
    make, the ``rng.integers(#unvisited)``-th unvisited vertex in index
    order, in O(sqrt(n)): unvisited vertices are counted per block of
    isqrt(n) vertices, a cumsum finds the block, a scan of it the vertex.
    """

    def __init__(self, seq: np.ndarray, visited: np.ndarray):
        self.seq, self.visited, self.done = seq, visited, 0
        self.width = max(1, math.isqrt(len(seq)))
        self.count = np.bincount(np.arange(len(seq)) // self.width)

    def pick(self, rng: np.random.Generator, pos: int) -> int:
        """A start vertex, once seq[:pos] is visited."""
        done = self.seq[self.done:pos]  # the components finished since the last pick
        self.count -= np.bincount(done // self.width, minlength=len(self.count))
        self.done = pos
        ends = np.cumsum(self.count)
        r = int(rng.integers(int(ends[-1])))
        b = int(np.searchsorted(ends, r, side="right"))
        r -= int(ends[b] - self.count[b])
        lo = b * self.width
        return lo + int(np.flatnonzero(~self.visited[lo:lo + self.width])[r])


def _bfs_order(g: Graph, rng: np.random.Generator) -> np.ndarray:
    """
    One level at a time: the frontier's adjacency in frontier order, less
    the visited vertices, first occurrences kept. That is the FIFO queue
    over ascending neighbours, level by level.
    """
    seq = np.empty(g.n, dtype=np.int64)
    visited = np.zeros(g.n, dtype=bool)
    restarts = _Restarts(seq, visited)
    degrees = g.degrees
    pos = 0
    while pos < g.n:
        level = np.array([restarts.pick(rng, pos)])
        while len(level):
            seq[pos:pos + len(level)] = level
            pos += len(level)
            visited[level] = True
            if len(level) == 1:  # one vertex's neighbours are distinct and ascending
                nb = g.neighbors(level[0])
                level = nb[~visited[nb]]
                continue
            lens = degrees[level]
            ends = np.cumsum(lens)
            entries = (g.indptr[level] - ends + lens).repeat(lens)
            entries += np.arange(len(entries))
            nb = g.indices[entries]
            nb = nb[~visited[nb]]
            first = np.unique(nb, return_index=True)[1]
            first.sort()
            level = nb[first]
    return seq


def _dfs_order(g: Graph, rng: np.random.Generator) -> np.ndarray:
    seq = np.empty(g.n, dtype=np.int64)
    visited = np.zeros(g.n, dtype=bool)
    restarts = _Restarts(seq, visited)
    pos = 0
    while pos < g.n:
        stack = [restarts.pick(rng, pos)]
        while stack:
            v = stack.pop()
            if visited[v]:
                continue
            visited[v] = True
            seq[pos] = v
            pos += 1
            # push reversed so the lowest-index neighbor is visited first
            for u in g.neighbors(v)[::-1]:
                if not visited[u]:
                    stack.append(int(u))
    return seq


def make_stream(g: Graph, order_kind: str, seed: int) -> StreamPlan:
    """
    Deterministic arrival sequence over all vertices of g.

    random: Fisher-Yates shuffle. bfs/dfs: traversal from a uniformly
    random start, neighbors in ascending index order, restarting from a
    uniformly random unvisited vertex while any remain.
    """
    if g.n < 1:
        raise ValueError("empty graph has no stream order")
    if order_kind not in ORDER_KINDS:
        raise ValueError(f"unknown order {order_kind!r}, expected one of {ORDER_KINDS}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if order_kind == "random":
        seq = rng.permutation(g.n)
    elif order_kind == "bfs":
        seq = _bfs_order(g, rng)
    else:
        seq = _dfs_order(g, rng)
    seq.setflags(write=False)
    return StreamPlan(order_kind=order_kind, seed=seed, sequence=seq)
