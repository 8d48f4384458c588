"""Vertex arrival orders for the streaming setting: random, BFS, DFS."""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

ORDER_KINDS = ("random", "bfs", "dfs")


@dataclass(frozen=True, eq=False)
class StreamPlan:
    """
    An arrival order, frozen: the sequence is copied read-only unless it is a
    read-only array that owns its data. Plans compare and hash by identity, like
    graphs. earlier maps a graph to partitioner.earlier_lists of this stream over
    it, kept by partition_stream for the plan's later runs and freed with the plan.
    """

    order_kind: str
    seed: int
    sequence: np.ndarray  # distinct ids in [0, n); a prefix of an order is a legal stream
    earlier: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary,
                                               init=False, repr=False)

    def __post_init__(self):
        seq = self.sequence
        if not (isinstance(seq, np.ndarray) and seq.flags.owndata and not seq.flags.writeable):
            seq = np.array(seq)
            seq.setflags(write=False)
            object.__setattr__(self, "sequence", seq)


def _linked(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Rows of one or two entries with the same DFS preorder: row v becomes
    [n + indptr[v]] and entry j node n + j with the row [indices[j], n + j + 1],
    where a link past the row's end goes back to v (so does an empty row's head).
    scipy's DFS rescans a row from its start on each return to the vertex: O(d²)
    at a vertex with d children on the given rows, O(d) on these.
    """
    n, nnz, dtype = len(indptr) - 1, len(indices), indices.dtype
    full = np.flatnonzero(indptr[1:] > indptr[:-1])
    rows = np.empty(n + 2 * nnz, dtype=dtype)
    rows[:n] = np.arange(n)
    rows[full] = n + indptr[full]
    pairs = rows[n:].reshape(nnz, 2)
    pairs[:, 0] = indices
    pairs[:, 1] = np.arange(n + 1, n + nnz + 1, dtype=dtype)
    pairs[indptr[full + 1] - 1, 1] = full
    return np.concatenate([np.arange(n), np.arange(n, n + 2 * nnz + 1, 2)], dtype=dtype), rows


def _walk(g: Graph, rng: np.random.Generator, kind: str) -> np.ndarray:
    """
    A "bfs" or "dfs" walk (scipy's breadth_first_order or depth_first_order, loaded
    here, not on import) over each component. The first start is rng.integers(n);
    then one rng.permutation(n) ranks the vertices, and every other component
    starts at its lowest-ranked vertex, the components going in rank order. The
    lowest-ranked vertex of a set is uniform over it, so each restart is uniform
    over the vertices unvisited at that point, as with a fresh draw per restart.

    One walk from extra vertex n, whose row lists the starts, covers every
    component. A stable sort by start rank puts the components one after
    another, each in the order of a walk from its start: BFS discovery in a
    component depends on its vertices only, and DFS ends each before the next.
    DFS walks the rows _linked makes, which keep it linear.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, depth_first_order

    ncomp, comp = g.components
    first = int(rng.integers(g.n))
    perm = rng.permutation(g.n)
    place = np.unique(comp[perm], return_index=True)[1]  # each component's lowest rank
    starts = perm[place]
    starts[comp[first]], place[comp[first]] = first, -1
    size = len(g.indices) + ncomp  # int32 if csr_matrix casts to it, DFS's linked rows included
    dtype = np.int32 if 2 * (g.n + size) < 2 ** 31 else np.int64
    indices = np.concatenate([g.indices, starts], dtype=dtype)
    indptr = np.append(g.indptr, size)
    if kind == "dfs":
        indptr, indices = _linked(indptr, indices)
    shape = (len(indptr) - 1,) * 2
    adj = csr_matrix((np.broadcast_to(1.0, len(indices)), indices, indptr), shape=shape)
    walk = depth_first_order if kind == "dfs" else breadth_first_order
    order = walk(adj, g.n, return_predecessors=False)
    order = order[order < g.n]
    return order[np.argsort(place[comp[order]], kind="stable")].astype(np.int64)


def make_stream(g: Graph, order_kind: str, seed: int) -> StreamPlan:
    """
    Deterministic arrival sequence over all vertices of g.

    random: Fisher-Yates shuffle. bfs/dfs: traversal from a uniformly
    random start, neighbors in ascending index order, restarting while any
    vertex is unvisited from the lowest-ranked unvisited vertex of one
    random permutation, so each restart is uniform over the unvisited.
    """
    if g.n < 1:
        raise ValueError("empty graph has no stream order")
    if order_kind not in ORDER_KINDS:
        raise ValueError(f"unknown order {order_kind!r}, expected one of {ORDER_KINDS}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if order_kind == "random":
        seq = rng.permutation(g.n)
    else:
        seq = _walk(g, rng, order_kind)
    seq.setflags(write=False)
    return StreamPlan(order_kind=order_kind, seed=seed, sequence=seq)
