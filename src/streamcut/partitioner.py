"""One-pass streaming assignment: greedy edge-surplus rule plus nine baselines."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph, gather, spans
from .objective import (ObjectiveConfig, PartitionSnapshot, SnapshotError, delta_g,
                        marginal_cost, recount)
from .stream import StreamPlan

# Each rule scores cluster i as op(signal_i, load[|S_i|]), the signal being |N(v) ∩ S_i|
# ("neighbors") or t_{S_i}(v) ("triangles"); hash has none and draws instead.
_RULES = {"fennel": ("neighbors", "marginal", np.subtract), "hash": (None, None, None),
          "balanced": ("neighbors", "size", lambda _, load: -load),
          "dg": ("neighbors", "none", np.subtract), "ldg": ("neighbors", "linear", np.multiply),
          "edg": ("neighbors", "exp", np.multiply), "t": ("triangles", "none", np.subtract),
          "lt": ("triangles", "linear", np.multiply), "et": ("triangles", "exp", np.multiply),
          "nn": ("neighbors", "size", np.subtract)}
HEURISTICS = tuple(_RULES)
# The rules charged the objective's marginal cost read the ObjectiveConfig (that cost, its
# nu cap, interior-edge delta_g); any other rule's run is the same under every config.
READS_OBJECTIVE = frozenset(h for h, (_, term, _) in _RULES.items() if term == "marginal")
TIE_POLICIES = ("lowest_index", "min_load")
_FREE = np.iinfo(np.int64).max  # mark of a vertex outside the stream (or placed, for t/lt/et)
BLOCK = 1 << 11  # entries per window of arrivals whose neighbours are counted in one gather
MIN_BLOCK = 32  # mean arrivals a run's windows need for that; a denser run reads a table


def _load_table(term: str, config: ObjectiveConfig, n: int, k: int, cap: float) -> np.ndarray:
    """load[x] for every cluster size x = 0..n, from one vector call."""
    x = np.arange(n + 1, dtype=np.float64)
    if term == "marginal":
        load = marginal_cost(config, x)
    elif term == "linear":
        load = 1.0 - x / (n / k)
    elif term == "exp":  # floored, so weight * signal is finite for any signal <= n**2
        with np.errstate(over="ignore"):
            load = np.maximum(1.0 - np.exp(x - n / k), -np.finfo(np.float64).max / (n + 1) ** 2)
    else:
        load = x if term == "size" else np.zeros(n + 1)
    load[x > cap] = np.inf  # a cluster over the nu cap scores -inf
    return load


@dataclass
class StreamStats:
    runtime_ms: float = 0.0
    threshold_violations: int = 0  # kept at 0: with nu >= 1 some cluster is always under the cap
    neighbor_scans: int = 0


class PartitionRun:
    """
    Single streaming run over a fixed graph: owns the mutable snapshot,
    the run RNG (used only by the hash heuristic), and the tie policy.
    Vertices are assigned once and never moved.
    """

    def __init__(self, g: Graph, k: int, heuristic: str, config: ObjectiveConfig,
                 seed: int, tie_policy: str = "lowest_index"):
        if heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {heuristic!r}, expected one of {HEURISTICS}")
        if tie_policy not in TIE_POLICIES:
            raise ValueError(f"unknown tie policy {tie_policy!r}")
        self.snapshot = PartitionSnapshot(g, k)  # checks k >= 1
        self.stats = StreamStats()
        self.graph = g
        self.k = k
        self.heuristic = heuristic
        reads = heuristic in READS_OBJECTIVE
        self.config = config.resolve(g, k) if reads else config  # no other rule reads it
        self.tie_policy = tie_policy
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._signal, term, self._op = _RULES[heuristic]
        if reads and self.config.size_mode == "interior_edge":
            term, self._signal = "none", "surplus"  # the charge depends on the counts
        self._degrees = g.degrees
        if self._signal is not None:  # hash only draws
            cap = self.config.nu * g.n / k if reads else math.inf
            self._load = _load_table(term, self.config, g.n, k, cap)
            # k + stream position of each arrival (a placed one is told by its cluster), else
            # _FREE; _block_triangles marks a block's placed neighbours with their clusters
            self._mark = np.full(g.n, _FREE, dtype=np.int64)

    def _adjacency(self, vertices: np.ndarray, first: int = 0):
        """(first + position in vertices, neighbour) of every adjacency entry of vertices."""
        lens = self._degrees[vertices]
        owner = np.arange(first, first + len(vertices)).repeat(lens)
        return owner, gather(self.graph, vertices, lens)

    def _earlier(self, block: np.ndarray, b0: int):
        """(j, u, cluster of u) for each neighbour u of block[j] placed or arriving
        before it; block[j] is at position b0 + j of the stream."""
        owner, u = self._adjacency(block)
        cu = self.snapshot.assignment[u]
        keep = (cu >= 0) | (self._mark[u] < self.k + b0 + owner)
        return owner[keep], u[keep], cu[keep]

    def _block_triangles(self, b: int, owner, u, cu):
        """The triangle signal of a block of b arrivals from its _earlier gather: tri[j, i]
        counts the edges among block[j]'s neighbours both in S_i when the block started;
        pairs lists those (u, w) where u arrived in the block before block[j] and w before u."""
        n, k, mark = self.graph.n, self.k, self._mark
        keys = owner * n + u  # sorted: block[j]'s earlier neighbours, by j
        placed = cu >= 0
        mark[u[placed]] = cu[placed]  # below every position mark
        tri = np.zeros(b * k, dtype=np.int64)
        pairs = []
        # w closes (x, w) when placed before the block in x's cluster (such an
        # edge is met from both ends), or, for x in the block, before x
        for sel, closes in ((placed, np.equal), (~placed, np.less)):
            j, x = owner[sel], u[sel]
            cell = j * k + mark[x]  # tri's index for x before the block
            for lo, hi in spans(self._degrees[x]):
                e, w = self._adjacency(x[lo:hi], lo)
                hit = closes(mark[w], mark[x[lo:hi]].repeat(self._degrees[x[lo:hi]]))
                hit = hit.nonzero()[0]
                e, w = e[hit], w[hit]
                if b > 1:  # the marks span every arrival's neighbours: is w block[j]'s?
                    q = j[e] * n + w
                    hit = keys[np.searchsorted(keys, q).clip(max=len(keys) - 1)] == q
                    e, w = e[hit], w[hit]
                if closes is np.equal:
                    tri += np.bincount(cell[e], minlength=b * k)
                else:
                    pairs.append((j[e], x[e], w))
        mark[u[placed]] = _FREE
        pj, pu, pw = (np.concatenate(p) for p in zip(*pairs)) if pairs else ((),) * 3
        return tri.reshape(b, k) * 0.5, (np.searchsorted(pj, np.arange(b + 1)).tolist(), pu, pw)

    def _counts(self, owner, u, cu, b0: int, b: int):
        """Neighbour counts of a block of b arrivals from its _earlier gather: base[j, i] counts
        block[j]'s neighbours in S_i at the block start; once block[q] goes to S_c, each row in
        later[starts[q]:starts[q + 1]] gains one at c."""
        k = self.k
        before = cu >= 0
        base = np.bincount(owner[before] * k + cu[before], minlength=b * k).reshape(b, k)
        base = base.astype(np.float64)  # so the score runs on one dtype; counts < 2**53
        q = self._mark[u[~before]] - (k + b0)  # the earlier neighbour's place in the block
        order = q.argsort()
        return (base, owner[~before][order].tolist(),
                np.searchsorted(q[order], np.arange(b + 1)).tolist())

    def _assign(self, run: np.ndarray) -> None:
        """Assign a checked stream, distinct ids in [0, n), in order, by blocks cut by spans:
        for t/lt/et those whose arrivals, their earlier neighbours' lists and their rows of
        counts hold <= SPAN entries; for the neighbour rules windows of <= BLOCK entries, or,
        if a window would average under MIN_BLOCK arrivals (a dense graph), no block: each
        arrival reads its counts off the run's (n, k) table and pushes its adjacency into it."""
        k, snap, degrees = self.k, self.snapshot, self._degrees
        self.stats.neighbor_scans = entries = int(degrees[run].sum())
        if self._signal is None:  # hash: the seeded draws in arrival order
            snap.assignment[run] = self.rng.integers(k, size=len(run))
            recount(snap)
            return
        self._mark[run] = np.arange(k, k + len(run))
        triangles = self._signal == "triangles"
        if triangles:  # sized by the neighbours' degrees too: deg + k alone is 3.5-5x slower
            volume = degrees[run] + float(k)
            for lo, hi in spans(degrees[run]):
                owner, u, _ = self._earlier(run[lo:hi], lo)
                volume[lo:hi] += np.bincount(owner, degrees[u], hi - lo)
            blocks = spans(volume)
        elif (entries + len(run)) * MIN_BLOCK > BLOCK * len(run):  # a dense run: the table
            self._table = np.zeros((self.graph.n, k), dtype=np.int32)
            self._steps(run.tolist())
            blocks = ()
        else:
            blocks = spans(degrees[run] + 1, BLOCK)
        for lo, hi in blocks:
            block = run[lo:hi]
            owner, u, cu = self._earlier(block, lo)
            tri = self._block_triangles(hi - lo, owner, u, cu) if triangles else ()
            self._steps(block.tolist(), self._counts(owner, u, cu, lo, hi - lo), *tri)
            self._mark[block] = _FREE  # placed
        if snap.assigned_count == self.graph.n:  # the cut: every edge but the interior ones
            snap.cut_edges = self.graph.m - int(snap.cluster_internal_edges.sum())
        else:  # a prefix stream
            recount(snap)

    def _steps(self, vertices: list, block=None, tri=None, pairs=None) -> None:
        """The per-vertex step: read the neighbours' clusters (a row of the block's _counts
        or of the run's table), score, pick, commit. Nothing else writes the snapshot in a
        run but the cut, derived at its end: the counters are Python ints until the end of
        the call, and charge[i] is load[|S_i|]."""
        snap = self.snapshot
        k, op, load, config = self.k, self._op, self._load, self.config
        assignment, charge = snap.assignment, load[snap.cluster_vertex_counts]
        sizes, internal = snap.cluster_vertex_counts.tolist(), snap.cluster_internal_edges.tolist()
        surplus = self._signal == "surplus"
        if block is None:
            indptr, indices, table = self.graph.indptr, self.graph.indices, self._table
            one = np.int32(1)  # with a Python 1, add.at leaves its fast path
        else:
            base, later, lstarts = block
        min_load = self.tie_policy == "min_load"
        starts, pu, pw = pairs or (None,) * 3
        # no triangle at the block start and none closed in it: every cluster scores 0 or
        # -0.0 (t's load is zeros, lt/et's finite), so all k tie and the pick is by load alone
        zero = (~tri.any(axis=1)).tolist() if pairs else ()
        for j, v in enumerate(vertices):
            counts = table[v] if block is None else base[j]
            closed = ()  # the clusters of the triangles v closes inside the block
            if pairs and starts[j + 1] > starts[j]:
                cu = assignment[pu[starts[j]:starts[j + 1]]]
                closed = cu[cu == assignment[pw[starts[j]:starts[j + 1]]]]
            if zero and zero[j] and not len(closed):  # as the tie below would pick
                c = sizes.index(min(sizes)) if min_load else 0
            else:
                signal = counts
                if tri is not None:
                    signal = tri[j]
                    if len(closed):
                        signal = signal + np.bincount(closed, minlength=k)
                if surplus:  # interior-edge fennel: the charge depends on the counts
                    signal = delta_g(internal, config, signal)
                scores = op(signal, charge)
                c = int(scores.argmax())  # lowest index among ties
                if min_load and scores[::-1].argmax() != k - 1 - c:  # tie: lowest least loaded
                    c = min((scores == scores[c]).nonzero()[0].tolist(), key=sizes.__getitem__)
            assignment[v] = c
            sizes[c] += 1
            charge[c] = load[sizes[c]]
            internal[c] += int(counts.item(c))
            if block is None:  # push: v's neighbours gain one placed neighbour in S_c
                np.add.at(table[:, c], indices[indptr[v]:indptr[v + 1]], one)
            else:
                for t in later[lstarts[j]:lstarts[j + 1]]:  # few: cheaper one by one
                    base[t, c] += 1
        snap.cluster_vertex_counts[:] = sizes
        snap.cluster_internal_edges[:] = internal


def partition_stream(g: Graph, plan: StreamPlan, k: int, heuristic: str,
                     config: ObjectiveConfig, seed: int,
                     tie_policy: str = "lowest_index"):
    """
    Assign every vertex of the stream in one pass.

    The plan must be a 1-D integer sequence of distinct ids in [0, n), or
    empty; otherwise SnapshotError names the problem before any vertex is
    assigned. Returns (snapshot, stats). Deterministic for identical
    (graph, plan, k, heuristic, config, seed, tie_policy); runtime covers
    the assignment loop only.
    """
    run = PartitionRun(g, k, heuristic, config, seed, tie_policy)
    ids = np.asarray(plan.sequence)
    if ids.shape == (0,):  # the empty stream, whatever dtype numpy gave [] (float64)
        ids = ids.astype(np.int64)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":  # bool is kind "b"
        raise SnapshotError(f"a stream is a 1-D sequence of integer vertex ids, "
                            f"not {ids.dtype} of shape {ids.shape}")
    ok = (ids >= 0) & (ids < g.n)
    seq = ids.astype(np.int64, copy=False)
    if not (ok.all() and np.bincount(seq, minlength=g.n).max(initial=0) <= 1):
        first = np.zeros_like(ok)
        first[np.unique(ids, return_index=True)[1]] = True  # each id's first arrival
        bad = ids[(ok & first).argmin()]
        raise SnapshotError(f"vertex {bad} is "
                            + ("repeated" if 0 <= bad < g.n else f"outside [0, {g.n})"))
    t0 = time.perf_counter()
    run._assign(seq)
    run.stats.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return run.snapshot, run.stats
