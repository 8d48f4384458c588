"""One-pass streaming assignment: greedy edge-surplus rule plus nine baselines."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph, spans
from .objective import (ObjectiveConfig, PartitionSnapshot, SnapshotError, delta_g,
                        marginal_cost, recount)
from .stream import StreamPlan

HEURISTICS = ("fennel", "hash", "balanced", "dg", "ldg", "edg", "t", "lt", "et", "nn")
TIE_POLICIES = ("lowest_index", "min_load")
_FREE = np.iinfo(np.int64).max  # mark of a vertex placed or outside the stream


def _exp_weighted(signal: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """signal * (1 - exp(size - capacity)), literal; exactly 0 where signal = 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(signal > 0, signal * weight, 0.0)


# Each rule scores cluster i as op(signal_i, load[|S_i|]), the signal being
# t_{S_i}(v) for t/lt/et and |N(v) ∩ S_i| otherwise; hash draws instead.
_RULES = {"fennel": ("marginal", np.subtract), "hash": ("none", None),
          "balanced": ("size", lambda _, load: -load), "dg": ("none", np.subtract),
          "nn": ("size", np.subtract), "ldg": ("linear", np.multiply),
          "edg": ("exp", _exp_weighted), "t": ("none", np.subtract),
          "lt": ("linear", np.multiply), "et": ("exp", _exp_weighted)}
# Only the edge-surplus rule reads the ObjectiveConfig (its marginal load table, its
# nu cap, interior-edge delta_g); any other rule's run is the same under every config.
READS_OBJECTIVE = frozenset({"fennel"})


def _load_table(term: str, config: ObjectiveConfig, n: int, k: int, cap: float) -> np.ndarray:
    """load[x] for every cluster size x = 0..n, from one vector call."""
    x = np.arange(n + 1, dtype=np.float64)
    if term == "marginal":
        load = marginal_cost(config, x)
    elif term in ("linear", "exp"):
        with np.errstate(over="ignore"):
            load = 1.0 - (x / (n / k) if term == "linear" else np.exp(x - n / k))
    else:
        load = x if term == "size" else np.zeros(n + 1)
    load[x > cap] = np.inf  # a cluster over the nu cap scores -inf
    return load


@dataclass
class StreamStats:
    runtime_ms: float = 0.0
    threshold_violations: int = 0
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
        self.config = config.resolve(g, k)
        self.tie_policy = tie_policy
        self.rng = np.random.Generator(np.random.PCG64(seed))
        term, self._op = _RULES[heuristic]
        self._signal = "triangles" if heuristic in ("t", "lt", "et") else "neighbors"
        reads = heuristic in READS_OBJECTIVE
        if reads and self.config.size_mode == "interior_edge":
            term, self._signal = "none", "surplus"  # the charge depends on the counts
        self._cap = self.config.nu * g.n / k if reads else math.inf
        self._load = _load_table(term, self.config, g.n, k, self._cap)
        self._indptr = g.indptr.tolist()
        self._degrees = g.degrees
        # k + position of each vertex in the stream, else _FREE; _block_triangles
        # marks a block's placed neighbours with their clusters while it runs
        self._mark = np.full(g.n, _FREE, dtype=np.int64)

    def _adjacency(self, vertices: np.ndarray, first: int = 0):
        """(first + position in vertices, neighbour) of every adjacency entry of vertices."""
        lens = self._degrees[vertices]
        ends = np.cumsum(lens)
        entries = (self.graph.indptr[vertices] - ends + lens).repeat(lens)
        entries += np.arange(len(entries))
        return np.arange(first, first + len(vertices)).repeat(lens), self.graph.indices[entries]

    def _earlier(self, block: np.ndarray, b0: int):
        """(j, u, cluster of u) for each neighbour u of block[j] placed or arriving
        before it; block[j] is at position b0 + j of the stream."""
        owner, u = self._adjacency(block)
        cu = self.snapshot.assignment[u]
        keep = (cu >= 0) | (self._mark[u] < self.k + b0 + owner)
        return owner[keep], u[keep], cu[keep]

    def _block_triangles(self, block: np.ndarray, b0: int):
        """The triangle signal of a block of arrivals: tri[j, i] counts the edges among
        block[j]'s neighbours both in S_i when the block started; pairs lists those
        (u, w) where u arrived in the block before block[j] and w before u."""
        n, k, b = self.graph.n, self.k, len(block)
        mark = self._mark
        owner, u, cu = self._earlier(block, b0)
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

    def _scores(self, signal: np.ndarray) -> np.ndarray:
        """op(signal, load[|S_i|]); interior-edge fennel's signal is delta_g of the counts."""
        if self._signal == "surplus":
            signal = delta_g(self.snapshot, self.config, signal)
        return self._op(signal, self._load[self.snapshot.cluster_vertex_counts])

    def _assign(self, run: np.ndarray) -> None:
        """Assign a checked stream, distinct ids in [0, n), in order."""
        if self.heuristic == "hash":  # the seeded draws in arrival order
            self.snapshot.assignment[run] = self.rng.integers(self.k, size=len(run))
            recount(self.snapshot)
            self.stats.neighbor_scans = int(self._degrees[run].sum())
        elif self._signal == "triangles":  # blocks whose arrivals gather <= SPAN entries
            self._mark[run] = np.arange(self.k, self.k + len(run))
            volume = self._degrees[run] + float(self.k)  # and a row of the (B, k) counts
            for lo, hi in spans(self._degrees[run]):
                owner, u, _ = self._earlier(run[lo:hi], lo)
                volume[lo:hi] += np.bincount(owner, self._degrees[u], hi - lo)
            for lo, hi in spans(volume):
                self._steps(run[lo:hi].tolist(), *self._block_triangles(run[lo:hi], lo))
                self._mark[run[lo:hi]] = _FREE  # placed
        else:
            self._steps(run.tolist())

    def _steps(self, vertices: list, tri=None, pairs=None) -> None:
        """The per-vertex step: gather the neighbours' clusters, count, score, pick, commit."""
        snap = self.snapshot
        stats = self.stats
        k = self.k
        cap = self._cap
        assignment = snap.assignment
        sizes = snap.cluster_vertex_counts
        internal = snap.cluster_internal_edges
        indptr = self._indptr
        indices = self.graph.indices
        min_load = self.tie_policy == "min_load"
        starts, pu, pw = pairs or (None,) * 3
        for j, v in enumerate(vertices):
            nbr = indices[indptr[v]:indptr[v + 1]]
            slots = assignment[nbr]
            slots += 1  # slot 0 counts the unplaced neighbours
            counts = np.bincount(slots, minlength=k + 1)
            placed = len(nbr) - int(counts[0])
            counts = counts[1:]
            stats.neighbor_scans += len(nbr)
            signal = counts
            if tri is not None:
                signal = tri[j]
                if starts[j + 1] > starts[j]:  # triangles closed inside the block
                    cu = assignment[pu[starts[j]:starts[j + 1]]]
                    hit = cu == assignment[pw[starts[j]:starts[j + 1]]]
                    signal = signal + np.bincount(cu[hit], minlength=k)
            scores = self._scores(signal)
            c = int(scores.argmax())  # lowest index among ties
            if scores[c] == -math.inf and (sizes > cap).all():
                c = int(sizes.argmin())  # every cluster over the nu cap: spill
                stats.threshold_violations += 1
            elif min_load and scores[::-1].argmax() != k - 1 - c:  # tie
                best = (scores == scores[c]).nonzero()[0]
                c = int(best[sizes[best].argmin()])
            inside = int(counts[c])
            assignment[v] = c
            sizes[c] += 1
            internal[c] += inside
            snap.cut_edges += placed - inside
            snap.assigned_count += 1


def partition_stream(g: Graph, plan: StreamPlan, k: int, heuristic: str,
                     config: ObjectiveConfig, seed: int,
                     tie_policy: str = "lowest_index"):
    """
    Assign every vertex of the stream in one pass.

    The plan must be a 1-D integer sequence of distinct ids in [0, n);
    otherwise SnapshotError names the problem before any vertex is
    assigned. Returns (snapshot, stats). Deterministic for identical
    (graph, plan, k, heuristic, config, seed, tie_policy); runtime covers
    the assignment loop only.
    """
    run = PartitionRun(g, k, heuristic, config, seed, tie_policy)
    ids = np.asarray(plan.sequence)
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
