"""One-pass streaming assignment: greedy edge-surplus rule plus nine baselines."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .objective import ObjectiveConfig, PartitionSnapshot, SnapshotError, delta_g, marginal_cost
from .stream import StreamPlan

HEURISTICS = ("fennel", "hash", "balanced", "dg", "ldg", "edg", "t", "lt", "et", "nn")
TIE_POLICIES = ("lowest_index", "min_load")
_GATHER = 1 << 16  # adjacency entries one triangle-count gather may hold


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
        if heuristic == "fennel" and self.config.size_mode == "interior_edge":
            term, self._signal = "none", "surplus"  # the charge depends on the counts
        self._cap = self.config.nu * g.n / k if heuristic == "fennel" else math.inf
        self._load = _load_table(term, self.config, g.n, k, self._cap)
        hashed = heuristic == "hash"  # one vector draw equals n scalar draws
        self._draws = iter(self.rng.integers(k, size=g.n).tolist()) if hashed else None
        self._indptr = g.indptr.tolist()
        self._degrees = g.degrees
        self._label = np.full(g.n, -1, dtype=np.int64)  # scratch for t/lt/et

    def _triangle_counts(self, v: int) -> np.ndarray:
        """t_{S_i}(v): edges among the already-assigned neighbors of v, per cluster."""
        assignment = self.snapshot.assignment
        nbr = self.graph.indices[self._indptr[v]:self._indptr[v + 1]]
        placed = nbr[assignment[nbr] >= 0]
        if not len(placed):
            return np.zeros(self.k, dtype=np.int64)
        clusters = assignment[placed]
        self._label[placed] = clusters  # -1 off the placed neighbourhood
        entries = self._edges_within_cluster(placed, clusters)
        self._label[placed] = -1
        return entries * 0.5  # both endpoints count

    def _edges_within_cluster(self, placed: np.ndarray, clusters: np.ndarray) -> np.ndarray:
        """
        Per cluster, the adjacency entries of `placed` (in `clusters`) that
        point to a vertex labelled with the same cluster: one gather of their
        adjacency lists, halved until it holds at most _GATHER entries or one
        vertex.
        """
        g = self.graph
        lens = self._degrees[placed]
        ends = np.add.accumulate(lens)
        if ends[-1] > _GATHER and len(placed) > 1:  # a hub's neighbourhood
            half = len(placed) // 2
            return (self._edges_within_cluster(placed[:half], clusters[:half])
                    + self._edges_within_cluster(placed[half:], clusters[half:]))
        w = g.indices[(g.indptr[placed] - ends + lens).repeat(lens) + np.arange(ends[-1])]
        owner = clusters.repeat(lens)
        return np.bincount(owner, self._label[w] == owner, self.k)

    def _scores(self, v: int, signal: np.ndarray) -> np.ndarray:
        """op(signal, load[|S_i|]), given the neighbour counts as the signal."""
        if self._signal == "triangles":
            signal = self._triangle_counts(v)
        elif self._signal == "surplus":
            signal = delta_g(self.snapshot, self.config, signal)
        return self._op(signal, self._load[self.snapshot.cluster_vertex_counts])

    def assign_vertex(self, v: int) -> int:
        self._assign((v,))
        return int(self.snapshot.assignment[v])

    def _assign(self, vertices) -> None:
        """The per-vertex step: gather the neighbours' clusters, count, score, pick, commit."""
        snap = self.snapshot
        stats = self.stats
        k = self.k
        draws = self._draws
        cap = self._cap
        assignment = snap.assignment
        sizes = snap.cluster_vertex_counts
        internal = snap.cluster_internal_edges
        indptr = self._indptr
        indices = self.graph.indices
        min_load = self.tie_policy == "min_load"
        for v in vertices:
            if v < 0 or assignment[v] >= 0:
                raise SnapshotError(f"vertex {v} is negative or already assigned")
            nbr = indices[indptr[v]:indptr[v + 1]]
            placed = assignment[nbr]
            placed = placed[placed >= 0]
            counts = np.bincount(placed, minlength=k)
            stats.neighbor_scans += len(nbr)
            if draws is not None:
                c = next(draws)
            else:
                scores = self._scores(v, counts)
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
            snap.cut_edges += len(placed) - inside
            snap.assigned_count += 1


def partition_stream(g: Graph, plan: StreamPlan, k: int, heuristic: str,
                     config: ObjectiveConfig, seed: int,
                     tie_policy: str = "lowest_index"):
    """
    Assign every vertex of the stream in one pass.

    Returns (snapshot, stats). Deterministic for identical
    (graph, plan, k, heuristic, config, seed, tie_policy); runtime covers
    the assignment loop only.
    """
    run = PartitionRun(g, k, heuristic, config, seed, tie_policy)
    t0 = time.perf_counter()
    run._assign(plan.sequence.tolist())
    run.stats.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return run.snapshot, run.stats
