"""Edge-surplus objective machinery: cost family, marginals, f/g/shifted-g."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph, spans

SIZE_MODES = ("vertex", "interior_edge")
MARGINAL_MODES = ("discrete", "derivative")

AUTO = "auto"


@dataclass(frozen=True)
class ObjectiveConfig:
    """
    Parameters of the cost family c(x) = alpha*x^gamma.

    alpha may be the string "auto", resolved against a concrete (graph, k)
    via resolve(). size_mode chooses what x counts: cluster vertex
    cardinality, or the cluster's interior-edge cardinality. marginal_mode
    chooses delta-c as the discrete difference c(x+1)-c(x) or the
    derivative alpha*gamma*x^(gamma-1).
    """

    gamma: float = 1.5
    alpha: float | str = AUTO
    nu: float = math.inf
    size_mode: str = "vertex"
    marginal_mode: str = "derivative"

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 1):
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma}")
        if not self.nu >= 1:  # NaN fails every comparison
            raise ValueError(f"nu must be >= 1 (inf disables the cap), got {self.nu}")
        if self.size_mode not in SIZE_MODES:
            raise ValueError(f"size_mode must be one of {SIZE_MODES}")
        if self.marginal_mode not in MARGINAL_MODES:
            raise ValueError(f"marginal_mode must be one of {MARGINAL_MODES}")
        if self.alpha != AUTO and not 0 < float(self.alpha) < math.inf:
            raise ValueError(
                f"alpha must be finite and positive or 'auto', got {self.alpha}")

    def resolve(self, g: Graph, k: int) -> "ObjectiveConfig":
        """Return a copy with a numeric alpha."""
        if self.alpha == AUTO:
            return replace(self, alpha=resolve_alpha(g, k, self.gamma))
        return self

    @property
    def alpha_value(self) -> float:
        if self.alpha == AUTO:
            raise ValueError("alpha is unresolved; call resolve(graph, k) first")
        return float(self.alpha)


def check_pair_alpha(alpha: float) -> float:
    """alpha of the pairwise cost family alpha*C(x,2), the exact baselines'
    integral problem: finite and >= 0 (0 keeps only the cut)."""
    if not 0 <= alpha < math.inf:  # NaN fails every comparison
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    return alpha


def resolve_alpha(g: Graph, k: int, gamma: float) -> float:
    """Scaling rule alpha = m * k^(gamma-1) / n^gamma."""
    if g.n < 1:
        raise ValueError("cannot scale alpha on a zero-vertex graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.m == 0:
        raise ValueError("alpha 'auto' scales by m, and the graph has no edges: give alpha")
    return g.m * k ** (gamma - 1) / g.n ** gamma


def cost(config: ObjectiveConfig, x) -> np.ndarray | float:
    """c(x) = alpha * x^gamma, elementwise."""
    return config.alpha_value * np.asarray(x, dtype=np.float64) ** config.gamma


def marginal_cost(config: ObjectiveConfig, x) -> np.ndarray | float:
    """
    delta-c at current size x: c(x+1)-c(x) (discrete) or
    alpha*gamma*x^(gamma-1) (derivative). 0^0 = 1, so gamma=1 yields the
    constant alpha in both modes.
    """
    a, gm = config.alpha_value, config.gamma
    x = np.asarray(x, dtype=np.float64)
    if config.marginal_mode == "discrete":
        return a * ((x + 1.0) ** gm - x ** gm)
    return a * gm * x ** (gm - 1.0)


class SnapshotError(ValueError):
    pass


class PartitionSnapshot:
    """
    Mutable partition state over a fixed graph: assignment vector
    (UNASSIGNED = -1), per-cluster vertex and interior-edge counters,
    and the cut-edge counter, all over the placed vertices. Counters are
    exact integers, kept by the assignment engine or rebuilt by recount().
    """

    UNASSIGNED = -1

    def __init__(self, g: Graph, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.graph = g
        self.k = k
        self.assignment = np.full(g.n, self.UNASSIGNED, dtype=np.int64)
        self.cluster_vertex_counts = np.zeros(k, dtype=np.int64)
        self.cluster_internal_edges = np.zeros(k, dtype=np.int64)
        self.cut_edges = 0

    @property
    def assigned_count(self) -> int:
        """Vertices placed so far: the cluster sizes' sum."""
        return int(self.cluster_vertex_counts.sum())

    @property
    def fully_assigned(self) -> bool:
        return self.assigned_count == self.graph.n

    def _require_full(self):
        if not self.fully_assigned:
            raise SnapshotError(
                f"{self.graph.n - self.assigned_count} vertices unassigned")


def recount(snap: PartitionSnapshot) -> PartitionSnapshot:
    """Rebuild snap's counters from its assignment, over the placed vertices: the
    CSR rows in spans of at most SPAN entries (or one row), each edge met from both ends."""
    g, a, k = snap.graph, snap.assignment, snap.k
    placed = a >= 0
    snap.cluster_vertex_counts = np.bincount(a[placed], minlength=k)
    degrees, internal, cut = g.degrees, np.zeros(k, dtype=np.int64), 0
    for lo, hi in spans(degrees):
        mine = a[lo:hi].repeat(degrees[lo:hi])
        theirs = a[g.indices[g.indptr[lo]:g.indptr[hi]]]
        both = (mine >= 0) & (theirs >= 0)
        inside = mine[both & (mine == theirs)]
        internal += np.bincount(inside, minlength=k)
        cut += int(both.sum()) - len(inside)
    snap.cluster_internal_edges, snap.cut_edges = internal // 2, cut // 2
    return snap


def build_snapshot(g: Graph, assignment: np.ndarray, k: int) -> PartitionSnapshot:
    """Snapshot of a complete assignment, counters recomputed from scratch."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (g.n,):
        raise SnapshotError(f"assignment must cover all {g.n} vertices")
    if assignment.size and (assignment.min() < 0 or assignment.max() >= k):
        raise SnapshotError("cluster id out of range")
    snap = PartitionSnapshot(g, k)
    snap.assignment = assignment.copy()
    return recount(snap)


def _size_counters(snap: PartitionSnapshot, config: ObjectiveConfig) -> np.ndarray:
    if config.size_mode == "vertex":
        return snap.cluster_vertex_counts
    return snap.cluster_internal_edges


def eval_f(snap: PartitionSnapshot, config: ObjectiveConfig) -> float:
    """f(P) = cut_edges + sum_i c(x_i), minimized by good partitions."""
    snap._require_full()
    return float(snap.cut_edges + cost(config, _size_counters(snap, config)).sum())


def eval_g(snap: PartitionSnapshot, config: ObjectiveConfig) -> float:
    """g(P) = m - f(P), computed literally so the identity is exact."""
    snap._require_full()
    m = snap.cut_edges + int(snap.cluster_internal_edges.sum())
    return m - eval_f(snap, config)


def eval_g_shifted(snap: PartitionSnapshot, config: ObjectiveConfig) -> float:
    """
    Nonnegative shift of g: g + alpha*T^gamma where T is the total the
    per-cluster counters sum to (n in vertex mode, m in interior-edge
    mode). Since sum_i x_i <= T, sum_i c(x_i) <= c(T) and the shift
    dominates the cost term, so the value is >= 0 on every partition.
    """
    snap._require_full()
    if config.size_mode == "vertex":
        total = int(snap.cluster_vertex_counts.sum())
    else:
        total = snap.cut_edges + int(snap.cluster_internal_edges.sum())
    return eval_g(snap, config) + config.alpha_value * float(total) ** config.gamma


def eval_modularity_form(snap: PartitionSnapshot, p: float) -> float:
    """sum_i [e(S_i,S_i) - p*C(|S_i|,2)]. At p = 2*alpha this has the same
    argmax as g with the gamma=2 vertex cost (they differ by a constant)."""
    snap._require_full()
    s = snap.cluster_vertex_counts.astype(np.float64)
    return float(snap.cluster_internal_edges.sum() - p * (s * (s - 1.0) / 2.0).sum())


def delta_g(counters, config: ObjectiveConfig, neighbor_counts: np.ndarray) -> np.ndarray:
    """
    Greedy score vector over clusters for the arriving vertex:
    delta_g[i] = |N(v) ∩ S_i| - [marginal cost of adding v to S_i].

    counters[i] is the size the cost reads: |S_i| in vertex mode, which
    charges the size marginal at |S_i|; e_i in interior-edge mode, which
    charges c(e_i + nbrs_i) - c(e_i), the cost of the edges v closes.
    """
    nbrs = np.asarray(neighbor_counts, dtype=np.float64)
    x = np.asarray(counters, dtype=np.float64)
    if config.size_mode == "vertex":
        return nbrs - marginal_cost(config, x)
    a, gm = config.alpha_value, config.gamma
    return nbrs - a * ((x + nbrs) ** gm - x ** gm)
