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
BLOCK = 1 << 11  # entries per window of arrivals whose neighbours are counted together
MIN_BLOCK = 32  # mean arrivals a run's windows need for that; a denser run reads a table
# The rules a Lockstep pass scores together: those that weigh neighbour counts against a
# load table (interior-edge fennel's charge depends on the counts, so it runs alone).
LOCKSTEP_RULES = frozenset(h for h, (signal, _, _) in _RULES.items() if signal == "neighbors")
LOCKSTEP_CELLS = 256  # most runs x clusters one pass scores: its counts are b x that floats
LOCKSTEP_RUNS = 16  # most runs one pass makes: each holds an assignment and a load table


def _reads_table(entries: int, arrivals: int) -> bool:
    """Whether a neighbour-count run of arrivals with entries adjacency entries in all
    reads the (n, k) table: its BLOCK windows would average under MIN_BLOCK arrivals."""
    return (entries + arrivals) * MIN_BLOCK > BLOCK * arrivals


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


def _checked(g: Graph, k: int, heuristic: str, config: ObjectiveConfig,
             tie_policy: str) -> ObjectiveConfig:
    """The config a run of these arguments reads, resolved if its rule reads one, once the
    arguments are checked as a PartitionRun checks them; nothing is allocated."""
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}, expected one of {HEURISTICS}")
    if tie_policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return config.resolve(g, k) if heuristic in READS_OBJECTIVE else config  # no other reads it


def _lowest_least_loaded(scores: np.ndarray, c: int, sizes: list) -> int:
    """The min_load pick among the clusters tied at the top score scores[c]: the lowest
    index of those of least size."""
    return min((scores == scores[c]).nonzero()[0].tolist(), key=sizes.__getitem__)


@dataclass
class StreamStats:
    runtime_ms: float = 0.0
    threshold_violations: int = 0  # kept at 0: with nu >= 1 some cluster is always under the cap
    neighbor_scans: int = 0


def earlier_lists(g: Graph, seq: np.ndarray):
    """The earlier-neighbour lists of the stream seq, as (pos, indptr, ids): pos[v] is v's
    arrival position (len(seq) for a vertex outside the stream), and row p,
    ids[indptr[p]:indptr[p + 1]], holds the neighbours of seq[p] that arrive before it, in
    id order. Built from SPAN-bounded gathers, so no temporary spans the whole stream."""
    pos = np.full(g.n, len(seq), dtype=np.int64)
    pos[seq] = np.arange(len(seq))
    lens, indptr, ids = g.degrees[seq], np.zeros(len(seq) + 1, dtype=np.int64), []
    for lo, hi in spans(lens):
        owner = np.arange(lo, hi).repeat(lens[lo:hi])
        u = gather(g.indptr, g.indices, seq[lo:hi], lens[lo:hi])
        keep = pos[u] < owner
        ids.append(u[keep])
        indptr[lo + 1:hi + 1] = np.bincount(owner[keep] - lo, minlength=hi - lo)
    np.cumsum(indptr, out=indptr)
    return pos, indptr, np.concatenate([g.indices[:0], *ids])  # [:0]: an empty stream's


class PartitionRun:
    """
    Single streaming run over a fixed graph: owns the mutable snapshot,
    the run RNG (used only by the hash heuristic), and the tie policy.
    Vertices are assigned once and never moved.
    """

    def __init__(self, g: Graph, k: int, heuristic: str, config: ObjectiveConfig,
                 seed: int, tie_policy: str = "lowest_index"):
        self.config = _checked(g, k, heuristic, config, tie_policy)
        self.snapshot = PartitionSnapshot(g, k)
        self.stats = StreamStats()
        self.graph = g
        self.k = k
        self.heuristic = heuristic
        self.tie_policy = tie_policy
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._signal, term, self._op = _RULES[heuristic]
        reads = heuristic in READS_OBJECTIVE
        if reads and self.config.size_mode == "interior_edge":
            term, self._signal = "none", "surplus"  # the charge depends on the counts
        self._degrees = g.degrees
        if self._signal is not None:  # hash only draws
            cap = self.config.nu * g.n / k if reads else math.inf
            self._load = _load_table(term, self.config, g.n, k, cap)

    def _block_triangles(self, b: int, owner, u, cu, lists):
        """The triangle signal of a block of b arrivals from its rows (j, u, cluster of u) of
        the lists: tri[j, i] counts the edges among block[j]'s earlier neighbours both in S_i
        when the block started; pairs lists those (x, w) where x arrived in the block before
        block[j] and w before x."""
        n, k, assignment = self.graph.n, self.k, self.snapshot.assignment
        pos, indptr, ids = lists
        keys = owner * n + u  # sorted: block[j]'s earlier neighbours, by j
        near = np.zeros(n, dtype=bool)  # every arrival's earlier neighbours
        near[u] = True
        placed = cu >= 0
        tri = np.zeros(b * k, dtype=np.int64)
        pairs = []
        # x's earlier neighbour w, if block[j]'s too, closes (x, w) when x was placed before
        # the block in w's cluster (so the edge is met once, from its later end), or when x
        # arrived in the block
        for sel in (placed, ~placed):
            j, x, cx, rows = owner[sel], u[sel], cu[sel], pos[u[sel]]
            lens = indptr[rows + 1] - indptr[rows]
            for lo, hi in spans(lens):
                w = gather(indptr, ids, rows[lo:hi], lens[lo:hi])
                e = near[w].nonzero()[0]
                w = w[e]
                e = np.arange(lo, hi).repeat(lens[lo:hi])[e]
                if sel is placed:
                    hit = (assignment[w] == cx[e]).nonzero()[0]
                    e, w = e[hit], w[hit]
                if b > 1:  # near spans every arrival's neighbours: is w block[j]'s?
                    q = j[e] * n + w
                    hit = keys[np.searchsorted(keys, q).clip(max=len(keys) - 1)] == q
                    e, w = e[hit], w[hit]
                if sel is placed:
                    tri += np.bincount(j[e] * k + cx[e], minlength=b * k)
                else:
                    pairs.append((j[e], x[e], w))
        pj, pu, pw = (np.concatenate(p) for p in zip(*pairs)) if pairs else ((),) * 3
        return tri.reshape(b, k), (np.searchsorted(pj, np.arange(b + 1)).tolist(), pu, pw)

    def _counts(self, owner, pu, cu, b0: int, b: int):
        """Neighbour counts of a block of b arrivals at positions b0.. from its rows (j, position
        of u, cluster of u) of the lists: base[j, i] counts block[j]'s neighbours in S_i at the
        block start; once block[q] goes to S_c, each row in later[starts[q]:starts[q + 1]]
        gains one at c."""
        k = self.k
        before = cu >= 0
        base = np.bincount(owner[before] * k + cu[before], minlength=b * k).reshape(b, k)
        base = base.astype(np.float64)  # so the score runs on one dtype; counts < 2**53
        q = pu[~before] - b0  # the earlier neighbour's place in the block
        order = q.argsort()
        return (base, owner[~before][order].tolist(),
                np.searchsorted(q[order], np.arange(b + 1)).tolist())

    def _assign(self, run: np.ndarray, lists=None) -> None:
        """Assign a checked stream, distinct ids in [0, n), in order, by blocks cut by spans:
        for t/lt/et those whose arrivals, their earlier neighbours' lists and their rows of
        counts hold <= SPAN entries; for the neighbour rules windows of <= BLOCK entries, or,
        if a window would average under MIN_BLOCK arrivals (a dense graph), no block: each
        arrival reads its counts off the run's (n, k) table and pushes its adjacency into it.
        A block reads its rows of earlier_lists: lists() gives them (partition_stream's memo,
        its snapshot empty), else they are built here over the vertices the snapshot places
        already, then run, so a placed vertex counts as arriving before every arrival; the
        table starts with the placed vertices' adjacency pushed into it."""
        k, snap, degrees = self.k, self.snapshot, self._degrees
        self.stats.neighbor_scans = entries = int(degrees[run].sum())
        if self._signal is None:  # hash: the seeded draws in arrival order
            snap.assignment[run] = self.rng.integers(k, size=len(run))
            recount(snap)
            return
        triangles = self._signal == "triangles"
        placed = np.flatnonzero(snap.assignment >= 0)
        if not triangles and _reads_table(entries, len(run)):
            self._table = table = np.zeros((self.graph.n, k), dtype=np.int32)
            indptr, indices, lens = self.graph.indptr, self.graph.indices, degrees[placed]
            for lo, hi in spans(lens):  # each placed vertex's neighbours gain one in its S_c
                u = gather(indptr, indices, placed[lo:hi], lens[lo:hi])
                c = snap.assignment[placed[lo:hi]].repeat(lens[lo:hi])
                np.add.at(table, (u, c), np.int32(1))  # as _steps pushes
            self._steps(run.tolist())
        else:
            first = len(placed)  # the row of run[0]
            lists = lists() if lists else earlier_lists(self.graph, np.concatenate([placed, run]))
            pos, indptr, ids = lists
            if triangles:  # sized by the neighbours' degrees too: deg + k alone is 3.5-5x slower
                owner = np.arange(len(run)).repeat(np.diff(indptr[first:]))
                volume = degrees[run] + float(k)
                volume += np.bincount(owner, degrees[ids[indptr[first]:]], len(run))
                blocks = spans(volume)
            else:
                blocks = spans(degrees[run] + 1, BLOCK)
            for lo, hi in blocks:
                b0, b1 = first + lo, first + hi  # the block's rows
                u = ids[indptr[b0]:indptr[b1]]
                owner = np.arange(hi - lo).repeat(np.diff(indptr[b0:b1 + 1]))
                cu = snap.assignment[u]
                if triangles:
                    self._triangle_steps(run[lo:hi], owner, u,
                                         *self._block_triangles(hi - lo, owner, u, cu, lists))
                elif self._signal == "surplus":
                    self._steps(run[lo:hi].tolist(), self._counts(owner, pos[u], cu, b0, hi - lo))
                else:
                    self._block_steps(run[lo:hi], *self._counts(owner, pos[u], cu, b0, hi - lo))
        self._cut()

    def _cut(self) -> None:
        """The cut of a run's placed vertices: every edge but the interior ones once the
        stream covers the graph, else (a prefix stream) a recount."""
        snap = self.snapshot
        if snap.assigned_count == self.graph.n:
            snap.cut_edges = self.graph.m - int(snap.cluster_internal_edges.sum())
        else:
            recount(snap)

    def _steps(self, vertices: list, block=None) -> None:
        """The per-vertex step of the runs that read running counters: read the neighbours'
        clusters (a row of the run's table, or, for interior-edge fennel, of the block's
        _counts), score, pick, commit. The counters are Python ints until the end of the
        call, and charge[i] is load[|S_i|]."""
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
        for j, v in enumerate(vertices):
            counts = table[v] if block is None else base[j]
            # interior-edge fennel: the charge depends on the counts
            scores = op(delta_g(internal, config, counts) if surplus else counts, charge)
            c = int(scores.argmax())  # lowest index among ties
            if min_load and scores[::-1].argmax() != k - 1 - c:
                c = _lowest_least_loaded(scores, c, sizes)
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

    def _block_steps(self, vertices: np.ndarray, base, later, lstarts) -> None:
        """A neighbour-rule block, its counts from _counts: per arrival score its row of base,
        pick, and add one to its later neighbours' rows at the pick. Nothing reads the
        assignment or the interior counts in the block, and a row changes only before its
        arrival reads it, so the picks are written, and their interior edges counted off
        base, once, at the block's end."""
        snap = self.snapshot
        k, op, load = self.k, self._op, self._load
        charge, sizes = load[snap.cluster_vertex_counts], snap.cluster_vertex_counts.tolist()
        min_load = self.tie_policy == "min_load"
        picks = []
        for j, counts in enumerate(base):
            scores = op(counts, charge)
            c = int(scores.argmax())  # lowest index among ties
            if min_load and scores[::-1].argmax() != k - 1 - c:
                c = _lowest_least_loaded(scores, c, sizes)
            picks.append(c)
            sizes[c] += 1
            charge[c] = load[sizes[c]]
            for t in later[lstarts[j]:lstarts[j + 1]]:  # few: cheaper one by one
                base[t, c] += 1
        picks = np.array(picks, dtype=np.int64)
        snap.assignment[vertices] = picks
        snap.cluster_vertex_counts[:] = sizes
        internal = np.bincount(picks, base[np.arange(len(picks)), picks], k)
        snap.cluster_internal_edges += internal.astype(np.int64)  # exact: counts < 2**53

    def _triangle_steps(self, vertices: np.ndarray, owner, u, tri, pairs) -> None:
        """A t/lt/et block, its rows (j, u) of the lists and its signal from _block_triangles:
        per arrival add the triangles it closes inside the block (closed, read off the picks
        so far), score, pick. An arrival with no triangle at the block start and none closed
        scores 0 or -0.0 in every cluster (t's load is zeros, lt/et's finite), so all k tie
        and the pick is by load alone. Vertices never move, so each arrival's interior edges,
        its earlier neighbours in its cluster, are counted once, at the block's end."""
        snap = self.snapshot
        k, op, load = self.k, self._op, self._load
        assignment, charge = snap.assignment, load[snap.cluster_vertex_counts]
        sizes = snap.cluster_vertex_counts.tolist()
        min_load = self.tie_policy == "min_load"
        starts, pu, pw = pairs
        zero = (~tri.any(axis=1)).tolist()
        for j, v in enumerate(vertices.tolist()):
            closed = ()  # the clusters of the triangles v closes inside the block
            if starts[j + 1] > starts[j]:
                cu = assignment[pu[starts[j]:starts[j + 1]]]
                closed = cu[cu == assignment[pw[starts[j]:starts[j + 1]]]]
            if zero[j] and not len(closed):  # as the tie below would pick
                c = sizes.index(min(sizes)) if min_load else 0
            else:
                signal = tri[j] + np.bincount(closed, minlength=k) if len(closed) else tri[j]
                scores = op(signal, charge)
                c = int(scores.argmax())  # lowest index among ties
                if min_load and scores[::-1].argmax() != k - 1 - c:
                    c = _lowest_least_loaded(scores, c, sizes)
            assignment[v] = c
            sizes[c] += 1
            charge[c] = load[sizes[c]]
        snap.cluster_vertex_counts[:] = sizes
        cv = assignment[vertices][owner]
        snap.cluster_internal_edges += np.bincount(cv[assignment[u] == cv], minlength=k)


def _lockstep(runs: list, seq: np.ndarray, lists) -> None:
    """
    Assign the stream seq under every run of runs at once, each as its _assign would by
    blocks, its snapshot empty: per block one bincount of the (b, R, K) counts of its R
    runs, K the largest k; per arrival one score matrix S = counts * W - C, where a
    subtracting rule has W = 1 and C its charge, a multiplying rule W its charge and
    C = 0, and balanced W = 0 and C its charge, and the clusters past a run's k score
    -inf (W = 1, C = inf). x * 1.0 - C is x - C and x * W - 0.0 is x * W, while balanced's
    0 * x - load differs from -load in the sign of a zero alone, which argmax and == do not
    see: each run's picks, tie rule and charges are _block_steps' own. A block's picks are
    written, and their interior edges counted, at its end: a row of counts is read at its
    arrival's step and changed only before it.
    """
    g = runs[0].graph
    R, K = len(runs), max(run.k for run in runs)
    pos, indptr, ids = lists
    W, C, S = np.ones((R, K)), np.full((R, K), np.inf), np.empty((R, K))
    charges, loads = [], [run._load for run in runs]
    for r, run in enumerate(runs):
        multiply = run._op is np.multiply
        charges.append(W[r] if multiply else C[r])
        charges[r][:run.k] = run._load[0]
        if multiply:
            C[r, :run.k] = 0.0
        elif run.heuristic == "balanced":
            W[r, :run.k] = 0.0
    sizes = [[0] * K for _ in runs]  # a run's clusters past its k are never picked
    ties = [r for r, run in enumerate(runs) if run.tie_policy == "min_load"]
    internal = np.zeros(R * K)
    offsets = np.arange(R) * K  # run r's cells in a row of the flat counts
    lens = g.degrees[seq]
    for lo, hi in spans(lens + 1, BLOCK):
        b = hi - lo
        u = ids[indptr[lo]:indptr[hi]]
        owner = np.arange(b).repeat(np.diff(indptr[lo:hi + 1]))
        pu = pos[u]
        before = pu < lo  # placed when the block starts, under every run alike
        ub = u[before]
        cells = np.stack([run.snapshot.assignment[ub] for run in runs])
        cells += owner[before] * (R * K) + offsets[:, None]
        flat = np.bincount(cells.ravel(), np.ones(cells.size), b * R * K)  # float64 alone
        counts = flat.reshape(b, R, K)
        q = pu[~before] - lo  # the earlier neighbour's place in the block
        order = q.argsort()
        later = (owner[~before][order] * (R * K))[:, None] + offsets  # later rows' cells
        lstarts = np.searchsorted(q[order], np.arange(b + 1)).tolist()
        picks = []
        for j in range(b):
            np.multiply(counts[j], W, out=S)
            S -= C
            pick = S.argmax(axis=1)
            c = pick.tolist()
            if ties:
                last = S[:, ::-1].argmax(axis=1).tolist()
                for r in ties:  # tie: lowest least loaded
                    if last[r] != K - 1 - c[r]:
                        c[r] = pick[r] = _lowest_least_loaded(S[r], c[r], sizes[r])
            for cr, size, charge, load in zip(c, sizes, charges, loads):
                size[cr] += 1
                charge[cr] = load[size[cr]]
            if lstarts[j + 1] > lstarts[j]:  # the block's later neighbours gain one
                flat[(later[lstarts[j]:lstarts[j + 1]] + pick).ravel()] += 1
            picks.append(c)
        picks = np.array(picks, dtype=np.int64).reshape(b, R)
        picked = np.arange(b)[:, None] * (R * K) + offsets + picks
        internal += np.bincount((offsets + picks).ravel(), flat[picked.ravel()], R * K)
        for r, run in enumerate(runs):
            run.snapshot.assignment[seq[lo:hi]] = picks[:, r]
    internal = internal.astype(np.int64).reshape(R, K)  # exact: counts < 2**53
    for r, run in enumerate(runs):
        run.snapshot.cluster_vertex_counts[:] = sizes[r][:run.k]
        run.snapshot.cluster_internal_edges[:] = internal[r, :run.k]
        run.stats.neighbor_scans = int(lens.sum())
        run._cut()


def _call_key(k: int, heuristic: str, config: ObjectiveConfig, seed: int, tie_policy: str):
    """What a partition_stream call's run depends on: the config only if the rule reads it."""
    return k, heuristic, config if heuristic in READS_OBJECTIVE else None, seed, tie_policy


class Lockstep:
    """
    Runs that partition_stream may make in one pass over one stream plan of one graph,
    given as the (k, heuristic, config, seed, tie_policy) of their calls. Those of
    LOCKSTEP_RULES (fennel with vertex sizes) are cut, in the given order, into batches
    of two to LOCKSTEP_RUNS runs whose number times their largest k is at most
    LOCKSTEP_CELLS. The first call made with this object for a run of a batch makes
    every run of the batch, unless the plan's runs read the (n, k) table, and each call
    takes its own run's result; every other call runs alone.
    """

    def __init__(self, calls):
        self.batches, self.done, self.source = {}, {}, None
        batch, seen = [], set()
        for call in calls:
            k, heuristic, config = call[:3]
            key = _call_key(*call)
            if heuristic not in LOCKSTEP_RULES or key in seen or (
                    heuristic in READS_OBJECTIVE and config.size_mode != "vertex"):
                continue
            seen.add(key)
            if len(batch) == LOCKSTEP_RUNS or (
                    (len(batch) + 1) * max([k] + [c[0] for c in batch]) > LOCKSTEP_CELLS):
                self._keep(batch)
                batch = []
            batch.append(call)
        self._keep(batch)

    def _keep(self, batch: list) -> None:
        if len(batch) > 1:  # a batch of one runs alone: _block_steps is faster for it
            for call in batch:
                self.batches[_call_key(*call)] = batch

    def _take(self, g: Graph, plan: StreamPlan, seq: np.ndarray, lists, key):
        """The result of the run key over plan, made with its batch if it has one and the
        plan's runs count by blocks; None if it runs alone."""
        if self.source is None:
            self.source = g, plan
        elif self.source != (g, plan):
            raise ValueError("a Lockstep makes the runs of one graph and stream plan")
        batch = self.batches.get(key, ())
        for call in batch:
            del self.batches[_call_key(*call)]
        runs = {}
        if batch and not _reads_table(int(g.degrees[seq].sum()), len(seq)):
            for call in batch:
                try:
                    runs[_call_key(*call)] = PartitionRun(g, *call)
                except (ValueError, ArithmeticError):  # raised again by its own call
                    continue
        if len(runs) > 1:
            t0 = time.perf_counter()
            _lockstep(list(runs.values()), seq, lists())
            runtime_ms = (time.perf_counter() - t0) * 1000.0 / len(runs)
            for made, run in runs.items():
                run.stats.runtime_ms = runtime_ms  # the pass's time, split evenly
                self.done[made] = run.snapshot, run.stats
        return self.done.pop(key, None)


def partition_stream(g: Graph, plan: StreamPlan, k: int, heuristic: str,
                     config: ObjectiveConfig, seed: int,
                     tie_policy: str = "lowest_index", lockstep: Lockstep | None = None):
    """
    Assign every vertex of the stream in one pass.

    The plan must be a 1-D integer sequence of distinct ids in [0, n), or
    empty; otherwise SnapshotError names the problem before any vertex is
    assigned. Returns (snapshot, stats). Deterministic for identical
    (graph, plan, k, heuristic, config, seed, tie_policy); runtime covers
    the assignment loop only. Given a Lockstep of the plan's runs, a run of
    one of its batches is made with the rest of its batch, in one pass, on
    the first call for any of them, and its result is the same as a lone
    run's; its runtime is then the pass's assignment loop divided by the
    number of runs in it, so the batch's runtimes sum to the pass.
    """
    _checked(g, k, heuristic, config, tie_policy)  # a run of a batch is built by the batch
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

    def lists():  # built on the first block run of (plan, g), freed with the plan
        if g not in plan.earlier:
            plan.earlier[g] = earlier_lists(g, seq)
        return plan.earlier[g]

    if lockstep is not None:
        made = lockstep._take(g, plan, seq, lists, _call_key(k, heuristic, config, seed,
                                                             tie_policy))
        if made is not None:
            return made
    run = PartitionRun(g, k, heuristic, config, seed, tie_policy)
    t0 = time.perf_counter()
    run._assign(seq, lists)
    run.stats.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return run.snapshot, run.stats
