"""Spans around streamcut's public functions, and the per-layer metrics
derived from them.

Wrappers are installed from the benchmark's side, at every name a caller
looks up (``streamcut.generators.from_edges`` as well as
``streamcut.graph.from_edges``, ``streamcut.cli.load_edge_list`` as well as
``streamcut.bench.load_edge_list``), so the program's code is unchanged.
There are no per-vertex wrappers: the narrowest span is one whole call of a
public function. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

# home module -> public functions wrapped; a span is named "<module>.<function>"
TRACED = {
    "generators": ("generate_hp", "generate_cl"),
    "graph": ("from_edges", "load_edge_list", "restrict_to_lcc"),
    "stream": ("make_stream",),
    "partitioner": ("partition_stream",),
    "objective": ("build_snapshot",),
    "metrics": ("evaluate_run", "aggregate_rows"),
    "bench": ("parse_bench_spec", "run_bench", "write_assignment",
              "read_assignment", "eval_assignment"),
    "cli": ("main",),
}

JOB = "perfbench.job"  # root span of one job; its self time is the loop's own gap


# counts recorded at the span boundary, from arguments (in positional order)
# and the return value
ATTRS = {
    "graph.from_edges": lambda a, out: {"rows_in": len(a[0]), "kept": out.m},
    "graph.restrict_to_lcc": lambda a, out: {"n_in": a[0].n, "n_out": out.n},
    # _sample_pairs draws one uniform per cell of its (rows x n) blocks,
    # and the blocks tile the n x n square
    "generators.generate_hp": lambda a, out: {"draws": a[0].n * a[0].n},
    "generators.generate_cl": lambda a, out: {"draws": a[0].n * a[0].n},
    "stream.make_stream": lambda a, out: {"order": a[1], "seed": int(a[2])},
    "partitioner.partition_stream": lambda a, out: {
        "n": len(a[1].sequence), "runtime_ms": out[1].runtime_ms,
        "neighbor_scans": out[1].neighbor_scans,
        "threshold_violations": out[1].threshold_violations},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs")

    def __init__(self, name, start, end, parent, job, attrs=None):
        self.name, self.start, self.end = name, start, end
        self.parent, self.job, self.attrs = parent, job, attrs or {}

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "attrs": self.attrs}


class Recorder:
    """In-memory span list; parents are indices into it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, None, parent, self.job))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = end

    def wrapper(self, name: str, fn):
        """Wrap fn in a span called name, recording ATTRS counts."""
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                self.spans[idx].attrs = attrs(list(bound.arguments.values()), out)
            return out
        return traced


def install(make_wrapper, only=None):
    """
    Rebind every traced function, in each loaded streamcut module that binds
    it, to make_wrapper(span_name, fn). Returns a function that undoes it.
    """
    mods = [m for key, m in list(sys.modules.items())
            if m is not None and (key == "streamcut" or key.startswith("streamcut."))]
    undo = []
    for home, funcs in TRACED.items():
        home_mod = importlib.import_module(f"streamcut.{home}")
        for fname in funcs:
            name = f"{home}.{fname}"
            if only is not None and name not in only:
                continue
            fn = getattr(home_mod, fname)
            wrapped = make_wrapper(name, fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, fn))

    def restore():
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)
    return restore


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


SPANS = [f"{home}.{fname}" for home, funcs in TRACED.items() for fname in funcs]

# per-layer metrics of the JSON result -> unit. Function self times appear as
# a share of the traced job (seconds = share * trace.job_s), because a layer
# a workload never enters would otherwise report a time of exactly 0 s.
LAYER_UNITS = {
    "generators.generate_hp.self_pct": "%",
    "generators.draws": "count",
    "generators.edges_emitted": "count",
    "graph.from_edges.self_pct": "%",
    "graph.from_edges.calls": "count",
    "graph.from_edges.rows_in": "count",
    "graph.dedup_ratio": "ratio",
    "graph.load_edge_list.self_pct": "%",
    "graph.restrict_to_lcc.self_pct": "%",
    "graph.lcc_kept_ratio": "ratio",
    "stream.make_stream.random_pct": "%",
    "stream.make_stream.bfs_pct": "%",
    "stream.make_stream.calls": "count",
    "stream.distinct_ratio": "ratio",
    "partitioner.partition_stream.self_pct": "%",
    "partitioner.us_per_vertex": "us",
    "partitioner.runtime_ms": "ms",
    "partitioner.neighbor_scans": "count",
    "partitioner.scans_per_vertex": "ratio",
    "partitioner.threshold_violations": "count",
    "objective.build_snapshot.self_pct": "%",
    "metrics.evaluate_run.self_pct": "%",
    "metrics.aggregate_rows.self_pct": "%",
    "bench.parse_bench_spec.self_pct": "%",
    "bench.run_bench.self_pct": "%",
    "bench.runs_per_graph_build": "ratio",
    "bench.write_assignment.self_pct": "%",
    "bench.read_assignment.self_pct": "%",
    "bench.eval_assignment.self_pct": "%",
    "cli.main.self_pct": "%",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_s": "s",
    "trace.gap_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_layer_metrics(spans: list[Span], selfs: list[float], job) -> dict[str, float]:
    """
    Per-layer metrics of one job, from the spans recorded under that job id
    and their self times: every LAYER_UNITS key plus the self seconds of each
    span name. A layer the job never entered reads 0.
    """
    self_s, dur_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    attr, order_s = defaultdict(float), defaultdict(float)
    streams, emitted = [], 0
    for s, own in zip(spans, selfs):
        if s.job != job:
            continue
        self_s[s.name] += own
        dur_s[s.name] += s.end - s.start
        calls[s.name] += 1
        for key, val in s.attrs.items():
            if isinstance(val, (int, float)):
                attr[f"{s.name}.{key}"] += val
        if s.name == "stream.make_stream":
            order_s[s.attrs["order"]] += s.end - s.start
            streams.append((s.attrs["order"], s.attrs["seed"]))
        if (s.name == "graph.from_edges" and s.parent is not None
                and spans[s.parent].name.startswith("generators.")):
            emitted += s.attrs["rows_in"]

    ps = "partitioner.partition_stream"
    vertices = attr[f"{ps}.n"]
    builds = (calls["graph.load_edge_list"] + calls["generators.generate_hp"]
              + calls["generators.generate_cl"])
    job_s = dur_s[JOB]
    out = {}
    for name in SPANS:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.self_pct"] = _ratio(100.0 * self_s[name], job_s)
    for kind in ("random", "bfs"):
        out[f"stream.make_stream.{kind}_s"] = order_s[kind]
        out[f"stream.make_stream.{kind}_pct"] = _ratio(100.0 * order_s[kind], job_s)
    out.update({
        "generators.draws": attr["generators.generate_hp.draws"]
        + attr["generators.generate_cl.draws"],
        "generators.edges_emitted": emitted,
        "graph.from_edges.calls": calls["graph.from_edges"],
        "graph.from_edges.rows_in": attr["graph.from_edges.rows_in"],
        "graph.dedup_ratio": _ratio(attr["graph.from_edges.kept"],
                                    attr["graph.from_edges.rows_in"]),
        "graph.lcc_kept_ratio": _ratio(attr["graph.restrict_to_lcc.n_out"],
                                       attr["graph.restrict_to_lcc.n_in"]),
        "stream.make_stream.calls": calls["stream.make_stream"],
        "stream.distinct_ratio": _ratio(len(set(streams)), len(streams)),
        "partitioner.us_per_vertex": _ratio(self_s[ps] * 1e6, vertices),
        "partitioner.runtime_ms": attr[f"{ps}.runtime_ms"],
        "partitioner.neighbor_scans": attr[f"{ps}.neighbor_scans"],
        "partitioner.scans_per_vertex": _ratio(attr[f"{ps}.neighbor_scans"], vertices),
        "partitioner.threshold_violations": attr[f"{ps}.threshold_violations"],
        "bench.runs_per_graph_build": _ratio(calls[ps], builds),
        "trace.job_s": job_s,
        "trace.gap_s": self_s[JOB],
    })
    return out


def median_over_jobs(per_job: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_job) for key in per_job[0]}
