"""Experiment-matrix runner: flat key-value spec files to CSV result tables."""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .generators import ClParams, HpParams, generate_cl, generate_hp
from .graph import Graph, load_edge_list
from .metrics import (CSV_COLUMNS, RunResult, compute_lambda, compute_rho,
                      aggregate_rows, error_row, evaluate_run, result_to_row)
from .objective import ObjectiveConfig, build_snapshot, eval_f, eval_g
from .partitioner import HEURISTICS, TIE_POLICIES, partition_stream
from .stream import ORDER_KINDS, StreamPlan, make_stream


class BenchSpecError(ValueError):
    pass


@dataclass
class BenchSpec:
    """
    Run matrix: the Cartesian product of graphs x k x gamma x order x
    heuristic x seeds, plus shared objective settings. Graph entries are
    "path:FILE", "hp:n=..,k=..,p=..,q=..", or "cl:n=..,delta=..[,avg_degree=..]";
    a generator's k may be the literal "match" to track the run's k, and its
    sample seed is the run seed.
    """

    graphs: list[str]
    k_list: list[int]
    gamma_list: list[float]
    order_list: list[str]
    heuristic_list: list[str]
    seeds: list[int]
    nu: float = math.inf
    alpha: float | str = "auto"
    size_mode: str = "vertex"
    marginal_mode: str = "derivative"
    tie_policy: str = "lowest_index"
    out: str = "results.csv"
    lcc: bool = True

    def validate(self):
        if not self.graphs:
            raise BenchSpecError("no graph directives")
        if not self.heuristic_list:
            raise BenchSpecError("empty heuristic list")
        if not self.k_list or not self.gamma_list or not self.seeds or not self.order_list:
            raise BenchSpecError("k, gamma, order and seeds must each be nonempty")
        for h in self.heuristic_list:
            if h not in HEURISTICS:
                raise BenchSpecError(f"unknown heuristic {h!r}")
        for o in self.order_list:
            if o not in ORDER_KINDS:
                raise BenchSpecError(f"unknown order {o!r}")
        if self.tie_policy not in TIE_POLICIES:
            raise BenchSpecError(f"unknown tie policy {self.tie_policy!r}")
        for spec in self.graphs:
            _parse_graph_spec(spec)  # raises on malformed entries


def _parse_kv(body: str, what: str) -> dict[str, str]:
    out = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise BenchSpecError(f"malformed {what} parameter {part!r}")
        key, val = part.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _parse_graph_spec(spec: str):
    """Split a graph directive into (kind, params); validates keys."""
    if ":" not in spec:
        raise BenchSpecError(f"graph spec {spec!r} needs a kind prefix (path:/hp:/cl:)")
    kind, body = spec.split(":", 1)
    kind = kind.strip()
    if kind == "path":
        if not body:
            raise BenchSpecError("path: graph spec with empty path")
        return kind, {"path": body}
    if kind == "hp":
        kv = _parse_kv(body, "hp")
        missing = {"n", "k", "p", "q"} - kv.keys()
        if missing:
            raise BenchSpecError(f"hp spec missing {sorted(missing)}")
        return kind, kv
    if kind == "cl":
        kv = _parse_kv(body, "cl")
        missing = {"n", "delta"} - kv.keys()
        if missing:
            raise BenchSpecError(f"cl spec missing {sorted(missing)}")
        return kind, kv
    raise BenchSpecError(f"unknown graph kind {kind!r}")


def parse_bench_spec(path) -> BenchSpec:
    """
    Parse a flat key-value spec file: one "key = value" directive per
    line, '#' comments, repeated "graph" lines accumulate, list-valued
    keys are whitespace-separated.
    """
    raw: dict[str, str] = {}
    graphs: list[str] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if "=" not in s:
                raise BenchSpecError(f"{path}:{lineno}: expected 'key = value', got {s!r}")
            key, val = s.split("=", 1)
            key, val = key.strip().lower(), val.strip()
            if key == "graph":
                graphs.append(val)
            else:
                raw[key] = val

    def floats(key, default=None):
        if key not in raw:
            return default
        return [float(x) for x in raw[key].split()]

    def ints(key, default=None):
        if key not in raw:
            return default
        return [int(x) for x in raw[key].split()]

    known = {"k", "gamma", "order", "heuristic", "seeds", "nu", "alpha",
             "size_mode", "marginal_mode", "tie_policy", "out", "lcc"}
    unknown = raw.keys() - known
    if unknown:
        raise BenchSpecError(f"unknown spec keys {sorted(unknown)}")

    alpha = raw.get("alpha", "auto")
    spec = BenchSpec(
        graphs=graphs,
        k_list=ints("k", []),
        gamma_list=floats("gamma", [1.5]),
        order_list=raw.get("order", "random").split(),
        heuristic_list=raw.get("heuristic", "").split(),
        seeds=ints("seeds", []),
        nu=float(raw.get("nu", "inf")),
        alpha=alpha if alpha == "auto" else float(alpha),
        size_mode=raw.get("size_mode", "vertex"),
        marginal_mode=raw.get("marginal_mode", "derivative"),
        tie_policy=raw.get("tie_policy", "lowest_index"),
        out=raw.get("out", "results.csv"),
        lcc=raw.get("lcc", "true").lower() in ("1", "true", "yes", "on"),
    )
    spec.validate()
    return spec


class _GraphCache:
    """Materializes graph specs, one instance per (spec, k, seed) as needed."""

    def __init__(self, lcc: bool):
        self.lcc = lcc
        self._cache: dict[tuple, Graph] = {}

    def get(self, spec: str, k: int, seed: int) -> tuple[Graph, str, tuple]:
        """(graph, display name, cache key) of the instance a run needs."""
        kind, kv = _parse_graph_spec(spec)
        if kind == "path":
            key = (spec,)
            name = kv["path"]
        elif kind == "hp":
            gk = k if kv["k"] == "match" else int(kv["k"])
            key = (spec, gk, seed)
            name = f"hp(n={kv['n']},k={gk},p={kv['p']},q={kv['q']})"
        else:
            key = (spec, seed)
            name = f"cl(n={kv['n']},delta={kv['delta']})"
        if key not in self._cache:
            if kind == "path":
                self._cache[key] = load_edge_list(kv["path"], lcc=self.lcc)
            elif kind == "hp":
                g, _ = generate_hp(HpParams(n=int(kv["n"]), k=key[1],
                                            p=float(kv["p"]), q=float(kv["q"]),
                                            seed=seed))
                self._cache[key] = g
            else:
                params = ClParams(n=int(kv["n"]), delta=float(kv["delta"]),
                                  avg_degree=float(kv.get("avg_degree", 10.0)),
                                  i0=int(kv["i0"]) if "i0" in kv else None,
                                  seed=seed)
                self._cache[key] = generate_cl(params)
        return self._cache[key], name, key


def run_bench(spec: BenchSpec):
    """
    Execute the matrix sequentially in deterministic order and write the
    CSV: one row per run, then mean/std aggregate rows per group. Failures
    become error rows; the matrix keeps going. Runs on one graph instance
    with the same order and seed share one (read-only) arrival sequence.
    """
    spec.validate()
    cache = _GraphCache(spec.lcc)
    plans: dict[tuple, StreamPlan] = {}
    rows: list[list[str]] = []
    results: list[RunResult] = []
    for gspec in spec.graphs:
        for k in spec.k_list:
            for gamma in spec.gamma_list:
                for order in spec.order_list:
                    for heuristic in spec.heuristic_list:
                        for seed in spec.seeds:
                            name = gspec
                            try:
                                g, name, gkey = cache.get(gspec, k, seed)
                                config = ObjectiveConfig(
                                    gamma=gamma, alpha=spec.alpha, nu=spec.nu,
                                    size_mode=spec.size_mode,
                                    marginal_mode=spec.marginal_mode)
                                if (gkey, order, seed) not in plans:
                                    plans[gkey, order, seed] = make_stream(g, order, seed)
                                plan = plans[gkey, order, seed]
                                snap, stats = partition_stream(
                                    g, plan, k, heuristic, config, seed,
                                    tie_policy=spec.tie_policy)
                                r = evaluate_run(g, name, snap, config, order,
                                                 heuristic, seed, stats.runtime_ms,
                                                 stats.threshold_violations)
                                results.append(r)
                                rows.append(result_to_row(r))
                            except Exception as ex:
                                rows.append(error_row(name, k, gamma, spec.alpha,
                                                      spec.nu, order, heuristic,
                                                      seed, f"{type(ex).__name__}: {ex}"))
    rows.extend(aggregate_rows(results))
    with open(spec.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows(rows)
    return results


def write_assignment(g: Graph, assignment: np.ndarray, path) -> None:
    """Assignment CSV with original vertex labels: header vertex,cluster."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["vertex", "cluster"])
        w.writerows(zip(g.id_map.tolist(), assignment.tolist(), strict=True))


def read_assignment(g: Graph, path, k: int) -> np.ndarray:
    """
    Inverse of write_assignment; validates coverage, cluster range and
    that no vertex has two rows. A bad row is reported by the first
    offending row in file order.
    """
    with open(path) as fh, warnings.catch_warnings():
        if next(csv.reader([fh.readline()])) != ["vertex", "cluster"]:
            raise ValueError(f"{path}: expected header vertex,cluster")
        warnings.simplefilter("ignore", UserWarning)  # a file without rows
        try:
            rows = np.loadtxt(fh, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
        except ValueError as ex:
            raise ValueError(f"{path}: {ex}") from None
    if rows.size and rows.shape[1] != 2:
        raise ValueError(f"{path}: expected 2 columns, got {rows.shape[1]}")
    labels, clusters = rows.reshape(-1, 2).T
    # dense id of each label, looked up in id_map sorted (it need not be)
    order = np.argsort(g.id_map, kind="stable")
    ids = g.id_map[order]
    dense = np.searchsorted(ids, labels)
    known = dense < g.n
    known[known] = ids[dense[known]] == labels[known]
    dense[known] = order[dense[known]]
    dense[~known] = -1
    by_vertex = np.argsort(dense, kind="stable")  # file order within one vertex
    repeated = np.zeros(len(labels), dtype=bool)
    repeated[by_vertex[1:]] = dense[by_vertex[1:]] == dense[by_vertex[:-1]]
    bad = ~known | (clusters < 0) | (clusters >= k) | repeated
    if bad.any():
        r = int(bad.argmax())
        vlabel, c = int(labels[r]), int(clusters[r])
        if not known[r]:
            raise ValueError(f"{path}: unknown vertex label {vlabel}")
        if not 0 <= c < k:
            raise ValueError(f"{path}: cluster {c} out of range [0,{k})")
        raise ValueError(f"{path}: duplicate row for vertex label {vlabel}")
    assignment = np.full(g.n, -1, dtype=np.int64)
    assignment[dense] = clusters
    if (assignment < 0).any():
        missing = int((assignment < 0).sum())
        raise ValueError(f"{path}: {missing} vertices missing an assignment")
    return assignment


def eval_assignment(g: Graph, path, k: int, config: ObjectiveConfig):
    """Recompute lambda, rho, f, g for a stored assignment."""
    assignment = read_assignment(g, path, k)
    snap = build_snapshot(g, assignment, k)
    config = config.resolve(g, k)
    return {
        "lambda": compute_lambda(g, snap),
        "rho": compute_rho(snap, g.n, k),
        "f": eval_f(snap, config),
        "g": eval_g(snap, config),
    }
