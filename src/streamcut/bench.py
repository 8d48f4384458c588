"""Experiment-matrix runner: flat key-value spec files to CSV result tables."""
from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .generators import ClParams, HpParams, generate_cl, generate_hp
from .graph import Graph, load_edge_list
from .metrics import (CSV_COLUMNS, RunResult, aggregate_rows, error_row, evaluate_run,
                      measures, result_to_row)
from .objective import AUTO, ObjectiveConfig, build_snapshot
from .partitioner import HEURISTICS, READS_OBJECTIVE, TIE_POLICIES, partition_stream
from .stream import ORDER_KINDS, make_stream

MATCH = "match"  # a generator's k that tracks the run's k

_SPEC_KEYS = {"graph", "k", "gamma", "order", "heuristic", "seeds", "nu", "alpha",
              "size_mode", "marginal_mode", "tie_policy", "out", "lcc"}

# generator directive -> (parameter types, number of leading required ones, the
# params class whose checks the values must pass)
_GRAPH_PARAMS = {
    "hp": ({"n": int, "k": lambda s: s if s == MATCH else int(s), "p": float,
            "q": float}, 4, HpParams),
    "cl": ({"n": int, "delta": float, "avg_degree": float, "i0": int}, 2, ClParams),
}

_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


class BenchSpecError(ValueError):
    pass


@dataclass
class BenchSpec:
    """
    Run matrix: the Cartesian product of graphs x k x objectives x order x
    heuristic x seeds, where objectives holds one ObjectiveConfig per gamma.
    Graph entries are "path:FILE", "hp:n=..,k=..,p=..,q=..", or
    "cl:n=..,delta=..[,avg_degree=..][,i0=..]"; a generator's k may be the
    literal "match" to track the run's k, and its sample seed is the run seed.
    """

    graphs: list[str]
    k_list: list[int]
    objectives: list[ObjectiveConfig]
    order_list: list[str]
    heuristic_list: list[str]
    seeds: list[int]
    tie_policy: str = "lowest_index"
    out: str = "results.csv"
    lcc: bool = True

    def validate(self):
        if not self.graphs:
            raise BenchSpecError("no graph directives")
        if not self.heuristic_list:
            raise BenchSpecError("empty heuristic list")
        if not self.k_list or not self.objectives or not self.seeds or not self.order_list:
            raise BenchSpecError("k, gamma, order and seeds must each be nonempty")
        if min(self.k_list) < 1 or min(self.seeds) < 0:
            raise BenchSpecError("k must be >= 1 and seeds >= 0")
        for key, values in (("k", self.k_list), ("gamma", [c.gamma for c in self.objectives]),
                            ("order", self.order_list), ("heuristic", self.heuristic_list),
                            ("seeds", self.seeds), ("graph", self.graphs)):
            seen = set()
            for x in values:  # a repeat would run and count the same runs twice
                same = x
                if key == "graph":  # by typed params: p=0.5 and p=.5 are one graph
                    kind, params, _ = _parse_graph_spec(x)  # raises on malformed entries
                    same = kind, *sorted(params.items())
                if same in seen:
                    raise BenchSpecError(f"repeated {key} value {x!r}")
                seen.add(same)
        for h in self.heuristic_list:
            if h not in HEURISTICS:
                raise BenchSpecError(f"unknown heuristic {h!r}")
        for o in self.order_list:
            if o not in ORDER_KINDS:
                raise BenchSpecError(f"unknown order {o!r}")
        if self.tie_policy not in TIE_POLICIES:
            raise BenchSpecError(f"unknown tie policy {self.tie_policy!r}")


def _parse_graph_spec(spec: str) -> tuple[str, dict, dict[str, str]]:
    """
    Split a graph directive into (kind, typed params, params as written);
    display names use the written text, so "p=.8" stays ".8".
    """
    if ":" not in spec:
        raise BenchSpecError(f"graph spec {spec!r} needs a kind prefix (path:/hp:/cl:)")
    kind, body = spec.split(":", 1)
    kind = kind.strip()
    if kind == "path":
        if not body:
            raise BenchSpecError("path: graph spec with empty path")
        return kind, {"path": body}, {"path": body}
    if kind not in _GRAPH_PARAMS:
        raise BenchSpecError(f"unknown graph kind {kind!r}")
    types, required, checked = _GRAPH_PARAMS[kind]
    params, text = {}, {}
    for part in body.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise BenchSpecError(f"malformed {kind} parameter {part.strip()!r}")
        key, val = (s.strip() for s in part.split("=", 1))
        if key not in types or key in text:
            raise BenchSpecError(f"unknown or repeated {kind} parameter {key!r}")
        text[key] = val
        try:
            params[key] = types[key](val)
        except ValueError:
            raise BenchSpecError(f"{kind} parameter {key}={val!r} is not a number") from None
    missing = set(list(types)[:required]) - text.keys()
    if missing:
        raise BenchSpecError(f"{kind} spec missing {sorted(missing)}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q > p warns once, when an instance is built
        try:  # k=match takes each run's k, which validate checks
            checked(**{**params, "k": 1} if params.get("k") == MATCH else params)
        except ValueError as ex:
            raise BenchSpecError(f"graph {spec!r}: {ex}") from None
    return kind, params, text


def parse_bench_spec(path) -> BenchSpec:
    """
    Parse a flat key-value spec file: one "key = value" directive per
    line, '#' comments, repeated "graph" lines accumulate, list-valued
    keys are whitespace-separated. Any other key given twice is an error.
    Every value is checked here: a bad one raises BenchSpecError naming the
    file before any graph is built.
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
            if key not in _SPEC_KEYS:
                raise BenchSpecError(f"{path}:{lineno}: unknown spec key {key!r}")
            if key == "graph":
                graphs.append(val)
            elif key in raw:
                raise BenchSpecError(f"{path}:{lineno}: repeated key {key!r}")
            else:
                raw[key] = val

    def value(key, convert, default=None):
        """raw[key] through convert, naming the key if it fails."""
        if key not in raw:
            return default
        try:
            return convert(raw[key])
        except (ValueError, KeyError):
            raise BenchSpecError(f"bad {key} value {raw[key]!r}") from None

    def words(convert=str):
        return lambda text: [convert(x) for x in text.split()]

    try:
        shared = {key: value(key, convert) for key, convert in (
            ("nu", float), ("alpha", lambda s: s if s == AUTO else float(s)),
            ("size_mode", str), ("marginal_mode", str)) if key in raw}
        spec = BenchSpec(
            graphs=graphs,
            k_list=value("k", words(int), []),
            objectives=[ObjectiveConfig(gamma=gamma, **shared)
                        for gamma in value("gamma", words(float), [ObjectiveConfig.gamma])],
            order_list=value("order", words(), ["random"]),
            heuristic_list=value("heuristic", words(), []),
            seeds=value("seeds", words(int), []),
            tie_policy=value("tie_policy", str, BenchSpec.tie_policy),
            out=value("out", str, BenchSpec.out),
            lcc=value("lcc", lambda s: _FLAGS[s.lower()], BenchSpec.lcc),
        )
        spec.validate()
    except ValueError as ex:
        raise BenchSpecError(f"{path}: {ex}") from None
    return spec


def _instance(kind: str, params: dict, text: dict[str, str], k: int, seed: int,
              lcc: bool) -> tuple[Graph, str]:
    """(graph, display name) of a parsed directive's instance for a run's k and seed."""
    if kind == "path":
        return load_edge_list(params["path"], lcc=lcc), text["path"]
    if kind == "hp":
        gk = k if params["k"] == MATCH else params["k"]
        g, _ = generate_hp(HpParams(**{**params, "k": gk}, seed=seed))
        return g, f"hp(n={text['n']},k={gk},p={text['p']},q={text['q']})"
    return generate_cl(ClParams(**params, seed=seed)), f"cl(n={text['n']},delta={text['delta']})"


def run_bench(spec: BenchSpec):
    """
    Execute the matrix sequentially and write the CSV: one row per run in
    contract order (graph, k, objective, order, heuristic, seed), then mean/std
    aggregate rows per group. Failures become error rows; the matrix keeps
    going. Runs are made one graph instance at a time (see _run_instance).
    """
    spec.validate()
    cells: dict[tuple[int, ...], tuple[list[str], RunResult | None]] = {}
    ks, seeds = list(enumerate(spec.k_list)), list(enumerate(spec.seeds))
    for gi, gspec in enumerate(spec.graphs):
        kind, params, text = _parse_graph_spec(gspec)
        kis = [[pair] for pair in ks] if params.get("k") == MATCH else [ks]
        sis = [seeds] if kind == "path" else [[pair] for pair in seeds]
        for part in itertools.product(kis, sis):
            _run_instance(spec, gi, (kind, params, text), *part, cells)
    runs = [cells[key] for key in sorted(cells)]
    results = [r for _, r in runs if r is not None]
    with open(spec.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows([row for row, _ in runs] + aggregate_rows(results))
    return results


def _run_instance(spec: BenchSpec, gi: int, directive: tuple, kis, sis, cells: dict) -> None:
    """
    Runs on one instance of graph directive gi, built (or failing to build) once
    for the (index, value) pairs kis of k and sis of seeds it covers: every k and
    seed for a path, one seed for a fixed-k generator, one (k, seed) for k=match.
    They go by seed, order (one read-only arrival sequence), k, heuristic and
    objective; each lands in cells at its contract position as (CSV row,
    RunResult or None). A rule that reads no objective setting is partitioned
    once, at the first objective whose run succeeds, and that run is evaluated,
    runtime_ms and threshold_violations included, for each later objective.
    """
    try:
        g, name = _instance(*directive, kis[0][1], sis[0][1], spec.lcc)
    except Exception as ex:  # every run on it fails alike
        g, name, failed = None, spec.graphs[gi], ex
    for si, seed in sis:
        for ri, order in enumerate(spec.order_list):
            plan = None if g is None else make_stream(g, order, seed)
            for (ki, k), (hi, heuristic) in itertools.product(kis, enumerate(spec.heuristic_list)):
                run = None
                for oi, config in enumerate(spec.objectives):
                    try:
                        if g is None:
                            raise failed
                        # a config the run would fail to resolve fails alike in evaluate_run
                        if run is None or heuristic in READS_OBJECTIVE:
                            run = partition_stream(g, plan, k, heuristic, config, seed,
                                                   tie_policy=spec.tie_policy)
                        snap, stats = run
                        r = evaluate_run(g, name, snap, config, order, heuristic, seed,
                                         stats.runtime_ms, stats.threshold_violations)
                        cells[gi, ki, oi, ri, hi, si] = result_to_row(r), r
                    except Exception as ex:
                        cells[gi, ki, oi, ri, hi, si] = error_row(
                            name, k, config.gamma, config.alpha, config.nu, order, heuristic,
                            seed, f"{type(ex).__name__}: {ex}"), None


def write_assignment(g: Graph, assignment: np.ndarray, path) -> None:
    """Assignment CSV with original vertex labels: header vertex,cluster; CRLF rows."""
    with open(path, "w", newline="") as fh:
        fh.write("vertex,cluster\r\n")
        fh.writelines(f"{v},{c}\r\n"
                      for v, c in zip(g.id_map.tolist(), assignment.tolist(), strict=True))


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
    snap = build_snapshot(g, read_assignment(g, path, k), k)
    return measures(g, snap, config.resolve(g, k))
