"""Evaluation measures (cut fraction, normalized max load), CSV rows and key=value lines."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .objective import ObjectiveConfig, PartitionSnapshot, eval_f, eval_g

CSV_COLUMNS = ["graph", "n", "m", "k", "gamma", "alpha", "nu", "order", "heuristic",
               "seed", "lambda", "rho", "f", "g", "runtime_ms",
               "threshold_violations", "error"]


@dataclass(frozen=True)
class RunResult:
    graph: str
    n: int
    m: int
    k: int
    gamma: float
    alpha: float
    nu: float
    order: str
    heuristic: str
    seed: int
    lam: float
    rho: float
    f: float
    g: float
    runtime_ms: float
    threshold_violations: int


def compute_lambda(g: Graph, snap: PartitionSnapshot) -> float:
    """Fraction of edges cut, cut/m from the integer counter (0 if m=0)."""
    snap._require_full()
    if g.m == 0:
        return 0.0
    return snap.cut_edges / g.m


def compute_rho(snap: PartitionSnapshot, n: int, k: int) -> float:
    """Normalized maximum load: max_i |S_i| * k / n."""
    snap._require_full()
    return int(snap.cluster_vertex_counts.max()) * k / n


def measures(g: Graph, snap: PartitionSnapshot, config: ObjectiveConfig) -> dict[str, float]:
    """lambda, rho, f and g of a full snapshot under a resolved config."""
    return {"lambda": compute_lambda(g, snap), "rho": compute_rho(snap, g.n, snap.k),
            "f": eval_f(snap, config), "g": eval_g(snap, config)}


def evaluate_run(g: Graph, graph_name: str, snap: PartitionSnapshot, config: ObjectiveConfig,
                 order: str, heuristic: str, seed: int, runtime_ms: float,
                 threshold_violations: int) -> RunResult:
    config = config.resolve(g, snap.k)
    return RunResult(graph_name, g.n, g.m, snap.k, config.gamma, config.alpha_value, config.nu,
                     order, heuristic, seed, *measures(g, snap, config).values(), runtime_ms,
                     threshold_violations)


def _text(column: str, x) -> str:
    """x as column prints it: a float by the column's printf spec, which writes inf, -inf
    and nan as such; anything else by str."""
    if not isinstance(x, float):
        return str(x)
    return {"n": "%g", "m": "%g", "gamma": "%g", "alpha": "%.10g", "nu": "%g",
            "runtime_ms": "%.3f", "threshold_violations": "%.2f"}.get(column, "%.6f") % x


def render(values: dict) -> str:
    """The "key=value ..." line of values, in their order."""
    return " ".join(f"{key}={_text(key, x)}" for key, x in values.items())


def _row(values: dict) -> list[str]:
    """The CSV row of values by column name; a column without a value (or None) is blank."""
    return ["" if values.get(c) is None else _text(c, values[c]) for c in CSV_COLUMNS]


def _by_column(r: RunResult) -> dict:
    return dict(zip(CSV_COLUMNS, vars(r).values()))  # its fields are in column order


def result_to_row(r: RunResult) -> list[str]:
    return _row(_by_column(r))


def error_row(graph_name: str, k, gamma, alpha, nu, order: str, heuristic: str,
              seed, message: str) -> list[str]:
    """Row recording a failed run; metric columns left blank."""
    return _row({"graph": graph_name, "k": k, "gamma": gamma, "alpha": alpha, "nu": nu,
                 "order": order, "heuristic": heuristic, "seed": seed, "error": message})


def aggregate_rows(results: list[RunResult]) -> list[list[str]]:
    """
    Mean and sample-std rows per (graph, k, gamma, nu, order, heuristic)
    group, across seeds, in first-seen group order. Std is 0 for
    single-seed groups. Generated instances differ across seeds, so n and
    m aggregate too: both rows show their mean, and the mean row alpha's.
    """
    groups: dict[tuple, list[dict]] = {}
    for r in results:
        groups.setdefault((r.graph, r.k, r.gamma, r.nu, r.order, r.heuristic),
                          []).append(_by_column(r))
    rows = []
    for runs in groups.values():
        spread = ("lambda", "rho", "f", "g", "runtime_ms", "threshold_violations")
        cols = {c: np.array([run[c] for run in runs], dtype=np.float64)
                for c in ("n", "m", "alpha", *spread)}
        mean = {c: v.mean() for c, v in cols.items()}
        std = {c: cols[c].std(ddof=1) if len(runs) > 1 else 0.0 for c in spread}
        rows.append(_row({**runs[0], **mean, "seed": "mean"}))
        rows.append(_row({**runs[0], **mean, "alpha": None, **std, "seed": "std"}))
    return rows
