"""The three benchmark workloads and the checks on their answers.

Each workload has prepare(seed, workdir) -> ctx, which writes the inputs;
job(ctx) -> raw, the timed part, which calls streamcut only through module
attributes (so the wrappers of tracing.install see every call); and
check(ctx, raw) -> Answer, run outside the timed region.

The sizes are scaled down from the instances users run (HP(5000), a 1M-edge
file, a 100k-edge matrix graph), because the benchmark must fit a warm-up
and several timed jobs into one run of a few tens of seconds on 2 vCPUs.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from streamcut import bench, cli, generators, metrics, objective, partitioner, stream

import inputs

HP_N = 2000           # HP(2000, 8, 0.8, 0.5): ~1.07M edges, dense like HP(5000)
CL_N, CL_ROWS = 30_000, 150_000          # power-law file for cl_file
MX_N, MX_ROWS = 3_000, 15_000            # planted-cluster file for matrix
MX_COMMUNITY, MX_P_IN = 30, 0.6
DELTA = 2.5
MX_HEURISTICS = ("fennel", "ldg", "hash", "t")
MX_K = (8, 32)
MX_RUNS = len(MX_K) * 2 * 2 * len(MX_HEURISTICS)  # k x gamma x order x heuristic


@dataclass
class Answer:
    """What a job produced, reduced to what the benchmark checks and reports."""

    digest: str | None = None
    lam: list[float] = field(default_factory=list)
    rho: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class HpDense:
    """generate_hp -> random order -> fennel (k=8, gamma=1.5) -> evaluate_run."""

    name = "hp_dense"

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed}

    def job(self, ctx: dict):
        seed = ctx["seed"]
        g, _ = generators.generate_hp(generators.HpParams(HP_N, 8, 0.8, 0.5, seed))
        plan = stream.make_stream(g, "random", seed)
        config = objective.ObjectiveConfig(gamma=1.5)
        snap, stats = partitioner.partition_stream(g, plan, 8, "fennel", config, seed)
        result = metrics.evaluate_run(g, "hp", snap, config, "random", "fennel", seed,
                                      stats.runtime_ms, stats.threshold_violations)
        return result, snap.assignment

    def check(self, ctx: dict, raw) -> Answer:
        r, assignment = raw
        summary = repr((r.n, r.m, r.lam, r.rho, r.f, r.g, r.threshold_violations))
        return Answer(digest=_sha(np.asarray(assignment, dtype="<i8").tobytes()
                                  + summary.encode()),
                      lam=[r.lam], rho=[r.rho])


_KV = re.compile(r"(\w+)=(\S+)")


class ClFile:
    """README quick start in-process: cli partition (bfs, k=32, nu=1.1), cli eval."""

    name = "cl_file"

    def prepare(self, seed: int, workdir: Path) -> dict:
        graph = workdir / f"cl-{seed}.txt"
        inputs.write_powerlaw_file(graph, CL_N, CL_ROWS, DELTA, seed)
        return {"seed": seed, "graph": str(graph),
                "assignment": str(workdir / f"assign-{seed}.csv")}

    def job(self, ctx: dict):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            # uncapped, the max load under BFS order is a seed lottery (rho from
            # 1.2 to 1.9 over twelve seeds); FENNEL's own cap nu=1.1 steadies it
            rc_part = cli.main(["partition", "--graph", ctx["graph"], "--k", "32",
                                "--order", "bfs", "--nu", "1.1", "--seed",
                                str(ctx["seed"]), "--out", ctx["assignment"]])
            rc_eval = None
            if rc_part == 0:
                rc_eval = cli.main(["eval", "--graph", ctx["graph"], "--assignment",
                                    ctx["assignment"], "--k", "32"])
        return rc_part, rc_eval, out.getvalue()

    def check(self, ctx: dict, raw) -> Answer:
        rc_part, rc_eval, text = raw
        if rc_part != 0 or rc_eval != 0:
            return Answer(failures=[f"cli exit codes partition={rc_part} eval={rc_eval}"])
        lines = text.splitlines()
        if len(lines) != 2:
            return Answer(failures=[f"expected 2 output lines, got {len(lines)}"])
        part, ev = (dict(_KV.findall(line)) for line in lines)
        ans = Answer()
        for key in ("lambda", "rho", "f", "g"):
            if key not in part or part.get(key) != ev.get(key):
                ans.failures.append(f"eval {key}={ev.get(key)} != partition "
                                    f"{key}={part.get(key)}")
        if ans.failures:
            return ans
        path = Path(ctx["assignment"])
        summary = json.dumps({k: v for k, v in part.items() if k != "runtime_ms"},
                             sort_keys=True)
        ans.digest = _sha(path.read_bytes() + summary.encode())
        path.unlink()  # a later job that fails to write it must not pass
        ans.lam, ans.rho = [float(part["lambda"])], [float(part["rho"])]
        return ans


def matrix_answer(csv_path: Path) -> Answer:
    """
    Check a run_bench CSV: no row may carry an error, every run of the matrix
    must be present, and the triangle rule must not collapse into one cluster.
    The digest covers every column except graph (the file path) and
    runtime_ms, so equal digests mean rows identical except runtime_ms.
    """
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ans = Answer()
    ans.failures = [f"error row: {r['heuristic']} k={r['k']} gamma={r['gamma']} "
                    f"order={r['order']}: {r['error']}" for r in rows if r["error"]]
    runs = [r for r in rows if r["seed"] not in ("mean", "std") and not r["error"]]
    if len(runs) + len(ans.failures) != MX_RUNS:
        ans.failures.append(f"expected {MX_RUNS} runs, CSV has {len(runs)}")
    for r in runs:
        if r["heuristic"] == "t" and float(r["rho"]) >= int(r["k"]):
            ans.failures.append(f"t collapsed into one cluster at k={r['k']} "
                                f"order={r['order']}")
    if ans.failures:
        return ans
    ans.lam = [float(r["lambda"]) for r in runs]
    ans.rho = [float(r["rho"]) for r in runs]
    stable = [[v for key, v in r.items() if key not in ("graph", "runtime_ms")]
              for r in rows]
    ans.digest = _sha(json.dumps(stable).encode())
    return ans


class Matrix:
    """bench.run_bench on a 32-run spec over one planted-cluster graph file."""

    name = "matrix"

    def prepare(self, seed: int, workdir: Path) -> dict:
        graph = workdir / f"mx-{seed}.txt"
        inputs.write_powerlaw_file(graph, MX_N, MX_ROWS, DELTA, seed,
                                   community=MX_COMMUNITY, p_in=MX_P_IN)
        spec, out = workdir / f"mx-{seed}.bench", workdir / f"mx-{seed}.csv"
        # lowest-index ties send every vertex of `t` to cluster 0 on any graph
        # (no other cluster can ever close a triangle), so ties go to the
        # least-loaded cluster and `t` measures its triangle signal
        spec.write_text(
            f"graph = path:{graph}\n"
            f"k = {' '.join(map(str, MX_K))}\n"
            "gamma = 1 1.5\n"
            "order = random bfs\n"
            f"heuristic = {' '.join(MX_HEURISTICS)}\n"
            f"seeds = {seed}\n"
            "tie_policy = min_load\n"
            f"out = {out}\n")
        return {"seed": seed, "spec": str(spec), "out": out}

    def job(self, ctx: dict):
        bench.run_bench(bench.parse_bench_spec(ctx["spec"]))

    def check(self, ctx: dict, raw) -> Answer:
        out = ctx["out"]
        if not out.exists():
            return Answer(failures=["run_bench wrote no CSV"])
        ans = matrix_answer(out)
        out.unlink()
        return ans


WORKLOADS = {w.name: w for w in (HpDense(), ClFile(), Matrix())}


def capture_snapshots(store: list):
    """tracing.install factory that keeps every snapshot partition_stream returns."""
    def make(name, fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            store.append(out[0])
            return out
        return captured
    return make


def snapshot_failures(snaps: list) -> list[str]:
    """Incremental snapshot counters must equal a build_snapshot rebuild."""
    failures = []
    for i, snap in enumerate(snaps):
        ref = objective.build_snapshot(snap.graph, snap.assignment, snap.k)
        if (snap.cut_edges != ref.cut_edges
                or not np.array_equal(snap.cluster_vertex_counts, ref.cluster_vertex_counts)
                or not np.array_equal(snap.cluster_internal_edges,
                                      ref.cluster_internal_edges)):
            failures.append(f"run {i}: incremental counters differ from a rebuild")
    if not snaps:
        failures.append("no partition run was captured")
    return failures


REFERENCE_FILE = Path(__file__).with_name("reference.json")


def reference() -> dict:
    """Recorded answer digests at the default seed, per workload."""
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)

