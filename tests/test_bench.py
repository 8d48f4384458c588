import collections
import contextlib
import csv
import gc
import hashlib
import itertools
import math
import os
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import streamcut.bench as bench_mod
from streamcut.bench import (BenchSpec, BenchSpecError, eval_assignment,
                             parse_bench_spec, read_assignment, run_bench,
                             write_assignment)
from streamcut import partitioner
from streamcut.generators import (ClParams, HpParams, cl_i0, cl_weights, generate_cl,
                                  generate_hp)
from streamcut.graph import from_edges, load_edge_list, save_edge_list
from streamcut.metrics import (CSV_COLUMNS, aggregate_rows, error_row, evaluate_run,
                               result_to_row)
from streamcut.objective import ObjectiveConfig, build_snapshot
from streamcut.partitioner import HEURISTICS, partition_stream
from streamcut.stream import make_stream
from conftest import graph_from_pairs

SPEC_TEXT = """
# demo matrix
graph = hp:n=80,k=2,p=0.5,q=0.1
graph = cl:n=60,delta=2.5,avg_degree=4
k = 2 4
gamma = 1 1.5
order = random bfs
heuristic = fennel hash
seeds = 1 2
nu = inf
alpha = auto
out = {out}
"""


def write_spec(tmp_path, text=None, **fmt):
    p = tmp_path / "spec.txt"
    out = fmt.pop("out", str(tmp_path / "results.csv"))
    p.write_text((text or SPEC_TEXT).format(out=out, **fmt))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_spec_parses_full_grammar(tmp_path):
    spec = parse_bench_spec(write_spec(tmp_path))
    assert spec.graphs == ["hp:n=80,k=2,p=0.5,q=0.1",
                           "cl:n=60,delta=2.5,avg_degree=4"]
    assert spec.k_list == [2, 4]
    assert [c.gamma for c in spec.objectives] == [1.0, 1.5]
    assert spec.order_list == ["random", "bfs"]
    assert spec.heuristic_list == ["fennel", "hash"]
    assert spec.seeds == [1, 2]
    assert all(math.isinf(c.nu) and c.alpha == "auto" for c in spec.objectives)


def test_spec_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("graph = hp:n=10,k=2,p=0.5,q=0.1\nk = 2\nseeds = 1\n"
                 "heuristic = fennel\nthreads = 4\n")
    with pytest.raises(BenchSpecError):
        parse_bench_spec(p)


def test_spec_rejects_malformed_lines_and_graphs(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("just some words\n")
    with pytest.raises(BenchSpecError):
        parse_bench_spec(p)
    p.write_text("graph = hp:n=10,p=0.5,q=0.1\nk = 2\nseeds = 1\n"
                 "heuristic = fennel\n")
    with pytest.raises(BenchSpecError):
        parse_bench_spec(p)  # hp spec missing k
    p.write_text("graph = torus:n=10\nk = 2\nseeds = 1\nheuristic = fennel\n")
    with pytest.raises(BenchSpecError):
        parse_bench_spec(p)


BAD_SPEC = "graph = {graph}\nk = {k}\nseeds = {seeds}\nheuristic = {heuristic}\n{extra}\n"


@pytest.mark.parametrize("fields, names", [
    ({"extra": "size_mode = bogus"}, "size_mode"),
    ({"extra": "nu = nan"}, "nu"),
    ({"extra": "alpha = -1"}, "alpha"),
    ({"extra": "gamma = nan"}, "gamma"),
    ({"graph": "hp:n=forty,k=2,p=0.5,q=0.1"}, "forty"),
    ({"graph": "hp:n=20,k=2,p=0.5,q=0.1,qq=0.9"}, "qq"),
    ({"extra": "lcc = ture"}, "lcc"),
    ({"extra": "k = 3"}, ":5: repeated key 'k'"),
    ({"k": "two"}, "two"),
    ({"k": "0"}, "k must be >= 1"),
    ({"seeds": "-1"}, "seeds >= 0"),
    ({"graph": "hp:n=20,k=2,p=1.5,q=0.1"}, "p and q must be probabilities"),
    ({"graph": "hp:n=20,k=match,p=0.5,q=-0.1"}, "p and q must be probabilities"),
    ({"graph": "hp:n=0,k=match,p=0.5,q=0.1"}, "n and k must be >= 1"),
    ({"graph": "cl:n=1,delta=2.5"}, "n must be >= 2"),
    ({"graph": "cl:n=50,delta=1"}, "delta must be > 1"),
    ({"graph": "cl:n=50,delta=nan"}, "delta must be > 1"),
    ({"graph": "cl:n=50,delta=2.5,avg_degree=50"}, "avg_degree must be in (0, n)"),
    ({"k": "2 3 02"}, "repeated k value 2"),
    ({"extra": "gamma = 1 1.5 1.0"}, "repeated gamma value 1.0"),
    ({"extra": "order = random bfs random"}, "repeated order value 'random'"),
    ({"heuristic": "dg ldg dg"}, "repeated heuristic value 'dg'"),
    ({"seeds": "1 1"}, "repeated seeds value 1"),
    ({"extra": "graph = hp:n=20,k=2,p=0.5,q=0.1"},
     "repeated graph value 'hp:n=20,k=2,p=0.5,q=0.1'"),
    ({"extra": "graph = hp:n=20,k=2,p=.5,q=0.1"}, "repeated graph value 'hp:n=20,k=2,p=.5,q=0.1'"),
    ({"graph": "cl:n=300,delta=2.5,avg_degree=10", "extra": "graph = cl:n=300,delta=2.5"},
     "repeated graph value 'cl:n=300,delta=2.5'"),
    ({"graph": "cl:n=300,delta=2.5", "extra": "graph = cl:n=300,delta=2.5,i0=8"},
     "repeated graph value 'cl:n=300,delta=2.5,i0=8'"),
    ({"extra": "out = no/such/dir/res.csv"}, "'no/such/dir/res.csv'"),
], ids=["size_mode", "nu_nan", "alpha_negative", "gamma_nan", "hp_n_text", "hp_unknown_key",
        "lcc_typo", "repeated_k", "k_text", "k_zero", "seeds_negative", "hp_p_range",
        "hp_match_q_range", "hp_match_n_zero", "cl_n_one", "cl_delta_one", "cl_delta_nan",
        "cl_avg_degree", "k_repeat", "gamma_repeat", "order_repeat", "heuristic_repeat",
        "seeds_repeat", "graph_repeat", "graph_repeat_typed", "graph_repeat_default",
        "graph_repeat_chosen_i0", "out_dir_missing"])
def test_bad_spec_values_fail_at_parse(tmp_path, monkeypatch, fields, names):
    """Each bad value is a BenchSpecError naming the file, raised before any build."""
    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built while parsing")

    for builder in ("generate_hp", "generate_cl", "load_edge_list"):
        monkeypatch.setattr(bench_mod, builder, no_build)
    p = tmp_path / "bad.bench"
    p.write_text(BAD_SPEC.format(**{"graph": "hp:n=20,k=2,p=0.5,q=0.1", "k": "2",
                                    "seeds": "1", "heuristic": "fennel", "extra": "",
                                    **fields}))
    with pytest.raises(BenchSpecError) as err:
        parse_bench_spec(p)
    assert str(p) in str(err.value) and names in str(err.value)


def test_cl_i0_other_than_the_chosen_one_is_another_graph(tmp_path):
    """cl_weights picks i0 = 8 for CL(300, 2.5): a directive writing i0=7 beside one that
    writes none is a second graph, and both build what cl_weights gives them."""
    assert cl_i0(ClParams(300, 2.5)) == 8
    assert np.array_equal(cl_weights(ClParams(300, 2.5)), cl_weights(ClParams(300, 2.5, i0=8)))
    p = tmp_path / "two.bench"
    p.write_text(BAD_SPEC.format(graph="cl:n=300,delta=2.5", k="2", seeds="1",
                                 heuristic="fennel", extra="graph = cl:n=300,delta=2.5,i0=7"))
    assert parse_bench_spec(p).graphs == ["cl:n=300,delta=2.5", "cl:n=300,delta=2.5,i0=7"]


def test_bench_opens_its_csv_before_the_first_run(tmp_path, monkeypatch):
    """An out path in an existing directory that cannot be written costs no run."""
    runs = []
    monkeypatch.setattr(bench_mod, "partition_stream", lambda *args, **kw: runs.append(args))
    spec = parse_bench_spec(write_spec(tmp_path, out=str(tmp_path)))  # a directory
    with pytest.raises(IsADirectoryError):
        run_bench(spec)
    assert runs == []


def test_q_above_p_warns_only_when_an_instance_is_built(tmp_path):
    p = tmp_path / "spec.bench"
    out = tmp_path / "res.csv"
    p.write_text(f"graph = hp:n=20,k=match,p=0.1,q=0.5\nk = 2\nseeds = 1 2\n"
                 f"heuristic = dg\nout = {out}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = parse_bench_spec(p)
    assert caught == []
    with pytest.warns(UserWarning, match="q > p") as caught:
        run_bench(spec)
    assert len(caught) == 2  # one per seed's instance


def test_bench_builds_a_failed_instance_once(tmp_path, monkeypatch):
    """A path: file that fails to load is read once; each run on it is an error row."""
    graph = tmp_path / "bad.txt"
    graph.write_text("0 1\n1 2\n2 x\n")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return load_edge_list(*args, **kwargs)

    monkeypatch.setattr(bench_mod, "load_edge_list", counted)
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.bench"
    p.write_text(f"graph = path:{graph}\nk = 2 4\ngamma = 1 1.5\norder = random bfs\n"
                 f"heuristic = fennel hash\nseeds = 3\nout = {out}\n")
    assert run_bench(parse_bench_spec(p)) == []
    assert len(calls) == 1
    message = f"EdgeListParseError: {graph}:3: malformed edge line '2 x'"
    want = [[f"path:{graph}", "", "", str(k), gamma, "auto", "inf", order, h, "3",
             "", "", "", "", "", "", message]
            for k in (2, 4) for gamma in ("1", "1.5") for order in ("random", "bfs")
            for h in ("fennel", "hash")]
    assert read_csv(out)[1:] == want


def test_shipped_bench_specs_parse():
    specs = sorted((Path(__file__).parents[1] / "benchspecs").glob("*.bench"))
    assert specs
    for path in specs:
        spec = parse_bench_spec(path)
        assert spec.graphs and spec.k_list and spec.objectives and spec.heuristic_list


def test_empty_heuristic_list_fails_before_running():
    spec = BenchSpec(graphs=["hp:n=10,k=2,p=0.5,q=0.1"], k_list=[2],
                     objectives=[ObjectiveConfig(gamma=1.5)], order_list=["random"],
                     heuristic_list=[], seeds=[1])
    with pytest.raises(BenchSpecError):
        spec.validate()


def test_bench_runs_matrix_and_writes_rows(tmp_path):
    out = tmp_path / "results.csv"
    spec = parse_bench_spec(write_spec(tmp_path, out=str(out)))
    results = run_bench(spec)
    # 2 graphs x 2 k x 2 gamma x 2 orders x 2 heuristics x 2 seeds
    assert len(results) == 64
    rows = read_csv(out)
    assert rows[0] == CSV_COLUMNS
    # per-run rows followed by mean/std aggregate rows per group
    assert len(rows) == 1 + 64 + 2 * 32
    for row in rows[1:]:
        assert len(row) == len(CSV_COLUMNS)


def test_bench_error_rows_keep_the_matrix_alive(tmp_path):
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.txt"
    p.write_text(f"graph = path:{tmp_path}/missing.txt\n"
                 f"graph = hp:n=30,k=2,p=0.6,q=0.1\n"
                 "k = 2\nseeds = 1\nheuristic = dg\n"
                 f"out = {out}\n")
    results = run_bench(parse_bench_spec(p))
    assert len(results) == 1  # the hp run survived
    rows = read_csv(out)
    err = [r for r in rows[1:] if r[-1]]
    assert len(err) == 1
    assert "missing.txt" in err[0][0]
    as_map = dict(zip(CSV_COLUMNS, err[0]))
    assert as_map["lambda"] == ""


def test_bench_cl_with_underflowing_weights_gets_an_error_row(tmp_path):
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.txt"
    p.write_text("graph = cl:n=300,delta=1.002\n"
                 "graph = hp:n=30,k=2,p=0.6,q=0.1\n"
                 "k = 2\nseeds = 1\nheuristic = dg\n"
                 f"out = {out}\n")
    results = run_bench(parse_bench_spec(p))
    assert len(results) == 1  # the hp run survived
    err = [dict(zip(CSV_COLUMNS, r)) for r in read_csv(out)[1:] if r[-1]]
    assert len(err) == 1 and "delta=1.002 is too close to 1" in err[0]["error"]


def test_bench_on_an_edgeless_graph_names_alpha_auto_as_the_cause(tmp_path):
    """Every row of an edgeless generated graph under alpha 'auto' fails with the message
    naming m = 0, since evaluation reads alpha; with alpha given, every rule runs."""
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.txt"
    graphs = "graph = hp:n=20,k=2,p=0,q=0\ngraph = cl:n=50,delta=2.5,avg_degree=0.01\n"
    for alpha, failed in (("auto", True), ("0.5", False)):
        p.write_text(f"{graphs}k = 2\nseeds = 1\nheuristic = {' '.join(HEURISTICS)}\n"
                     f"alpha = {alpha}\nout = {out}\n")
        run_bench(parse_bench_spec(p))
        rows = [r for r in (dict(zip(CSV_COLUMNS, r)) for r in read_csv(out)[1:])
                if r["seed"] == "1"]  # not the mean and std rows
        assert len(rows) == 2 * len(HEURISTICS)
        assert all(r["m"] == "0" for r in rows if not failed)
        errors = [r["error"] for r in rows]
        assert all(("the graph has no edges: give alpha" in e) == failed for e in errors)
        assert failed or not any(errors)


def test_bench_hp_k_match_tracks_run_k(tmp_path):
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.txt"
    p.write_text("graph = hp:n=60,k=match,p=0.6,q=0.05\n"
                 "k = 2 3\nseeds = 1\nheuristic = dg\n"
                 f"out = {out}\n")
    results = run_bench(parse_bench_spec(p))
    assert sorted(r.k for r in results) == [2, 3]


def test_bench_csv_identical_up_to_runtime(tmp_path):
    """Two runs of one spec differ at most in the runtime column."""
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    text = ("graph = hp:n=50,k=2,p=0.5,q=0.1\nk = 2\nseeds = 1 2\n"
            "heuristic = fennel hash\norder = random\nout = {out}\n")
    run_bench(parse_bench_spec(write_spec(tmp_path, text=text, out=str(out1))))
    run_bench(parse_bench_spec(write_spec(tmp_path, text=text, out=str(out2))))
    rt = CSV_COLUMNS.index("runtime_ms")
    rows1, rows2 = read_csv(out1), read_csv(out2)
    assert len(rows1) == len(rows2)
    for r1, r2 in zip(rows1, rows2):
        r1[rt] = r2[rt] = ""
        assert r1 == r2


def test_bench_shares_one_stream_per_graph_order_and_seed(tmp_path, monkeypatch):
    """Runs that differ only in k, gamma or heuristic reuse one arrival order."""
    made = []
    real = bench_mod.make_stream

    def counting(g, order, seed):
        made.append((order, seed))
        return real(g, order, seed)

    monkeypatch.setattr(bench_mod, "make_stream", counting)
    out = tmp_path / "res.csv"
    spec = write_spec(tmp_path, text=SPEC_TEXT.replace("hp:n=80,k=2", "hp:n=80,k=match"),
                      out=str(out))
    results = run_bench(parse_bench_spec(spec))
    assert len(results) == 64
    # hp instances per (k, seed) and cl instances per seed, times two orders
    assert sorted(made) == sorted([(o, s) for o in ("random", "bfs") for s in (1, 2)] * 3)


def track_instances(monkeypatch):
    """
    (built, alive): the (k, seed) and a weak reference of each hp instance that
    bench builds, and per run k the most of them alive at a partition_stream call.
    """
    built, alive = [], {}
    real_hp, real_partition = bench_mod.generate_hp, bench_mod.partition_stream

    def tracked_hp(params):
        g, labels = real_hp(params)
        built.append((params.k, params.seed, weakref.ref(g)))
        return g, labels

    def counting(g, plan, k, *args, **kwargs):
        gc.collect()
        alive[k] = max(alive.get(k, 0), sum(ref() is not None for _, _, ref in built))
        return real_partition(g, plan, k, *args, **kwargs)

    monkeypatch.setattr(bench_mod, "generate_hp", tracked_hp)
    monkeypatch.setattr(bench_mod, "partition_stream", counting)
    return built, alive


def test_bench_frees_k_match_instances_after_their_k(tmp_path, monkeypatch):
    """A k=match instance is dropped once its (k, seed) runs are done, not kept to the end."""
    built, alive = track_instances(monkeypatch)
    p = tmp_path / "spec.txt"
    p.write_text("graph = hp:n=60,k=match,p=0.6,q=0.05\nk = 2 3\nseeds = 1 2\n"
                 f"heuristic = fennel ldg\nout = {tmp_path / 'res.csv'}\n")
    assert len(run_bench(parse_bench_spec(p))) == 8
    assert len(built) == 4
    assert alive == {2: 1, 3: 1}


def test_bench_builds_a_fixed_k_instance_once_per_seed(tmp_path, monkeypatch):
    """A fixed-k generator's instance serves every k of its seed and is dropped after it."""
    built, alive = track_instances(monkeypatch)
    p = tmp_path / "spec.txt"
    p.write_text("graph = hp:n=60,k=2,p=0.6,q=0.05\nk = 2 3\nseeds = 1 2\n"
                 f"heuristic = fennel ldg\nout = {tmp_path / 'res.csv'}\n")
    assert len(run_bench(parse_bench_spec(p))) == 8
    assert [(k, seed) for k, seed, _ in built] == [(2, 1), (2, 2)]
    assert alive == {2: 1, 3: 1}


def test_bench_partitions_each_distinct_run_once(tmp_path, monkeypatch):
    """Rules that read no objective run once per (instance, k, order, seed), and every
    row equals a partition_stream + evaluate_run of its own; fennel runs per gamma."""
    calls, real = collections.Counter(), bench_mod.partition_stream

    def counting(g, plan, k, heuristic, config, seed, **kwargs):
        calls[k, plan.order_kind, seed] += 1
        return real(g, plan, k, heuristic, config, seed, **kwargs)

    monkeypatch.setattr(bench_mod, "partition_stream", counting)
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.txt"
    p.write_text("graph = hp:n=40,k=2,p=0.5,q=0.1\nk = 2 3\ngamma = 1 1.5\n"
                 f"order = random bfs\nheuristic = {' '.join(HEURISTICS)}\nseeds = 1 2\n"
                 f"nu = 1.2\ntie_policy = min_load\nout = {out}\n")
    spec = parse_bench_spec(p)
    run_bench(spec)
    assert calls == {(k, o, s): 11 for k in (2, 3) for o in ("random", "bfs") for s in (1, 2)}

    ref, results = [], []
    for k, config, order, heuristic, seed in itertools.product(
            spec.k_list, spec.objectives, spec.order_list, spec.heuristic_list, spec.seeds):
        g, _ = generate_hp(HpParams(40, 2, 0.5, 0.1, seed=seed))
        snap, stats = real(g, make_stream(g, order, seed), k, heuristic, config, seed,
                           tie_policy="min_load")
        results.append(evaluate_run(g, "hp(n=40,k=2,p=0.5,q=0.1)", snap, config, order,
                                    heuristic, seed, stats.runtime_ms,
                                    stats.threshold_violations))
        ref.append(result_to_row(results[-1]))
    ref = [CSV_COLUMNS] + ref + aggregate_rows(results)
    rt = CSV_COLUMNS.index("runtime_ms")
    assert [r[:rt] + r[rt + 1:] for r in read_csv(out)] == [r[:rt] + r[rt + 1:] for r in ref]


def test_bench_runs_share_a_lockstep_pass_per_plan(tmp_path, monkeypatch):
    """On a sparse file graph every plan's 21 neighbour-count runs (fennel at two gammas,
    balanced, dg, ldg, edg, nn, each at k 1, 3, 8) share two passes. partition_stream is
    still called once per distinct run and returns snapshots equal to a rebuild, the rows
    equal lone partition_stream + evaluate_run except runtime_ms, and a pass's rows each
    report an even share of its assignment loop (a fake clock: 3 ms a run)."""
    calls, snaps, passes = collections.Counter(), [], []
    real, real_pass = bench_mod.partition_stream, partitioner._lockstep
    clock = [0.0]

    def counting(g, plan, k, heuristic, config, seed, **kwargs):
        calls[k, heuristic, config.gamma if heuristic == "fennel" else None,
              plan.order_kind] += 1
        snap, stats = real(g, plan, k, heuristic, config, seed, **kwargs)
        snaps.append(snap)
        return snap, stats

    def timed_pass(runs, *rest):
        passes.append(len(runs))
        real_pass(runs, *rest)
        clock[0] += 0.003 * len(runs)

    monkeypatch.setattr(bench_mod, "partition_stream", counting)
    monkeypatch.setattr(partitioner, "_lockstep", timed_pass)
    monkeypatch.setattr(partitioner, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    gp, out = tmp_path / "g.txt", tmp_path / "res.csv"
    save_edge_list(generate_cl(ClParams(600, 2.5, seed=3)), gp)
    p = tmp_path / "spec.txt"
    p.write_text(f"graph = path:{gp}\nk = 1 3 8\ngamma = 1 1.5\nnu = 1.1\n"
                 f"order = random bfs\nheuristic = {' '.join(HEURISTICS)}\nseeds = 1\n"
                 f"tie_policy = min_load\nout = {out}\n")
    spec = parse_bench_spec(p)
    results = run_bench(spec)
    monkeypatch.undo()

    runs_per_plan = 3 * (len(HEURISTICS) + 1)  # per k: fennel at each gamma, the rest once
    assert passes == [partitioner.LOCKSTEP_RUNS, 3 * 7 - partitioner.LOCKSTEP_RUNS] * 2
    assert sum(calls.values()) == 2 * runs_per_plan and set(calls.values()) == {1}
    g = load_edge_list(str(gp))
    for snap in snaps:
        ref = build_snapshot(snap.graph, snap.assignment, snap.k)
        assert snap.cut_edges == ref.cut_edges
        assert np.array_equal(snap.cluster_vertex_counts, ref.cluster_vertex_counts)
        assert np.array_equal(snap.cluster_internal_edges, ref.cluster_internal_edges)
    batched = [r for r in results if r.heuristic in partitioner.LOCKSTEP_RULES]
    assert {r.runtime_ms for r in batched} == {3.0}
    assert {r.runtime_ms for r in results} - {3.0} == {0.0}  # the lone runs: no time passed

    ref, lone = [], []
    for k, config, order, heuristic in itertools.product(
            spec.k_list, spec.objectives, spec.order_list, spec.heuristic_list):
        snap, stats = partition_stream(g, make_stream(g, order, 1), k, heuristic, config, 1,
                                       tie_policy="min_load")
        lone.append(evaluate_run(g, str(gp), snap, config, order, heuristic, 1,
                                 stats.runtime_ms, stats.threshold_violations))
        ref.append(result_to_row(lone[-1]))
    ref = [CSV_COLUMNS] + ref + aggregate_rows(lone)
    rt = CSV_COLUMNS.index("runtime_ms")
    assert [r[:rt] + r[rt + 1:] for r in read_csv(out)] == [r[:rt] + r[rt + 1:] for r in ref]


def test_bench_builds_each_run_once(tmp_path, monkeypatch):
    """A call whose run a lockstep pass makes builds no run of its own: on a sparse file
    graph, with fennel at two gammas, balanced, ldg, nn, t and hash at k 3 and 8 over two
    orders, one load table is made per distinct run (hash makes none), and two passes run."""
    tables, passes = [], []
    real_table, real_pass = partitioner._load_table, partitioner._lockstep
    monkeypatch.setattr(partitioner, "_load_table",
                        lambda *args: tables.append(args[0]) or real_table(*args))
    monkeypatch.setattr(partitioner, "_lockstep",
                        lambda runs, *rest: passes.append(len(runs)) or real_pass(runs, *rest))
    gp = tmp_path / "g.txt"
    save_edge_list(generate_cl(ClParams(600, 2.5, seed=3)), gp)
    p = tmp_path / "spec.txt"
    p.write_text(f"graph = path:{gp}\nk = 3 8\ngamma = 1 1.5\norder = random bfs\n"
                 "heuristic = fennel balanced ldg nn t hash\nseeds = 1\n"
                 f"tie_policy = min_load\nout = {tmp_path / 'res.csv'}\n")
    results = run_bench(parse_bench_spec(p))
    assert len(results) == 2 * 2 * 2 * 6  # orders x gammas x k x rules
    assert passes == [2 * 5] * 2  # fennel at two gammas, balanced, ldg and nn, k 3 and 8
    assert len(tables) == 2 * 2 * 6  # orders x k x (fennel per gamma, balanced, ldg, nn, t)


def test_a_wide_spec_keeps_lockstep_counts_bounded(tmp_path, monkeypatch):
    """A pass holds (block, runs, k) counts, so the runs of a plan are cut into passes of
    at most LOCKSTEP_CELLS runs x clusters: on CL(2000) at k = 64, fennel at 16 gammas
    and five more rules (21 runs) peak within 1.25x of fennel at 4 gammas (9 runs)."""
    cells, real = [], partitioner._lockstep
    monkeypatch.setattr(partitioner, "_lockstep", lambda runs, *rest: cells.append(
        len(runs) * max(run.k for run in runs)) or real(runs, *rest))
    gp = tmp_path / "g.txt"
    save_edge_list(generate_cl(ClParams(2000, 2.5, seed=3)), gp)

    def peak(gammas):
        p = tmp_path / "spec.txt"
        p.write_text(f"graph = path:{gp}\nk = 64\ngamma = {' '.join(map(str, gammas))}\n"
                     "heuristic = fennel balanced dg ldg edg nn\nseeds = 1\n"
                     f"tie_policy = min_load\nout = {tmp_path / 'res.csv'}\n")
        spec = parse_bench_spec(p)
        run_bench(spec)  # imports and first-use allocations stay out of the peak
        tracemalloc.start()
        try:
            run_bench(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    narrow = peak([1 + i / 4 for i in range(4)])
    wide = peak([1 + i / 16 for i in range(16)])
    assert wide < 1.25 * narrow
    assert cells == [4 * 64] * (2 * 2 + 2 * 5)  # 9 and 21 runs in passes of 4, each twice


def test_bench_builds_one_earlier_list_per_plan(tmp_path, monkeypatch):
    """A file graph under 2 orders x k 8, 32 x fennel (two gammas), ldg, t: the 16 runs
    build one earlier-neighbour list per plan, and each goes with its plan."""
    built, plans, real = [], [], bench_mod.partition_stream
    real_lists = partitioner.earlier_lists

    def lists(g, seq):
        built.append(len(plans))  # the plans made so far: the last one is building
        return real_lists(g, seq)

    def tracked(g, plan, *args, **kwargs):
        if not plans or plans[-1]() is not plan:
            plans.append(weakref.ref(plan))
        return real(g, plan, *args, **kwargs)

    monkeypatch.setattr(partitioner, "earlier_lists", lists)
    monkeypatch.setattr(bench_mod, "partition_stream", tracked)
    gp = tmp_path / "g.txt"
    save_edge_list(generate_cl(ClParams(600, 2.5, seed=3)), gp)
    p = tmp_path / "spec.txt"
    p.write_text(f"graph = path:{gp}\nk = 8 32\ngamma = 1 1.5\norder = random bfs\n"
                 f"heuristic = fennel ldg t\nseeds = 1\nout = {tmp_path / 'res.csv'}\n")
    assert len(run_bench(parse_bench_spec(p))) == 2 * 2 * 2 * 3
    assert built == [1, 2]
    gc.collect()
    assert [ref() for ref in plans] == [None, None]


@pytest.mark.parametrize("gammas", ["1.5", "1 1.5"])
def test_bench_keeps_no_snapshot_past_its_row(tmp_path, monkeypatch, gammas):
    """At each partition_stream call only the previous row's snapshot may be alive."""
    made, alive, older, real = [], {}, [], bench_mod.partition_stream

    def tracked(g, plan, k, *args, **kwargs):
        gc.collect()
        # asserted after the run: an assert in here would only become an error row
        older.append(sum(ref() is not None for ref in made[:-1]))
        alive.setdefault(k, []).append(sum(ref() is not None for ref in made))
        snap, stats = real(g, plan, k, *args, **kwargs)
        made.append(weakref.ref(snap))
        return snap, stats

    monkeypatch.setattr(bench_mod, "partition_stream", tracked)
    p = tmp_path / "spec.txt"
    p.write_text(f"graph = hp:n=30,k=2,p=0.5,q=0.1\nk = 2 3\ngamma = {gammas}\n"
                 f"order = random bfs\nheuristic = {' '.join(HEURISTICS)}\nseeds = 1 2\n"
                 f"out = {tmp_path / 'res.csv'}\n")
    assert len(run_bench(parse_bench_spec(p))) == 2 * len(gammas.split()) * 2 * len(HEURISTICS) * 2
    assert not any(older)
    # one instance per seed serves both k, so k = 3 starts with k = 2's last snapshot
    assert {k: (counts[0], max(counts)) for k, counts in alive.items()} == {
        2: (0, 1), 3: (1, 1)}


def test_bench_retries_a_shared_run_that_failed(tmp_path):
    """
    A rule that reads no objective is partitioned again under a later gamma when
    its run under an earlier one failed: gamma = 1000 fails to resolve, gamma = 1
    runs. Every row equals its own partition_stream + evaluate_run, or its error row.
    """
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.txt"
    p.write_text("graph = hp:n=40,k=2,p=0.5,q=0.1\nk = 2 3\ngamma = 1000 1\n"
                 "order = random bfs\nheuristic = fennel ldg hash t\nseeds = 1 2\n"
                 f"out = {out}\n")
    spec = parse_bench_spec(p)
    run_bench(spec)

    ref, results = [], []
    for k, config, order, heuristic, seed in itertools.product(
            spec.k_list, spec.objectives, spec.order_list, spec.heuristic_list, spec.seeds):
        g, _ = generate_hp(HpParams(40, 2, 0.5, 0.1, seed=seed))
        name = "hp(n=40,k=2,p=0.5,q=0.1)"
        try:
            snap, stats = partition_stream(g, make_stream(g, order, seed), k, heuristic,
                                           config, seed)
            results.append(evaluate_run(g, name, snap, config, order, heuristic, seed,
                                        stats.runtime_ms, stats.threshold_violations))
            ref.append(result_to_row(results[-1]))
        except OverflowError as ex:
            ref.append(error_row(name, k, config.gamma, config.alpha, config.nu, order,
                                 heuristic, seed, f"{type(ex).__name__}: {ex}"))
    ref = [CSV_COLUMNS] + ref + aggregate_rows(results)
    rt = CSV_COLUMNS.index("runtime_ms")
    rows = read_csv(out)
    assert [r[:rt] + r[rt + 1:] for r in rows] == [r[:rt] + r[rt + 1:] for r in ref]
    runs = [dict(zip(CSV_COLUMNS, r)) for r in rows[1:]]
    assert {(r["gamma"], bool(r["error"])) for r in runs
            if r["heuristic"] == "ldg" and r["seed"].isdigit()} == {("1000", True), ("1", False)}


# CSV rows of test_bench_csv_names_and_values without runtime_ms; a change
# to any value, name or row order shows here
BENCH_CSV_SHA256 = "58056135d3c5665610210faead6a07b4ea3545af38c2ee3f2569566398cec3d2"


def test_bench_csv_names_and_values(tmp_path):
    """Display names keep the directive's own text; the rows are pinned."""
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.txt"
    p.write_text("graph = hp:n=40,k=match,p=.8,q=0.10\n"
                 "graph = cl:n=50,delta=2.50,avg_degree=4\n"
                 "k = 2 3\ngamma = 1 1.5\norder = random bfs\nheuristic = fennel t\n"
                 f"seeds = 1 2\nalpha = auto\nout = {out}\n")
    run_bench(parse_bench_spec(p))
    rows = read_csv(out)
    assert {r[0] for r in rows[1:]} == {"hp(n=40,k=2,p=.8,q=0.10)", "hp(n=40,k=3,p=.8,q=0.10)",
                                        "cl(n=50,delta=2.50,avg_degree=4)"}
    rt = CSV_COLUMNS.index("runtime_ms")
    stable = "\n".join(",".join(r[:rt] + r[rt + 1:]) for r in rows)
    assert hashlib.sha256(stable.encode()).hexdigest() == BENCH_CSV_SHA256


def test_cl_names_keep_written_avg_degree_and_i0(tmp_path):
    """CL directives that differ only in avg_degree or i0 are different graphs:
    each gets its own name, so aggregate_rows never averages them together. A
    directive that leaves them out keeps the name n and delta alone."""
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.txt"
    p.write_text("graph = cl:n=300,delta=2.5,avg_degree=4\n"
                 "graph = cl:n=300,delta=2.5,avg_degree=12\n"
                 "graph = cl:n=300,delta=2.5,avg_degree=12,i0=3\n"
                 "graph = cl:n=300,delta=2.5\n"
                 f"k = 2\nheuristic = fennel\nseeds = 1 2\nout = {out}\n")
    run_bench(parse_bench_spec(p))
    rows = [dict(zip(CSV_COLUMNS, r)) for r in read_csv(out)[1:]]
    names = ["cl(n=300,delta=2.5,avg_degree=4)", "cl(n=300,delta=2.5,avg_degree=12)",
             "cl(n=300,delta=2.5,avg_degree=12,i0=3)", "cl(n=300,delta=2.5)"]
    assert [r["graph"] for r in rows if r["seed"].isdigit()] == [x for x in names for _ in "12"]
    means = [r for r in rows if r["seed"] == "mean"]
    assert [r["graph"] for r in means] == names
    # each mean is over its own graph's two runs: avg_degree 4 against 12 triples m
    runs = {x: [float(r["m"]) for r in rows if r["graph"] == x and r["seed"].isdigit()]
            for x in names}
    assert [float(r["m"]) for r in means] == pytest.approx([np.mean(runs[x]) for x in names])
    assert float(means[1]["m"]) > 2 * float(means[0]["m"])


def test_bench_path_graph_round_trip(tmp_path):
    g = graph_from_pairs([(i, i + 1) for i in range(39)])
    gp = tmp_path / "g.txt"
    save_edge_list(g, gp)
    out = tmp_path / "res.csv"
    p = tmp_path / "spec.txt"
    p.write_text(f"graph = path:{gp}\nk = 2\nseeds = 7\nheuristic = ldg\n"
                 f"out = {out}\n")
    results = run_bench(parse_bench_spec(p))
    assert len(results) == 1
    assert results[0].graph == str(gp)
    assert results[0].n == 40


def test_assignment_round_trip(tmp_path):
    g = graph_from_pairs([(10, 20), (20, 30), (30, 10), (30, 40)])
    a = np.array([0, 1, 1, 0])
    p = tmp_path / "assign.csv"
    write_assignment(g, a, p)
    rows = read_csv(p)
    assert rows[0] == ["vertex", "cluster"]
    assert rows[1] == ["10", "0"]  # original labels, not dense ids
    back = read_assignment(g, p, 2)
    assert np.array_equal(back, a)


def test_write_assignment_bytes(tmp_path):
    g = graph_from_pairs([(2**40, 7), (7, 100)])
    p = tmp_path / "assign.csv"
    write_assignment(g, np.array([2, 0, 1]), p)
    assert p.read_bytes() == b"vertex,cluster\r\n7,2\r\n100,0\r\n1099511627776,1\r\n"


def test_write_assignment_matches_one_row_at_a_time(tmp_path):
    """The one-% write gives the bytes of an f-string per row, for labels up to 2**62."""
    labels = np.random.default_rng(3).integers(-2**62, 2**62, size=(500, 2), endpoint=True)
    labels[:2] = [[2**62, -2**62], [0, 1]]
    g = from_edges(labels)
    a = np.random.default_rng(4).integers(0, 5, size=g.n)
    p = tmp_path / "assign.csv"
    write_assignment(g, a, p)
    rows = "".join(f"{v},{c}\r\n" for v, c in zip(g.id_map.tolist(), a.tolist()))
    assert p.read_bytes() == ("vertex,cluster\r\n" + rows).encode()
    with pytest.raises(ValueError):
        write_assignment(g, a[1:], tmp_path / "short.csv")


def test_assignment_validation(tmp_path):
    g = graph_from_pairs([(0, 1), (1, 2)])
    p = tmp_path / "assign.csv"
    p.write_text("vertex,cluster\n0,0\n1,1\n")
    with pytest.raises(ValueError):
        read_assignment(g, p, 2)  # vertex 2 missing
    p.write_text("vertex,cluster\n0,0\n1,1\n2,5\n")
    with pytest.raises(ValueError):
        read_assignment(g, p, 2)  # cluster out of range
    p.write_text("vertex,cluster\n0,0\n1,1\n9,0\n")
    with pytest.raises(ValueError):
        read_assignment(g, p, 2)  # unknown label
    p.write_text("id,cluster\n")
    with pytest.raises(ValueError):
        read_assignment(g, p, 2)  # wrong header
    p.write_text("vertex,cluster\n0,0\n1,1\n2,0\n1,0\n")
    with pytest.raises(ValueError, match="duplicate row for vertex label 1"):
        read_assignment(g, p, 2)  # last row must not silently win
    # two faults in one file: the earlier row is the one reported
    for body, msg in [("5,0\n0,0\n1,9\n2,0\n", "unknown vertex label 5"),
                      ("0,0\n1,9\n5,0\n2,0\n", r"cluster 9 out of range \[0,2\)"),
                      ("0,0\n0,1\n1,-1\n7,0\n", "duplicate row for vertex label 0"),
                      ("0,0\n1,0\n\n2,3\n1,1\n", "cluster 3 out of range")]:
        p.write_text("vertex,cluster\n" + body)
        with pytest.raises(ValueError, match=msg):
            read_assignment(g, p, 2)
    for body in ["0,0\n1,x\n2,0\n", "0,0\n1\n2,0\n", "0,0,1\n1,1,1\n2,0,0\n"]:
        p.write_text("vertex,cluster\n" + body)
        with pytest.raises(ValueError, match="assign.csv"):
            read_assignment(g, p, 2)  # malformed rows name the file


@pytest.mark.parametrize("row", ["2", "2,0,1", "2,x", "2,0.5", "99999999999999999999,0",
                                 "2,-9223372036854775809", "0;0", "  "])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_malformed_assignment_row_names_its_file_line(tmp_path, row, newline):
    """Blank lines before the bad row count: it is named by its file line, as numpy's
    row numbers (which skip blank lines, and differ by kind of fault) would not."""
    g = graph_from_pairs([(0, 1), (1, 2)])
    p = tmp_path / "assign.csv"
    lines = ["vertex,cluster", "0,0", "", "", "1,1", row, "2,0", ""]
    p.write_bytes(newline.join(lines).encode())
    with pytest.raises(ValueError) as err:
        read_assignment(g, p, 2)
    assert str(err.value) == f"{p}:6: malformed row {row!r}"


@contextlib.contextmanager
def pipe_of(data: bytes):
    """A pipe holding data, named /dev/fd/N as a shell's <(...) hands it over."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)


def test_assignment_from_a_pipe_names_its_file_line():
    """A pipe cannot be read twice, so its text is read once: a good one parses, and a
    malformed row is named by its line as in a regular file, not by numpy's row."""
    g = graph_from_pairs([(0, 1), (1, 2)])
    with pipe_of(b"vertex,cluster\r\n0,0\r\n1,1\r\n2,0\r\n") as path:
        assert np.array_equal(read_assignment(g, path, 2), [0, 1, 0])
    with pipe_of(b"vertex,cluster\n0,0\n\n1,x\n2,0\n") as path:
        with pytest.raises(ValueError) as err:
            read_assignment(g, path, 2)
    assert str(err.value) == f"{path}:4: malformed row '1,x'"


@pytest.mark.parametrize("id_map", [[10, 1000, 2**40, 2**40 + 1, 7],
                                    [2**40, 7, 1000, 10, 2**40 + 1]])
def test_assignment_round_trip_non_contiguous_labels(tmp_path, id_map):
    """Sparse labels, given in sorted or arbitrary order, and rows in any order."""
    g = from_edges(np.array([[0, 1], [1, 2], [2, 3], [3, 4]]),
                   id_map=np.array(id_map, dtype=np.int64))
    a = np.array([2, 0, 1, 1, 0])
    p = tmp_path / "assign.csv"
    write_assignment(g, a, p)
    assert np.array_equal(read_assignment(g, p, 3), a)
    lines = p.read_text().splitlines()
    p.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n")
    assert np.array_equal(read_assignment(g, p, 3), a)
    p.write_text("vertex,cluster\n")
    with pytest.raises(ValueError, match="5 vertices missing"):
        read_assignment(g, p, 3)


def test_eval_assignment_metrics(tmp_path, two_triangles):
    p = tmp_path / "assign.csv"
    write_assignment(two_triangles, np.array([0, 0, 0, 1, 1, 1]), p)
    got = eval_assignment(two_triangles, p, 2, ObjectiveConfig(gamma=1.5))
    assert got["lambda"] == pytest.approx(1 / 7)
    assert got["rho"] == pytest.approx(1.0)
    assert got["g"] == pytest.approx(two_triangles.m - got["f"])
