"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""
import csv
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from streamcut import generators, graph, metrics  # noqa: E402


@pytest.mark.parametrize("community", [0, 5])
def test_sampler_is_a_function_of_the_seed(community):
    a = inputs.powerlaw_rows(500, 2000, 2.5, seed=3, community=community, p_in=0.5)
    b = inputs.powerlaw_rows(500, 2000, 2.5, seed=3, community=community, p_in=0.5)
    c = inputs.powerlaw_rows(500, 2000, 2.5, seed=4, community=community, p_in=0.5)
    assert a.shape == (2000, 2) and a.min() >= 0 and a.max() < 500
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_edge_file_is_byte_identical_per_seed(tmp_path):
    for name in ("a.txt", "b.txt"):
        inputs.write_powerlaw_file(tmp_path / name, 300, 1000, 2.5, seed=9,
                                   community=10, p_in=0.6)
    text = (tmp_path / "a.txt").read_text()
    assert text == (tmp_path / "b.txt").read_text()
    assert text.startswith("# ")
    labels = np.array([int(x) for line in text.splitlines()[1:] for x in line.split()])
    assert len(text.splitlines()) == 1 + 1000 + inputs.ISLANDS
    assert labels.min() > 1000  # labels are not 0..n-1


def test_labels_are_distinct_permuted_and_non_contiguous():
    labels = inputs.vertex_labels(1000, seed=1)
    assert len(np.unique(labels)) == 1000
    assert np.any(np.diff(np.sort(labels)) > 1)
    assert not np.all(np.diff(labels) > 0)


def _span(name, start, end, parent, job="j"):
    return tracing.Span(name, start, end, parent, job)


def test_self_times_on_a_span_tree():
    spans = [_span(tracing.JOB, 0.0, 10.0, None),
             _span("cli.main", 1.0, 6.0, 0),
             _span("graph.load_edge_list", 2.0, 4.0, 1),
             _span("partitioner.partition_stream", 7.0, 9.0, 0)]
    selfs = tracing.self_times(spans)
    assert selfs == [3.0, 3.0, 2.0, 2.0]
    assert sum(selfs) == spans[0].end - spans[0].start
    m = tracing.job_layer_metrics(spans, selfs, "j")
    assert m["trace.job_s"] == 10.0 and m["trace.gap_s"] == 3.0
    assert m["cli.main.self_s"] == 3.0
    assert m["graph.load_edge_list.self_s"] == 2.0
    assert m["cli.main.self_pct"] == 30.0
    assert m["generators.generate_hp.self_s"] == 0.0  # layer never entered
    run_level = {"trace.untraced_job_s", "trace.overhead_s"}
    assert set(tracing.LAYER_UNITS) - run_level <= set(m)


def test_spans_of_other_jobs_are_ignored():
    spans = [_span(tracing.JOB, 0.0, 4.0, None, job=1),
             _span(tracing.JOB, 5.0, 6.0, None, job=2)]
    m = tracing.job_layer_metrics(spans, tracing.self_times(spans), 2)
    assert m["trace.job_s"] == 1.0


def test_install_wraps_every_binding_and_restores():
    original = graph.from_edges
    rec = tracing.Recorder()
    restore = tracing.install(rec.wrapper)
    try:
        assert generators.from_edges is graph.from_edges is not original
        rec.job = 0
        g, _ = generators.generate_hp(generators.HpParams(20, 2, 0.5, 0.1, 1))
    finally:
        restore()
    assert generators.from_edges is original and graph.from_edges is original
    names = [s.name for s in rec.spans]
    assert names == ["generators.generate_hp", "graph.from_edges"]
    assert rec.spans[1].parent == 0
    assert rec.spans[1].attrs["kept"] == g.m
    assert rec.spans[0].attrs["draws"] == 400


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(metrics.CSV_COLUMNS)
        w.writerows(rows)


def _run_row(heuristic="fennel", k=8, rho="1.1", error=""):
    row = dict.fromkeys(metrics.CSV_COLUMNS, "")
    row.update(graph="g.txt", n="10", m="20", k=str(k), gamma="1", alpha="0.5",
               nu="inf", order="random", heuristic=heuristic, seed="1",
               **{"lambda": "0.5"}, rho=rho, f="1", g="1", runtime_ms="3.0",
               threshold_violations="0", error=error)
    if error:
        row.update(n="", m="", **{"lambda": ""}, rho="", f="", g="", runtime_ms="")
    return [row[c] for c in metrics.CSV_COLUMNS]


def _full_matrix(**override):
    rows = [_run_row() for _ in range(workloads.MX_RUNS)]
    for i, kw in override.items():
        rows[int(i)] = _run_row(**kw)
    return rows


def test_clean_matrix_csv_passes(tmp_path):
    _write_csv(tmp_path / "ok.csv", _full_matrix())
    ans = workloads.matrix_answer(tmp_path / "ok.csv")
    assert ans.failures == [] and ans.digest and len(ans.lam) == workloads.MX_RUNS


def test_error_row_fails_the_job(tmp_path):
    _write_csv(tmp_path / "err.csv", _full_matrix(**{"3": {"error": "ValueError: boom"}}))
    ans = workloads.matrix_answer(tmp_path / "err.csv")
    assert len(ans.failures) == 1 and "boom" in ans.failures[0]
    assert ans.digest is None


def test_collapsed_triangle_rule_fails_the_job(tmp_path):
    _write_csv(tmp_path / "t.csv", _full_matrix(**{"0": {"heuristic": "t", "rho": "8.0"}}))
    assert "collapsed" in workloads.matrix_answer(tmp_path / "t.csv").failures[0]


def test_digest_ignores_runtime_only(tmp_path):
    rows = _full_matrix()
    _write_csv(tmp_path / "a.csv", rows)
    rows[0][metrics.CSV_COLUMNS.index("runtime_ms")] = "999.0"
    _write_csv(tmp_path / "b.csv", rows)
    rows[0][metrics.CSV_COLUMNS.index("f")] = "2"
    _write_csv(tmp_path / "c.csv", rows)
    a, b, c = (workloads.matrix_answer(tmp_path / f"{x}.csv").digest for x in "abc")
    assert a == b != c
