import argparse
import hashlib
import math

import pytest

from streamcut.cli import build_parser, main
from streamcut.generators import HpParams, generate_hp
from streamcut.graph import load_edge_list, save_edge_list
from conftest import graph_from_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_hp_writes_graph_and_labels(tmp_path, capsys):
    out = tmp_path / "hp.txt"
    labels = tmp_path / "labels.csv"
    code, stdout, _ = run(capsys, "generate", "hp", "--n", "80", "--k", "2",
                          "--p", "0.5", "--q", "0.1", "--seed", "1",
                          "--out", str(out), "--labels", str(labels))
    assert code == 0
    assert "wrote" in stdout
    g = load_edge_list(out, lcc=False)
    assert g.m > 0
    lines = labels.read_text().splitlines()
    assert lines[0] == "vertex,label"
    assert len(lines) == 81


def test_generate_hp_output_bytes(tmp_path, capsys):
    """Edge and label files are byte-identical to the per-row writer (sha256
    recorded from it); two-digit labels included (k=12)."""
    out, labels = tmp_path / "hp.txt", tmp_path / "labels.csv"
    run(capsys, "generate", "hp", "--n", "300", "--k", "12", "--p", "0.5", "--q", "0.1",
        "--seed", "3", "--out", str(out), "--labels", str(labels))
    _, truth = generate_hp(HpParams(300, 12, 0.5, 0.1, seed=3))
    expected = "vertex,label\n" + "".join(f"{v},{truth[v]}\n" for v in range(300))
    assert labels.read_bytes() == expected.encode()
    assert hashlib.sha256(labels.read_bytes()).hexdigest() \
        == "d95961cab7998e75e5f22992b0d83285841cadee56dbcf801c6dd6ef1cb0a636"
    assert hashlib.sha256(out.read_bytes()).hexdigest() \
        == "d5ad71b5b7547315bd08a103c6990b077d86ed8dbf4a86c3944cceb521d48ae2"


def test_generate_cl(tmp_path, capsys):
    out = tmp_path / "cl.txt"
    code, _, _ = run(capsys, "generate", "cl", "--n", "200", "--delta",
                          "2.5", "--avg-degree", "6", "--seed", "2",
                          "--out", str(out))
    assert code == 0 and out.exists()


def test_generate_cl_refuses_delta_near_one(tmp_path, capsys):
    """Weights that underflow exit 1 with an error naming delta and write no file."""
    out = tmp_path / "cl.txt"
    code, stdout, err = run(capsys, "generate", "cl", "--n", "2000", "--delta", "1.002",
                            "--out", str(out))
    assert code == 1 and "delta=1.002 is too close to 1" in err
    assert stdout == "" and not out.exists()


def _measures(capsys, *argv) -> dict[str, str]:
    """The lambda, rho, f and g tokens a successful command prints."""
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    tokens = dict(token.split("=", 1) for token in stdout.split())
    return {key: tokens[key] for key in ("lambda", "rho", "f", "g")}


def _round_trip(tmp_path, capsys, *flags):
    """(partition's, eval's) printed measures of one assignment under the same flags."""
    graph = tmp_path / "g.txt"
    assign = tmp_path / "a.csv"
    run(capsys, "generate", "hp", "--n", "100", "--k", "2", "--p", "0.5",
        "--q", "0.05", "--seed", "3", "--out", str(graph))
    part = _measures(capsys, "partition", "--graph", str(graph), "--k", "2",
                     "--heuristic", "fennel", "--order", "random", "--seed", "4",
                     "--out", str(assign), *flags)
    return part, _measures(capsys, "eval", "--graph", str(graph), "--k", "2",
                           "--assignment", str(assign), *flags)


def test_partition_eval_round_trip(tmp_path, capsys):
    part, ev = _round_trip(tmp_path, capsys)
    assert ev == part
    assert all(float(x) < float("inf") for x in part.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # x**250 overflows
def test_partition_eval_round_trip_overflow(tmp_path, capsys):
    """An objective that overflows prints f=inf g=-inf from both commands."""
    part, ev = _round_trip(tmp_path, capsys, "--gamma", "250", "--alpha", "1e-300")
    assert ev == part
    assert (part["f"], part["g"]) == ("inf", "-inf")


def test_partition_objective_flags(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    save_edge_list(graph_from_pairs([(i, i + 1) for i in range(30)]), graph)
    code, stdout, _ = run(capsys, "partition", "--graph", str(graph),
                          "--k", "2", "--gamma", "2", "--alpha", "0.5",
                          "--nu", "1.2", "--marginal-mode", "discrete",
                          "--size-mode", "interior_edge", "--seed", "0")
    assert code == 0
    assert "threshold_violations=" in stdout


def test_oracle_subcommand(tmp_path, capsys):
    graph = tmp_path / "tri.txt"
    save_edge_list(graph_from_pairs([(0, 1), (1, 2), (0, 2)]), graph)
    code, stdout, _ = run(capsys, "oracle", "--graph", str(graph), "--k", "2",
                          "--alpha", "0.1")
    assert code == 0
    assert "best_f=" in stdout
    assert stdout.strip().splitlines()[-1] == "assignment=0,0,0"
    code, stdout, _ = run(capsys, "oracle", "--graph", str(graph), "--k", "2",
                          "--pairwise", "--alpha", "0.1")
    assert code == 0 and "best_g_shifted=" in stdout


def test_oracle_pairwise_requires_alpha(tmp_path, capsys):
    graph = tmp_path / "tri.txt"
    save_edge_list(graph_from_pairs([(0, 1), (1, 2), (0, 2)]), graph)
    code, _, stderr = run(capsys, "oracle", "--graph", str(graph), "--k", "2",
                          "--pairwise")
    assert code == 1
    assert "error:" in stderr


def test_sdp_subcommand_passes_its_own_bound(tmp_path, capsys):
    graph = tmp_path / "tri.txt"
    save_edge_list(graph_from_pairs([(0, 1), (1, 2), (0, 2)]), graph)
    code, stdout, _ = run(capsys, "sdp", "--graph", str(graph), "--k", "2",
                          "--alpha", "0.5", "--trials", "500", "--seed", "0")
    assert code == 0
    assert "PASS" in stdout


def test_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "res.csv"
    spec = tmp_path / "spec.txt"
    spec.write_text("graph = hp:n=40,k=2,p=0.6,q=0.1\nk = 2\nseeds = 1\n"
                    f"heuristic = dg hash\nout = {out}\n")
    code, stdout, _ = run(capsys, "bench", "--spec", str(spec))
    assert code == 0
    assert out.exists() and "2 runs" in stdout


def test_missing_graph_file_reports_error(capsys):
    code, _, stderr = run(capsys, "partition", "--graph", "/nonexistent.txt",
                          "--k", "2")
    assert code == 1
    assert "error:" in stderr


def test_nan_gamma_reports_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    save_edge_list(graph_from_pairs([(i, i + 1) for i in range(10)]), graph)
    code, _, stderr = run(capsys, "partition", "--graph", str(graph),
                          "--k", "2", "--gamma", "nan")
    assert code == 1
    assert "error:" in stderr and "gamma must be finite" in stderr


@pytest.mark.parametrize("command", [
    (["partition", "--k", "2", "--gamma", "nan"], "gamma must be finite"),
    (["eval", "--assignment", "a.csv", "--k", "2", "--gamma", "nan"], "gamma must be finite"),
    (["oracle", "--k", "2", "--gamma", "nan"], "gamma must be finite"),
    (["partition", "--k", "0"], "k must be >= 1"),
    (["eval", "--assignment", "a.csv", "--k", "0"], "k must be >= 1"),
    (["oracle", "--k", "0"], "k must be >= 1"),
    (["oracle", "--k", "0", "--pairwise", "--alpha", "0.5"], "k must be >= 1"),
    (["oracle", "--k", "2", "--pairwise", "--alpha", "nan"], "alpha must be finite and >= 0"),
    (["oracle", "--k", "2", "--pairwise", "--alpha", "inf"], "alpha must be finite and >= 0"),
    (["oracle", "--k", "2", "--pairwise", "--alpha", "-1"], "alpha must be finite and >= 0"),
    (["sdp", "--k", "0", "--alpha", "0.5"], "power of two >= 2"),
    (["sdp", "--k", "3", "--alpha", "0.5"], "power of two >= 2"),
    (["sdp", "--k", "2", "--alpha", "0.5", "--trials", "0"], "trials must be >= 1"),
    (["sdp", "--k", "2", "--alpha", "nan"], "alpha must be finite and >= 0"),
    (["sdp", "--k", "2", "--alpha", "-0.5"], "alpha must be finite and >= 0"),
])
def test_bad_flag_reported_before_the_graph_is_read(capsys, command):
    flags, message = command
    code, _, stderr = run(capsys, *flags, "--graph", "/nonexistent.txt")
    assert code == 1
    assert "error:" in stderr and message in stderr


def test_pairwise_oracle_alpha_checked_before_the_graph_is_read(capsys):
    code, _, stderr = run(capsys, "oracle", "--graph", "/nonexistent.txt", "--k", "2",
                          "--pairwise")
    assert code == 1
    assert "explicit --alpha" in stderr


_GRAPH_FLAGS = {"--graph": (None, True), "--k": (None, True),
                "--keep-disconnected": (False, False)}
_OBJECTIVE_FLAGS = {"--gamma": (1.5, False), "--alpha": ("auto", False),
                    "--nu": (math.inf, False), "--size-mode": ("vertex", False),
                    "--marginal-mode": ("derivative", False)}


@pytest.mark.parametrize("name, options", [
    ("partition", {**_GRAPH_FLAGS, **_OBJECTIVE_FLAGS,
                   "--heuristic": ("fennel", False), "--order": ("random", False),
                   "--seed": (0, False), "--tie-policy": ("lowest_index", False),
                   "--out": (None, False)}),
    ("eval", {**_GRAPH_FLAGS, **_OBJECTIVE_FLAGS, "--assignment": (None, True)}),
    ("oracle", {**_GRAPH_FLAGS, **_OBJECTIVE_FLAGS, "--pairwise": (False, False)}),
    ("sdp", {**_GRAPH_FLAGS, "--alpha": (None, True), "--trials": (10000, False),
             "--seed": (0, False), "--tol": (1e-7, False),
             "--max-iters": (20000, False)}),
])
def test_graph_subcommand_options(name, options):
    """Each graph subcommand's option strings, defaults and required flags."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {opt: (action.default, action.required)
           for action in sub.choices[name]._actions
           for opt in action.option_strings if opt not in ("-h", "--help")}
    assert got == options


def test_partition_names_the_line_that_is_not_utf8(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_bytes(b"0 1\n1 2\n\xff\xfe 4\n")
    code, stdout, stderr = run(capsys, "partition", "--graph", str(graph), "--k", "2")
    assert code == 1 and stdout == ""
    assert stderr == f"error: {graph}:3: malformed edge line '\\\\xff\\\\xfe 4'\n"
