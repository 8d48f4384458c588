import pytest

from streamcut.cli import main
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


def test_generate_cl(tmp_path, capsys):
    out = tmp_path / "cl.txt"
    code, _, _ = run(capsys, "generate", "cl", "--n", "200", "--delta",
                          "2.5", "--avg-degree", "6", "--seed", "2",
                          "--out", str(out))
    assert code == 0 and out.exists()


def test_partition_eval_round_trip(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    assign = tmp_path / "a.csv"
    run(capsys, "generate", "hp", "--n", "100", "--k", "2", "--p", "0.5",
        "--q", "0.05", "--seed", "3", "--out", str(graph))
    code, stdout, _ = run(capsys, "partition", "--graph", str(graph),
                          "--k", "2", "--heuristic", "fennel",
                          "--order", "random", "--seed", "4",
                          "--out", str(assign))
    assert code == 0
    assert "lambda=" in stdout and "rho=" in stdout
    lam = float(stdout.split("lambda=")[1].split()[0])
    code, stdout, _ = run(capsys, "eval", "--graph", str(graph),
                          "--k", "2", "--assignment", str(assign))
    assert code == 0
    assert float(stdout.split("lambda=")[1].split()[0]) == lam


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
