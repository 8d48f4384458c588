"""Streaming graph partitioning toolkit: one-pass greedy assignment under an
edge-surplus objective, baseline heuristics, synthetic generators, exact and
semidefinite baselines, and a benchmark harness."""

from .graph import Graph, from_edges, load_edge_list, restrict_to_lcc, save_edge_list
from .stream import StreamPlan, make_stream
from .objective import (ObjectiveConfig, PartitionSnapshot, build_snapshot,
                        delta_g, eval_f, eval_g, eval_g_shifted,
                        eval_modularity_form, marginal_cost, resolve_alpha)
from .partitioner import HEURISTICS, partition_stream
from .generators import ClParams, HpParams, cl_weights, generate_cl, generate_hp
from .metrics import RunResult, compute_lambda, compute_rho, evaluate_run
from .oracle import OracleResult, brute_force_optimal, brute_force_pair_optimal
from .sdp import (GramSolution, SdpProblem, approximation_ratio_bound,
                  pair_shifted_value, round_hyperplanes, solve_sdp)

__version__ = "0.1.0"

__all__ = [
    "Graph", "from_edges", "load_edge_list", "restrict_to_lcc", "save_edge_list",
    "StreamPlan", "make_stream",
    "ObjectiveConfig", "PartitionSnapshot", "build_snapshot", "delta_g",
    "eval_f", "eval_g", "eval_g_shifted", "eval_modularity_form",
    "marginal_cost", "resolve_alpha",
    "HEURISTICS", "partition_stream",
    "ClParams", "HpParams", "cl_weights", "generate_cl", "generate_hp",
    "RunResult", "compute_lambda", "compute_rho", "evaluate_run",
    "OracleResult", "brute_force_optimal", "brute_force_pair_optimal",
    "GramSolution", "SdpProblem", "approximation_ratio_bound",
    "pair_shifted_value", "round_hyperplanes", "solve_sdp",
]
