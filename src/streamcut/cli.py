"""Command-line front end: partition, generate, eval, oracle, sdp, bench."""
from __future__ import annotations

import argparse
import math
import sys
from functools import partial

from . import bench as bench_mod
from .generators import ClParams, HpParams, generate_cl, generate_hp
from .graph import load_edge_list, save_edge_list
from .metrics import measures, render
from .objective import MARGINAL_MODES, SIZE_MODES, ObjectiveConfig
from .oracle import brute_force_optimal, brute_force_pair_optimal
from .partitioner import HEURISTICS, TIE_POLICIES, partition_stream
from .sdp import SdpProblem, approximation_ratio_bound, round_hyperplanes, solve_sdp
from .stream import ORDER_KINDS, make_stream


def _alpha(text: str):
    return text if text == "auto" else float(text)


def _add_objective_flags(p: argparse.ArgumentParser):
    p.add_argument("--gamma", type=float, default=ObjectiveConfig.gamma)
    p.add_argument("--alpha", type=_alpha, default=ObjectiveConfig.alpha,
                   help="positive real or 'auto' (m*k^(gamma-1)/n^gamma)")
    p.add_argument("--nu", type=float, default=ObjectiveConfig.nu,
                   help="load threshold factor; inf disables")
    p.add_argument("--size-mode", choices=SIZE_MODES, default=ObjectiveConfig.size_mode)
    p.add_argument("--marginal-mode", choices=MARGINAL_MODES,
                   default=ObjectiveConfig.marginal_mode)


def _check_k(k: int) -> int:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def _pair_alpha(alpha) -> float:
    """alpha of the pairwise cost family (oracle --pairwise, sdp): 0 keeps only the cut."""
    if alpha == "auto":
        raise ValueError("pairwise oracle needs an explicit --alpha")
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    return alpha


def _config(args) -> ObjectiveConfig:
    """The objective flags and --k, checked before the graph is read."""
    _check_k(args.k)
    return ObjectiveConfig(gamma=args.gamma, alpha=args.alpha, nu=args.nu,
                           size_mode=args.size_mode, marginal_mode=args.marginal_mode)


def _load(args):
    return load_edge_list(args.graph, lcc=not args.keep_disconnected)


def cmd_partition(args) -> int:
    config = _config(args)
    g = _load(args)
    config = config.resolve(g, args.k)
    plan = make_stream(g, args.order, args.seed)
    snap, stats = partition_stream(g, plan, args.k, args.heuristic, config,
                                   args.seed, tie_policy=args.tie_policy)
    print(render({"n": g.n, "m": g.m, "k": args.k, "heuristic": args.heuristic,
                  "order": args.order, **measures(g, snap, config),
                  "runtime_ms": stats.runtime_ms,
                  "threshold_violations": stats.threshold_violations}))
    if args.out:
        bench_mod.write_assignment(g, snap.assignment, args.out)
    return 0


def cmd_generate(args) -> int:
    if args.model == "hp":
        g, labels = generate_hp(HpParams(n=args.n, k=args.k, p=args.p, q=args.q,
                                         seed=args.seed))
        save_edge_list(g, args.out)
        if args.labels:
            with open(args.labels, "w") as fh:
                fh.write("vertex,label\n")
                fh.writelines(f"{v},{c}\n" for v, c in enumerate(labels.tolist()))
    else:
        g = generate_cl(ClParams(n=args.n, delta=args.delta, avg_degree=args.avg_degree,
                                 i0=args.i0, seed=args.seed))
        save_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def cmd_eval(args) -> int:
    config = _config(args)
    g = _load(args)
    print(render({"n": g.n, "m": g.m, "k": args.k,
                  **bench_mod.eval_assignment(g, args.assignment, args.k, config)}))
    return 0


def cmd_oracle(args) -> int:
    if args.pairwise:
        optimum = partial(brute_force_pair_optimal, k=_check_k(args.k),
                          alpha=_pair_alpha(args.alpha))
    else:
        optimum = partial(brute_force_optimal, k=args.k, config=_config(args))
    res = optimum(_load(args))
    print(f"best_f={res.best_f:.6f} best_g={res.best_g:.6f} "
          f"best_g_shifted={res.best_g_shifted:.6f} "
          f"enumerated={res.partitions_enumerated}")
    print("assignment=" + ",".join(str(int(c)) for c in res.best_assignment))
    return 0


def cmd_sdp(args) -> int:
    alpha = _pair_alpha(args.alpha)
    bound = approximation_ratio_bound(args.k)  # k must be a power of two >= 2
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    problem = SdpProblem.from_graph(_load(args), alpha)
    sol = solve_sdp(problem, tol=args.tol, max_iters=args.max_iters)
    rounding = round_hyperplanes(sol, args.k, args.seed, args.trials, alpha, problem.edges)
    target = bound * sol.sdp_value
    ok = rounding.mean_shifted >= target
    print(f"sdp_value={sol.sdp_value:.6f} converged={sol.converged} "
          f"iterations={sol.iterations} residual={sol.feasibility_residual:.2e}")
    print(f"mean_shifted={rounding.mean_shifted:.6f} bound={bound:.6f} "
          f"bound*sdp={target:.6f} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    spec = bench_mod.parse_bench_spec(args.spec)
    results = bench_mod.run_bench(spec)
    print(f"wrote {spec.out}: {len(results)} runs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="streamcut",
                                 description="Streaming graph partitioning toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="one-pass streaming partition of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--heuristic", choices=HEURISTICS, default="fennel")
    p.add_argument("--order", choices=ORDER_KINDS, default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tie-policy", choices=TIE_POLICIES, default="lowest_index")
    p.add_argument("--keep-disconnected", action="store_true",
                   help="skip largest-connected-component restriction")
    p.add_argument("--out", help="assignment CSV (vertex,cluster; original labels)")
    _add_objective_flags(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("generate", help="synthetic graph generators")
    gsub = p.add_subparsers(dest="model", required=True)
    hp = gsub.add_parser("hp", help="hidden-partition model")
    hp.add_argument("--n", type=int, required=True)
    hp.add_argument("--k", type=int, required=True)
    hp.add_argument("--p", type=float, required=True, help="within-cluster probability")
    hp.add_argument("--q", type=float, required=True, help="cross-cluster probability")
    hp.add_argument("--seed", type=int, default=0)
    hp.add_argument("--out", required=True)
    hp.add_argument("--labels", help="optional ground-truth labels CSV")
    hp.set_defaults(func=cmd_generate)
    cl = gsub.add_parser("cl", help="power-law expected-degree model")
    cl.add_argument("--n", type=int, required=True)
    cl.add_argument("--delta", "--slope", dest="delta", type=float, required=True)
    cl.add_argument("--avg-degree", type=float, default=10.0)
    cl.add_argument("--i0", type=int, default=None)
    cl.add_argument("--seed", type=int, default=0)
    cl.add_argument("--out", required=True)
    cl.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="recompute metrics for a stored assignment")
    p.add_argument("--graph", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--keep-disconnected", action="store_true")
    _add_objective_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="exhaustive optimum on a tiny graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pairwise", action="store_true",
                   help="pairwise cost family (the relaxation's integral problem)")
    p.add_argument("--keep-disconnected", action="store_true")
    _add_objective_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sdp", help="semidefinite relaxation + hyperplane rounding")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True, help="power of two >= 2")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--keep-disconnected", action="store_true")
    p.set_defaults(func=cmd_sdp)

    p = sub.add_parser("bench", help="run an experiment matrix from a spec file")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
