import numpy as np
import pytest

from streamcut.oracle import brute_force_pair_optimal
from streamcut.sdp import (MAX_GRAM_DIM, GramSolution, SdpProblem,
                           approximation_ratio_bound, pair_shifted_value,
                           round_hyperplanes, solve_sdp)
from conftest import random_gnp


def test_objective_matches_gradient_inner_product(k4):
    prob = SdpProblem.from_graph(k4, alpha=0.3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        y = (a + a.T) / 2
        inner = float((prob.gradient() * y).sum())
        shift = 0.3 * 4 * 3 / 2
        assert prob.objective_value(y) == pytest.approx(inner + shift,
                                                        rel=1e-12)


def test_identity_gram_value(triangle):
    # identity Y means every pair is cut: value = alpha * C(n,2)
    prob = SdpProblem.from_graph(triangle, alpha=0.5)
    assert prob.objective_value(np.eye(3)) == pytest.approx(0.5 * 3)


@pytest.mark.parametrize("alpha", [0.25, 1.0])
def test_solver_feasible_and_dominates_integral_optimum(triangle, alpha):
    prob = SdpProblem.from_graph(triangle, alpha=alpha)
    sol = solve_sdp(prob)
    assert sol.converged
    assert sol.feasibility_residual < 1e-6
    norms = np.linalg.norm(sol.vectors, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    gram = sol.gram
    assert gram.min() > -1e-7
    for k in (2, 4):
        opt = brute_force_pair_optimal(triangle, k, alpha)
        assert sol.sdp_value >= opt.best_g_shifted - 1e-4


def test_solver_on_random_graphs():
    for seed in range(3):
        g = random_gnp(9, 0.4, seed=seed)
        sol = solve_sdp(SdpProblem.from_graph(g, alpha=0.5))
        assert sol.feasibility_residual < 1e-6
        opt = brute_force_pair_optimal(g, 2, 0.5)
        assert sol.sdp_value >= opt.best_g_shifted - 1e-4


def test_stopped_solve_keeps_its_final_iterate():
    """A solve cut off between checkpoints still scores its last iterate."""
    prob = SdpProblem.from_graph(random_gnp(9, 0.4, seed=0), alpha=0.5)
    stopped = solve_sdp(prob, max_iters=73)
    assert stopped.iterations == 73 and stopped.converged is False
    assert stopped.feasibility_residual < 1e-9
    assert stopped.sdp_value > solve_sdp(prob, max_iters=50).sdp_value


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.5])
def test_pairwise_alpha_rejected(triangle, alpha):
    """NaN or inf prices every partition at NaN or inf, and a negative
    alpha leaves the nonnegative family the relaxation bounds."""
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        SdpProblem.from_graph(triangle, alpha)
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        pair_shifted_value(3, triangle.edge_array(), np.array([0, 0, 1]), alpha)


def test_solver_size_guard():
    g = random_gnp(MAX_GRAM_DIM + 1, 0.1, seed=0)
    with pytest.raises(ValueError):
        solve_sdp(SdpProblem.from_graph(g, alpha=0.1))


def test_rounding_labels_and_values(four_cycle):
    prob = SdpProblem.from_graph(four_cycle, alpha=0.4)
    sol = solve_sdp(prob)
    res = round_hyperplanes(sol, k=4, seed=3, trials=200, alpha=0.4,
                            edges=four_cycle.edge_array())
    assert res.labels.shape == (4, 200)
    assert res.labels.min() >= 0 and res.labels.max() < 4
    # each trial's value is the relaxation's objective at its integral
    # Gram matrix (1 within a cluster): internal edges + alpha*cross pairs
    for t in range(200):
        gram = (res.labels[:, t, None] == res.labels[None, :, t]).astype(float)
        assert res.shifted_values[t] == pytest.approx(prob.objective_value(gram),
                                                      abs=1e-9)
    # a batch scores column by column
    edges = four_cycle.edge_array()
    assert np.array_equal(
        pair_shifted_value(4, edges, res.labels, alpha=0.4),
        [pair_shifted_value(4, edges, res.labels[:, t], alpha=0.4) for t in range(200)])
    assert res.mean_shifted == pytest.approx(res.shifted_values.mean())
    # no integral partition can beat the relaxation
    assert res.shifted_values.max() <= sol.sdp_value + 1e-4


def test_rounding_determinism(triangle):
    sol = solve_sdp(SdpProblem.from_graph(triangle, alpha=0.5))
    a = round_hyperplanes(sol, 2, seed=7, trials=50, alpha=0.5,
                          edges=triangle.edge_array())
    b = round_hyperplanes(sol, 2, seed=7, trials=50, alpha=0.5,
                          edges=triangle.edge_array())
    assert np.array_equal(a.labels, b.labels)


def test_rounding_requires_power_of_two(triangle):
    sol = solve_sdp(SdpProblem.from_graph(triangle, alpha=0.5))
    for bad_k in (1, 3, 6):
        with pytest.raises(ValueError):
            round_hyperplanes(sol, bad_k, seed=0, trials=10, alpha=0.5,
                              edges=triangle.edge_array())


def test_pair_shifted_value_formula():
    edges = np.array([[0, 1], [1, 2]])
    # split {0,1} vs {2}: one internal edge, two cross pairs
    assert pair_shifted_value(3, edges, np.array([0, 0, 1]), alpha=0.5) == \
        pytest.approx(1 + 0.5 * 2)


def test_approximation_bound_values():
    b2 = approximation_ratio_bound(2)
    b4 = approximation_ratio_bound(4)
    assert b2 == pytest.approx(1 / (2 * np.pi))
    assert b4 == pytest.approx(1 / (2 * np.pi))  # t * 2^-t peaks at both
    assert approximation_ratio_bound(8) < b4
    for k in (2, 4, 8, 16):
        assert 0 < approximation_ratio_bound(k) <= 0.5


def test_perfect_gram_rounds_perfectly():
    """Antipodal unit vectors always land in different clusters."""
    vectors = np.array([[1.0, 0.0], [-1.0, 0.0]])
    sol = GramSolution(vectors=vectors, sdp_value=0.0,
                       feasibility_residual=0.0, converged=True, iterations=0)
    res = round_hyperplanes(sol, 2, seed=1, trials=100, alpha=0.0,
                            edges=np.empty((0, 2), dtype=np.int64))
    assert np.all(res.labels[0] != res.labels[1])
