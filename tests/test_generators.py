import numpy as np
import pytest

from streamcut.generators import (ClParams, HpParams, cl_weights, generate_cl,
                                  generate_hp)


def edge_set(g):
    return set(map(tuple, g.edge_array()))


def test_hp_shape_and_labels():
    g, labels = generate_hp(HpParams(n=300, k=3, p=0.6, q=0.1, seed=0))
    assert g.n == 300
    assert labels.shape == (300,)
    assert labels.min() >= 0 and labels.max() < 3
    assert np.array_equal(g.id_map, np.arange(300))
    # labels are multinomial(1/k): each class near n/k
    counts = np.bincount(labels, minlength=3)
    sigma = np.sqrt(300 * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - 100) < 5 * sigma)


def test_hp_deterministic():
    a, la = generate_hp(HpParams(n=150, k=2, p=0.4, q=0.1, seed=42))
    b, lb = generate_hp(HpParams(n=150, k=2, p=0.4, q=0.1, seed=42))
    c, _ = generate_hp(HpParams(n=150, k=2, p=0.4, q=0.1, seed=43))
    assert np.array_equal(la, lb)
    assert edge_set(a) == edge_set(b)
    assert edge_set(a) != edge_set(c)


def test_hp_block_densities():
    params = HpParams(n=600, k=2, p=0.5, q=0.1, seed=7)
    g, labels = generate_hp(params)
    edges = g.edge_array()
    same = labels[edges[:, 0]] == labels[edges[:, 1]]
    counts = np.bincount(labels, minlength=2)
    within_pairs = int((counts * (counts - 1) // 2).sum())
    cross_pairs = int(counts[0] * counts[1])
    p_hat = same.sum() / within_pairs
    q_hat = (~same).sum() / cross_pairs
    assert abs(p_hat - 0.5) < 4 * np.sqrt(0.25 / within_pairs)
    assert abs(q_hat - 0.1) < 4 * np.sqrt(0.09 / cross_pairs)


def test_hp_edge_count_concentrates():
    params = HpParams(n=400, k=4, p=0.3, q=0.05, seed=3)
    g, labels = generate_hp(params)
    counts = np.bincount(labels, minlength=4)
    within = int((counts * (counts - 1) // 2).sum())
    cross = 400 * 399 // 2 - within
    expected = within * 0.3 + cross * 0.05
    sigma = np.sqrt(within * 0.3 * 0.7 + cross * 0.05 * 0.95)
    assert abs(g.m - expected) < 5 * sigma


def test_hp_warns_when_cross_density_dominates():
    with pytest.warns(UserWarning):
        HpParams(n=50, k=2, p=0.2, q=0.5, seed=0)


def test_hp_parameter_validation():
    with pytest.raises(ValueError):
        HpParams(n=10, k=0, p=0.5, q=0.1, seed=0)
    with pytest.raises(ValueError):
        HpParams(n=10, k=2, p=1.5, q=0.1, seed=0)


def test_cl_weights_shape():
    params = ClParams(n=2000, delta=2.5, seed=0)
    w = cl_weights(params)
    assert w.shape == (2000,)
    assert np.all(np.diff(w) <= 0)  # nonincreasing
    assert w[0] <= np.sqrt(w.sum()) + 1e-9  # max weight capped by auto offset


def test_cl_weights_follow_power_law():
    params = ClParams(n=1000, delta=3.0, i0=5, seed=0)
    w = cl_weights(params)
    # slope -1/(delta-1) on a log-log scale
    i = np.arange(1000)
    ratio = w / (i + 5.0) ** (-1 / 2.0)
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def test_cl_deterministic():
    a = generate_cl(ClParams(n=800, delta=2.5, seed=5))
    b = generate_cl(ClParams(n=800, delta=2.5, seed=5))
    c = generate_cl(ClParams(n=800, delta=2.5, seed=6))
    assert edge_set(a) == edge_set(b)
    assert edge_set(a) != edge_set(c)
    assert a.n == 800 and np.array_equal(a.id_map, np.arange(800))


def test_cl_edge_count_concentrates():
    params = ClParams(n=3000, delta=2.5, avg_degree=8.0, seed=1)
    w = cl_weights(params)
    total = w.sum()
    expected_m = (total ** 2 - (w ** 2).sum()) / (2 * total)
    g = generate_cl(params)
    assert abs(g.m - expected_m) < 5 * np.sqrt(expected_m)


def test_cl_mean_degree_tracks_request():
    g = generate_cl(ClParams(n=4000, delta=2.5, avg_degree=10.0, seed=2))
    mean_deg = 2 * g.m / g.n
    assert 8.0 < mean_deg < 10.5


def test_cl_parameter_validation():
    with pytest.raises(ValueError):
        ClParams(n=100, delta=1.0, seed=0)  # slope must exceed 1
    with pytest.raises(ValueError, match="delta must be > 1"):
        ClParams(n=200, delta=float("nan"))
    with pytest.raises(ValueError):
        ClParams(n=100, delta=2.5, avg_degree=0.0, seed=0)


def test_generators_have_no_self_loops_or_duplicates():
    g, _ = generate_hp(HpParams(n=120, k=2, p=0.5, q=0.2, seed=9))
    edges = g.edge_array()
    assert np.all(edges[:, 0] < edges[:, 1])
    assert len(np.unique(edges, axis=0)) == len(edges)
