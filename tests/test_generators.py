import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from streamcut import generators
from streamcut.generators import (ClParams, HpParams, cl_weights, generate_cl,
                                  generate_hp)
from streamcut.graph import from_edges

# sha256 of the (indptr, indices, id_map) bytes of instances that span many
# row blocks at the default _PAIR_BLOCK, recorded from the edge-list sampler
# below (HP: 8 blocks of <= 262 rows; CL: 18 blocks of <= 174 rows)
GOLDEN_MULTI_BLOCK = {
    HpParams(2000, 8, 0.8, 0.5, seed=7): (
        "9689e43453211f0eaf6979566b467b976bfff8c76caa47b82128fab59f14ef76",
        "ff86c007c986174985383e11ddb6f69b3e2b2bce09b6c7a27b21a7bf7a29e617",
        "55f385cf2332d9056aaed6f496e7bebd2df52c6a9547ce2144b309432d4b0290"),
    ClParams(3000, 2.5, seed=1): (
        "87dc79f8e98babbea2946b07001f2df7ef0b8c09e39e2297b109e3594deed963",
        "e093e6fc9d6933f7ae7d0a149964a7fc54df443aab51ac4a4c822cac93782c32",
        "e8c9ceaf5aacc63c25b4cdd8542592f9d58aff50e3e8fc6c55591d3d8f596562"),
}


def reference_sample(params):
    """
    A sampler written apart from the generators: probabilities and comparisons
    over each whole (block, n) draw, the upper triangle masked after, its pairs
    stacked into an edge list and built by from_edges. HP's CSR is read off its
    hit mask and CL's pairs are taken per block of upper cells, so any error in
    their row blocks shows against it.
    """
    n = params.n
    rng = np.random.Generator(np.random.PCG64(params.seed))
    if isinstance(params, HpParams):
        labels = rng.integers(params.k, size=n)

        def prob(rows):
            return np.where(labels[rows][:, None] == labels[None, :], params.p, params.q)
    else:
        w = cl_weights(params)

        def prob(rows):
            return np.minimum(1.0, np.outer(w[rows], w) / w.sum())
    chunks = [np.empty((0, 2), dtype=np.int64)]
    block = max(1, 4_000_000 // n)
    cols = np.arange(n)
    for lo in range(0, n, block):
        rows = np.arange(lo, min(lo + block, n))
        hit = (rng.random((len(rows), n)) < prob(rows)) & (cols[None, :] > rows[:, None])
        ii, jj = np.nonzero(hit)
        chunks.append(np.column_stack([rows[ii], jj]))
    return from_edges(np.concatenate(chunks), id_map=np.arange(n))


def sample(params):
    return generate_hp(params)[0] if isinstance(params, HpParams) else generate_cl(params)


def assert_same_build(g, ref):
    assert (g.n, g.m) == (ref.n, ref.m) and type(g.m) is int
    for name in ("indptr", "indices", "id_map"):
        a, b = getattr(g, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.flags.writeable == b.flags.writeable, name
        assert np.array_equal(a, b), name
    # simple and symmetric: each row strictly increasing and loop-free, and
    # the pair (v, u) listed for every (u, v)
    rows = np.repeat(np.arange(g.n), g.degrees)
    step = np.diff(g.indices)[np.diff(rows) == 0]
    assert (step > 0).all() and not (g.indices == rows).any()
    key, rev = rows * g.n + g.indices, g.indices * g.n + rows
    assert np.array_equal(np.sort(key), np.sort(rev))


_PROBS = st.sampled_from([0.0, 1.0, 0.3, 0.85])
_MODELS = st.one_of(
    st.builds(HpParams, n=st.integers(1, 40), k=st.integers(1, 4), p=_PROBS, q=_PROBS,
              seed=st.integers(0, 2**32)),
    st.builds(ClParams, n=st.integers(2, 40), delta=st.sampled_from([1.5, 2.1, 3.0]),
              avg_degree=st.floats(0.5, 1.9), i0=st.sampled_from([None, 1, 2]),
              seed=st.integers(0, 2**32)))


@pytest.mark.filterwarnings("ignore:q > p")
@settings(max_examples=200, deadline=None)
@given(params=_MODELS, block=st.sampled_from(["1", "n-1", "n", "3n+1", "default", "any"]),
       any_block=st.integers(1, 2000))
def test_direct_csr_build_equals_edge_list_sampler(params, block, any_block):
    n = params.n
    size = {"1": 1, "n-1": n - 1, "n": n, "3n+1": 3 * n + 1, "any": any_block,
            "default": generators._PAIR_BLOCK}[block]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_PAIR_BLOCK", size)
        assert_same_build(sample(params), reference_sample(params))


@pytest.mark.parametrize("params", [HpParams(300, 3, 0.3, 0.05), ClParams(300, 2.1)],
                         ids=["hp300", "cl300"])
@pytest.mark.parametrize("rows", ["1", "n", "7n/3"])
def test_row_blocks_equal_full_square_draws(params, rows):
    """_PAIR_BLOCK 1 and n cut n = 300 into blocks of one row, 7n/3 into blocks of
    two: across 150 to 300 blocks, the per-row advance gives the uniforms of the
    full square."""
    n = params.n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_PAIR_BLOCK", {"1": 1, "n": n, "7n/3": 7 * n // 3}[rows])
        assert_same_build(sample(params), reference_sample(params))


def traced_peak(make):
    """(tracemalloc peak of make(), its result)."""
    tracemalloc.start()
    try:
        made = make()
        return tracemalloc.get_traced_memory()[1], made
    finally:
        tracemalloc.stop()


def csr_bytes(g):
    return g.indptr.nbytes + g.indices.nbytes


def test_hp_build_holds_at_most_one_and_a_half_csrs():
    """The tracemalloc peak of one HP(5000) build, about 1.3 times its CSR (110 MiB):
    the n x n hit mask (24 MiB) and one row block beside the CSR, where a key sort
    held two CSRs."""
    peak, (g, _) = traced_peak(lambda: generate_hp(HpParams(5000, 4, 0.8, 0.5, seed=1)))
    assert peak <= 1.5 * csr_bytes(g)


def test_sparse_hp_build_holds_its_mask():
    """HP(5000, 50, .3, 0) has 1.2 MiB of CSR, so the n^2-byte mask (24 MiB) is most
    of its peak (29 MiB): the price of reading the rows off a mask. Bounded by the
    mask, two blocks of draws and 1.5 CSRs."""
    params = HpParams(5000, 50, 0.3, 0.0, seed=1)
    peak, (g, _) = traced_peak(lambda: generate_hp(params))
    assert csr_bytes(g) < params.n ** 2 // 16
    assert peak <= params.n ** 2 + 2 * 8 * generators._PAIR_BLOCK + 1.5 * csr_bytes(g)


def test_dense_cl_build_holds_a_few_csrs():
    """CL(3000, 2.1, avg 300, i0 1) has 3.55 MiB of CSR and peaks at 22 MiB: one
    block's draws and probabilities beside the pairs so far, then from_edges's
    edge list and its 2m sorted keys. Bounded by three blocks of floats and four
    CSRs."""
    params = ClParams(3000, 2.1, avg_degree=300.0, i0=1, seed=0)
    peak, g = traced_peak(lambda: generate_cl(params))
    assert csr_bytes(g) > 3 * 2**20
    assert peak <= 3 * 8 * generators._PAIR_BLOCK + 4 * csr_bytes(g)


@pytest.mark.parametrize("params", list(GOLDEN_MULTI_BLOCK), ids=["hp2000", "cl3000"])
def test_multi_block_instances_match_golden(params):
    assert -(-params.n // (generators._PAIR_BLOCK // params.n)) >= 8  # blocks of rows
    g = sample(params)
    arrays = (g.indptr, g.indices, g.id_map)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) \
        == GOLDEN_MULTI_BLOCK[params]


def test_cl_where_min_one_binds_equals_clipped_reference():
    # i0=1 at a high average degree: the largest weights' products exceed W,
    # so those pairs are joined with probability 1
    params = ClParams(n=600, delta=2.1, avg_degree=60.0, i0=1, seed=4)
    w = cl_weights(params)
    assert w[0] * w[0] / w.sum() > 1.0
    g = generate_cl(params)
    assert_same_build(g, reference_sample(params))
    sure = np.flatnonzero(w[0] * w / w.sum() >= 1.0)
    assert len(sure) > 2 and np.isin(sure[1:], g.neighbors(0)).all()


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


def linear_scan_weights(params):
    """Reference: the offset search the bisection replaced, i0 = 1, 2, ... until
    max(w) <= sqrt(W), stopping at n."""
    i0 = 1
    w = cl_weights(dataclasses.replace(params, i0=i0))
    while w[0] > np.sqrt(params.n * params.avg_degree) and i0 < params.n:
        i0 += 1
        w = cl_weights(dataclasses.replace(params, i0=i0))
    return w


@pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 1000])
def test_cl_weights_offset_equals_linear_scan(n):
    """The bisected i0 is the linear scan's: the same weights, bit for bit."""
    for delta in (1.01, 1.05, 1.2, 1.5, 2.1, 2.5, 3.0, 6.0):
        for avg in (0.5, 1.0, 3.0, 10.0, 0.5 * n, 0.95 * n):
            if avg < n:
                params = ClParams(n=n, delta=delta, avg_degree=avg)
                np.testing.assert_array_equal(cl_weights(params),
                                              linear_scan_weights(params))


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


@pytest.mark.filterwarnings("error")  # numpy's underflow warnings included
@pytest.mark.parametrize("params", [ClParams(3, 1.001, avg_degree=1), ClParams(2000, 1.002),
                                    ClParams(50, 1.0005, i0=3)])
def test_cl_refuses_weights_that_underflow(params):
    """Near delta = 1, (i + i0) ** (-1/(delta-1)) is 0.0 for every i and the weights
    NaN: an error naming delta, not an edgeless graph."""
    for make in (cl_weights, generate_cl):
        with pytest.raises(ValueError, match=rf"delta={params.delta} is too close to 1"):
            make(params)


def test_generators_have_no_self_loops_or_duplicates():
    g, _ = generate_hp(HpParams(n=120, k=2, p=0.5, q=0.2, seed=9))
    edges = g.edge_array()
    assert np.all(edges[:, 0] < edges[:, 1])
    assert len(np.unique(edges, axis=0)) == len(edges)
