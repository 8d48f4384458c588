"""Shared fixtures: small named graphs and random-graph helpers."""
import numpy as np
import pytest
from hypothesis import strategies as st

from streamcut.graph import Graph, from_edges


def graph_from_pairs(pairs) -> Graph:
    return from_edges(np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi instance with all n vertices kept (isolated ones included)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    edges = np.column_stack([iu[keep], ju[keep]])
    if len(edges) == 0:
        edges = np.array([[0, 1]], dtype=np.int64)
    # keep vertex count fixed at n even when high labels drew no edges
    return from_edges(edges, id_map=np.arange(n, dtype=np.int64))


@pytest.fixture
def triangle() -> Graph:
    return graph_from_pairs([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def four_cycle() -> Graph:
    return graph_from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def k4() -> Graph:
    return graph_from_pairs([(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def two_triangles() -> Graph:
    """Two triangles joined by a bridge: 6 vertices, 7 edges."""
    return graph_from_pairs(
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


@pytest.fixture
def path5() -> Graph:
    return graph_from_pairs([(i, i + 1) for i in range(4)])


@st.composite
def several_components(draw, max_size=8):
    """Graphs of a few disjoint random blocks and isolated vertices, labels shuffled."""
    sizes = draw(st.lists(st.integers(1, max_size), min_size=2, max_size=5))
    n = sum(sizes) + draw(st.integers(0, 3))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    pairs, base = [], 0
    for size in sizes:
        vertex = st.integers(base, base + size - 1)
        pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=3 * size))
        base += size
    edges = perm[np.array(pairs, dtype=np.int64).reshape(-1, 2)]
    return from_edges(edges, id_map=np.arange(n, dtype=np.int64) * 3 + 5)


# ---- acceptance-criterion reporting ----------------------------------------
# Criterion tests record one PASS/FAIL line each; the lines are replayed in
# the terminal summary so they stay visible even when stdout is captured.

def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion_line(request):
    def record(line: str) -> None:
        print(line)
        request.config._criterion_lines.append(line)
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
