"""Immutable simple undirected graph with CSR adjacency and edge-list IO."""
from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

_PARSE_BLOCK_CHARS = 1 << 14  # bounds the per-line strings the fallback reader holds at once
# read backwards: a line's first '#' with a character other than str.split()'s ASCII
# whitespace before it ("1 2 # x" is a bad row to the line scan, a comment to numpy);
# only that '#' decides, so "# a # b" is a comment line
_HASH_AFTER_DATA = re.compile(
    rb"#[ \t\x0b\x0c\x1c-\x1f]*[^ \t\x0b\x0c\x1c-\x1f#\r\n][^#\r\n]*(?:[\r\n]|\Z)")
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # names numpy's loadtxt would decompress
_UNDECODED = re.compile("[\udc80-\udcff]")  # bytes the surrogateescape decoder kept
_INT64_MAX = np.iinfo(np.int64).max
SPAN = 1 << 14  # adjacency entries one span of rows, block of arrivals or gather may hold


class EdgeListParseError(ValueError):
    """Raised on a malformed edge-list line; carries the 1-based line number."""

    def __init__(self, path, lineno: int, text: str):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: malformed edge line {text!r}")


class EmptyGraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """
    Simple undirected graph, frozen after construction (CSR arrays read-only).

    Adjacency is CSR-style: the neighbors of dense vertex v are
    ``indices[indptr[v]:indptr[v+1]]``, sorted ascending. ``id_map[v]``
    is the original label of dense vertex v (identity for generated
    graphs). No self loops, no duplicate edges, symmetric by
    construction.
    """

    n: int
    m: int
    indptr: np.ndarray
    indices: np.ndarray
    id_map: np.ndarray

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted dense neighbor indices of v (a read-only view)."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_array(self) -> np.ndarray:
        """Each undirected edge once, as an (m, 2) array with u < v."""
        u = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        v = self.indices.astype(np.int64)
        keep = u < v
        return np.column_stack([u[keep], v[keep]])


def _run_starts(sorted_arr: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor."""
    starts = np.empty(len(sorted_arr), dtype=bool)
    starts[:1] = True
    np.not_equal(sorted_arr[1:], sorted_arr[:-1], out=starts[1:])
    return starts


def spans(weights: np.ndarray):
    """Consecutive [lo, hi) ranges of weights, each summing to at most SPAN or one item."""
    ends, lo = np.cumsum(weights), 0
    while lo < len(ends):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - weights[lo] + SPAN, "right")))
        yield lo, hi
        lo = hi


def gather(g: Graph, vertices: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The adjacency rows of vertices, whose degrees are lens, one after another."""
    ends = np.cumsum(lens)
    entries = (g.indptr[vertices] - ends + lens).repeat(lens)
    entries += np.arange(len(entries))
    return g.indices[entries]


def from_edges(edges: np.ndarray, id_map: np.ndarray | None = None) -> Graph:
    """
    Build a Graph from an (E, 2) array of vertex labels.

    Self loops and duplicate edges are dropped, directed duplicates
    symmetrized. Labels are densified to [0, n); the sorted original
    labels become id_map unless one is supplied (then labels are taken
    as already-dense indices into it).

    Labels in [0, 2E) are densified through a table of the labels seen:
    its nonzero positions are id_map, and a label's dense id is its
    position there. Wider labels (64-bit ids, say) are argsorted, which
    gives the same arrays.

    One sort of the 1-D key u*n + v over both directions of every edge
    dedups the edges and yields the CSR arrays (_from_keys). u*n + v < n**2
    fits int64 for any n < 3e9.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if id_map is None:
        flat = edges.ravel()
        top = flat.max(initial=-1)
        if flat.min(initial=0) >= 0 and top < len(flat):
            seen = np.zeros(top + 1, dtype=bool)
            seen[flat] = True
            id_map = np.flatnonzero(seen)
            rank = np.empty(top + 1, dtype=np.int64)  # read only at seen labels
            rank[id_map] = np.arange(len(id_map))
            dense = rank[flat]
        else:
            order = np.argsort(flat)
            starts = _run_starts(flat[order])
            id_map = flat[order[starts]]
            dense = np.empty_like(flat)
            dense[order] = np.cumsum(starts) - 1
        n = len(id_map)
        edges = dense.reshape(-1, 2)
    else:
        id_map = np.asarray(id_map)
        n = len(id_map)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint outside [0, n)")

    u, v = edges[:, 0], edges[:, 1]
    not_loop = u != v
    u, v = u[not_loop], v[not_loop]
    if len(u) == 0 and n == 0:
        raise EmptyGraphError("no edges remain after preprocessing")
    key = np.concatenate([u * n + v, v * n + u])
    key.sort()
    return _from_keys(key[_run_starts(key)], n, id_map)


def _from_keys(key: np.ndarray, n: int, id_map: np.ndarray) -> Graph:
    """The Graph whose adjacency is the sorted distinct int64 keys row*n + col of
    both directions of every edge; key becomes its indices."""
    indptr = np.searchsorted(key, np.arange(n + 1) * n)
    key -= np.repeat(np.arange(n) * n, np.diff(indptr))
    return Graph(n=n, m=len(key) // 2, indptr=indptr, indices=key, id_map=id_map)


def components(g: Graph) -> tuple[int, np.ndarray]:
    """(count, label of each vertex) of g's connected components: scipy's strong components
    of the symmetric rows, found without the transpose its undirected pass adds."""
    adj = csr_matrix((np.broadcast_to(1.0, len(g.indices)), g.indices, g.indptr),
                     shape=(g.n, g.n))
    return connected_components(adj, directed=True, connection="strong")


def restrict_to_lcc(g: Graph) -> Graph:
    """
    Largest connected component, relabeled densely; id_map composed. Its
    CSR rows are kept: no edge leaves a component and the renumbering
    keeps order, so each row stays sorted.
    """
    ncomp, comp = components(g)
    if ncomp == 1:
        return g
    keep = comp == np.argmax(np.bincount(comp, minlength=ncomp))
    remap = np.cumsum(keep) - 1
    indices = remap[g.indices[np.repeat(keep, g.degrees)]]
    degrees = g.degrees[keep]
    indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return Graph(n=len(degrees), m=len(indices) // 2, indptr=indptr,
                 indices=indices, id_map=g.id_map[keep])


def _numpy_may_parse(data: bytes) -> bool:
    """Whether np.loadtxt(comments="#") reads data as the line scan would: data is
    ASCII, with only whitespace before each line's first '#'."""
    if not data.isascii():
        return False
    last = data.rfind(b"#")
    return last < 0 or not _HASH_AFTER_DATA.search(data[last::-1])  # backwards from it


def _numpy_rows(source) -> np.ndarray | None:
    """(E, 2) int64 rows of source (a path or lines) from one np.loadtxt call, or None where
    the line scan must decide (not two columns of integers in [0, 2**63))."""
    with warnings.catch_warnings():  # a file without rows is the caller's EmptyGraphError
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            rows = np.loadtxt(source, dtype=np.int64, comments="#", ndmin=2)
        except ValueError:
            return None
    return rows if rows.shape[1] == 2 and not (rows < 0).any() else None


def _line_blocks(path):
    """(lines, number of the first) per block of the file, bytes not UTF-8 as lone surrogates."""
    lineno = 1
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        while lines := fh.readlines(_PARSE_BLOCK_CHARS):
            yield lines, lineno
            lineno += len(lines)


def _block_rows(path, lines: list[str], lineno: int) -> np.ndarray:
    """
    (E, 2) int64 rows of a block of lines, the first being line ``lineno``:
    from numpy's C reader where the one-pass rule lets it (not for non-ASCII:
    numpy 2.4 reads U+01FE then "1" as 4621), else from a line scan that names
    the first bad line: a malformed row, or any line with a byte that is not
    UTF-8 (decoded to a lone surrogate, shown as a \\x escape).
    """
    text = "".join(lines)  # isascii first: encode() raises on a lone surrogate
    if text.isascii() and _numpy_may_parse(text.encode()) \
            and (rows := _numpy_rows(lines)) is not None:
        return rows
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.split()
        # a byte that is not UTF-8 fails int() in a row; a comment line is searched
        if (not parts or parts[0].startswith("#")) and not _UNDECODED.search(line):
            continue
        try:
            u, v = map(int, parts)  # ValueError unless two integer tokens
        except ValueError:
            u = v = -1
        if not (0 <= u <= _INT64_MAX and 0 <= v <= _INT64_MAX):
            raise EdgeListParseError(path, lineno, line.rstrip("\n").encode(
                errors="surrogateescape").decode(errors="backslashreplace"))
        rows.append((u, v))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _file_rows(path) -> np.ndarray | None:
    """
    (E, 2) int64 rows of the whole file from one np.loadtxt call, or None
    where the block reader must decide (any non-ASCII file, so that a file
    and a pipe name the same first bad line). A pipe can be read only once,
    so only a regular file takes this path.
    """
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    if not _numpy_may_parse(data):
        return None
    del data
    path = os.fsdecode(os.path.abspath(path))  # numpy reads a str with a scheme as a URL
    return None if path.endswith(_COMPRESSED) else _numpy_rows(path)


def load_edge_list(path, lcc: bool = True) -> Graph:
    """
    Load a whitespace-separated "u v" edge list ('#' lines are comments) in
    UTF-8. Multiple edges, self loops and edge directions are collapsed to a
    simple undirected graph; with lcc=True (the default for file input) the
    graph is restricted to its largest connected component.

    An ASCII regular file is parsed in one pass by numpy's C reader. A file
    that pass rejects (or holds a negative label, a non-ASCII character or a
    '#' after data) is read again, and a pipe is read, in blocks of lines
    (_block_rows), whose line scan names the first bad line in
    EdgeListParseError: a malformed row or a line that is not UTF-8, the same
    line for a regular file and a pipe.
    """
    edges = _file_rows(path)
    if edges is None:
        edges = np.concatenate([np.empty((0, 2), dtype=np.int64)]
                               + [_block_rows(path, *block) for block in _line_blocks(path)])
    if len(edges) == 0:
        raise EmptyGraphError(f"{path}: no edges found")
    g = from_edges(edges)
    if g.m == 0:
        raise EmptyGraphError(f"{path}: empty graph after preprocessing")
    if lcc:
        g = restrict_to_lcc(g)
    return g


def save_edge_list(g: Graph, path) -> None:
    """Write one "u v" line per edge, in original labels."""
    edges = g.id_map[g.edge_array()]
    with open(path, "w") as fh:
        fh.writelines(f"{u} {v}\n"
                      for u, v in zip(edges[:, 0].tolist(), edges[:, 1].tolist()))
