"""Unit disk graph construction and centralized graph queries.

The graph is the only thing the distributed layer may read (adjacency and
IDs); node positions are kept purely for oracle-side verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


@dataclass
class DegreeHistogram:
    bin_count: int
    counts: np.ndarray  # length bin_count, sums to n
    delta: int  # max degree


class UnitDiskGraph:
    """Immutable unit disk graph over unique positive node IDs.

    IDs are usually a seeded permutation of 1..n but gaps are allowed;
    ID-indexed arrays are sized max_id + 1.  Adjacency is stored CSR-style
    indexed by ID; rows are ascending.  `positions` exists for oracles only
    -- protocol code must not read it.
    """

    def __init__(self, ids: np.ndarray, xy: np.ndarray, R: float,
                 indptr: np.ndarray, indices: np.ndarray):
        self.n = len(ids)
        self.R = R
        self.ids = ids  # sorted
        self.max_id = int(ids[-1])
        self.positions = xy  # row v = position of node id v
        self.indptr = indptr
        self.indices = indices
        self._id_list: list[int] | None = None

    @property
    def id_list(self) -> list[int]:
        if self._id_list is None:
            self._id_list = self.ids.tolist()
        return self._id_list

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of node v at index v (0 at unused IDs)."""
        return np.diff(self.indptr)

    def edge_count(self) -> int:
        return len(self.indices) // 2


def build_udg(positions: tuple[np.ndarray, np.ndarray], R: float = 1.0) -> UnitDiskGraph:
    """Build the unit disk graph: u ~ v iff ||p(u) - p(v)|| <= R (inclusive).

    `positions` is a pair (ids, xy_array).  Grid bucketing with cells of
    side about R finds the candidate pairs; each directed edge is packed as
    rank(u) * n + rank(v), with ranks in ID order, and one sort of these
    keys gives the CSR rows: O(E log E) for E edges.  The result is
    independent of input order (rows are ascending).
    """
    ids, xy = positions
    ids = np.asarray(ids, dtype=np.int64)
    by_id = np.argsort(ids)
    ids, xy = ids[by_id], np.asarray(xy, dtype=float)[by_id]  # row index = rank
    n = len(ids)
    if n < 1 or ids[0] < 1 or (ids[1:] == ids[:-1]).any():
        raise ValueError("node IDs must be unique positive integers")
    m = int(ids[-1])

    # cells a hair wider than R: a pair whose rounded distance is R may be
    # a little more than R apart, and must still fall in adjacent cells
    cell = np.floor(xy / (R * (1 + 1e-9))).astype(np.int64)
    cell -= cell.min(axis=0)
    stride = int(cell[:, 1].max()) + 2
    key = cell[:, 0] * stride + cell[:, 1]
    order = np.argsort(key, kind="stable")
    skey = key[order]
    starts = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
    bounds = np.r_[starts, len(skey)]
    cell_of = {int(skey[s]): (int(s), int(e)) for s, e in zip(starts, bounds[1:])}

    R2 = R * R
    packed: list[np.ndarray] = []

    def link(rows_a: np.ndarray, rows_b: np.ndarray, same: bool) -> None:
        pa, pb = xy[rows_a], xy[rows_b]
        dx = pa[:, 0, None] - pb[None, :, 0]
        dy = pa[:, 1, None] - pb[None, :, 1]
        hit = dx * dx + dy * dy <= R2
        if same:
            hit &= np.tri(len(rows_a), k=-1, dtype=bool)
        ai, bi = np.nonzero(hit)
        if len(ai):
            ra, rb = rows_a[ai], rows_b[bi]
            packed.append(ra * n + rb)
            packed.append(rb * n + ra)

    # half-neighborhood offsets cover each cell pair exactly once
    offsets = ((0, 1), (1, -1), (1, 0), (1, 1))
    for k, (s, e) in cell_of.items():
        rows = order[s:e]
        link(rows, rows, same=True)
        for ox, oy in offsets:
            nb = cell_of.get(k + ox * stride + oy)
            if nb is not None:
                link(rows, order[nb[0]:nb[1]], same=False)

    # keys are below n * n, which fits in int64 up to n = 3e9; the pairs are
    # distinct, so a plain sort orders the rows and each row's neighbours
    edges = np.concatenate(packed) if packed else np.empty(0, dtype=np.int64)
    packed.clear()
    edges.sort()
    indptr = np.zeros(m + 2, dtype=np.int64)
    indptr[ids + 1] = np.bincount(edges // n, minlength=n)
    np.cumsum(indptr, out=indptr)
    np.remainder(edges, n, out=edges)  # each key's column rank, in place

    pos = np.zeros((m + 1, 2))
    pos[ids] = xy
    return UnitDiskGraph(ids=ids, xy=pos, R=R, indptr=indptr, indices=ids[edges])


def csr_rows(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of the adjacency rows of `nodes`, concatenated, and
    the length of each row."""
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lens), lens), lens


def has_edges(g: UnitDiskGraph, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether b[i] is a neighbour of node a[i]: a binary search of each
    sorted row at once."""
    if not len(g.indices):
        return np.zeros(len(a), dtype=bool)
    lo, end = g.indptr[a], g.indptr[a + 1]
    hi = end.copy()
    last = len(g.indices) - 1
    while (live := lo < hi).any():
        mid = (lo + hi) // 2
        right = live & (g.indices[np.minimum(mid, last)] < b)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(live & ~right, mid, hi)
    return (lo < end) & (g.indices[np.minimum(lo, last)] == b)


def degree_bin(d, delta: int, bin_count: int):
    """Quantization bin of degree d (an int or an integer array) over
    [0, delta]; last bin closed."""
    if delta <= 0:
        return d * 0
    return np.minimum(d * bin_count // delta, bin_count - 1)


def histogram(g: UnitDiskGraph, bin_count: int = 64) -> DegreeHistogram:
    """Degree census quantized into bin_count equal bins over [0, delta]."""
    if bin_count < 16:
        raise ValueError("bin_count must be >= 16")
    deg = g.degrees()[g.ids]
    delta = int(deg.max())
    if delta == 0:
        counts = np.zeros(bin_count, dtype=np.int64)
        counts[0] = g.n
        return DegreeHistogram(bin_count, counts, 0)
    counts = np.bincount(degree_bin(deg.astype(np.int64), delta, bin_count),
                         minlength=bin_count)
    return DegreeHistogram(bin_count, counts, delta)


def histogram_from_counts(counts: Iterable[int], delta: int) -> DegreeHistogram:
    c = np.asarray(list(counts), dtype=np.int64)
    return DegreeHistogram(len(c), c, delta)


def hop_bfs(g: UnitDiskGraph, sources: Iterable[int]) -> np.ndarray:
    """Multi-source BFS hop counts, indexed by ID; unreachable = inf."""
    src = [int(s) for s in sources]
    if not src:
        raise ValueError("sources must be non-empty")
    dist = np.full(g.max_id + 1, np.inf)
    dist[0] = np.nan
    frontier = np.unique(np.array(src, dtype=np.int64))
    dist[frontier] = 0.0
    d = 0
    while len(frontier):
        d += 1
        cand = g.indices[csr_rows(g.indptr, frontier)[0]]
        nxt = np.unique(cand[np.isinf(dist[cand])])
        dist[nxt] = d
        frontier = nxt
    return dist


def is_connected(g: UnitDiskGraph) -> bool:
    if g.n <= 1:
        return True
    dist = hop_bfs(g, [int(g.ids[0])])
    return bool(np.isfinite(dist[g.ids]).all())


def component_count(g: UnitDiskGraph) -> int:
    """Number of connected components; an isolated node is one."""
    size = g.max_id + 1
    adj = csr_matrix((np.ones(len(g.indices), dtype=np.int8), g.indices, g.indptr),
                     shape=(size, size))
    k, _ = connected_components(adj, directed=False)
    return k - (size - g.n)  # every unused ID is an isolated vertex of adj

