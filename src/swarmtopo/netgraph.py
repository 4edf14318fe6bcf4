"""Unit disk graph construction and centralized graph queries.

The graph is the only thing the distributed layer may read (adjacency and
IDs); node positions are kept purely for oracle-side verification.  The
adjacency is CSR: an int64 `indptr` over IDs and an int32 `indices` of
neighbour IDs, so node IDs lie below 2**31.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

STRIP = 2048  # nodes per k-d tree in `build_udg`, in x order
ID_LIMIT = 1 << 31  # node IDs lie below this: `indices` holds them as int32


def _check_ids(ids: np.ndarray) -> None:
    """Raise ValueError unless the sorted `ids` are unique, positive and
    below ID_LIMIT; checked before any array over IDs is made."""
    if len(ids) < 1 or ids[0] < 1 or ids[-1] >= ID_LIMIT or (ids[1:] == ids[:-1]).any():
        raise ValueError(f"node IDs must be unique integers in [1, {ID_LIMIT})")


@dataclass
class DegreeHistogram:
    bin_count: int
    counts: np.ndarray  # length bin_count, sums to n
    delta: int  # max degree


class UnitDiskGraph:
    """Immutable unit disk graph over unique positive node IDs.

    IDs are usually a seeded permutation of 1..n but gaps are allowed, up
    to ID_LIMIT (2**31, excluded); ID-indexed arrays are sized max_id + 1.
    Adjacency is stored CSR-style indexed by ID, with int32 `indices`
    however the graph was built; rows are ascending.  `positions` exists
    for oracles only -- protocol code must not read it.
    """

    def __init__(self, ids: np.ndarray, xy: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray):
        _check_ids(ids)
        self.n = len(ids)
        self.ids = ids  # sorted
        self.max_id = int(ids[-1])
        self.positions = xy  # row v = position of node id v
        self.indptr = indptr
        self.indices = np.asarray(indices, dtype=np.int32)
        self._id_list: list[int] | None = None

    @property
    def id_list(self) -> list[int]:
        if self._id_list is None:
            self._id_list = self.ids.tolist()
        return self._id_list

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        """Degree of node v at index v (0 at unused IDs)."""
        return np.diff(self.indptr)

    def edge_count(self) -> int:
        return len(self.indices) // 2


def build_udg(positions: tuple[np.ndarray, np.ndarray], R: float = 1.0) -> UnitDiskGraph:
    """Build the unit disk graph: u ~ v iff ||p(u) - p(v)|| <= R (inclusive).

    `positions` is a pair (ids, xy_array).  The nodes, sorted by x, are cut
    into strips of STRIP nodes.  Each strip gets a k-d tree (scipy's
    `cKDTree`) over its own nodes and those at most R(1 + 1e-9) to the
    right of its last one; the tree's `query_pairs(R)` lists the pairs with
    dx*dx + dy*dy <= R*R, the rounded test of a brute-force comparison, and
    the strip keeps those whose left end (the earlier in x order) it holds.
    This is exact.  Every pair is kept once, by its left end's strip.  That
    strip's tree holds the right end too: it lies at most R to the right,
    or a hair more where the rounded distance is R, hence the 1e-9.  Small
    trees keep the memory of a query small.

    Each directed edge is packed as rank(u) * n + rank(v), with ranks in ID
    order: the strips keep their pairs' ranks as uint32, and the keys are
    uint32 when n * n fits, else int64.  One sort of these keys gives the
    CSR rows: O(E log E) for E edges.  The keys are sorted in the
    buffer of the int32 `indices`, which for int64 keys is made twice as
    long and cut back in place, so the build holds no second array of E
    keys.  The result is independent of input order (rows are ascending).
    IDs that are not unique, positive and below ID_LIMIT raise ValueError
    before any array over IDs is made.
    """
    ids, xy = positions
    ids = np.asarray(ids, dtype=np.int64)
    by_id = np.argsort(ids)
    ids, xy = ids[by_id], np.asarray(xy, dtype=float)[by_id]  # row index = rank
    _check_ids(ids)
    n = len(ids)
    m = int(ids[-1])

    key = np.uint32 if n * n <= 2**32 else np.int64  # keys are below n * n
    by_x = np.argsort(xy[:, 0], kind="stable")
    sxy = xy[by_x]  # x order: strip s is rows s..s + STRIP of sxy
    by_x = by_x.astype(np.uint32)  # ranks, below n < 2**31 whatever the key
    reach = R * (1 + 1e-9)
    ends: list[np.ndarray] = []  # per strip, (2, pairs) ranks of the two ends
    for s in range(0, n, STRIP):
        end = np.searchsorted(sxy[:, 0], sxy[min(s + STRIP, n) - 1, 0] + reach, side="right")
        pairs = cKDTree(sxy[s:end], balanced_tree=False).query_pairs(R, output_type="ndarray")
        pairs = pairs.compress(pairs[:, 0] < STRIP, axis=0)  # (i, j), i < j: left end here
        ends.append(by_x[s:end][pairs.T])

    # both directions' keys are written, and sorted, inside the buffer of
    # the int32 IDs that replace them, each strip's ranks freed once written
    E = sum(e.size for e in ends)
    indices = np.empty(E * (np.dtype(key).itemsize // 4), dtype=np.int32)
    keys = indices.view(key)
    at = 0
    while ends:
        ab = ends.pop()
        out = keys[at:at + ab.size].reshape(ab.shape)  # a * n + b, then b * n + a
        np.multiply(ab, key(n), out=out)
        out += ab[::-1]
        at += ab.size
        del out  # no view of the buffer may outlive `keys` (see the resize)
    # the pairs are distinct, so a plain sort orders the rows and each
    # row's neighbours; row r starts at its first key >= r * n
    keys.sort()
    starts = np.searchsorted(keys, np.arange(n, dtype=key) * key(n))
    indptr = np.zeros(m + 2, dtype=np.int64)
    indptr[ids + 1] = np.diff(starts, append=E)
    np.cumsum(indptr, out=indptr)
    # each key's column rank, a chunk at a time into an intp buffer, then
    # its ID; first chunk first: ID i overwrites the bytes of key i (uint32)
    # or of key i // 2 (int64), which no later chunk reads
    ids32 = ids.astype(np.int32)
    step = 1 << 16
    col = np.empty(min(E, step), dtype=np.intp)
    for lo in range(0, E, step):
        c = col[:min(step, E - lo)]
        np.remainder(keys[lo:lo + len(c)], key(n), out=c)
        np.take(ids32, c, out=indices[lo:lo + len(c)], mode="clip")
    del keys  # the last view: resize's realloc may move the buffer
    indices.resize(E, refcheck=False)  # int64 keys: the second half goes back in place

    pos = np.zeros((m + 1, 2))
    pos[ids] = xy
    return UnitDiskGraph(ids=ids, xy=pos, indptr=indptr, indices=indices)


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

