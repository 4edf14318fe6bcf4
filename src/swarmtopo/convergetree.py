"""Distributed bootstrap: leader election, spanning tree, and tree-based
aggregation and broadcast.

The tree is built by a max-ID extrema flood.  Termination is detected
in-protocol (the paper's point of using a tree): a node sends its subtree
report up once every neighbor has announced the same root and all of its
children have reported; the root then floods DONE down, so every node
learns both n and the completion round.  Global values then travel on the
tree: `aggregate` convergecasts them up it, and `broadcast_down` sends the
root's value back down it, re-sent only by nodes with children.

All three protocols run as array round kernels (`simkernel.RoundKernel`):
each round is a few numpy gathers and scatter reductions (`ufunc.at`)
over the CSR rows of the nodes that broadcast, driven by
`simkernel.run_protocol` under its delivery, cost and trace contract.
The tree settles its STATE deliveries a bounded number at a time, and
tests "every neighbour announces my root" on a running sum of the roots
each node's neighbours announced, never by rescanning adjacency rows.

The finished tree is `TreeBuild`: the kernel's ID-indexed arrays (parent,
subtree size, learned n, completion round) and the root.  `aggregate`,
`broadcast_down` and `check_tree` read these arrays.  `TreeBuild.states`
is a view over them that builds a node's `TreeState`, with its children,
only when that node is read; perfbench's tree checks read it.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .netgraph import UnitDiskGraph, csr_rows, has_edges, hop_bfs
from .simkernel import CHUNK, Kind, RoundKernel, RunResult, run_protocol

K_STATE = Kind(1, ("root", "parent"))   # flood announcement, doubles as join notice
K_REPORT = Kind(2, ("root", "size"))    # convergecast: subtree size under `root`
K_DONE = Kind(3, ("root", "n"))         # root's completion flood down the tree
K_AGG = Kind(4, ("value",))             # aggregation convergecast of a scalar
K_AGG_HIST = Kind(4, ("lo",), ("count",))  # a histogram row's window lo..hi of bins
K_VAL = Kind(5, (), ("value",))         # a value broadcast down the tree


class AggOp(enum.Enum):
    MAX = "max"
    HISTOGRAM_MERGE = "histogram_merge"


@dataclass(frozen=True)
class TreeState:
    root_id: int
    parent: int | None
    children: tuple[int, ...]
    subtree_size: int
    n_total: int
    completion_round: int


@dataclass
class TreeBuild:
    """The tree as the kernel leaves it, in ID-indexed arrays: `parent` (0
    at the root and at unused IDs), `subtree` (v's subtree size at its
    report), `n_total` (the n that v learned) and `completion` (the round
    v completed in, -1 at unused IDs)."""
    parent: np.ndarray
    subtree: np.ndarray
    n_total: np.ndarray
    completion: np.ndarray
    root_id: int
    result: RunResult

    @functools.cached_property
    def states(self) -> "TreeStates":
        """A read-only view of the tree: one TreeState per ID."""
        return TreeStates(self)


class TreeStates(Sequence):
    """`TreeBuild.states`: item v is node v's TreeState, built when read
    (None at index 0 and unused IDs).  v's children, ascending, are the
    IDs naming v as parent, from one argsort of `parent` made on the
    first read."""

    def __init__(self, build: TreeBuild):
        self._tree = (build.parent, build.subtree, build.n_total, build.completion)
        self._root_id = build.root_id
        self._kids: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._tree[0])

    def __getitem__(self, v: int) -> TreeState | None:
        parent, subtree, n_total, completion = self._tree
        if completion[v] < 0:
            return None
        if self._kids is None:
            self._kids = (np.argsort(parent, kind="stable"),
                          np.cumsum(np.bincount(parent, minlength=len(parent))))
        kids, ptr = self._kids
        return TreeState(root_id=self._root_id, parent=int(parent[v]) or None,
                         children=tuple(kids[ptr[v - 1]:ptr[v]].tolist()),
                         subtree_size=int(subtree[v]), n_total=int(n_total[v]),
                         completion_round=int(completion[v]))


class _TreeRounds(RoundKernel):
    """The tree protocol as a synchronous round kernel over the CSR arrays.

    A round takes the messages broadcast in the previous one, per kind as
    (senders ascending, field, field), runs every node that received one
    and returns the round's own broadcasts.  Nodes read one another only
    through what was broadcast: the last STATE and REPORT heard from each
    sender (`said_*` and `rep_*`, recorded as the round's deliveries are
    settled) and `nbsum`, the sum of the roots v's neighbours last
    announced, which moves by each STATE sender's new root minus its old.

    The rules, per receiving node v, in inbox order (sender, kind), from
    round 1 on (round 0 is `_first_round`):
    STATE (root, parent): adopt the largest announced root above v's own,
    with the smallest sender announcing it as parent, and announce it.
    STATE deliveries are settled a bounded number at a time (`pieces`).
    DONE (root, n): taken once, from the smallest sender whose root equals
    v's root before this round; forwarded only by a node with children.
    REPORT (root, size): once every neighbour announces v's root and every
    neighbour naming v as parent has reported under it, v reports its
    subtree size under that root (again on every new root).  A root that
    reports is complete and starts the DONE flood down its tree.

    No neighbour ever announces a root above v's own (round 0 takes the
    largest ID of the closed neighbourhood, later rounds the largest root
    heard), so every neighbour announces root[v] exactly when
    nbsum[v] == deg(v) * root[v].  The rule's inputs change only at a node
    that hears a STATE or a child's REPORT, so checking every node not yet
    done each round finds the nodes that report.
    """

    def __init__(self, g: UnitDiskGraph):
        super().__init__(g)
        size = self.size
        # each node's own state
        self.root = np.arange(size, dtype=np.int64)
        self.parent = np.zeros(size, dtype=np.int64)
        self.reported = np.zeros(size, dtype=np.int64)  # root of the last report
        self.subtree = np.ones(size, dtype=np.int64)
        self.n_children = np.zeros(size, dtype=np.int64)  # at v's last report
        self.done = np.zeros(size, dtype=bool)
        self.n_total = np.zeros(size, dtype=np.int64)
        self.completion = np.full(size, -1, dtype=np.int64)
        # the last STATE and REPORT heard from each node; a node that has
        # announced nothing is read as its own root
        self.said_root = np.arange(size, dtype=np.int64)
        self.said_parent = np.zeros(size, dtype=np.int64)
        self.rep_root = np.zeros(size, dtype=np.int64)
        self.rep_size = np.zeros(size, dtype=np.int64)
        self.deg = self.degree(self.ids)
        self.nbsum = np.zeros(size, dtype=np.int64)
        rows = self.ids[self.deg > 0]
        if len(rows):  # rows between two of these are empty
            self.nbsum[rows] = np.add.reduceat(self.indices, self.indptr[rows])
        self.msgs: dict = {}

    def step(self, rnd: int) -> list:
        msgs = self._first_round() if rnd == 0 else self._settle(rnd, self.msgs)
        self.msgs = {k: m for k, m in msgs.items() if len(m[0])}
        return [(k, m[0]) for k, m in self.msgs.items()]

    def _first_round(self) -> dict:
        """Round 0: a node knows its neighbours' IDs, so it adopts the
        largest ID of its closed neighbourhood as its root, with that
        neighbour as parent, and announces it.  A node that is that largest
        ID stays silent; its neighbours read its root as its ID.  Every node
        waits on a timer into round 1, where the report rule is first
        checked.  A node without neighbours has heard them all and completes
        at once as its own root."""
        ids, deg = self.ids, self.deg
        lone = ids[deg == 0]
        self.reported[lone] = lone
        self.done[lone] = True
        self.completion[lone] = 0
        self.n_total[lone] = 1
        talk = ids[deg > 0]
        top = self.indices[self.indptr[talk + 1] - 1]  # rows ascend: the largest neighbour
        new, top = talk[top > talk], top[top > talk]
        self.root[new] = self.parent[new] = top
        self.wake = talk
        return {K_STATE: (new, top, top)}

    def _settle(self, rnd: int, msgs: dict) -> dict:
        root, done, parent = self.root, self.done, self.parent
        out = {}
        done_out = []
        self.wake = self.wake[:0]
        if K_REPORT in msgs:
            s, r, n = msgs[K_REPORT]
            self.rep_root[s] = r
            self.rep_size[s] = n

        if K_DONE in msgs:
            s, r, n = msgs[K_DONE]
            v, lens = self.receivers(s)
            k = np.repeat(np.arange(len(s)), lens)
            take = np.flatnonzero(~done[v] & (r[k] == root[v]))
            v, k = v[take], k[take]
            # deliveries run in sender order, so a receiver's smallest
            # position is its smallest sender; the completion row of a node
            # taking DONE is free until this round, so it holds that minimum
            at = np.arange(len(v))
            self.completion[v] = len(v)
            np.minimum.at(self.completion, v, at)
            first = np.flatnonzero(self.completion[v] == at)
            v, k = v[first], k[first]
            done[v] = True
            self.completion[v] = rnd
            self.n_total[v] = n[k]
            fwd = self.n_children[v] > 0
            done_out.append((v[fwd], r[k][fwd], n[k][fwd]))

        if K_STATE in msgs:
            s, r, p = msgs[K_STATE]
            delta = r - self.said_root[s]
            self.said_root[s] = r
            self.said_parent[s] = p
            cand = []
            for piece in self.pieces(s):
                v, lens = self.receivers(s[piece])
                np.add.at(self.nbsum, v, np.repeat(delta[piece], lens))
                # a root above v's own; pieces run in sender order, so one
                # that an earlier piece's equal root beat is not the winner
                rk = np.repeat(r[piece], lens)
                up = np.flatnonzero(rk > root[v])
                v, rk = v[up], rk[up]
                np.maximum.at(root, v, rk)
                # the sender of each such delivery, by its position
                cand.append((v, np.searchsorted(np.cumsum(lens), up, side="right") + piece.start))
            v, k = (np.concatenate(x) for x in zip(*cand))
            win = np.flatnonzero(r[k] == root[v])
            v, s_win = v[win], s[k[win]]
            # the smallest sender announcing the new root is the parent; a
            # sender delivers to v once, so exactly one delivery matches it
            parent[v] = self.size
            np.minimum.at(parent, v, s_win)
            new = np.sort(v[s_win == parent[v]])
            out[K_STATE] = (new, root[new], parent[new])

        # a node with a child that has not reported under the child's root
        # fails the rule whatever that root is
        ids, said, kid_of = self.ids, self.said_root, self.said_parent[self.ids]
        waiting = np.bincount(kid_of, weights=self.rep_root[ids] != said[ids], minlength=self.size)
        rep = ids[~done[ids] & (self.reported[ids] != root[ids]) & (waiting[ids] == 0)
                  & (self.nbsum[ids] == self.deg * root[ids])]
        if len(rep):
            # every child has reported; the children are every node naming v
            self.n_children[rep] = np.bincount(kid_of, minlength=self.size)[rep]
            sizes = 1 + np.bincount(kid_of, weights=self.rep_size[ids],
                                    minlength=self.size)[rep].astype(np.int64)
            self.subtree[rep] = sizes
            self.reported[rep] = root[rep]
            is_root = root[rep] == rep
            top, top_n = rep[is_root], sizes[is_root]
            done[top] = True
            self.completion[top] = rnd
            self.n_total[top] = top_n
            flood = self.n_children[top] > 0
            done_out.append((top[flood], top[flood], top_n[flood]))
            up = ~is_root
            out[K_REPORT] = (rep[up], root[rep[up]], sizes[up])

        if done_out:
            s = np.concatenate([d[0] for d in done_out])
            order = np.argsort(s)  # a node sends DONE once
            out[K_DONE] = tuple(np.concatenate([d[i] for d in done_out])[order]
                                for i in range(3))
        return out

    def state_name(self, v: int) -> str:
        return f"tree(root={self.root[v]},reported={bool(self.reported[v] == self.root[v])})"


def build_tree(g: UnitDiskGraph, max_rounds: int = 100_000,
               trace=None) -> TreeBuild:
    """Elect the max-ID node and build its spanning tree over the whole graph.

    Runs the round kernel `_TreeRounds` on `simkernel.run_protocol`.
    Disconnected input surfaces as a multi-root failure after quiescence.
    """
    kernel = _TreeRounds(g)
    result = run_protocol(kernel, max_rounds, trace)
    ids = g.ids
    undone = ids[~kernel.done[ids]]
    if len(undone):
        raise RuntimeError(f"tree build ended without completion at node {undone[0]}")
    roots = ids[kernel.parent[ids] == 0]
    short = roots[kernel.n_total[roots] != g.n]
    if len(short):
        raise RuntimeError(f"root {short[0]} spans {kernel.n_total[short[0]]} of {g.n} "
                           f"nodes: graph disconnected")
    return TreeBuild(parent=kernel.parent, subtree=kernel.subtree, n_total=kernel.n_total,
                     completion=kernel.completion, root_id=int(roots[-1]), result=result)


def central_tree(g: UnitDiskGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centralized twin of build_tree on a connected graph: a BFS from the
    largest ID, in which each node's parent is its smallest neighbour one
    layer up (the largest root reaches a node first from that layer, and
    the smallest sender wins).  Returns the ID-indexed parent (0 at the
    root), subtree size and n arrays, 0 at unused IDs."""
    size = g.max_id + 1
    dist = hop_bfs(g, [g.max_id])
    if not np.isfinite(dist[g.ids]).all():
        raise ValueError("graph disconnected")
    src = np.repeat(np.arange(size), g.degrees())
    up = dist[g.indices] == dist[src] - 1
    # rows ascend, so each node's first neighbour one layer up is the smallest
    kid, first = np.unique(src[up], return_index=True)
    parent = np.zeros(size, dtype=np.int64)
    parent[kid] = g.indices[up][first]
    subtree = np.zeros(size, dtype=np.int64)
    subtree[g.ids] = 1
    for d in range(int(dist[g.ids].max()), 0, -1):
        layer = g.ids[dist[g.ids] == d]
        np.add.at(subtree, parent[layer], subtree[layer])
    n_total = np.zeros(size, dtype=np.int64)
    n_total[g.ids] = g.n
    return parent, subtree, n_total


def _agg_inputs(g: UnitDiskGraph, op: AggOp, values: np.ndarray, bins: int) -> np.ndarray:
    """The kernel's accumulator, an ID-indexed int64 array with one column
    per field, built once from the ID-indexed integer array `values`: for
    MAX its scalars, for HISTOGRAM_MERGE a row of `bins` counts holding a 1
    in each node's bin.  The rows of unused IDs hold what `values` holds
    there, or zeros for HISTOGRAM_MERGE: no kernel reads them."""
    hist = op is AggOp.HISTOGRAM_MERGE
    ok = (isinstance(values, np.ndarray) and values.ndim == 1
          and values.dtype.kind in "biu" and len(values) > g.max_id)
    if ok:
        own = values[g.ids]
        ok = (0 <= own.min() and own.max() < bins if hist else
              values.dtype.kind != "u" or own.max() <= np.iinfo(np.int64).max)
    if not ok:
        what = f"bin indices in [0, {bins})" if hist else "scalars within int64"
        raise ValueError(f"{op.value} takes ID-indexed integer {what}")
    if not hist:
        return values[:g.max_id + 1].astype(np.int64)[:, None]
    acc = np.zeros((g.max_id + 1, bins), dtype=np.int64)
    acc[g.ids, own] = 1
    return acc


def _tree_links(g: UnitDiskGraph, parent: np.ndarray) -> np.ndarray:
    """ID-indexed: v's parent where the tree edge is a graph edge, so that
    each hears the other's broadcasts; 0 at the root, at a node whose
    parent is not a neighbour, and at unused IDs."""
    kid = g.ids[parent[g.ids] != 0]
    kid = kid[has_edges(g, parent[kid], kid)]
    link = np.zeros(len(parent), dtype=np.int64)
    link[kid] = parent[kid]
    return link


def _row_slices(count: int, cols: int) -> list[slice]:
    """[0, count) cut into slices of about CHUNK elements of `cols`-wide
    rows, so that a step copies a bounded number of rows at a time."""
    step = max(1, CHUNK // cols)
    return [slice(i, i + step) for i in range(0, count, step)]


def _window_widths(acc: np.ndarray, senders: np.ndarray) -> np.ndarray:
    """The bins hi - lo + 1 of each sender's histogram message, the window
    of its row of `acc` from its first nonzero bin lo to its last nonzero
    bin hi.  A sender's row counts at least its own bin."""
    widths = np.empty(len(senders), dtype=np.int64)
    for sl in _row_slices(len(senders), acc.shape[1]):
        nz = acc[senders[sl]] != 0
        lo = nz.argmax(axis=1)
        hi = nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
        widths[sl] = 1 + hi - lo
    return widths


def _scatter_rows(ufunc, dest: np.ndarray, rows: np.ndarray, src: np.ndarray) -> None:
    """`ufunc.at` of row `src[i]` of the C-contiguous `dest` into its row
    `rows[i]`, element by element through its flat view: a 1-D `ufunc.at`
    is several times faster than one over whole rows.  No row is both read
    and written."""
    cols = dest.shape[1]
    flat = dest.reshape(-1)
    for sl in _row_slices(len(rows), cols):
        at = (rows[sl, None] * cols + np.arange(cols)).reshape(-1)
        ufunc.at(flat, at, dest[src[sl]].reshape(-1))


class _AggRounds(RoundKernel):
    """Convergecast: a node with a parent sends its combined value once
    every child has sent, a leaf in round 0.  A child is heard only over a
    graph edge; one that is not a neighbour leaves its parent pending for
    good.  A histogram row travels as its nonzero window."""

    def __init__(self, g: UnitDiskGraph, tree: TreeBuild, op: AggOp, values, bins: int):
        super().__init__(g)
        self.acc = _agg_inputs(g, op, values, bins)
        self.combine = np.maximum if op is AggOp.MAX else np.add
        self.windowed = op is AggOp.HISTOGRAM_MERGE
        parent = tree.parent
        self.has_parent = parent != 0
        self.pending = np.bincount(parent[self.ids], minlength=self.size)
        self.listener = _tree_links(g, parent)  # the parent that hears v, or 0
        self.sent = np.empty(0, dtype=np.int64)

    def waiting(self, senders: np.ndarray) -> np.ndarray:
        par = self.listener[senders]
        return par[par != 0]

    def step(self, rnd: int) -> list:
        if rnd == 0:
            ids = self.ids
            ready = ids[(self.pending[ids] == 0) & self.has_parent[ids]]
        else:
            par = self.listener[self.sent]
            heard = par != 0
            kid, par = self.sent[heard], par[heard]
            # each child's row scattered into its parent's; a parent
            # sends only after all its children, so never with one of them
            _scatter_rows(self.combine, self.acc, par, kid)
            np.subtract.at(self.pending, par, 1)
            par = par[self.pending[par] == 0]
            ready = np.unique(par[self.has_parent[par]])
        self.sent = ready
        if self.windowed:
            return [(K_AGG_HIST, ready, _window_widths(self.acc, ready))]
        return [(K_AGG, ready)]

    def state_name(self, v: int) -> str:
        return f"agg(pending={self.pending[v]})"


def aggregate(g: UnitDiskGraph, tree: TreeBuild, op: AggOp, values: np.ndarray,
              bins: int = 0, max_rounds: int = 100_000,
              trace=None) -> tuple[tuple, RunResult]:
    """Convergecast `values`, an ID-indexed integer array, up the tree;
    returns the root's combined value.

    MAX takes integer scalars within int64, sent as `K_AGG`.
    HISTOGRAM_MERGE takes each node's bin index in [0, bins) and returns
    the `bins` counts; a sender sends only the window of its merged row
    from its first to its last nonzero bin, as `K_AGG_HIST` (lo, c_lo,
    ..., c_hi).  Other inputs raise ValueError.
    """
    kernel = _AggRounds(g, tree, op, values, bins)
    res = run_protocol(kernel, max_rounds, trace)
    if (kernel.pending[g.ids] > 0).any():
        raise RuntimeError("aggregation did not complete")
    return tuple(kernel.acc[tree.root_id].tolist()), res


class _DownRounds(RoundKernel):
    """Broadcast down the tree: the root sends in round 0, and a node takes
    the value from its parent's broadcast, heard only over a graph edge.
    Only a node with at least one child re-broadcasts it, once, in the
    round it takes it; a leaf, or a root without children, sends nothing."""

    def __init__(self, g: UnitDiskGraph, tree: TreeBuild, width: int):
        super().__init__(g)
        self.width = width
        link = _tree_links(g, tree.parent)
        # the children that hear each parent, as a CSR pair by parent ID
        self.kids = np.argsort(link, kind="stable")
        self.kptr = np.r_[0, np.cumsum(np.bincount(link, minlength=self.size))]
        self.has_kids = np.bincount(tree.parent, minlength=self.size) > 0
        self.got = np.zeros(self.size, dtype=bool)
        self.got[tree.root_id] = True
        root = np.array([tree.root_id], dtype=np.int64)
        self.sent = root[self.has_kids[root]]

    def waiting(self, senders: np.ndarray) -> np.ndarray:
        return self.kids[csr_rows(self.kptr, senders)[0]]

    def step(self, rnd: int) -> list:
        if rnd:
            v = self.kids[csr_rows(self.kptr, self.sent)[0]]
            self.got[v] = True
            self.sent = np.sort(v[self.has_kids[v]])
        return [(K_VAL, self.sent, self.width)]

    def state_name(self, v: int) -> str:
        return f"flood(got={bool(self.got[v])})"


def broadcast_down(g: UnitDiskGraph, tree: TreeBuild, value: tuple,
                   max_rounds: int = 100_000, trace=None) -> tuple[list, RunResult]:
    """Broadcast a value down the tree from its root as `K_VAL`; each node
    with children re-broadcasts it once.
    Returns the value per ID, None where it did not arrive: unused IDs, and
    the subtree of a node whose parent is not its neighbour."""
    value = tuple(int(x) for x in value)
    kernel = _DownRounds(g, tree, len(value))
    res = run_protocol(kernel, max_rounds, trace)
    return [value if got else None for got in kernel.got.tolist()], res


def check_tree(g: UnitDiskGraph, build: TreeBuild) -> None:
    """Oracle-side sanity: one root, the largest ID; tree edges are graph
    edges; every node reaches the root; the root learned n; and the
    in-protocol completion round equals the driver's quiescence round."""
    ids, parent = g.ids, build.parent
    roots = ids[parent[ids] == 0]
    if len(roots) != 1:
        raise AssertionError(f"expected exactly one root, got {roots[:5].tolist()}")
    root = int(roots[0])
    if root != g.max_id:
        raise AssertionError("root is not the global max ID")
    kids = ids[parent[ids] != 0]
    if not has_edges(g, parent[kids], kids).all():
        raise AssertionError("tree edge is not a graph edge")
    # pointer doubling: after k squarings each node points 2**k steps up,
    # stopping at the root, so a node off the root's tree never reaches it
    up = parent.copy()
    up[root] = root
    for _ in range(g.n.bit_length()):
        up = up[up]
    spanned = int((up[ids] == root).sum())
    if spanned != g.n:
        raise AssertionError(f"tree spans {spanned} of {g.n} nodes")
    if build.subtree[root] != g.n or build.n_total[root] != g.n:
        raise AssertionError("root did not learn n")
    last_completion = int(build.completion[ids].max())
    if last_completion != build.result.rounds_used - 1:
        raise AssertionError(
            f"protocol completion round {last_completion} != driver "
            f"quiescence round {build.result.rounds_used - 1}"
        )
