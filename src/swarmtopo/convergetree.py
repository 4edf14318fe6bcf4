"""Distributed bootstrap: leader election, spanning tree, and tree-based
aggregation and broadcast.

The tree is built by a max-ID extrema flood.  Termination is detected
in-protocol (the paper's point of using a tree): a node sends its subtree
report up once every neighbor has announced the same root and all of its
children have reported; the root then floods DONE down, so every node
learns both n and the completion round.  Global values then travel on the
tree: `aggregate` convergecasts them up it, and `broadcast_down` sends the
root's value back down it, re-sent only by nodes with children.  Both
take only a tree that spans the graph over graph edges, as TAG's
convergecast assumes, and raise `NotSpanningTree` on any other.

All three protocols run as array round kernels (`simkernel.RoundKernel`):
each round is a few numpy gathers and scatter reductions (`ufunc.at`)
over the CSR rows of the nodes that broadcast, driven by
`simkernel.run_protocol` under its delivery, cost and trace contract.
The tree tests "every neighbour announces my root" on a running sum of
the roots each node's neighbours announced, never by rescanning
adjacency rows.

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

from .netgraph import UnitDiskGraph, degree_bin, has_edges, hop_bfs
from .simkernel import CHUNK, Kind, RoundKernel, RunResult, first_hits, run_protocol

K_STATE = Kind("state", 1, ("root",), ("parent",))  # flood announcement, join notice; parent from round 1
K_REPORT = Kind("report", 2, (), ("size",))          # convergecast: subtree size, unless 1 (a leaf)
K_DONE = Kind("done", 3, ("n",))                     # root's completion flood down the tree
K_AGG = Kind("agg", 4, ("value",))                   # aggregation convergecast of a scalar
K_AGG_HIST = Kind("agg_hist", 4, ("lo",), ("count",))  # a histogram row's window lo..hi of bins
K_VAL = Kind("val", 5, (), ("value",))               # a value broadcast down the tree


class NotSpanningTree(ValueError):
    """A tree wave's tree has a non-graph edge or leaves nodes out (a cycle, a second root)."""


class GraphDisconnected(RuntimeError):
    """The deployment's unit disk graph falls apart into several components,
    so no protocol can reach every node."""

    def __init__(self, n: int, components: int):
        super().__init__(n, components)  # args rebuild it when pickled
        self.n = n
        self.components = components

    def __str__(self) -> str:
        return (f"the unit disk graph of {self.n} nodes has {self.components} "
                f"connected components; the protocols need one")


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

    A round takes the senders of each kind broadcast in the previous one,
    runs every node that received a message and returns the round's own
    senders.  A message's fields are read from its sender's rows, which no
    round rewrites before the next one reads them.  Nodes read one another
    only through what was broadcast: the last STATE heard from each sender
    (`said_*`, recorded as the round's deliveries are settled), a child's
    last REPORT (its `reported` and `subtree` rows) and `nbsum`, the sum
    of the roots v's neighbours last announced, which moves by each STATE
    sender's new root minus its old.

    The rules, per receiving node v, in inbox order (sender, kind), from
    round 1 on (round 0 is `_first_round`):
    STATE (root, parent): adopt the largest announced root above v's own,
    with the smallest sender announcing it as parent (`first_hits`), and
    announce it.  A round-0 STATE names no parent: there it is the root.
    DONE (n): taken from v's parent; forwarded only by a node with
    children.  The tree is a BFS tree from its root, so no neighbour's DONE
    reaches v before its parent's, and v already holds the root it names.
    REPORT (size): once every neighbour announces v's root and every
    neighbour naming v as parent has reported under it, v reports its
    subtree size under that root (again on every new root); a report
    without a size is a leaf's and counts 1.  The report is
    under the root v last announced: a STATE sent with it comes first in
    inbox order, so every neighbour holds that root as v's `said_root`.  A
    root that reports is complete and starts the DONE flood down its tree.

    No neighbour ever announces a root above v's own (round 0 takes the
    largest ID of the closed neighbourhood, later rounds the largest root
    heard), so every neighbour announces root[v] exactly when
    nbsum[v] == deg(v) * root[v].  The rule's inputs change only at a node
    that hears a STATE or a child's REPORT, so checking every node that
    has not reported under its root each round finds the nodes that
    report; a node that is done has reported under its final root.
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
        # the last STATE heard from each node; a node that has announced
        # nothing is read as its own root
        self.said_root = np.arange(size, dtype=np.int64)
        self.said_parent = np.zeros(size, dtype=np.int64)
        self.deg = self.degree(self.ids)
        self.nbsum = np.zeros(size, dtype=np.int64)
        # each row's sum in int64, about CHUNK entries at a time, so no
        # int64 copy of the whole of `indices` is made; rows between two
        # nonempty ones are empty
        rows = self.ids[self.deg > 0]
        lo = self.indptr[rows]
        cuts = [0, *np.searchsorted(lo, np.arange(CHUNK, len(self.indices), CHUNK)).tolist(),
                len(rows)]
        for a, b in zip(cuts, cuts[1:]):
            if a < b:
                piece = self.indices[lo[a]:self.indptr[rows[b - 1] + 1]].astype(np.int64)
                self.nbsum[rows[a:b]] = np.add.reduceat(piece, lo[a:b] - lo[a])
        self.msgs: dict = {}

    def step(self, rnd: int) -> list:
        msgs = self._first_round() if rnd == 0 else self._settle(rnd, self.msgs)
        self.msgs = {k: s for k, s in msgs.items() if len(s)}
        return [(k, s, self._repeats(k, s, rnd)) for k, s in self.msgs.items()]

    def _repeats(self, kind: Kind, s: np.ndarray, rnd: int):
        """How often each message of `kind` from senders `s` repeats the
        kind's group: a STATE names its parent from round 1 on, and a
        REPORT its size unless that is 1."""
        if kind is K_STATE:
            return int(rnd > 0)
        if kind is K_REPORT:
            return (self.subtree[s] > 1).astype(np.int64)
        return 0

    def _first_round(self) -> dict:
        """Round 0: a node knows its neighbours' IDs, so it adopts the
        largest ID of its closed neighbourhood as its root, with that
        neighbour as parent, and announces the root alone, which names the
        parent too.  A node that is that largest ID stays silent; its
        neighbours read its root as its ID.  Every node waits on a timer
        into round 1, where the report rule is first checked.  A node
        without neighbours has heard them all and completes at once as its
        own root."""
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
        return {K_STATE: new}

    def _settle(self, rnd: int, msgs: dict) -> dict:
        root, done, parent = self.root, self.done, self.parent
        out = {}
        done_out = []
        self.wake = self.wake[:0]
        if K_STATE in msgs:
            s = msgs[K_STATE]
            r = root[s]  # read before this round rewrites the senders' rows
            delta = r - self.said_root[s]
            self.said_root[s] = r
            self.said_parent[s] = parent[s]

            def above(v, r, delta, s):
                # a root above v's own; pieces run in sender order, so one
                # that an earlier piece's equal root beat is not the winner
                np.add.at(self.nbsum, v, delta)
                up = np.flatnonzero(r > root[v])
                np.maximum.at(root, v[up], r[up])
                return up

            v, r, _, s = self.deliveries(s, r, delta, s, keep=above)
            # the first sender announcing the new root is the parent; the
            # parent row of a node taking a new root is rewritten here
            win = np.flatnonzero(r == root[v])
            win = win[first_hits(v[win], parent)]
            parent[v[win]] = s[win]
            out[K_STATE] = np.sort(v[win])

        if K_DONE in msgs:
            s = msgs[K_DONE]
            v = self.deliveries(s, s, keep=lambda v, s: parent[v] == s)[0]
            done[v] = True
            self.completion[v] = rnd
            self.n_total[v] = self.n_total[parent[v]]
            done_out.append(v[self.n_children[v] > 0])

        # a node with a child that has not reported under the child's root
        # fails the rule whatever that root is
        ids, said, kid_of = self.ids, self.said_root, self.said_parent[self.ids]
        waiting = np.bincount(kid_of, weights=self.reported[ids] != said[ids], minlength=self.size)
        rep = ids[(self.reported[ids] != root[ids]) & (waiting[ids] == 0)
                  & (self.nbsum[ids] == self.deg * root[ids])]
        if len(rep):
            # every child has reported; the children are every node naming v
            self.n_children[rep] = np.bincount(kid_of, minlength=self.size)[rep]
            sizes = 1 + np.bincount(kid_of, weights=self.subtree[ids],
                                    minlength=self.size)[rep].astype(np.int64)
            self.subtree[rep] = sizes
            self.reported[rep] = root[rep]
            is_root = root[rep] == rep
            top = rep[is_root]
            done[top] = True
            self.completion[top] = rnd
            self.n_total[top] = self.subtree[top]
            done_out.append(top[self.n_children[top] > 0])
            out[K_REPORT] = rep[~is_root]

        if done_out:
            out[K_DONE] = np.sort(np.concatenate(done_out))  # a node sends DONE once
        return out

    def state_name(self, v: int) -> str:
        return f"tree(root={self.root[v]},reported={bool(self.reported[v] == self.root[v])})"


def build_tree(g: UnitDiskGraph, max_rounds: int = 100_000,
               trace=None) -> TreeBuild:
    """Elect the max-ID node and build its spanning tree over the whole graph.

    Runs the round kernel `_TreeRounds` on `simkernel.run_protocol`.  On a
    disconnected graph each component elects its own largest ID and
    completes, isolated nodes as their own roots, so the roots count the
    components, and `GraphDisconnected` reports them.
    """
    kernel = _TreeRounds(g)
    result = run_protocol(kernel, max_rounds, trace)
    ids = g.ids
    undone = ids[~kernel.done[ids]]
    if len(undone):
        raise RuntimeError(f"tree build ended without completion at node {undone[0]}")
    roots = ids[kernel.parent[ids] == 0]
    if len(roots) > 1:
        raise GraphDisconnected(g.n, len(roots))
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


def _agg_inputs(g: UnitDiskGraph, op: AggOp, values: np.ndarray,
                bins: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Each node's own entry in an accumulator row, read once from the
    ID-indexed integer array `values`: its column and its value, aligned
    with `g.ids`, and the row width.  MAX puts a node's scalar in the one
    column; HISTOGRAM_MERGE counts a 1 in the node's bin of `bins`
    columns, `degree_bin(value, delta, bins)` with delta the largest value."""
    hist = op is AggOp.HISTOGRAM_MERGE
    ok = (isinstance(values, np.ndarray) and values.ndim == 1
          and values.dtype.kind in "biu" and len(values) > g.max_id and (bins > 0 or not hist))
    if ok:
        own = values[g.ids]
        top = np.iinfo(np.int64).max // (bins if hist else 1)  # value * bins fits int64
        ok = own.max() <= top and (not hist or own.min() >= 0)
    if not ok:
        what = "values in [0, 2**63 / bins)" if hist else "scalars within int64"
        raise ValueError(f"{op.value} takes ID-indexed integer {what}")
    own = own.astype(np.int64)
    if hist:
        return degree_bin(own, int(own.max()), bins), np.ones_like(own), bins
    return np.zeros_like(own), own, 1


def _edges_in_graph(g: UnitDiskGraph, parent: np.ndarray) -> bool:
    """Whether each tree edge is a graph edge, so both its ends hear each other."""
    kids = g.ids[parent[g.ids] != 0]
    return bool(has_edges(g, parent[kids], kids).all())


def _run_wave(g: UnitDiskGraph, kernel, max_rounds: int, trace) -> RunResult:
    """Run tree wave `kernel` along its `parent` tree; `kernel.spanned(res)`
    counts the nodes it covered."""
    if not _edges_in_graph(g, kernel.parent):
        raise NotSpanningTree("tree edge is not a graph edge")
    res = run_protocol(kernel, max_rounds, trace)
    if (k := kernel.spanned(res)) != g.n:
        raise NotSpanningTree(f"tree spans {k} of {g.n} nodes")
    return res


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
    """Convergecast: a node with a parent sends its combined value, over a
    graph edge, once every child has sent.  A histogram row travels as its
    nonzero window.

    Only the nodes that combine, those with children and the root, keep an
    accumulator row (`acc`, by rank in the ascending `rows`), so its size
    follows the tree, not the IDs or the leaves.  Under MAX a leaf sends its
    own entry in round 0, which its parent combines into its row in round
    1.  Under HISTOGRAM_MERGE a leaf stays silent: its parent bins it (see
    `aggregate`) and folds that bin into its row in round 0, so a node
    whose children are all leaves sends in round 0.  A node with a row
    sends that row."""

    def __init__(self, g: UnitDiskGraph, tree: TreeBuild, op: AggOp, values, bins: int):
        super().__init__(g)
        col, val, cols = _agg_inputs(g, op, values, bins)
        self.combine = np.maximum if op is AggOp.MAX else np.add
        self.windowed = op is AggOp.HISTOGRAM_MERGE
        self.parent, self.root, ids = tree.parent, tree.root_id, self.ids
        self.pending = np.bincount(self.parent[ids], minlength=self.size)
        inner = (self.pending[ids] > 0) | (self.parent[ids] == 0)
        self.rows = ids[inner]
        self.acc = np.zeros((len(self.rows), cols), dtype=np.int64)
        self.acc[np.arange(len(self.rows)), col[inner]] = val[inner]
        self.leaves, self.leaf_col, self.leaf_val = ids[~inner], col[~inner], val[~inner]

    def row(self, v: np.ndarray) -> np.ndarray:
        """The accumulator rows of nodes with children, or of the root."""
        return np.searchsorted(self.rows, v)

    def waiting(self, senders: np.ndarray) -> np.ndarray:
        return self.parent[senders]

    def spanned(self, res: RunResult) -> int:
        """The nodes the wave covered: the root, every sender and every
        silent leaf whose parent sent or is the root.  A node with a parent
        sent once it held every child's value."""
        covered = res.ledger.total_broadcasts + 1
        if self.windowed:
            par = self.parent[self.leaves]
            sent = (self.pending[par] == 0) & (self.parent[par] != 0)
            covered += int(((par == self.root) | sent).sum())
        return covered

    def _take(self, kid: np.ndarray, leaves: bool) -> np.ndarray:
        """The parents of `kid` combine what they sent, a leaf its own entry
        and any other node its row; returns the parents, ascending, that now
        hold every child's value and send it on."""
        par = self.parent[kid]
        if leaves:
            i = np.searchsorted(self.leaves, kid)
            at = self.row(par) * self.acc.shape[1] + self.leaf_col[i]
            self.combine.at(self.acc.reshape(-1), at, self.leaf_val[i])
        else:
            # each child's row scattered into its parent's; a parent sends
            # only after all its children, so never with one of them
            _scatter_rows(self.combine, self.acc, self.row(par), self.row(kid))
        np.subtract.at(self.pending, par, 1)
        par = par[self.pending[par] == 0]
        return np.unique(par[self.parent[par] != 0])

    def step(self, rnd: int) -> list:
        if rnd == 0:
            ready = self._take(self.leaves, True) if self.windowed else self.leaves
        else:  # under MAX the leaves send in round 0 alone
            ready = self._take(self.sent, rnd == 1 and not self.windowed)
        self.sent = ready
        if not self.windowed:
            return [(K_AGG, ready)]
        return [(K_AGG_HIST, ready, _window_widths(self.acc, self.row(ready)))]

    def state_name(self, v: int) -> str:
        return f"agg(pending={self.pending[v]})"


def aggregate(g: UnitDiskGraph, tree: TreeBuild, op: AggOp, values: np.ndarray,
              bins: int = 0, max_rounds: int = 100_000,
              trace=None) -> tuple[tuple, RunResult]:
    """Convergecast `values`, an ID-indexed integer array, up the tree;
    returns the root's combined value.

    MAX takes integer scalars within int64, sent as `K_AGG`.
    HISTOGRAM_MERGE takes the values of a MAX convergecast over the same
    tree (each node's degree, in the pipeline) and returns the `bins`
    counts of their bins `netgraph.degree_bin(value, δ, bins)`, δ their
    maximum, which `broadcast_down` gave every node.  A sender sends only
    the window of its merged row from its first to its last nonzero bin,
    as `K_AGG_HIST` (lo, c_lo, ..., c_hi).  A parent heard each leaf
    child's value in the MAX convergecast and holds δ, so it bins its
    leaves itself, and leaves send nothing.  Other inputs raise
    ValueError; a tree that does not span the graph over graph edges
    raises `NotSpanningTree`.
    """
    kernel = _AggRounds(g, tree, op, values, bins)
    res = _run_wave(g, kernel, max_rounds, trace)
    return tuple(kernel.acc[kernel.row(tree.root_id)].tolist()), res


class _DownRounds(RoundKernel):
    """Broadcast down the tree: the root sends in round 0, and a node takes
    the value from its parent's broadcast.  Only a node with at least one
    child re-broadcasts it, once, in the round it takes it; a leaf, or a
    root without children, sends nothing."""

    def __init__(self, g: UnitDiskGraph, tree: TreeBuild, width: int):
        super().__init__(g)
        self.width = width
        self.parent = tree.parent
        self.has_kids = np.bincount(tree.parent, minlength=self.size) > 0
        self.got = np.zeros(self.size, dtype=bool)
        self.got[tree.root_id] = True
        self.sent = np.array([tree.root_id] if self.has_kids[tree.root_id] else [], dtype=np.int64)

    def waiting(self, senders: np.ndarray) -> np.ndarray:
        return self.deliveries(senders, senders, keep=lambda v, s: self.parent[v] == s)[0]

    def spanned(self, res: RunResult) -> int:
        """The nodes that hold the value."""
        return int(self.got[self.ids].sum())

    def step(self, rnd: int) -> list:
        if rnd:
            v = self.waiting(self.sent)
            self.got[v] = True
            self.sent = np.sort(v[self.has_kids[v]])
        return [(K_VAL, self.sent, self.width)]

    def state_name(self, v: int) -> str:
        return f"flood(got={bool(self.got[v])})"


def broadcast_down(g: UnitDiskGraph, tree: TreeBuild, value: tuple,
                   max_rounds: int = 100_000, trace=None) -> tuple[tuple, RunResult]:
    """Broadcast a value down the tree from its root as `K_VAL`; each node
    with children re-broadcasts it once.  Returns the value, as a tuple of
    ints, which every node then holds; a tree that does not span the graph
    over graph edges raises `NotSpanningTree`."""
    value = tuple(int(x) for x in value)
    kernel = _DownRounds(g, tree, len(value))
    res = _run_wave(g, kernel, max_rounds, trace)
    return value, res


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
    if not _edges_in_graph(g, parent):
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
