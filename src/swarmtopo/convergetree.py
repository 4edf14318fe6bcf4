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
each round is a few numpy gathers and segment reductions over the CSR
rows of the nodes that broadcast, driven by `simkernel.run_protocol` under
its delivery, cost and trace contract.

The finished tree is `TreeBuild`: the kernel's ID-indexed arrays (parent,
subtree size, learned n, completion round) and the root.  `aggregate`,
`broadcast_down` and `check_tree` read these arrays.  `TreeBuild.states`,
one `TreeState` per node with its children, is built only when read;
perfbench's tree checks read it.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .netgraph import UnitDiskGraph, csr_rows, has_edges, hop_bfs
from .simkernel import RoundKernel, RunResult, run_protocol

K_STATE = 1   # (root, parent)      flood announcement, doubles as join notice
K_REPORT = 2  # (root, size)        convergecast: subtree size under `root`
K_DONE = 3    # (root, n)           root's completion flood down the tree
K_AGG = 4     # (value,)            aggregation convergecast; a histogram row
              #                     goes as (lo, c_lo, ..., c_hi), the window from
              #                     its first to its last nonzero bin, () if all zero
K_VAL = 5     # (*value)            a value broadcast down the tree


class AggOp(enum.Enum):
    MAX = "max"
    SUM = "sum"
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
    def states(self) -> list:
        """A TreeState per ID (None at index 0 and unused IDs), built on
        first read; v's children, ascending, are the IDs naming v as
        parent."""
        kids = np.argsort(self.parent, kind="stable").tolist()
        ptr = np.cumsum(np.bincount(self.parent, minlength=len(self.parent))).tolist()
        parent, subtree = self.parent.tolist(), self.subtree.tolist()
        n_total, completion = self.n_total.tolist(), self.completion.tolist()
        states: list = [None] * len(parent)
        for v in np.flatnonzero(self.completion >= 0).tolist():
            states[v] = TreeState(root_id=self.root_id, parent=parent[v] or None,
                                  children=tuple(kids[ptr[v - 1]:ptr[v]]),
                                  subtree_size=subtree[v], n_total=n_total[v],
                                  completion_round=completion[v])
        return states


_TREE_UNITS = 3  # every tree message is (kind, root, x): sender plus two fields


class _TreeRounds(RoundKernel):
    """The tree protocol as a synchronous round kernel over the CSR arrays.

    A round takes the messages broadcast in the previous one, per kind as
    (senders ascending, field, field), runs every node that received one
    and returns the round's own broadcasts.  Nodes read one another only
    through what was broadcast: the last STATE and REPORT of each sender.

    The rules, per receiving node v, in inbox order (sender, kind), from
    round 1 on (round 0 is `_first_round`):
    STATE (root, parent): adopt the largest announced root above v's own,
    with the smallest sender announcing it as parent, and announce it.
    DONE (root, n): taken once, from the smallest sender whose root equals
    v's root before this round; forwarded only by a node with children.
    REPORT (root, size): once every neighbour announces v's root and every
    neighbour naming v as parent has reported under it, v reports its
    subtree size under that root (again on every new root).  A root that
    reports is complete and starts the DONE flood down its tree.
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
        # the last STATE and REPORT each node broadcast; a node that has
        # announced nothing is read as its own root
        self.said_root = np.arange(size, dtype=np.int64)
        self.said_parent = np.zeros(size, dtype=np.int64)
        self.rep_root = np.zeros(size, dtype=np.int64)
        self.rep_size = np.zeros(size, dtype=np.int64)
        self.msgs: dict = {}

    def step(self, rnd: int) -> list:
        msgs = self._first_round() if rnd == 0 else self._settle(rnd, self.msgs)
        self.msgs = {k: m for k, m in msgs.items() if len(m[0])}
        return [(k, m[0], _TREE_UNITS) for k, m in self.msgs.items()]

    def _first_round(self) -> dict:
        """Round 0: a node knows its neighbours' IDs, so it adopts the
        largest ID of its closed neighbourhood as its root, with that
        neighbour as parent, and announces it.  A node that is that largest
        ID stays silent; its neighbours read its root as its ID.  Every node
        waits on a timer into round 1, where the report rule is first
        checked.  A node without neighbours has heard them all and completes
        at once as its own root."""
        ids = self.ids
        deg = self.degree(ids)
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
        return self._publish({K_STATE: (new, top, top)})

    def _publish(self, msgs: dict) -> dict:
        """Record the round's STATE and REPORT broadcasts, which the
        neighbours read from the next round on."""
        if K_STATE in msgs:
            s, r, p = msgs[K_STATE]
            self.said_root[s] = r
            self.said_parent[s] = p
        if K_REPORT in msgs:
            s, r, n = msgs[K_REPORT]
            self.rep_root[s] = r
            self.rep_size[s] = n
        return msgs

    def _settle(self, rnd: int, msgs: dict) -> dict:
        indptr, indices, size = self.indptr, self.indices, self.size
        root, done = self.root, self.done
        out = {}
        done_out = []
        # the report rule can change only at a node that heard a STATE or
        # whose child reported, or that waits on its round-0 timer; DONE
        # changes no node's rule
        heard = np.zeros(size, dtype=bool)
        heard[self.wake] = True
        self.wake = self.wake[:0]
        if K_REPORT in msgs:
            heard[self.said_parent[msgs[K_REPORT][0]]] = True

        if K_DONE in msgs:
            s, r, n = msgs[K_DONE]
            v, lens = self.receivers(s)
            k = np.repeat(np.arange(len(s)), lens)
            take = ~done[v] & (r[k] == root[v])
            # deliveries run in sender order, so the first is the smallest sender
            v, first = np.unique(v[take], return_index=True)
            k = k[take][first]
            done[v] = True
            self.completion[v] = rnd
            self.n_total[v] = n[k]
            fwd = self.n_children[v] > 0
            done_out.append((v[fwd], r[k][fwd], n[k][fwd]))

        if K_STATE in msgs:
            s, r, _ = msgs[K_STATE]
            v, lens = self.receivers(s)
            heard[v] = True
            best = np.zeros(size, dtype=np.int64)
            # largest root first, then the smallest sender
            np.maximum.at(best, v, np.repeat(r * size + (size - 1 - s), lens))
            best_root = best // size
            new = np.flatnonzero(best_root > root)
            root[new] = best_root[new]
            self.parent[new] = size - 1 - best[new] % size
            out[K_STATE] = (new, root[new], self.parent[new])

        # a node with a child that has not reported under the child's root
        # fails the rule whatever that root is
        ids, said, kid_of = self.ids, self.said_root, self.said_parent[self.ids]
        waiting = np.bincount(kid_of, weights=self.rep_root[ids] != said[ids], minlength=size)
        cand = np.flatnonzero(heard & ~done & (self.reported != root) & (waiting == 0))
        # most candidates still have a neighbour on another root: rule them
        # out on the first and last neighbour before scanning whole rows
        cand = cand[(said[indices[indptr[cand]]] == root[cand])
                    & (said[indices[indptr[cand + 1] - 1]] == root[cand])]
        if len(cand):
            # every child has reported, so only a neighbour on another root
            # fails the rule; the children are then every node naming v
            pos, lens = csr_rows(indptr, cand)
            bad = said[indices[pos]] != np.repeat(root[cand], lens)
            rep = cand[~np.logical_or.reduceat(bad, np.cumsum(lens) - lens)]
            self.n_children[rep] = np.bincount(kid_of, minlength=size)[rep]
            sizes = 1 + np.bincount(kid_of, weights=self.rep_size[ids],
                                    minlength=size)[rep].astype(np.int64)
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
            order = np.argsort(s, kind="stable")
            out[K_DONE] = tuple(np.concatenate([d[i] for d in done_out])[order]
                                for i in range(3))
        return self._publish(out)

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


def _agg_inputs(g: UnitDiskGraph, op: AggOp, values) -> np.ndarray:
    """The inputs as an ID-indexed int64 array with one column per field:
    integer scalars, or for HISTOGRAM_MERGE equal-length integer rows.  An
    array input is already ID-indexed and is copied once, with whatever its
    unused IDs hold: no kernel reads those rows."""
    if isinstance(values, np.ndarray):
        arr = values[:g.max_id + 1]
    else:
        raw = np.asarray([values[v] for v in g.id_list])
        arr = np.zeros((g.max_id + 1,) + raw.shape[1:], dtype=raw.dtype)
        arr[g.ids] = raw
    ndim = 2 if op is AggOp.HISTOGRAM_MERGE else 1
    if (arr.ndim != ndim or arr.dtype.kind not in "biu" or len(arr) <= g.max_id
            or (arr.dtype.kind == "u" and arr.size
                and arr[g.ids].max() > np.iinfo(np.int64).max)):
        shape = "equal-length rows" if ndim == 2 else "scalars"
        raise ValueError(f"{op.value} takes ID-indexed integer {shape} that fit in int64")
    out = arr.astype(np.int64)
    return out if ndim == 2 else out[:, None]


def _tree_links(g: UnitDiskGraph, parent: np.ndarray) -> np.ndarray:
    """ID-indexed: v's parent where the tree edge is a graph edge, so that
    each hears the other's broadcasts; 0 at the root, at a node whose
    parent is not a neighbour, and at unused IDs."""
    kid = g.ids[parent[g.ids] != 0]
    kid = kid[has_edges(g, parent[kid], kid)]
    link = np.zeros(len(parent), dtype=np.int64)
    link[kid] = parent[kid]
    return link


def _window_units(rows: np.ndarray) -> np.ndarray:
    """Id-units of each row's histogram message (sender, lo, c_lo, ...,
    c_hi): 3 + hi - lo for the window from its first nonzero bin lo to its
    last nonzero bin hi, 1 (the sender alone) for an all-zero row."""
    if not rows.shape[1]:
        return np.ones(len(rows), dtype=np.int64)
    nz = rows != 0
    lo = nz.argmax(axis=1)
    hi = rows.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
    return np.where(nz.any(axis=1), 3 + hi - lo, 1)


class _AggRounds(RoundKernel):
    """Convergecast: a node with a parent sends its combined value once
    every child has sent, a leaf in round 0.  A child is heard only over a
    graph edge; one that is not a neighbour leaves its parent pending for
    good.  A histogram row travels as its nonzero window."""

    def __init__(self, g: UnitDiskGraph, tree: TreeBuild, op: AggOp, values):
        super().__init__(g)
        self.acc = _agg_inputs(g, op, values)
        self.combine = np.maximum if op is AggOp.MAX else np.add
        self.windowed = op is AggOp.HISTOGRAM_MERGE
        parent = tree.parent
        self.has_parent = parent != 0
        self.pending = np.bincount(parent[self.ids], minlength=self.size)
        self.listener = _tree_links(g, parent)  # the parent that hears v, or 0
        self.sent = np.empty(0, dtype=np.int64)
        self.exact = None
        if op is not AggOp.MAX:
            # a float copy of the rows children add into, the only rows whose
            # int64 sum can wrap: a wrapped sum is off by 2**64 from its copy
            summed = np.unique(self.listener[self.ids])
            self.summed = summed[summed != 0]
            self.exact = self.acc[self.summed].astype(float)
            self.row = np.full(self.size, -1, dtype=np.int64)  # v's row of `exact`, or -1
            self.row[self.summed] = np.arange(len(self.summed))

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
            # the children grouped by parent, each group combined at once
            order = np.argsort(par)
            kid, par = kid[order], par[order]
            start = np.flatnonzero(np.diff(par, prepend=0))  # IDs are positive
            count = np.diff(start, append=len(par))
            par = par[start]
            self.acc[par] = self.combine(self.acc[par], self.combine.reduceat(self.acc[kid], start))
            if self.exact is not None:
                val = self.acc[kid].astype(float)
                inner = self.row[kid] >= 0
                val[inner] = self.exact[self.row[kid[inner]]]
                self.exact[self.row[par]] += np.add.reduceat(val, start)
            self.pending[par] -= count
            ready = par[(self.pending[par] == 0) & self.has_parent[par]]
        self.sent = ready
        return [(K_AGG, ready, _window_units(self.acc[ready]) if self.windowed else 2)]

    def state_name(self, v: int) -> str:
        return f"agg(pending={self.pending[v]})"


def aggregate(g: UnitDiskGraph, tree: TreeBuild, op: AggOp,
              values: Mapping[int, object] | Sequence,
              max_rounds: int = 100_000, trace=None) -> tuple[tuple, RunResult]:
    """Convergecast `values` up the tree; returns the root's combined value.

    MAX and SUM take integer scalars and their messages cost 2
    id-units; HISTOGRAM_MERGE takes equal-length integer rows, and a
    sender sends only the window of its merged row from its first to its
    last nonzero bin, (lo, c_lo, ..., c_hi): 3 + hi - lo id-units, or 1
    for an all-zero row.  Other inputs, or a value that does not fit in
    int64, raise ValueError.
    """
    kernel = _AggRounds(g, tree, op, values)
    res = run_protocol(kernel, max_rounds, trace)
    if kernel.exact is not None:
        if (np.abs(kernel.acc[kernel.summed] - kernel.exact) > 2.0**62).any():
            raise ValueError(f"{op.value}: a combined value does not fit in int64")
    if (kernel.pending[g.ids] > 0).any():
        raise RuntimeError("aggregation did not complete")
    return tuple(kernel.acc[tree.root_id].tolist()), res


class _DownRounds(RoundKernel):
    """Broadcast down the tree: the root sends in round 0, and a node takes
    the value from its parent's broadcast, heard only over a graph edge.
    Only a node with at least one child re-broadcasts it, once, in the
    round it takes it; a leaf, or a root without children, sends nothing."""

    def __init__(self, g: UnitDiskGraph, tree: TreeBuild, units: int):
        super().__init__(g)
        self.units = units
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
        return [(K_VAL, self.sent, self.units)]

    def state_name(self, v: int) -> str:
        return f"flood(got={bool(self.got[v])})"


def broadcast_down(g: UnitDiskGraph, tree: TreeBuild, value: tuple,
                   max_rounds: int = 100_000, trace=None) -> tuple[list, RunResult]:
    """Broadcast a value down the tree from its root, `1 + len(value)`
    id-units a message; each node with children re-broadcasts it once.
    Returns the value per ID, None where it did not arrive: unused IDs, and
    the subtree of a node whose parent is not its neighbour."""
    value = tuple(int(x) for x in value)
    kernel = _DownRounds(g, tree, 1 + len(value))
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
