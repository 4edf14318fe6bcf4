"""Distributed bootstrap: leader election, spanning tree, and tree-based
aggregation/flooding.

The tree is built by a max-ID extrema flood.  Termination is detected
in-protocol (the paper's point of using a tree): a node sends its subtree
report up once every neighbor has announced the same root and all of its
children have reported; the root then floods DONE down, so every node
learns both n and the completion round.

All three protocols run as array round kernels (`simkernel.RoundKernel`):
each round is a few numpy gathers and segment reductions over the CSR
rows of the nodes that broadcast, with the executor's delivery, cost and
trace contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .netgraph import UnitDiskGraph, csr_rows, has_edges
# no protocol here uses the executor any more; perfbench times it by
# wrapping this name in every protocol module
from .simkernel import RoundKernel, RunResult, run_protocol  # noqa: F401

K_STATE = 1   # (root, parent)      flood announcement, doubles as join notice
K_REPORT = 2  # (root, size)        convergecast: subtree size under `root`
K_DONE = 3    # (root, n)           root's completion flood down the tree
K_AGG = 4     # (*value)            aggregation convergecast
K_VAL = 5     # (*value)            network flood of a value


class AggOp(enum.Enum):
    MAX = "max"
    SUM = "sum"
    HISTOGRAM_MERGE = "histogram_merge"
    COMPONENT_COUNT = "component_count"


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
    states: list  # TreeState per ID (index 0 None)
    result: RunResult

    @property
    def root_id(self) -> int:
        for st in self.states:
            if st is not None and st.parent is None:
                return st.root_id
        raise RuntimeError("tree has no root")


_TREE_UNITS = 3  # every tree message is (kind, root, x): sender plus two fields


class _TreeRounds(RoundKernel):
    """The tree protocol as a synchronous round kernel over the CSR arrays.

    A round takes the messages broadcast in the previous one, per kind as
    (senders ascending, field, field), runs every node that received one
    and returns the round's own broadcasts.  Nodes read one another only
    through what was broadcast: the last STATE and REPORT of each sender.

    The rules, per receiving node v, in inbox order (sender, kind):
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
        self.n_children = np.zeros(size, dtype=np.int64)
        self.child_edge = np.zeros(len(g.indices), dtype=bool)  # row v: children at v's last report
        self.done = np.zeros(size, dtype=bool)
        self.n_total = np.zeros(size, dtype=np.int64)
        self.completion = np.full(size, -1, dtype=np.int64)
        # the last STATE and REPORT each node broadcast
        self.said_root = np.zeros(size, dtype=np.int64)
        self.said_parent = np.zeros(size, dtype=np.int64)
        self.rep_root = np.zeros(size, dtype=np.int64)
        self.rep_size = np.zeros(size, dtype=np.int64)
        self.msgs: dict = {}

    def step(self, rnd: int) -> list:
        msgs = self._first_round() if rnd == 0 else self._settle(rnd, self.msgs)
        self.msgs = {k: m for k, m in msgs.items() if len(m[0])}
        return [(k, m[0], _TREE_UNITS) for k, m in self.msgs.items()]

    def _first_round(self) -> dict:
        """Round 0: every node announces itself.  A node without neighbours
        has heard them all and completes at once as its own root."""
        ids = self.ids
        deg = self.deg[ids]
        lone = ids[deg == 0]
        self.reported[lone] = lone
        self.done[lone] = True
        self.completion[lone] = 0
        self.n_total[lone] = 1
        talk = ids[deg > 0]
        return self._publish({K_STATE: (talk, talk, np.zeros(len(talk), dtype=np.int64))})

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
        heard = np.zeros(size, dtype=bool)
        got = {}
        for k, (s, _, _) in msgs.items():
            got[k] = self.receivers(s)
            heard[got[k][0]] = True

        if K_DONE in msgs:
            s, r, n = msgs[K_DONE]
            v, lens = got[K_DONE]
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
            v, lens = got[K_STATE]
            best = np.zeros(size, dtype=np.int64)
            # largest root first, then the smallest sender
            np.maximum.at(best, v, np.repeat(r * size + (size - 1 - s), lens))
            best_root = best // size
            new = np.flatnonzero(best_root > root)
            root[new] = best_root[new]
            self.parent[new] = size - 1 - best[new] % size
            out[K_STATE] = (new, root[new], self.parent[new])

        cand = np.flatnonzero(heard & ~done & (self.reported != root))
        # most candidates still have a neighbour on another root: rule them
        # out on the first and last neighbour before scanning whole rows
        said = self.said_root
        cand = cand[(said[indices[indptr[cand]]] == root[cand])
                    & (said[indices[indptr[cand + 1] - 1]] == root[cand])]
        if len(cand):
            pos, lens = csr_rows(indptr, cand)
            u = indices[pos]
            owner = np.repeat(cand, lens)
            r = root[owner]
            child = self.said_parent[u] == owner
            bad = (self.said_root[u] != r) | (child & (self.rep_root[u] != r))
            starts = np.cumsum(lens) - lens
            ok = ~np.logical_or.reduceat(bad, starts)
            edge_ok = np.repeat(ok, lens)
            self.child_edge[pos[edge_ok]] = child[edge_ok]
            kids = child & edge_ok
            rep = cand[ok]
            sizes = 1 + np.add.reduceat(np.where(kids, self.rep_size[u], 0), starts)[ok]
            self.n_children[rep] = np.add.reduceat(kids, starts)[ok]
            self.subtree[rep] = sizes
            self.reported[rep] = root[rep]
            is_root = root[rep] == rep
            top, top_n = rep[is_root], sizes[is_root]
            done[top] = True
            self.completion[top] = rnd
            self.n_total[top] = top_n
            self.parent[top] = 0
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

    Runs the round kernel `_TreeRounds` under the executor's contract
    (`simkernel.RoundKernel.run`).  Disconnected input surfaces as a
    multi-root failure after quiescence.
    """
    kernel = _TreeRounds(g)
    result = kernel.run(max_rounds, trace)
    states: list = [None] * (g.max_id + 1)
    kids = g.indices[kernel.child_edge].tolist()  # row by row, n_children[v] in row v
    kid_ptr = np.concatenate(([0], np.cumsum(kernel.n_children))).tolist()
    root, parent = kernel.root.tolist(), kernel.parent.tolist()
    done = kernel.done.tolist()
    subtree, n_total = kernel.subtree.tolist(), kernel.n_total.tolist()
    completion = kernel.completion.tolist()
    for v in g.id_list:
        if not done[v]:
            raise RuntimeError(f"tree build ended without completion at node {v}")
        if parent[v] == 0 and n_total[v] != g.n:
            raise RuntimeError(
                f"root {v} spans {n_total[v]} of {g.n} nodes: graph disconnected")
        states[v] = TreeState(
            root_id=root[v],
            parent=None if parent[v] == 0 else parent[v],
            children=tuple(kids[kid_ptr[v]:kid_ptr[v + 1]]),
            subtree_size=subtree[v],
            n_total=n_total[v],
            completion_round=completion[v],
        )
    return TreeBuild(states=states, result=result)


def _agg_inputs(g: UnitDiskGraph, op: AggOp, values) -> np.ndarray:
    """The inputs as an ID-indexed int64 array with one column per field:
    integer scalars, or for HISTOGRAM_MERGE equal-length integer rows."""
    raw = values[g.ids] if isinstance(values, np.ndarray) else [values[v] for v in g.id_list]
    arr = np.asarray(raw)
    ndim = 2 if op is AggOp.HISTOGRAM_MERGE else 1
    if (arr.ndim != ndim or arr.dtype.kind not in "biu"
            or (arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max)):
        shape = "equal-length rows" if ndim == 2 else "scalars"
        raise ValueError(f"{op.value} takes integer {shape} that fit in int64")
    out = np.zeros((g.max_id + 1, arr.shape[1] if ndim == 2 else 1), dtype=np.int64)
    out[g.ids] = arr.reshape(g.n, -1)
    return out


class _AggRounds(RoundKernel):
    """Convergecast: a node with a parent sends its combined value once
    every child it lists has sent, a leaf in round 0.  A child is heard
    only over a graph edge; one that is not a neighbour leaves its parent
    pending for good."""

    def __init__(self, g: UnitDiskGraph, tree: Sequence, op: AggOp, values):
        super().__init__(g)
        self.acc = _agg_inputs(g, op, values)
        self.combine = np.maximum if op is AggOp.MAX else np.add
        # float copy of every sum: a wrapped int64 sum is off by 2**64 from it
        self.exact = None if op is AggOp.MAX else self.acc.astype(float)
        self.has_parent = np.zeros(self.size, dtype=bool)
        self.pending = np.zeros(self.size, dtype=np.int64)
        par: list[int] = []
        kid: list[int] = []
        for v in g.id_list:
            st = tree[v]
            self.has_parent[v] = st.parent is not None
            kids = set(st.children)
            self.pending[v] = len(kids)
            par += [v] * len(kids)
            kid += kids
        par, kid = np.array(par, dtype=np.int64), np.array(kid, dtype=np.int64)
        heard = has_edges(g, par, kid)
        par, kid = par[heard], kid[heard]
        order = np.argsort(kid, kind="stable")
        self.listeners = par[order]  # by child: the parents that take its value
        self.listen_ptr = np.searchsorted(kid[order], np.arange(self.size + 1))
        self.sent = np.empty(0, dtype=np.int64)

    def step(self, rnd: int) -> list:
        if rnd == 0:
            ids = self.ids
            ready = ids[(self.pending[ids] == 0) & self.has_parent[ids]]
        else:
            pos, lens = csr_rows(self.listen_ptr, self.sent)
            par, kid = self.listeners[pos], np.repeat(self.sent, lens)
            self.combine.at(self.acc, par, self.acc[kid])
            if self.exact is not None:
                np.add.at(self.exact, par, self.exact[kid])
            np.subtract.at(self.pending, par, 1)
            par = np.unique(par)
            ready = par[(self.pending[par] == 0) & self.has_parent[par]]
        self.sent = ready
        return [(K_AGG, ready, 1 + self.acc.shape[1])]

    def state_name(self, v: int) -> str:
        return f"agg(pending={self.pending[v]})"


def aggregate(g: UnitDiskGraph, tree: Sequence, op: AggOp,
              values: Mapping[int, object] | Sequence,
              max_rounds: int = 100_000, trace=None) -> tuple[tuple, RunResult]:
    """Convergecast `values` up the tree; returns the root's combined value
    (the root is the largest ID without a parent).

    MAX/SUM/COMPONENT_COUNT take integer scalars and their messages cost 2
    id-units; HISTOGRAM_MERGE takes equal-length integer rows and costs
    1 + row length.  Other inputs, or a value that does not fit in int64,
    raise ValueError.
    """
    kernel = _AggRounds(g, tree, op, values)
    res = kernel.run(max_rounds, trace)
    if kernel.exact is not None and (np.abs(kernel.acc - kernel.exact) > 2.0**62).any():
        raise ValueError(f"{op.value}: a combined value does not fit in int64")
    ids = g.ids
    roots = ids[~kernel.has_parent[ids]]
    if (kernel.pending[ids] > 0).any() or not len(roots):
        raise RuntimeError("aggregation did not complete")
    return tuple(kernel.acc[roots[-1]].tolist()), res


class _FloodRounds(RoundKernel):
    """Value flood: the root broadcasts in round 0, every other node once,
    in the round after it first hears the value."""

    def __init__(self, g: UnitDiskGraph, root: int | None, units: int):
        super().__init__(g)
        self.units = units
        self.sent = np.array([] if root is None else [root], dtype=np.int64)
        self.got = np.zeros(self.size, dtype=bool)
        self.got[self.sent] = True

    def step(self, rnd: int) -> list:
        if rnd:
            v = self.receivers(self.sent)[0]
            self.sent = np.unique(v[~self.got[v]])
            self.got[self.sent] = True
        return [(K_VAL, self.sent, self.units)]

    def state_name(self, v: int) -> str:
        return f"flood(got={bool(self.got[v])})"


def broadcast_down(g: UnitDiskGraph, tree: Sequence, value: tuple,
                   max_rounds: int = 100_000, trace=None) -> tuple[list, RunResult]:
    """Flood a value from the tree root (the largest ID without a parent);
    every node it reaches broadcasts exactly once."""
    value = tuple(int(x) for x in value)
    roots = [v for v in g.id_list if tree[v].parent is None]
    kernel = _FloodRounds(g, roots[-1] if roots else None, 1 + len(value))
    res = kernel.run(max_rounds, trace)
    return [value if got else None for got in kernel.got.tolist()], res


def check_tree(g: UnitDiskGraph, build: TreeBuild) -> None:
    """Oracle-side sanity: spanning, acyclic, consistent links, and the
    in-protocol completion round equals the executor's quiescence round."""
    states = build.states
    roots = [v for v in g.id_list if states[v].parent is None]
    if len(roots) != 1:
        raise AssertionError(f"expected exactly one root, got {roots[:5]}")
    root = roots[0]
    if root != max(g.id_list):
        raise AssertionError("root is not the global max ID")
    seen = 0
    stack = [root]
    visited = set()
    while stack:
        v = stack.pop()
        if v in visited:
            raise AssertionError("cycle in tree")
        visited.add(v)
        seen += 1
        for c in states[v].children:
            if states[c].parent != v:
                raise AssertionError("parent/child links inconsistent")
            if c not in g.neighbors(v):
                raise AssertionError("tree edge is not a graph edge")
            stack.append(c)
    if seen != g.n:
        raise AssertionError(f"tree spans {seen} of {g.n} nodes")
    if states[root].subtree_size != g.n or states[root].n_total != g.n:
        raise AssertionError("root did not learn n")
    last_completion = max(states[v].completion_round for v in g.id_list)
    if last_completion != build.result.rounds_used - 1:
        raise AssertionError(
            f"protocol completion round {last_completion} != executor "
            f"quiescence round {build.result.rounds_used - 1}"
        )
