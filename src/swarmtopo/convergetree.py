"""Distributed bootstrap: leader election, spanning tree, and tree-based
aggregation/flooding.

The tree is built by a max-ID extrema flood.  Termination is detected
in-protocol (the paper's point of using a tree): a node sends its subtree
report up once every neighbor has announced the same root and all of its
children have reported; the root then floods DONE down, so every node
learns both n and the completion round.

The tree protocol runs as an array round kernel (`_TreeRounds`): each
round is a few numpy gathers and segment reductions over the CSR rows of
the nodes that broadcast, with the executor's delivery, cost and trace
contract.  Aggregation and value floods run on `simkernel.run_protocol`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .netgraph import UnitDiskGraph
from .simkernel import CostLedger, NodeProto, RoundLimitExceeded, RunResult, run_protocol

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


def _rows(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of the adjacency rows of `nodes`, concatenated, and
    the length of each row."""
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - lens), lens), lens


class _TreeRounds:
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
        self.indptr, self.indices = g.indptr, g.indices
        size = g.max_id + 1
        self.size = size
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

    def first_round(self, ids: np.ndarray) -> dict:
        """Round 0: every node announces itself.  A node without neighbours
        has heard them all and completes at once as its own root."""
        deg = self.indptr[ids + 1] - self.indptr[ids]
        lone = ids[deg == 0]
        self.reported[lone] = lone
        self.done[lone] = True
        self.completion[lone] = 0
        self.n_total[lone] = 1
        talk = ids[deg > 0]
        return self._publish({K_STATE: (talk, talk, np.zeros(len(talk), dtype=np.int64))})

    def deliveries(self, msgs: dict) -> tuple[np.ndarray, dict]:
        """Which nodes receive something, and per kind the receiver of each
        delivery (in sender order) with the number each sender makes."""
        heard = np.zeros(self.size, dtype=bool)
        got = {}
        for k, (s, _, _) in msgs.items():
            pos, lens = _rows(self.indptr, s)
            v = self.indices[pos]
            heard[v] = True
            got[k] = (v, lens)
        return heard, got

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

    def step(self, rnd: int, msgs: dict) -> dict:
        indptr, indices, size = self.indptr, self.indices, self.size
        root, done = self.root, self.done
        out = {}
        done_out = []
        heard, got = self.deliveries(msgs)

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
            pos, lens = _rows(indptr, cand)
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

    Runs the round kernel `_TreeRounds` with the executor's contract: a
    broadcast reaches every neighbour one round later, only nodes that
    received something run, the run ends at quiescence, and the ledger,
    round and delivery counts and the trace lines ('round,node,kind,3',
    by sender then kind) are those of the executor.  Disconnected input
    surfaces as a multi-root failure after quiescence.
    """
    kernel = _TreeRounds(g)
    ledger = CostLedger(g.max_id)
    deg = g.degrees()
    rounds_used = 0
    deliveries = 0
    msgs: dict = {}
    while True:
        if rounds_used >= max_rounds:
            waiting = np.flatnonzero(kernel.deliveries(msgs)[0])[:64].tolist()
            raise RoundLimitExceeded(rounds_used, {v: kernel.state_name(v) for v in waiting})
        rnd = rounds_used
        sent = kernel.first_round(g.ids) if rnd == 0 else kernel.step(rnd, msgs)
        msgs = {k: m for k, m in sent.items() if len(m[0])}
        rounds_used += 1
        if not msgs:
            break
        senders = np.concatenate([m[0] for m in msgs.values()])
        ledger.charge(senders, _TREE_UNITS)
        deliveries += int(deg[senders].sum())
        if trace is not None:
            kinds = np.concatenate([np.full(len(m[0]), k) for k, m in msgs.items()])
            order = np.lexsort((kinds, senders))
            trace.write("".join(f"{rnd},{s},{k},{_TREE_UNITS}\n" for s, k in
                                zip(senders[order].tolist(), kinds[order].tolist())))

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
    return TreeBuild(states=states, result=RunResult(
        nodes=states, ledger=ledger, rounds_used=rounds_used, deliveries=deliveries))


def _combine(op: AggOp, a: tuple, b: tuple) -> tuple:
    if op is AggOp.MAX:
        return (max(a[0], b[0]),)
    if op in (AggOp.SUM, AggOp.COMPONENT_COUNT):
        return (a[0] + b[0],)
    return tuple(x + y for x, y in zip(a, b))  # histogram merge


class _AggNode(NodeProto):
    __slots__ = ("parent", "pending", "acc", "op", "sent")

    def __init__(self, vid, nbrs, tree, op, values):
        super().__init__(vid, nbrs)
        st = tree[vid]
        self.parent = st.parent
        self.pending = set(st.children)
        self.op = op
        v = values[vid]
        self.acc = tuple(int(x) for x in (v if isinstance(v, (tuple, list, np.ndarray)) else (v,)))
        self.sent = False

    def on_round(self, rnd, inbox):
        for s, m in inbox:
            if m[0] == K_AGG and s in self.pending:
                self.pending.discard(s)
                self.acc = _combine(self.op, self.acc, m[1:])
        if not self.sent and not self.pending and self.parent is not None:
            self.sent = True
            return ((K_AGG,) + self.acc,)
        return ()

    def state_name(self):
        return f"agg(pending={len(self.pending)})"


def aggregate(g: UnitDiskGraph, tree: Sequence, op: AggOp,
              values: Mapping[int, object] | Sequence,
              max_rounds: int = 100_000, trace=None) -> tuple[tuple, RunResult]:
    """Convergecast `values` up the tree; returns the root's combined value.

    MAX/SUM/COMPONENT_COUNT messages cost 2 id-units; histogram merges cost
    1 + bin_count.
    """
    res = run_protocol(g, lambda v, nb: _AggNode(v, nb, tree, op, values),
                       max_rounds=max_rounds, trace=trace)
    root_val = None
    for v in g.id_list:
        if res.nodes[v].parent is None:
            root_val = res.nodes[v].acc
        if res.nodes[v].pending:
            raise RuntimeError("aggregation did not complete")
    if root_val is None:
        raise RuntimeError("aggregation did not complete")
    return root_val, res


class _FloodNode(NodeProto):
    __slots__ = ("value", "got")

    def __init__(self, vid, nbrs, value):
        super().__init__(vid, nbrs)
        self.value = value  # root starts with it, everyone else None
        self.got = value is not None

    def on_round(self, rnd, inbox):
        if rnd == 0 and self.got:
            return ((K_VAL,) + self.value,)
        if not self.got:
            for s, m in inbox:
                if m[0] == K_VAL:
                    self.got = True
                    self.value = m[1:]
                    return ((K_VAL,) + self.value,)
        return ()

    def state_name(self):
        return f"flood(got={self.got})"


def broadcast_down(g: UnitDiskGraph, tree: Sequence, value: tuple,
                   max_rounds: int = 100_000, trace=None) -> tuple[list, RunResult]:
    """Flood a value from the tree root; every node broadcasts exactly once."""
    value = tuple(int(x) for x in value)
    root = None
    for v in g.id_list:
        if tree[v].parent is None:
            root = v
    res = run_protocol(
        g, lambda v, nb: _FloodNode(v, nb, value if v == root else None),
        max_rounds=max_rounds, trace=trace)
    received = [None] * (g.max_id + 1)
    for v in g.id_list:
        received[v] = res.nodes[v].value
    return received, res


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
