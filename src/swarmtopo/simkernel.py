"""Synchronous round-based message-passing executor with cost accounting.

Messages are plain tuples ``(kind, field, field, ...)`` where kind is a
small int tag and the fields are integers (ID-sized units).  A message's
cost in id-units is ``len(msg)``: one unit for the implicit sender ID plus
one per payload field; the kind tag rides along free.

Delivery contract: everything broadcast in round t is received by exactly
the graph neighbors at the start of round t+1.  Within a round each inbox
is processed in ascending (sender, kind, payload) order.

One driver, `RoundKernel.run`, runs every protocol under this contract: it
keeps the ledger, the round and delivery counts, the trace, wake-up timers
and the round limit.  A `RoundKernel` subclass settles the whole network's
round as numpy array operations over the CSR adjacency.  `run_protocol`
runs per-node `NodeProto` state machines (the component flood) as one more
kernel, without timers: it sorts each round's outbox and hands each
message, in Python, only to the neighbours that read its kind
(`NodeProto.hears`).  Every broadcast is still charged and counted at its
sender's full degree.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .netgraph import UnitDiskGraph, csr_rows, cut_rows

Message = tuple  # (kind, *int_fields)


class RoundLimitExceeded(RuntimeError):
    """Protocol did not quiesce within max_rounds.  `phase` names the
    pipeline phase that ran it, once the pipeline has attached it."""

    def __init__(self, rounds: int, stuck: dict[int, str], phase: str | None = None):
        super().__init__(rounds, stuck, phase)  # args rebuild it when pickled
        self.rounds = rounds
        self.stuck = stuck
        self.phase = phase

    def __str__(self) -> str:
        sample = ", ".join(f"{v}:{s}" for v, s in list(self.stuck.items())[:8])
        where = f" in phase {self.phase}" if self.phase else ""
        return (f"no quiescence{where} after {self.rounds} rounds; {len(self.stuck)} nodes "
                f"still active (e.g. {sample})")


class CostLedger:
    """Per-node broadcast and id-unit counters; totals are derived sums."""

    def __init__(self, max_id: int):
        self.broadcasts_sent = np.zeros(max_id + 1, dtype=np.int64)
        self.id_units_sent = np.zeros(max_id + 1, dtype=np.int64)

    @property
    def total_broadcasts(self) -> int:
        return int(self.broadcasts_sent.sum())

    @property
    def total_id_units(self) -> int:
        return int(self.id_units_sent.sum())

    def charge(self, senders, units) -> None:
        """Record one broadcast per entry of `senders` (repeats allowed),
        each costing its entry of `units` (or `units` itself if scalar):
        one id-unit per message field, the sender ID included, i.e.
        ``len(msg)``."""
        units = np.asarray(units, dtype=np.int64)
        if units.size and units.min() < 1:
            raise ValueError("a message always carries at least the sender ID")
        np.add.at(self.broadcasts_sent, senders, 1)
        np.add.at(self.id_units_sent, senders, units)


class NodeProto:
    """Per-node state machine.

    Subclasses implement on_round(rnd, inbox) -> iterable of messages to
    broadcast.  inbox is a list of (sender_id, msg) pairs in canonical
    order; it is empty in round 0, which every node gets to run.  After
    round 0 a node runs only in a round in which something reaches it:
    there are no timers.  Protocol code sees only IDs and neighbor IDs.

    `hears` declares the message kinds on_round reads: a collection of
    kinds, or None (the default) for every kind.  The executor reads it
    once, when the run starts.  A message of a kind the node does not hear
    never reaches it: it is left out of the inbox, and alone it does not
    run the node.  It is still charged and counted as a delivery.
    """

    __slots__ = ("vid", "nbrs")
    hears = None

    def __init__(self, vid: int, nbrs: np.ndarray):
        self.vid = vid
        self.nbrs = nbrs  # ascending neighbor IDs (read-only view)

    def on_round(self, rnd: int, inbox: list) -> tuple:
        return ()

    def state_name(self) -> str:
        return type(self).__name__


@dataclass
class RunResult:
    ledger: CostLedger
    rounds_used: int
    deliveries: int
    seconds: float  # wall time of the run


class RoundKernel:
    """A protocol run as synchronous rounds, driven by `run`.

    Subclasses keep per-node state (ID-indexed arrays in the array
    kernels, `NodeProto` objects in `_NodeRounds`) and implement
    step(rnd): settle every node that received something in round rnd - 1
    (in round 0, every node) and return the round's broadcasts as
    (kind, senders, units) batches, `units` the id-units per message
    (scalar or per sender).  A sender repeats once per message it sends.
    A node may read only its own state and what its neighbours broadcast;
    `receivers` gives the deliveries of a round's senders.  Within one
    (sender, kind) messages may differ in size; they keep their batch
    order, so a kernel that batches them in payload order traces them in
    canonical order.  A node waiting on a timer is listed in `wake` after
    the step: it is settled in the next round even if nothing reaches it.
    `waiting` names the nodes that act on a round's broadcasts, for the
    round-limit report.
    """

    def __init__(self, g: UnitDiskGraph):
        self.indptr, self.indices = g.indptr, g.indices
        self.size = g.max_id + 1
        self.ids = g.ids
        self.deg = g.degrees()
        self.wake = np.empty(0, dtype=np.int64)

    def receivers(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The receiver of every delivery of `senders`' broadcasts, sender
        by sender, and the number each sender makes."""
        pos, lens = csr_rows(self.indptr, senders)
        return self.indices[pos], lens

    def waiting(self, senders: np.ndarray) -> np.ndarray:
        """The nodes that would act on what `senders` broadcast: every graph
        receiver, unless a kernel listens only along some of its edges.
        The executor keeps this default: its stuck report names every graph
        receiver, also one that does not hear the kind it was sent."""
        return self.receivers(senders)[0]

    def step(self, rnd: int) -> list:
        raise NotImplementedError

    def state_name(self, v: int) -> str:
        return type(self).__name__

    def run(self, max_rounds: int = 100_000, trace=None) -> RunResult:
        """Step to quiescence: the first round in which nothing is sent and
        no node waits on a timer (it still counts).  Raises
        RoundLimitExceeded naming up to 64 nodes, lowest IDs first, that
        still have deliveries to act on (`waiting`) or wait on a timer."""
        start = time.perf_counter()
        ledger = CostLedger(self.size - 1)
        rounds_used = deliveries = 0
        senders = np.empty(0, dtype=np.int64)
        while True:
            if rounds_used >= max_rounds:
                waiting = np.union1d(self.waiting(senders), self.wake)[:64].tolist()
                raise RoundLimitExceeded(rounds_used, {v: self.state_name(v) for v in waiting})
            rnd = rounds_used
            sent = [b for b in self.step(rnd) if len(b[1])]
            rounds_used += 1
            if not sent:
                if not len(self.wake):
                    break
                senders = np.empty(0, dtype=np.int64)  # a round of timers alone
                continue
            senders = np.concatenate([s for _, s, _ in sent])
            units = np.concatenate([np.broadcast_to(u, len(s)) for _, s, u in sent])
            ledger.charge(senders, units)
            deliveries += int(self.deg[senders].sum())
            if trace is not None:
                kinds = np.concatenate([np.full(len(s), k) for k, s, _ in sent])
                order = np.lexsort((kinds, senders))
                trace.write("".join(f"{rnd},{s},{k},{u}\n" for s, k, u in zip(
                    senders[order].tolist(), kinds[order].tolist(), units[order].tolist())))
        return RunResult(ledger=ledger, rounds_used=rounds_used,
                         deliveries=deliveries, seconds=time.perf_counter() - start)


class _NodeRounds(RoundKernel):
    """`NodeProto` state machines as a round kernel.  Round 0 runs every
    node; a later round fans the previous round's sorted outbox out, each
    message over its sender's row cut down to the nodes that hear its
    kind, so every inbox fills in canonical order, and runs the nodes that
    received something.  State is kept per node, not per ID: IDs may be
    sparse."""

    def __init__(self, g: UnitDiskGraph, factory):
        super().__init__(g)
        self.nodes = {v: factory(v, g.neighbors(v)) for v in g.id_list}
        self.at = {v: i for i, v in enumerate(g.id_list)}  # a node's row number
        self.g = g
        self.own_rows = (self.indices, g.row_starts().tolist())
        by_hears: dict = {}
        for v, node in self.nodes.items():
            if node.hears is not None:
                by_hears.setdefault(frozenset(node.hears), []).append(v)
        # the nodes that declare `hears`, by the kinds they hear
        self.hearing = {kinds: np.array(vs, dtype=np.int64) for kinds, vs in by_hears.items()}
        self.rows: dict = {}  # kind -> (receiver IDs, row offsets by node)
        self.outbox: list[tuple[int, Message]] = []

    def _rows(self, kind: int) -> tuple:
        """The receivers of `kind`, sender by sender, built at its first
        send: the graph's own rows if every node hears it."""
        rows = self.rows.get(kind)
        if rows is None:
            deaf = [vs for kinds, vs in self.hearing.items() if kind not in kinds]
            rows = self.own_rows
            if deaf:
                heard = np.ones(self.size, dtype=bool)
                heard[np.concatenate(deaf)] = False
                pos, ptr = cut_rows(self.g, heard)
                rows = (self.indices[pos], ptr.tolist())
            self.rows[kind] = rows
        return rows

    def step(self, rnd: int) -> list:
        nodes, at = self.nodes, self.at
        inboxes: defaultdict[int, list] = defaultdict(list)
        last = None
        for entry in self.outbox:
            s, m = entry
            if (s, m[0]) != last:
                last = s, m[0]
                receivers, ptr = self._rows(m[0])
                i = at[s]
                targets = receivers[ptr[i]:ptr[i + 1]].tolist()
            for u in targets:
                inboxes[u].append(entry)
        out: list[tuple[int, Message]] = []
        for v in self.g.id_list if rnd == 0 else inboxes:
            for m in nodes[v].on_round(rnd, inboxes.get(v, [])):
                out.append((v, m))
        out.sort()
        self.outbox = out
        senders = np.array([s for s, _ in out], dtype=np.int64)
        kinds = np.array([m[0] for _, m in out], dtype=np.int64)
        units = np.array([len(m) for _, m in out], dtype=np.int64)
        return [(k, senders[kinds == k], units[kinds == k]) for k in np.unique(kinds).tolist()]

    def state_name(self, v: int) -> str:
        return self.nodes[v].state_name()


def run_protocol(g: UnitDiskGraph, factory, max_rounds: int = 100_000,
                 trace=None) -> tuple[dict, RunResult]:
    """Run factory(vid, neighbor_ids) state machines to quiescence (no
    messages in flight).  Returns the final node states, a dict keyed by
    ID, and the run."""
    kernel = _NodeRounds(g, factory)
    return kernel.nodes, kernel.run(max_rounds, trace)
