"""Synchronous round-based message-passing executor with cost accounting.

Messages are plain tuples ``(kind, field, field, ...)`` where kind is a
small int tag and the fields are integers (ID-sized units).  A message's
cost in id-units is ``len(msg)``: one unit for the implicit sender ID plus
one per payload field; the kind tag rides along free.

Delivery contract: everything broadcast in round t is received by exactly
the graph neighbors at the start of round t+1.  Within a round each inbox
is processed in ascending (sender, kind, payload) order, which the executor
guarantees by sorting the global outbox once before fan-out.

Two ways run a protocol under this contract.  `run_protocol` drives
per-node `NodeProto` state machines and handles every delivery in Python.
A `RoundKernel` runs the whole network's round as numpy array operations
over the CSR adjacency; `RoundKernel.run` keeps the ledger, the round and
delivery counts, the trace and the round limit exactly as the executor
does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netgraph import UnitDiskGraph, csr_rows

Message = tuple  # (kind, *int_fields)


class RoundLimitExceeded(RuntimeError):
    """Protocol did not quiesce within max_rounds."""

    def __init__(self, rounds: int, stuck: dict[int, str]):
        super().__init__(rounds, stuck)  # args rebuild it when pickled
        self.rounds = rounds
        self.stuck = stuck

    def __str__(self) -> str:
        sample = ", ".join(f"{v}:{s}" for v, s in list(self.stuck.items())[:8])
        return (f"no quiescence after {self.rounds} rounds; {len(self.stuck)} nodes "
                f"still active (e.g. {sample})")


class CostLedger:
    """Per-node broadcast and id-unit counters; totals are derived sums."""

    def __init__(self, max_id: int):
        self.max_id = max_id
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
    order; it is empty in round 0, which every node gets to run.  Set
    self.wake = True to request the next round even without incoming
    messages (timers).  Protocol code sees only IDs and neighbor IDs.
    """

    __slots__ = ("vid", "nbrs", "wake")

    def __init__(self, vid: int, nbrs: np.ndarray):
        self.vid = vid
        self.nbrs = nbrs  # ascending neighbor IDs (read-only view)
        self.wake = False

    def on_round(self, rnd: int, inbox: list) -> tuple:
        return ()

    def state_name(self) -> str:
        return type(self).__name__


@dataclass
class RunResult:
    nodes: list | None  # executor: final per-node state per ID (index 0 is None)
    ledger: CostLedger
    rounds_used: int
    deliveries: int


def run_protocol(g: UnitDiskGraph, factory, max_rounds: int = 100_000,
                 ledger: CostLedger | None = None, trace=None) -> RunResult:
    """Run factory(vid, neighbor_ids) state machines to global quiescence.

    Quiescence = no messages in flight and no node requesting a wake-up.
    Deterministic for a fixed graph and protocol.  `trace`, if given, is a
    writable text stream receiving one 'round,node,kind,size_units' line
    per broadcast.
    """
    if ledger is None:
        ledger = CostLedger(g.max_id)
    nodes: list = [None] * (g.max_id + 1)
    for v in g.id_list:
        nodes[v] = factory(v, g.neighbors(v))

    nbr_lists = g.neighbor_lists()
    inboxes: list[list] = [[] for _ in range(g.max_id + 1)]

    active = g.id_list  # round 0: every node runs on an empty inbox
    rounds_used = 0
    deliveries = 0

    while True:
        if rounds_used >= max_rounds:
            stuck = {}
            for v in g.id_list:
                if nodes[v].wake or inboxes[v]:
                    stuck[v] = nodes[v].state_name()
                    if len(stuck) >= 64:
                        break
            raise RoundLimitExceeded(rounds_used, stuck)

        rnd = rounds_used
        new_outbox: list[tuple[int, Message]] = []
        woken: list[int] = []
        for v in active:
            node = nodes[v]
            node.wake = False
            box = inboxes[v]
            msgs = node.on_round(rnd, box)
            if box:
                inboxes[v] = []
            for m in msgs:
                new_outbox.append((v, m))
            if node.wake:
                woken.append(v)
        rounds_used += 1

        if not new_outbox and not woken:
            break

        # canonical delivery order: sort by (sender, kind, payload) once,
        # then append in order so every inbox comes out sorted.  A node
        # enters next_active exactly once: on its first delivery, or via
        # its wake-up flag if nothing arrived.
        new_outbox.sort()
        ledger.charge([s for s, _ in new_outbox], [len(m) for _, m in new_outbox])
        next_active: list[int] = []
        for s, m in new_outbox:
            if trace is not None:
                trace.write(f"{rnd},{s},{m[0]},{len(m)}\n")
            entry = (s, m)
            targets = nbr_lists[s]
            deliveries += len(targets)
            for u in targets:
                box = inboxes[u]
                if not box:
                    next_active.append(u)
                box.append(entry)
        for v in woken:
            if not inboxes[v]:
                next_active.append(v)
        active = next_active

    return RunResult(nodes=nodes, ledger=ledger, rounds_used=rounds_used,
                     deliveries=deliveries)


class RoundKernel:
    """A protocol run as synchronous rounds of array operations.

    Subclasses keep per-node state in ID-indexed arrays and implement
    step(rnd): settle every node that received something in round rnd - 1
    (in round 0, every node) and return the round's broadcasts as
    (kind, senders, units) batches, senders ascending and `units` the
    id-units per message (scalar or per sender).  A node may read only its
    own state and what its neighbours broadcast; `receivers` gives the
    deliveries of a round's senders.  Within one (sender, kind) all
    messages have one size, so trace lines in (sender, kind) order are the
    executor's.
    """

    def __init__(self, g: UnitDiskGraph):
        self.indptr, self.indices = g.indptr, g.indices
        self.size = g.max_id + 1
        self.ids = g.ids
        self.deg = g.degrees()

    def receivers(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The receiver of every delivery of `senders`' broadcasts, sender
        by sender, and the number each sender makes."""
        pos, lens = csr_rows(self.indptr, senders)
        return self.indices[pos], lens

    def step(self, rnd: int) -> list:
        raise NotImplementedError

    def state_name(self, v: int) -> str:
        return type(self).__name__

    def run(self, max_rounds: int = 100_000, trace=None) -> RunResult:
        """Step to quiescence: the first round in which nothing is sent
        (it still counts).  Raises RoundLimitExceeded naming up to 64
        nodes, lowest IDs first, that still have deliveries to settle."""
        ledger = CostLedger(self.size - 1)
        rounds_used = deliveries = 0
        senders = np.empty(0, dtype=np.int64)
        while True:
            if rounds_used >= max_rounds:
                waiting = np.unique(self.receivers(senders)[0])[:64].tolist()
                raise RoundLimitExceeded(rounds_used, {v: self.state_name(v) for v in waiting})
            rnd = rounds_used
            sent = [b for b in self.step(rnd) if len(b[1])]
            rounds_used += 1
            if not sent:
                break
            senders = np.concatenate([s for _, s, _ in sent])
            units = np.concatenate([np.broadcast_to(u, len(s)) for _, s, u in sent])
            ledger.charge(senders, units)
            deliveries += int(self.deg[senders].sum())
            if trace is not None:
                kinds = np.concatenate([np.full(len(s), k) for k, s, _ in sent])
                order = np.lexsort((kinds, senders))
                trace.write("".join(f"{rnd},{s},{k},{u}\n" for s, k, u in zip(
                    senders[order].tolist(), kinds[order].tolist(), units[order].tolist())))
        return RunResult(nodes=None, ledger=ledger, rounds_used=rounds_used,
                         deliveries=deliveries)
