"""Synchronous round-based message passing with cost accounting.

A message is a kind tag and integer fields (ID-sized units).  Each kind
is declared once as a `Kind`, and `Kind.units` gives a message's cost in
id-units; the kind tag rides along free.

Delivery contract: everything broadcast in round t is received by exactly
the graph neighbors at the start of round t+1.  Within a round each inbox
is processed in ascending (sender, kind, payload) order.

One driver, `run_protocol`, runs every protocol under this contract: it
keeps the ledger, the round and delivery counts (a broadcast is delivered
to every graph neighbour of its sender), the trace, wake-up timers and the
round limit.  Each protocol is a `RoundKernel` subclass that settles the
whole network's round as numpy array operations over the CSR adjacency
(the vertex-centric BSP of Pregel), so no Python code runs per delivery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .netgraph import UnitDiskGraph, csr_rows

CHUNK = 1 << 16  # deliveries a kernel settles at once (`RoundKernel.pieces`)


@dataclass(frozen=True)
class Kind:
    """A message kind: the `code` the trace shows, its fixed `fields` and a
    field group `repeat` that a message may carry any number of times."""
    code: int
    fields: tuple[str, ...] = ()
    repeat: tuple[str, ...] = ()

    def units(self, count=0):
        """Id-units of a message carrying `count` repeats of the group
        (scalar or array): one for the sender ID and one per field."""
        return 1 + len(self.fields) + len(self.repeat) * count


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
        each costing its entry of `units` (or `units` itself if scalar), as
        `Kind.units` counts them."""
        units = np.asarray(units, dtype=np.int64)
        if units.size and units.min() < 1:
            raise ValueError("a message always carries at least the sender ID")
        np.add.at(self.broadcasts_sent, senders, 1)
        np.add.at(self.id_units_sent, senders, units)


class NodeProto:
    """An empty base class: perfbench's traced mode times the `on_round`
    of its subclasses, and no protocol defines one."""


@dataclass
class RunResult:
    ledger: CostLedger
    rounds_used: int
    deliveries: int
    seconds: float  # wall time of the run


class RoundKernel:
    """A protocol run as synchronous rounds, driven by `run_protocol`.

    Subclasses keep per-node state in ID-indexed arrays and implement
    step(rnd): settle every node that received something in round rnd - 1
    (in round 0, every node) and return the round's broadcasts as
    (kind, senders) batches of `Kind`s, or (kind, senders, count) for a
    kind whose messages repeat a field group `count` times (scalar or per
    sender).  A sender repeats once per message it sends.
    A node may read only its own state and what its neighbours broadcast;
    `receivers` gives the deliveries of a round's senders, and `pieces`
    cuts a round's senders so that their deliveries are settled a bounded
    number at a time.  Within one (sender, kind) messages may differ in
    size; they keep their batch order, so a kernel that batches them in
    payload order traces them in canonical order.  A node waiting on a
    timer is listed in `wake` after the step: it is settled in the next
    round even if nothing reaches it.  `waiting` names the nodes that act
    on a round's broadcasts, for the round-limit report.
    """

    def __init__(self, g: UnitDiskGraph):
        self.indptr, self.indices = g.indptr, g.indices
        self.size = g.max_id + 1
        self.ids = g.ids
        self.wake = np.empty(0, dtype=np.int64)

    def degree(self, v: np.ndarray) -> np.ndarray:
        """The degree of each node of `v`: the deliveries its broadcast makes."""
        return self.indptr[v + 1] - self.indptr[v]

    def receivers(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The receiver of every delivery of `senders`' broadcasts, sender
        by sender, and the number each sender makes."""
        pos, lens = csr_rows(self.indptr, senders)
        return self.indices[pos], lens

    def pieces(self, senders: np.ndarray) -> list[slice]:
        """`senders` cut, in order, into slices whose broadcasts make about
        CHUNK deliveries each."""
        load = np.cumsum(self.degree(senders))
        if not len(load):
            return []
        cuts = np.searchsorted(load, np.arange(CHUNK, load[-1], CHUNK)).tolist()
        return [slice(a, b) for a, b in zip([0] + cuts, cuts + [len(senders)])]

    def waiting(self, senders: np.ndarray) -> np.ndarray:
        """The nodes that would act on what `senders` broadcast: every graph
        receiver, unless a kernel listens only along some of its edges.
        By default the stuck report names every graph receiver, also one
        that ignores the kind it was sent."""
        return self.receivers(senders)[0]

    def step(self, rnd: int) -> list:
        raise NotImplementedError

    def state_name(self, v: int) -> str:
        return type(self).__name__


def run_protocol(kernel: RoundKernel, max_rounds: int = 100_000, trace=None) -> RunResult:
    """Step `kernel` to quiescence: the first round in which nothing is
    sent and no node waits on a timer (it still counts).  Raises
    RoundLimitExceeded naming up to 64 nodes, lowest IDs first, that still
    have deliveries to act on (`waiting`) or wait on a timer."""
    start = time.perf_counter()
    ledger = CostLedger(kernel.size - 1)
    rounds_used = deliveries = 0
    senders = np.empty(0, dtype=np.int64)
    while True:
        if rounds_used >= max_rounds:
            waiting = np.union1d(kernel.waiting(senders), kernel.wake)[:64].tolist()
            raise RoundLimitExceeded(rounds_used, {v: kernel.state_name(v) for v in waiting})
        rnd = rounds_used
        sent = [b for b in kernel.step(rnd) if len(b[1])]
        rounds_used += 1
        if not sent:
            if not len(kernel.wake):
                break
            senders = np.empty(0, dtype=np.int64)  # a round of timers alone
            continue
        senders = np.concatenate([s for _, s, *_ in sent])
        units = np.concatenate([np.broadcast_to(k.units(*c), len(s)) for k, s, *c in sent])
        ledger.charge(senders, units)
        deliveries += int(kernel.degree(senders).sum())
        if trace is not None:
            kinds = np.concatenate([np.full(len(s), k.code) for k, s, *_ in sent])
            order = np.lexsort((kinds, senders))
            trace.write("".join(f"{rnd},{s},{k},{u}\n" for s, k, u in zip(
                senders[order].tolist(), kinds[order].tolist(), units[order].tolist())))
    return RunResult(ledger=ledger, rounds_used=rounds_used,
                     deliveries=deliveries, seconds=time.perf_counter() - start)
