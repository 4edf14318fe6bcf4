"""Synchronous round-based message passing with cost accounting.

A message is a kind tag and integer fields (ID-sized units).  Each kind
is declared once as a `Kind`, and `Kind.units` gives a message's cost in
id-units; the kind tag rides along free.

Delivery contract: everything broadcast in round t is received by exactly
the graph neighbors at the start of round t+1.  Within a round each inbox
is processed in ascending (sender, kind, payload) order.

One driver, `run_protocol`, runs every protocol under this contract: it
keeps the ledger (each kind's broadcasts, id-units and deliveries; a
broadcast is delivered to every graph neighbour of its sender), the round
count, the trace, wake-up timers and the round limit.  Each protocol is a
`RoundKernel` subclass that settles the whole network's round as numpy
array operations over the CSR adjacency (the vertex-centric BSP of
Pregel), so no Python code runs per delivery.
Two rules serve every kernel: `RoundKernel.deliveries` expands a round's
broadcasts into deliveries a bounded number at a time, and `first_hits`
lets each receiver's first delivery, its smallest sender, win a tie.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .netgraph import UnitDiskGraph

CHUNK = 1 << 16  # deliveries a kernel expands at once (`RoundKernel.deliveries`)


@dataclass(frozen=True)
class Kind:
    """A message kind: its `name`, the `code` the trace shows, its fixed
    `fields` and a field group `repeat` that a message may carry any number
    of times."""
    name: str
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


@dataclass
class Traffic:
    """The broadcasts of one message kind in a run, their id-units and deliveries."""
    broadcasts: int = 0
    id_units: int = 0
    deliveries: int = 0


@dataclass
class CostLedger:
    """A protocol run's traffic by message kind, keyed by `Kind.name`; its
    totals are the sums over the kinds."""
    kinds: dict[str, Traffic] = field(default_factory=dict)

    def charge(self, kind: Kind, broadcasts: int, id_units: int, deliveries: int) -> None:
        """Record `broadcasts` messages of `kind`, their id-units and deliveries."""
        t = self.kinds.setdefault(kind.name, Traffic())
        t.broadcasts += broadcasts
        t.id_units += id_units
        t.deliveries += deliveries

    @property
    def total_broadcasts(self) -> int:
        return sum(t.broadcasts for t in self.kinds.values())

    @property
    def total_id_units(self) -> int:
        return sum(t.id_units for t in self.kinds.values())

    @property
    def deliveries(self) -> int:
        return sum(t.deliveries for t in self.kinds.values())


class NodeProto:
    """An empty base class: perfbench's traced mode times the `on_round`
    of its subclasses, and no protocol defines one."""


@dataclass
class RunResult:
    """A protocol run's ledger and rounds (the quiet last one too)."""
    ledger: CostLedger
    rounds_used: int
    seconds: float  # wall time of the run

    @property
    def deliveries(self) -> int:
        return self.ledger.deliveries


class RoundKernel:
    """A protocol run as synchronous rounds, driven by `run_protocol`.

    Subclasses keep per-node state in ID-indexed arrays and implement
    step(rnd): settle every node that received something in round rnd - 1
    (in round 0, every node) and return the round's broadcasts as
    (kind, senders) batches of `Kind`s, or (kind, senders, count) for a
    kind whose messages repeat a field group `count` times (scalar or per
    sender).  A sender repeats once per message it sends.
    A node may read only its own state and what its neighbours broadcast:
    `deliveries` gives the receivers of a round's senders with the fields
    they sent, about CHUNK at a time, and `first_hits` the first delivery
    to each receiver.  Within one (sender, kind) messages may differ in
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

    def deliveries(self, senders: np.ndarray, *fields: np.ndarray, keep=None) -> tuple:
        """The deliveries of `senders`' broadcasts in sender order: each
        one's receiver, as int64 (the graph's int32 `indices` widened once
        per piece, so no kernel indexes with int32), then each per-sender
        array of `fields` repeated for it.  The senders' rows are expanded
        about CHUNK deliveries at a time; `keep`, given one such piece as
        (receivers, *fields) in sender order, returns a mask or the
        positions of the deliveries to return.  It may settle the rest of
        the piece itself."""
        lo = self.indptr[senders]
        lens = self.indptr[senders + 1] - lo
        ends = np.cumsum(lens)
        shift = lo - (ends - lens)  # a delivery's CSR position less its place in the round
        total = int(ends[-1]) if len(ends) else 0
        if total <= CHUNK:  # one piece: no cut to find
            return self._piece(0, total, shift, lens, fields, keep)
        at = [0, *np.searchsorted(ends, np.arange(CHUNK, total, CHUNK)).tolist(), len(senders)]
        first = np.concatenate(([0], ends))[at].tolist()  # each piece's first delivery
        parts = [self._piece(i, j, shift[a:b], lens[a:b], [f[a:b] for f in fields], keep)
                 for a, b, i, j in zip(at, at[1:], first, first[1:])]
        return tuple(np.concatenate(x) for x in zip(*parts))

    def _piece(self, start: int, stop: int, shift, lens, fields, keep) -> tuple:
        v = self.indices[np.arange(start, stop) + np.repeat(shift, lens)].astype(np.int64)
        part = (v, *(f.repeat(lens) for f in fields))
        if keep is None:
            return part
        i = keep(*part)
        i = np.flatnonzero(i) if i.dtype == bool else i  # faster than a masked copy
        return tuple(x[i] for x in part)

    def waiting(self, senders: np.ndarray) -> np.ndarray:
        """The nodes that would act on what `senders` broadcast: every graph
        receiver, unless a kernel listens only along some of its edges.
        By default the stuck report names every graph receiver, also one
        that ignores the kind it was sent."""
        return self.deliveries(senders)[0]

    def step(self, rnd: int) -> list:
        raise NotImplementedError

    def state_name(self, v: int) -> str:
        return type(self).__name__


def first_hits(v: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The positions of the first entry of each receiver in `v`, ascending.
    Deliveries run in sender order and a sender reaches a receiver once,
    so each is the receiver's delivery from its smallest sender.  `row`,
    an int64 array over IDs that the caller lends, takes the positions'
    scatter-minimum; its entries at `v` are overwritten."""
    at = np.arange(len(v))
    row[v] = len(v)
    np.minimum.at(row, v, at)
    return np.flatnonzero(row[v] == at)


def run_protocol(kernel: RoundKernel, max_rounds: int = 100_000, trace=None) -> RunResult:
    """Step `kernel` to quiescence: the first round in which nothing is
    sent and no node waits on a timer (it still counts).  Raises
    RoundLimitExceeded naming up to 64 nodes, lowest IDs first, that still
    have deliveries to act on (`waiting`) or wait on a timer."""
    start = time.perf_counter()
    ledger = CostLedger()
    rounds_used = 0
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
        if units.min() < 1:
            raise ValueError("a message always carries at least the sender ID")
        lens = [len(s) for _, s, *_ in sent]
        starts = [0, *itertools.accumulate(lens[:-1])]  # a list: cheaper than a numpy cumsum
        for (k, *_), n, u, d in zip(sent, lens, np.add.reduceat(units, starts).tolist(),
                                    np.add.reduceat(kernel.degree(senders), starts).tolist()):
            ledger.charge(k, n, u, d)
        if trace is not None:
            kinds = np.concatenate([np.full(len(s), k.code) for k, s, *_ in sent])
            order = np.lexsort((kinds, senders))
            trace.write("".join(f"{rnd},{s},{k},{u}\n" for s, k, u in zip(
                senders[order].tolist(), kinds[order].tolist(), units[order].tolist())))
    return RunResult(ledger=ledger, rounds_used=rounds_used, seconds=time.perf_counter() - start)
