"""The round driver's contract (`simkernel.run_protocol`), on small
`RoundKernel` subclasses: rounds, ledger and cost totals, delivery counts,
trace order, timers, the round limit and its stuck report; and the two
primitives every kernel settles its rounds with, `RoundKernel.deliveries`
and `first_hits`."""

import io
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmtopo import netgraph, simkernel
from swarmtopo.simkernel import CostLedger, Kind, RoundLimitExceeded, run_protocol
from conftest import any_graphs, traced_costs

K_PING = Kind(99)
K_FLOOD = Kind(98, (), ("value",))


def path_graph(length, ids=None):
    pts = [(0.9 * i, 0.0) for i in range(length + 1)]
    ids = np.arange(1, length + 2) if ids is None else np.asarray(ids)
    return netgraph.build_udg((ids, np.array(pts)))


class Echo(simkernel.RoundKernel):
    """Every node broadcasts one bare message in round 0."""

    def step(self, rnd):
        return [(K_PING, self.ids if rnd == 0 else self.ids[:0])]


class Flood(simkernel.RoundKernel):
    """Node 1 broadcasts a message of `width` values in round 0; every
    other node rebroadcasts it in the round after it first hears it,
    unless every neighbour has already broadcast it."""

    def __init__(self, g, width=0):
        super().__init__(g)
        self.width = width
        self.seen = np.zeros(self.size, dtype=bool)
        self.sent = np.zeros(self.size, dtype=bool)
        self.out = np.array([1])
        self.seen[1] = self.sent[1] = True

    def step(self, rnd):
        if rnd:
            v = np.unique(self.deliveries(self.out)[0])
            new = v[~self.seen[v]]
            self.seen[new] = True
            w, k = self.deliveries(new, np.arange(len(new)))
            unsent = np.bincount(k, weights=~self.sent[w], minlength=len(new))
            self.out = new[unsent > 0]
            self.sent[self.out] = True
        return [(K_FLOOD, self.out, self.width)]


class Batches(simkernel.RoundKernel):
    """Sends the given round-0 batches, then nothing."""

    def __init__(self, g, batches):
        super().__init__(g)
        self.batches = [(k, np.array(s), *count) for k, s, *count in batches]

    def step(self, rnd):
        return self.batches if rnd == 0 else []


class Chatter(simkernel.RoundKernel):
    """The nodes `talk` selects broadcast every round."""

    def __init__(self, g, talk):
        super().__init__(g)
        self.talk = self.ids[talk(self.ids)]

    def step(self, rnd):
        return [(K_PING, self.talk)]

    def state_name(self, v):
        return f"chatter({v})"


def traced_run(kernel, **kw):
    """run_protocol(kernel), with the broadcasts and id-units its trace
    charges each ID."""
    buf = io.StringIO()
    res = run_protocol(kernel, trace=buf, **kw)
    return (res, *traced_costs(res, buf.getvalue(), kernel.size))


def test_echo_two_rounds_one_broadcast_each():
    g = path_graph(3)
    res, sent, units = traced_run(Echo(g))
    assert res.rounds_used == 2
    assert (sent[1:] == 1).all()
    assert (units[1:] == 1).all()


def test_flood_rounds_on_path():
    for L in (1, 2, 5, 9):
        g = path_graph(L)
        kernel = Flood(g)
        res = run_protocol(kernel)
        assert res.rounds_used == L + 1  # the far end hears it last and stays silent
        assert kernel.seen[1:].all()


def test_charge_counts_id_fields():
    ledger = CostLedger()
    msgs = [(2, (K_PING, 7, 8)), (2, (K_PING,)), (4, (K_PING, 1))]
    ledger.charge([s for s, _ in msgs], [len(m) for _, m in msgs])
    # sender + 2 payload fields, and a bare announcement still costs one
    assert ledger.total_id_units == 6
    assert ledger.total_broadcasts == 3
    ledger.charge(np.array([1, 1]), 3)  # one size for every broadcast
    assert ledger.total_id_units == 12 and ledger.total_broadcasts == 5
    with pytest.raises(ValueError):
        ledger.charge([3], [0])
    # the same messages sent by a kernel: the trace charges each sender
    _, sent, units = traced_run(Batches(path_graph(3), [(K_FLOOD, [2, 2, 4], np.array([2, 0, 1]))]))
    assert units.tolist() == [0, 0, 4, 0, 2]
    assert sent.tolist() == [0, 0, 2, 0, 1]


def test_flood_cost_totals():
    # a 2-unit message flooded once per node, the silent far end apart
    g = path_graph(6)
    res, sent, _ = traced_run(Flood(g, width=1))
    assert res.ledger.total_broadcasts == g.n - 1
    assert res.ledger.total_id_units == 2 * (g.n - 1)
    assert sent[g.n] == 0


def test_determinism_identical_ledgers():
    rng = np.random.Generator(np.random.Philox(5))
    pts = rng.random((150, 2)) * 3.0
    g = netgraph.build_udg((np.arange(1, 151), pts))
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        runs.append((run_protocol(Flood(g), trace=buf), buf.getvalue()))
    (r1, t1), (r2, t2) = runs
    assert t1 == t2 and t1.count("\n") == r1.ledger.total_broadcasts
    assert r1.ledger == r2.ledger
    assert r1.rounds_used == r2.rounds_used > 2
    assert r1.deliveries == r2.deliveries


def test_delivery_conservation():
    # each broadcast reaches exactly deg(sender) nodes
    g = path_graph(4)
    res = run_protocol(Echo(g))
    assert res.deliveries == int(g.degrees()[1:].sum())


def test_deliveries_counted_at_full_degree():
    # every message is delivered to every neighbour of its sender, whether
    # the kernel reads it or not, under gapped IDs as under dense ones
    for ids in (None, [3, 10, 11, 40, 41]):
        g = path_graph(4, ids)
        kinds = [(Kind(k, ("x",)), g.ids) for k in (3, 4, 5, 6)]
        res, sent, units = traced_run(Batches(g, kinds))
        deg = g.degrees()
        assert res.deliveries == 4 * int(deg.sum())
        assert sent[g.ids].tolist() == [4] * g.n
        assert units[g.ids].tolist() == [8] * g.n


def test_inbox_sorted_by_sender_then_kind():
    # node 2 sends two kinds, one of them in two sizes (in payload order);
    # the trace, the order in which receivers read the round, goes by
    # sender, then kind, then batch order, whatever order the batches come in
    pts = [(0, 0), (0.5, 0.1), (0.5, -0.1)]
    g = netgraph.build_udg((np.arange(1, 4), np.array(pts, float)))
    buf = io.StringIO()
    one, two = Kind(5, ("x",)), Kind(4, ("x",))
    three = Kind(3, ("x",), ("y",))  # a group repeated once, then not at all
    run_protocol(Batches(g, [(one, [2]), (two, [3]), (three, [2, 2], np.array([1, 0]))]),
                 trace=buf)
    assert buf.getvalue().splitlines() == ["0,2,3,3", "0,2,3,2", "0,2,5,2", "0,3,4,2"]


def test_round_limit_exceeded():
    g = path_graph(99)  # IDs 1..100 in path order
    with pytest.raises(RoundLimitExceeded) as e:
        run_protocol(Chatter(g, lambda v: v >= 30), max_rounds=10)
    assert e.value.rounds == 10
    # the lowest 64 of the nodes with deliveries to settle
    assert e.value.stuck == {v: f"chatter({v})" for v in range(29, 93)}


def _raise_round_limit():
    try:
        run_protocol(Chatter(path_graph(3), lambda v: v <= 2), max_rounds=3)
    except RoundLimitExceeded as e:
        e.phase = "classify"  # as the pipeline attaches it
        raise


def test_round_limit_exceeded_pickles():
    e = RoundLimitExceeded(3, {1: "x", 4: "y"})
    back = pickle.loads(pickle.dumps(e))
    assert (back.rounds, back.stuck, back.phase, str(back)) == (3, {1: "x", 4: "y"}, None, str(e))
    assert str(e) == "no quiescence after 3 rounds; 2 nodes still active (e.g. 1:x, 4:y)"
    # the phase, given or attached afterwards as the pipeline does, travels too
    named = RoundLimitExceeded(3, {1: "x"}, "tree")
    e.phase = "components"
    for exc, phase in ((named, "tree"), (e, "components")):
        back = pickle.loads(pickle.dumps(exc))
        assert (back.rounds, back.stuck, back.phase) == (exc.rounds, exc.stuck, phase)
        assert str(back) == str(exc)
    assert str(e) == ("no quiescence in phase components after 3 rounds; 2 nodes still "
                      "active (e.g. 1:x, 4:y)")


def test_round_limit_exceeded_crosses_process_pool():
    # a protocol failure in a worker reaches the parent as itself
    with ProcessPoolExecutor(max_workers=1) as pool:
        with pytest.raises(RoundLimitExceeded) as e:
            pool.submit(_raise_round_limit).result()
    stuck = {v: f"chatter({v})" for v in (1, 2, 3)}
    assert (e.value.rounds, e.value.stuck, e.value.phase) == (3, stuck, "classify")


class _TimerRounds(simkernel.RoundKernel):
    """Node 1 broadcasts in round 0, waits on a timer through rounds 1-3
    with nothing sent and fires in round 4; everyone else stays silent."""

    def step(self, rnd):
        one = np.array([1])
        self.wake = one if rnd < 4 else one[:0]
        return [(K_PING, one if rnd in (0, 4) else one[:0])]

    def state_name(self, v):
        return f"timer(node={v})"


def test_kernel_wake_runs_without_messages():
    g = path_graph(2)
    res, sent, _ = traced_run(_TimerRounds(g))
    assert res.rounds_used == 6  # rounds 1-3 send nothing but do not end the run
    assert sent.tolist() == [0, 2, 0, 0]
    assert res.deliveries == 2 * g.degree(1)
    # a node waiting on a timer is stuck like one with deliveries to settle
    with pytest.raises(RoundLimitExceeded) as e:
        run_protocol(_TimerRounds(g), max_rounds=3)
    assert e.value.stuck == {1: "timer(node=1)"}
    with pytest.raises(RoundLimitExceeded) as e:
        run_protocol(_TimerRounds(g), max_rounds=1)  # waiting on a timer, and heard by node 2
    assert e.value.stuck == {1: "timer(node=1)", 2: "timer(node=2)"}


def test_trace_lines():
    buf = io.StringIO()
    g = path_graph(2)
    run_protocol(Echo(g), trace=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines == [f"0,{v},{K_PING.code},1" for v in (1, 2, 3)]


def test_round_limit_names_receivers_that_do_not_hear():
    # nodes 1 and 2 talk every round and no node acts on it; the default
    # `waiting` still names every graph receiver, node 3 too
    g = path_graph(3)  # IDs 1..4 in path order
    with pytest.raises(RoundLimitExceeded) as e:
        run_protocol(Chatter(g, lambda v: v <= 2), max_rounds=3)
    assert list(e.value.stuck) == [1, 2, 3]


def brute_deliveries(g, senders, fields):
    """Every delivery of `senders`' broadcasts, sender by sender: its
    receiver and its sender's entry of each of `fields`."""
    rows = [(int(u), *(f[i] for f in fields))
            for i, s in enumerate(senders.tolist()) for u in g.neighbors(s)]
    return [np.array(col, dtype=np.int64) for col in zip(*rows)] or \
        [np.empty(0, dtype=np.int64)] * (1 + len(fields))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(any_graphs, st.data())
def test_deliveries_equal_brute_force_expansion(g, data):
    # senders in ascending order, possibly none, under pieces of any size
    senders = np.array(sorted(data.draw(st.sets(st.sampled_from(g.id_list)))), dtype=np.int64)
    fields = [np.arange(len(senders)) * 7 + 3, senders.copy()][:data.draw(st.integers(0, 2))]
    chunk = data.draw(st.sampled_from([1, 2, 5, simkernel.CHUNK]))
    as_positions = data.draw(st.booleans())  # `keep` may return a mask or positions
    kernel = simkernel.RoundKernel(g)
    seen = []

    def keep(v, *f):
        seen.append(len(v))
        mask = (v + sum(f, 0)) % 3 != 0
        return np.flatnonzero(mask) if as_positions else mask

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simkernel, "CHUNK", chunk)
        got = kernel.deliveries(senders, *fields)
        kept = kernel.deliveries(senders, *fields, keep=keep)
    want = brute_deliveries(g, senders, fields)
    assert len(got) == len(kept) == 1 + len(fields)
    for a, b in zip(got, want):
        assert a.tolist() == b.tolist()
    mask = (want[0] + sum(want[1:], 0)) % 3 != 0
    for a, b in zip(kept, want):
        assert a.tolist() == b[mask].tolist()
    # `keep` saw the deliveries in pieces of about `chunk` deliveries each
    assert sum(seen) == len(want[0])
    assert max(seen) <= chunk + int(g.degrees().max())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.integers(0, 40), max_size=60))
def test_first_hits_are_first_occurrences(v):
    v = np.array(v, dtype=np.int64)
    row = np.full(41, -5, dtype=np.int64)
    first = simkernel.first_hits(v, row)
    assert first.tolist() == sorted(np.unique(v, return_index=True)[1].tolist())
    assert (np.delete(row, v) == -5).all()  # the lent row is written at `v` alone
