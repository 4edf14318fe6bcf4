import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from swarmtopo import netgraph, simkernel
from swarmtopo.simkernel import CostLedger, NodeProto, RoundLimitExceeded, run_protocol

K_PING = 99
K_FLOOD = 98


def path_graph(length):
    pts = [(0.9 * i, 0.0) for i in range(length + 1)]
    ids = np.arange(1, length + 2)
    return netgraph.build_udg((ids, np.array(pts)))


class EchoNode(NodeProto):
    def on_round(self, rnd, inbox):
        if rnd == 0:
            return ((K_PING,),)
        return ()


class FloodNode(NodeProto):
    """Rebroadcast on first reception; the source starts in round 0.
    A node whose neighbors are all already-heard senders stays silent."""

    __slots__ = ("source", "seen", "heard_from")

    def __init__(self, vid, nbrs, source):
        super().__init__(vid, nbrs)
        self.source = source
        self.seen = source
        self.heard_from = set()

    def on_round(self, rnd, inbox):
        if rnd == 0 and self.source:
            return ((K_FLOOD,),)
        for s, m in inbox:
            if m[0] == K_FLOOD:
                self.heard_from.add(s)
        if not self.seen and self.heard_from:
            self.seen = True
            if set(self.nbrs.tolist()) - self.heard_from:
                return ((K_FLOOD,),)
        return ()


def test_echo_two_rounds_one_broadcast_each():
    g = path_graph(3)
    res = run_protocol(g, EchoNode)
    assert res.rounds_used == 2
    assert (res.ledger.broadcasts_sent[1:] == 1).all()
    assert (res.ledger.id_units_sent[1:] == 1).all()


def test_flood_rounds_on_path():
    for L in (1, 2, 5, 9):
        g = path_graph(L)
        res = run_protocol(g, lambda v, nb: FloodNode(v, nb, v == 1))
        assert res.rounds_used == L + 1
        assert all(res.nodes[v].seen for v in range(1, L + 2))


def test_charge_counts_id_fields():
    ledger = CostLedger(4)
    msgs = [(2, (K_PING, 7, 8)), (2, (K_PING,)), (4, (K_PING, 1))]
    ledger.charge([s for s, _ in msgs], [len(m) for _, m in msgs])
    # sender + 2 payload fields, and a bare announcement still costs one
    assert ledger.id_units_sent.tolist() == [0, 0, 4, 0, 2]
    assert ledger.broadcasts_sent.tolist() == [0, 0, 2, 0, 1]
    assert ledger.total_id_units == 6
    assert ledger.total_broadcasts == 3
    ledger.charge(np.array([1, 1]), 3)  # one size for every broadcast
    assert ledger.id_units_sent[1] == 6 and ledger.broadcasts_sent[1] == 2
    with pytest.raises(ValueError):
        ledger.charge([3], [0])


def test_flood_cost_totals():
    # a 2-unit message flooded once per node costs 2n units
    class TwoUnit(NodeProto):
        __slots__ = ("sent",)

        def __init__(self, vid, nbrs):
            super().__init__(vid, nbrs)
            self.sent = vid == 1

        def on_round(self, rnd, inbox):
            if rnd == 0 and self.sent:
                return ((K_FLOOD, 42),)
            if not self.sent and inbox:
                self.sent = True
                return ((K_FLOOD, 42),)
            return ()

    g = path_graph(6)
    res = run_protocol(g, TwoUnit)
    assert res.ledger.total_id_units == 2 * g.n
    assert res.ledger.total_broadcasts == g.n


def test_determinism_identical_ledgers():
    rng = np.random.Generator(np.random.Philox(5))
    pts = rng.random((150, 2)) * 3.0
    g = netgraph.build_udg((np.arange(1, 151), pts))
    r1 = run_protocol(g, lambda v, nb: FloodNode(v, nb, v == 1))
    r2 = run_protocol(g, lambda v, nb: FloodNode(v, nb, v == 1))
    assert np.array_equal(r1.ledger.broadcasts_sent, r2.ledger.broadcasts_sent)
    assert np.array_equal(r1.ledger.id_units_sent, r2.ledger.id_units_sent)
    assert r1.rounds_used == r2.rounds_used
    assert r1.deliveries == r2.deliveries


def test_delivery_conservation():
    # each broadcast reaches exactly deg(sender) nodes
    g = path_graph(4)
    res = run_protocol(g, EchoNode)
    deg = g.degrees()
    assert res.deliveries == int(deg[1:].sum())


def test_inbox_sorted_by_sender_then_kind():
    order = []

    class Talk(NodeProto):
        def on_round(self, rnd, inbox):
            if rnd == 0:
                if self.vid == 2:
                    return ((5, 1), (3, 9))  # two kinds from one sender
                if self.vid == 3:
                    return ((4, 0),)
            if self.vid == 1 and inbox:
                order.extend((s, m[0]) for s, m in inbox)
            return ()

    pts = [(0, 0), (0.5, 0.1), (0.5, -0.1)]
    g = netgraph.build_udg((np.arange(1, 4), np.array(pts, float)))
    run_protocol(g, Talk)
    assert order == [(2, 3), (2, 5), (3, 4)]


def test_round_limit_exceeded():
    class Chatter(NodeProto):
        def on_round(self, rnd, inbox):
            return ((K_PING,),)

    g = path_graph(2)
    with pytest.raises(RoundLimitExceeded) as e:
        run_protocol(g, Chatter, max_rounds=10)
    assert e.value.rounds == 10
    assert e.value.stuck


def _raise_round_limit():
    raise RoundLimitExceeded(3, {1: "x"})


def test_round_limit_exceeded_pickles():
    e = RoundLimitExceeded(3, {1: "x", 4: "y"})
    back = pickle.loads(pickle.dumps(e))
    assert (back.rounds, back.stuck, str(back)) == (3, {1: "x", 4: "y"}, str(e))
    assert str(e) == "no quiescence after 3 rounds; 2 nodes still active (e.g. 1:x, 4:y)"


def test_round_limit_exceeded_crosses_process_pool():
    # a protocol failure in a worker reaches the parent as itself
    with ProcessPoolExecutor(max_workers=1) as pool:
        with pytest.raises(RoundLimitExceeded) as e:
            pool.submit(_raise_round_limit).result()
    assert (e.value.rounds, e.value.stuck) == (3, {1: "x"})


def test_wake_runs_without_messages():
    fired = []

    class Timer(NodeProto):
        def on_round(self, rnd, inbox):
            if self.vid == 1 and rnd < 3:
                self.wake = True
            if self.vid == 1 and rnd == 3:
                fired.append(rnd)
            return ()

    g = path_graph(1)
    res = run_protocol(g, Timer)
    assert fired == [3]
    assert res.rounds_used == 4


def test_trace_lines(tmp_path):
    import io
    buf = io.StringIO()
    g = path_graph(2)
    run_protocol(g, EchoNode, trace=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines == [f"0,{v},{K_PING},1" for v in (1, 2, 3)]
