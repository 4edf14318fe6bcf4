import io
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
    _, res = run_protocol(g, EchoNode)
    assert res.rounds_used == 2
    assert (res.ledger.broadcasts_sent[1:] == 1).all()
    assert (res.ledger.id_units_sent[1:] == 1).all()


def test_flood_rounds_on_path():
    for L in (1, 2, 5, 9):
        g = path_graph(L)
        nodes, res = run_protocol(g, lambda v, nb: FloodNode(v, nb, v == 1))
        assert res.rounds_used == L + 1
        assert all(nodes[v].seen for v in range(1, L + 2))


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
    _, res = run_protocol(g, TwoUnit)
    assert res.ledger.total_id_units == 2 * g.n
    assert res.ledger.total_broadcasts == g.n


def test_determinism_identical_ledgers():
    rng = np.random.Generator(np.random.Philox(5))
    pts = rng.random((150, 2)) * 3.0
    g = netgraph.build_udg((np.arange(1, 151), pts))
    _, r1 = run_protocol(g, lambda v, nb: FloodNode(v, nb, v == 1))
    _, r2 = run_protocol(g, lambda v, nb: FloodNode(v, nb, v == 1))
    assert np.array_equal(r1.ledger.broadcasts_sent, r2.ledger.broadcasts_sent)
    assert np.array_equal(r1.ledger.id_units_sent, r2.ledger.id_units_sent)
    assert r1.rounds_used == r2.rounds_used
    assert r1.deliveries == r2.deliveries


def test_delivery_conservation():
    # each broadcast reaches exactly deg(sender) nodes
    g = path_graph(4)
    _, res = run_protocol(g, EchoNode)
    deg = g.degrees()
    assert res.deliveries == int(deg[1:].sum())


def test_inbox_sorted_by_sender_then_kind():
    order = []

    class Talk(NodeProto):
        def on_round(self, rnd, inbox):
            if rnd == 0:
                if self.vid == 2:
                    # two kinds from one sender, and one kind in two sizes
                    return ((5, 1), (3, 9), (3, 1, 2))
                if self.vid == 3:
                    return ((4, 0),)
            if self.vid == 1 and inbox:
                order.extend(inbox)
            return ()

    pts = [(0, 0), (0.5, 0.1), (0.5, -0.1)]
    g = netgraph.build_udg((np.arange(1, 4), np.array(pts, float)))
    buf = io.StringIO()
    run_protocol(g, Talk, trace=buf)
    assert order == [(2, (3, 1, 2)), (2, (3, 9)), (2, (5, 1)), (3, (4, 0))]
    # trace lines follow the inbox order: payload order within (sender, kind)
    assert buf.getvalue().splitlines() == ["0,2,3,3", "0,2,3,2", "0,2,5,2", "0,3,4,2"]


def test_round_limit_exceeded():
    class Chatter(NodeProto):
        """Nodes from 30 up broadcast every round."""

        def on_round(self, rnd, inbox):
            return ((K_PING,),) if self.vid >= 30 else ()

        def state_name(self):
            return f"chatter({self.vid})"

    g = path_graph(99)  # IDs 1..100 in path order
    with pytest.raises(RoundLimitExceeded) as e:
        run_protocol(g, Chatter, max_rounds=10)
    assert e.value.rounds == 10
    # the lowest 64 of the nodes with deliveries to settle
    assert e.value.stuck == {v: f"chatter({v})" for v in range(29, 93)}


def _raise_round_limit():
    raise RoundLimitExceeded(3, {1: "x"}, "classify")


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
    assert (e.value.rounds, e.value.stuck, e.value.phase) == (3, {1: "x"}, "classify")


class _TimerRounds(simkernel.RoundKernel):
    """Node 1 broadcasts in round 0, waits on a timer through rounds 1-3
    with nothing sent and fires in round 4; everyone else stays silent."""

    def step(self, rnd):
        one = np.array([1])
        self.wake = one if rnd < 4 else one[:0]
        return [(K_PING, one if rnd in (0, 4) else one[:0], 1)]

    def state_name(self, v):
        return f"timer(node={v})"


def test_kernel_wake_runs_without_messages():
    g = path_graph(2)
    res = _TimerRounds(g).run()
    assert res.rounds_used == 6  # rounds 1-3 send nothing but do not end the run
    assert res.ledger.broadcasts_sent.tolist() == [0, 2, 0, 0]
    assert res.deliveries == 2 * g.degree(1)
    # a node waiting on a timer is stuck like one with deliveries to settle
    with pytest.raises(RoundLimitExceeded) as e:
        _TimerRounds(g).run(max_rounds=3)
    assert e.value.stuck == {1: "timer(node=1)"}
    with pytest.raises(RoundLimitExceeded) as e:
        _TimerRounds(g).run(max_rounds=1)  # waiting on a timer, and heard by node 2
    assert e.value.stuck == {1: "timer(node=1)", 2: "timer(node=2)"}


def test_trace_lines(tmp_path):
    buf = io.StringIO()
    g = path_graph(2)
    run_protocol(g, EchoNode, trace=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines == [f"0,{v},{K_PING},1" for v in (1, 2, 3)]


# -- `hears`: a node receives only the kinds it declares ---------------------

class Picky(NodeProto):
    """Every node sends kinds 3 (two sizes), 4 and 5 in round 0; even IDs
    hear only kinds 3 and 5, node 4 hears nothing, odd IDs hear every kind.
    `got` keeps each node's inbox by round, `ran` every (round, node) run."""

    __slots__ = ("got", "ran")

    def __init__(self, vid, nbrs):
        super().__init__(vid, nbrs)
        self.got, self.ran = {}, []

    @property
    def hears(self):
        if self.vid == 4:
            return ()
        return (3, 5) if self.vid % 2 == 0 else None

    def on_round(self, rnd, inbox):
        self.ran.append(rnd)
        if inbox:
            self.got[rnd] = list(inbox)
        if rnd == 0:
            return ((5, self.vid), (4,), (3, 1, self.vid), (3, 0))
        return ()


def test_undeclared_kind_never_reaches_node():
    g = path_graph(5)  # IDs 1..6 in path order
    nodes, _ = run_protocol(g, Picky)
    for v in (2, 6):
        assert {m[0] for _, m in nodes[v].got[1]} == {3, 5}
    assert nodes[4].got == {} and nodes[4].ran == [0]  # hears nothing: runs in round 0 only
    for v in (1, 3, 5):
        assert {m[0] for _, m in nodes[v].got[1]} == {3, 4, 5}


def test_cut_inbox_keeps_canonical_order():
    g = path_graph(5)
    nodes, _ = run_protocol(g, Picky)
    # each sender's kinds in order, a kind's messages in payload order
    assert nodes[3].got[1] == [(2, (3, 0)), (2, (3, 1, 2)), (2, (4,)), (2, (5, 2)),
                               (4, (3, 0)), (4, (3, 1, 4)), (4, (4,)), (4, (5, 4))]
    assert nodes[2].got[1] == [(1, (3, 0)), (1, (3, 1, 1)), (1, (5, 1)),
                               (3, (3, 0)), (3, (3, 1, 3)), (3, (5, 3))]


def test_round_zero_runs_nodes_that_hear_nothing():
    ran = []

    class Deaf(NodeProto):
        hears = ()

        def on_round(self, rnd, inbox):
            ran.append((rnd, self.vid, len(inbox)))
            return ((K_PING,),) if rnd == 0 else ()

    g = path_graph(3)
    _, res = run_protocol(g, Deaf)
    assert ran == [(0, v, 0) for v in (1, 2, 3, 4)]  # nothing runs them again
    assert res.rounds_used == 2


def test_deliveries_counted_at_full_degree():
    class Deaf(NodeProto):
        hears = ()

        def on_round(self, rnd, inbox):
            return ((K_PING, self.vid),) if rnd == 0 else ()

    g = path_graph(4)
    _, heard = run_protocol(g, Picky)
    _, deaf = run_protocol(g, Deaf)
    deg = g.degrees()
    assert deaf.deliveries == int(deg.sum())
    assert heard.deliveries == 4 * int(deg.sum())
    assert deaf.ledger.id_units_sent[1:].tolist() == [2] * g.n
    assert heard.ledger.broadcasts_sent[1:].tolist() == [4] * g.n


def test_round_limit_names_receivers_that_do_not_hear():
    class Chatter(NodeProto):
        """Nodes 1 and 2 answer each other every round; 3 and 4 hear nothing."""

        @property
        def hears(self):
            return (K_PING,) if self.vid <= 2 else ()

        def on_round(self, rnd, inbox):
            return ((K_PING,),) if self.vid <= 2 else ()

    g = path_graph(3)  # IDs 1..4 in path order
    with pytest.raises(RoundLimitExceeded) as e:
        run_protocol(g, Chatter, max_rounds=3)
    assert list(e.value.stuck) == [1, 2, 3]  # node 2's receivers, deaf node 3 too
