"""Unit tests for the scatter/gather fan-out primitive."""

import random

from repro.net import CommGraph, FixedLatency, Network
from repro.node import Processor
from repro.sim import Simulator


def build(n=4):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1))
    procs = {p: Processor(p, sim, net) for p in graph.nodes}
    return sim, graph, net, procs


def echo_server(proc, kind="echo", delay=0.0):
    def server():
        while True:
            request = yield proc.receive(kind)
            if delay:
                yield proc.sim.timeout(delay)
            proc.reply(request, f"{kind}-reply",
                       {"pid": proc.pid, "n": request.payload["n"]})
    return server


def test_scatter_gather_collects_every_reply():
    sim, _, _, procs = build()
    for p in (2, 3, 4):
        sim.process(echo_server(procs[p])())

    def caller():
        results = yield from procs[1].scatter_gather(
            [2, 3, 4], "echo", lambda server: {"n": server * 10},
            timeout=5.0)
        return results

    proc = sim.process(caller())
    sim.run()
    assert proc.value == {2: {"pid": 2, "n": 20},
                          3: {"pid": 3, "n": 30},
                          4: {"pid": 4, "n": 40}}
    stats = procs[1].transport
    assert stats.fanouts == 1 and stats.rpcs == 3
    assert stats.no_responses == 0 and stats.early_exits == 0
    assert stats.fanout_latencies == [2.0]  # one round trip at delay 1.0


def test_silence_maps_to_none_and_is_counted():
    sim, graph, _, procs = build()
    graph.cut_link(1, 3)
    for p in (2, 4):
        sim.process(echo_server(procs[p])())

    def caller():
        results = yield from procs[1].scatter_gather(
            [2, 3, 4], "echo", lambda server: {"n": server}, timeout=3.0)
        return results

    proc = sim.process(caller())
    sim.run()
    assert proc.value[3] is None
    assert proc.value[2] == {"pid": 2, "n": 2}
    assert proc.value[4] == {"pid": 4, "n": 4}
    assert procs[1].transport.no_responses == 1
    # silence bounds the gather at the RPC timeout, not forever
    assert procs[1].transport.fanout_latencies == [3.0]


def test_quorum_early_exit_kills_the_stragglers():
    sim, _, _, procs = build()
    sim.process(echo_server(procs[2])())
    sim.process(echo_server(procs[3])())
    sim.process(echo_server(procs[4], delay=50.0)())

    def caller():
        results = yield from procs[1].quorum_call(
            [2, 3, 4], "echo", lambda server: {"n": server}, timeout=100.0,
            quorum=lambda partial: len(partial) >= 2)
        return (results, sim.now)

    proc = sim.process(caller())
    sim.run()
    results, finished_at = proc.value
    assert set(results) == {2, 3}
    assert finished_at == 2.0  # did not wait for the straggler
    assert procs[1].transport.early_exits == 1
    assert procs[1].transport.fanout_latencies == [2.0]


def test_two_phase_scatter_overlaps_local_work():
    sim, _, _, procs = build()
    for p in (2, 3):
        sim.process(echo_server(procs[p])())

    def caller():
        call = procs[1].scatter([2, 3], "echo",
                                lambda server: {"n": server}, timeout=5.0)
        yield sim.timeout(1.5)  # local work while requests are in flight
        results = yield from call.gather()
        return (sorted(results), sim.now)

    proc = sim.process(caller())
    sim.run()
    # requests left at scatter() time: the replies were back at t=2.0,
    # so gathering after 1.5 of local work still finishes at 2.0
    assert proc.value == ([2, 3], 2.0)


def test_empty_target_set_gathers_immediately():
    sim, _, _, procs = build()

    def caller():
        results = yield from procs[1].scatter_gather(
            [], "echo", lambda server: {}, timeout=5.0)
        return (results, sim.now)

    proc = sim.process(caller())
    sim.run()
    assert proc.value == ({}, 0.0)
    assert procs[1].transport.fanout_latencies == [0.0]


def test_broadcast_collect_filters_and_respects_window():
    sim, _, _, procs = build()

    def acker(proc, value):
        def server():
            message = yield proc.receive("ping")
            proc.send(message.src, "pong", {"v": value})
        return server

    sim.process(acker(procs[2], "yes")())
    sim.process(acker(procs[3], "no")())
    # processor 4 never answers

    def caller():
        collected = yield from procs[1].broadcast_collect(
            [2, 3, 4], "ping", {}, reply_kind="pong", window=5.0,
            accept=lambda m: m.payload["v"] == "yes")
        return ([m.src for m in collected], sim.now)

    proc = sim.process(caller())
    sim.run()
    # the window runs to completion even with replies in hand:
    # collection is time-bounded, not count-bounded
    assert proc.value == ([2], 5.0)
    assert procs[1].transport.broadcasts == 1


def test_late_reply_is_counted_and_traced():
    from repro.node.transport import NoResponse
    from repro.obs.trace import Tracer

    sim, _, _, procs = build()
    tracer = Tracer(sim)
    procs[1].tracer = tracer
    sim.process(echo_server(procs[2], delay=5.0)())

    def caller():
        try:
            yield from procs[1].rpc(2, "echo", {"n": 1}, timeout=2.0)
        except NoResponse:
            return "timed-out"
        return "answered"

    proc = sim.process(caller())
    sim.run()
    assert proc.value == "timed-out"
    # the reply landed at t=7, long after the waiter gave up at t=2
    assert procs[1].transport.late_replies == 1
    assert procs[1]._reply_waiters == {}
    late = [e for e in tracer.events if e.etype == "msg.late-reply"]
    assert len(late) == 1
    assert late[0].pid == 1
    assert late[0].fields["src"] == 2
    assert late[0].fields["kind"] == "echo-reply"


def test_quorum_exit_leaves_no_reply_waiters():
    """Early-exit cleanup: the stragglers' reply routes are withdrawn
    the moment the quorum holds, and a straggler's eventual reply is
    dropped as a late reply, not an error."""
    sim, _, _, procs = build()
    sim.process(echo_server(procs[2])())
    sim.process(echo_server(procs[3])())
    sim.process(echo_server(procs[4], delay=50.0)())

    def caller():
        results = yield from procs[1].quorum_call(
            [2, 3, 4], "echo", lambda server: {"n": server}, timeout=100.0,
            quorum=lambda partial: len(partial) >= 2)
        return (set(results), procs[1]._reply_waiters.copy(), sim.now)

    proc = sim.process(caller())
    sim.run()  # runs past t=52, when p4's reply finally arrives
    results, waiters_at_exit, finished_at = proc.value
    assert results == {2, 3} and finished_at == 2.0
    assert waiters_at_exit == {}
    assert procs[1]._reply_waiters == {}
    assert procs[1].transport.late_replies == 1  # p4's orphaned reply


# -- event cost -----------------------------------------------------------
# A process costs two dispatches of its own (its start and its finish);
# everything else a test below dispatches is the fan-out's.

def serve_echo(proc, kind="echo"):
    """An inline request server: the reply leaves within the delivery."""
    proc.serve(kind, lambda request: proc.reply(
        request, f"{kind}-reply", {"pid": proc.pid}))


def test_scatter_gather_costs_one_event_per_message_plus_one_wakeup():
    for k in (1, 3, 5):
        sim, _, _, procs = build(n=k + 1)
        for pid in range(2, k + 2):
            serve_echo(procs[pid])

        def caller(k=k, procs=procs):
            results = yield from procs[1].scatter_gather(
                range(2, k + 2), "echo", lambda server: {}, timeout=5.0)
            return results

        proc = sim.process(caller())
        sim.run()
        assert sorted(proc.value) == list(range(2, k + 2))
        # k request deliveries + k reply deliveries + 1 gatherer wakeup
        assert sim.dispatched == 2 + 2 * k + 1


def test_silent_targets_share_one_deadline():
    for k in (1, 4):
        sim, graph, _, procs = build(n=k + 1)
        for pid in range(2, k + 2):
            graph.cut_link(1, pid)

        def caller(k=k, procs=procs):
            results = yield from procs[1].scatter_gather(
                range(2, k + 2), "echo", lambda server: {}, timeout=3.0)
            return results

        proc = sim.process(caller())
        sim.run()
        assert proc.value == {pid: None for pid in range(2, k + 2)}
        # one deadline for the whole call, then one gatherer wakeup —
        # independent of how many targets stayed silent
        assert sim.dispatched == 2 + 1 + 1
        assert procs[1].transport.no_responses == k
        assert procs[1].transport.fanout_latencies == [3.0]
        assert procs[1]._reply_waiters == {}


def test_rpc_costs_one_waiter_and_no_composite():
    sim, _, _, procs = build()
    serve_echo(procs[2])

    def caller():
        response = yield from procs[1].rpc(2, "echo", {}, timeout=5.0)
        return response.payload["pid"]

    proc = sim.process(caller())
    sim.run()
    assert proc.value == 2
    # request delivery + reply delivery + the waiter's wakeup; the
    # cancelled deadline is never dispatched
    assert sim.dispatched == 2 + 3


def test_broadcast_collect_costs_deliveries_plus_one_window_timer():
    sim, _, _, procs = build()
    for pid in (2, 3, 4):
        procs[pid].serve("ping", lambda message, pid=pid: procs[pid].send(
            message.src, "pong", {"v": pid}))

    def caller():
        collected = yield from procs[1].broadcast_collect(
            [2, 3, 4], "ping", {}, reply_kind="pong", window=5.0,
            accept=lambda m: True)
        return sorted(m.payload["v"] for m in collected)

    proc = sim.process(caller())
    sim.run()
    assert proc.value == [2, 3, 4]
    # 3 pings + 3 pongs delivered, then the one window timer
    assert sim.dispatched == 2 + 6 + 1


def test_broadcast_collect_drops_stale_acks_between_windows():
    """An ack delivered while no window is open answers a finished
    round: it is dropped, not queued for the next window.  An ack for
    an earlier round that lands *inside* a window is shown to
    ``accept``, which filters it."""
    sim, _, _, procs = build()
    p1 = procs[1]
    shown = []

    def late_acker(message):
        # answers each ping twice: now and after the window closed
        procs[2].send(1, "pong", {"round": message.payload["round"]})
        procs[2].spawn("late", late_ack(message.payload["round"]))

    def late_ack(round_no):
        yield sim.timeout(4.5)
        procs[2].send(1, "pong", {"round": round_no})

    procs[2].serve("ping", late_acker)

    def accept(round_no):
        def check(message):
            shown.append((round_no, message.payload["round"]))
            return message.payload["round"] == round_no
        return check

    def caller():
        first = yield from p1.broadcast_collect(
            [2], "ping", {"round": 1}, reply_kind="pong", window=3.0,
            accept=accept(1))
        # round 1's late ack arrives at t=6.5, between the windows
        yield sim.timeout(4.0)
        second = yield from p1.broadcast_collect(
            [2], "ping", {"round": 2}, reply_kind="pong", window=8.0,
            accept=accept(2))
        return len(first), len(second)

    proc = sim.process(caller())
    sim.run()
    assert proc.value == (1, 2)
    # round 1's second ack never reached a window, and nothing waits in
    # a mailbox for a later round to drain
    assert shown == [(1, 1), (2, 2), (2, 2)]
    assert len(p1.mailbox("pong")) == 0


def test_broadcast_collect_filters_an_earlier_round_inside_a_window():
    sim, _, _, procs = build()
    p1 = procs[1]

    def caller():
        # a stray ack for round 0 lands at t=1, inside round 1's window
        procs[2].send(1, "pong", {"round": 0})
        collected = yield from p1.broadcast_collect(
            [], "ping", {}, reply_kind="pong", window=3.0,
            accept=lambda m: m.payload["round"] == 1)
        return collected

    proc = sim.process(caller())
    sim.run()
    assert proc.value == []
