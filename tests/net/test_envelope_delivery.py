"""Edge cases of batched envelope delivery.

In batched mode one envelope carries several logical messages, and its
single delivery event hands every one of them to the destination's
handler, in carry order.  These tests pin the corner behavior the
golden-trace pin cannot isolate: the dispatch cost of an envelope, a
destination dying mid-envelope, an in-flight cut killing the whole
envelope, duplicate replies riding one envelope, and trace ordering
within an envelope.
"""

import random

from repro.net import CommGraph, FixedLatency, Message, Network
from repro.node.processor import Processor
from repro.sim import Simulator


def build_net(window=0.5, n=3):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1),
                  batch_window=window)
    return sim, graph, net


def build_processors(window=0.5, n=2):
    sim, graph, net = build_net(window=window, n=n)
    procs = {pid: Processor(pid, sim, net) for pid in graph.nodes}
    return sim, graph, net, procs


class RecordingTracer:
    def __init__(self):
        self.events = []

    def emit(self, etype, **fields):
        self.events.append((etype, fields))


def test_envelope_delivers_in_carry_order_in_one_dispatch():
    sim, _, net = build_net()
    seen = []
    net.register(2, lambda m: seen.append(m.kind))
    for kind in ("a", "b", "c"):
        net.send(Message(src=1, dst=2, kind=kind))
    sim.run()
    # one envelope: its flush timer and its delivery are the only two
    # dispatches, and the three messages arrive in the order carried
    assert seen == ["a", "b", "c"]
    assert net.stats.envelopes == 1
    assert net.stats.delivered == 3
    assert sim.dispatched == 2


def test_destination_dying_mid_envelope_filters_the_rest():
    """The first carried message is served by a handler that crashes
    the processor; the remaining carried messages must be filtered by
    the aliveness check, exactly like separately-delivered ones."""
    sim, _, net, procs = build_processors()
    p2 = procs[2]
    got = []

    def handler(message):
        got.append(message.payload["i"])
        p2.alive = False  # crash point: mid-envelope, after one message

    p2.serve("data", handler)
    for i in range(3):
        procs[1].send(2, "data", {"i": i})
    sim.run()
    # network accounting sees the whole envelope; the dead processor
    # swallowed everything after the crash point
    assert net.stats.delivered == 3
    assert got == [0]
    assert len(p2.mailbox("data")) == 0


def test_in_flight_cut_drops_the_whole_envelope():
    sim, graph, net = build_net()
    seen = []
    net.register(2, seen.append)
    net.send(Message(src=1, dst=2, kind="a"))
    net.send(Message(src=1, dst=2, kind="b"))
    # sever the link while the envelope is in flight (after the 0.5
    # flush, before the 1.0 arrival)
    cut = sim.timeout(0.75)
    cut.add_callback(lambda _e: graph.cut_link(1, 2))
    sim.run()
    assert seen == []
    assert net.stats.dropped_in_flight == 2


def test_duplicate_replies_riding_one_envelope_count_late():
    """Two replies to the same RPC coalesce into one envelope: the
    first fires the waiter, the duplicate is filtered as a late reply —
    not delivered to a mailbox, not crashing the delivery."""
    sim, _, net, procs = build_processors()
    p1, p2 = procs[1], procs[2]
    outcome = {}

    def serve_ping(request):
        p2.reply(request, "pong", {"n": 1})
        p2.reply(request, "pong", {"n": 2})  # duplicate, same window

    def client():
        response = yield from p1.rpc(2, "ping", {}, timeout=10.0)
        outcome["reply"] = response.payload["n"]

    p2.serve("ping", serve_ping)
    sim.process(client(), name="client")
    sim.run()
    assert outcome["reply"] == 1
    assert p1.transport.late_replies == 1
    assert len(p1.mailbox("pong")) == 0


def test_per_message_traces_keep_carry_order_within_an_envelope():
    sim, _, net = build_net()
    net.tracer = tracer = RecordingTracer()
    net.register(2, lambda m: None)
    for kind in ("a", "b", "c"):
        net.send(Message(src=1, dst=2, kind=kind))
    sim.run()
    recvs = [(e, f) for e, f in tracer.events if e == "msg.recv"]
    # one msg.recv per carried message, in carry order, all stamped at
    # the envelope's single arrival instant
    assert [f["kind"] for _, f in recvs] == ["a", "b", "c"]
    sends = [f["seq"] for e, f in tracer.events if e == "msg.send"]
    assert [f["seq"] for _, f in recvs] == sends
