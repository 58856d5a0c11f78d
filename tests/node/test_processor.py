"""Unit tests for the processor runtime."""

import random

import pytest

from repro.net import CommGraph, FixedLatency, Network
from repro.node import NoResponse, Processor
from repro.sim import Simulator


def build(n=3):
    sim = Simulator()
    graph = CommGraph(range(1, n + 1))
    net = Network(sim, graph, FixedLatency(1.0), random.Random(1))
    procs = {p: Processor(p, sim, net) for p in graph.nodes}
    return sim, graph, net, procs


def test_send_and_receive_by_kind():
    sim, _, _, procs = build()
    got = []

    def listener():
        message = yield procs[2].receive("ping")
        got.append((message.src, message.payload["n"], sim.now))

    sim.process(listener())
    procs[1].send(2, "ping", {"n": 7})
    sim.run()
    assert got == [(1, 7, 1.0)]


def test_mailboxes_separate_kinds():
    sim, _, _, procs = build()
    got = []

    def listener():
        message = yield procs[2].receive("beta")
        got.append(message.kind)

    sim.process(listener())
    procs[1].send(2, "alpha")
    procs[1].send(2, "beta")
    sim.run()
    assert got == ["beta"]
    assert [m.kind for m in procs[2].mailbox("alpha").peek_all()] == ["alpha"]


def test_rpc_roundtrip():
    sim, _, _, procs = build()

    def server():
        while True:
            request = yield procs[2].receive("echo")
            procs[2].reply(request, "echo-reply", {"text": request.payload["text"]})

    def client():
        response = yield from procs[1].rpc(2, "echo", {"text": "hi"}, timeout=5.0)
        return (response.payload["text"], sim.now)

    sim.process(server())
    proc = sim.process(client())
    sim.run()
    assert proc.value == ("hi", 2.0)  # 1.0 each way


def test_rpc_no_response_raises():
    sim, graph, _, procs = build()
    graph.cut_link(1, 2)

    def client():
        try:
            yield from procs[1].rpc(2, "echo", {}, timeout=3.0)
        except NoResponse as exc:
            return (exc.dst, sim.now)

    proc = sim.process(client())
    sim.run()
    assert proc.value == (2, 3.0)


def test_late_reply_after_timeout_is_dropped():
    sim, _, _, procs = build()

    def slow_server():
        request = yield procs[2].receive("ask")
        yield sim.timeout(10.0)  # reply far too late
        procs[2].reply(request, "ask-reply")

    outcomes = []

    def client():
        try:
            yield from procs[1].rpc(2, "ask", {}, timeout=2.0)
        except NoResponse:
            outcomes.append("timeout")
        # The late reply must not land in any mailbox afterwards.

    sim.process(slow_server())
    sim.process(client())
    sim.run()
    assert outcomes == ["timeout"]
    assert len(procs[1].mailbox("ask-reply")) == 0


def test_crash_kills_tasks_and_clears_mailboxes():
    sim, graph, _, procs = build()
    ticks = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    procs[2].add_task("ticker", ticker)
    procs[2].start()
    procs[1].send(2, "ping")
    sim.run(until=3.5)
    graph.crash_node(2)
    procs[2].crash()
    count_at_crash = len(ticks)
    sim.run(until=10.0)
    assert len(ticks) == count_at_crash
    assert len(procs[2].mailbox("ping")) == 0


def test_recover_respawns_tasks_and_runs_hooks():
    sim, graph, _, procs = build()
    ticks = []
    hooks = []

    def ticker():
        while True:
            yield sim.timeout(1.0)
            ticks.append(sim.now)

    procs[2].add_task("ticker", ticker)
    procs[2].on_crash(lambda: hooks.append("crash"))
    procs[2].on_recover(lambda: hooks.append("recover"))
    procs[2].start()
    sim.run(until=2.5)
    procs[2].crash()
    sim.run(until=5.0)
    procs[2].recover()
    sim.run(until=7.5)
    assert hooks == ["crash", "recover"]
    assert any(t > 5.0 for t in ticks)
    assert all(not (2.5 < t <= 5.0) for t in ticks)


def test_crashed_processor_drops_deliveries():
    sim, graph, _, procs = build()
    procs[2].crash()
    procs[1].send(2, "ping")
    sim.run()
    assert len(procs[2].mailbox("ping")) == 0


def test_messages_to_self_are_delivered():
    sim, _, _, procs = build()
    got = []

    def listener():
        message = yield procs[1].receive("note")
        got.append(message.src)

    sim.process(listener())
    procs[1].send(1, "note")
    sim.run()
    assert got == [1]


def test_duplicate_task_name_rejected():
    sim, _, _, procs = build()
    procs[1].add_task("t", lambda: iter(()))
    with pytest.raises(KeyError):
        procs[1].add_task("t", lambda: iter(()))


def test_store_survives_crash():
    sim, _, _, procs = build()
    procs[1].store.place("x", initial=42, date=(1, 1))
    procs[1].crash()
    procs[1].recover()
    assert procs[1].store.read("x") == (42, (1, 1))


# -- request servers ------------------------------------------------------

def test_serve_runs_the_handler_inside_the_delivery():
    sim, _, _, procs = build()
    got = []
    procs[2].serve("ping", lambda message: got.append((message.src, sim.now)))
    procs[1].send(2, "ping")
    sim.run()
    assert got == [(1, 1.0)]
    # the delivery is the only dispatch: no mailbox, no wakeup
    assert sim.dispatched == 1
    assert len(procs[2].mailbox("ping")) == 0


def test_serve_with_process_spawns_one_handler_per_request():
    sim, _, _, procs = build()
    done = []

    def handler(message):
        yield sim.timeout(2.0)
        done.append((message.payload["n"], sim.now))

    procs[2].serve("work", handler, process="worker")
    procs[1].send(2, "work", {"n": 1})
    procs[1].send(2, "work", {"n": 2})
    sim.run()
    assert done == [(1, 3.0), (2, 3.0)]


def test_duplicate_server_kind_rejected():
    sim, _, _, procs = build()
    procs[1].serve("ping", lambda message: None)
    with pytest.raises(KeyError):
        procs[1].serve("ping", lambda message: None)


def test_serve_handler_never_runs_while_down_or_before_recover_hooks():
    sim, graph, _, procs = build()
    p2 = procs[2]
    log = []
    p2.on_recover(lambda: log.append(("recover-hook", sim.now)))
    p2.serve("ping", lambda message: log.append(
        ("handled", message.payload["n"], sim.now)))
    procs[1].send(2, "ping", {"n": 1})       # lands at 1.0, while up
    sim.run(until=1.5)
    p2.crash()
    procs[1].send(2, "ping", {"n": 2})       # lands at 2.5, while down
    sim.run(until=3.0)
    p2.recover()
    procs[1].send(2, "ping", {"n": 3})       # lands at 4.0, after recovery
    sim.run()
    assert log == [("handled", 1, 1.0), ("recover-hook", 3.0),
                   ("handled", 3, 4.0)]
