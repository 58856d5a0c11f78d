"""The shared fan-out transport primitive.

Every layer of the protocol speaks the same ``send … receive …
[no-response: …]`` shape from the paper's figures: issue the same kind
of request to a set of processors in parallel, wait under one deadline,
and treat silence as evidence about the view.  All of them route
through primitives owned by the :class:`~repro.node.processor.
Processor`, and all of those share one reply-routing mechanism: the
processor's ``_reply_waiters`` map from request ``msg_id`` to a
callback, which delivery invokes directly with the reply.

* :class:`ScatterCall` — parallel RPCs under one deadline (``scatter``
  / ``gather``, or the one-shot ``scatter_gather``).  Every request
  leaves when the call is created; each reply lands in the call's
  result map from within its own delivery, a single deadline timer
  covers every silent target, and the gatherer is woken by exactly one
  event.  A caller-supplied *quorum predicate* enables early exit: it
  is checked on every arrival, and once satisfied the stragglers' reply
  routes are withdrawn (their replies count as late) and the partial
  map is returned (``quorum_call``).
* ``rpc`` — one request, one waiter event, one deadline timer.
* ``broadcast_collect`` — one-way broadcast followed by a timed
  collection window, the Figs. 5/7 pattern where replies are *not* RPC
  responses but independent messages: a window collector installed on
  the processor is fed by delivery, and the window ends on one timeout.

No fan-out path creates a process per target.  A crash of the calling
processor clears its reply routes, but never strands a gatherer: the
call's deadline still fires and reports the silent targets as ``None``.

:class:`TransportStats` counts fan-outs, per-target RPCs, silences and
early exits, and records the model-time duration of every completed
gather — the fan-out latency histogram the experiment harness reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional


class NoResponse(Exception):
    """An expected reply did not arrive within the timeout.

    This is the trigger for the paper's ``[no-response: Create-new-VP;
    ...]`` exception handlers: a missing reply is evidence that the
    local view no longer matches the can-communicate relation.
    """

    def __init__(self, dst: int, kind: str):
        super().__init__(f"no response from {dst} to {kind!r}")
        self.dst = dst
        self.kind = kind


#: predicate over the partial result map; True = stop waiting
QuorumPredicate = Callable[[Dict[int, Any]], bool]


@dataclass
class TransportStats:
    """Per-processor fan-out accounting (cumulative, crash-proof)."""

    #: completed or started scatter calls
    fanouts: int = 0
    #: broadcast_collect rounds
    broadcasts: int = 0
    #: individual request RPCs issued by scatter calls
    rpcs: int = 0
    #: RPCs that timed out without a reply
    no_responses: int = 0
    #: gathers cut short by a satisfied quorum predicate
    early_exits: int = 0
    #: scatter calls whose target set came from a directory lookup
    routed_fanouts: int = 0
    #: replies that arrived after their waiter timed out or was withdrawn
    late_replies: int = 0
    #: model-time duration of each completed gather
    fanout_latencies: List[float] = field(default_factory=list)


class ScatterCall:
    """An in-flight parallel RPC fan-out.

    Created by :meth:`Processor.scatter`; every request is sent at
    once.  Call :meth:`gather` (a generator — drive it with ``yield
    from``) to wait for the result map ``{target: payload}`` where
    ``None`` marks a silent target.  Creating the call and gathering
    later lets a caller do local work (e.g. its own vote) while the
    requests are in flight; replies that arrive meanwhile are already
    in the map when the gather starts.
    """

    def __init__(self, processor, targets: Iterable[int], kind: str,
                 payload_for: Callable[[int], Optional[Mapping[str, Any]]],
                 *, timeout: float, label: Optional[str] = None):
        self.processor = processor
        self.sim = sim = processor.sim
        self.started_at = sim.now
        stats = processor.transport
        stats.fanouts += 1
        self._targets: List[int] = []
        #: request msg_id -> target, for the replies still awaited
        self._pending: Dict[int, int] = {}
        self._results: Dict[int, Any] = {}
        self._quorum: Optional[QuorumPredicate] = None
        #: the gatherer's wakeup, created only if it has to wait
        self._waiter = None
        waiters = processor._reply_waiters
        on_reply = self._on_reply
        for server in targets:
            stats.rpcs += 1
            msg_id = processor.send(server, kind, payload_for(server)).msg_id
            waiters[msg_id] = on_reply
            self._pending[msg_id] = server
            self._targets.append(server)
        if self._pending:
            self._deadline = sim.timeout(timeout, name=label or kind)
            self._deadline.callbacks = self._on_deadline

    def _on_reply(self, message) -> None:
        self._results[self._pending.pop(message.reply_to)] = message.payload
        if not self._pending:
            self._finish()
        elif self._quorum is not None and self._quorum(self._results):
            self._exit_early()

    def _on_deadline(self, _event) -> None:
        waiters = self.processor._reply_waiters
        for msg_id, server in self._pending.items():
            waiters.pop(msg_id, None)
            self._results[server] = None
        self.processor.transport.no_responses += len(self._pending)
        self._pending.clear()
        self._finish()

    def _exit_early(self) -> None:
        """Withdraw the stragglers' reply routes and finish."""
        waiters = self.processor._reply_waiters
        for msg_id in self._pending:
            waiters.pop(msg_id, None)
        self._pending.clear()
        self.processor.transport.early_exits += 1
        self._finish()

    def _finish(self) -> None:
        self._deadline.cancel()
        if self._waiter is not None:
            self._waiter.succeed()

    def gather(self, quorum: Optional[QuorumPredicate] = None):
        """Generator: collect ``{target: payload_or_None}``.

        Without ``quorum``, waits until every target replied or the
        call's deadline passed.  With it, the predicate is evaluated on
        the partial result map after every arrival; once satisfied the
        partial map is returned — absent targets are simply missing
        keys, distinct from the explicit ``None`` of a timed-out target.
        Keys follow the target order either way.
        """
        if self._pending:
            self._quorum = quorum
            if quorum is not None and self._results and quorum(self._results):
                self._exit_early()
            else:
                self._waiter = self.sim.event()
                yield self._waiter
        self.processor.transport.fanout_latencies.append(
            self.sim.now - self.started_at)
        results = self._results
        return {server: results[server] for server in self._targets
                if server in results}
