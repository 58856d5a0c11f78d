"""The processor runtime hosting protocol tasks.

A :class:`Processor` owns:

* request servers — ``serve(kind, handler)`` routes every delivered
  ``kind`` message straight to its handler, which answers inline or
  spawns a handler process;
* typed mailboxes — one FIFO per message kind that has no server, for
  tasks that ``receive`` inside their own select loops;
* the fan-out primitives implementing the paper's ``send ... receive
  ... [no-response: ...]`` pattern (Figs. 9–11) — ``rpc``, the scatter
  family and ``broadcast_collect`` (see :mod:`repro.node.transport`),
  whose replies delivery hands directly to the waiting call;
* a task registry: protocol layers register named generator factories;
  tasks are (re)spawned on start/recover and killed on crash, matching
  the paper's model where a crash wipes all volatile state but durable
  storage (the :class:`~repro.node.storage.CopyStore`) survives.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from ..net.message import Message
from ..net.network import Network
from ..sim import Event, MessageQueue, Process, Simulator
from .storage import StorageEngine
from .transport import (  # noqa: F401  (NoResponse re-exported)
    NoResponse, QuorumPredicate, ScatterCall, TransportStats,
)

TaskFactory = Callable[[], Any]  # returns a generator


class Processor:
    """One node of the distributed system."""

    def __init__(self, pid: int, sim: Simulator, network: Network,
                 store: Optional[StorageEngine] = None):
        self.pid = pid
        self.sim = sim
        self.network = network
        #: durable storage — survives crashes; the cluster may supply an
        #: engine configured with checkpoint/compaction policy
        self.store = store if store is not None else StorageEngine(pid)
        self.alive = True
        #: fan-out accounting for the shared transport primitives
        self.transport = TransportStats()
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None
        self._mailboxes: Dict[str, MessageQueue] = {}
        #: request msg_id -> callback taking the reply (every fan-out
        #: primitive routes its replies through this one map)
        self._reply_waiters: Dict[int, Callable[[Message], Any]] = {}
        #: reply kind -> the open broadcast_collect window's collector,
        #: or None between windows (stale replies are then dropped)
        self._collectors: Dict[str, Optional[Callable[[Message], None]]] = {}
        #: request kind -> handler, called from the delivery itself
        self._servers: Dict[str, Callable[[Message], None]] = {}
        self._task_factories: Dict[str, TaskFactory] = {}
        self._tasks: Dict[str, Process] = {}
        self._crash_hooks: list[Callable[[], None]] = []
        self._recover_hooks: list[Callable[[], None]] = []
        network.register(pid, self._on_delivery)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"Processor({self.pid}, {state})"

    # -- messaging ------------------------------------------------------------

    def send(self, dst: int, kind: str, payload: Mapping[str, Any]
             | None = None) -> Message:
        """Fire-and-forget send; returns the envelope (for reply matching)."""
        message = Message(src=self.pid, dst=dst, kind=kind,
                          payload=payload or {}, sent_at=self.sim.now,
                          msg_id=self.network.next_msg_id())
        self.network.send(message)
        return message

    def reply(self, request: Message, kind: str,
              payload: Mapping[str, Any] | None = None) -> None:
        """Respond to ``request``; routed back to its ``rpc`` waiter."""
        response = Message(
            src=self.pid, dst=request.src, kind=kind,
            payload=payload or {}, reply_to=request.msg_id,
            sent_at=self.sim.now, msg_id=self.network.next_msg_id(),
        )
        self.network.send(response)

    def rpc(self, dst: int, kind: str, payload: Mapping[str, Any] | None,
            timeout: float):
        """Generator: request/response with a deadline.

        Use as ``response = yield from processor.rpc(...)``.  Raises
        :class:`NoResponse` when no reply arrives within ``timeout`` —
        the caller decides whether that aborts the operation, retries
        elsewhere, or triggers a new virtual partition.  One waiter
        event and one deadline timer: the reply route fires the waiter
        from within the reply's delivery.
        """
        msg_id = self.send(dst, kind, payload).msg_id
        waiter = Event(self.sim)
        waiters = self._reply_waiters
        waiters[msg_id] = waiter.succeed

        def expire(_event) -> None:
            if not waiter.triggered:
                waiters.pop(msg_id, None)
                waiter.succeed(None)

        deadline = self.sim.timeout(timeout)
        deadline.callbacks = expire
        try:
            response = yield waiter
        finally:
            waiters.pop(msg_id, None)
            deadline.cancel()
        if response is None:
            raise NoResponse(dst, kind)
        return response

    def mailbox(self, kind: str) -> MessageQueue:
        """The FIFO of unconsumed ``kind`` messages (created on demand)."""
        if kind not in self._mailboxes:
            self._mailboxes[kind] = MessageQueue(
                self.sim, name=f"p{self.pid}.{kind}"
            )
        return self._mailboxes[kind]

    def receive(self, kind: str):
        """Event firing with the next ``kind`` message."""
        return self.mailbox(kind).get()

    def serve(self, kind: str, handler: Callable[[Message], Any], *,
              process: Optional[str] = None) -> None:
        """Route every delivered ``kind`` request to ``handler``.

        The handler runs inside the delivery, so it costs no kernel
        event of its own and answers inline.  With ``process``, the
        handler is a generator function instead, and each request runs
        it in a one-shot process of that name (for work that has to
        wait).  Servers are permanent, like tasks, but delivery skips
        them while the processor is down — a handler never runs before
        the recover hooks have reset volatile state.
        """
        if kind in self._servers:
            raise KeyError(f"kind {kind!r} already served on {self.pid}")
        self._servers[kind] = handler if process is None else (
            lambda message: self.spawn(process, handler(message)))

    # -- fan-out primitives (see node/transport.py) ---------------------------

    def scatter(self, targets: Iterable[int], kind: str,
                payload_for: Callable[[int], Mapping[str, Any] | None],
                *, timeout: float,
                label: Optional[str] = None) -> ScatterCall:
        """Start parallel RPCs to ``targets``; gather the replies later.

        The two-phase form: requests go out now, the caller may do
        local work, then ``results = yield from call.gather()``.
        """
        return ScatterCall(self, targets, kind, payload_for,
                           timeout=timeout, label=label)

    def scatter_to_copies(self, directory, obj: str, view: Iterable[int],
                          kind: str,
                          payload_for: Callable[[int],
                                                Mapping[str, Any] | None],
                          *, timeout: float, label: Optional[str] = None):
        """Directory-routed fan-out: resolve ``obj``'s copy-holders
        inside ``view`` through ``directory`` and scatter to them.

        Returns ``(targets, call)`` — the resolved holder list (sorted)
        and the in-flight :class:`ScatterCall`; the caller gathers when
        ready.  Counted separately from plain scatters so routed
        traffic is measurable per processor.
        """
        targets = directory.write_targets(obj, view)
        self.transport.routed_fanouts += 1
        call = self.scatter(targets, kind, payload_for,
                            timeout=timeout, label=label)
        return targets, call

    def scatter_gather(self, targets: Iterable[int], kind: str,
                       payload_for: Callable[[int], Mapping[str, Any] | None],
                       *, timeout: float,
                       quorum: Optional[QuorumPredicate] = None,
                       label: Optional[str] = None):
        """Generator: parallel RPCs to ``targets`` under one deadline.

        Returns ``{target: reply_payload_or_None}`` (None = silence).
        With ``quorum``, stops early once the predicate holds on the
        partial map (see :meth:`ScatterCall.gather`).
        """
        call = self.scatter(targets, kind, payload_for,
                            timeout=timeout, label=label)
        results = yield from call.gather(quorum=quorum)
        return results

    def quorum_call(self, targets: Iterable[int], kind: str,
                    payload_for: Callable[[int], Mapping[str, Any] | None],
                    *, timeout: float, quorum: QuorumPredicate,
                    label: Optional[str] = None):
        """Generator: ``scatter_gather`` with a required quorum predicate."""
        results = yield from self.scatter_gather(
            targets, kind, payload_for,
            timeout=timeout, quorum=quorum, label=label,
        )
        return results

    def broadcast_collect(self, targets: Iterable[int], kind: str,
                          payload: Mapping[str, Any] | None, *,
                          reply_kind: str, window: float,
                          accept: Callable[[Message], bool]):
        """Generator: one-way broadcast, then a timed collection window.

        The Figs. 5/7 pattern: send ``kind`` to every target, then for
        ``window`` time units hand each delivered ``reply_kind`` message
        to ``accept`` — which filters (return False to ignore) and may
        record per-arrival state (trace events, responder sets) at
        receipt time.  Returns the accepted messages.  A ``reply_kind``
        message delivered while no window is open is dropped: it
        answers a round that is over.
        """
        self.transport.broadcasts += 1
        collected: list[Message] = []

        def collect(message: Message) -> None:
            if accept(message):
                collected.append(message)

        self._collectors[reply_kind] = collect
        for dst in targets:
            self.send(dst, kind, payload)
        try:
            yield self.sim.timeout(window)
        finally:
            if self._collectors[reply_kind] is collect:
                self._collectors[reply_kind] = None
        return collected

    def _on_delivery(self, message: Message) -> None:
        if not self.alive:
            return
        if message.reply_to is not None:
            route = self._reply_waiters.pop(message.reply_to, None)
            if route is not None:
                route(message)
                return
            # Late or duplicate reply: nobody is waiting; drop it — but
            # visibly.  A steady stream of late replies means timeouts
            # are tuned below the real round-trip time.
            self.transport.late_replies += 1
            if self.tracer is not None:
                self.tracer.emit("msg.late-reply", pid=self.pid,
                                 src=message.src, kind=message.kind,
                                 reply_to=message.reply_to)
            return
        kind = message.kind
        handler = self._servers.get(kind)
        if handler is None:
            if kind not in self._collectors:
                self.mailbox(kind).put(message)
                return
            handler = self._collectors[kind]
            if handler is None:
                return  # no window open: it answers a finished round
        handler(message)

    # -- task management ----------------------------------------------------------

    def add_task(self, name: str, factory: TaskFactory) -> None:
        """Register a long-running protocol task (spawned by :meth:`start`)."""
        if name in self._task_factories:
            raise KeyError(f"task {name!r} already registered on {self.pid}")
        self._task_factories[name] = factory

    def on_crash(self, hook: Callable[[], None]) -> None:
        """Register a volatile-state reset hook, run on crash."""
        self._crash_hooks.append(hook)

    def on_recover(self, hook: Callable[[], None]) -> None:
        """Register a reinitialization hook, run on recovery."""
        self._recover_hooks.append(hook)

    def start(self) -> None:
        """Spawn all registered tasks (idempotent per task)."""
        for name, factory in self._task_factories.items():
            existing = self._tasks.get(name)
            if existing is not None and existing.is_alive:
                continue
            self._tasks[name] = self.sim.process(
                factory(), name=f"p{self.pid}.{name}"
            )

    def spawn(self, name: str, generator) -> Process:
        """Run a one-shot auxiliary process tied to this processor's life."""
        process = self.sim.process(generator, name=f"p{self.pid}.{name}")
        self._tasks[f"{name}#{id(process)}"] = process
        return process

    # -- failure model ------------------------------------------------------------

    def crash(self) -> None:
        """Omission failure: all tasks die, volatile state is lost.

        The durable :attr:`store` survives.  The caller (failure
        injector) is responsible for also marking the node down in the
        communication graph.
        """
        if not self.alive:
            return
        self.alive = False
        for process in self._tasks.values():
            if process.is_alive:
                process.kill()
        self._tasks = {
            name: process for name, process in self._tasks.items()
            if name in self._task_factories
        }
        for mailbox in self._mailboxes.values():
            mailbox.clear()
        self._reply_waiters.clear()
        for hook in self._crash_hooks:
            hook()

    def recover(self) -> None:
        """Restart after a crash: hooks run, then tasks respawn."""
        if self.alive:
            return
        self.alive = True
        for hook in self._recover_hooks:
            hook()
        self.start()
