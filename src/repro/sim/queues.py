"""FIFO message queues with cancellable blocking gets.

Mailboxes are the rendezvous between the network and the protocol
tasks that receive inside their own select loops (request kinds with a
direct handler never reach one).  ``get()`` returns an event; if an
item is already queued the event fires at the current instant,
otherwise the caller is enqueued as a waiter.  A waiter can be
*cancelled* (e.g. when it loses an ``AnyOf`` race against a timer) in
which case it never consumes an item — without this, select-style
loops would silently eat messages.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .events import _PENDING, Event

_new = object.__new__


class GetEvent(Event):
    """A pending ``get`` on a :class:`MessageQueue`."""

    __slots__ = ("_queue",)

    def __init__(self, queue: "MessageQueue"):
        # the ".get" suffix is precomputed once per queue — gets are
        # issued on every receive, so no per-event string formatting
        self.sim = queue.sim
        self.name = queue._get_name
        self.callbacks = None
        self._value = _PENDING
        # _ok is pre-set: MessageQueue.put's inlined succeed relies on
        # it (a pending get only ever succeeds)
        self._ok = True
        self._processed = False
        self._cancelled = False
        self._slot = -1
        self._queue = queue

    def cancel(self) -> None:
        if self._value is not _PENDING:
            if not self._processed and not self._cancelled:
                # The get already consumed an item but lost a composite
                # race before delivery: un-consume.  The item returns to
                # the FRONT of the queue so FIFO order is preserved, and
                # the event is marked cancelled so the kernel skips it.
                self._queue._items.appendleft(self._value)
                self.callbacks = None
                self._cancelled = True
                sim = self.sim
                sim._slots[self._slot] = None
                count = sim._cancelled_count + 1
                sim._cancelled_count = count
                if count >= sim._compact_min and count * 2 > len(sim._queue):
                    sim._compact()
            return
        try:
            self._queue._waiters.remove(self)
        except ValueError:
            pass
        self.callbacks = None


class MessageQueue:
    """Unbounded FIFO of items with event-based consumption."""

    __slots__ = ("sim", "name", "_get_name", "_items", "_waiters")

    def __init__(self, sim, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._get_name = f"{name}.get"
        self._items: deque[Any] = deque()
        self._waiters: list[GetEvent] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest live waiter, if any."""
        waiters = self._waiters
        while waiters:
            waiter = waiters.pop(0)
            if waiter._value is _PENDING:
                # inlined waiter.succeed(item): puts run on every
                # message delivery (``_ok`` is already True on a
                # pending get)
                waiter._value = item
                sim = self.sim
                seq = sim._seq
                sim._seq = seq + 1
                free = sim._free
                if free:
                    slot = free.pop()
                    sim._slots[slot] = waiter
                else:
                    slot = len(sim._slots)
                    sim._slots.append(waiter)
                waiter._slot = slot
                sim._ready.append((sim._now, (1 << 53) | (seq << 1), slot))
                return
        self._items.append(item)

    def get(self) -> GetEvent:
        """An event that fires with the next item."""
        # Inlined GetEvent.__init__ (kept in lock-step with the class):
        # a get is issued on every receive-loop iteration.
        event = _new(GetEvent)
        event.sim = self.sim
        event.name = self._get_name
        event.callbacks = None
        event._value = _PENDING
        event._ok = True
        event._processed = False
        event._cancelled = False
        event._slot = -1
        event._queue = self
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._waiters.append(event)
        return event

    def get_matching(self, predicate: Callable[[Any], bool]) -> Optional[Any]:
        """Synchronously remove and return the first queued item matching
        ``predicate``, or ``None`` if no queued item matches."""
        for index, item in enumerate(self._items):
            if predicate(item):
                del self._items[index]
                return item
        return None

    def clear(self) -> None:
        """Drop queued items and orphan all waiters (used on crash)."""
        self._items.clear()
        for waiter in self._waiters:
            if waiter._value is _PENDING:
                waiter.callbacks = None
        self._waiters.clear()

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (for assertions in tests)."""
        return list(self._items)
