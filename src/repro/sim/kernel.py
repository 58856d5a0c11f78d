"""The deterministic discrete-event simulation core.

All model time is a float; ties are broken by ``(time, priority,
sequence-number)`` so that two runs with the same seed replay the exact
same interleaving.  There is no wall-clock anywhere in the kernel, which
is what makes adversarially timed failure injection reproducible.

The dispatch loop is the hottest code in the repository — every message
hop, timer, and lock grant passes through it — so the scheduled queue
uses a *flat encoding* instead of object-per-entry bookkeeping:

* the heap holds packed ``(time, key, slot)`` tuples, where ``key``
  folds the priority, the sequence number, and the entry kind into one
  integer (``priority << 53 | seq << 1 | kind`` — the kind bit never
  influences ordering because sequence numbers are unique, so the total
  order is still exactly ``(time, priority, seq)`` in one comparison);
* ``slot`` indexes a preallocated slot table (``_slots``) holding the
  event views; retired slots go on a free list and are reused, so the
  table stops growing once the run reaches steady state;
* the kind bit tags entries whose value is materialized at pop time
  (timeouts), so dispatch never attribute-probes the event class;
* cancellation clears the slot (``_slots[i] = None``) — the dispatch
  loop skips dead slots lazily, and once they pile up past the
  compaction threshold the heap is rebuilt without them (pop order is
  unaffected: it is fixed by the entry tuples, not the heap layout);
* *same-instant* NORMAL-priority triggers (message deliveries,
  condition wins, process completions — the majority of all entries in
  a message-passing workload) skip the heap entirely: they land on the
  ``_ready`` FIFO, which is sorted by construction — the clock never
  moves backwards and sequence numbers only grow, so appends arrive in
  ``(time, key)`` order — and the dispatch loop merges the FIFO with
  the heap by comparing their heads.  An O(1) append/popleft replaces
  an O(log n) sift for roughly half of all scheduling traffic.

Events themselves are thin slotted views (see :mod:`repro.sim.events`):
no per-event name formatting, no callback-list allocation until a
second callback actually arrives.  None of this changes observable
semantics: dispatch order is the total order ``(time, priority, seq)``.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Optional

from .errors import EmptySchedule, ProcessCrashed, StopSimulation
from .events import _PENDING, AllOf, AnyOf, Event, Timeout
from .process import EventGenerator, Process

#: default lazy-deletion compaction threshold: rebuild the heap once at
#: least this many cancelled entries linger *and* they outnumber live
#: ones (constructor knob ``compact_min`` overrides per instance)
_COMPACT_MIN = 512

#: heap-entry ``kind`` tags
_KIND_PLAIN = 0    #: value already set; just run callbacks
_KIND_DELAYED = 1  #: timeout: materialize the held-aside value at pop

_new = object.__new__


class Simulator:
    """Event queue, clock, and process factory."""

    __slots__ = ("_now", "_queue", "_ready", "_seq", "_slots", "_free",
                 "_active_process", "_pending_crashes", "_cancelled_count",
                 "_compact_min", "strict", "crashes", "dispatched",
                 "trace_hook")

    def __init__(self, start: float = 0.0, compact_min: int = _COMPACT_MIN):
        if compact_min < 0:
            raise ValueError(f"negative compact_min: {compact_min}")
        self._now = float(start)
        #: packed schedule: (time, priority<<53|seq<<1|kind, slot) tuples
        self._queue: list[tuple[float, int, int]] = []
        #: same-instant NORMAL-priority entries, sorted by construction
        #: (appends happen in (time, key) order); merged with the heap
        #: at dispatch by comparing heads
        self._ready: deque[tuple[float, int, int]] = deque()
        self._seq = 0
        #: slot table: scheduled event views; None marks a cancelled or
        #: vacant slot awaiting reuse through the free list
        self._slots: list[Optional[Event]] = []
        self._free: list[int] = []
        self._active_process: Optional[Process] = None
        self._pending_crashes: list[ProcessCrashed] = []
        #: cancelled entries still sitting in the heap (lazy deletion)
        self._cancelled_count = 0
        #: rebuild threshold — 0 compacts as soon as cancelled entries
        #: hold the majority, a huge value never compacts (pure lazy)
        self._compact_min = compact_min
        #: if False, crashed processes are recorded but do not abort run()
        self.strict = True
        self.crashes: list[ProcessCrashed] = []
        #: total events dispatched by this simulator (deterministic for a
        #: seeded run; the numerator of every events/sec measurement)
        self.dispatched = 0
        #: optional dispatch hook ``(time, event) -> None`` for tracing;
        #: None (the default) costs one attribute check per step
        self.trace_hook: Optional[Any] = None

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current model time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories -----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh untriggered one-shot event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """An event firing ``delay`` units from now."""
        # Inlined Timeout.__init__ (kept in lock-step with events.py):
        # timeouts are allocated on every message hop and retry loop,
        # so the factory skips the constructor frame.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = _new(Timeout)
        event.sim = self
        event.name = name
        event.callbacks = None
        event._value = _PENDING
        event._processed = False
        event._cancelled = False
        event.delay = delay
        event._delayed_value = value
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            slot = free.pop()
            self._slots[slot] = event
        else:
            slot = len(self._slots)
            self._slots.append(event)
        event._slot = slot
        heappush(self._queue,
                 (self._now + delay, (1 << 53) | (seq << 1) | 1, slot))
        return event

    def process(self, generator: EventGenerator, name: str = "") -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name)

    def any_of(self, events) -> AnyOf:
        """Composite event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        """Composite event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------------

    def _push(self, event: Event, when: float, priority: int,
              kind: int) -> None:
        """Reserve a slot for ``event`` and push its packed entry.

        The hot constructors (``Event.succeed``, ``Timeout.__init__``)
        inline this; it exists for cold paths and subclasses.
        """
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            slot = free.pop()
            self._slots[slot] = event
        else:
            slot = len(self._slots)
            self._slots.append(event)
        event._slot = slot
        heappush(self._queue,
                 (when, (priority << 53) | (seq << 1) | kind, slot))

    def _cancel_slot(self, slot: int) -> None:
        """Clear a scheduled entry's slot (lazy deletion) and compact
        the heap once dead entries dominate.  The hot cancellation
        sites (timeouts, queue gets) inline the clear-and-count part
        and only call :meth:`_compact` past the threshold."""
        self._slots[slot] = None
        count = self._cancelled_count + 1
        self._cancelled_count = count
        if count >= self._compact_min and count * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap (and the ready FIFO) without cancelled
        entries, freeing their slots.  In-place (``queue[:] = live``)
        so the dispatch loop's local aliases stay valid; pop order is
        unaffected — it is fixed by the entry tuples, not the heap
        layout, and filtering the FIFO preserves its sort."""
        queue = self._queue
        slots = self._slots
        free_append = self._free.append
        live = []
        live_append = live.append
        for entry in queue:
            if slots[entry[2]] is None:
                free_append(entry[2])
            else:
                live_append(entry)
        queue[:] = live
        heapify(queue)
        ready = self._ready
        if ready:
            survivors = []
            for entry in ready:
                if slots[entry[2]] is None:
                    free_append(entry[2])
                else:
                    survivors.append(entry)
            if len(survivors) != len(ready):
                ready.clear()
                ready.extend(survivors)
        self._cancelled_count = 0

    def _report_crash(self, crash: ProcessCrashed) -> None:
        self.crashes.append(crash)
        if self.strict:
            self._pending_crashes.append(crash)

    # -- execution ------------------------------------------------------------

    def _pop_live(self):
        """Pop the next live ``(entry, event, from_ready)``, merging the
        heap with the ready FIFO and discarding cancelled slots, or
        ``None`` when both are empty.  The popped entry's slot stays
        reserved — callers either dispatch (and free) it or push the
        entry back untouched (``peek``, horizon overshoot)."""
        queue = self._queue
        ready = self._ready
        slots = self._slots
        free = self._free
        while True:
            if ready:
                if queue and queue[0] < ready[0]:
                    entry = heappop(queue)
                    from_ready = False
                else:
                    entry = ready.popleft()
                    from_ready = True
            elif queue:
                entry = heappop(queue)
                from_ready = False
            else:
                return None
            event = slots[entry[2]]
            if event is None:
                free.append(entry[2])
                self._cancelled_count -= 1
                continue
            return entry, event, from_ready

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        popped = self._pop_live()
        if popped is None:
            return float("inf")
        entry, _event, from_ready = popped
        if from_ready:
            self._ready.appendleft(entry)
        else:
            heappush(self._queue, entry)
        return entry[0]

    def step(self) -> None:
        """Process exactly one event."""
        popped = self._pop_live()
        if popped is None:
            raise EmptySchedule("event queue is empty")
        entry, event, _from_ready = popped
        self._slots[entry[2]] = None
        self._free.append(entry[2])
        self._now = entry[0]
        self.dispatched += 1
        if self.trace_hook is not None:
            self.trace_hook(entry[0], event)
        if entry[1] & 1 == _KIND_DELAYED and event._value is _PENDING:
            event._ok = True
            event._value = event._delayed_value
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks is not None:
            if callbacks.__class__ is list:
                for callback in callbacks:
                    callback(event)
            else:
                callbacks(event)
        elif not event._ok and not getattr(event, "_defused", False):
            # A failure nobody waited for: surface it.
            value = event._value
            if isinstance(value, BaseException):
                raise value
            raise RuntimeError(f"unhandled failed event {event!r}: {value!r}")
        if self._pending_crashes:
            raise self._pending_crashes.pop(0)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until a horizon time, an event fires, or the queue empties.

        * ``until`` is a number: stop when the clock would pass it.
        * ``until`` is an :class:`Event`: stop when it fires and return
          its value (a failed event re-raises its exception).
        * ``until`` is ``None``: run until no events remain.
        """
        stop_event: Optional[Event] = None
        horizon = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                raise RuntimeError(f"{until!r} already processed")
            stop_event.add_callback(self._stop_on)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"horizon {horizon} is in the past (now={self._now})"
                )

        # The dispatch loop proper.  Everything reachable per iteration
        # is a local: the heap (compaction mutates it in place, so the
        # alias stays valid), the slot table, the free list, and the
        # heap primitives.  ``dispatched`` accumulates locally and is
        # flushed on every exit path.
        queue = self._queue
        ready = self._ready
        ready_popleft = ready.popleft
        slots = self._slots
        free_append = self._free.append
        pending_crashes = self._pending_crashes
        pop = heappop
        pending = _PENDING
        steps = 0
        try:
            while True:
                # Merge the ready FIFO with the heap: both are sorted,
                # so the smaller head is the global minimum.
                if ready:
                    if queue and queue[0] < ready[0]:
                        entry = pop(queue)
                    else:
                        entry = ready_popleft()
                elif queue:
                    entry = pop(queue)
                else:
                    break
                when, key, slot = entry
                event = slots[slot]
                if event is None:
                    free_append(slot)
                    self._cancelled_count -= 1
                    continue
                if when > horizon:
                    # Not due yet: put it back for the next run() call
                    # (the slot stays reserved).  Only heap entries can
                    # overshoot — FIFO entries fire at or before `now`,
                    # which never exceeds the horizon.
                    heappush(queue, entry)
                    self._now = horizon
                    return None
                slots[slot] = None
                free_append(slot)
                self._now = when
                steps += 1
                trace = self.trace_hook
                if trace is not None:
                    trace(when, event)
                if key & 1 and event._value is pending:  # delayed kind
                    event._ok = True
                    event._value = event._delayed_value
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks is not None:
                    if callbacks.__class__ is list:
                        for callback in callbacks:
                            callback(event)
                    else:
                        callbacks(event)
                elif not event._ok and not getattr(event, "_defused", False):
                    value = event._value
                    if isinstance(value, BaseException):
                        raise value
                    raise RuntimeError(
                        f"unhandled failed event {event!r}: {value!r}"
                    )
                if pending_crashes:
                    raise pending_crashes.pop(0)
            # Queue empty.
            if stop_event is not None:
                raise EmptySchedule(
                    f"queue empty before {stop_event!r} fired"
                )
            if horizon != float("inf"):
                # Advance to the horizon even with nothing left to do,
                # so callers composing successive run(until=t) calls
                # never act "in the past".
                self._now = horizon
            return None
        except StopSimulation as stop:
            if (stop_event is not None and stop_event.triggered
                    and not stop_event.ok):
                raise stop_event.value from None
            return stop.value
        finally:
            self.dispatched += steps

    def _stop_on(self, event: Event) -> None:
        if not event.ok:
            event.defuse()
        raise StopSimulation(event.value)


# re-exported for introspection/tests; heapq is the only dependency the
# flat encoding leans on
__all__ = ["Simulator", "_COMPACT_MIN"]
assert heapq  # keep the module import alive for monkeypatching tests
