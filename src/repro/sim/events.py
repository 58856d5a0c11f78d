"""One-shot events: the unit of synchronization in the kernel.

An :class:`Event` moves through three states:

* *pending* — created, not yet triggered;
* *triggered* — a value (or exception) has been set and the event is
  scheduled for processing;
* *processed* — its callbacks have run.

Processes wait on events by ``yield``-ing them (see
:mod:`repro.sim.process`).  Composite events (:class:`AnyOf`,
:class:`AllOf`) let a process wait on several sources at once; losers
that support cancellation (e.g. queue gets, timers) are cancelled so
they do not fire later and steal items.

Events are allocated on every message hop, timer, and lock wait, so
they are deliberately *thin views* over the kernel's flat schedule:

* ``callbacks`` is polymorphic — ``None`` (none yet), a bare callable
  (the overwhelmingly common single-waiter case), or a list.  Most
  events never allocate a callback list at all.
* ``_slot`` is the event's index in the kernel slot table while an
  entry for it sits in the heap; cancellation clears the slot instead
  of touching the heap.
* names default to ``""`` and are only formatted on demand (``repr``);
  the hot paths never build f-strings.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, Optional

#: Scheduling priorities. Lower value runs first at equal timestamps.
URGENT = 0
NORMAL = 1

#: packed heap key layout: ``priority << 53 | seq << 1 | kind``.  The
#: kind bit (1 = delayed-value timeout) never affects ordering because
#: sequence numbers are unique, so one integer comparison reproduces
#: the (priority, seq) lexicographic order exactly.
_KEY_SHIFT = 53

_PENDING = object()


class Event:
    """A one-shot occurrence that callbacks and processes can wait on."""

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok",
                 "_processed", "_defused", "_cancelled", "_slot")

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        self.name = name
        #: None | callable | list of callables (in attach order)
        self.callbacks: Any = None
        self._value: Any = _PENDING
        #: set by the kernel once callbacks have been executed
        self._processed = False
        #: True once withdrawn while scheduled; the kernel skips it
        self._cancelled = False
        #: slot-table index while scheduled; -1 when not in the heap
        self._slot = -1
        # ``_ok`` and ``_defused`` are deliberately NOT initialized:
        # every trigger path (succeed/fail/materialize)
        # stores ``_ok`` before anything reads it, and ``_defused`` is
        # stored by defuse() and read (via getattr) only on the
        # unhandled-failure path.  Two fewer stores per event matters:
        # events are allocated on every message hop.

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once a value or an exception has been set."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception (once triggered)."""
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # inlined Simulator._push: succeed() runs once per message hop
        # and lock grant, so the extra call is worth skipping
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        free = sim._free
        if free:
            slot = free.pop()
            sim._slots[slot] = self
        else:
            slot = len(sim._slots)
            sim._slots.append(self)
        self._slot = slot
        if priority == NORMAL:
            # same-instant NORMAL triggers keep FIFO order — skip the heap
            sim._ready.append((sim._now, (1 << 53) | (seq << 1), slot))
        else:
            heappush(sim._queue,
                     (sim._now, (priority << 53) | (seq << 1), slot))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        free = sim._free
        if free:
            slot = free.pop()
            sim._slots[slot] = self
        else:
            slot = len(sim._slots)
            sim._slots.append(self)
        self._slot = slot
        if priority == NORMAL:
            sim._ready.append((sim._now, (1 << 53) | (seq << 1), slot))
        else:
            heappush(sim._queue,
                     (sim._now, (priority << 53) | (seq << 1), slot))
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel will not re-raise it."""
        self._defused = True

    # -- cancellation ----------------------------------------------------

    def cancel(self) -> None:
        """Withdraw interest in a pending event.

        The base event simply drops its callbacks; subclasses that hold
        external registrations (queue waiters, timers) override this to
        release them.  Cancelling a triggered event is a no-op.
        """
        if self._value is _PENDING:
            self.callbacks = None

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when this event is processed.

        A triggered-but-unprocessed event still accepts callbacks: the
        kernel picks them up when it pops the event.
        """
        if self._processed:
            raise RuntimeError(f"{self!r} already processed")
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = callback
        elif cbs.__class__ is list:
            cbs.append(callback)
        else:
            self.callbacks = [cbs, callback]

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = (
            "processed" if self._processed
            else "triggered" if self._value is not _PENDING
            else "pending"
        )
        return f"<{label} {state} at {id(self):#x}>"


def _attach(event: Event, callback: Callable[[Event], None]) -> None:
    """Append ``callback`` to an event's polymorphic callback field
    without the ``add_callback`` state checks (internal hot path)."""
    cbs = event.callbacks
    if cbs is None:
        event.callbacks = callback
    elif cbs.__class__ is list:
        cbs.append(callback)
    else:
        event.callbacks = [cbs, callback]


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    The value is held aside and only materialized when the kernel pops
    the event (heap entries carry the DELAYED kind tag), so
    ``triggered`` stays false until the timeout actually occurs in
    model time — composite conditions rely on this.
    """

    __slots__ = ("delay", "_delayed_value")

    def __init__(self, sim, delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.sim = sim
        self.name = name
        self.callbacks = None
        self._value = _PENDING
        self._processed = False
        self._cancelled = False
        self.delay = delay
        self._delayed_value = value
        # inlined Simulator._push with the DELAYED kind tag
        seq = sim._seq
        sim._seq = seq + 1
        free = sim._free
        if free:
            slot = free.pop()
            sim._slots[slot] = self
        else:
            slot = len(sim._slots)
            sim._slots.append(self)
        self._slot = slot
        heappush(sim._queue,
                 (sim._now + delay, (NORMAL << 53) | (seq << 1) | 1, slot))

    def cancel(self) -> None:
        # Lazy deletion: clear the slot so the kernel discards the heap
        # entry when popped; compact once dead entries dominate.
        if self._processed or self._cancelled:
            return
        self.callbacks = None
        self._cancelled = True
        sim = self.sim
        sim._slots[self._slot] = None
        count = sim._cancelled_count + 1
        sim._cancelled_count = count
        if count >= sim._compact_min and count * 2 > len(sim._queue):
            sim._compact()

    def __repr__(self) -> str:
        label = self.name or f"timeout({self.delay})"
        state = (
            "processed" if self._processed
            else "triggered" if self._value is not _PENDING
            else "pending"
        )
        return f"<{label} {state} at {id(self):#x}>"


class ConditionValue:
    """Mapping of events to values for fired composite conditions."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{e!r}: {e.value!r}" for e in self.events)
        return f"<ConditionValue {{{pairs}}}>"


class Condition(Event):
    """Base composite event over a list of sub-events."""

    __slots__ = ("events", "_fired")

    def __init__(self, sim, events: Iterable[Event], name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks = None
        self._value = _PENDING
        self._processed = False
        self._cancelled = False
        self._slot = -1
        # composite callers pass freshly built lists; reuse them rather
        # than copying (non-list iterables are materialized)
        self.events = events if events.__class__ is list else list(events)
        self._fired: list[Event] = []
        if not self.events:
            self.succeed(ConditionValue())
            return
        on_sub = self._on_sub_event
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("events belong to different simulators")
            if event._value is not _PENDING:
                on_sub(event)
            else:
                cbs = event.callbacks
                if cbs is None:
                    event.callbacks = on_sub
                elif cbs.__class__ is list:
                    cbs.append(on_sub)
                else:
                    event.callbacks = [cbs, on_sub]

    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _on_sub_event(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._cancel_pending()
            return
        self._fired.append(event)
        if self._satisfied():
            result = ConditionValue()
            result.events.extend(self._fired)
            self.succeed(result)
            self._cancel_pending()

    def _cancel_pending(self) -> None:
        # Cancel every loser that has not yet been processed — including
        # ones that triggered at the same instant as the winner.  Events
        # holding resources (queue gets) use cancel() to give them back;
        # without this, a message delivered simultaneously with the
        # winning event would be consumed and silently dropped.
        fired = self._fired
        for event in self.events:
            if event not in fired and not event._processed:
                event.cancel()


#: shared "nothing fired yet" marker for AnyOf — its specialized
#: ``_on_sub_event`` replaces ``_fired`` wholesale instead of appending,
#: so every AnyOf can share one (never-mutated) empty list
_NOT_FIRED: list = []


class AnyOf(Condition):
    """Fires as soon as one sub-event fires; remaining ones are cancelled.

    This is the select-loop workhorse (``receive | timeout`` races run
    on every protocol task iteration), so it bypasses the generic
    :class:`Condition` machinery: the first sub-event to fire triggers
    the composite inline — no ``_satisfied`` indirection, no generic
    result assembly, no per-instance ``_fired`` list until the winner
    is known.
    """

    __slots__ = ()

    def __init__(self, sim, events: Iterable[Event], name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks = None
        self._value = _PENDING
        self._processed = False
        self._cancelled = False
        self._slot = -1
        self.events = events if events.__class__ is list else list(events)
        self._fired = _NOT_FIRED
        if not self.events:
            self.succeed(ConditionValue())
            return
        on_sub = self._on_sub_event
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("events belong to different simulators")
            if event._value is not _PENDING:
                on_sub(event)
            else:
                cbs = event.callbacks
                if cbs is None:
                    event.callbacks = on_sub
                elif cbs.__class__ is list:
                    cbs.append(on_sub)
                else:
                    event.callbacks = [cbs, on_sub]

    def _satisfied(self) -> bool:
        return len(self._fired) >= 1

    def _on_sub_event(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if event._ok:
            # First success wins: assemble the single-winner result and
            # schedule the composite (inlined Event.succeed).  The
            # result's event list doubles as ``_fired``.
            fired = [event]
            self._fired = fired
            result = ConditionValue.__new__(ConditionValue)
            result.events = fired
            self._ok = True
            self._value = result
            sim = self.sim
            seq = sim._seq
            sim._seq = seq + 1
            free = sim._free
            if free:
                slot = free.pop()
                sim._slots[slot] = self
            else:
                slot = len(sim._slots)
                sim._slots.append(self)
            self._slot = slot
            sim._ready.append((sim._now, (NORMAL << 53) | (seq << 1), slot))
            # Cancel the losers (the winner is already _processed, so
            # the guard skips it) — see Condition._cancel_pending.
            for other in self.events:
                if other is not event and not other._processed:
                    other.cancel()
        else:
            event._defused = True
            self.fail(event._value)
            self._cancel_pending()


class AllOf(Condition):
    """Fires when every sub-event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._fired) == len(self.events)
