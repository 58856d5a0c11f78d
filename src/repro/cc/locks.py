"""A per-processor lock manager for physical copies.

Strict two-phase locking is the concurrency control protocol the paper
names first among the CP-serializable class (assumption A1, §4).  Locks
are taken on *copies* — each processor locks only its local physical
objects — exactly the configuration §6 assumes when deriving the
weakened rule R4.

Grant policy: shared (S) locks are compatible with each other; exclusive
(X) with nothing.  Requests queue FIFO without barging; an S→X upgrade
is granted immediately when the requester is the sole holder, otherwise
it waits at the front of the queue.  Deadlock handling is by timeout at
the caller (waiting requests are cancellable events).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..sim import Event, Simulator

SHARED = "S"
EXCLUSIVE = "X"

_COMPATIBLE = {
    (SHARED, SHARED): True,
    (SHARED, EXCLUSIVE): False,
    (EXCLUSIVE, SHARED): False,
    (EXCLUSIVE, EXCLUSIVE): False,
}


class LockRequest(Event):
    """A pending lock acquisition; cancelling it leaves the queue."""

    __slots__ = ("obj", "txn", "mode", "_manager")

    def __init__(self, manager: "LockManager", obj: str, txn: Any, mode: str):
        super().__init__(manager.sim, name=f"lock({obj},{txn},{mode})")
        self.obj = obj
        self.txn = txn
        self.mode = mode
        self._manager = manager

    def cancel(self) -> None:
        if not self.triggered:
            self._manager._drop_request(self)
            super().cancel()


class Granted:
    """An immediate grant: already triggered, never scheduled.

    Nobody waits on a lock granted at request time, so handing out a
    kernel event for it would only cost a no-op dispatch.  Callers test
    ``triggered``, as they would on a :class:`LockRequest`.
    """

    __slots__ = ()
    triggered = True

    def __repr__(self) -> str:
        return "<lock granted>"


#: the shared result of every immediate grant
GRANTED = Granted()


@dataclass
class _LockState:
    holders: Dict[Any, str] = field(default_factory=dict)
    queue: List[LockRequest] = field(default_factory=list)


class LockManager:
    """Lock table over the local copies of one processor."""

    def __init__(self, sim: Simulator, name: str = "locks"):
        self.sim = sim
        self.name = name
        self._table: Dict[str, _LockState] = {}
        #: grants ever made, for metrics
        self.grants = 0
        self.waits = 0
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None
        #: pid stamped on trace events (set by the owning protocol)
        self.trace_pid: Optional[int] = None

    def _emit(self, etype: str, obj: str, txn: Any, mode: str) -> None:
        # Call sites guard on ``self.tracer is not None`` themselves so the
        # disabled path costs one attribute test, not a method call.
        self.tracer.emit(etype, pid=self.trace_pid, obj=obj,
                         txn=str(txn), mode=mode)

    # -- acquisition ------------------------------------------------------------

    def acquire(self, txn: Any, obj: str,
                mode: str) -> LockRequest | Granted:
        """Request a lock; the returned event fires when granted.

        Already-granted cases (re-entrant holds, S under an existing X
        by the same transaction, immediate compatibility) return
        :data:`GRANTED` instead, which is triggered from the start and
        costs the kernel nothing.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        state = self._table.setdefault(obj, _LockState())

        held = state.holders.get(txn)
        if held == EXCLUSIVE or held == mode:
            # Re-entrant: X covers S; same mode is a no-op.
            return GRANTED
        if held == SHARED and mode == EXCLUSIVE:
            if len(state.holders) == 1 and not state.queue:
                state.holders[txn] = EXCLUSIVE
                self.grants += 1
                if self.tracer is not None:
                    self._emit("lock.grant", obj, txn, EXCLUSIVE)
                return GRANTED
            # Upgrade must wait at the front (it beats new requests but
            # cannot bypass already-queued ones without risking starvation).
            request = LockRequest(self, obj, txn, mode)
            state.queue.insert(0, request)
            self.waits += 1
            if self.tracer is not None:
                self._emit("lock.wait", obj, txn, mode)
            return request
        if not state.queue and self._compatible(state, mode):
            state.holders[txn] = mode
            self.grants += 1
            if self.tracer is not None:
                self._emit("lock.grant", obj, txn, mode)
            return GRANTED
        request = LockRequest(self, obj, txn, mode)
        state.queue.append(request)
        self.waits += 1
        if self.tracer is not None:
            self._emit("lock.wait", obj, txn, mode)
        return request

    # -- release ------------------------------------------------------------

    def release_all(self, txn: Any) -> List[str]:
        """Strict 2PL release at end of transaction; returns freed objects."""
        freed = []
        for obj, state in list(self._table.items()):
            if txn in state.holders:
                mode = state.holders.pop(txn)
                freed.append(obj)
                if self.tracer is not None:
                    self._emit("lock.release", obj, txn, mode)
            state.queue = [r for r in state.queue if r.txn != txn]
            self._promote(obj, state)
            if not state.holders and not state.queue:
                del self._table[obj]
        return freed

    # -- inspection ------------------------------------------------------------

    def holders(self, obj: str) -> Dict[Any, str]:
        """Current holders of ``obj``'s lock: ``{txn: mode}``."""
        state = self._table.get(obj)
        return dict(state.holders) if state else {}

    def is_write_locked(self, obj: str) -> bool:
        """True if some transaction holds X on ``obj`` (condition (3) of
        the weakened R4: recovery must not read such a copy)."""
        state = self._table.get(obj)
        return bool(state) and EXCLUSIVE in state.holders.values()

    def holding_txns(self) -> set:
        """All transactions currently holding any lock here."""
        txns = set()
        for state in self._table.values():
            txns |= set(state.holders)
        return txns

    def queue_length(self, obj: str) -> int:
        state = self._table.get(obj)
        return len(state.queue) if state else 0

    # -- internals -----------------------------------------------------------

    def _compatible(self, state: _LockState, mode: str) -> bool:
        return all(
            _COMPATIBLE[(held, mode)] for held in state.holders.values()
        )

    def _promote(self, obj: str, state: _LockState) -> None:
        """Grant queued requests from the head while compatible."""
        while state.queue:
            request = state.queue[0]
            held = state.holders.get(request.txn)
            if held == EXCLUSIVE or held == request.mode:
                state.queue.pop(0)
                request.succeed(True)
                continue
            if held == SHARED and request.mode == EXCLUSIVE:
                if len(state.holders) == 1:
                    state.holders[request.txn] = EXCLUSIVE
                    state.queue.pop(0)
                    self.grants += 1
                    if self.tracer is not None:
                        self._emit("lock.grant", obj, request.txn, EXCLUSIVE)
                    request.succeed(True)
                    continue
                break
            if self._compatible(state, request.mode):
                state.holders[request.txn] = request.mode
                state.queue.pop(0)
                self.grants += 1
                if self.tracer is not None:
                    self._emit("lock.grant", obj, request.txn, request.mode)
                request.succeed(True)
                continue
            break

    def _drop_request(self, request: LockRequest) -> None:
        state = self._table.get(request.obj)
        if state is None:
            return
        try:
            state.queue.remove(request)
        except ValueError:
            return
        if self.tracer is not None:
            self._emit("lock.drop", request.obj, request.txn, request.mode)
        self._promote(request.obj, state)
        if not state.holders and not state.queue:
            del self._table[request.obj]
