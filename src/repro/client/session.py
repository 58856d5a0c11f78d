"""The client session: cache + leases in front of one processor's TM.

A session belongs to one simulated client and fronts that client's
home processor.  Each workload program runs through
:meth:`ClientSession.run_program`, which serves what it can locally —
dirty cache entries (read-your-writes), valid leases (bounded
staleness), clean cache entries (when leases are off) and write-back
writes — and batches everything else into *one* protocol transaction.
A program fully served locally never touches the network at all: zero
messages, zero simulated latency.

Freshness contract, in decreasing strength:

* leases on — every locally-served read is either this client's own
  pending write or a lease whose staleness the C6 window bounds (see
  :mod:`repro.client.lease`); the auditor can check the bound live.
* cache only — locally-served reads are session-consistent (you see
  your own writes; repeat reads may be stale until evicted).
* neither — every program is one protocol transaction, exactly the
  pre-session behaviour.

The protocol-level history only contains the protocol transactions, so
the 1SR checkers judge exactly what the protocol executed; the session
tier's relaxations are the bounded-staleness semantics stated here,
not a weakening of the protocol's own guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .cache import POLICIES, WRITE_BACK, WRITE_THROUGH, SessionCache
from .lease import LeaseTable


@dataclass(frozen=True)
class SessionSpec:
    """Client-tier knobs; the all-defaults spec disables the tier."""

    #: LRU entries per client; 0 = no cache
    cache_capacity: int = 0
    #: "write-through" or "write-back" (write-back needs a cache)
    cache_policy: str = WRITE_THROUGH
    #: lease duration L; 0 = no leases.  Must satisfy L <= pi.
    lease_duration: float = 0.0

    def __post_init__(self):
        if self.cache_capacity < 0:
            raise ValueError(
                f"cache_capacity must be >= 0: {self.cache_capacity}")
        if self.cache_policy not in POLICIES:
            raise ValueError(f"unknown cache policy {self.cache_policy!r}; "
                             f"expected one of {POLICIES}")
        if self.lease_duration < 0:
            raise ValueError(
                f"lease_duration must be >= 0: {self.lease_duration}")
        if self.cache_policy == WRITE_BACK and self.cache_capacity == 0:
            raise ValueError("write-back needs a cache (cache_capacity > 0)")

    @property
    def enabled(self) -> bool:
        return self.cache_capacity > 0 or self.lease_duration > 0


@dataclass
class SessionStats:
    """What one client's session tier did; the run totals every
    session's stats and exports each field under ``client.``."""

    programs: int = 0
    programs_committed: int = 0
    programs_aborted: int = 0
    #: programs that needed no protocol transaction at all
    programs_local: int = 0
    reads: int = 0
    writes: int = 0
    #: reads served from a valid lease
    lease_reads: int = 0
    #: reads served from the cache (dirty always; clean iff leases off)
    cache_reads: int = 0
    remote_reads: int = 0
    #: write-back writes absorbed into the cache (no message yet)
    local_writes: int = 0
    remote_writes: int = 0
    #: dirty entries shipped in a protocol transaction
    flush_writes: int = 0
    #: per-read client-observed latency (0.0 for local serves)
    read_latencies: List[float] = field(default_factory=list)
    #: age of lease-served values (now - fetch_time) at serve time
    staleness: List[float] = field(default_factory=list)

    @property
    def local_reads(self) -> int:
        return self.lease_reads + self.cache_reads

    @property
    def local_read_fraction(self) -> float:
        return self.local_reads / self.reads if self.reads else 0.0


class ClientSession:
    """One client's cache + lease front-end over a TransactionManager."""

    def __init__(self, tm, protocol, spec: SessionSpec,
                 auditor=None):
        self.tm = tm
        self.protocol = protocol
        self.pid = protocol.pid
        self.sim = protocol.processor.sim
        self.config = protocol.config
        self.spec = spec
        self.auditor = auditor
        self.stats = SessionStats()
        self.cache: Optional[SessionCache] = None
        if spec.cache_capacity > 0:
            self.cache = SessionCache(spec.cache_capacity, spec.cache_policy)
        self.lease_table: Optional[LeaseTable] = None
        if spec.lease_duration > 0:
            state = getattr(protocol, "state", None)
            if state is None:
                raise ValueError(
                    f"protocol {protocol.name!r} has no view state; leases "
                    "need the virtual-partitions family (the staleness "
                    "bound is anchored to the C6 window)"
                )
            table = getattr(protocol, "lease_table", None)
            if table is None:
                table = LeaseTable(state, spec.lease_duration,
                                   self.config.pi)
                protocol.lease_table = table
            elif table.duration != spec.lease_duration:
                raise ValueError(
                    f"processor {self.pid} already grants {table.duration}-"
                    f"leases; sessions on one processor must agree"
                )
            self.lease_table = table
        #: dirty evictions awaiting a transaction to ride in
        self._flush_backlog: List[Tuple[str, Any]] = []

    @property
    def staleness_bound(self) -> float:
        """Max age of a lease-served value: L + the C6 window Δ."""
        return self.spec.lease_duration + self.config.liveness_bound

    # ------------------------------------------------------------------
    # program execution
    # ------------------------------------------------------------------

    def run_program(self, program, tag: str = "", retries: int = 0,
                    backoff: Optional[float] = None):
        """Generator: run one ``[("r"|"w", obj), ...]`` program.

        Returns ``(committed, result_or_reason)`` like
        :meth:`TransactionManager.run`; the result is the last read's
        value, matching :func:`~repro.workload.generator.body_for`.
        """
        start = self.sim.now
        self.stats.programs += 1
        #: protocol steps: (kind, obj, write_value, program_slot);
        #: slot None marks a flush of an evicted dirty entry
        remote: List[Tuple[str, str, Any, Optional[int]]] = []
        local: Dict[int, Any] = {}
        for obj, value in self._flush_backlog:
            remote.append(("w", obj, value, None))
            self.stats.flush_writes += 1
        self._flush_backlog = []
        for slot, (kind, obj) in enumerate(program):
            if kind == "r":
                self.stats.reads += 1
                served, value = self._serve_read_locally(obj)
                if served:
                    local[slot] = value
                else:
                    remote.append(("r", obj, None, slot))
            else:
                self.stats.writes += 1
                value = f"{tag}/w{slot}"
                if self.cache is not None and self.spec.cache_policy == \
                        WRITE_BACK:
                    self.stats.local_writes += 1
                    for victim, pending in self.cache.put(obj, value,
                                                          dirty=True):
                        remote.append(("w", victim, pending, None))
                        self.stats.flush_writes += 1
                    if self.lease_table is not None:
                        # our own write supersedes any lease we hold
                        self.lease_table.invalidate(obj)
                else:
                    remote.append(("w", obj, value, slot))
        if not remote:
            self.stats.programs_local += 1
            self.stats.programs_committed += 1
            return True, self._program_result(program, local)

        captured: Dict[str, Any] = {}

        def body(txn):
            values: Dict[int, Any] = {}
            for kind, obj, value, slot in remote:
                if kind == "r":
                    values[slot] = yield from txn.read(obj)
                else:
                    yield from txn.write(obj, value)
            captured["ctx"] = txn.ctx
            captured["values"] = values
            return values

        committed, outcome = yield from self.tm.run(body, retries=retries,
                                                    backoff=backoff)
        if not committed:
            # evicted dirty values must not be lost: queue them again
            for kind, obj, value, slot in remote:
                if kind == "w" and slot is None:
                    self._flush_backlog.append((obj, value))
            self.stats.programs_aborted += 1
            return False, outcome
        self._absorb_commit(remote, captured, local, start)
        self.stats.programs_committed += 1
        return True, self._program_result(program, local)

    def drain(self, retries: int = 0, backoff: Optional[float] = None):
        """Generator: flush every pending dirty write in one transaction.

        Called when the client stops (write-back's flush-on-close).
        Returns True when there was nothing to flush or the flush
        committed.
        """
        pending = list(self._flush_backlog)
        self._flush_backlog = []
        if self.cache is not None:
            flushed = {obj for obj, _ in pending}
            pending.extend(item for item in self.cache.dirty_items()
                           if item[0] not in flushed)
        if not pending:
            return True

        def body(txn):
            for obj, value in pending:
                yield from txn.write(obj, value)
            return None

        committed, _ = yield from self.tm.run(body, retries=retries,
                                              backoff=backoff)
        if committed:
            self.stats.flush_writes += len(pending)
            if self.cache is not None:
                for obj, value in pending:
                    self.cache.mark_flushed(obj, value)
        else:
            self._flush_backlog = pending
        return committed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _serve_read_locally(self, obj: str) -> Tuple[bool, Any]:
        now = self.sim.now
        if self.cache is not None:
            entry = self.cache.peek(obj)
            if entry is not None and entry.dirty:
                # read-your-writes beats everything, including leases:
                # the lease still holds the pre-write value
                self.cache.lookup(obj)
                self.stats.cache_reads += 1
                self.stats.read_latencies.append(0.0)
                return True, entry.value
        if self.lease_table is not None:
            lease = self.lease_table.serve(obj, now)
            if lease is not None:
                self.stats.lease_reads += 1
                self.stats.read_latencies.append(0.0)
                self.stats.staleness.append(now - lease.fetch_time)
                if self.auditor is not None:
                    self.auditor.on_lease_read(
                        time=now, pid=self.pid, obj=obj,
                        version=lease.version,
                        expires_at=lease.expires_at,
                        bound=self.staleness_bound,
                    )
                return True, lease.value
            # with leases on, a clean cache entry is not a freshness
            # authority — drop it along with the dead lease
            if self.cache is not None:
                self.cache.invalidate(obj)
            return False, None
        if self.cache is not None:
            entry = self.cache.lookup(obj)
            if entry is not None:
                self.stats.cache_reads += 1
                self.stats.read_latencies.append(0.0)
                return True, entry.value
        return False, None

    def _absorb_commit(self, remote, captured, local, start) -> None:
        """Fill cache and grant leases from a committed transaction."""
        ctx = captured["ctx"]
        values = captured["values"]
        now = self.sim.now
        for kind, obj, value, slot in remote:
            if kind == "r":
                read_value = values[slot]
                local[slot] = read_value
                self.stats.remote_reads += 1
                self.stats.read_latencies.append(now - start)
                version, fetch_time = ctx.read_versions.get(obj,
                                                            (None, now))
                if self.lease_table is not None:
                    lease = self.lease_table.grant(
                        obj, read_value, version, now,
                        fetch_time=fetch_time,
                    )
                    if lease is not None and self.auditor is not None:
                        self.auditor.on_lease_grant(
                            time=now, pid=self.pid, obj=obj,
                            version=version,
                            duration=self.lease_table.duration,
                            pi=self.config.pi,
                        )
                if self.cache is not None:
                    self._fill(obj, read_value)
            elif slot is None:
                self.stats.remote_writes += 1
                if self.cache is not None:
                    self.cache.mark_flushed(obj, value)
            else:
                self.stats.remote_writes += 1
                if self.cache is not None:
                    self._fill(obj, value)

    def _fill(self, obj: str, value: Any) -> None:
        """Clean cache fill; dirty evictions wait for the next txn."""
        for victim, pending in self.cache.put(obj, value):
            self._flush_backlog.append((victim, pending))

    @staticmethod
    def _program_result(program, local) -> Any:
        result = None
        for slot, (kind, _obj) in enumerate(program):
            if kind == "r" and slot in local:
                result = local[slot]
        return result

    def __repr__(self) -> str:
        return (f"ClientSession(p{self.pid}, cache={self.cache}, "
                f"leases={self.lease_table})")
