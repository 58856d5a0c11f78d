"""The common replica control interface.

Every protocol (the paper's virtual partitions protocol and all
baselines) plugs into the same transaction layer through this
interface, so the benchmark harness can swap protocols while keeping
workload, failures, and concurrency control identical — the paired
comparison the paper's cost claims call for.

Logical operations are *generators* (simulation processes use
``yield from``).  ``ctx`` is the transaction context supplied by the
transaction manager; protocols record participants and partition ids
into it so commit-time validation (rule R4 and its weakened variant)
can run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class ProtocolMetrics:
    """Per-processor counters every protocol maintains.

    Totalled across processors by :func:`repro.obs.metrics.sum_stats`
    (``Cluster.total_metrics``) and exported field by field under
    ``protocol.`` — a field added here is aggregated and reported
    without further code.
    """

    logical_reads: int = 0
    logical_writes: int = 0
    physical_read_rpcs: int = 0
    physical_write_rpcs: int = 0
    #: reads issued only to learn version numbers (quorum writes)
    version_collect_rpcs: int = 0
    local_reads: int = 0
    read_aborts: int = 0
    write_aborts: int = 0
    vp_created: int = 0
    vp_joined: int = 0
    recoveries: int = 0
    transfer_units: int = 0
    #: §6 log catch-ups that fell back to a full-object transfer
    #: because the source had compacted past the requester's date
    catchup_fallbacks: int = 0
    #: coordinator decision-log entries retired from memory once their
    #: decide fan-out left (the WAL record stays for crash replay)
    decisions_retired: int = 0
    #: copies installed on this processor by the reshard engine
    reshard_installs: int = 0
    #: copies retired from this processor after a reshard flip
    reshard_retires: int = 0
    by_reason: Dict[str, int] = field(default_factory=dict)
    #: per-resolution in-doubt dwell times (prepared -> resolved, in
    #: sim time): the commit protocol's blocking window, measured
    in_doubt_dwell: List[float] = field(default_factory=list)

    def abort(self, kind: str, reason: str) -> None:
        if kind == "r":
            self.read_aborts += 1
        else:
            self.write_aborts += 1
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1


class ReplicaControlProtocol(ABC):
    """One instance runs on each processor."""

    #: short identifier used in benchmark tables
    name: str = "abstract"

    #: per-processor :class:`~repro.client.lease.LeaseTable`; installed
    #: by the first leased :class:`~repro.client.session.ClientSession`
    #: on this processor, None otherwise (the default — no lease code
    #: runs on any protocol path)
    lease_table = None

    @abstractmethod
    def attach(self) -> None:
        """Register server tasks and crash/recover hooks on the processor.

        Called exactly once, before the simulation starts.
        """

    @abstractmethod
    def logical_read(self, obj: str, ctx: Any):
        """Generator implementing a logical read; returns the value.

        Raises :class:`~repro.core.errors.AccessAborted` when the read
        cannot be performed.
        """

    @abstractmethod
    def logical_write(self, obj: str, value: Any, ctx: Any):
        """Generator implementing a logical write.

        Raises :class:`~repro.core.errors.AccessAborted` on failure.
        """

    @abstractmethod
    def prepare_commit(self, ctx: Any):
        """Generator: validate that ``ctx``'s transaction may commit.

        Raises :class:`~repro.core.errors.TransactionAborted` if not
        (e.g. rule R4: a participant joined another partition).
        """

    @abstractmethod
    def end_transaction(self, ctx: Any, outcome: str):
        """Generator: release locks / apply decision at all participants.

        ``outcome`` is ``"commit"`` or ``"abort"``.
        """

    @abstractmethod
    def available(self, obj: str, write: bool) -> bool:
        """Can this processor *currently* perform the given logical access?

        A pure predicate used by the availability benchmarks; must not
        send messages.
        """
