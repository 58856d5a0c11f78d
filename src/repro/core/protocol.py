"""The virtual partitions replica control protocol (the paper's §5).

:class:`VirtualPartitionProtocol` assembles the per-figure mixins into
one per-processor object and wires them to the processor runtime:

* Fig. 3  — shared state (:class:`~repro.core.state.ReplicaState`),
  task scheduling (here, in :meth:`attach`);
* Figs. 4–5 — :class:`~repro.core.vp_creation.CreationMixin`;
* Fig. 6  — :class:`~repro.core.vp_monitor.MonitorMixin`;
* Figs. 7–8 — :class:`~repro.core.probes.ProbesMixin`;
* Fig. 9  — :class:`~repro.core.copy_update.UpdateMixin`;
* Figs. 10–12 — :class:`~repro.core.access.AccessMixin`.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Optional

from ..analysis.history import History
from ..cc.factory import make_cc
from ..commit import make_commit
from ..net.latency import LatencyModel
from ..node.processor import Processor
from ..protocols.base import ProtocolMetrics, ReplicaControlProtocol
from ..shard.directory import LocalDirectory
from .access import AccessMixin
from .config import ProtocolConfig
from .copy_update import UpdateMixin
from .ids import VpId
from .probes import ProbesMixin
from .state import ReplicaState
from .views import CopyPlacement
from .vp_creation import CreationMixin
from .vp_monitor import MonitorMixin


class VirtualPartitionProtocol(CreationMixin, MonitorMixin, ProbesMixin,
                               UpdateMixin, AccessMixin,
                               ReplicaControlProtocol):
    """One protocol instance per processor."""

    name = "virtual-partitions"

    def __init__(self, processor: Processor, placement: CopyPlacement,
                 config: ProtocolConfig, history: History,
                 latency: LatencyModel, all_pids: Iterable[int]):
        self.processor = processor
        self.pid = processor.pid
        self.sim = processor.sim
        self.placement = placement
        self.config = config
        self.history = history
        self.all_pids = frozenset(all_pids)
        self._latency = latency
        self.state = ReplicaState(self.pid, self.sim, history,
                                  store=processor.store)
        self.cc = make_cc(config, self.sim, label=f"p{self.pid}.cc")
        #: client-side routing directory (Figs. 10-11 lookups); the
        #: cluster swaps in a CachedDirectory for partial-map runs.
        #: Server-side votes stay on the authoritative ``placement``.
        self.directory = LocalDirectory(placement)
        self.metrics = ProtocolMetrics()
        #: optional :class:`~repro.obs.trace.Tracer`; None = no tracing
        self.tracer = None
        #: optional :class:`~repro.audit.InvariantAuditor`; None = off
        self.auditor = None
        self._create_vp_process = None
        self._update_process = None
        self._before_images: dict = {}
        self._poisoned_txns: set = set()
        #: the pluggable atomic-commit backend (prepare round, decision
        #: log, decide fan-out, in-doubt resolution) — see repro.commit
        self.commit = make_commit(config.commit_backend, self)
        self._recovery_seq = count(1)

    def distance(self, pid: int) -> float:
        """Expected delay to ``pid``; rule R2 reads the minimum."""
        return self._latency.distance(self.pid, pid)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Install (or remove, with ``None``) a trace-event sink.

        Wires every layer this protocol owns: its own emissions, the
        shared state's join/depart events, and the CC strategy's lock
        table.  The CC strategy is recreated on crash, so the wiring is
        reapplied there too.
        """
        self.tracer = tracer
        self.state.tracer = tracer
        self._wire_cc_tracer()

    def _wire_cc_tracer(self) -> None:
        locks = getattr(self.cc, "locks", None)
        if locks is not None:
            locks.tracer = self.tracer
            locks.trace_pid = self.pid

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Register the Fig. 3 task set and the crash/recover hooks."""
        self.processor.add_task("monitor-vp-creations",
                                self.monitor_vp_creations)
        self.processor.add_task("send-probes", self.send_probes)
        self.processor.serve("probe", self.monitor_probes)
        self.serve_physical_access()
        self.serve_vpread()
        self.processor.on_crash(self._on_crash)
        self.processor.on_recover(self._on_recover)

    def _on_crash(self) -> None:
        """Volatile state vanishes; dirty uncommitted writes are undone.

        Undoing at crash time models the recovery-time undo pass a WAL
        would perform before the node serves anything again.  In-doubt
        transactions (we voted yes in their prepare round) are exempt:
        their prepare record and before-images are force-written, so
        the undo/redo choice is deferred until the coordinator's
        decision is learned — rolling them back here could erase a
        committed write.
        """
        in_doubt = self.commit.in_doubt
        for txn in sorted(self._before_images, key=repr):
            if txn in in_doubt:
                continue
            images = self._before_images[txn]
            for obj, (value, date, version) in images.items():
                self.processor.store.install(obj, value, date, version)
        self._before_images = {
            txn: images for txn, images in self._before_images.items()
            if txn in in_doubt
        }
        self._poisoned_txns.clear()
        # Backend-owned commit state: the 2PC decision log finalizes
        # undecided entries as the presumed abort; Paxos leaves them to
        # the acceptors.  Resolver bookkeeping is volatile either way.
        self.commit.on_crash()
        self.cc = make_cc(self.config, self.sim, label=f"p{self.pid}.cc")
        self._wire_cc_tracer()
        self.state.reset_volatile()
        if self.tracer is not None:
            self.tracer.emit("proc.crash", pid=self.pid)

    def _on_recover(self) -> None:
        """Come back alone; probing will merge us with the reachable."""
        self.state.reboot()
        self.commit.on_recover()
        if self.tracer is not None:
            self.tracer.emit("proc.recover", pid=self.pid)

    # ------------------------------------------------------------------
    # introspection helpers used by tests and the harness
    # ------------------------------------------------------------------

    @property
    def assigned(self) -> bool:
        return self.state.assigned

    @property
    def current_partition(self) -> Optional[VpId]:
        return self.state.cur_id if self.state.assigned else None

    @property
    def view(self) -> frozenset:
        return frozenset(self.state.lview)

    def __repr__(self) -> str:
        return f"VirtualPartitionProtocol(p{self.pid}, {self.state!r})"


def bootstrap_partition(protocols: Iterable[VirtualPartitionProtocol],
                        vpid: Optional[VpId] = None) -> VpId:
    """Start all processors jointly committed to one initial partition.

    Models a system brought up by an operator in one piece, skipping the
    initial probe-driven convergence.  Copies need no initialization
    (everyone holds the initial database), so nothing is locked.
    """
    members = sorted(protocols, key=lambda p: p.pid)
    if not members:
        raise ValueError("no protocols to bootstrap")
    if vpid is None:
        vpid = VpId(1, members[0].pid)
    view = {p.pid for p in members}
    previous_map = {}
    for protocol in members:
        info = protocol._previous_info()
        previous_map[protocol.pid] = info
    for protocol in members:
        protocol.state.join(vpid, view, previous_map)
        if protocol.state.max_id < vpid:
            protocol.state.max_id = vpid
    return vpid
