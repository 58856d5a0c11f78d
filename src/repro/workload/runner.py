"""The experiment harness: one protocol, one workload, one failure script.

Drives an open-loop client at every processor, collects protocol and
network counters, and computes the derived quantities the paper's
claims are stated in: physical accesses per logical operation, messages
per committed transaction, abort rates, and availability.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from ..client.session import ClientSession, SessionSpec
from ..cluster import Cluster
from ..core.config import ProtocolConfig
from ..net.latency import LatencyModel
from ..obs.metrics import MetricsRegistry
from ..protocols import protocol_factory
from .generator import WorkloadGenerator, WorkloadSpec, body_for

#: message kinds on the transaction path (Figs. 10-12 + the atomic
#: commit backends: 2PC's vote round and Paxos Commit's px-* consensus
#: traffic).  The complement — probes, view creation, copy update — is
#: background maintenance whose volume scales with cluster size and
#: run length, not with committed work; scaling claims must separate
#: the two.
TXN_MESSAGE_KINDS = frozenset({
    "read", "read-reply", "write", "write-reply",
    "prepare", "prepare-reply", "release",
    "txn-status", "txn-status-reply",
    "px-accept", "px-accepted",
    "px-p1", "px-p1-reply", "px-p2", "px-p2-reply",
})


@dataclass
class ExperimentSpec:
    """Everything one experiment run needs."""

    protocol: str = "virtual-partitions"
    processors: int = 5
    objects: int = 10
    copies_per_object: Optional[int] = None  # None = full replication
    seed: int = 0
    duration: float = 400.0
    grace: float = 60.0
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    latency: Optional[LatencyModel] = None
    config: Optional[ProtocolConfig] = None
    #: callback(cluster) scheduling failures before the run starts
    failures: Optional[Callable[[Cluster], None]] = None
    retries: int = 0
    check: bool = False  # run the 1SR checker afterwards (small runs only)
    trace: bool = False  # collect a structured event trace (cluster.tracer)
    audit: bool = False  # hook in the runtime invariant auditor
    #: concurrent clients per processor (>1 creates same-tick fan-out
    #: overlap, which is what transport batching coalesces)
    clients: int = 1
    #: fixed transaction count per client (None = open loop until
    #: ``duration``); fixed counts make paired runs attempt identical work
    txns_per_client: Optional[int] = None
    #: optional per-client object pool: (pid, client_index) -> object
    #: names that client draws from (None = every client uses all objects)
    objects_for: Optional[Callable[[int, int], Any]] = None
    #: placement policy name (see :data:`repro.shard.POLICIES`); None =
    #: the legacy contiguous-ring layout.  ``copies_per_object`` is the
    #: replication degree in both cases.
    placement: Optional[str] = None
    #: directory kind routing accesses ("local"/"cached"); None = local
    directory: Optional[str] = None
    #: cache capacity for the "cached" directory (None = its default)
    directory_capacity: Optional[int] = None
    #: atomic-commit backend override ("2pc"/"paxos"); None = whatever
    #: ``config`` says (itself defaulting to "2pc")
    commit_backend: Optional[str] = None
    #: open-loop load: arrivals fire on the Poisson clock regardless of
    #: service time (each spawns a worker), so latency includes
    #: queueing.  False (default) is the historical closed loop —
    #: rng-identical to the pre-session driver.
    open_loop: bool = False
    #: client-tier knobs (cache + leases); None = no session tier, the
    #: byte-identical default path
    session: Optional["SessionSpec"] = None
    #: online placement changes: a tuple of :class:`~repro.shard.
    #: reshard.ReshardAction` (or their dicts).  Requires ``placement``;
    #: the pids the actions add are held out of the initial assignment
    #: and joined live by the migration engine.  None = no reshard
    #: machinery is constructed at all (the byte-identical default).
    reshard: Optional[tuple] = None


@dataclass
class ExperimentResult:
    """Raw counters + derived metrics from one run."""

    spec: ExperimentSpec
    committed: int
    aborted: int
    metrics: Any
    network: dict
    one_copy_ok: Optional[bool]
    cluster: Optional[Cluster]
    registry: Optional[MetricsRegistry] = None
    #: kernel events dispatched during the run — deterministic for a
    #: seeded spec, so it participates in serial/parallel equality
    events_dispatched: int = 0
    #: wall-clock seconds spent inside ``cluster.run`` — NOT
    #: deterministic, deliberately excluded from :meth:`fingerprint`
    wall_seconds: float = 0.0
    #: runtime invariant violations (as plain dicts, so results cross
    #: process boundaries); empty unless ``spec.audit`` was set
    audit_violations: tuple = ()
    #: the run's convergence bound Δ = π + 8δ (C3), kept here so
    #: results that left their cluster behind can still judge staleness
    liveness_bound: float = 0.0

    @property
    def events_per_sec(self) -> float:
        """Simulated events dispatched per wall-clock second."""
        return (self.events_dispatched / self.wall_seconds
                if self.wall_seconds else 0.0)

    def fingerprint(self) -> dict:
        """Every deterministic output of the run, as plain data.

        Two runs of the same spec — serial or parallel, this kernel or
        the last one — must produce equal fingerprints; wall-clock and
        the live cluster are excluded because they legitimately differ.
        """
        metrics = self.metrics
        if dataclasses.is_dataclass(metrics):
            metrics = dataclasses.asdict(metrics)
        return {
            "committed": self.committed,
            "aborted": self.aborted,
            "one_copy_ok": self.one_copy_ok,
            "metrics": metrics,
            "network": dict(self.network),
            "events_dispatched": self.events_dispatched,
            "registry": (self.registry.snapshot()
                         if self.registry is not None else None),
            "audit_violations": [dict(v) for v in self.audit_violations],
        }

    @property
    def attempted(self) -> int:
        return self.committed + self.aborted

    @property
    def commit_rate(self) -> float:
        return self.committed / self.attempted if self.attempted else 0.0

    @property
    def reads_per_logical_read(self) -> float:
        """Physical accesses per logical read — the paper's headline
        efficiency metric (1.0 for read-one protocols)."""
        m = self.metrics
        data_reads = m.physical_read_rpcs - m.version_collect_rpcs
        return data_reads / m.logical_reads if m.logical_reads else 0.0

    @property
    def writes_per_logical_write(self) -> float:
        m = self.metrics
        return (m.physical_write_rpcs / m.logical_writes
                if m.logical_writes else 0.0)

    @property
    def accesses_per_operation(self) -> float:
        """Physical accesses per logical operation over the whole mix."""
        m = self.metrics
        ops = m.logical_reads + m.logical_writes
        total = m.physical_read_rpcs + m.physical_write_rpcs
        return total / ops if ops else 0.0

    @property
    def messages_per_committed_txn(self) -> float:
        return (self.network["sent"] / self.committed
                if self.committed else float("inf"))

    @property
    def txn_messages(self) -> int:
        """Messages on the transaction path only (no probe/view traffic)."""
        by_kind = self.network.get("by_kind", {})
        return sum(count for kind, count in by_kind.items()
                   if kind in TXN_MESSAGE_KINDS)

    @property
    def txn_messages_per_committed_txn(self) -> float:
        """The scaling claim's metric: transaction-path messages per
        commit.  Tracks the replication degree; background maintenance
        (which *does* grow with cluster size) is excluded."""
        return (self.txn_messages / self.committed
                if self.committed else float("inf"))

    @property
    def envelopes_per_committed_txn(self) -> float:
        """Physical transmissions per committed transaction — with
        batching this drops below :attr:`messages_per_committed_txn`."""
        envelopes = self.network.get("envelopes", self.network["sent"])
        return (envelopes / self.committed
                if self.committed else float("inf"))

    @property
    def batch_occupancy(self) -> float:
        """Mean logical messages per envelope (1.0 = no batching win)."""
        return self.network.get("batch_occupancy", 1.0)

    # -- client-tier views (latency SLO + session efficiency) ----------------

    def latency_summary(self) -> dict:
        """Percentile summary of client-observed program latency.

        ``client.txn_latency`` measures completion − arrival per
        committed program (queueing included under open loop, zero for
        locally-served programs); protocol-only runs fall back to the
        history-derived ``txn.latency`` service times.
        """
        if self.registry is None:
            return {"count": 0}
        histograms = self.registry.snapshot()["histograms"]
        for name in ("client.txn_latency", "txn.latency"):
            summary = histograms.get(name)
            if summary and summary.get("count"):
                return summary
        return {"count": 0}

    @property
    def latency_p50(self) -> float:
        return self.latency_summary().get("p50", 0.0)

    @property
    def latency_p99(self) -> float:
        return self.latency_summary().get("p99", 0.0)

    def _client_counter(self, name: str) -> int:
        if self.registry is None:
            return 0
        return self.registry.snapshot()["counters"].get(name, 0)

    @property
    def local_read_fraction(self) -> float:
        """Reads served without a protocol transaction (cache + lease)."""
        reads = self._client_counter("client.reads")
        if not reads:
            return 0.0
        return (self._client_counter("client.lease_reads")
                + self._client_counter("client.cache_reads")) / reads

    @property
    def messages_per_client_program(self) -> float:
        """Transaction-path messages per *committed client program*.

        With a session tier, locally-served programs commit without a
        protocol transaction, so this is the cost metric that makes
        session cells comparable to the no-session baseline (whose
        programs and protocol transactions coincide).
        """
        programs = self._client_counter("client.programs_committed")
        denominator = programs or self.committed
        return (self.txn_messages / denominator
                if denominator else float("inf"))


def build_cluster(spec: ExperimentSpec) -> Cluster:
    """Construct (but do not run) the cluster an ExperimentSpec describes."""
    config = spec.config
    if spec.commit_backend is not None:
        config = replace(config or ProtocolConfig(),
                         commit_backend=spec.commit_backend)
    cluster = Cluster(
        processors=spec.processors, seed=spec.seed,
        latency=spec.latency, config=config,
        protocol=protocol_factory(spec.protocol),
        trace=spec.trace,
        audit=spec.audit,
        directory=spec.directory,
        directory_capacity=spec.directory_capacity,
    )
    pids = cluster.pids
    copies = spec.copies_per_object or len(pids)
    if not 1 <= copies <= len(pids):
        raise ValueError(f"copies_per_object out of range: {copies}")
    if spec.placement is None:
        if spec.reshard:
            raise ValueError("reshard requires a placement policy")
        for index in range(spec.objects):
            holders = [pids[(index + k) % len(pids)] for k in range(copies)]
            cluster.place(f"o{index}", holders=holders, initial=0)
    elif spec.reshard:
        from ..shard import ReshardAction, ReshardEngine, object_names
        from ..shard.policy import make_policy
        policy = make_policy(spec.placement, degree=copies, seed=spec.seed)
        actions = tuple(
            action if isinstance(action, ReshardAction)
            else ReshardAction.from_dict(action)
            for action in spec.reshard
        )
        names = object_names(spec.objects)
        engine = ReshardEngine(cluster, policy, names, actions)
        # the added pids start copy-free: the initial placement covers
        # only the base ring, and the engine grows it live
        cluster.shard(policy, names, initial=0, pids=engine.base_pids)
        engine.enable()
        cluster.reshard_engine = engine
    else:
        from ..shard import object_names
        cluster.shard(spec.placement, object_names(spec.objects),
                      degree=copies, seed=spec.seed, initial=0)
    return cluster


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one experiment and gather its results."""
    cluster = build_cluster(spec)
    cluster.start()
    if spec.failures is not None:
        spec.failures(cluster)
    objects = [f"o{i}" for i in range(spec.objects)]

    if spec.clients < 1:
        raise ValueError(f"clients must be >= 1: {spec.clients}")
    observer = ClientObserver()
    sessions: list = []
    for pid in cluster.pids:
        for client in range(spec.clients):
            # client 0 keeps the original stream/tag names so existing
            # single-client runs stay byte-identical under one seed
            suffix = "" if client == 0 else f"c{client}"
            pool = (objects if spec.objects_for is None
                    else list(spec.objects_for(pid, client)))
            generator = WorkloadGenerator(
                spec.workload, pool,
                cluster.streams.stream(f"workload-p{pid}{suffix}"),
            )
            session = None
            if spec.session is not None and spec.session.enabled:
                session = ClientSession(cluster.tm(pid),
                                        cluster.protocols[pid],
                                        spec.session,
                                        auditor=cluster.auditor)
                sessions.append(session)
            cluster.sim.process(
                _client(cluster, pid, generator, spec, tag=f"p{pid}{suffix}",
                        session=session, observer=observer),
                name=f"client@p{pid}{suffix}",
            )

    wall_start = time.perf_counter()
    cluster.run(until=spec.duration + spec.grace)
    wall_seconds = time.perf_counter() - wall_start

    committed = len(cluster.history.committed())
    aborted = len(cluster.history.aborted())
    one_copy_ok: Optional[bool] = None
    if spec.check:
        from ..analysis.one_copy import InconclusiveCheck
        try:
            one_copy_ok = cluster.check_one_copy_serializable()
        except InconclusiveCheck:
            one_copy_ok = None  # too many records for the exact checker
    audit_violations: tuple = ()
    if cluster.auditor is not None:
        cluster.auditor.finalize()
        audit_violations = tuple(
            v.to_dict() for v in cluster.auditor.violations
        )
    return ExperimentResult(
        spec=spec,
        committed=committed,
        aborted=aborted,
        metrics=cluster.total_metrics(),
        network=cluster.network.stats.snapshot(),
        one_copy_ok=one_copy_ok,
        cluster=cluster,
        registry=collect_registry(cluster, sessions=sessions,
                                  observer=observer),
        events_dispatched=cluster.sim.dispatched,
        wall_seconds=wall_seconds,
        audit_violations=audit_violations,
        liveness_bound=cluster.config.liveness_bound,
    )


@dataclass
class ClientObserver:
    """Client-observed latency samples, shared by a run's client loops.

    One sample per committed program: completion − arrival.  Under the
    closed loop arrival is when the think-time sleep ends (so the
    sample equals service time); under the open loop arrival is the
    Poisson clock tick, so queueing behind slow transactions shows up
    — the latency-SLO view a cost-per-transaction metric cannot give.
    """

    latencies: list = field(default_factory=list)


def collect_registry(cluster: Cluster, sessions=(),
                     observer: Optional[ClientObserver] = None,
                     ) -> MetricsRegistry:
    """Distil a finished cluster's counters into a metrics registry.

    This is the structured-output side of every experiment and
    benchmark: counters for transaction outcomes and per-kind message
    traffic, gauges for protocol-level totals, and a histogram of
    committed-transaction latencies (simulated time).
    """
    registry = MetricsRegistry()
    registry.counter("sim.dispatched").inc(cluster.sim.dispatched)
    if cluster.auditor is not None:
        registry.counter("audit.violations").inc(
            len(cluster.auditor.violations))
    history = cluster.history
    committed = history.committed()
    registry.counter("txn.committed").inc(len(committed))
    registry.counter("txn.aborted").inc(len(history.aborted()))
    latency = registry.histogram("txn.latency")
    for record in committed:
        if record.end_time is not None:
            latency.observe(record.end_time - record.begin_time)
    stats = cluster.network.stats
    registry.counter("msg.sent").inc(stats.sent)
    registry.counter("msg.delivered").inc(stats.delivered)
    registry.counter("msg.dropped").inc(stats.dropped)
    registry.counter("msg.envelopes").inc(stats.envelopes)
    registry.gauge("msg.batch_occupancy").set(stats.batch_occupancy)
    if committed:
        registry.gauge("txn.messages_per_commit").set(
            stats.sent / len(committed))
        registry.gauge("txn.envelopes_per_commit").set(
            stats.envelopes / len(committed))
    for kind in sorted(stats.by_kind):
        registry.counter(f"msg.kind.{kind}").inc(stats.by_kind[kind])
    fanout_latency = registry.histogram("transport.fanout_latency")
    for pid in cluster.pids:
        transport = cluster.processors[pid].transport
        registry.counter("transport.fanouts").inc(transport.fanouts)
        registry.counter("transport.broadcasts").inc(transport.broadcasts)
        registry.counter("transport.rpcs").inc(transport.rpcs)
        registry.counter("transport.no_responses").inc(
            transport.no_responses)
        registry.counter("transport.early_exits").inc(
            transport.early_exits)
        registry.counter("transport.late_replies").inc(
            transport.late_replies)
        registry.counter("transport.routed_fanouts").inc(
            transport.routed_fanouts)
        fanout_latency.observe_many(transport.fanout_latencies)
    for pid in sorted(getattr(cluster, "directories", {})):
        dstats = cluster.directories[pid].stats
        registry.counter("directory.lookups").inc(dstats.lookups)
        registry.counter("directory.hits").inc(dstats.hits)
        registry.counter("directory.misses").inc(dstats.misses)
        registry.counter("directory.evictions").inc(dstats.evictions)
        registry.counter("directory.invalidations").inc(dstats.invalidations)
    retained = 0
    for pid in cluster.pids:
        store = cluster.processors[pid].store
        stats = getattr(store, "stats", None)
        if stats is None:
            continue  # a bare CopyStore was injected; no engine stats
        registry.counter("storage.wal_appends").inc(stats.wal_appends)
        registry.counter("storage.forced_syncs").inc(stats.forced_syncs)
        registry.counter("storage.checkpoints").inc(stats.checkpoints)
        registry.counter("storage.compacted_entries").inc(
            stats.compacted_entries)
        registry.counter("storage.truncated_reads").inc(
            stats.truncated_reads)
        registry.counter("storage.replayed_records").inc(
            stats.replayed_records)
        registry.counter("storage.replayed_bytes").inc(stats.replayed_bytes)
        retained += store.retained_entries()
    registry.gauge("storage.retained_entries").set(retained)
    totals = cluster.total_metrics()
    if totals is not None:
        for name in ("vp_created", "vp_joined", "recoveries",
                     "transfer_units", "catchup_fallbacks",
                     "logical_reads", "logical_writes",
                     "physical_read_rpcs", "physical_write_rpcs",
                     "decisions_retired", "reshard_installs",
                     "reshard_retires"):
            registry.gauge(f"protocol.{name}").set(getattr(totals, name, 0))
        # The commit protocol's measured blocking window: sim time each
        # prepared participant spent in doubt before its outcome landed.
        registry.log_histogram("txn.in_doubt_dwell").observe_many(
            getattr(totals, "in_doubt_dwell", []))
    engine = getattr(cluster, "reshard_engine", None)
    if engine is not None:
        for name, value in engine.stats.to_dict().items():
            registry.counter(f"reshard.{name}").inc(value)
    if observer is not None and observer.latencies:
        registry.log_histogram("client.txn_latency").observe_many(
            observer.latencies)
    if sessions:
        _collect_sessions(registry, cluster, sessions)
    return registry


def _collect_sessions(registry: MetricsRegistry, cluster: Cluster,
                      sessions) -> None:
    """Aggregate the client tier's per-session stats into the registry."""
    read_latency = registry.log_histogram("client.read_latency")
    staleness = registry.log_histogram("client.staleness")
    for session in sessions:
        stats = session.stats
        registry.counter("client.programs").inc(stats.programs)
        registry.counter("client.programs_committed").inc(stats.committed)
        registry.counter("client.programs_aborted").inc(stats.aborted)
        registry.counter("client.programs_local").inc(stats.local_programs)
        registry.counter("client.reads").inc(stats.reads)
        registry.counter("client.writes").inc(stats.writes)
        registry.counter("client.lease_reads").inc(stats.lease_reads)
        registry.counter("client.cache_reads").inc(stats.cache_reads)
        registry.counter("client.remote_reads").inc(stats.remote_reads)
        registry.counter("client.local_writes").inc(stats.local_writes)
        registry.counter("client.remote_writes").inc(stats.remote_writes)
        registry.counter("client.flush_writes").inc(stats.flush_writes)
        read_latency.observe_many(stats.read_latencies)
        staleness.observe_many(stats.staleness)
        if session.cache is not None:
            cache = session.cache.stats
            registry.counter("client.cache.hits").inc(cache.hits)
            registry.counter("client.cache.misses").inc(cache.misses)
            registry.counter("client.cache.evictions").inc(cache.evictions)
            registry.counter("client.cache.dirty_evictions").inc(
                cache.dirty_evictions)
            registry.counter("client.cache.invalidations").inc(
                cache.invalidations)
    # lease tables are per-processor (shared by that node's sessions),
    # so collect them from the protocols, not the sessions
    for pid in cluster.pids:
        table = getattr(cluster.protocols[pid], "lease_table", None)
        if table is None:
            continue
        stats = table.stats
        registry.counter("client.lease.granted").inc(stats.granted)
        registry.counter("client.lease.served").inc(stats.served)
        registry.counter("client.lease.expired").inc(stats.expired)
        registry.counter("client.lease.revoked").inc(stats.revoked)
        registry.counter("client.lease.invalidated").inc(stats.invalidated)


def _client(cluster: Cluster, pid: int, generator: WorkloadGenerator,
            spec: ExperimentSpec, tag: str, session=None, observer=None):
    """One client: Poisson arrivals until the duration elapses, or for
    exactly ``spec.txns_per_client`` transactions when that is set.

    Closed loop (default): each arrival waits for the previous program
    to finish — think-time load, rng- and event-identical to the
    historical driver (the golden-trace pin covers it).  Open loop
    (``spec.open_loop``): arrivals fire on the interarrival clock
    regardless of service time, each spawning a worker, so the latency
    samples include queueing.  Both loops draw interarrival-then-
    program per transaction, keeping the two modes draw-for-draw
    identical on one seed.
    """
    sim = cluster.sim
    tm = cluster.tm(pid)
    backoff = 2 * cluster.config.delta

    def run_one(index, program, arrival):
        if session is not None:
            committed, _ = yield from session.run_program(
                program, tag=f"{tag}t{index}", retries=spec.retries,
                backoff=backoff)
        else:
            body = body_for(program, tag=f"{tag}t{index}")
            committed, _ = yield from tm.run(body, retries=spec.retries,
                                             backoff=backoff)
        if committed and observer is not None:
            observer.latencies.append(sim.now - arrival)

    def one(index):
        # draw order matters: interarrival was drawn by the caller,
        # the program is drawn here — exactly the historical sequence
        program = generator.next_program()
        yield from run_one(index, program, sim.now)

    def spawn(index):
        program = generator.next_program()
        return sim.process(run_one(index, program, sim.now),
                           name=f"txn@{tag}t{index}")

    workers = []
    if spec.txns_per_client is not None:
        for index in range(spec.txns_per_client):
            yield sim.timeout(generator.next_interarrival())
            if spec.open_loop:
                workers.append(spawn(index))
            else:
                yield from one(index)
    else:
        index = 0
        while sim.now < spec.duration:
            yield sim.timeout(generator.next_interarrival())
            if sim.now >= spec.duration:
                break
            if spec.open_loop:
                workers.append(spawn(index))
            else:
                yield from one(index)
            index += 1
    for worker in workers:
        if worker.is_alive:
            yield worker
    if session is not None:
        # write-back's flush-on-close: pending dirty entries must reach
        # the store before the client stops (open-loop stragglers past
        # the duration horizon keep their dirty values client-side)
        yield from session.drain(retries=spec.retries, backoff=backoff)
