"""Run one workload instance: time it, check it, read its counters.

The program is driven only through its public surface:
:func:`~repro.workload.runner.run_experiment`, the ``Cluster`` it
builds, and the counters the finished run exposes.  The timed window is
``Cluster.run`` alone; set-up (spec to a started cluster with faults
scheduled and clients spawned) is timed by builds that stop where the
run would begin (:func:`setup_cpu`), and the output checks run after
the run.
"""

from __future__ import annotations

import gc
import resource
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.obs.metrics import LogBucketHistogram
from repro.workload.runner import ExperimentSpec, run_experiment

from spans import LayerTracer
from workloads import Instance

#: message kinds of the atomic-commit round (2PC and Paxos Commit)
COMMIT_KINDS = ("prepare", "prepare-reply", "release", "txn-status",
                "txn-status-reply", "px-accept", "px-accepted", "px-p1",
                "px-p1-reply", "px-p2", "px-p2-reply")
PROBE_KINDS = ("probe", "probe-ack")
#: abort reasons reported one by one; anything else lands in "other"
ABORT_REASONS = ("cc-timeout", "cc-too-late", "lock-timeout", "inaccessible",
                 "no-copy-in-view", "no-response", "wrong-partition",
                 "stale-placement", "txn-poisoned", "no-copy")

#: counts that combine across instances by maximum, not by sum
MAXIMA = ("core.heal_to_commit_max", "core.liveness_bound")


class CheckFailed(AssertionError):
    """The program's output is wrong: the run is an error, not a number."""


@dataclass
class Sample:
    """What one execution of one instance produced."""

    run_cpu_s: float
    #: the process's peak resident memory when the run ends: the
    #: execution's own peak only in a fresh process (``fresh.py``)
    peak_rss_mb: float
    #: every deterministic output: identical across repeats of a seed
    counts: Dict[str, float]
    latency: LogBucketHistogram = field(repr=False)
    dwell: LogBucketHistogram = field(repr=False)
    fanout: List[float] = field(repr=False)
    tracer: Optional[LayerTracer] = field(default=None, repr=False)


def _at_run(instance: Instance, hook: Callable) -> ExperimentSpec:
    """``instance``'s spec with ``cluster.run`` replaced by
    ``hook(run, until)``.  The spec's ``failures`` hook runs after
    ``cluster.start()`` and ``run_experiment`` spawns the clients after
    it, so ``hook`` is entered exactly where set-up ends."""
    def arm(cluster) -> None:
        if instance.spec.failures is not None:
            instance.spec.failures(cluster)
        run = cluster.run
        cluster.run = lambda until=None: hook(run, until)
    return replace(instance.spec, failures=arm)


class _SetUp(Exception):
    """Stops a set-up-only build where the run would begin."""


def setup_cpu(instance: Instance) -> float:
    """CPU seconds from ``instance``'s spec to a started cluster with
    its faults scheduled and clients spawned; nothing runs."""
    def stop(run, until):
        raise _SetUp(time.process_time())

    gc.collect()
    start = time.process_time()
    try:
        run_experiment(_at_run(instance, stop))
    except _SetUp as done:
        return done.args[0] - start
    raise AssertionError("run_experiment returned without running")


def execute(instance: Instance, trace: bool = False,
            checked: bool = True) -> Sample:
    """Run ``instance`` once; with ``checked``, raises
    :class:`CheckFailed` on bad output."""
    marks: Dict[str, float] = {}
    tracer = LayerTracer() if trace else None

    def timed_run(run, until):
        marks["setup_end"] = time.process_time()
        if tracer is None:
            run(until=until)
        else:
            tracer.run(run, until)
        marks["run_end"] = time.process_time()
        marks["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gc.collect()
    result = run_experiment(_at_run(instance, timed_run))
    cluster = result.cluster
    if checked:
        check(result)
    registry = result.registry
    return Sample(
        run_cpu_s=marks["run_end"] - marks["setup_end"],
        peak_rss_mb=marks["peak_rss_mb"],
        counts=counts_of(instance, result),
        latency=registry.log_histogram("client.txn_latency"),
        dwell=registry.log_histogram("txn.in_doubt_dwell"),
        fanout=[x for pid in cluster.pids
                for x in cluster.processors[pid].transport.fanout_latencies],
        tracer=tracer,
    )


def check(result) -> None:
    """The output checks: a CP-serializable history, copies in the
    final view that agree on value and logical date, a clean auditor,
    and at least one commit."""
    cluster = result.cluster
    if result.committed <= 0:
        raise CheckFailed("no transaction committed")
    if not cluster.check_serializable():
        raise CheckFailed("committed history is not CP-serializable")
    if result.audit_violations:
        first = result.audit_violations[0]
        raise CheckFailed(f"{len(result.audit_violations)} auditor "
                          f"violation(s), first: {first}")
    # the final view: the partition most live nodes ended up in
    views: Dict[object, List[int]] = {}
    for pid in cluster.pids:
        if cluster.processors[pid].alive:
            views.setdefault(cluster.protocols[pid].state.cur_id,
                             []).append(pid)
    members = set(max(views.values(), key=len))
    # a transaction still running when the run stops, or ended too
    # recently for its outcome to reach every copy, may have written
    # some copies of an object and not the rest: skip those objects
    recent = cluster.sim.now - cluster.config.liveness_bound
    in_flight = set()
    for record in cluster.history.txns.values():
        if record.end_time is None or record.end_time > recent:
            in_flight.update(op.obj for op in record.physical_ops
                             if op.kind == "w")
    for obj in sorted(cluster.placement.objects - in_flight):
        values = {pid: cluster.processors[pid].store.peek(obj)
                  for pid in cluster.placement.copies(obj) & members}
        if len(set(values.values())) > 1:
            raise CheckFailed(f"copies of {obj} in the final view "
                              f"disagree: {values}")


def heal_to_commit_max(instance: Instance, result) -> float:
    """For each heal or recover the schedule plans, the simulated time
    until the next commit (or the end of the run, if none follows);
    the maximum, 0 when nothing heals."""
    heals = []
    for action in instance.faults:
        if action.kind in ("crash", "cut", "oneway", "partition"):
            heals.append(action.time + action.hold)
        elif action.kind == "flap":
            _, _, period, cycles = action.args
            heals += [action.time + (2 * c + 1) * period
                      for c in range(cycles)]
    cluster = result.cluster
    ends = sorted(r.end_time for r in cluster.history.committed())
    ends.append(cluster.sim.now)
    return max((ends[bisect_left(ends, heal)] - heal for heal in heals),
               default=0.0)


def counts_of(instance: Instance, result) -> Dict[str, float]:
    """Every deterministic number a run yields, keyed by metric name.

    Instances of a workload add up, except :data:`MAXIMA`; ratios are
    formed from the totals, so a workload reports its pooled ratio,
    not a mean of ratios.
    """
    cluster = result.cluster
    snap = result.registry.snapshot()
    counters, gauges = snap["counters"], snap["gauges"]
    by_kind = result.network["by_kind"]
    metrics = result.metrics
    sessions = "client.programs" in counters
    c: Dict[str, float] = {
        "attempted": (counters["client.programs"] if sessions
                      else result.attempted),
        "committed": (counters["client.programs_committed"] if sessions
                      else result.committed),
        "sim.events": result.events_dispatched,
        "net.msgs": result.network["sent"],
        "net.envelopes": result.network["envelopes"],
        "net.dropped": counters["msg.dropped"],
        "probe_msgs": sum(by_kind.get(k, 0) for k in PROBE_KINDS),
        "commit_msgs": sum(by_kind.get(k, 0) for k in COMMIT_KINDS),
        "node.fanouts": counters["transport.fanouts"],
        "node.rpcs": counters["transport.rpcs"],
        "node.no_responses": counters["transport.no_responses"],
        "node.late_replies": counters["transport.late_replies"],
        "storage.wal_appends": counters.get("storage.wal_appends", 0),
        "storage.forced_syncs": counters.get("storage.forced_syncs", 0),
        "storage.replayed_records": counters.get("storage.replayed_records", 0),
        "storage.retained_entries": gauges.get("storage.retained_entries", 0),
        "core.vp_created": metrics.vp_created,
        "core.vp_joined": metrics.vp_joined,
        "core.recoveries": metrics.recoveries,
        "core.transfer_units": metrics.transfer_units,
        "core.catchup_fallbacks": metrics.catchup_fallbacks,
        "physical_ops": metrics.physical_read_rpcs + metrics.physical_write_rpcs,
        "logical_ops": metrics.logical_reads + metrics.logical_writes,
        "core.heal_to_commit_max": heal_to_commit_max(instance, result),
        "core.liveness_bound": cluster.config.liveness_bound,
        "cc.lock_waits": sum(
            getattr(getattr(cluster.protocols[pid].cc, "locks", None),
                    "waits", 0) for pid in cluster.pids),
        "commit.in_doubt_left": sum(
            len(cluster.protocols[pid].commit.in_doubt)
            for pid in cluster.pids),
        "client.reads": counters.get("client.reads", 0),
        "client.local_reads": (counters.get("client.lease_reads", 0)
                               + counters.get("client.cache_reads", 0)),
        "client.cache_reads": counters.get("client.cache_reads", 0),
        "client.lease_served": counters.get("client.lease.served", 0),
        "client.lease_expired": counters.get("client.lease.expired", 0),
        "shard.directory_hits": counters.get("directory.hits", 0),
        "shard.directory_lookups": counters.get("directory.lookups", 0),
        "shard.directory_invalidations": counters.get(
            "directory.invalidations", 0),
        "shard.objects_moved": counters.get("reshard.objects_moved", 0),
        "shard.reshard_completed": counters.get(
            "reshard.campaigns_completed", 0),
        "audit.violations": len(result.audit_violations),
    }
    other = 0
    for reason, count in metrics.by_reason.items():
        if reason in ABORT_REASONS:
            c[f"cc.aborts.{reason}"] = count
        else:
            other += count
    for reason in ABORT_REASONS:
        c.setdefault(f"cc.aborts.{reason}", 0)
    c["cc.aborts.other"] = other
    return c
