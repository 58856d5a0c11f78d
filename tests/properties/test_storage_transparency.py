"""Property: the storage engine is cost-transparent at default policy.

Two pins, mirroring ``test_batching_transparency``:

1. **Trace identity** — with zero storage costs and compaction off, a
   failure-laden seeded run produces a byte-identical trace to the
   pinned capture (first taken on the pre-engine implementation, and
   re-taken once since, when the fan-out primitives changed the order
   of same-instant events).  Only the event families the engine added
   (``storage.*``, ``msg.late-reply``) are filtered before hashing —
   everything else must be untouched, timestamps included.

2. **Outcome preservation** — turning the durability cost model and
   compaction *on* may shift timing (forced writes consume model time,
   compaction forces full-transfer catch-ups) but must not change what
   commits: same committed write tags, 1SR both ways.
"""

import hashlib
import json

from repro.core.config import ProtocolConfig
from repro.workload.generator import WorkloadSpec
from repro.workload.runner import ExperimentSpec, run_experiment

PROCESSORS = 5
CLIENTS = 2
TXNS_PER_CLIENT = 4

#: sha256 of the canonical JSONL trace of `_golden_spec`'s run,
#: re-captured when fan-out collapsed into one call object per scatter
#: and requests moved to direct handlers.  That change reorders events
#: within an instant (requests leave when the call is created, and a
#: gatherer wakes one dispatch after its last reply instead of four),
#: so the trace moved; the committed write sets of this spec are
#: unchanged on seeds 1-20, all one-copy serializable.  The previous
#: capture dated from the pre-storage-engine implementation (with the
#: stale-view guard of copy_update applied there too).
GOLDEN_TRACE_SHA = \
    "2a3c2c2df3228341a732605bffa54c86000936bbdac01441c53671056aaf2053"
#: event families added by this refactor, filtered before hashing
NEW_EVENT_FAMILIES = ("storage.", "msg.late-reply")

#: sha256 of the full (unfiltered) trace of the batched-transport
#: variant of the same scenario (``batch_window = 0.5``), re-captured
#: when macro-event delivery was deleted (envelopes now hand their
#: messages to the same handlers as unbatched delivery).  Pins the
#: envelope delivery order and per-message trace emission of the
#: batched path — which the default-config pin above never exercises.
BATCHED_GOLDEN_TRACE_SHA = \
    "22d54019d3a9bdaa2c6269cc23ed5147eab50f067cd2f3a415962fbb1a9b6f24"


def _private_objects(pid, client):
    base = ((pid - 1) * CLIENTS + client) * 2
    return [f"o{base}", f"o{base + 1}"]


def _spec(config, failures, read_fraction, trace=False):
    return ExperimentSpec(
        protocol="virtual-partitions", processors=PROCESSORS,
        objects=PROCESSORS * CLIENTS * 2, seed=7,
        duration=200.0, grace=60.0,
        workload=WorkloadSpec(read_fraction=read_fraction, ops_per_txn=2,
                              mean_interarrival=6.0),
        config=config,
        clients=CLIENTS, txns_per_client=TXNS_PER_CLIENT,
        objects_for=_private_objects, failures=failures,
        retries=25, check=True, trace=trace,
    )


def _committed_write_tags(result):
    tags = set()
    for record in result.cluster.history.committed():
        for op in record.logical_ops:
            if op.kind == "w":
                tags.add(str(op.value).split("#")[0])
    return tags


def test_default_policy_is_trace_identical_to_pre_engine_run(tmp_path):
    """Partition + crash + recover + heal, every §6 optimization on."""
    def schedule(cluster):
        cluster.injector.partition_at(30.0, [{1, 2, 3, 4}, {5}])
        cluster.injector.crash_at(45.0, 2)
        cluster.injector.recover_at(70.0, 2)
        cluster.injector.heal_all_at(60.0)

    config = ProtocolConfig(delta=1.0, init_strategy="previous",
                            catchup="log", split_off_fastpath=True,
                            weakened_r4=True)
    result = run_experiment(_spec(config, schedule, read_fraction=0.3,
                                  trace=True))
    path = tmp_path / "trace.jsonl"
    result.cluster.write_trace(path)
    kept = []
    for line in path.read_text().splitlines(keepends=True):
        etype = json.loads(line)["e"]
        if etype.startswith(NEW_EVENT_FAMILIES[0]) \
                or etype == NEW_EVENT_FAMILIES[1]:
            continue
        kept.append(line)
    digest = hashlib.sha256("".join(kept).encode()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA
    assert result.one_copy_ok is True
    # ...and the run exercised the engine: the journal was busy
    assert result.registry.counter("storage.wal_appends").value > 0
    assert result.registry.counter("storage.forced_syncs").value > 0


def test_batched_config_trace_is_pinned(tmp_path):
    """Batched delivery is trace-deterministic: a partition + heal run
    on the batched transport produces a byte-identical trace every
    time, and batching must not change what commits (1SR holds)."""
    def schedule(cluster):
        cluster.injector.partition_at(30.0, [{1, 2, 3, 4}, {5}])
        cluster.injector.heal_all_at(60.0)

    config = ProtocolConfig(delta=1.0, batch_window=0.5)
    result = run_experiment(_spec(config, schedule, read_fraction=0.3,
                                  trace=True))
    path = tmp_path / "batched_trace.jsonl"
    result.cluster.write_trace(path)
    digest = hashlib.sha256(path.read_text().encode()).hexdigest()
    assert digest == BATCHED_GOLDEN_TRACE_SHA
    assert result.one_copy_ok is True
    # the run exercised batching: some envelopes carried several messages
    assert 0 < result.network["envelopes"] < result.network["sent"]
    assert result.committed > 0


def test_durability_costs_and_compaction_preserve_outcomes():
    """Paired runs through a partition + heal: free/unbounded storage
    vs. priced forced writes with checkpointing and log compaction.
    Timing moves; the committed work and its serializability do not."""
    def schedule(cluster):
        cluster.injector.partition_at(30.0, [{1, 2, 3, 4}, {5}])
        cluster.injector.heal_all_at(60.0)

    def config(costed):
        return ProtocolConfig(
            delta=1.0,
            storage_append_cost=0.05 if costed else 0.0,
            storage_sync_cost=0.2 if costed else 0.0,
            checkpoint_every=25 if costed else 0,
            log_retain=3 if costed else None,
        )

    free, priced = (
        run_experiment(_spec(config(costed), schedule, read_fraction=0.0))
        for costed in (False, True))
    expected = PROCESSORS * CLIENTS * TXNS_PER_CLIENT
    assert len(_committed_write_tags(free)) == expected
    assert _committed_write_tags(free) == _committed_write_tags(priced)
    assert free.one_copy_ok is True
    assert priced.one_copy_ok is True
    # the comparison is not vacuous: the priced run really paid
    assert priced.registry.counter("storage.forced_syncs").value > 0
    assert priced.registry.counter("storage.checkpoints").value > 0
    assert (priced.registry.gauge("storage.retained_entries").value
            < free.registry.gauge("storage.retained_entries").value)


def test_concurrent_initiations_with_forced_writes_converge():
    """Regression: the acceptor's max-id forced write must delay only
    its own acceptance, not the Monitor-VP-Creations loop.

    After a heal, several processors initiate new partitions in the
    same probe round.  A blocking sync in the monitor loop stacks one
    forced write per concurrent invitation onto later accepts, pushing
    them past ``invite_wait`` (which budgets exactly one) — views then
    shrink to a minority clique and re-form identically every round,
    a permanent livelock (seed 99 reproduced it: all five processors
    settled on view [4, 5] with 1-3 connected)."""
    from repro import Cluster

    config = ProtocolConfig(storage_append_cost=0.05, storage_sync_cost=0.2,
                            checkpoint_every=15, log_retain=3)
    cluster = Cluster(processors=5, seed=99, config=config)
    cluster.place("x", holders=[1, 2, 3, 4, 5], initial=0)
    cluster.start()
    cluster.injector.partition_at(20.0, [{1, 2, 3}, {4, 5}])
    cluster.injector.crash_at(40.0, 2)
    cluster.injector.recover_at(75.0, 2)
    cluster.injector.heal_all_at(90.0)

    def incr(txn):
        value = yield from txn.read("x")
        yield from txn.write("x", value + 1)
        return value + 1

    outcomes = []
    for index in range(12):
        outcomes.append(cluster.submit(1 + index % 3, incr,
                                       retries=10, backoff=5.0))
        cluster.sim.run(until=outcomes[-1])
    cluster.run(until=cluster.sim.now + 2 * cluster.config.liveness_bound)

    committed = sum(1 for o in outcomes if o.value and o.value[0])
    assert committed == 12  # the livelock starved 8 of these
    values = {pid: cluster.processor(pid).store.read("x")[0]
              for pid in cluster.pids}
    assert set(values.values()) == {12}
    views = {pid: tuple(sorted(cluster.protocol(pid).view))
             for pid in cluster.pids}
    assert set(views.values()) == {(1, 2, 3, 4, 5)}
    assert cluster.check_one_copy_serializable() is True
