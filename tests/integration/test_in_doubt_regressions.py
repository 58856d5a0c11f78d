"""Regression pins for the lost-decide 2PC hole (now fixed).

Both scenarios were found by hypothesis (seeds 137 and 7174 of
``tests/properties/test_protocol_invariants.py``) and shared one root
cause: a participant that voted yes in a prepare round lost the
commit-decide message and its prepared write was then rolled back —
by the strict-R4 force-abort on a partition change (seed 137) or by
the crash-time undo pass (seed 7174).  A later legal majority held no
up-to-date copy and a committed update vanished.

The fix makes such participants *in-doubt*: exempt from both rollback
paths, resolved by querying the coordinator's decision log, and
invisible to recovery until resolved.  These tests replay the exact
schedules deterministically so the hole cannot quietly reopen.
"""

import pytest

from repro import Cluster, ProtocolConfig

from tests.properties.test_protocol_invariants import run_random_cluster


def _committed_counter_survives(seed: int, *, event_count: int,
                                txn_count: int) -> None:
    cluster = run_random_cluster(seed, n=4, event_count=event_count,
                                 txn_count=txn_count)
    committed_by_obj: dict = {}
    for record in cluster.history.committed():
        for op in record.logical_ops:
            if op.kind == "w":
                committed_by_obj[op.obj] = committed_by_obj.get(op.obj, 0) + 1
    for obj, count in committed_by_obj.items():
        readable = [
            cluster.processor(p).store.peek(obj)[0]
            for p in cluster.placement.copies(obj)
            if cluster.protocol(p).available(obj, write=False)
            and obj not in cluster.protocol(p).state.locked
        ]
        assert count in readable or not readable, (
            f"{obj}: committed {count} increments, copies read {readable}"
        )


def test_partition_cut_after_commit_decide(seed=137):
    """Seed 137: a cut right after commit loses the decides to two of
    three copies; the survivors form a legal majority with only stale
    copies.  In-doubt resolution must deliver the commit anyway."""
    _committed_counter_survives(seed, event_count=5, txn_count=5)


def test_participant_crash_while_in_doubt(seed=7174):
    """Seed 7174: the coordinator crashes right after deciding commit
    (its in-flight decide is dropped) and the in-doubt participant then
    crashes too.  The crash-time undo pass must not roll the prepared
    write back — the in-doubt set models the force-written prepare
    record and survives."""
    _committed_counter_survives(seed, event_count=4, txn_count=6)


# -- resolver edge cases ------------------------------------------------------
#
# The scenarios below steer one transaction into the decide window by
# hand: with ``storage_sync_cost`` > 0 the coordinator force-writes its
# commit decision and then waits out the sync before any decide message
# leaves, so polling the durable decision log exposes a deterministic
# instant at which the outcome exists but no participant can know it.

TXN = (1, 1)  # first transaction minted at processor 1


def _cluster_in_decide_window(backend: str = "2pc"):
    """Run a 3-copy write up to the point where the coordinator has
    durably decided commit but the decide fan-out has not left yet.
    Returns the cluster with the sim parked inside that window."""
    config = ProtocolConfig(delta=4.0, storage_sync_cost=3.0,
                            commit_backend=backend)
    cluster = Cluster(processors=3, seed=1, config=config, audit=True)
    cluster.place("x", holders=[1, 2, 3], initial=0)
    cluster.start()
    cluster.run(until=5.0)  # initial views settle
    cluster.write_once(1, "x", 42)
    while cluster.processor(1).store.decision_of(TXN) != "commit":
        cluster.sim.run(until=cluster.sim.now + 0.25)
        assert cluster.sim.now < 120.0, "commit decision never logged"
    # the decides wait out the 3.0-unit sync; both participants voted
    # yes at least a delta ago and are in doubt until a decide lands
    for pid in (2, 3):
        assert TXN in cluster.protocol(pid).commit.in_doubt
    return cluster


def test_watchdog_fires_while_coordinator_dead():
    """The decide watchdog (and the partition-change kick) must keep a
    prepared participant safely blocked — not roll it back, not leak
    resolver tasks — while the coordinator is crashed, and deliver the
    logged commit the moment the coordinator's WAL comes back."""
    cluster = _cluster_in_decide_window()
    cluster.injector.crash_at(cluster.sim.now + 0.5, 1)
    # run far past the per-vote decide watchdog (access_timeout = 96):
    # it fires against a dead coordinator, the resolver's txn-status
    # gets no response, and 2PC's blocking window holds
    cluster.run(until=cluster.sim.now + 3 * cluster.config.access_timeout)
    for pid in (2, 3):
        commit = cluster.protocol(pid).commit
        assert TXN in commit.in_doubt, "in-doubt txn rolled back"
        assert TXN in commit.resolving, "resolver not armed (or leaked)"
    recover_at = cluster.sim.now + 1.0
    cluster.injector.recover_at(recover_at, 1)
    cluster.run(until=recover_at + 3 * cluster.config.access_timeout)
    for pid in (2, 3):
        commit = cluster.protocol(pid).commit
        assert TXN not in commit.in_doubt
        assert TXN not in commit.resolving
        assert cluster.processor(pid).store.peek("x")[0] == 42
        assert commit.metrics.in_doubt_dwell, "dwell not recorded"
    assert cluster.history.txns[TXN].status == "committed"
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]
    assert cluster.check_one_copy_serializable() is True


def test_duplicate_decide_after_resolution_is_idempotent():
    """A decide re-delivered after the participant already applied the
    outcome (e.g. a resolver answer beat the original decide through a
    healing partition) must be a no-op: no double-apply, no dwell
    double-count, no auditor violation."""
    cluster = _cluster_in_decide_window()
    cluster.run(until=cluster.sim.now + 20.0)  # normal decides land
    assert TXN not in cluster.protocol(2).commit.in_doubt
    assert cluster.processor(2).store.peek("x")[0] == 42
    dwell_before = list(cluster.protocol(2).commit.metrics.in_doubt_dwell)
    cluster.processor(1).send(2, "release", {"txn": TXN, "outcome": "commit"})
    cluster.run(until=cluster.sim.now + 20.0)
    assert cluster.processor(2).store.peek("x")[0] == 42
    assert cluster.protocol(2).commit.metrics.in_doubt_dwell == dwell_before
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]
    assert cluster.check_one_copy_serializable() is True


def test_txn_status_racing_late_decide():
    """A resolver whose txn-status round-trip (2 * delta = 8) is still
    in flight when the ordinary decide lands (sync + delta = 7) must
    notice the transaction resolved and stand down without applying the
    answer a second time."""
    cluster = _cluster_in_decide_window()
    commit = cluster.protocol(2).commit
    commit.kick_resolver(TXN)
    assert TXN in commit.resolving
    cluster.run(until=cluster.sim.now + 3 * cluster.config.access_timeout)
    assert TXN not in commit.in_doubt
    assert TXN not in commit.resolving, "resolver never exited"
    assert len(commit.metrics.in_doubt_dwell) == 1, "dwell double-counted"
    assert cluster.processor(2).store.peek("x")[0] == 42
    assert cluster.history.txns[TXN].status == "committed"
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]
    assert cluster.check_one_copy_serializable() is True


@pytest.mark.parametrize("backend", ["2pc", "paxos"])
def test_decide_in_the_resolver_spawn_instant(backend):
    """A resolver is spawned, and in the same instant — before its
    process first runs — a decide resolves the transaction.  The
    resolver must stand down quietly (it once read the in-doubt entry
    unguarded and crashed with a KeyError) and release its slot."""
    cluster = _cluster_in_decide_window(backend)
    commit = cluster.protocol(2).commit
    commit.kick_resolver(TXN)
    assert TXN in commit.resolving
    cluster.protocol(2)._apply_decision(TXN, "commit")
    assert TXN not in commit.in_doubt
    cluster.run(until=cluster.sim.now + 20.0)
    assert cluster.sim.crashes == []
    assert TXN not in commit.resolving
    assert cluster.processor(2).store.peek("x")[0] == 42
    assert cluster.auditor.ok, [str(v) for v in cluster.auditor.violations]
