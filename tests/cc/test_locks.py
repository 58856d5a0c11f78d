"""Unit tests for the copy lock manager."""

import pytest

from repro.cc.locks import EXCLUSIVE, SHARED, LockManager
from repro.sim import Simulator


@pytest.fixture()
def manager():
    return LockManager(Simulator())


def test_shared_locks_are_compatible(manager):
    a = manager.acquire("t1", "x", SHARED)
    b = manager.acquire("t2", "x", SHARED)
    assert a.triggered and b.triggered
    assert manager.holders("x") == {"t1": SHARED, "t2": SHARED}


def test_exclusive_blocks_everyone(manager):
    a = manager.acquire("t1", "x", EXCLUSIVE)
    b = manager.acquire("t2", "x", SHARED)
    c = manager.acquire("t3", "x", EXCLUSIVE)
    assert a.triggered
    assert not b.triggered and not c.triggered


def test_release_promotes_fifo(manager):
    manager.acquire("t1", "x", EXCLUSIVE)
    b = manager.acquire("t2", "x", SHARED)
    c = manager.acquire("t3", "x", SHARED)
    d = manager.acquire("t4", "x", EXCLUSIVE)
    manager.release_all("t1")
    # Both shared requests are granted together; the exclusive waits.
    assert b.triggered and c.triggered
    assert not d.triggered
    manager.release_all("t2")
    assert not d.triggered
    manager.release_all("t3")
    assert d.triggered


def test_no_barging_behind_queued_exclusive(manager):
    manager.acquire("t1", "x", SHARED)
    b = manager.acquire("t2", "x", EXCLUSIVE)
    c = manager.acquire("t3", "x", SHARED)  # arrives after queued X
    assert not b.triggered
    assert not c.triggered, "shared must not barge past a queued exclusive"
    manager.release_all("t1")
    assert b.triggered and not c.triggered


def test_reentrant_same_mode(manager):
    manager.acquire("t1", "x", SHARED)
    again = manager.acquire("t1", "x", SHARED)
    assert again.triggered


def test_x_covers_s(manager):
    manager.acquire("t1", "x", EXCLUSIVE)
    read = manager.acquire("t1", "x", SHARED)
    assert read.triggered
    assert manager.holders("x") == {"t1": EXCLUSIVE}


def test_upgrade_granted_when_sole_holder(manager):
    manager.acquire("t1", "x", SHARED)
    up = manager.acquire("t1", "x", EXCLUSIVE)
    assert up.triggered
    assert manager.holders("x") == {"t1": EXCLUSIVE}


def test_upgrade_waits_for_other_readers(manager):
    manager.acquire("t1", "x", SHARED)
    manager.acquire("t2", "x", SHARED)
    up = manager.acquire("t1", "x", EXCLUSIVE)
    assert not up.triggered
    manager.release_all("t2")
    assert up.triggered


def test_cancel_leaves_queue_and_promotes(manager):
    manager.acquire("t1", "x", EXCLUSIVE)
    b = manager.acquire("t2", "x", EXCLUSIVE)
    c = manager.acquire("t3", "x", SHARED)
    b.cancel()
    manager.release_all("t1")
    assert not b.triggered
    assert c.triggered


def test_release_all_returns_freed_objects(manager):
    manager.acquire("t1", "x", SHARED)
    manager.acquire("t1", "y", EXCLUSIVE)
    freed = manager.release_all("t1")
    assert sorted(freed) == ["x", "y"]
    assert manager.holders("x") == {}


def test_is_write_locked(manager):
    manager.acquire("t1", "x", SHARED)
    assert not manager.is_write_locked("x")
    manager.acquire("t2", "y", EXCLUSIVE)
    assert manager.is_write_locked("y")


def test_holding_txns(manager):
    manager.acquire("t1", "x", SHARED)
    manager.acquire("t2", "y", EXCLUSIVE)
    assert manager.holding_txns() == {"t1", "t2"}


def test_unknown_mode_rejected(manager):
    with pytest.raises(ValueError):
        manager.acquire("t1", "x", "Z")


def test_queue_length(manager):
    manager.acquire("t1", "x", EXCLUSIVE)
    manager.acquire("t2", "x", SHARED)
    manager.acquire("t3", "x", SHARED)
    assert manager.queue_length("x") == 2
    assert manager.queue_length("never-locked") == 0


def test_locks_on_different_objects_independent(manager):
    a = manager.acquire("t1", "x", EXCLUSIVE)
    b = manager.acquire("t2", "y", EXCLUSIVE)
    assert a.triggered and b.triggered


def test_immediate_grants_cost_no_kernel_dispatch():
    sim = Simulator()
    manager = LockManager(sim)
    grants = [
        manager.acquire("t1", "x", SHARED),     # compatible
        manager.acquire("t1", "x", SHARED),     # re-entrant
        manager.acquire("t1", "x", EXCLUSIVE),  # sole-holder upgrade
        manager.acquire("t1", "x", SHARED),     # covered by X
    ]
    assert all(grant.triggered for grant in grants)
    sim.run()
    assert sim.dispatched == 0
    # a queued request is still a real event, granted on release
    waiter = manager.acquire("t2", "x", SHARED)
    assert not waiter.triggered
    manager.release_all("t1")
    sim.run()
    assert waiter.triggered and sim.dispatched == 1
