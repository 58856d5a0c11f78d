"""The benchmark's workloads: seeded experiment specs, nothing else.

Each workload turns a seed into a fixed list of instances (one
:class:`~repro.workload.runner.ExperimentSpec` each, plus the fault
schedule the spec replays).  Instance ``i`` of seed ``s`` runs with
seed ``s * len(instances) + i``, so the same seed always yields the
same inputs and different seeds never share an instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.client.session import SessionSpec
from repro.net.nemesis import FaultAction, NemesisMix, plan_nemesis
from repro.shard import ReshardAction
from repro.sim.rng import RandomStreams
from repro.workload import ExperimentSpec, WorkloadSpec
from repro.workload.hunt import ScheduledNemesis


@dataclass(frozen=True)
class Instance:
    """One experiment of a workload and the faults it replays."""

    spec: ExperimentSpec
    faults: Tuple[FaultAction, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    #: simulated duration of each instance (the settle window follows)
    horizon: float
    instances: int
    build: Callable[[int, float], Instance]

    def plan(self, seed: int) -> List[Instance]:
        return [self.build(seed * self.instances + i, self.horizon)
                for i in range(self.instances)]


def vp_contended(seed: int, horizon: float) -> Instance:
    """The ROADMAP's VP reference spec (E13): 5 nodes, 10 fully
    replicated objects, 50% writes, 4 ops per transaction, 2
    closed-loop clients per node at interarrival 2.0, 2PC, no faults;
    the auditor is armed the way hunts arm it (it sends nothing, so
    the run is event-for-event the reference spec's)."""
    return Instance(ExperimentSpec(
        protocol="virtual-partitions", processors=5, objects=10,
        seed=seed, duration=horizon, grace=60.0,
        workload=WorkloadSpec(read_fraction=0.5, ops_per_txn=4,
                              mean_interarrival=2.0),
        clients=2, audit=True,
    ))


#: partition-churn fault schedule: one fault per burst, a new burst
#: every ~40 time units, each held ~5 (all fault kinds, default mix)
CHURN_GAP = 40.0
CHURN_HOLD = 5.0
CHURN_SETTLE = 150.0


def partition_churn(seed: int, horizon: float) -> Instance:
    """5 nodes under Paxos Commit and a seeded nemesis schedule, with
    the auditor armed and clients retrying the way hunts run them."""
    pids = list(range(1, 6))
    faults = tuple(plan_nemesis(
        RandomStreams(seed).stream("nemesis"), pids, NemesisMix(),
        horizon=horizon, start=10.0, mean_gap=CHURN_GAP, burst=(1, 1),
        mean_hold=CHURN_HOLD))
    return Instance(ExperimentSpec(
        protocol="virtual-partitions", processors=len(pids), objects=10,
        seed=seed, duration=horizon, grace=CHURN_SETTLE,
        workload=WorkloadSpec(read_fraction=0.7, ops_per_txn=2,
                              mean_interarrival=2.0),
        clients=2, retries=3, audit=True, commit_backend="paxos",
        failures=ScheduledNemesis(faults),
    ), faults)


#: when sharded-sessions starts growing its ring onto the spare nodes
RESHARD_AT = 100.0


def sharded_sessions(seed: int, horizon: float) -> Instance:
    """16 nodes, 400 objects on a degree-3 hash ring behind cached
    directories; write-back session caches and leases; 90% Zipf-1.1
    reads on an open-loop Poisson clock; the ring grows onto the 2
    spare nodes at :data:`RESHARD_AT`.  Moving its ~124 objects one at
    a time takes ~1,200 time units, so the horizon leaves room for the
    migration to finish and for the grown ring to serve load."""
    return Instance(ExperimentSpec(
        protocol="virtual-partitions", processors=16, objects=400,
        copies_per_object=3, placement="hash-ring", directory="cached",
        seed=seed, duration=horizon, grace=60.0,
        workload=WorkloadSpec(read_fraction=0.9, ops_per_txn=2,
                              zipf_s=1.1, mean_interarrival=10.0),
        open_loop=True, retries=2,
        session=SessionSpec(cache_capacity=16, cache_policy="write-back",
                            lease_duration=10.0),
        reshard=(ReshardAction(time=RESHARD_AT, add=(15, 16)),),
    ))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # each instance completes ~1,080 programs, so its own p99 has
        # ten samples beyond it (harness.py reports the median over
        # instances of each instance's percentiles)
        Workload("vp-contended", horizon=5500.0, instances=6,
                 build=vp_contended),
        Workload("partition-churn", horizon=500.0, instances=20,
                 build=partition_churn),
        Workload("sharded-sessions", horizon=1600.0, instances=8,
                 build=sharded_sessions),
    )
}
