"""Pin the run registry to the stats dataclasses and to its readers.

Every counter a component keeps is declared in its stats dataclass and
reaches the registry through one generic export; these tests run one
spec that builds every component and check that nothing is dropped on
the way — neither a dataclass field nor a name a consumer reads.
"""

import importlib
import pkgutil
from dataclasses import fields, is_dataclass

import pytest

import repro
from repro.client.cache import CacheStats
from repro.client.lease import LeaseStats
from repro.client.session import SessionSpec, SessionStats
from repro.net.network import NetworkStats
from repro.node.storage.engine import StorageStats
from repro.node.transport import TransportStats
from repro.obs.metrics import Histogram, LogBucketHistogram, sum_stats
from repro.protocols.base import ProtocolMetrics
from repro.shard import ReshardAction
from repro.shard.directory import DirectoryStats
from repro.shard.reshard import ReshardStats
from repro.workload import ExperimentSpec, WorkloadSpec, run_experiment

#: every stats dataclass and the registry prefix it is exported under
PREFIXES = {
    NetworkStats: "msg.",
    TransportStats: "transport.",
    StorageStats: "storage.",
    DirectoryStats: "directory.",
    ReshardStats: "reshard.",
    ProtocolMetrics: "protocol.",
    SessionStats: "client.",
    CacheStats: "client.cache.",
    LeaseStats: "client.lease.",
}

#: sample-list fields and the histogram each one is loaded into
SAMPLES = {
    (TransportStats, "fanout_latencies"): "transport.fanout_latency",
    (ProtocolMetrics, "in_doubt_dwell"): "txn.in_doubt_dwell",
    (SessionStats, "read_latencies"): "client.read_latency",
    (SessionStats, "staleness"): "client.staleness",
}

#: names read by perfbench/measure.py, benchmarks/bench_client.py,
#: benchmarks/bench_commit.py and ExperimentResult, with their kinds
READ_COUNTERS = (
    "client.programs", "client.programs_committed", "client.reads",
    "client.lease_reads", "client.cache_reads", "client.lease.served",
    "client.lease.expired", "msg.dropped", "transport.fanouts",
    "transport.rpcs", "transport.no_responses", "transport.late_replies",
    "storage.wal_appends", "storage.forced_syncs",
    "storage.replayed_records", "directory.hits", "directory.lookups",
    "directory.invalidations", "reshard.objects_moved",
    "reshard.campaigns_completed",
)
READ_GAUGES = ("storage.retained_entries", "txn.in_doubt_left")
READ_LOG_HISTOGRAMS = ("client.txn_latency", "txn.in_doubt_dwell",
                       "client.read_latency", "client.staleness")
READ_EXACT_HISTOGRAMS = ("txn.latency", "transport.fanout_latency")


@pytest.fixture(scope="module")
def result():
    """Hash-ring placement, cached directories, write-back sessions
    with leases, and a ring growing onto two spares mid-run."""
    return run_experiment(ExperimentSpec(
        protocol="virtual-partitions", processors=8, objects=20,
        copies_per_object=3, placement="hash-ring", directory="cached",
        directory_capacity=8, seed=1, duration=200.0, grace=60.0,
        workload=WorkloadSpec(read_fraction=0.8, ops_per_txn=2,
                              zipf_s=1.1, mean_interarrival=10.0),
        open_loop=True, retries=2,
        session=SessionSpec(cache_capacity=4, cache_policy="write-back",
                            lease_duration=10.0),
        reshard=(ReshardAction(time=30.0, add=(7, 8)),),
    ))


def _stats_of(cluster, kind):
    """Every live instance of one stats dataclass in a finished run."""
    pids = cluster.pids
    protocols = [cluster.protocols[pid] for pid in pids]
    return {
        NetworkStats: lambda: [cluster.network.stats],
        TransportStats: lambda: [cluster.processors[p].transport
                                 for p in pids],
        StorageStats: lambda: [cluster.processors[p].store.stats
                               for p in pids],
        DirectoryStats: lambda: [cluster.directories[p].stats
                                 for p in pids],
        ReshardStats: lambda: [cluster.reshard_engine.stats],
        ProtocolMetrics: lambda: [proto.metrics for proto in protocols],
        LeaseStats: lambda: [proto.lease_table.stats for proto in protocols
                             if proto.lease_table is not None],
    }[kind]()


def test_prefix_table_lists_every_stats_dataclass():
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the command line
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and is_dataclass(value)
                    and value.__module__ == info.name
                    and (value.__name__.endswith("Stats")
                         or value.__name__.endswith("Metrics"))):
                found.add(value)
    assert found == set(PREFIXES)


@pytest.mark.parametrize("kind", list(PREFIXES), ids=lambda k: k.__name__)
def test_every_stats_field_reaches_the_registry(result, kind):
    snapshot = result.registry.snapshot()
    counters = snapshot["counters"]
    prefix = PREFIXES[kind]
    # per-session objects do not outlive the run: for them the names
    # are checked, for every other component the totals as well
    total = (None if kind in (SessionStats, CacheStats)
             else sum_stats(_stats_of(result.cluster, kind)))
    for spec in fields(kind):
        if (kind, spec.name) in SAMPLES:
            assert SAMPLES[(kind, spec.name)] in snapshot["histograms"]
            continue
        name = prefix + spec.name.removeprefix("by_")
        if total is None:
            assert name in counters, name
            continue
        value = getattr(total, spec.name)
        if isinstance(value, dict):
            assert value, f"{spec.name}: the spec leaves it empty"
            for key, amount in value.items():
                assert counters[f"{name}.{key}"] == amount, (name, key)
        else:
            assert counters[name] == value, name


def test_every_name_a_consumer_reads_is_present_with_its_kind(result):
    registry = result.registry
    snapshot = registry.snapshot()
    for name in READ_COUNTERS:
        assert name in snapshot["counters"], name
    for name in READ_GAUGES:
        assert name in snapshot["gauges"], name
    for name in READ_LOG_HISTOGRAMS:
        assert name in snapshot["histograms"], name
        assert isinstance(registry.log_histogram(name), LogBucketHistogram)
    for name in READ_EXACT_HISTOGRAMS:
        assert name in snapshot["histograms"], name
        assert type(registry.histogram(name)) is Histogram


def test_the_spec_exercises_every_component(result):
    counters = result.registry.snapshot()["counters"]
    assert counters["reshard.campaigns_completed"] == 1
    assert counters["directory.misses"] > 0
    assert counters["client.lease.granted"] > 0
    assert counters["client.local_writes"] > 0
    assert counters["client.cache.hits"] > 0
    assert counters["msg.kind.read"] > 0
