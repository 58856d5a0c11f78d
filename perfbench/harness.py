"""Run a workload for a time budget and turn its samples into metrics.

Each instance of the workload's plan runs once in a fresh interpreter
(``fresh.py``, one at a time) and is checked; then instances repeat
round-robin in this process until the budget is spent (at least one
repeat).  Every repeat must reproduce its first execution's
deterministic outputs exactly.  Set-up is timed by rounds of builds
that stop where the run would begin.  CPU figures are scaled to
reference speed by the calibration kernel (``calibrate.py``) and
reported as medians (run CPU per instance over its executions, set-up
over all builds); sim-time figures and memory come from the first
executions: counts pooled over the plan, latency percentiles and peak
memory as the median over its instances.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram, LogBucketHistogram

from calibrate import ELASTICITY, REFERENCE_S, calibrate
from measure import (ABORT_REASONS, MAXIMA, CheckFailed, Sample, execute,
                     setup_cpu)
from workloads import Instance, Workload

#: metric name -> (value, unit)
Metrics = Dict[str, Tuple[float, str]]

#: per-layer metrics that are plain totals of the instances' counts
COUNTS = ("sim.events", "net.msgs", "net.envelopes", "net.dropped",
          "node.fanouts", "node.rpcs", "node.no_responses",
          "node.late_replies", "storage.wal_appends",
          "storage.replayed_records", "storage.retained_entries",
          "core.vp_created", "core.vp_joined", "core.recoveries",
          "core.transfer_units", "core.catchup_fallbacks", "cc.lock_waits",
          "commit.in_doubt_left", "client.lease_served",
          "client.lease_expired", "shard.directory_invalidations",
          "shard.objects_moved", "shard.reshard_completed",
          "audit.violations")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pooled(histograms) -> LogBucketHistogram:
    merged = LogBucketHistogram("pooled")
    for histogram in histograms:
        merged.merge(histogram)
    return merged


def fingerprint(sample: Sample) -> dict:
    """The deterministic outputs a repeat of one seed must reproduce."""
    return {"counts": sample.counts,
            "latency": sample.latency.summary(),
            "dwell": sample.dwell.summary(),
            "fanout": sample.fanout}


FRESH = Path(__file__).with_name("fresh.py")


def execute_fresh(workload: str, seed: int, index: int) -> Sample:
    """Instance ``index`` of ``workload``'s plan for ``seed``, executed
    and checked by ``fresh.py`` in a new interpreter."""
    out = subprocess.run(
        [sys.executable, str(FRESH), workload, str(seed), str(index)],
        capture_output=True, timeout=170)
    if out.returncode:
        raise RuntimeError(f"{FRESH.name} failed:\n"
                           f"{out.stderr.decode()[-2000:]}")
    result = pickle.loads(out.stdout)
    if isinstance(result, CheckFailed):
        raise result
    return result


#: measured rounds of set-up-only builds over a run's plan
SETUP_ROUNDS = 5


class Timer:
    """Executes instances and scales their CPU times to reference speed.

    The calibration loop runs after every execution, once the finished
    cluster is collected, and after every round of set-up-only builds;
    CPU is scaled by ``(REFERENCE_S / c) ** ELASTICITY``, where ``c``
    is the mean of the calibrations on either side of it.
    """

    def __init__(self):
        self.calibrations: List[float] = []

    def _scale(self) -> float:
        # free the finished cluster's reference cycles first, so the
        # loop's own collections do not depend on the program's heap
        gc.collect()
        self.calibrations.append(calibrate())
        around = self.calibrations[-2:]
        return (REFERENCE_S * len(around) / sum(around)) ** ELASTICITY

    def execute(self, instance: Instance, trace: bool = False,
                checked: bool = True,
                fresh: Optional[Tuple[str, int, int]] = None,
                ) -> Tuple[Sample, float]:
        """Returns (sample, scaled run CPU).  With ``fresh`` =
        (workload, seed, index) the instance runs, checked, in a fresh
        interpreter."""
        sample = (execute_fresh(*fresh) if fresh else
                  execute(instance, trace=trace, checked=checked))
        return sample, sample.run_cpu_s * self._scale()

    def setups(self, plan: List[Instance]) -> List[float]:
        """Scaled set-up CPU of every instance, :data:`SETUP_ROUNDS`
        times over, after an unmeasured round: the first build in a
        process pays for lazy imports and cold caches."""
        for instance in plan:
            setup_cpu(instance)
        times: List[float] = []
        for _ in range(SETUP_ROUNDS):
            raw = [setup_cpu(instance) for instance in plan]
            scale = self._scale()
            times += [t * scale for t in raw]
        return times


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, spans_dir: Path) -> Tuple[int, Metrics]:
    """Run ``workload``; returns (executions, metrics).  With ``trace``
    the metrics are the per-layer ones, else the end-to-end ones."""
    plan = workload.plan(seed)
    deadline = time.perf_counter() + seconds
    timer = Timer()
    first: List[Sample] = []
    cpu: List[List[float]] = []
    for index, instance in enumerate(plan):
        sample, run_cpu = timer.execute(
            instance, fresh=(workload.name, seed, index))
        first.append(sample)
        cpu.append([run_cpu])
    setups = timer.setups(plan)
    repeats = 0
    while repeats == 0 or time.perf_counter() < deadline:
        k = repeats % len(plan)
        # a repeat must match the checked first execution exactly
        again, run_cpu = timer.execute(plan[k], checked=False)
        if fingerprint(again) != fingerprint(first[k]):
            raise CheckFailed(f"instance {k} of seed {seed} is not "
                              "deterministic: a repeat changed its counts")
        cpu[k].append(run_cpu)
        repeats += 1
    executions = len(plan) + repeats
    print(f"# {executions} executions, calibration median "
          f"{statistics.median(timer.calibrations):.5f} s "
          f"(reference {REFERENCE_S} s)")
    counts = {name: (max if name in MAXIMA else sum)(
        s.counts[name] for s in first) for name in first[0].counts}
    if not trace:
        return executions, end_to_end(first, counts, cpu, setups)
    traced, traced_cpu = timer.execute(plan[0], trace=True,
                                       checked=False)
    if fingerprint(traced) != fingerprint(first[0]):
        raise CheckFailed("the traced run changed the program's counts")
    traced.tracer.write(spans_dir / f"spans-{workload.name}.bin")
    metrics = per_layer(first, counts)
    for layer, row in traced.tracer.summary().items():
        metrics[f"{layer}.self_share"] = (row["self_share"], "share")
        metrics[f"{layer}.calls_in"] = (row["calls_in"], "count")
    metrics["trace.overhead"] = (
        traced_cpu / statistics.median(cpu[0]), "ratio")
    return executions + 1, metrics


def _median_percentile(first: List[Sample], p: float) -> float:
    """The median over instances of each instance's own percentile.

    Not the percentile of the pooled samples: the tail is set by lock
    contention on the instance's hot objects, and one instance in ~60
    of sharded-sessions queues behind a view formation with twice the
    p99 of the rest, which moved a pooled p99 by a fifth between seeds.
    """
    return statistics.median(s.latency.percentile(p) for s in first)


def end_to_end(first: List[Sample], counts: dict, cpu: List[List[float]],
               setups: List[float]) -> Metrics:
    run_cpu = sum(statistics.median(runs) for runs in cpu)
    committed = counts["committed"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_cpu_s": (run_cpu, "s"),
        "commits_per_cpu_s": (_ratio(committed, run_cpu), "1/s"),
        # the median instance's own peak: an instance that forms a
        # view holds several MB more, and should not set the figure
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in first),
                        "MB"),
        "commit_share": (_ratio(committed, counts["attempted"]), "ratio"),
        "txn_latency_p50": (_median_percentile(first, 50), "delta"),
        "txn_latency_p99": (_median_percentile(first, 99), "delta"),
        "msgs_per_commit": (_ratio(counts["net.msgs"], committed), "msgs"),
    }


def per_layer(first: List[Sample], counts: dict) -> Metrics:
    c = counts
    fanout = Histogram("fanout_wait")
    fanout.observe_many(x for s in first for x in s.fanout)
    dwell = _pooled(s.dwell for s in first)
    metrics: Metrics = {name: (c[name], "count") for name in COUNTS}
    metrics.update({
        "sim.events_per_msg": (_ratio(c["sim.events"], c["net.msgs"]),
                               "ratio"),
        "net.probe_share": (_ratio(c["probe_msgs"], c["net.msgs"]), "ratio"),
        "node.fanout_wait_p50": (fanout.percentile(50), "delta"),
        "node.fanout_wait_p99": (fanout.percentile(99), "delta"),
        "storage.forced_syncs_per_commit": (
            _ratio(c["storage.forced_syncs"], c["committed"]), "ratio"),
        "core.physical_per_logical_op": (
            _ratio(c["physical_ops"], c["logical_ops"]), "ratio"),
        "core.heal_to_commit_max": (c["core.heal_to_commit_max"], "delta"),
        "core.liveness_bound": (c["core.liveness_bound"], "delta"),
        "commit.msgs_per_commit": (_ratio(c["commit_msgs"], c["committed"]),
                                   "msgs"),
        "commit.in_doubt_dwell_p50": (dwell.percentile(50), "delta"),
        "commit.in_doubt_dwell_max": (dwell.summary().get("max", 0.0),
                                      "delta"),
        "client.local_read_fraction": (
            _ratio(c["client.local_reads"], c["client.reads"]), "ratio"),
        # reads the session cache served, over all reads: under leases
        # the cache is only consulted for dirty entries, which always
        # hit, so the program's own hit counter would read 1
        "client.cache_hit_ratio": (
            _ratio(c["client.cache_reads"], c["client.reads"]), "ratio"),
        "shard.directory_hit_ratio": (
            _ratio(c["shard.directory_hits"], c["shard.directory_lookups"]),
            "ratio"),
        "workload.latency_samples": (
            _pooled(s.latency for s in first).count, "count"),
    })
    for reason in ABORT_REASONS + ("other",):
        metrics[f"cc.aborts.{reason}"] = (c[f"cc.aborts.{reason}"], "count")
    return metrics
