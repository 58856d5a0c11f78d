"""Tests of the benchmark itself.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.workload.runner import run_experiment  # noqa: E402

from harness import fingerprint  # noqa: E402
from measure import CheckFailed, check, execute  # noqa: E402
from workloads import (WORKLOADS, partition_churn, sharded_sessions,  # noqa: E402
                       vp_contended)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: short instances of each workload, for the layer-separation checks
SHORT = {
    "vp-contended": vp_contended(1, 150.0),
    "partition-churn": partition_churn(1, 150.0),
    "sharded-sessions": sharded_sessions(1, 150.0),
}


def test_vp_contended_reproduces_the_roadmap_baseline():
    """The builder at seed 3, horizon 1000, is the ROADMAP's E13 spec."""
    result = run_experiment(vp_contended(3, 1000.0).spec)
    assert result.events_dispatched == 57_132
    assert result.network["sent"] == 12_743
    assert (result.committed, result.aborted) == (209, 173)


def test_seeds_plan_disjoint_instances():
    for workload in WORKLOADS.values():
        one = [i.spec.seed for i in workload.plan(1)]
        two = [i.spec.seed for i in workload.plan(2)]
        assert len(set(one)) == workload.instances
        assert not set(one) & set(two)
        assert [i.spec.seed for i in workload.plan(1)] == one


@pytest.mark.parametrize("name", sorted(SHORT))
def test_repeats_and_traced_runs_reproduce_every_count(name):
    first = execute(SHORT[name])
    assert fingerprint(execute(SHORT[name], checked=False)) == \
        fingerprint(first)
    traced = execute(SHORT[name], trace=True, checked=False)
    assert fingerprint(traced) == fingerprint(first)
    shares = traced.tracer.summary()
    assert sum(row["self_share"] for row in shares.values()) == \
        pytest.approx(1.0)
    assert shares["sim"]["calls_in"] > 0


def test_workloads_separate_the_layers():
    # sharded-sessions at full length, so its reshard completes
    instances = dict(SHORT, **{
        "sharded-sessions": WORKLOADS["sharded-sessions"].plan(1)[0]})
    counts = {name: execute(instance).counts
              for name, instance in instances.items()}
    views = {name: c["core.vp_created"] for name, c in counts.items()}
    local = {name: c["client.local_reads"] for name, c in counts.items()}
    # sharded-sessions forms a view now and then, when an access times
    # out under load (1 in this instance); churn forms them constantly
    assert views["vp-contended"] == 0
    assert views["partition-churn"] > 10 * max(1, views["sharded-sessions"])
    assert local["sharded-sessions"] > 0
    assert local["vp-contended"] == local["partition-churn"] == 0

    def probe_share(c):
        return c["probe_msgs"] / c["net.msgs"]
    assert (probe_share(counts["sharded-sessions"])
            > probe_share(counts["vp-contended"]))
    assert counts["sharded-sessions"]["shard.reshard_completed"] == 1
    assert counts["sharded-sessions"]["shard.objects_moved"] > 100
    assert counts["vp-contended"]["shard.reshard_completed"] == 0
    # the auditor is armed where the benchmark claims it
    assert [name for name, instance in SHORT.items()
            if instance.spec.audit] == ["vp-contended", "partition-churn"]


@pytest.mark.xfail(strict=True, raises=CheckFailed, reason=(
    "program defect: a write message duplicated by a nemesis dup storm "
    "is applied twice at one copy, so its logical date runs one ahead "
    "of the object's other copies; partition-churn joins the benchmark "
    "once this passes"))
def test_partition_churn_copies_agree_under_duplication():
    # instance 10 of seed 4 (instance seed 90): o5's copy at node 4
    execute(WORKLOADS["partition-churn"].plan(4)[10])


def test_check_rejects_copies_that_disagree():
    result = run_experiment(vp_contended(1, 100.0).spec)
    check(result)
    store = result.cluster.processors[1].store
    _, date = store.peek("o0")
    store.install("o0", "corrupt", date)
    with pytest.raises(CheckFailed, match="o0"):
        check(result)


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vp-contended",
         "--seed", "1", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_cli_prints_exactly_the_declared_metrics(trace, section):
    out = _bench(ROOT, "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_cli_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout
