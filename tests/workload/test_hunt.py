"""Tests for the campaign hunter: conviction, shrinking, replay."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.workload.hunt import (
    HuntConfig,
    campaign_spec,
    hunt,
    plan_campaigns,
    replay_artifact,
    verdict_of,
)
from repro.workload.runner import run_experiment


def test_plan_campaigns_deterministic():
    cfg = HuntConfig(campaigns=5, seed=3)
    assert plan_campaigns(cfg) == plan_campaigns(cfg)


def test_plan_campaigns_vary_with_seed():
    one = plan_campaigns(HuntConfig(campaigns=3, seed=1))
    two = plan_campaigns(HuntConfig(campaigns=3, seed=2))
    assert one != two


def test_campaign_schedules_differ_between_campaigns():
    plans = plan_campaigns(HuntConfig(campaigns=3, seed=0))
    schedules = [actions for _seed, actions in plans]
    assert schedules[0] != schedules[1] != schedules[2]


def test_naive_view_canary_convicts(tmp_path):
    """The acceptance canary: with the fixed default seed, a small
    hunt budget convicts naive-view's stale-view 1SR violation, the
    schedule shrinks, and the artifact replays deterministically."""
    report = hunt(HuntConfig(protocol="naive-view", campaigns=30, seed=0,
                             stop_after=1, workers=1),
                  out_dir=tmp_path)
    assert not report.survived, "naive-view must be convicted"
    finding = report.findings[0]
    assert "1SR" in finding.verdict or "auditor" in finding.verdict
    assert finding.shrunk is not None
    assert len(finding.shrunk) <= len(finding.actions)
    assert finding.shrunk_verdict is not None, "shrunken repro must still fail"
    # the artifact is a self-contained deterministic repro
    verdict_a, _ = replay_artifact(finding.artifact)
    verdict_b, result = replay_artifact(finding.artifact)
    assert verdict_a == verdict_b == finding.shrunk_verdict
    data = json.loads(open(finding.artifact).read())
    assert data["protocol"] == "naive-view"
    assert len(data["actions"]) == len(finding.shrunk)


def test_virtual_partitions_survives_the_same_hunt():
    """Paired check: the VP protocol under the same seed and a larger
    budget produces zero findings (the full 200-campaign sweep runs in
    CI's hunt-smoke job)."""
    report = hunt(HuntConfig(protocol="virtual-partitions", campaigns=40,
                             seed=0, stop_after=0, shrink_budget=0,
                             workers=1))
    assert report.survived, [f.verdict for f in report.findings]
    assert report.campaigns_run == 40


def test_verdict_of_prefers_auditor_violations():
    class FakeResult:
        audit_violations = ({"invariant": "S2", "time": 1.0, "pid": 3,
                             "detail": "boom"},)
        one_copy_ok = True
        registry = None

    verdict = verdict_of(FakeResult())
    assert verdict is not None and "S2" in verdict


def test_verdict_of_convicts_in_doubt_left_at_live_processors():
    registry = MetricsRegistry()

    class FakeResult:
        audit_violations = ()
        one_copy_ok = True
        cluster = None  # a pool result: only the registry crossed over

    FakeResult.registry = registry
    registry.gauge("txn.in_doubt_left").set(0)
    assert verdict_of(FakeResult()) is None
    registry.gauge("txn.in_doubt_left").set(2)
    verdict = verdict_of(FakeResult())
    assert verdict is not None and verdict.startswith("liveness: 2 ")


def test_verdict_of_inconclusive_check_is_not_a_failure():
    class FakeResult:
        audit_violations = ()
        one_copy_ok = None
        registry = None

    assert verdict_of(FakeResult()) is None


def test_campaign_spec_arms_audit_and_check():
    cfg = HuntConfig()
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))[:1]
    spec = campaign_spec(cfg, actions, seed)
    assert spec.audit and spec.check
    assert spec.protocol == cfg.protocol


# -- sharded-topology hunts --------------------------------------------------


def test_campaign_spec_carries_placement():
    cfg = HuntConfig(placement="hash-ring", processors=6, objects=12)
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))[:1]
    spec = campaign_spec(cfg, actions, seed)
    assert spec.placement == "hash-ring"
    assert spec.copies_per_object == cfg.copies_per_object


def test_vp_survives_sharded_hunt():
    """The pinned sharded regression campaign: the VP protocol on a
    hash-ring sharded 6-node topology (degree 3 — most objects have
    copies on only half the cluster) survives the fixed-seed nemesis
    sweep with zero auditor/1SR findings."""
    report = hunt(HuntConfig(protocol="virtual-partitions", processors=6,
                             objects=12, copies_per_object=3,
                             placement="hash-ring", campaigns=25, seed=0,
                             stop_after=0, shrink_budget=0, workers=1))
    assert report.survived, [f.verdict for f in report.findings]
    assert report.campaigns_run == 25


def test_naive_view_sharded_canary_convicts(tmp_path):
    """The sharded hunt has teeth: on a tight sharded topology the
    naive-view strawman is convicted of a 1SR violation, and the
    artifact records the placement so the repro replays sharded."""
    report = hunt(HuntConfig(protocol="naive-view", processors=4,
                             objects=6, copies_per_object=3,
                             placement="hash-ring", campaigns=10, seed=0,
                             stop_after=1, shrink_budget=0, workers=1),
                  out_dir=tmp_path)
    assert not report.survived
    finding = report.findings[0]
    assert finding.campaign == 6
    assert "1SR" in finding.verdict
    data = json.loads(open(finding.artifact).read())
    assert data["placement"] == "hash-ring"
    verdict, _result = replay_artifact(finding.artifact)
    assert verdict == finding.verdict


def test_load_artifact_defaults_placement_for_old_artifacts(tmp_path):
    """Artifacts written before sharding existed have no placement key
    and must load as the legacy full-map layout."""
    from repro.workload.hunt import HuntFinding, load_artifact, write_artifact

    cfg = HuntConfig()
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))[:1]
    finding = HuntFinding(campaign=0, seed=seed, verdict="x",
                          actions=actions)
    path = tmp_path / "old.json"
    write_artifact(path, cfg, finding)
    data = json.loads(path.read_text())
    del data["placement"]
    path.write_text(json.dumps(data))
    loaded_cfg, _seed, _actions, _data = load_artifact(path)
    assert loaded_cfg.placement is None


# -- client-tier (cache + lease) hunts ---------------------------------------


def test_campaign_spec_carries_session():
    cfg = HuntConfig(cache_capacity=4, cache_policy="write-back",
                     lease_duration=5.0)
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))[:1]
    spec = campaign_spec(cfg, actions, seed)
    assert spec.session is not None
    assert spec.session.cache_capacity == 4
    assert spec.session.cache_policy == "write-back"
    assert spec.session.lease_duration == 5.0
    # the default config keeps the raw client tier (golden-trace path)
    assert campaign_spec(HuntConfig(), actions, seed).session is None


def test_vp_survives_lease_armed_hunt():
    """The pinned client-tier regression campaign: with write-back
    caching and 5.0-time-unit leases armed, the auditor's lease-rule /
    lease-expired / lease-staleness checks ride every campaign of the
    fixed-seed nemesis sweep — and the VP protocol plus the
    epoch-revoking session survive with zero findings."""
    report = hunt(HuntConfig(protocol="virtual-partitions", campaigns=40,
                             seed=0, stop_after=0, shrink_budget=0, workers=1,
                             cache_capacity=4, cache_policy="write-back",
                             lease_duration=5.0))
    assert report.survived, [f.verdict for f in report.findings]
    assert report.campaigns_run == 40


def test_lease_armed_campaign_exercises_the_client_tier():
    """The survival above is not vacuous: the first campaign's client
    counters show leases granted and conservatively revoked, write-back
    flushes, and locally served reads."""
    cfg = HuntConfig(protocol="virtual-partitions", campaigns=1, seed=0,
                     cache_capacity=4, cache_policy="write-back",
                     lease_duration=5.0)
    (seed, actions), = plan_campaigns(cfg)[:1]
    result = run_experiment(campaign_spec(cfg, actions, seed))
    assert verdict_of(result) is None
    counters = result.registry.snapshot()["counters"]
    assert counters["client.lease.granted"] > 0
    assert counters["client.lease.revoked"] + counters[
        "client.lease.invalidated"] > 0
    assert counters["client.flush_writes"] > 0
    assert result.local_read_fraction > 0


def test_load_artifact_defaults_session_for_old_artifacts(tmp_path):
    """Artifacts written before the client tier existed have no session
    keys and must load with caching and leases off."""
    from repro.workload.hunt import HuntFinding, load_artifact, write_artifact

    cfg = HuntConfig()
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))[:1]
    finding = HuntFinding(campaign=0, seed=seed, verdict="x",
                          actions=actions)
    path = tmp_path / "old.json"
    write_artifact(path, cfg, finding)
    data = json.loads(path.read_text())
    for key in ("cache_capacity", "cache_policy", "lease_duration"):
        del data[key]
    path.write_text(json.dumps(data))
    loaded_cfg, _seed, _actions, _data = load_artifact(path)
    assert loaded_cfg.cache_capacity == 0
    assert loaded_cfg.lease_duration == 0.0


# -- reshard-armed hunts -----------------------------------------------------


def test_campaign_spec_carries_reshard_schedule():
    from repro.shard import ReshardAction
    from repro.workload.hunt import reshard_schedule

    cfg = HuntConfig(processors=9, placement="hash-ring",
                     reshard_at=30.0, reshard_spares=2)
    assert reshard_schedule(cfg) == (
        ReshardAction(time=30.0, add=(8, 9)),)
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))[:1]
    spec = campaign_spec(cfg, actions, seed)
    assert spec.reshard == reshard_schedule(cfg)
    # the default config builds no reshard machinery (golden-trace path)
    assert campaign_spec(HuntConfig(), actions, seed).reshard is None


def test_reshard_schedule_requires_a_base_ring():
    from repro.workload.hunt import reshard_schedule

    with pytest.raises(ValueError, match="base ring"):
        reshard_schedule(HuntConfig(processors=4, reshard_at=10.0,
                                    reshard_spares=4))


def test_artifact_round_trips_reshard_schedule(tmp_path):
    from repro.workload.hunt import HuntFinding, load_artifact, write_artifact

    cfg = HuntConfig(processors=9, placement="hash-ring",
                     reshard_at=30.0, reshard_spares=2,
                     reshard_guarded=False)
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))[:1]
    finding = HuntFinding(campaign=0, seed=seed, verdict="x",
                          actions=actions)
    path = tmp_path / "reshard.json"
    write_artifact(path, cfg, finding)
    data = json.loads(path.read_text())
    assert data["reshard_actions"] == [
        {"time": 30.0, "add": [8, 9], "guarded": False,
         "coordinator": None}]
    loaded_cfg, _seed, _actions, _data = load_artifact(path)
    assert loaded_cfg.reshard_at == 30.0
    assert loaded_cfg.reshard_spares == 2
    assert loaded_cfg.reshard_guarded is False


def test_load_artifact_defaults_reshard_for_old_artifacts(tmp_path):
    """Artifacts written before online resharding existed have no
    reshard keys and must load with the migration machinery off."""
    from repro.workload.hunt import HuntFinding, load_artifact, write_artifact

    cfg = HuntConfig()
    (seed, actions), = plan_campaigns(HuntConfig(campaigns=1))[:1]
    finding = HuntFinding(campaign=0, seed=seed, verdict="x",
                          actions=actions)
    path = tmp_path / "old.json"
    write_artifact(path, cfg, finding)
    data = json.loads(path.read_text())
    for key in ("reshard_at", "reshard_spares", "reshard_guarded",
                "reshard_actions"):
        del data[key]
    path.write_text(json.dumps(data))
    loaded_cfg, _seed, _actions, _data = load_artifact(path)
    assert loaded_cfg.reshard_at == 0.0
    assert loaded_cfg.reshard_spares == 0
    assert loaded_cfg.reshard_guarded is True


def test_vp_survives_reshard_armed_hunt():
    """Placement migrations raced against the full nemesis diet: the
    fixed-seed sweep expands a 9-processor hash ring onto 2 held-out
    spares at t=30 in every campaign, and the guarded cutover survives
    with zero auditor findings and zero 1SR violations."""
    report = hunt(HuntConfig(protocol="virtual-partitions", campaigns=8,
                             processors=9, objects=12, copies_per_object=3,
                             placement="hash-ring", seed=0, stop_after=0,
                             shrink_budget=0, workers=1,
                             reshard_at=30.0, reshard_spares=2))
    assert report.survived, [f.verdict for f in report.findings]
    assert report.campaigns_run == 8


# -- regressions for the protocol bugs the hunter caught ---------------------


@pytest.mark.parametrize("campaign", [160, 188, 191])
def test_vp_hunter_regression_campaigns_stay_clean(campaign):
    """Campaigns that convicted the VP protocol before its fixes:

    * 188/191 — a processor whose acceptance arrived after the 2delta
      window joined a committed view that excluded it (S2); fixed by
      the membership check in Monitor-VP-Creations.
    * 160 — a partition change during vote collection force-aborted the
      coordinator's own transaction, which then decided commit (R4/2PC
      atomicity); fixed by the poisoned-transaction guard in
      end_transaction.
    """
    cfg = HuntConfig(protocol="virtual-partitions", campaigns=200, seed=0)
    seed, actions = plan_campaigns(cfg)[campaign]
    result = run_experiment(campaign_spec(cfg, actions, seed))
    assert verdict_of(result) is None, result.audit_violations
