"""Campaign hunter: search adversarial fault schedules for violations.

The hunter mechanizes the ROADMAP's "as many scenarios as you can
imagine": it plans randomized nemesis campaigns (directed cuts, delay
surges, grey loss, duplication storms, flapping, crashes, partitions),
fans them over the parallel sweep engine with the runtime invariant
auditor and the 1SR checker armed, and — when a campaign convicts the
protocol — greedily shrinks the fault schedule to a minimal,
deterministically replayable repro artifact.

Everything is derived from one hunt seed through named
:class:`~repro.sim.RandomStreams` substreams, and each campaign's
schedule is *planned up front* in the parent process: a plain list of
:class:`~repro.net.nemesis.FaultAction` records.  Deleting actions from
that list and replaying the rest is exactly what shrinking needs, and
it is why a written artifact reproduces bit-for-bit on any machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from ..net.nemesis import FaultAction, NemesisMix, apply_schedule, plan_nemesis
from ..sim.rng import RandomStreams
from .generator import WorkloadSpec
from .parallel import run_many
from .runner import ExperimentResult, ExperimentSpec, run_experiment


@dataclass
class ScheduledNemesis:
    """A planned fault schedule as a picklable ``failures`` callback."""

    actions: Tuple[FaultAction, ...]

    def __call__(self, cluster) -> None:
        apply_schedule(cluster.injector, self.actions)


@dataclass
class HuntConfig:
    """Everything one hunt needs; every field is deterministic input."""

    protocol: str = "virtual-partitions"
    processors: int = 4
    objects: int = 3
    copies_per_object: int = 3
    #: placement policy name (None = the legacy contiguous ring); lets
    #: the hunter attack sharded topologies where most objects have
    #: copies on only ``copies_per_object`` of the processors
    placement: Optional[str] = None
    #: atomic-commit backend (None = the config default, 2PC); lets the
    #: hunter attack Paxos Commit with the same fault schedules
    commit_backend: Optional[str] = None
    seed: int = 0
    campaigns: int = 50
    #: last instant a fault may start; every hold is clamped to it
    fault_horizon: float = 180.0
    #: extra run time after ``fault_horizon`` for views and recoveries
    #: to settle (flap tails and probe rounds need room)
    settle: float = 150.0
    #: small and fixed so committed counts stay inside the exact 1SR
    #: checker's limit — every campaign gets a decisive verdict
    txns_per_client: int = 3
    retries: int = 3
    read_fraction: float = 0.6
    mean_interarrival: float = 25.0
    workers: Optional[int] = None
    #: max experiment re-runs the shrinker may spend per finding
    shrink_budget: int = 48
    #: stop hunting after this many findings (0 = run all campaigns)
    stop_after: int = 1
    #: client-session knobs: a non-zero cache or lease duration arms the
    #: client tier in every campaign, so the hunter can attack the lease
    #: staleness bound and write-back flushing with the same schedules
    cache_capacity: int = 0
    cache_policy: str = "write-through"
    lease_duration: float = 0.0
    mix: NemesisMix = field(default_factory=NemesisMix)
    mean_gap: float = 25.0
    #: long holds let faults outlive view-refresh periods — partitions
    #: that heal before anyone refreshes a view convict nothing
    mean_hold: float = 40.0
    burst: Tuple[int, int] = (1, 2)
    start: float = 10.0
    #: online reshard raced against every campaign: at ``reshard_at``
    #: the placement ring expands onto the ``reshard_spares`` highest
    #: pids, which are held out of the initial assignment (0 = no
    #: reshard machinery at all).  Requires ``placement``.
    reshard_at: float = 0.0
    reshard_spares: int = 0
    #: False runs the deliberately unguarded flip — the conviction
    #: canary the auditor must catch
    reshard_guarded: bool = True


@dataclass
class HuntFinding:
    """One convicted campaign, before and after shrinking."""

    campaign: int
    seed: int
    verdict: str
    actions: Tuple[FaultAction, ...]
    shrunk: Optional[Tuple[FaultAction, ...]] = None
    shrunk_verdict: Optional[str] = None
    shrink_runs: int = 0
    artifact: Optional[str] = None


@dataclass
class HuntReport:
    """The outcome of a whole hunt."""

    config: HuntConfig
    campaigns_run: int
    findings: List[HuntFinding]

    @property
    def survived(self) -> bool:
        return not self.findings


def _session_of(cfg: HuntConfig):
    """The campaign's client-session spec (None = raw closed-loop tier)."""
    if cfg.cache_capacity <= 0 and cfg.lease_duration <= 0.0:
        return None
    from ..client.session import SessionSpec
    return SessionSpec(cache_capacity=cfg.cache_capacity,
                       cache_policy=cfg.cache_policy,
                       lease_duration=cfg.lease_duration)


def reshard_schedule(cfg: HuntConfig):
    """The reshard actions a campaign races its faults against.

    Derived entirely from the config — like the fault schedule, planned
    in the parent and replayed deterministically — so an artifact that
    records the knobs reproduces the same migration bit-for-bit.
    """
    if cfg.reshard_at <= 0.0 or cfg.reshard_spares <= 0:
        return None
    if cfg.reshard_spares >= cfg.processors:
        raise ValueError(
            f"reshard_spares={cfg.reshard_spares} leaves no base ring "
            f"in a {cfg.processors}-processor cluster")
    from ..shard import ReshardAction
    spares = tuple(range(cfg.processors - cfg.reshard_spares + 1,
                         cfg.processors + 1))
    return (ReshardAction(time=cfg.reshard_at, add=spares,
                          guarded=cfg.reshard_guarded),)


def campaign_spec(cfg: HuntConfig, actions: Tuple[FaultAction, ...],
                  seed: int) -> ExperimentSpec:
    """The experiment one campaign runs: auditor on, 1SR check on."""
    return ExperimentSpec(
        protocol=cfg.protocol,
        processors=cfg.processors,
        objects=cfg.objects,
        copies_per_object=cfg.copies_per_object,
        placement=cfg.placement,
        commit_backend=cfg.commit_backend,
        seed=seed,
        duration=cfg.fault_horizon,
        grace=cfg.settle,
        workload=WorkloadSpec(read_fraction=cfg.read_fraction,
                              mean_interarrival=cfg.mean_interarrival),
        failures=ScheduledNemesis(tuple(actions)),
        retries=cfg.retries,
        check=True,
        audit=True,
        txns_per_client=cfg.txns_per_client,
        session=_session_of(cfg),
        reshard=reshard_schedule(cfg),
    )


def verdict_of(result: ExperimentResult) -> Optional[str]:
    """None = clean; otherwise a one-line description of the conviction:
    an auditor violation, a 1SR violation, or an in-doubt leak."""
    if result.audit_violations:
        first = result.audit_violations[0]
        return (f"auditor: {len(result.audit_violations)} violation(s), "
                f"first {first['invariant']} at t={first['time']:.2f} "
                f"p{first['pid']}: {first['detail']}")
    if result.one_copy_ok is False:
        return "1SR violation: committed history is not one-copy serializable"
    # Liveness, read from the registry so pool results (which leave
    # their cluster behind) are judged too: every prepared participant
    # that is up when the run ends must have learned its outcome.
    if result.registry is not None:
        left = result.registry.snapshot()["gauges"].get("txn.in_doubt_left")
        if left:
            return (f"liveness: {left:g} in-doubt transaction(s) still "
                    f"unresolved at live processors when the run ended")
    return None


def plan_campaigns(cfg: HuntConfig) -> List[Tuple[int, Tuple[FaultAction, ...]]]:
    """Derive every campaign's (run seed, fault schedule) from the hunt
    seed — the parent plans, children only replay."""
    streams = RandomStreams(cfg.seed)
    pids = list(range(1, cfg.processors + 1))
    campaigns = []
    for k in range(cfg.campaigns):
        rng = streams.stream(f"nemesis-{k}")
        actions = tuple(plan_nemesis(
            rng, pids, cfg.mix, horizon=cfg.fault_horizon, start=cfg.start,
            mean_gap=cfg.mean_gap, burst=cfg.burst, mean_hold=cfg.mean_hold,
        ))
        seed = streams.stream(f"campaign-{k}").randrange(1 << 30)
        campaigns.append((seed, actions))
    return campaigns


def shrink_schedule(cfg: HuntConfig, seed: int,
                    actions: Tuple[FaultAction, ...],
                    budget: int) -> Tuple[Tuple[FaultAction, ...], int]:
    """Greedy ddmin: drop chunks of the schedule while the run still
    convicts.  Returns (smallest failing schedule found, runs spent)."""

    def still_fails(candidate: Tuple[FaultAction, ...]) -> bool:
        result = run_experiment(campaign_spec(cfg, candidate, seed))
        return verdict_of(result) is not None

    current = list(actions)
    runs = 0
    granularity = 2
    while len(current) >= 1 and runs < budget:
        chunk = max(1, len(current) // granularity)
        reduced = False
        for i in range(0, len(current), chunk):
            if runs >= budget:
                break
            candidate = tuple(current[:i] + current[i + chunk:])
            runs += 1
            if still_fails(candidate):
                current = list(candidate)
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break  # 1-minimal: no single action can be dropped
            granularity = min(len(current), granularity * 2)
    return tuple(current), runs


def write_artifact(path: Path, cfg: HuntConfig,
                   finding: HuntFinding) -> None:
    """Persist a finding as a self-contained, replayable JSON repro."""
    actions = finding.shrunk if finding.shrunk is not None else finding.actions
    data = {
        "protocol": cfg.protocol,
        "processors": cfg.processors,
        "objects": cfg.objects,
        "copies_per_object": cfg.copies_per_object,
        "placement": cfg.placement,
        "commit_backend": cfg.commit_backend,
        "hunt_seed": cfg.seed,
        "campaign": finding.campaign,
        "run_seed": finding.seed,
        "fault_horizon": cfg.fault_horizon,
        "settle": cfg.settle,
        "txns_per_client": cfg.txns_per_client,
        "retries": cfg.retries,
        "read_fraction": cfg.read_fraction,
        "mean_interarrival": cfg.mean_interarrival,
        "cache_capacity": cfg.cache_capacity,
        "cache_policy": cfg.cache_policy,
        "lease_duration": cfg.lease_duration,
        "reshard_at": cfg.reshard_at,
        "reshard_spares": cfg.reshard_spares,
        "reshard_guarded": cfg.reshard_guarded,
        # the derived migration schedule, for human readers; replay
        # re-derives it from the three knobs above
        "reshard_actions": [a.to_dict()
                            for a in (reshard_schedule(cfg) or ())],
        "verdict": finding.shrunk_verdict or finding.verdict,
        "original_action_count": len(finding.actions),
        "actions": [a.to_dict() for a in actions],
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_artifact(path: Path) -> Tuple[HuntConfig, int,
                                       Tuple[FaultAction, ...], dict]:
    """Rebuild the (config, seed, schedule) triple an artifact pins."""
    data = json.loads(Path(path).read_text())
    cfg = HuntConfig(
        protocol=data["protocol"],
        processors=data["processors"],
        objects=data["objects"],
        copies_per_object=data["copies_per_object"],
        # absent in artifacts written before sharding existed
        placement=data.get("placement"),
        # absent in artifacts written before Paxos Commit existed
        commit_backend=data.get("commit_backend"),
        seed=data["hunt_seed"],
        fault_horizon=data["fault_horizon"],
        settle=data["settle"],
        txns_per_client=data["txns_per_client"],
        retries=data["retries"],
        read_fraction=data["read_fraction"],
        mean_interarrival=data["mean_interarrival"],
        # absent in artifacts written before the client tier existed
        cache_capacity=data.get("cache_capacity", 0),
        cache_policy=data.get("cache_policy", "write-through"),
        lease_duration=data.get("lease_duration", 0.0),
        # absent in artifacts written before online resharding existed
        reshard_at=data.get("reshard_at", 0.0),
        reshard_spares=data.get("reshard_spares", 0),
        reshard_guarded=data.get("reshard_guarded", True),
    )
    actions = tuple(FaultAction.from_dict(d) for d in data["actions"])
    return cfg, data["run_seed"], actions, data


def replay_artifact(path: Path) -> Tuple[Optional[str], ExperimentResult]:
    """Re-run an artifact's schedule; returns (verdict, result)."""
    cfg, seed, actions, _data = load_artifact(path)
    result = run_experiment(campaign_spec(cfg, actions, seed))
    return verdict_of(result), result


def hunt(cfg: HuntConfig, out_dir: Optional[Path] = None,
         log=None) -> HuntReport:
    """Run the campaign fleet; shrink and persist every finding.

    Campaigns execute in chunks through :func:`run_many` so a hunt with
    ``stop_after`` set stops fanning out soon after it has what it came
    for.  Shrinking runs serially in-process (each step depends on the
    last verdict).
    """
    say = log if log is not None else (lambda _msg: None)
    campaigns = plan_campaigns(cfg)
    findings: List[HuntFinding] = []
    chunk_size = max(4, 2 * (cfg.workers or 1))
    ran = 0
    for lo in range(0, len(campaigns), chunk_size):
        batch = campaigns[lo:lo + chunk_size]
        specs = [campaign_spec(cfg, actions, seed) for seed, actions in batch]
        results = run_many(specs, workers=cfg.workers)
        for offset, result in enumerate(results):
            k = lo + offset
            ran += 1
            verdict = verdict_of(result)
            if verdict is None:
                continue
            seed, actions = campaigns[k]
            say(f"campaign {k}: CONVICTED — {verdict}")
            findings.append(HuntFinding(
                campaign=k, seed=seed, verdict=verdict, actions=actions,
            ))
        if cfg.stop_after and len(findings) >= cfg.stop_after:
            break
    for finding in findings:
        if cfg.shrink_budget > 0:
            say(f"campaign {finding.campaign}: shrinking "
                f"{len(finding.actions)} actions "
                f"(budget {cfg.shrink_budget} runs)")
            shrunk, spent = shrink_schedule(
                cfg, finding.seed, finding.actions, cfg.shrink_budget)
            finding.shrunk = shrunk
            finding.shrink_runs = spent
            confirm = run_experiment(
                campaign_spec(cfg, shrunk, finding.seed))
            finding.shrunk_verdict = verdict_of(confirm)
            say(f"campaign {finding.campaign}: shrunk to {len(shrunk)} "
                f"actions in {spent} runs — {finding.shrunk_verdict}")
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / (f"hunt-{cfg.protocol}-s{cfg.seed}"
                              f"-c{finding.campaign}.json")
            write_artifact(path, cfg, finding)
            finding.artifact = str(path)
            say(f"campaign {finding.campaign}: artifact written to {path}")
    return HuntReport(config=cfg, campaigns_run=ran, findings=findings)
