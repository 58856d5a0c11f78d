"""E13/E16 — simulated-events-per-second: the speed of the harness itself.

Every experiment E1–E12 and every seed-replicated sweep runs through
the kernel dispatch loop, so events/sec is the number every scaling PR
stands on.  This bench measures two experiment groups:

**E13** (harness speed, unchanged methodology):

* **kernel** — a pure-kernel churn microbench: producer/consumer pairs
  exchanging messages through :class:`MessageQueue` with ``AnyOf``
  timer races, i.e. exactly the select-loop shape the protocol tasks
  use, with none of the protocol logic.  This isolates the dispatch
  loop (packed heap entries, slot table, lazy cancellation).
* **vp** — events/sec for a message-heavy virtual-partitions run (the
  full stack: transport, locks, 2PC), via the runner's
  ``events_dispatched`` / ``wall_seconds`` counters.
* **sweep** — wall-clock for the same seed sweep run serially and
  through the :func:`~repro.workload.parallel.run_many` process pool,
  with the fingerprints of both paths compared entry by entry: the
  parallel engine must change *nothing* but the wall-clock.

**E16** (flat event core + fan-out event cost):

* **churn best-of-N** — the same churn workload, warmed up and run
  ``churn_reps`` times reporting the best wall-clock.  The dispatch
  count is closed-form (``3·pairs·msgs + 4·pairs``) and pinned by
  ``--check``, so any kernel change that adds, drops, or reorders a
  dispatch fails CI deterministically.
* **events per message** — kernel dispatches per logical message on
  the E13 vp spec, unbatched and with ``batch_window > 0``.  A message
  costs its delivery; fan-out replies, request handlers and collection
  windows add no wakeups of their own beyond one per call, so the
  unbatched run stays near two events per message.  In batched mode
  each envelope costs its flush timer plus its delivery.

Wall-clock numbers are hardware-dependent; the deterministic side
(dispatched-event counts, events per message, fingerprint equality) is
what CI's ``bench-simperf`` job asserts on (``--check``), so it cannot
flake on a loaded runner.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.config import ProtocolConfig
from repro.sim import Simulator
from repro.sim.queues import MessageQueue
from repro.sim.timers import Timer
from repro.workload import ExperimentSpec, WorkloadSpec, run_many
from repro.workload.runner import run_experiment
from repro.workload.tables import render_table

from _shared import bench_main, emit_metrics, report

CHURN_PAIRS = 50
CHURN_MSGS = 1200
CHURN_REPS = 3
VP_DURATION = 1000.0
BATCH_WINDOW = 0.05
#: ``--check`` gate: kernel dispatches per logical message on the
#: unbatched E13 vp spec
MAX_EVENTS_PER_MSG = 2.2
SWEEP_SEEDS = tuple(range(1, 9))
SWEEP_DURATION = 200.0
WORKERS = 4

SMOKE = {
    "churn_pairs": 10, "churn_msgs": 100, "churn_reps": 1,
    "vp_duration": 60.0,
    "sweep_seeds": (1, 2), "sweep_duration": 40.0,
    "workers": 2,
}


def _build_churn(pairs: int, msgs: int) -> Simulator:
    """A kernel-only workload: ``pairs`` producer/consumer couples, the
    consumer racing each receive against a timer (the losing timer is
    cancelled — the lazy-deletion path) exactly like the protocol's
    ``select from receive(...) | T.timeout`` loops."""
    sim = Simulator()

    def producer(queue: MessageQueue):
        for index in range(msgs):
            yield sim.timeout(1.0)
            queue.put(index)

    def consumer(queue: MessageQueue, timer: Timer):
        received = 0
        while received < msgs:
            timer.set(3.0)
            result = yield sim.any_of([queue.get(), timer.wait()])
            received += sum(1 for event in result.events
                            if not isinstance(event.value, Timer))

    for index in range(pairs):
        queue = MessageQueue(sim, name=f"q{index}")
        sim.process(producer(queue), name=f"prod{index}")
        sim.process(consumer(queue, Timer(sim, name=f"t{index}")),
                    name=f"cons{index}")
    return sim


def kernel_churn(pairs: int, msgs: int):
    """Run the churn workload; returns ``(dispatched, wall_seconds)``."""
    sim = _build_churn(pairs, msgs)
    start = time.perf_counter()
    sim.run()
    return sim.dispatched, time.perf_counter() - start


def churn_dispatches(pairs: int, msgs: int) -> int:
    """Closed-form dispatch count for the churn workload.

    3 dispatches per message cycle (producer timeout, AnyOf wakeup,
    next-get wakeup) plus 4 per pair of start/finish bookkeeping.  The
    FIFO fast path and inline fires change *which queue* an entry
    travels through, never whether it is dispatched — so this is
    invariant across kernel data-structure changes and is what
    ``--check`` pins.
    """
    return 3 * pairs * msgs + 4 * pairs


def churn_best(pairs: int, msgs: int, reps: int):
    """Warm up, then best-of-``reps`` churn; returns
    ``(dispatched, best_wall_seconds)``.  Dispatched counts must agree
    across reps (the workload is deterministic)."""
    kernel_churn(min(pairs, 5), min(msgs, 50))  # warm caches/allocator
    dispatched = None
    best = float("inf")
    for _ in range(max(1, reps)):
        events, wall = kernel_churn(pairs, msgs)
        if dispatched is None:
            dispatched = events
        elif events != dispatched:
            raise AssertionError(
                f"churn dispatch count drifted across reps: "
                f"{dispatched} vs {events}"
            )
        best = min(best, wall)
    return dispatched, best


def events_per_msg(result) -> float:
    """Kernel dispatches per logical message of one run."""
    sent = result.network["sent"]
    return result.events_dispatched / sent if sent else 0.0


def _vp_spec(duration: float, seed: int = 3) -> ExperimentSpec:
    """A message-heavy VP experiment: write-heavy mix, short
    interarrivals, two clients per processor."""
    return ExperimentSpec(
        protocol="virtual-partitions", processors=5, objects=10,
        seed=seed, duration=duration, grace=60.0,
        workload=WorkloadSpec(read_fraction=0.5, ops_per_txn=4,
                              mean_interarrival=2.0),
        clients=2,
    )


def run(churn_pairs: int = CHURN_PAIRS, churn_msgs: int = CHURN_MSGS,
        churn_reps: int = CHURN_REPS,
        vp_duration: float = VP_DURATION, sweep_seeds=SWEEP_SEEDS,
        sweep_duration: float = SWEEP_DURATION,
        workers: int = WORKERS) -> dict:
    # -- E13: kernel microbench (single shot, legacy methodology) ---------
    churn_events, churn_wall = kernel_churn(churn_pairs, churn_msgs)
    churn_rate = churn_events / churn_wall if churn_wall else 0.0

    # -- E13: message-heavy VP run ---------------------------------------
    vp = run_experiment(_vp_spec(vp_duration))
    vp_rate = vp.events_per_sec

    # -- E13: serial vs parallel seed sweep ------------------------------
    specs = [_vp_spec(sweep_duration, seed=seed) for seed in sweep_seeds]
    serial_start = time.perf_counter()
    serial = run_many(specs, workers=1)
    serial_wall = time.perf_counter() - serial_start
    parallel_start = time.perf_counter()
    parallel = run_many(specs, workers=workers)
    parallel_wall = time.perf_counter() - parallel_start
    mismatches = [
        seed for seed, a, b in zip(sweep_seeds, serial, parallel)
        if a.fingerprint() != b.fingerprint()
    ]
    if mismatches:
        raise AssertionError(
            f"parallel sweep diverged from serial for seeds {mismatches}"
        )
    speedup = serial_wall / parallel_wall if parallel_wall else 0.0
    sweep_events = sum(result.events_dispatched for result in serial)

    # -- E16: flat-core churn, best-of-N ---------------------------------
    flat_events, flat_wall = churn_best(churn_pairs, churn_msgs, churn_reps)
    flat_rate = flat_events / flat_wall if flat_wall else 0.0

    # -- E16: fan-out event cost (unbatched vs batched vp) ---------------
    batched_spec = replace(_vp_spec(vp_duration),
                           config=ProtocolConfig(batch_window=BATCH_WINDOW))
    batched = run_experiment(batched_spec)
    vp_per_msg = events_per_msg(vp)
    batched_per_msg = events_per_msg(batched)

    report(render_table(
        ["workload", "events", "wall (s)", "events/sec"],
        [
            ["kernel churn", churn_events, f"{churn_wall:.3f}",
             f"{churn_rate:,.0f}"],
            ["vp message-heavy", vp.events_dispatched,
             f"{vp.wall_seconds:.3f}", f"{vp_rate:,.0f}"],
            [f"sweep serial ({len(specs)} seeds)", sweep_events,
             f"{serial_wall:.3f}", f"{sweep_events / serial_wall:,.0f}"],
            [f"sweep workers={workers}", sweep_events,
             f"{parallel_wall:.3f}",
             f"{sweep_events / parallel_wall:,.0f}"],
        ],
        title=f"E13  Simulation speed (parallel sweep speedup "
              f"{speedup:.2f}x, outputs byte-identical)",
    ))
    report(render_table(
        ["workload", "dispatched", "messages", "envelopes",
         "events/msg", "wall (s)", "events/sec"],
        [
            [f"churn best-of-{max(1, churn_reps)}", flat_events, "-", "-",
             "-", f"{flat_wall:.3f}", f"{flat_rate:,.0f}"],
            ["vp unbatched", vp.events_dispatched, vp.network["sent"],
             vp.network["envelopes"], f"{vp_per_msg:.2f}",
             f"{vp.wall_seconds:.3f}", f"{vp_rate:,.0f}"],
            [f"vp batch_window={BATCH_WINDOW}", batched.events_dispatched,
             batched.network["sent"], batched.network["envelopes"],
             f"{batched_per_msg:.2f}", f"{batched.wall_seconds:.3f}",
             f"{batched.events_per_sec:,.0f}"],
        ],
        title="E16  Flat event core + fan-out event cost "
              f"(churn dispatch count pinned at "
              f"{churn_dispatches(churn_pairs, churn_msgs)}, "
              f"gate {MAX_EVENTS_PER_MSG} events/msg)",
    ))
    emit_metrics("simperf", {
        "kernel.events": churn_events,
        "kernel.events_per_sec": churn_rate,
        "kernel.flat.events_per_sec": flat_rate,
        "vp.events": vp.events_dispatched,
        "vp.events_per_sec": vp_rate,
        "vp.events_per_msg": vp_per_msg,
        "batched.events": batched.events_dispatched,
        "batched.envelopes": batched.network["envelopes"],
        "batched.events_per_msg": batched_per_msg,
        "sweep.runs": len(specs),
        "sweep.events": sweep_events,
        "sweep.serial_seconds": serial_wall,
        "sweep.parallel_seconds": parallel_wall,
        "sweep.workers": workers,
        "sweep.speedup": speedup,
        "sweep.fingerprints_equal": 1.0,
    })
    return {
        "kernel": (churn_events, churn_rate),
        "flat": (flat_events, flat_rate),
        "churn_shape": (churn_pairs, churn_msgs),
        "vp": vp,
        "batched": batched,
        "serial": serial,
        "parallel": parallel,
        "speedup": speedup,
    }


def check(results: dict) -> None:
    """Deterministic assertions only — CI's flake-proof smoke entry.

    Pins dispatched-event counts (closed-form churn formula, the
    events-per-message gate) and compares serial/parallel
    fingerprints; never asserts on wall time.
    """
    pairs, msgs = results["churn_shape"]
    expected = churn_dispatches(pairs, msgs)
    churn_events, _ = results["kernel"]
    flat_events, _ = results["flat"]
    assert churn_events == expected, (churn_events, expected)
    assert flat_events == expected, (flat_events, expected)
    vp = results["vp"]
    assert vp.events_dispatched > 0 and vp.committed > 0
    # a message costs about one kernel event: its delivery, plus at
    # most one wakeup per fan-out call or spawned request handler
    assert events_per_msg(vp) <= MAX_EVENTS_PER_MSG, (
        vp.events_dispatched, vp.network["sent"])
    batched = results["batched"]
    assert batched.committed > 0
    # run() already raised if any serial/parallel fingerprint differed;
    # re-derive the comparison here so --check is self-contained
    for a, b in zip(results["serial"], results["parallel"]):
        assert a.fingerprint() == b.fingerprint()
        assert a.events_dispatched > 0


def test_benchmark_simperf(benchmark):
    from _shared import run_once

    results = run_once(benchmark, lambda: run(**SMOKE))
    check(results)


if __name__ == "__main__":
    bench_main("bench_simperf", run, check,
               smoke=SMOKE, check_params=SMOKE)
