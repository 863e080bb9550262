"""The engine hot-path trajectory: pinned ops/sec microbenchmarks.

Not a paper table — a repo artifact.  The ROADMAP's "engine raw speed"
item replaced the reservation layer's O(n) list scans with the
:class:`ReservationTimeline` and collapsed lockstep ranks into
multiplicity-weighted representatives; this experiment measures both
against the retained legacy implementations so tier-2 CI emits
``BENCH_engine.json`` every run and the speedups stay facts, not lore.

Cells:

- ``reserve`` / ``earliest_gap`` ops/sec at several timeline sizes,
  timeline vs legacy, with the speedup ratio as a metric per size;
- the :class:`EventScheduler` pop/step/push rate over trivial tasks
  (the fixed overhead every simulated rank step pays);
- one end-to-end cold multirank job, reporting wall seconds and the
  engine-steps-per-wall-second rate plus the coalescing counters from
  :class:`repro.machine.scheduler.EngineStats`.
"""

from __future__ import annotations

import time

from repro.harness.experiments import ExperimentResult, register
from repro.perf.bench import (
    bench_earliest_gap,
    bench_reserve,
    bench_scheduler,
)
from repro.scenario.builder import Scenario
from repro.scenario.run import simulate

#: Timeline sizes for the full run; 10_000 is the pinned headline size.
DEFAULT_SIZES = (100, 1_000, 10_000)
SMOKE_SIZES = (64, 256)


@register("engine_perf")
def run(sizes=None, smoke: bool = False) -> ExperimentResult:
    """Benchmark the engine hot path; returns the pinned trajectory."""
    result = ExperimentResult(
        name="engine_perf",
        paper_reference="repo artifact (ROADMAP: engine raw speed)",
    )
    if sizes is None:
        sizes = SMOKE_SIZES if smoke else DEFAULT_SIZES
    sizes = tuple(int(size) for size in sizes)
    n_ops = 64 if smoke else 256
    repeats = 2 if smoke else 3

    rows = []
    for size in sizes:
        reserve = bench_reserve(size, n_ops=n_ops, repeats=repeats)
        gap = bench_earliest_gap(size, n_ops=n_ops, repeats=repeats)
        reserve_speedup = (
            reserve["timeline"].ops_per_sec / reserve["legacy"].ops_per_sec
        )
        gap_speedup = gap["timeline"].ops_per_sec / gap["legacy"].ops_per_sec
        rows.append(
            [
                size,
                f"{reserve['timeline'].ops_per_sec:,.0f}",
                f"{reserve['legacy'].ops_per_sec:,.0f}",
                f"{reserve_speedup:.1f}x",
                f"{gap['timeline'].ops_per_sec:,.0f}",
                f"{gap['legacy'].ops_per_sec:,.0f}",
                f"{gap_speedup:.1f}x",
            ]
        )
        result.metrics[f"reserve_ops_per_s[timeline][{size}]"] = reserve[
            "timeline"
        ].ops_per_sec
        result.metrics[f"reserve_ops_per_s[legacy][{size}]"] = reserve[
            "legacy"
        ].ops_per_sec
        result.metrics[f"reserve_speedup[{size}]"] = reserve_speedup
        result.metrics[f"earliest_gap_speedup[{size}]"] = gap_speedup
    result.add_table(
        "reservation timeline vs legacy list (ops/sec, best of "
        f"{repeats} trials, {n_ops} ops/trial)",
        [
            "windows",
            "reserve (timeline)",
            "reserve (legacy)",
            "speedup",
            "gap (timeline)",
            "gap (legacy)",
            "speedup",
        ],
        rows,
    )

    scheduler = bench_scheduler(
        n_tasks=64 if smoke else 256,
        n_steps=16 if smoke else 64,
        repeats=repeats,
    )
    result.metrics["scheduler_steps_per_s"] = scheduler.ops_per_sec
    result.add_table(
        "EventScheduler pop/step/push rate over trivial tasks",
        ["tasks", "steps", "steps/sec"],
        [[scheduler.size, scheduler.ops, f"{scheduler.ops_per_sec:,.0f}"]],
    )

    # One end-to-end cold multirank job grounds the microbenchmarks: the
    # per-step wall rate includes the model work the trivial-task cell
    # deliberately excludes, and the EngineStats counters show how many
    # ranks the coalescer actually stepped.
    spec = (
        Scenario.preset("tiny")
        .tasks(8 if smoke else 64, cores_per_node=4)
        .engine("multirank")
        .build()
    )
    result.declare_scenario(spec)
    begin = time.perf_counter()
    report = simulate(spec)
    wall_s = time.perf_counter() - begin
    stats = report.engine_stats
    result.metrics["job_wall_s"] = wall_s
    result.metrics["job_scheduler_steps"] = float(stats.scheduler_steps)
    result.metrics["job_steps_per_wall_s"] = (
        stats.scheduler_steps / wall_s if wall_s > 0 else float("inf")
    )
    result.metrics["job_ranks_simulated"] = float(stats.ranks_simulated)
    result.metrics["job_ranks_coalesced"] = float(stats.ranks_coalesced)
    result.add_table(
        f"end-to-end cold multirank job ({spec.n_tasks} ranks x "
        f"{spec.cores_per_node}/node, tiny set)",
        [
            "wall s",
            "engine steps",
            "steps/wall s",
            "ranks simulated",
            "ranks coalesced",
        ],
        [
            [
                f"{wall_s:.3f}",
                stats.scheduler_steps,
                f"{stats.scheduler_steps / wall_s:,.0f}" if wall_s > 0 else "inf",
                stats.ranks_simulated,
                stats.ranks_coalesced,
            ]
        ],
    )
    result.notes.append(
        "best-of-N wall timing; single-vCPU CI runners add +/-25% noise, "
        "so only order-of-magnitude shifts are regressions"
    )
    return result
