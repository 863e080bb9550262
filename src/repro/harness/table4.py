"""Table IV: TotalView startup, cold vs. warm, 32 MPI tasks.

Paper values (mm:ss):

    metric                  real app   Pynamic
    Cold Startup 1st phase      5:28      6:39
    Cold Startup 2nd phase      3:35      3:21
    Cold Startup total          9:03     10:00
    Warm Startup 1st phase      1:39      1:01
    Warm Startup 2nd phase      3:34      3:10
    Warm Startup total          5:13      4:11

Reproduced at 1/10 library count (functions-per-library kept at the
paper's 1850 so per-DLL symbol volume stays proportional), 32 tasks on 4
simulated nodes sharing one NFS server.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.core import presets
from repro.core.builds import BuildImage, BuildMode, build_benchmark
from repro.core.config import PynamicConfig
from repro.core.generator import generate
from repro.harness.experiments import ExperimentResult, register
from repro.machine.cluster import Cluster
from repro.scenario.spec import ScenarioSpec
from repro.tools.debugger import (
    DebuggerStartup,
    MultirankDebuggerStartup,
    ParallelDebugger,
)
from repro.units import format_mmss, parse_mmss


def _smoke_config() -> PynamicConfig:
    """The shrunk Table IV workload CI registry sweeps run."""
    return replace(presets.table4_config(), avg_functions=150)

#: The paper's Table IV (seconds, parsed from mm:ss).
PAPER_TABLE4: dict[str, dict[str, float]] = {
    "real app": {
        "cold_phase1": parse_mmss("5:28"),
        "cold_phase2": parse_mmss("3:35"),
        "warm_phase1": parse_mmss("1:39"),
        "warm_phase2": parse_mmss("3:34"),
    },
    "Pynamic": {
        "cold_phase1": parse_mmss("6:39"),
        "cold_phase2": parse_mmss("3:21"),
        "warm_phase1": parse_mmss("1:01"),
        "warm_phase2": parse_mmss("3:10"),
    },
}


@lru_cache(maxsize=2)
def debugger_startup_pair(
    n_tasks: int = 32, config: PynamicConfig | None = None
) -> tuple[DebuggerStartup, DebuggerStartup]:
    """Run the cold and warm debugger startups (cached for reuse)."""
    cluster = Cluster(n_nodes=4)
    spec = generate(config or presets.table4_config())
    build = build_benchmark(spec, cluster.nfs, BuildMode.LINKED)
    for image in build.images.values():
        cluster.file_store.add(image)
    cold = ParallelDebugger(cluster, n_tasks=n_tasks).startup(build, cold=True)
    warm = ParallelDebugger(cluster, n_tasks=n_tasks).startup(build, cold=False)
    return cold, warm


def table4_metrics(cold: DebuggerStartup, warm: DebuggerStartup) -> dict[str, float]:
    """The cold/warm structure Table IV demonstrates."""
    return {
        "total_cold_over_warm": cold.total_s / warm.total_s,
        "phase1_cold_over_warm": cold.phase1_s / warm.phase1_s,
        "phase2_cold_over_warm": cold.phase2_s / warm.phase2_s,
        "cold_phase1_over_phase2": cold.phase1_s / cold.phase2_s,
    }


@register("table4")
def run(smoke: bool = False) -> ExperimentResult:
    """Regenerate Table IV at 1/10 scale."""
    config = _smoke_config() if smoke else presets.table4_config()
    n_tasks = 8 if smoke else 32
    cold, warm = debugger_startup_pair(n_tasks, config)
    result = ExperimentResult(
        name="TotalView-style debugger startup, cold vs. warm",
        paper_reference="Table IV",
    )
    result.declare_scenario(
        ScenarioSpec(config=config, mode=BuildMode.LINKED, n_tasks=n_tasks)
    )
    paper = PAPER_TABLE4["Pynamic"]
    rows = [
        ["Cold Startup 1st phase", format_mmss(cold.phase1_s), "6:39"],
        ["Cold Startup 2nd phase", format_mmss(cold.phase2_s), "3:21"],
        ["Cold Startup total", format_mmss(cold.total_s), "10:00"],
        ["Warm Startup 1st phase", format_mmss(warm.phase1_s), "1:01"],
        ["Warm Startup 2nd phase", format_mmss(warm.phase2_s), "3:10"],
        ["Warm Startup total", format_mmss(warm.total_s), "4:11"],
    ]
    result.add_table(
        "Table IV reproduction (mm:ss, 1/10 library count, 32 tasks)",
        ["Cold/Warm startup metric", "measured", "paper Pynamic"],
        rows,
    )
    metrics = table4_metrics(cold, warm)
    result.metrics.update(metrics)
    paper_total_ratio = (paper["cold_phase1"] + paper["cold_phase2"]) / (
        paper["warm_phase1"] + paper["warm_phase2"]
    )
    result.add_table(
        "structural ratios",
        ["ratio", "measured", "paper"],
        [
            ["total: cold / warm", metrics["total_cold_over_warm"], paper_total_ratio],
            [
                "phase 1: cold / warm",
                metrics["phase1_cold_over_warm"],
                paper["cold_phase1"] / paper["warm_phase1"],
            ],
            [
                "phase 2: cold / warm",
                metrics["phase2_cold_over_warm"],
                paper["cold_phase2"] / paper["warm_phase2"],
            ],
        ],
    )
    result.notes.append(
        "phase 2 is event-handling bound (no file IO), so cache warmth "
        "barely moves it — the paper's key observation"
    )
    return result


@lru_cache(maxsize=2)
def _table4_spec(config: PynamicConfig | None = None):
    """The 1/10-library-count benchmark spec (cached: generation is the
    expensive part of a full-scale debugger run)."""
    return generate(config or presets.table4_config())


def _table4_build(
    n_nodes: int, config: PynamicConfig | None = None
) -> tuple[Cluster, BuildImage]:
    """A fresh full-scale cluster + pre-linked build for the multirank
    study — the same workload the analytic Table IV reproduction uses."""
    cluster = Cluster(n_nodes=n_nodes)
    build = build_benchmark(_table4_spec(config), cluster.nfs, BuildMode.LINKED)
    for image in build.images.values():
        cluster.file_store.add(image)
    return cluster, build


def debugger_multirank_rows(
    n_tasks: int = 32,
    n_nodes: int = 4,
    config: PynamicConfig | None = None,
) -> dict[str, MultirankDebuggerStartup]:
    """Cold, warm and straggler multirank debugger startups at the
    paper's 32 tasks and 1/10 library count (the full Table IV scale)."""
    runs: dict[str, MultirankDebuggerStartup] = {}
    cluster, build = _table4_build(n_nodes, config)
    debugger = ParallelDebugger(cluster, n_tasks=n_tasks)
    runs["cold"] = debugger.startup_multirank(build, cold=True)
    runs["warm"] = debugger.startup_multirank(build, cold=False)
    straggled = ScenarioSpec(
        engine="multirank",
        n_tasks=n_tasks,
        cores_per_node=-(-n_tasks // n_nodes),
        straggler_nodes=(1,),
        straggler_slowdown=2.0,
    )
    cluster2, build2 = _table4_build(n_nodes, config)
    runs["cold+straggler"] = ParallelDebugger(
        cluster2, n_tasks=n_tasks
    ).startup_multirank(build2, cold=True, scenario=straggled)
    return runs


@register("table4_multirank")
def run_multirank(smoke: bool = False) -> ExperimentResult:
    """Table IV on the multirank engine at full 32-task scale."""
    config = _smoke_config() if smoke else presets.table4_config()
    # The straggler cell throttles node 1, so even smoke keeps >= 2
    # nodes' worth of tasks (8 cores per node).
    n_tasks, n_nodes = (16, 2) if smoke else (32, 4)
    runs = debugger_multirank_rows(n_tasks, n_nodes, config)
    analytic_cold, analytic_warm = debugger_startup_pair(n_tasks, config)
    result = ExperimentResult(
        name="Multirank debugger startup: full-scale Table IV + per-daemon skew",
        paper_reference="Table IV (tool-startup problem, per-daemon view)",
    )
    result.declare_scenario(
        ScenarioSpec(
            config=config,
            engine="multirank",
            mode=BuildMode.LINKED,
            n_tasks=n_tasks,
            cores_per_node=-(-n_tasks // n_nodes),
        ),
        ScenarioSpec(
            config=config,
            engine="multirank",
            mode=BuildMode.LINKED,
            n_tasks=n_tasks,
            cores_per_node=-(-n_tasks // n_nodes),
            straggler_nodes=(1,),
            straggler_slowdown=2.0,
        ),
    )
    paper = PAPER_TABLE4["Pynamic"]
    comparison_rows = [
        [
            "Cold Startup 1st phase",
            format_mmss(runs["cold"].phase1_s),
            format_mmss(analytic_cold.phase1_s),
            "6:39",
        ],
        [
            "Cold Startup 2nd phase",
            format_mmss(runs["cold"].phase2_s),
            format_mmss(analytic_cold.phase2_s),
            "3:21",
        ],
        [
            "Cold Startup total",
            format_mmss(runs["cold"].total_s),
            format_mmss(analytic_cold.total_s),
            "10:00",
        ],
        [
            "Warm Startup 1st phase",
            format_mmss(runs["warm"].phase1_s),
            format_mmss(analytic_warm.phase1_s),
            "1:01",
        ],
        [
            "Warm Startup 2nd phase",
            format_mmss(runs["warm"].phase2_s),
            format_mmss(analytic_warm.phase2_s),
            "3:10",
        ],
        [
            "Warm Startup total",
            format_mmss(runs["warm"].total_s),
            format_mmss(analytic_warm.total_s),
            "4:11",
        ],
    ]
    result.add_table(
        "Table IV at full scale (mm:ss, 1/10 library count, 32 tasks; "
        "stepped debug servers vs the analytic closed form)",
        ["Cold/Warm startup metric", "multirank", "analytic", "paper Pynamic"],
        comparison_rows,
    )
    skew_rows = [
        [
            label,
            format_mmss(startup.total_s),
            f"{startup.daemon_p50:.4f}",
            f"{startup.daemon_p95:.4f}",
            f"{startup.daemon_max:.4f}",
            f"{startup.daemon_skew_s:.4f}",
        ]
        for label, startup in runs.items()
    ]
    result.add_table(
        "per-daemon phase-1 IO+parse seconds (stepped debug servers on "
        "the shared NFS timed queue)",
        ["run", "total", "p50", "p95", "max", "skew"],
        rows=skew_rows,
    )
    paper_total_ratio = (paper["cold_phase1"] + paper["cold_phase2"]) / (
        paper["warm_phase1"] + paper["warm_phase2"]
    )
    result.metrics.update(
        {
            "cold_daemon_skew_s": runs["cold"].daemon_skew_s,
            "warm_daemon_skew_s": runs["warm"].daemon_skew_s,
            "straggler_daemon_skew_s": runs["cold+straggler"].daemon_skew_s,
            "total_cold_over_warm": (
                runs["cold"].total_s / runs["warm"].total_s
            ),
            "paper_total_cold_over_warm": paper_total_ratio,
            "warm_total_over_analytic": (
                runs["warm"].total_s / analytic_warm.total_s
            ),
            "cold_total_over_analytic": (
                runs["cold"].total_s / analytic_cold.total_s
            ),
        }
    )
    result.notes.append(
        "warm daemons hit the node buffer caches, show zero skew, and "
        "reproduce the analytic warm totals; cold daemons queue on the "
        "NFS pipe (emergent, slightly below the closed-form concurrency "
        "split), and a straggler node parses its DWARF at half speed"
    )
    return result
