"""Table I: Pynamic timing results across the three build modes.

Paper values (seconds, full scale: ~495 DLLs x 1850 functions on Zeus):

    version    startup  import  visit  total
    Vanilla        1.5   152.8    2.9  157.2
    Link           5.7    56.4  269.4  331.5
    Link+Bind    285.6    58.2    2.8  346.6

The reproduction runs the identical three builds at 1/12 scale on the
simulated node.  Absolute seconds differ by construction; the assertions
live on the structural ratios (import speedup from pre-linking, the
lazy-binding visit blow-up, LD_BIND_NOW moving that cost into startup).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core import presets
from repro.core.builds import BuildMode
from repro.core.config import PynamicConfig
from repro.core.driver import DriverReport
from repro.harness.experiments import ExperimentResult, register
from repro.harness.sweep import DEFAULT_RUNNER, SweepRunner
from repro.scenario.spec import ScenarioSpec


def smoke_config() -> PynamicConfig:
    """The shrunk Table I/II workload CI registry sweeps run."""
    return replace(
        presets.table1_config(), n_modules=10, n_utilities=8, avg_functions=40
    )


def mode_reports(
    result: ExperimentResult,
    configs: Sequence[PynamicConfig],
    runner: SweepRunner,
) -> list[dict[BuildMode, DriverReport]]:
    """The three warm single-rank builds of each config (the grid of
    Tables I and II and the scaling studies), as rank-0 reports by
    build mode, one dict per config."""
    specs = [
        ScenarioSpec(config=config, mode=mode, warm_file_cache=True)
        for config in configs
        for mode in BuildMode
    ]
    reports = iter(result.sweep(specs, runner))
    return [
        {mode: next(reports).rank0 for mode in BuildMode} for _ in configs
    ]


#: The paper's Table I, seconds.
PAPER_TABLE1: dict[str, dict[str, float]] = {
    "vanilla": {"startup": 1.5, "import": 152.8, "visit": 2.9, "total": 157.2},
    "link": {"startup": 5.7, "import": 56.4, "visit": 269.4, "total": 331.5},
    "link+bind": {"startup": 285.6, "import": 58.2, "visit": 2.8, "total": 346.6},
}


def table1_metrics(results: dict[BuildMode, DriverReport]) -> dict[str, float]:
    """The structural ratios the paper's Table I demonstrates."""
    vanilla = results[BuildMode.VANILLA]
    link = results[BuildMode.LINKED]
    bind = results[BuildMode.LINKED_BIND_NOW]
    return {
        "import_speedup_link_over_vanilla": vanilla.import_s / link.import_s,
        "visit_slowdown_link_over_vanilla": link.visit_s / vanilla.visit_s,
        "bindnow_startup_delta_over_link_visit": (
            (bind.startup_s - link.startup_s) / link.visit_s
        ),
        "bindnow_visit_over_vanilla_visit": bind.visit_s / vanilla.visit_s,
        "startup_order_ok": float(
            vanilla.startup_s <= link.startup_s < bind.startup_s
        ),
    }


@register("table1")
def run(
    smoke: bool = False, runner: SweepRunner = DEFAULT_RUNNER
) -> ExperimentResult:
    """Regenerate Table I (measured next to the paper's values)."""
    config = smoke_config() if smoke else presets.table1_config()
    result = ExperimentResult(
        name="Pynamic results (three build modes)",
        paper_reference="Table I",
    )
    [results] = mode_reports(result, [config], runner)
    headers = [
        "version",
        "startup(s)",
        "import(s)",
        "visit(s)",
        "total(s)",
        "paper startup",
        "paper import",
        "paper visit",
        "paper total",
    ]
    rows = []
    for mode in BuildMode:
        report = results[mode]
        paper = PAPER_TABLE1[mode.value]
        rows.append(
            [
                mode.value,
                report.startup_s,
                report.import_s,
                report.visit_s,
                report.total_s,
                paper["startup"],
                paper["import"],
                paper["visit"],
                paper["total"],
            ]
        )
    result.add_table("Table I reproduction (1/12 scale, simulated)", headers, rows)
    metrics = table1_metrics(results)
    result.metrics.update(metrics)
    result.add_table(
        "structural ratios",
        ["ratio", "measured", "paper"],
        [
            [
                "import: vanilla / link",
                metrics["import_speedup_link_over_vanilla"],
                152.8 / 56.4,
            ],
            [
                "visit: link / vanilla",
                metrics["visit_slowdown_link_over_vanilla"],
                269.4 / 2.9,
            ],
            [
                "(bind startup - link startup) / link visit",
                metrics["bindnow_startup_delta_over_link_visit"],
                (285.6 - 5.7) / 269.4,
            ],
            [
                "visit: link+bind / vanilla",
                metrics["bindnow_visit_over_vanilla_visit"],
                2.8 / 2.9,
            ],
        ],
    )
    result.notes.append(
        "the visit slow-down grows with DLL count (scope length); see the "
        "scaling_dlls experiment for the trend toward the paper's ~93x"
    )
    return result
