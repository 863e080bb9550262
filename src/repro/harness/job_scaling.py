"""Job-size scaling: cold N-task startup against shared NFS.

Two engines regenerate this experiment.  The analytic fast path charges
rank 0 with the closed-form shared-resource costs (the original Table
reproduction); the multi-rank discrete-event engine simulates every rank
and reports the inter-rank skew distribution the analytic path cannot
express.  Both grids are declared as :class:`ScenarioSpec`s and fan out
across worker processes via the scenario sweep, so their cells are
cached under canonical spec hashes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import presets
from repro.errors import ConfigError
from repro.harness.experiments import ExperimentResult, register
from repro.harness.sweep import DEFAULT_RUNNER, SweepRunner
from repro.scenario.spec import ScenarioSpec


@register("job_scaling")
def run(
    engine: str | None = None,
    smoke: bool = False,
    runner: SweepRunner = DEFAULT_RUNNER,
) -> ExperimentResult:
    """Cold job import time vs. task count (Sections II, V).

    ``engine`` restricts the study to one engine's table (``"analytic"``
    or ``"multirank"``); the default regenerates both.  ``smoke``
    shrinks both grids to seconds for CI registry sweeps.
    """
    if engine not in (None, "analytic", "multirank"):
        raise ConfigError(
            f"unknown engine {engine!r}; choose 'analytic' or 'multirank'"
        )
    result = ExperimentResult(
        name="Cold N-task job startup vs. shared NFS",
        paper_reference="Section II.B.2 / Section V (extreme-scale loading)",
    )
    config = replace(
        presets.tiny(), n_modules=8, n_utilities=6, avg_functions=30
    )
    if engine in (None, "analytic"):
        task_counts = [4, 8] if smoke else [8, 64, 256]
        specs = [
            ScenarioSpec(config=config, n_tasks=n) for n in task_counts
        ]
        reports = dict(zip(task_counts, result.sweep(specs, runner)))
        rows = []
        for n_tasks in task_counts:
            report = reports[n_tasks]
            rows.append(
                [
                    n_tasks,
                    report.n_nodes,
                    report.startup_s,
                    report.import_s,
                    report.mpi_s,
                ]
            )
        result.add_table(
            "rank-0 phase times, cold file caches (analytic fast path)",
            ["tasks", "nodes", "startup(s)", "import(s)", "MPI test(s)"],
            rows,
        )
        biggest, smallest = task_counts[-1], task_counts[0]
        result.metrics[f"import_growth_{smallest}_to_{biggest}"] = (
            reports[biggest].import_s / reports[smallest].import_s
        )
        result.metrics[f"mpi_growth_{smallest}_to_{biggest}"] = (
            reports[biggest].mpi_s / max(1e-12, reports[smallest].mpi_s)
        )
    if engine in (None, "multirank"):
        # The discrete-event engine: skew emerges from the NFS server's
        # timed queue (kept to 64 ranks to bound runtime).
        multi_counts = [4, 8] if smoke else [8, 32, 64]
        multi_specs = [
            ScenarioSpec(config=config, engine="multirank", n_tasks=n)
            for n in multi_counts
        ]
        multi = dict(zip(multi_counts, result.sweep(multi_specs, runner)))
        skew_rows = []
        for n_tasks in multi_counts:
            report = multi[n_tasks]
            skew_rows.append(
                [
                    n_tasks,
                    report.n_nodes,
                    report.import_p50,
                    report.import_p95,
                    report.import_max,
                    report.import_skew_s,
                ]
            )
        result.add_table(
            "per-rank import distribution, cold (multi-rank engine)",
            ["tasks", "nodes", "p50(s)", "p95(s)", "max(s)", "skew(s)"],
            skew_rows,
        )
        biggest, smallest = multi_counts[-1], multi_counts[0]
        result.metrics[f"skew_p95_over_p50_at_{biggest}"] = (
            multi[biggest].import_p95 / max(1e-12, multi[biggest].import_p50)
        )
        result.metrics[f"multirank_import_growth_{smallest}_to_{biggest}"] = (
            multi[biggest].import_max / max(1e-12, multi[smallest].import_max)
        )
    result.notes.append(
        "every node pages the DLLs in from the same NFS server: cold "
        "import time grows with the node count while the compute work "
        "per rank is constant"
    )
    result.notes.append(
        "the multi-rank engine shows *which* ranks pay: the first rank "
        "to fault each node's DLLs queues at the server, later ranks on "
        "the node hit the shared buffer cache — hence p95 >> p50"
    )
    return result
