"""Full-scale mitigation study: the paper's complete DLL set, >1k nodes.

The ``mitigation`` experiment establishes the strategy ordering on a
tiny library set at up to 256 nodes; this study re-runs it at the
paper's full library *count* — all 495 DLLs of the LLNL multiphysics
model (280 modules + 215 utilities), per-library work scaled ~100x so
the discrete-event overlay stays simulable — and pushes the node axis
past 1k (the ``llnl_multiphysics_scaled`` scenario preset: 1536 nodes,
one rank per node, chunked cut-through binomial broadcast).

Every heavy cell is a :class:`ScenarioSpec` evaluated through the sweep
runner, so with the CLI's ``--cache-dir`` (the tier-2 CI cache) the
>1k-node overlay passes replay from the warehouse instead of
re-simulating — first run pays minutes, every run after pays seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from repro.core.builds import build_benchmark
from repro.core.generator import generate
from repro.core.job import percentile
from repro.core.multirank import warm_node_selection
from repro.dist.overlay import DistributionOverlay
from repro.errors import ConfigError
from repro.fs.nfs import NFSServer
from repro.fs.staging import StagingStrategy, staging_seconds
from repro.harness.experiments import ExperimentResult, register
from repro.harness.sweep import DEFAULT_RUNNER, SweepRunner
from repro.machine.cluster import Cluster
from repro.machine.scheduler import paused_gc
from repro.rng import SeededRng
from repro.scenario.presets import scenario_preset
from repro.scenario.spec import ScenarioSpec

#: Default node counts — the ROADMAP item requires > 1k.
DEFAULT_NODE_COUNTS = (256, 1536)

#: Seconds-fast counts for the tier-1 registry smoke.
SMOKE_NODE_COUNTS = (8, 16)

#: Each delivery strategy's closed-form twin in :mod:`repro.fs.staging`.
CLOSED_FORM_TWINS = {
    "nfs-direct": StagingStrategy.INDEPENDENT,
    "parallel-fs": StagingStrategy.PARALLEL_FS,
    "tree-broadcast": StagingStrategy.COLLECTIVE,
    "cut-through": StagingStrategy.PIPELINED,
}


@dataclass(frozen=True)
class StagingSummary:
    """Picklable digest of one overlay staging pass (what the sweep
    cache stores for a staging-only grid cell)."""

    strategy: str
    n_nodes: int
    n_files: int
    staged_bytes: int
    makespan_s: float
    p50_s: float
    p95_s: float
    skew_s: float
    source_reads: int
    relay_sends: int
    warm_node_count: int
    #: Fault-injection accounting; the defaults keep cache rows pickled
    #: before the fields existed loading cleanly (all zero = clean pass).
    recovery_events: int = 0
    refetched_bytes: int = 0
    crashed_relays: int = 0
    link_retries: int = 0


@lru_cache(maxsize=2)
def _benchmark(config) -> "object":
    """Generate (and cache per process) the study's benchmark spec."""
    return generate(config)


def image_inventory(spec: ScenarioSpec) -> tuple[int, int]:
    """(total bytes, file count) of the DLL set ``spec``'s staging pass
    moves: the inputs of the closed-form staging twins."""
    cluster = Cluster(n_nodes=1)
    build = build_benchmark(
        _benchmark(spec.config),
        cluster.nfs,
        spec.mode,
        hash_style=spec.hash_style,
    )
    images = list(build.images.values())
    return sum(image.size_bytes for image in images), len(images)


# Building the cluster and the benchmark allocates as much as the pass
# itself, and neither leaves a cycle behind: see ``paused_gc``.
@paused_gc()
def eval_staging_point(spec: ScenarioSpec) -> StagingSummary:
    """Evaluate one staging-only grid cell (top-level for pickling).

    Runs the overlay the spec declares on a fresh cold cluster of the
    spec's node count — the staging phase of the job, without the
    per-rank import/visit simulation on top.  Also the engine behind
    ``pynamic-repro job --staging-only``, which is how the 16k-node
    ``llnl_multiphysics_xl`` cell runs in tier-2 CI.
    """
    if spec.distribution is None:
        raise ConfigError(
            "distribution: a staging cell needs an overlay to stage with"
        )
    cluster = Cluster(
        n_nodes=spec.n_nodes, cores_per_node=spec.cores_per_node
    )
    # hash_style reaches the image sizes (bigger .gnu.hash sections mean
    # more staged bytes), so it must be honored: the result is cached
    # under the full spec hash, which includes it.
    build = build_benchmark(
        _benchmark(spec.config),
        cluster.nfs,
        spec.mode,
        hash_style=spec.hash_style,
    )
    images = list(build.images.values())
    if spec.warm_file_cache:
        warm = set(range(spec.n_nodes))
    else:
        warm = set(spec.warm_nodes)
        warm.update(
            warm_node_selection(
                spec.n_nodes, spec.warm_fraction, SeededRng(spec.seed)
            )
        )
    for index in sorted(warm):
        for image in images:
            cluster.nodes[index].buffer_cache.read(image)
    if spec.faults is not None and spec.faults.brownouts:
        for fs, target in ((cluster.nfs, "nfs"), (cluster.pfs, "pfs")):
            windows = [
                window
                for window in spec.faults.brownouts
                if window.target == target
            ]
            if windows:
                fs.add_brownouts(windows)
    plan = DistributionOverlay(
        spec.distribution,
        cluster,
        straggler_nodes=spec.straggler_nodes,
        straggler_slowdown=spec.straggler_slowdown,
        faults=spec.faults,
    ).stage(images)
    done = list(plan.per_node_done_s)
    return StagingSummary(
        strategy=spec.distribution.label,
        n_nodes=spec.n_nodes,
        n_files=plan.n_files,
        staged_bytes=plan.staged_bytes,
        makespan_s=plan.makespan_s,
        p50_s=percentile(done, 50),
        p95_s=percentile(done, 95),
        skew_s=max(done) - min(done),
        source_reads=plan.source_reads,
        relay_sends=plan.relay_sends,
        warm_node_count=len(plan.warm_nodes),
        recovery_events=len(plan.recovery_events),
        refetched_bytes=plan.refetched_bytes,
        crashed_relays=len(plan.crashed_nodes),
        link_retries=plan.link_retries,
    )


def _overlay_cells(base: ScenarioSpec) -> dict[str, ScenarioSpec]:
    """The two stepped-overlay strategies at ``base``'s node count."""
    cut = base.distribution
    assert cut is not None  # the preset always carries one
    store_forward = replace(cut, pipelined=False, chunk_bytes=None)
    return {
        "tree-broadcast": base.with_(distribution=store_forward),
        "cut-through": base,
    }


@register("mitigation_scaled")
def run(
    node_counts: "list[int] | None" = None,
    warm_fraction: "float | None" = None,
    smoke: bool = False,
    runner: SweepRunner = DEFAULT_RUNNER,
) -> ExperimentResult:
    """Cold staging by strategy, full library count, up to >1k nodes.

    ``warm_fraction`` adds a cache-aware warm-mix column; ``smoke``
    shrinks the node axis to seconds for CI registry sweeps.
    """
    if warm_fraction is not None and not 0.0 <= warm_fraction <= 1.0:
        raise ConfigError(
            f"warm_fraction must be in [0, 1], got {warm_fraction}"
        )
    base = scenario_preset("llnl_multiphysics_scaled")
    if node_counts:
        counts = list(node_counts)
    else:
        counts = list(SMOKE_NODE_COUNTS if smoke else DEFAULT_NODE_COUNTS)
    result = ExperimentResult(
        name=(
            "Full-library-count mitigation study "
            f"({base.config.n_libraries} DLLs, up to {max(counts)} nodes)"
        ),
        paper_reference="Section II.B.2 / Section V, at Section IV's scale",
    )
    chunk = base.distribution.chunk_bytes  # type: ignore[union-attr]
    total_bytes, n_files = image_inventory(base)
    analytic: dict[tuple[str, int], float] = {}
    rows = []
    for nodes in counts:
        row: list[object] = [nodes]
        for label, strategy in CLOSED_FORM_TWINS.items():
            seconds = staging_seconds(
                total_bytes,
                n_files,
                nodes,
                strategy,
                nfs=NFSServer(),
                chunk_bytes=chunk,
            )
            analytic[label, nodes] = seconds
            row.append(f"{seconds:.4f}")
        rows.append(row)
    result.add_table(
        f"closed-form staging seconds, {n_files} DLLs "
        f"({total_bytes / 2**20:.1f} MB per node)",
        ["nodes", *CLOSED_FORM_TWINS],
        rows,
    )
    # The stepped overlay cells, disk-cached by canonical spec hash.
    cells: list[tuple[str, int, ScenarioSpec]] = []
    for nodes in counts:
        for label, spec in _overlay_cells(base.with_(n_tasks=nodes)).items():
            cells.append((label, nodes, spec))
    if warm_fraction is not None:
        for nodes in counts:
            warm_base = base.with_(n_tasks=nodes, warm_fraction=warm_fraction)
            cells.append(
                ("cut-through+warm", nodes, _overlay_cells(warm_base)["cut-through"])
            )
    summaries = result.sweep(
        [spec for _, _, spec in cells], runner, eval_staging_point
    )
    by_cell = {
        (label, nodes): summary
        for (label, nodes, _), summary in zip(cells, summaries)
    }
    overlay_rows = []
    labels = ["tree-broadcast", "cut-through"]
    if warm_fraction is not None:
        labels.append("cut-through+warm")
    for nodes in counts:
        row = [nodes]
        for label in labels:
            summary = by_cell[label, nodes]
            row.append(f"{summary.makespan_s:.4f}")
            result.metrics[f"staging_s[{label}][{nodes}]"] = summary.makespan_s
        row.append(by_cell["cut-through", nodes].source_reads)
        overlay_rows.append(row)
    result.add_table(
        "stepped overlay staging makespan (seconds until every node "
        "holds all DLLs)",
        ["nodes", *labels, "source reads"],
        overlay_rows,
    )
    biggest = max(counts)
    result.metrics["direct_over_broadcast_at_scale"] = (
        analytic["nfs-direct", biggest]
        / by_cell["tree-broadcast", biggest].makespan_s
    )
    result.metrics["stepped_over_analytic_collective"] = (
        by_cell["tree-broadcast", biggest].makespan_s
        / analytic["tree-broadcast", biggest]
    )
    result.metrics["stepped_over_analytic_pipelined"] = (
        by_cell["cut-through", biggest].makespan_s
        / analytic["cut-through", biggest]
    )
    result.metrics["store_forward_over_cut_through"] = (
        by_cell["tree-broadcast", biggest].makespan_s
        / by_cell["cut-through", biggest].makespan_s
    )
    smallest = min(counts)
    result.metrics["broadcast_growth_across_counts"] = (
        by_cell["cut-through", biggest].makespan_s
        / by_cell["cut-through", smallest].makespan_s
    )
    result.notes.append(
        "all 495 DLLs of the multiphysics model are staged to every "
        "node; NFS-direct staging grows linearly with node count while "
        "the broadcasts stay within a small factor of flat past 1k "
        "nodes — the paper's collective-open argument at its own scale"
    )
    result.notes.append(
        "heavy cells are ScenarioSpec grid points keyed by canonical "
        "spec hash: with --cache-dir the >1k-node passes replay from "
        "disk instead of re-simulating"
    )
    return result
