"""Cold-startup mitigation study: the paper's proposed extension, measured.

Section II.B.2 names "collective opening of DLLs" as the OS extension an
NFS file system needs to survive extreme-scale Python jobs, and the
conclusion proposes using Pynamic to "determine the scalability of this
current practice".  This experiment runs that study at emergent-queueing
fidelity: cold N-node jobs under the multi-rank discrete-event engine,
one rank per node, with the DLL set delivered four ways —

- **nfs-direct** — current practice: every node demand-pages every DLL
  straight from the shared NFS server (no overlay);
- **parallel-fs** — the set is pre-staged on the striped parallel file
  system and flat staging daemons pull it from there;
- **tree-broadcast** — the proposed extension: the library-distribution
  overlay's binomial tree (one NFS pass at the root, relay daemons fan
  the set out over the interconnect, ranks block on staged availability);
- **cut-through** — the broadcast refined with chunk-level pipelined
  relaying (``pipelined=True, chunk_bytes=...``): a relay forwards chunk
  *i* while receiving chunk *i+1*, so the tree fills like a pipeline.

``engine="analytic"`` swaps the discrete-event jobs for the closed-form
:func:`repro.fs.staging.staging_seconds` twins — same strategies, no
emergent queueing — so the two engines can be compared from the CLI.
The stepped binomial broadcast is pinned against the analytic
``COLLECTIVE`` form and the stepped cut-through broadcast against the
``PIPELINED`` form (``stepped_over_analytic_collective`` /
``stepped_over_analytic_pipelined``, both within 5% on a homogeneous
cold cluster).

``warm_fraction`` adds the cache-aware axis: that fraction of each
cluster's nodes starts with the DLL set resident, and the overlay's
relay daemons on those nodes serve their subtrees from the local cache
instead of waiting for the root pass.
"""

from __future__ import annotations

from repro.core import presets
from repro.dist.topology import DistributionSpec, Topology
from repro.errors import ConfigError
from repro.fs.nfs import NFSServer
from repro.fs.staging import StagingStrategy, staging_seconds
from repro.harness.experiments import ExperimentResult, register
from repro.harness.mitigation_scaled import (
    CLOSED_FORM_TWINS,
    eval_staging_point,
    image_inventory,
)
from repro.harness.sweep import DEFAULT_RUNNER, SweepRunner
from repro.scenario.spec import ScenarioSpec

#: Default node counts — the acceptance bar is >= 256 under multirank.
DEFAULT_NODE_COUNTS = (16, 64, 256)

#: Seconds-fast counts for the tier-1 registry smoke.
SMOKE_NODE_COUNTS = (4, 8)

#: Default relay granularity of the cut-through strategy (64 KiB — a few
#: chunks per DLL of the study's image set).
DEFAULT_CHUNK_BYTES = 64 * 1024


def _strategies(
    extra: DistributionSpec | None, chunk_bytes: int
) -> dict[str, DistributionSpec | None]:
    strategies: dict[str, DistributionSpec | None] = {
        "nfs-direct": None,
        "parallel-fs": DistributionSpec(topology=Topology.FLAT, source="pfs"),
        "tree-broadcast": DistributionSpec(topology=Topology.BINOMIAL),
        "cut-through": DistributionSpec(
            topology=Topology.BINOMIAL, pipelined=True, chunk_bytes=chunk_bytes
        ),
    }
    # Dedup by spec equality, not label: a custom variant of a built-in
    # topology (e.g. a pipelined binomial) is a distinct strategy.
    if extra is not None and all(extra != spec for spec in strategies.values()):
        strategies[extra.label] = extra
    return strategies


@register("mitigation")
def run(
    node_counts: "list[int] | None" = None,
    engine: str = "multirank",
    distribution: DistributionSpec | None = None,
    chunk_bytes: "int | None" = None,
    warm_fraction: "float | None" = None,
    smoke: bool = False,
    runner: SweepRunner = DEFAULT_RUNNER,
) -> ExperimentResult:
    """Cold startup by distribution strategy across node counts.

    ``chunk_bytes`` sets the cut-through strategy's relay granularity;
    ``warm_fraction`` adds a warm-mix staging table (cache-aware relays);
    ``smoke`` shrinks the node axis to seconds for CI registry sweeps.
    """
    if engine not in ("analytic", "multirank"):
        raise ConfigError(
            f"unknown engine {engine!r}; choose 'analytic' or 'multirank'"
        )
    if warm_fraction is not None and not 0.0 <= warm_fraction <= 1.0:
        raise ConfigError(
            f"warm fraction must be in [0, 1], got {warm_fraction}"
        )
    if node_counts:
        counts = list(node_counts)
    else:
        counts = list(SMOKE_NODE_COUNTS if smoke else DEFAULT_NODE_COUNTS)
    chunk = chunk_bytes if chunk_bytes is not None else DEFAULT_CHUNK_BYTES
    config = presets.tiny()
    strategies = _strategies(distribution, chunk)
    result = ExperimentResult(
        name="Cold-startup mitigation: NFS-direct vs parallel FS vs broadcast",
        paper_reference="Section II.B.2 / Section V (collective opening of DLLs)",
    )
    if engine == "analytic":
        spec = ScenarioSpec(config=config)
        result.declare_scenario(spec)
        total_bytes, n_files = image_inventory(spec)
        rows = []
        for nodes in counts:
            row: list[object] = [nodes]
            for label in strategies:
                twin = CLOSED_FORM_TWINS.get(label)
                if twin is None:
                    row.append("-")
                    continue
                seconds = staging_seconds(
                    total_bytes, n_files, nodes, twin, chunk_bytes=chunk
                )
                row.append(f"{seconds:.4f}")
            rows.append(row)
        result.add_table(
            "closed-form staging seconds until every node holds the DLL set",
            ["nodes", *strategies],
            rows,
        )
        result.notes.append(
            "analytic engine: closed-form staging_seconds() twins only — "
            "re-run with engine='multirank' for emergent queueing"
        )
        return result
    # Multirank: one rank per node, cold caches, full job simulations,
    # one ScenarioSpec per (strategy, node count).  The staging-only
    # cells below re-run some of these specs' overlays on their own.
    grid = {
        label: [
            ScenarioSpec(
                config=config,
                engine="multirank",
                n_tasks=nodes,
                cores_per_node=1,
                distribution=spec,
            )
            for nodes in counts
        ]
        for label, spec in strategies.items()
    }
    reports = {
        label: dict(zip(counts, result.sweep(specs, runner)))
        for label, specs in grid.items()
    }
    rows = []
    for nodes in counts:
        row: list[object] = [nodes]
        for label in strategies:
            report = reports[label][nodes]
            row.append(f"{report.total_max:.4f}")
        row.append(f"{reports['tree-broadcast'][nodes].staging_max:.4f}")
        rows.append(row)
    result.add_table(
        "cold job completion seconds (slowest rank), one rank per node, "
        "multirank engine",
        ["nodes", *strategies, "broadcast staging makespan"],
        rows,
    )
    for label in strategies:
        for nodes in counts:
            key = f"total_s[{label}][{nodes}]"
            result.metrics[key] = reports[label][nodes].total_max
    biggest = counts[-1]
    result.metrics["direct_over_broadcast_at_scale"] = (
        reports["nfs-direct"][biggest].total_max
        / reports["tree-broadcast"][biggest].total_max
    )
    result.metrics["direct_over_parallel_fs_at_scale"] = (
        reports["nfs-direct"][biggest].total_max
        / reports["parallel-fs"][biggest].total_max
    )
    # Pin the stepped overlays against their closed-form twins on a
    # homogeneous cold cluster of the largest size (the goldens the
    # acceptance criteria name: within 5%).  The warm-mix rows stage
    # the cut-through specs again with a warm fraction of their nodes.
    tree = grid["tree-broadcast"][-1]
    cold_specs = grid["cut-through"]
    if warm_fraction is None:
        cold_specs, warm_specs = cold_specs[-1:], []
    else:
        warm_specs = [
            spec.with_(warm_fraction=warm_fraction) for spec in cold_specs
        ]
    summaries = result.sweep(
        [tree, *cold_specs, *warm_specs], runner, eval_staging_point
    )
    plan, cold_plans = summaries[0], summaries[1 : len(cold_specs) + 1]
    cut_plan = cold_plans[-1]
    total_bytes, n_files = image_inventory(tree)
    analytic_collective = staging_seconds(
        total_bytes,
        n_files,
        biggest,
        StagingStrategy.COLLECTIVE,
        nfs=NFSServer(),
    )
    result.metrics["stepped_over_analytic_collective"] = (
        plan.makespan_s / analytic_collective
    )
    analytic_pipelined = staging_seconds(
        total_bytes,
        n_files,
        biggest,
        StagingStrategy.PIPELINED,
        nfs=NFSServer(),
        chunk_bytes=chunk,
    )
    result.metrics["stepped_over_analytic_pipelined"] = (
        cut_plan.makespan_s / analytic_pipelined
    )
    result.metrics["store_forward_over_cut_through"] = (
        plan.makespan_s / cut_plan.makespan_s
    )
    if warm_fraction is not None:
        warm_rows = []
        warm_plans = summaries[len(cold_specs) + 1 :]
        for nodes, cold, warm in zip(counts, cold_plans, warm_plans):
            warm_rows.append(
                [
                    nodes,
                    warm.warm_node_count,
                    f"{cold.makespan_s:.4f}",
                    f"{warm.makespan_s:.4f}",
                    warm.source_reads,
                ]
            )
            result.metrics[f"warm_staging_s[{nodes}]"] = warm.makespan_s
            result.metrics[f"cold_staging_s[{nodes}]"] = cold.makespan_s
        result.add_table(
            f"cache-aware relays: cut-through staging makespan with "
            f"{warm_fraction:.0%} of nodes pre-warmed",
            ["nodes", "warm nodes", "cold staging", "warm-mix staging",
             "source reads"],
            warm_rows,
        )
        result.notes.append(
            "warm relay daemons serve their subtrees from the local "
            "buffer cache instead of waiting for the root pass; with "
            "every node warm the overlay stages in zero time with zero "
            "relay sends and zero NFS reads"
        )
    result.notes.append(
        "tree-broadcast reads each DLL from NFS exactly once and fans it "
        "out over the interconnect: cold startup stays flat with node "
        "count while NFS-direct grows linearly — the scalability argument "
        "for the paper's proposed collective-open extension"
    )
    result.notes.append(
        "the stepped broadcast's staging makespan tracks the analytic "
        "staging_seconds(COLLECTIVE) closed form within 5% on this "
        "homogeneous cold cluster, and the chunked cut-through broadcast "
        "tracks staging_seconds(PIPELINED) the same way"
    )
    return result
