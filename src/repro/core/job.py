"""Parallel Pynamic jobs: N MPI tasks loading DLLs simultaneously.

Section II stresses that the problem compounds with job size: "larger
jobs, in terms of node counts, prove particularly difficult", and the
conclusion asks how "the common practice of loading DLLs from an NFS file
system" scales to extreme node counts.

The ranks of a Pynamic job are homogeneous by construction (identical
binaries, identical import sequence — the property Section II.B.2 says
scalable tools rely on), so the *analytic* job runner simulates rank 0 in
full detail while charging the *shared-resource* effects of all N tasks:

- the NFS server sees one reading client per node during cold loading,
- the MPI functionality test runs at the full task count,
- per-phase skew is the collectives' log-depth cost.

``engine="multirank"`` instead runs every rank as its own interleaved
simulation (:mod:`repro.core.multirank`), which is slower but lets
contention, queueing skew and heterogeneity scenarios emerge per rank.
The analytic path remains the validated fast mode.  Either way the job
is a :class:`repro.scenario.spec.ScenarioSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.driver import DriverReport
from repro.core.runner import BenchmarkRunner
from repro.errors import ConfigError
from repro.faults.metrics import DegradationStats
from repro.machine.cluster import Cluster
from repro.machine.scheduler import EngineStats

if TYPE_CHECKING:
    from repro.scenario.spec import ScenarioSpec


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample (q in [0, 100])."""
    if not values:
        raise ConfigError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ConfigError(f"percentile out of range: {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class JobReport:
    """Per-phase times of an N-task Pynamic job.

    The analytic engine fills only ``rank0``; the multi-rank engine also
    fills ``per_rank``, enabling the percentile/skew accessors below.
    """

    n_tasks: int
    n_nodes: int
    rank0: DriverReport
    cold: bool
    #: Which engine produced this report ("analytic" or "multirank").
    engine: str = "analytic"
    #: One report per rank (multi-rank engine only).
    per_rank: list[DriverReport] | None = field(default=None, repr=False)
    #: Library-distribution strategy label ("none" = demand-paged NFS).
    distribution: str = "none"
    #: Per-node staging-completion seconds when a distribution overlay
    #: ran (when node i held the full DLL set; multi-rank engine only).
    staging_per_node: list[float] | None = field(default=None, repr=False)
    #: Engine-internals counters (multi-rank engine only): scheduler
    #: steps, coalesced rank accounting, reservation-timeline sizes.
    #: ``None`` on the analytic path and on reports unpickled from rows
    #: written before the field existed (the class default covers them).
    engine_stats: EngineStats | None = field(default=None, repr=False)
    #: Fault-injection accounting (recovery events, re-fetched bytes,
    #: staging inflation vs the fault-free twin).  ``None`` on every
    #: fault-free run — an empty :class:`FaultSpec` normalizes away at
    #: the spec layer, so the twin report stays bit-identical.
    degradation: DegradationStats | None = field(default=None, repr=False)

    def _values(self, attr: str) -> list[float]:
        reports = self.per_rank if self.per_rank else [self.rank0]
        return [getattr(report, attr) for report in reports]

    # -- per-rank distribution (collapses to rank 0 on the analytic path) --
    @property
    def import_p50(self) -> float:
        """Median per-rank import time."""
        return percentile(self._values("import_s"), 50)

    @property
    def import_p95(self) -> float:
        """95th-percentile per-rank import time."""
        return percentile(self._values("import_s"), 95)

    @property
    def import_max(self) -> float:
        """Slowest rank's import time (when the import phase really ends)."""
        return max(self._values("import_s"))

    @property
    def import_skew_s(self) -> float:
        """Inter-rank import skew: slowest minus fastest rank."""
        values = self._values("import_s")
        return max(values) - min(values)

    @property
    def startup_p50(self) -> float:
        """Median per-rank startup time."""
        return percentile(self._values("startup_s"), 50)

    @property
    def startup_p95(self) -> float:
        """95th-percentile per-rank startup time."""
        return percentile(self._values("startup_s"), 95)

    @property
    def startup_max(self) -> float:
        """Slowest rank's startup time."""
        return max(self._values("startup_s"))

    @property
    def startup_skew_s(self) -> float:
        """Inter-rank startup skew: slowest minus fastest rank.

        Nonzero only when startup-phase contention can interleave — i.e.
        under the multi-rank engine's per-object stepped program start.
        """
        values = self._values("startup_s")
        return max(values) - min(values)

    @property
    def total_p50(self) -> float:
        """Median per-rank total (startup + import + visit)."""
        return percentile(self._values("total_s"), 50)

    @property
    def total_p95(self) -> float:
        """95th-percentile per-rank total."""
        return percentile(self._values("total_s"), 95)

    @property
    def total_max(self) -> float:
        """Slowest rank's total."""
        return max(self._values("total_s"))

    @property
    def total_skew_s(self) -> float:
        """Inter-rank total skew: slowest minus fastest rank."""
        values = self._values("total_s")
        return max(values) - min(values)

    # -- staging phase (distribution overlay only) -------------------------
    @property
    def staging_p50(self) -> float:
        """Median per-node staging-completion time (0 without an overlay)."""
        if not self.staging_per_node:
            return 0.0
        return percentile(self.staging_per_node, 50)

    @property
    def staging_p95(self) -> float:
        """95th-percentile per-node staging time (0 without an overlay)."""
        if not self.staging_per_node:
            return 0.0
        return percentile(self.staging_per_node, 95)

    @property
    def staging_max(self) -> float:
        """When the *last* node held the full DLL set — the overlay's
        makespan (0 without an overlay)."""
        if not self.staging_per_node:
            return 0.0
        return max(self.staging_per_node)

    @property
    def staging_skew_s(self) -> float:
        """Inter-node staging skew: last minus first node done."""
        if not self.staging_per_node:
            return 0.0
        return max(self.staging_per_node) - min(self.staging_per_node)

    @property
    def startup_s(self) -> float:
        """Job startup (launcher + loader + interpreter)."""
        return self.rank0.startup_s

    @property
    def import_s(self) -> float:
        """Module import time under N-way NFS contention when cold."""
        return self.rank0.import_s

    @property
    def visit_s(self) -> float:
        """Function visit time."""
        return self.rank0.visit_s

    @property
    def mpi_s(self) -> float:
        """MPI functionality test at the full task count."""
        return self.rank0.mpi_s

    @property
    def total_s(self) -> float:
        """Table-I-style total."""
        return self.rank0.total_s


class PynamicJob:
    """Run the job a :class:`repro.scenario.spec.ScenarioSpec` declares.

    ``engine="analytic"`` is the fast rank-0 path below;
    ``engine="multirank"`` hands the spec to the discrete-event engine
    (:class:`repro.core.multirank.MultiRankJob`), which also runs its
    heterogeneity knobs, distribution overlay and faults.  The spec
    validated every field when it was built, so the job only reads it.
    """

    def __init__(self, spec: "ScenarioSpec") -> None:
        from repro.scenario.spec import ScenarioSpec

        if not isinstance(spec, ScenarioSpec):
            raise ConfigError(
                f"spec must be a ScenarioSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self.n_nodes = spec.n_nodes

    def run(self) -> JobReport:
        """Simulate the job with the spec's engine."""
        spec = self.spec
        if spec.engine == "multirank":
            # Imported lazily: multirank builds on this module's JobReport.
            from repro.core.multirank import MultiRankJob

            return MultiRankJob(spec).run()
        cluster = Cluster(n_nodes=self.n_nodes, cores_per_node=spec.cores_per_node)
        # Every node's pager hits the NFS server during cold loading.
        cluster.nfs.set_concurrency(self.n_nodes)
        try:
            runner = BenchmarkRunner(
                config=spec.config,
                mode=spec.mode,
                cluster=cluster,
                n_tasks=spec.n_tasks,
                warm_file_cache=spec.warm_file_cache,
                os_profile=spec.os_profile_instance(),
                hash_style=spec.hash_style,
                prelink=spec.prelink,
            )
            result = runner.run()
        finally:
            cluster.nfs.set_concurrency(1)
        return JobReport(
            n_tasks=spec.n_tasks,
            n_nodes=self.n_nodes,
            rank0=result.report,
            cold=not spec.warm_file_cache,
        )
