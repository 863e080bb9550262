"""The multi-tenant workload engine: many jobs, one shared timeline.

The single-job engine answers "how long does a cold Pynamic launch
take?"; production centers ask the harder question the paper motivates —
what happens when *many* jobs hit one shared NFS server at once.  This
engine replays a :class:`~repro.workload.spec.WorkloadSpec` end to end:

1. Arrival times are drawn per tenant from the workload seed.
2. A :class:`~repro.workload.queue.ClusterQueue` carves each job's node
   set out of one shared :class:`~repro.machine.cluster.Cluster`.
3. Each placed job's rank tasks (from :meth:`MultiRankJob.launch`) are
   interleaved on **one** least-virtual-time-first event loop, so every
   job's DLL reads book windows on the *same* NFS/PFS reservation
   timelines and share per-node buffer caches — cross-job contention
   emerges exactly the way intra-job contention already does.

The loop mirrors :meth:`EventScheduler.run` (same pop/step/push cycle,
same GC pause) but threads two extra event sources through it: job
arrivals, and job completions that free nodes and let the queue place
waiting jobs mid-timeline.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.builds import BuildImage
from repro.core.job import JobReport, percentile
from repro.core.multirank import MultiRankJob
from repro.core.ranktrace import TraceStore
from repro.errors import ConfigError
from repro.machine.cluster import Cluster
from repro.machine.scheduler import EventScheduler
from repro.rng import SeededRng
from repro.workload.arrivals import arrival_times
from repro.workload.queue import ClusterQueue, Placement, QueuedJob
from repro.workload.report import (
    JobOutcome,
    TenantSummary,
    WorkloadReport,
    cold_start_values,
)
from repro.workload.spec import TenantSpec, WorkloadSpec


@dataclass(frozen=True)
class _Arrival:
    arrival_s: float
    tenant_index: int
    job_index: int
    job_id: int = -1


@dataclass
class _ActiveJob:
    job_id: int
    tenant_index: int
    job_index: int
    arrival_s: float
    start_s: float
    node_indices: tuple[int, ...]
    tasks: list
    finalize: object
    remaining: int = field(init=False)

    def __post_init__(self) -> None:
        self.remaining = len(self.tasks)


def _tenant_build_key(tenant: TenantSpec) -> str:
    """Identity of the *file contents* a tenant's jobs put on nodes.

    Different tenants can generate DLL sets under identical paths with
    different bytes; the buffer cache keys pages by path, so a node
    handed from one tenant to another must drop its cache first.  Two
    tenants (or two jobs of one tenant) sharing this key produce
    byte-identical files, and keeping the pages is the realistic
    re-run-the-same-binary warm reuse.
    """
    doc = tenant.scenario.to_dict()
    key_fields = {
        name: doc.get(name)
        for name in ("config", "mode", "hash_style", "prelink")
    }
    return json.dumps(key_fields, sort_keys=True, separators=(",", ":"))


class WorkloadEngine:
    """Runs one :class:`WorkloadSpec` to a :class:`WorkloadReport`.

    ``estimates`` maps tenant name to an estimated per-job runtime in
    seconds for the backfill policy's reservations; omitted entries are
    computed by running each tenant's scenario solo once (deterministic,
    and exactly the baseline the rush-hour experiment compares against).
    FIFO never consults estimates and skips the solo runs.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        estimates: Mapping[str, float] | None = None,
    ) -> None:
        if not isinstance(spec, WorkloadSpec):
            raise ConfigError(
                f"spec must be a WorkloadSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self._estimates = dict(estimates) if estimates is not None else {}
        #: Last build key each node hosted (cache hygiene across tenants).
        self._node_key: dict[int, str] = {}
        #: Per run: the build and the rank-trace store that the jobs of
        #: one build key share (generated and built once per key).
        self._shared: dict[str, tuple[BuildImage, TraceStore]] = {}
        self._stats = EventScheduler()

    # -- setup ----------------------------------------------------------

    def _runtime_estimates(self) -> dict[str, float]:
        estimates = dict(self._estimates)
        if self.spec.policy != "backfill":
            for tenant in self.spec.tenants:
                estimates.setdefault(tenant.name, 0.0)
            return estimates
        for tenant in self.spec.tenants:
            if tenant.name not in estimates:
                solo = MultiRankJob(tenant.scenario).run()
                estimates[tenant.name] = solo.total_max
        return estimates

    def _sorted_arrivals(self, rng: SeededRng) -> list[_Arrival]:
        drawn: list[_Arrival] = []
        for tenant_index, tenant in enumerate(self.spec.tenants):
            for job_index, at in enumerate(arrival_times(tenant, rng)):
                drawn.append(_Arrival(at, tenant_index, job_index))
        drawn.sort(key=lambda a: (a.arrival_s, a.tenant_index, a.job_index))
        return [
            _Arrival(a.arrival_s, a.tenant_index, a.job_index, job_id)
            for job_id, a in enumerate(drawn)
        ]

    # -- job lifecycle ---------------------------------------------------

    def _launch(
        self,
        cluster: Cluster,
        placement: Placement,
        arrival: _Arrival,
        start_s: float,
        active: dict[int, _ActiveJob],
        heap: list,
    ) -> None:
        tenant = self.spec.tenants[arrival.tenant_index]
        key = _tenant_build_key(tenant)
        for index in placement.node_indices:
            if self._node_key.get(index) != key:
                cluster.nodes[index].buffer_cache.drop()
                self._node_key[index] = key
        shared = self._shared.get(key)
        if shared is None:
            job = MultiRankJob(tenant.scenario)
            shared = self._shared[key] = (
                job.build_on(cluster.nfs), TraceStore()
            )
        else:
            job = MultiRankJob(tenant.scenario, benchmark=shared[0].spec)
        build, traces = shared
        tasks, finalize = job.launch(
            cluster,
            node_indices=placement.node_indices,
            start_s=start_s,
            build=build,
            traces=traces,
        )
        record = _ActiveJob(
            job_id=arrival.job_id,
            tenant_index=arrival.tenant_index,
            job_index=arrival.job_index,
            arrival_s=arrival.arrival_s,
            start_s=start_s,
            node_indices=placement.node_indices,
            tasks=tasks,
            finalize=finalize,
        )
        active[arrival.job_id] = record
        for task in tasks:
            heapq.heappush(heap, (task.now, arrival.job_id, task.rank, task))

    def _complete(
        self, record: _ActiveJob
    ) -> tuple[JobOutcome, JobReport, float]:
        tenant = self.spec.tenants[record.tenant_index]
        report = record.finalize(self._stats)
        # The MPI phase inside finalize advances the rank clocks, so the
        # job's end is read *after* it.
        end_s = max(task.now for task in record.tasks)
        cold_start = cold_start_values(report)
        degradation = report.degradation
        outcome = JobOutcome(
            job_id=record.job_id,
            tenant=tenant.name,
            job_index=record.job_index,
            n_nodes=tenant.nodes_per_job,
            node_indices=record.node_indices,
            arrival_s=record.arrival_s,
            start_s=record.start_s,
            end_s=end_s,
            startup_p95_s=percentile(cold_start, 95),
            startup_max_s=max(cold_start),
            staging_max_s=report.staging_max,
            total_max_s=report.total_max,
            recovery_events=(
                degradation.n_recoveries if degradation is not None else 0
            ),
            refetched_bytes=(
                degradation.refetched_bytes if degradation is not None else 0
            ),
            link_retries=(
                degradation.link_retries if degradation is not None else 0
            ),
        )
        return outcome, report, end_s

    # -- the shared event loop -------------------------------------------

    def run(self) -> WorkloadReport:
        spec = self.spec
        cluster = Cluster(
            n_nodes=spec.n_nodes, cores_per_node=spec.cores_per_node
        )
        # One timeline, one reset: jobs injected later must see earlier
        # jobs' reservations, so the per-job engine's reset is hoisted
        # here and never repeated.
        cluster.nfs.reset_queue()
        cluster.pfs.reset_queue()
        rng = SeededRng(spec.seed)
        arrivals = self._sorted_arrivals(rng)
        estimates = self._runtime_estimates()
        queue = ClusterQueue(spec.n_nodes, spec.policy)
        self._stats.reset_stats()
        self._node_key = {}
        self._shared = {}

        by_arrival_id: dict[int, _Arrival] = {a.job_id: a for a in arrivals}
        active: dict[int, _ActiveJob] = {}
        heap: list = []
        outcomes: list[JobOutcome] = []
        startup_pool: dict[str, list[float]] = {
            t.name: [] for t in spec.tenants
        }
        staging_pool: dict[str, list[float]] = {
            t.name: [] for t in spec.tenants
        }

        def place(placements: list[Placement], start_s: float) -> None:
            for placement in placements:
                self._launch(
                    cluster,
                    placement,
                    by_arrival_id[placement.job.job_id],
                    start_s,
                    active,
                    heap,
                )

        heappop, heappush = heapq.heappop, heapq.heappush
        next_arrival_index = 0
        steps_run = 0
        completed = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap or next_arrival_index < len(arrivals) or queue.pending:
                next_arrival_s = (
                    arrivals[next_arrival_index].arrival_s
                    if next_arrival_index < len(arrivals)
                    else math.inf
                )
                if heap and heap[0][0] <= next_arrival_s:
                    _, job_id, rank, task = heappop(heap)
                    steps_run += 1
                    try:
                        next(task._steps)
                    except StopIteration:
                        task.done = True
                        completed += 1
                        record = active[job_id]
                        record.remaining -= 1
                        if record.remaining == 0:
                            del active[job_id]
                            # Flush counters so the job's EngineStats
                            # snapshot the shared timeline so far.
                            self._stats.steps_run += steps_run
                            self._stats.tasks_completed += completed
                            steps_run = 0
                            completed = 0
                            outcome, report, end_s = self._complete(record)
                            outcomes.append(outcome)
                            name = outcome.tenant
                            startup_pool[name].extend(
                                cold_start_values(report)
                            )
                            staging_pool[name].extend(
                                report.staging_per_node or []
                            )
                            queue.release(job_id)
                            place(queue.schedule(end_s), end_s)
                    else:
                        task.steps_run += 1
                        heappush(heap, (task._now(), job_id, rank, task))
                elif next_arrival_index < len(arrivals):
                    arrival = arrivals[next_arrival_index]
                    next_arrival_index += 1
                    tenant = spec.tenants[arrival.tenant_index]
                    queue.submit(
                        QueuedJob(
                            job_id=arrival.job_id,
                            n_nodes=tenant.nodes_per_job,
                            est_runtime_s=estimates[tenant.name],
                            tag=tenant.name,
                        )
                    )
                    place(queue.schedule(arrival.arrival_s), arrival.arrival_s)
                else:  # pragma: no cover - defensive
                    raise ConfigError(
                        "workload deadlock: jobs pending on an idle cluster"
                    )
        finally:
            if gc_was_enabled:
                gc.enable()
            self._stats.steps_run += steps_run
            self._stats.tasks_completed += completed
            self._shared = {}

        outcomes.sort(key=lambda outcome: outcome.job_id)
        tenants = []
        for tenant in spec.tenants:
            jobs = [o for o in outcomes if o.tenant == tenant.name]
            waits = [o.wait_s for o in jobs]
            slowdowns = [o.slowdown for o in jobs]
            runs = [o.run_s for o in jobs]
            startups = startup_pool[tenant.name]
            stagings = staging_pool[tenant.name]
            tenants.append(
                TenantSummary(
                    name=tenant.name,
                    n_jobs=len(jobs),
                    wait_p50_s=percentile(waits, 50) if waits else 0.0,
                    wait_p95_s=percentile(waits, 95) if waits else 0.0,
                    wait_max_s=max(waits) if waits else 0.0,
                    startup_p50_s=(
                        percentile(startups, 50) if startups else 0.0
                    ),
                    startup_p95_s=(
                        percentile(startups, 95) if startups else 0.0
                    ),
                    startup_max_s=max(startups) if startups else 0.0,
                    staging_p95_s=(
                        percentile(stagings, 95) if stagings else 0.0
                    ),
                    slowdown_p50=(
                        percentile(slowdowns, 50) if slowdowns else 1.0
                    ),
                    slowdown_p95=(
                        percentile(slowdowns, 95) if slowdowns else 1.0
                    ),
                    run_mean_s=sum(runs) / len(runs) if runs else 0.0,
                )
            )
        makespan_s = max((o.end_s for o in outcomes), default=0.0)
        return WorkloadReport(
            workload_hash=spec.workload_hash,
            policy=spec.policy,
            n_nodes=spec.n_nodes,
            cores_per_node=spec.cores_per_node,
            makespan_s=makespan_s,
            jobs=tuple(outcomes),
            tenants=tuple(tenants),
            engine_steps=self._stats.steps_run,
        )
