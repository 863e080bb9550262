"""The multi-rank discrete-event job engine.

The analytic job path (:mod:`repro.core.job`) simulates rank 0 in full
detail and charges the other N-1 ranks' shared-resource effects in closed
form — fast, but structurally unable to express contention scenarios:
NFS queueing skew, straggler nodes, per-node OS jitter, cold/warm cache
mixes.  This engine instantiates a real :class:`Process` +
:class:`ExecutionContext` per simulated rank, interleaves their
startup/import/visit phases on a shared virtual clock
(least-virtual-time-first, :mod:`repro.machine.scheduler`), and routes
every DLL read through the shared NFS server's timed FIFO queue
(:meth:`NFSServer.request_at`) — so queueing delay and inter-rank skew
*emerge* from the model.

Homogeneous warm jobs reproduce the analytic rank-0 numbers (the golden
regression tests pin this), so the analytic path remains the validated
fast mode; this engine is the scenario mode.

Simulated ranks with the same build, node costs, OS profile, staging
router and cache warmth share one compute trace
(:mod:`repro.core.ranktrace`): the first of them runs live and records
its memory-model and resolver work as cycle counts between its file
queries, and the rest replay those counts while issuing the same
queries live at their own clocks, so NFS queueing and skew still
emerge per rank.  A rank whose page-cache answer differs from the
trace, or that runs ahead of what has been recorded, rebuilds and runs
live.  Reports are bit-identical to running every rank live.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from enum import Enum
from typing import TYPE_CHECKING, Generator, Sequence

from repro.core.builds import BuildImage, build_benchmark
from repro.core.driver import PynamicDriver
from repro.core.generator import generate
from repro.core.job import JobReport
from repro.core.ranktrace import (
    Follower,
    TraceStore,
    TracedNode,
    trace_key,
    traced,
)
from repro.core.runner import rank_steps
from repro.core.specs import BenchmarkSpec
from repro.dist.overlay import DistributionOverlay, StagingPlan
from repro.errors import ConfigError
from repro.faults.metrics import DegradationStats
from repro.fs.files import BackingFileSystem
from repro.machine.cluster import Cluster, ClusterSlice
from repro.machine.context import ClockContext
from repro.machine.node import Node, TimedReadNode
from repro.machine.osprofile import OsProfile
from repro.machine.scheduler import EngineStats, EventScheduler, RankTask
from repro.mpi.api import MpiSession
from repro.mpi.network import NetworkModel
from repro.rng import SeededRng

if TYPE_CHECKING:
    from repro.scenario.spec import ScenarioSpec


def warm_node_selection(
    n_nodes: int, fraction: float, rng: SeededRng
) -> list[int]:
    """Node indices a ``fraction`` warm mix pre-warms (deterministic).

    Shared by the job engine and the mitigation experiment's warm-mix
    axis so both draw the *same* nodes for a given benchmark seed.
    """
    if fraction <= 0.0:
        return []
    count = min(n_nodes, max(1, round(fraction * n_nodes)))
    return sorted(rng.fork("warm-mix").sample(range(n_nodes), count))


class RankPlan(Enum):
    """Which ranks a :class:`MultiRankJob` run simulated (see
    :meth:`MultiRankJob._plan_ranks` for which collapses are exact)."""

    #: Every rank simulated: a per-rank knob (launch jitter) is active,
    #: batching is off, or no node holds two ranks to collapse.
    EVERY_RANK = "every_rank"
    #: A warm, homogeneous job: one rank simulated, its report
    #: replicated to every rank (exact).
    ONE_RANK = "one_rank"
    #: A cold, homogeneous job: each node's first toucher plus one
    #: cache-hit representative for its co-resident ranks (the
    #: conservative cold-batch bound).
    COLD_BATCH = "cold_batch"
    #: Per-node knobs only (stragglers, warm mixes, per-node OS
    #: profiles): each node's co-resident ranks collapse into
    #: representatives, exact on warm nodes and the cold-batch bound
    #: on cold ones.
    PER_NODE = "per_node"


class MultiRankJob:
    """Run a multirank :class:`ScenarioSpec` as N interleaved per-rank
    simulations.

    Startup interleaves per shared object (the stepped linker), imports
    and visits per module.  ``batch_homogeneous=True`` (default) lets
    co-resident ranks in lockstep share one simulation, and
    :attr:`rank_plan` records which collapse the last run took:

    - a warm, zero-heterogeneity job simulates *one* rank and replicates
      its report (:attr:`RankPlan.ONE_RANK`) — warm sweeps past 1k ranks
      cost a single rank's simulation;
    - a cold, zero-heterogeneity job simulates the *first toucher* plus
      one cache-hit representative per node and replicates the latter
      for the remaining co-resident ranks (:attr:`RankPlan.COLD_BATCH`)
      — every node-to-NFS interaction is still played out;
    - more generally, any job whose only active heterogeneity knobs are
      per-*node* (stragglers, warm mixes, per-node OS profiles — i.e.
      ``os_jitter_s == 0``, the one per-rank knob) coalesces each node's
      co-resident ranks into representative tasks carrying a
      multiplicity count (:attr:`RankPlan.PER_NODE`).

    ``batch_homogeneous`` is not part of the spec or its hash: it picks
    an equivalent fast path, not a different measurement, and
    ``batch_homogeneous=False`` is the unbatched reference.
    ``benchmark`` is the library set already generated from the spec's
    config, when the caller holds one (the workload engine shares one
    per build).

    A spec's ``distribution`` stages the DLL set through the
    library-distribution overlay before the ranks' cold reads need it:
    relay daemons land every image in the node buffer caches on the same
    virtual timeline, and each rank's linker blocks on the staged
    availability instead of demand-paging from NFS.

    Independently of the rank plan, the simulated ranks that share a
    :func:`~repro.core.ranktrace.trace_key` share one compute trace:
    one rank records it, the others replay it against live I/O
    (``self.n_replayed``) or rebuild and run live when they diverge
    (``self.n_rebuilt``).  This is exact, so it is always on.
    """

    def __init__(
        self,
        spec: "ScenarioSpec",
        *,
        benchmark: BenchmarkSpec | None = None,
        batch_homogeneous: bool = True,
    ) -> None:
        if spec.engine != "multirank":
            raise ConfigError(
                f"engine: MultiRankJob runs engine='multirank' specs, "
                f"got {spec.engine!r}"
            )
        self.spec = spec
        self.benchmark = (
            benchmark if benchmark is not None else generate(spec.config)
        )
        self.n_tasks = spec.n_tasks
        self.cores_per_node = spec.cores_per_node
        self.n_nodes = spec.n_nodes
        self.os_profile = spec.os_profile_instance()
        self.batch_homogeneous = batch_homogeneous
        #: How the last :meth:`launch` collapsed the job's ranks (None
        #: before the first launch).
        self.rank_plan: RankPlan | None = None
        #: Ranks actually driven by the last :meth:`run`.
        self.n_simulated = 0
        #: Of those, ranks that replayed a shared compute trace to the
        #: end, and ranks that started replaying but had to rebuild
        #: (see :mod:`repro.core.ranktrace`); set when the job finalizes.
        self.n_replayed = 0
        self.n_rebuilt = 0
        #: The overlay's staging plan (when a distribution ran).
        self.staging_plan: StagingPlan | None = None
        self._drivers: dict[int, PynamicDriver | Follower] = {}

    # ------------------------------------------------------------------
    def _node_ranks(self, node_index: int) -> range:
        """The ranks block-placed onto node ``node_index``."""
        first = node_index * self.cores_per_node
        return range(first, min(self.n_tasks, first + self.cores_per_node))

    def _plan_ranks(
        self, warm_nodes: "list[int] | None" = None
    ) -> tuple[list[int], dict[int, int]]:
        """Which ranks to simulate, and each rank's representative.

        Returns ``(simulated, representative)`` where ``representative``
        maps *every* rank to the simulated rank whose report it shares
        (itself for simulated ranks).

        Beyond the fully-homogeneous fast paths, co-resident ranks
        coalesce per node whenever no *per-rank* knob is active: launch
        jitter (``os_jitter_s``) is the only knob drawn per rank — the
        straggler, warm-mix and OS-profile knobs all apply per *node*.
        Two distinct collapses happen:

        - **Warm nodes — exact.**  Every read hits the node's resident
          cache, so co-resident ranks touch no shared queue and their
          trajectories are provably identical (lockstep); one
          representative reproduces the unbatched run bit-for-bit
          (``tests/test_coalescing.py`` pins this, stragglers included).
        - **Cold nodes — the conservative cold-batch approximation.**
          The collapsed run charges *all* of a node's demand faults to
          its first toucher while the hitter representative rides the
          cache.  An unbatched run instead lets cache-hit ranks run
          ahead in virtual time and fault later pages themselves,
          spreading the NFS load (fault parallelism a real node would
          show too).  Collapsing serializes those faults, so it bounds
          the job from above — measured 5-10% over the unbatched
          makespan on small cold jobs — which is the pre-existing
          :attr:`RankPlan.COLD_BATCH` default the golden pins encode.

        Each collapsed group is simulated once and carries its size as
        the task's multiplicity.
        """
        homogeneous = self.batch_homogeneous and self.spec.is_homogeneous
        if homogeneous and self.spec.warm_file_cache and self.n_tasks > 1:
            # Warm fast path: all reads hit the node caches, ranks are
            # fully decoupled and identical — one representative total.
            self.rank_plan = RankPlan.ONE_RANK
            return [0], {rank: 0 for rank in range(self.n_tasks)}
        if self.batch_homogeneous and self.spec.os_jitter_s == 0.0:
            # Per-node lockstep coalescing.  On a warm node every rank
            # hits the cache — one representative; on a cold node the
            # first toucher faults the DLL set in from shared storage
            # and the co-resident ranks hit the node buffer cache —
            # simulate the toucher plus one cache-hit representative.
            warm = (
                set(range(self.n_nodes))
                if self.spec.warm_file_cache
                else set(warm_nodes or ())
            )
            simulated: list[int] = []
            representative: dict[int, int] = {}
            for node_index in range(self.n_nodes):
                ranks = self._node_ranks(node_index)
                first = ranks[0]
                simulated.append(first)
                representative[first] = first
                if node_index in warm:
                    for rank in ranks[1:]:
                        representative[rank] = first
                elif len(ranks) > 1:
                    hitter = ranks[1]
                    simulated.append(hitter)
                    for rank in ranks[1:]:
                        representative[rank] = hitter
            if len(simulated) == self.n_tasks:
                self.rank_plan = RankPlan.EVERY_RANK
            elif homogeneous and not self.spec.warm_file_cache:
                self.rank_plan = RankPlan.COLD_BATCH
            else:
                self.rank_plan = RankPlan.PER_NODE
            return simulated, representative
        self.rank_plan = RankPlan.EVERY_RANK
        ranks = list(range(self.n_tasks))
        return ranks, {rank: rank for rank in ranks}

    def build_on(self, filesystem: BackingFileSystem) -> BuildImage:
        """This job's benchmark built and published on ``filesystem``."""
        return build_benchmark(
            self.benchmark,
            filesystem,
            self.spec.mode,
            hash_style=self.spec.hash_style,
        )

    def _stage_distribution(
        self, cluster: "Cluster | ClusterSlice", build: BuildImage,
        start_s: float = 0.0,
    ) -> StagingPlan | None:
        """Run the library-distribution overlay for a cold job."""
        if self.spec.distribution is None or self.spec.warm_file_cache:
            # With warm caches every node already holds the set; staging
            # would be pure overhead, so the overlay is a no-op and the
            # job is byte-identical to a plain NFS-direct warm run.
            return None
        overlay = DistributionOverlay(
            self.spec.distribution,
            cluster,
            network=NetworkModel(),
            straggler_nodes=self.spec.straggler_nodes,
            straggler_slowdown=self.spec.straggler_slowdown,
            faults=self.spec.faults,
        )
        return overlay.stage(list(build.images.values()), start_s=start_s)

    def launch(
        self,
        cluster: "Cluster | ClusterSlice",
        node_indices: "Sequence[int] | None" = None,
        start_s: float = 0.0,
        build: BuildImage | None = None,
        traces: TraceStore | None = None,
    ):
        """Prepare the job's rank tasks on a (possibly shared) cluster.

        Returns ``(tasks, finalize)``: schedule ``tasks`` on an
        :class:`EventScheduler` — alone, or interleaved with *other
        jobs'* tasks on one shared timeline — then call
        ``finalize(scheduler)`` once they have all completed to get the
        :class:`JobReport`.  :meth:`run` is the solo spelling (fresh
        cluster, fresh scheduler, queues reset); the batch-queue
        workload engine is the multi-tenant one, where several jobs'
        tasks share the cluster's NFS/PFS reservation timelines and
        per-node buffer caches so cross-job contention emerges.

        ``node_indices`` selects which cluster nodes the job's local
        nodes ``0..n_nodes-1`` map onto (default: identity — the first
        ``n_nodes`` nodes).  ``start_s`` offsets every rank clock and
        the staging pass to the job's start time on the shared timeline;
        reported phase times stay durations, so reports from different
        start times are comparable.

        The caller owns queue hygiene: reset the cluster's filesystem
        queues once per *timeline*, not per job.

        ``build`` is this job's benchmark already built on the cluster's
        NFS, and ``traces`` a :class:`TraceStore` of that build, when
        several jobs of one run share them (the workload engine does).
        Simulated ranks whose :func:`trace_key` matches share one compute
        trace: the first records it, the rest replay it against live
        I/O.  A key only one rank of the job holds records nothing.
        """
        if start_s < 0:
            raise ConfigError(f"start_s must be >= 0, got {start_s}")
        if node_indices is not None:
            if len(node_indices) != self.n_nodes:
                raise ConfigError(
                    f"job needs {self.n_nodes} nodes, got "
                    f"{len(node_indices)} node indices"
                )
            view = ClusterSlice(cluster, node_indices)  # type: ignore[arg-type]
        else:
            view = cluster
        view.validate_job_size(self.n_tasks)
        if self.spec.faults is not None and self.spec.faults.brownouts:
            # Degraded-capacity windows cover staging *and* the ranks'
            # demand reads; identical windows declared by co-tenant jobs
            # on the shared filesystems are idempotent.
            for fs, target in ((view.nfs, "nfs"), (view.pfs, "pfs")):
                windows = [
                    window
                    for window in self.spec.faults.brownouts
                    if window.target == target
                ]
                if windows:
                    fs.add_brownouts(windows)
        if build is None:
            build = self.build_on(view.nfs)
        if traces is None:
            traces = TraceStore()
        for image in build.images.values():
            view.file_store.add(image)
        rng = SeededRng(self.benchmark.config.seed)
        self._drivers = {}
        self.n_replayed = 0
        self.n_rebuilt = 0
        # The warm-node set is drawn once (forks are pure, so the draw is
        # identical wherever it happens) and shared by the rank plan and
        # the cache warmer.
        warm_nodes = self._warm_nodes(rng)
        simulated, representative = self._plan_ranks(warm_nodes)
        self.n_simulated = len(simulated)
        # Each simulated rank's multiplicity: how many ranks share its
        # report (1 + its coalesced replicas).
        multiplicity = {rank: 0 for rank in simulated}
        for rep in representative.values():
            multiplicity[rep] += 1
        # Model prior activity leaving the DLLs in some nodes' disk
        # caches.  Only the representative's node needs it on the warm
        # fast path, keeping it O(1) in the node count too.
        for index in [0] if self.rank_plan is RankPlan.ONE_RANK else warm_nodes:
            for image in build.images.values():
                view.nodes[index].buffer_cache.read(image)
        plan = self._stage_distribution(view, build, start_s=start_s)
        self.staging_plan = plan
        warm = set(warm_nodes)
        rank_setup = {}
        for rank in simulated:
            node_index = rank // self.cores_per_node
            costs = self.spec.node_costs(
                node_index, view.nodes[node_index].costs
            )
            profile = self.spec.node_profile(node_index, self.os_profile)
            router = plan.router_for(node_index) if plan is not None else None
            key = trace_key(
                costs, profile, router is not None, node_index in warm
            )
            rank_setup[rank] = (node_index, costs, profile, router, key)
        sharers = Counter(setup[4] for setup in rank_setup.values())
        followers: list[Follower] = []
        tasks: list[RankTask] = []
        for rank in simulated:
            node_index, costs, profile, router, key = rank_setup[rank]
            home = view.nodes[node_index]
            name = f"{home.name}:rank{rank}"
            trace = traces.get(key) if key is not None else None
            shares = key is not None and (trace is not None or sharers[key] > 1)
            if shares:
                rank_node = TracedNode(name, costs, home.buffer_cache)
            else:
                rank_node = TimedReadNode(
                    name=name, costs=costs, buffer_cache=home.buffer_cache,
                    cores=1,
                )
            live = partial(
                self._rank_steps, rank, rank_node, build, profile, rng, router
            )
            if not shares:
                steps = live()
            elif trace is None:
                rank_node.trace = traces.claim(key)
                steps = traced(live(), rank_node)
            else:
                # A rank replaying ``trace``; a rebuild runs it live.
                follower = Follower(
                    rank_node,
                    trace,
                    router,
                    build.mode.value,
                    launch=partial(self._launch_delay, rank=rank, rng=rng),
                    live=live,
                )
                followers.append(follower)
                self._drivers[rank] = follower
                steps = follower.steps()
            if start_s > 0.0:
                rank_node.clock.advance_to_seconds(start_s)
            tasks.append(
                RankTask(
                    rank,
                    steps,
                    now=lambda clock=rank_node.clock: clock.seconds,
                    multiplicity=multiplicity[rank],
                )
            )

        def finalize(scheduler: EventScheduler) -> JobReport:
            """The job's report once every task has been stepped done."""
            for task in tasks:
                if not task.done:
                    raise ConfigError(
                        f"finalize before rank {task.rank} completed"
                    )
            self.n_replayed = sum(f.replayed for f in followers)
            self.n_rebuilt = sum(f.rebuilt for f in followers)
            mpi_per_rank = self._mpi_phase(view, simulated)
            reports = {
                rank: self._drivers[rank].report(mpi_s=mpi_per_rank[rank])
                for rank in simulated
            }
            # Reports are read-only downstream, so replicated ranks share
            # their representative's instance.
            per_rank = [
                reports[representative[rank]] for rank in range(self.n_tasks)
            ]
            distribution_label = (
                self.spec.distribution.label
                if self.spec.distribution is not None
                else "none"
            )
            if plan is not None:
                # Durations since job start: comparable across jobs that
                # started at different points of a shared timeline.
                staging_per_node = [
                    done - start_s for done in plan.per_node_done_s
                ]
            else:
                staging_per_node = None
            nfs_windows, nfs_bookings = view.nfs.timeline_stats()
            pfs_windows, pfs_bookings = view.pfs.timeline_stats()
            if self.spec.faults is not None:
                degradation = DegradationStats(
                    recovery_events=(
                        plan.recovery_events if plan is not None else ()
                    ),
                    refetched_bytes=(
                        plan.refetched_bytes if plan is not None else 0
                    ),
                    crashed_relays=(
                        plan.crashed_nodes if plan is not None else ()
                    ),
                    link_retries=(
                        plan.link_retries if plan is not None else 0
                    ),
                )
            else:
                degradation = None
            return JobReport(
                n_tasks=self.n_tasks,
                n_nodes=self.n_nodes,
                rank0=per_rank[0],
                cold=not self.spec.warm_file_cache,
                engine="multirank",
                per_rank=per_rank,
                distribution=distribution_label,
                staging_per_node=staging_per_node,
                engine_stats=EngineStats(
                    scheduler_steps=scheduler.steps_run,
                    tasks_completed=scheduler.tasks_completed,
                    ranks_simulated=self.n_simulated,
                    ranks_coalesced=self.n_tasks - self.n_simulated,
                    nfs_timeline_windows=nfs_windows,
                    nfs_timeline_bookings=nfs_bookings,
                    pfs_timeline_windows=pfs_windows,
                    pfs_timeline_bookings=pfs_bookings,
                ),
                degradation=degradation,
            )

        return tasks, finalize

    def run(self) -> JobReport:
        """Simulate every rank; returns a report with per-rank detail."""
        cluster = Cluster(
            n_nodes=self.n_nodes, cores_per_node=self.cores_per_node
        )
        cluster.validate_job_size(self.n_tasks)
        cluster.nfs.reset_queue()
        cluster.pfs.reset_queue()
        tasks, finalize = self.launch(cluster)
        scheduler = EventScheduler()
        scheduler.run(tasks)
        return finalize(scheduler)

    # ------------------------------------------------------------------
    def _warm_nodes(self, rng: SeededRng) -> list[int]:
        """Node indices whose buffer caches start warm."""
        if self.spec.warm_file_cache:
            return list(range(self.n_nodes))
        warm = set(self.spec.warm_nodes)
        warm.update(
            warm_node_selection(self.n_nodes, self.spec.warm_fraction, rng)
        )
        return sorted(warm)

    def _launch_delay(
        self, ctx: ClockContext, rank: int, rng: SeededRng
    ) -> None:
        """A rank's launch step: launcher latency plus its OS jitter."""
        ctx.stall_seconds(ctx.costs.job_launch_latency_s)
        if self.spec.os_jitter_s > 0.0:
            ctx.stall_seconds(
                rng.fork(f"rank{rank}:jitter").uniform(
                    0.0, self.spec.os_jitter_s
                )
            )

    def _rank_steps(
        self,
        rank: int,
        node: Node,
        build: BuildImage,
        profile: OsProfile,
        rng: SeededRng,
        router: "object | None" = None,
    ) -> Generator[None, None, PynamicDriver]:
        """Rank ``rank``'s lifecycle (:func:`rank_steps`) on ``node``.

        Startup interleaves per shared object, imports and visits per
        module, so cold-start NFS contention interleaves across ranks
        during program start, not just during imports.
        """
        return rank_steps(
            node,
            build,
            profile,
            rng.fork(f"rank{rank}:aslr"),
            launch=partial(self._launch_delay, rank=rank, rng=rng),
            prelink=self.spec.prelink,
            router=router,
            on_driver=lambda driver: self._drivers.__setitem__(rank, driver),
            on_mark=(
                node.record_mark if isinstance(node, TracedNode) else None
            ),
        )

    def _mpi_phase(
        self, cluster: Cluster, simulated: list[int]
    ) -> dict[int, float]:
        """Barrier every rank, run the collective self-test, charge waits.

        Each rank's MPI time is its wait for the slowest rank plus the
        collective itself — which is how stragglers tax the whole job.
        ``simulated`` holds the ranks actually driven (the batched paths
        drive a subset whose replicas share their representative's
        timing, so the max over the subset is the true job max); the
        collective still runs at the full ``n_tasks`` width either way.
        """
        if not self.benchmark.config.mpi_test:
            return {rank: 0.0 for rank in simulated}
        finish = {
            rank: self._drivers[rank].ctx.seconds for rank in simulated
        }
        slowest = max(simulated, key=finish.__getitem__)
        session = MpiSession(cluster=cluster, n_tasks=self.n_tasks)
        ctx = self._drivers[slowest].ctx
        session.run_selftest(ctx)
        end_s = ctx.seconds
        for rank in simulated:
            if rank != slowest:
                self._drivers[rank].ctx.node.clock.add_seconds(
                    end_s - finish[rank]
                )
        return {rank: end_s - finish[rank] for rank in simulated}
