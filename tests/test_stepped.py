"""The stepped-execution layer: per-object linker startup, the multirank
debugger, IOPS saturation, and the homogeneous-warm batching fast path."""

from dataclasses import replace

import pytest

from repro.core import presets
from repro.core.builds import BuildMode, build_benchmark
from repro.core.generator import generate
from repro.core.job import PynamicJob
from repro.core.multirank import MultiRankJob, RankPlan
from repro.elf.symbols import HashStyle
from repro.errors import ConfigError
from repro.fs.nfs import NFSServer
from repro.fs.parallelfs import ParallelFileSystem
from repro.linker.dynamic import DynamicLinker, SteppedStartup
from repro.machine.cluster import Cluster
from repro.machine.context import ExecutionContext
from repro.machine.scheduler import (
    EventScheduler,
    RankTask,
    SteppedProgram,
    drain,
)
from repro.scenario.spec import ScenarioSpec
from repro.tools.debugger import MultirankDebuggerStartup, ParallelDebugger


@pytest.fixture(scope="module")
def small_config():
    return replace(presets.tiny(), n_modules=6, avg_functions=20)


def _multirank_spec(config=None, **fields):
    return ScenarioSpec(
        config=config or presets.tiny(), engine="multirank", **fields
    )


def _fresh_start(spec, mode=BuildMode.LINKED_BIND_NOW):
    """A fresh cluster/build/process ready for program startup."""
    cluster = Cluster(n_nodes=1)
    build = build_benchmark(spec, cluster.nfs, mode)
    for image in build.images.values():
        cluster.file_store.add(image)
    env = {"LD_BIND_NOW": "1"} if mode is BuildMode.LINKED_BIND_NOW else {}
    process = cluster.nodes[0].spawn(env=env)
    ctx = ExecutionContext(process)
    linker = DynamicLinker(build.registry)
    return build, process, ctx, linker


class TestSteppedStartup:
    """``start_program`` is a thin drain over the per-object generator."""

    def test_stepped_totals_match_monolithic_within_1_percent(self, tiny_spec):
        build, process, ctx, linker = _fresh_start(tiny_spec)
        linker.start_program(process, build.executable, ctx)
        monolithic_s = ctx.seconds

        build2, process2, ctx2, linker2 = _fresh_start(tiny_spec)
        steps = 0
        for _ in linker2.start_program_steps(process2, build2.executable, ctx2):
            steps += 1
        stepped_s = ctx2.seconds

        assert stepped_s == pytest.approx(monolithic_s, rel=0.01)
        # The paths must also agree on the work actually performed.
        assert linker2.data_relocations_applied == linker.data_relocations_applied
        assert linker2.eager_plt_resolutions == linker.eager_plt_resolutions
        assert len(process2.link_map) == len(process.link_map)
        # Per-object resolution: map + reloc (+ PLT under LD_BIND_NOW)
        # steps for every startup object.
        assert steps >= 2 * len(process2.link_map)

    def test_stepped_startup_program_wrapper(self, tiny_spec):
        build, process, ctx, linker = _fresh_start(tiny_spec, BuildMode.VANILLA)
        program = SteppedStartup(linker, process, build.executable, ctx)
        assert isinstance(program, SteppedProgram)
        assert program.link_map is None
        drain(program.steps())
        assert program.link_map is process.link_map
        assert len(program.link_map) > 0

    def test_drain_returns_generator_value(self):
        def gen():
            yield
            yield
            return "done"

        assert drain(gen()) == "done"

    def test_rank_task_from_program(self):
        class Count(SteppedProgram):
            def __init__(self):
                self.t = 0.0

            def steps(self):
                for _ in range(3):
                    self.t += 1.0
                    yield

        program = Count()
        task = RankTask.from_program(0, program, now=lambda: program.t)
        EventScheduler().run([task])
        assert program.t == 3.0
        assert task.steps_run == 3


class TestStartupInterleaving:
    """Cold multi-node jobs interleave startup at per-object resolution."""

    def test_cold_multi_node_startup_skew_emerges(self, small_config):
        report = PynamicJob(ScenarioSpec(
            config=small_config,
            engine="multirank",
            n_tasks=4,
            cores_per_node=1,
        )).run()
        # Each node's rank fights the others for the NFS pipe while
        # mapping the startup closure, so program start itself skews —
        # invisible when start_program was one atomic step.
        assert report.startup_skew_s > 0.0
        assert report.startup_p95 >= report.startup_p50
        assert report.startup_max == max(
            r.startup_s for r in report.per_rank
        )

    def test_interleaving_is_deterministic_across_runs(self, small_config):
        runs = [
            PynamicJob(ScenarioSpec(
                config=small_config,
                engine="multirank",
                n_tasks=4,
                cores_per_node=1,
            )).run()
            for _ in range(2)
        ]
        first, second = runs
        assert [r.startup_s for r in first.per_rank] == [
            r.startup_s for r in second.per_rank
        ]
        assert [r.import_s for r in first.per_rank] == [
            r.import_s for r in second.per_rank
        ]

    def test_warm_single_rank_startup_matches_analytic(self, small_config):
        analytic = PynamicJob(ScenarioSpec(
            config=small_config, n_tasks=1, warm_file_cache=True
        )).run()
        multirank = PynamicJob(ScenarioSpec(
            config=small_config,
            engine="multirank",
            n_tasks=1,
            warm_file_cache=True,
        )).run()
        assert multirank.startup_s == pytest.approx(
            analytic.startup_s, rel=0.01
        )


class TestIopsSaturation:
    """RPC-heavy small reads queue at the server instead of pipelining."""

    def test_nfs_small_read_storm_strictly_slower_with_iops_limit(self):
        limited = NFSServer(latency_s=0.001, iops_limit=1000.0)
        unbounded = NFSServer(latency_s=0.001, iops_limit=None)
        # 32 clients each issuing 64 tiny RPCs at t=0: the unbounded
        # server pipelines all the latency; the limited one saturates.
        limited_done = [limited.request_at(0.0, 512, n_ops=64) for _ in range(32)]
        unbounded_done = [
            unbounded.request_at(0.0, 512, n_ops=64) for _ in range(32)
        ]
        assert max(limited_done) > max(unbounded_done)
        # Every request after the first queues strictly longer.
        for fast, slow in zip(unbounded_done[1:], limited_done[1:]):
            assert slow > fast

    def test_pfs_small_read_storm_strictly_slower_with_iops_limit(self):
        limited = ParallelFileSystem(latency_s=0.001, iops_limit=1000.0)
        unbounded = ParallelFileSystem(latency_s=0.001, iops_limit=None)
        limited_done = [limited.request_at(0.0, 512, n_ops=64) for _ in range(32)]
        unbounded_done = [
            unbounded.request_at(0.0, 512, n_ops=64) for _ in range(32)
        ]
        assert max(limited_done) > max(unbounded_done)

    def test_unloaded_request_unaffected_by_iops_limit(self):
        limited = NFSServer(iops_limit=20_000.0)
        unbounded = NFSServer(iops_limit=None)
        assert limited.request_at(1.0, 65536, n_ops=4) == pytest.approx(
            unbounded.request_at(1.0, 65536, n_ops=4)
        )

    def test_reset_queue_clears_op_backlog(self):
        nfs = NFSServer(latency_s=0.0, iops_limit=10.0)
        nfs.request_at(0.0, 0, n_ops=10)  # one second of op service
        backlogged = nfs.request_at(0.0, 0, n_ops=1)
        nfs.reset_queue()
        assert nfs.request_at(0.0, 0, n_ops=1) < backlogged

    def test_invalid_iops_limit_rejected(self):
        with pytest.raises(ConfigError):
            NFSServer(iops_limit=0.0)
        with pytest.raises(ConfigError):
            ParallelFileSystem(iops_limit=-5.0)


class TestMultirankDebugger:
    """Table IV per-daemon skew on the stepped-execution layer."""

    N_TASKS = 32

    def _cluster_build(self, n_nodes=4):
        cluster = Cluster(n_nodes=n_nodes)
        spec = generate(presets.tiny())
        build = build_benchmark(spec, cluster.nfs, BuildMode.LINKED)
        for image in build.images.values():
            cluster.file_store.add(image)
        return cluster, build

    def test_warm_homogeneous_matches_analytic_totals(self):
        # A cold run first brings every DLL into the node caches — the
        # paper's warm startup is literally the second invocation.
        cluster, build = self._cluster_build()
        analytic = ParallelDebugger(cluster, n_tasks=self.N_TASKS)
        analytic.startup(build, cold=True)
        a_warm = analytic.startup(build, cold=False)
        cluster2, build2 = self._cluster_build()
        multirank = ParallelDebugger(cluster2, n_tasks=self.N_TASKS)
        multirank.startup_multirank(build2, cold=True)
        m_warm = multirank.startup_multirank(build2, cold=False)
        assert m_warm.phase1_s == pytest.approx(a_warm.phase1_s, rel=1e-6)
        assert m_warm.phase2_s == pytest.approx(a_warm.phase2_s, rel=1e-6)
        assert m_warm.daemon_skew_s == 0.0

    def test_cold_daemons_skew_on_the_nfs_queue(self):
        cluster, build = self._cluster_build()
        startup = ParallelDebugger(
            cluster, n_tasks=self.N_TASKS
        ).startup_multirank(build, cold=True)
        assert isinstance(startup, MultirankDebuggerStartup)
        assert len(startup.per_daemon_s) == 4
        assert startup.daemon_skew_s > 0.0
        assert startup.daemon_p50 <= startup.daemon_p95 <= startup.daemon_max
        assert startup.phase1_s > startup.daemon_max  # + attach + mirror

    def test_straggler_node_daemon_is_slowest(self):
        scenario = _multirank_spec(
            n_tasks=self.N_TASKS,
            cores_per_node=self.N_TASKS // 4,
            straggler_nodes=(2,),
            straggler_slowdown=2.0,
        )
        cluster, build = self._cluster_build()
        startup = ParallelDebugger(
            cluster, n_tasks=self.N_TASKS
        ).startup_multirank(build, cold=True, scenario=scenario)
        slowest = max(
            range(len(startup.per_daemon_s)),
            key=startup.per_daemon_s.__getitem__,
        )
        assert slowest == 2
        baseline = ParallelDebugger(
            *[self._cluster_build()[0]], n_tasks=self.N_TASKS
        )
        plain = baseline.startup_multirank(
            self._cluster_build()[1], cold=True
        )
        assert startup.daemon_skew_s > plain.daemon_skew_s

    def test_straggler_outside_job_rejected(self):
        cluster, build = self._cluster_build()
        debugger = ParallelDebugger(cluster, n_tasks=self.N_TASKS)
        with pytest.raises(Exception):
            # A valid 10-node spec's straggler, run on this 4-node cluster.
            debugger.startup_multirank(
                build,
                scenario=_multirank_spec(
                    n_tasks=10, cores_per_node=1, straggler_nodes=(9,)
                ),
            )

    def test_jitter_is_deterministic(self):
        scenario = _multirank_spec(
            n_tasks=self.N_TASKS, os_jitter_s=0.05
        )
        results = []
        for _ in range(2):
            cluster, build = self._cluster_build()
            results.append(
                ParallelDebugger(
                    cluster, n_tasks=self.N_TASKS
                ).startup_multirank(build, cold=True, scenario=scenario)
            )
        assert results[0].per_daemon_s == results[1].per_daemon_s
        assert results[0].daemon_skew_s > 0.0


class TestHomogeneousBatching:
    """Warm zero-heterogeneity jobs simulate one representative rank."""

    def test_batched_matches_unbatched_exactly(self, small_config):
        spec = _multirank_spec(small_config, n_tasks=8, warm_file_cache=True)
        batched_job = MultiRankJob(spec)
        batched = batched_job.run()
        unbatched_job = MultiRankJob(spec, batch_homogeneous=False)
        unbatched = unbatched_job.run()
        assert batched_job.rank_plan is RankPlan.ONE_RANK
        assert unbatched_job.rank_plan is RankPlan.EVERY_RANK
        assert len(batched.per_rank) == len(unbatched.per_rank) == 8
        for fast, slow in zip(batched.per_rank, unbatched.per_rank):
            assert fast.startup_s == slow.startup_s
            assert fast.import_s == slow.import_s
            assert fast.visit_s == slow.visit_s
            assert fast.mpi_s == slow.mpi_s
        assert batched.total_skew_s == 0.0

    def test_cold_jobs_never_take_the_warm_fast_path(self, small_config):
        # Cold jobs batch differently: co-resident cache-hit ranks ride a
        # per-node representative (tests/test_dist.py::TestColdBatching),
        # never the warm single-representative path.
        job = MultiRankJob(_multirank_spec(small_config, n_tasks=4))
        job.run()
        assert job.rank_plan is RankPlan.COLD_BATCH

    def test_heterogeneous_scenarios_never_batch(self, small_config):
        job = MultiRankJob(
            _multirank_spec(
                small_config, n_tasks=4, warm_file_cache=True, os_jitter_s=0.01
            )
        )
        job.run()
        assert job.rank_plan is RankPlan.EVERY_RANK

    def test_batching_keeps_sweeps_tractable(self, small_config):
        # 64 warm homogeneous ranks cost ~one rank's simulation.
        job = MultiRankJob(
            _multirank_spec(small_config, n_tasks=64, warm_file_cache=True)
        )
        report = job.run()
        assert job.rank_plan is RankPlan.ONE_RANK
        assert job.n_simulated == 1
        assert len(report.per_rank) == 64
        assert report.import_skew_s == 0.0


class TestKnobPlumbing:
    """hash_style / prelink reach the multirank engine through PynamicJob."""

    def test_prelink_reaches_the_multirank_linker(self, small_config):
        plain = PynamicJob(ScenarioSpec(
            config=small_config,
            engine="multirank",
            mode=BuildMode.LINKED,
            n_tasks=2,
            warm_file_cache=True,
        )).run()
        prelinked = PynamicJob(ScenarioSpec(
            config=small_config,
            engine="multirank",
            mode=BuildMode.LINKED,
            n_tasks=2,
            warm_file_cache=True,
            prelink=True,
        )).run()
        # prelink(8) precomputes every relocation: no lazy fixups remain.
        assert plain.per_rank[0].lazy_fixups > 0
        assert prelinked.per_rank[0].lazy_fixups == 0
        assert prelinked.visit_s < plain.visit_s

    def test_hash_style_reaches_the_multirank_build(self, small_config):
        sysv = PynamicJob(ScenarioSpec(
            config=small_config,
            engine="multirank",
            n_tasks=2,
            warm_file_cache=True,
            hash_style=HashStyle.SYSV,
        )).run()
        gnu = PynamicJob(ScenarioSpec(
            config=small_config,
            engine="multirank",
            n_tasks=2,
            warm_file_cache=True,
            hash_style=HashStyle.GNU,
        )).run()
        # The two hash walks cost differently; identical totals would
        # mean the knob never reached the resolver.
        assert gnu.total_s != sysv.total_s

    def test_analytic_engine_accepts_the_same_knobs(self, small_config):
        report = PynamicJob(ScenarioSpec(
            config=small_config,
            n_tasks=2,
            warm_file_cache=True,
            prelink=True,
            hash_style=HashStyle.GNU,
        )).run()
        assert report.per_rank is None
        assert report.total_s > 0.0
