"""The multi-rank discrete-event job engine and the parallel sweep runner."""

from dataclasses import asdict, replace

import pytest

from repro.core import presets
from repro.core.builds import BuildMode
from repro.core.job import JobReport, PynamicJob, percentile
from repro.core.multirank import MultiRankJob
from repro.errors import ConfigError
from repro.fs.nfs import NFSServer
from repro.fs.parallelfs import ParallelFileSystem
from repro.harness.sweep import SweepRunner, sweep_scenarios
from repro.machine.scheduler import EventScheduler, RankTask
from repro.scenario.spec import ENGINES, ScenarioSpec


@pytest.fixture(scope="module")
def small_config():
    return replace(presets.tiny(), n_modules=6, avg_functions=20)


def _run(config, **fields):
    spec = ScenarioSpec(config=config, engine="multirank", **fields)
    return PynamicJob(spec).run()


def _sweep(config, task_counts, runner, engine="analytic"):
    """Reports by task count for a grid of otherwise equal specs."""
    specs = [
        ScenarioSpec(config=config, engine=engine, n_tasks=n_tasks)
        for n_tasks in task_counts
    ]
    return dict(zip(task_counts, sweep_scenarios(specs, runner=runner)))


class TestDeterminism:
    def test_same_seed_identical_per_rank_reports(self, small_config):
        first = _run(small_config, n_tasks=8)
        second = _run(small_config, n_tasks=8)
        assert first.per_rank is not None and second.per_rank is not None
        for a, b in zip(first.per_rank, second.per_rank):
            assert a.startup_s == b.startup_s
            assert a.import_s == b.import_s
            assert a.visit_s == b.visit_s
            assert a.mpi_s == b.mpi_s

    def test_jittered_runs_are_reproducible(self, small_config):
        first = _run(small_config, n_tasks=8, os_jitter_s=0.05)
        second = _run(small_config, n_tasks=8, os_jitter_s=0.05)
        assert [r.total_s for r in first.per_rank] == [
            r.total_s for r in second.per_rank
        ]


class TestHomogeneity:
    def test_uniform_warm_ranks_have_zero_skew(self, small_config):
        report = _run(small_config, n_tasks=16, warm_file_cache=True)
        assert report.import_skew_s == 0.0
        assert report.total_skew_s == 0.0
        assert report.import_p95 == report.import_p50


class TestContention:
    def test_cold_import_strictly_increases_with_ranks(self):
        # One rank per node so every new rank is a new cold NFS client,
        # and enough DLL bytes that the import phase is transfer-bound
        # (the paper's regime) rather than RPC-latency-bound.
        heavy = replace(
            presets.tiny(), n_modules=8, avg_functions=60, name_length=128
        )
        previous = None
        for n_tasks in (1, 4, 16):
            report = _run(heavy, n_tasks=n_tasks, cores_per_node=1)
            if previous is not None:
                assert report.import_max > previous
            previous = report.import_max

    def test_64_rank_cold_job_reports_skew(self, small_config):
        report = _run(small_config, n_tasks=64)
        assert report.n_nodes == 8
        assert len(report.per_rank) == 64
        assert report.import_p95 > report.import_p50
        assert report.import_skew_s > 0.0

    def test_first_toucher_pays_co_resident_ranks_hit_cache(self, small_config):
        report = _run(small_config, n_tasks=8)  # one node, shared disk cache
        imports = sorted(r.import_s for r in report.per_rank)
        # Exactly one rank faults the DLLs in from NFS; the other seven
        # find them in the node's buffer cache (and, cold-batched, share
        # one representative's simulation — hence identical times).
        assert imports[-1] > 1.1 * imports[0]
        assert imports[-2] < imports[-1]
        assert len(set(imports[:-1])) == 1


class TestScenarios:
    def test_straggler_nodes_slow_their_ranks(self, small_config):
        report = _run(
            small_config,
            n_tasks=4,
            cores_per_node=2,
            warm_file_cache=True,
            straggler_nodes=(1,),
            straggler_slowdown=2.0,
        )
        fast = report.per_rank[0].visit_s  # node 0
        slow = report.per_rank[2].visit_s  # node 1, throttled
        assert slow == pytest.approx(2.0 * fast, rel=0.01)
        # Everyone waits for the stragglers at the MPI barrier.
        assert report.per_rank[0].mpi_s > report.per_rank[2].mpi_s

    def test_jitter_creates_skew_in_warm_jobs(self, small_config):
        report = _run(
            small_config,
            n_tasks=8,
            warm_file_cache=True,
            os_jitter_s=0.1,
        )
        assert report.total_skew_s > 0.0
        assert report.total_skew_s <= 0.1 + 1e-9

    def test_warm_node_mix(self, small_config):
        report = _run(
            small_config, n_tasks=4, cores_per_node=1, warm_fraction=0.5
        )
        imports = [r.import_s for r in report.per_rank]
        # Warm nodes import far faster than cold ones.
        assert min(imports) < max(imports) / 2

    def test_heterogeneous_os_profiles(self, small_config):
        report = _run(
            small_config,
            n_tasks=2,
            cores_per_node=1,
            node_os_profiles={1: "bluegene"},
        )
        # No demand paging on node 1: everything is read at map time, so
        # its rank takes no major faults afterwards.
        assert report.per_rank[1].major_fault_bytes == 0
        assert report.per_rank[0].major_fault_bytes > 0

    def test_scenario_validation(self):
        multirank = ScenarioSpec(engine="multirank", n_tasks=2)
        with pytest.raises(ConfigError, match="straggler_slowdown"):
            multirank.with_(straggler_slowdown=0.5)
        with pytest.raises(ConfigError, match="os_jitter_s"):
            multirank.with_(os_jitter_s=-1.0)
        with pytest.raises(ConfigError, match="warm_fraction"):
            multirank.with_(warm_fraction=1.5)
        with pytest.raises(ConfigError, match="outside the 1-node job"):
            multirank.with_(straggler_nodes=(5,))
        assert multirank.is_homogeneous
        assert not multirank.with_(os_jitter_s=0.1).is_homogeneous


class TestEnginesAgreeOnOneRank:
    """Both engines drive a rank through the same lifecycle
    (``repro.core.runner.rank_steps``): a 1-task job's rank 0 is the
    same report, field for field, under either engine."""

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    @pytest.mark.parametrize("mode", list(BuildMode), ids=lambda m: m.value)
    def test_rank0_is_identical(self, mode, warm):
        spec = ScenarioSpec(
            config=presets.tiny(), mode=mode, warm_file_cache=warm
        )
        analytic = PynamicJob(spec).run().rank0
        multirank = PynamicJob(spec.with_(engine="multirank")).run().rank0
        assert asdict(analytic) == asdict(multirank)


class TestEngineDispatch:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(config=presets.tiny(), engine="quantum")
        assert set(ENGINES) == {"analytic", "multirank"}

    def test_scenario_requires_multirank(self):
        with pytest.raises(ConfigError, match="requires engine='multirank'"):
            ScenarioSpec(
                config=presets.tiny(), os_jitter_s=0.1, engine="analytic"
            )
        with pytest.raises(ConfigError, match="engine='multirank'"):
            MultiRankJob(ScenarioSpec(config=presets.tiny()))

    def test_jobs_take_only_a_spec(self):
        with pytest.raises(ConfigError, match="ScenarioSpec"):
            PynamicJob(presets.tiny())

    def test_engines_label_their_reports(self, small_config):
        analytic = PynamicJob(ScenarioSpec(config=small_config, n_tasks=2)).run()
        multi = _run(small_config, n_tasks=2)
        assert analytic.engine == "analytic"
        assert analytic.per_rank is None
        assert multi.engine == "multirank"
        assert len(multi.per_rank) == 2

    def test_analytic_percentiles_collapse_to_rank0(self, small_config):
        report = PynamicJob(ScenarioSpec(config=small_config, n_tasks=4)).run()
        assert report.import_p50 == report.import_s
        assert report.import_p95 == report.import_s
        assert report.import_skew_s == 0.0


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 0) == 1.0

    def test_empty_and_out_of_range(self):
        with pytest.raises(ConfigError):
            percentile([], 50)
        with pytest.raises(ConfigError):
            percentile([1.0], 150)


class TestScheduler:
    def test_least_time_first_interleaving(self):
        order = []

        def work(label, stalls):
            clock = [0.0]

            def steps():
                for stall in stalls:
                    order.append((label, clock[0]))
                    clock[0] += stall
                    yield

            return steps(), (lambda: clock[0])

        a_steps, a_now = work("a", [5.0, 5.0])
        b_steps, b_now = work("b", [1.0, 1.0, 1.0])
        scheduler = EventScheduler()
        scheduler.run(
            [RankTask(0, a_steps, a_now), RankTask(1, b_steps, b_now)]
        )
        # "b" stays behind "a" in virtual time, so it runs its later
        # steps before "a" runs its second one.
        assert order == [
            ("a", 0.0),
            ("b", 0.0),
            ("b", 1.0),
            ("b", 2.0),
            ("a", 5.0),
        ]
        assert scheduler.tasks_completed == 2

    def test_empty_task_list_rejected(self):
        with pytest.raises(ConfigError):
            EventScheduler().run([])


class TestTimedQueues:
    def test_nfs_fifo_serializes_concurrent_reads(self):
        nfs = NFSServer(bandwidth_bps=1e6, latency_s=0.0)
        first = nfs.request_at(0.0, 1_000_000)
        second = nfs.request_at(0.0, 1_000_000)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_nfs_idle_request_matches_analytic(self):
        timed = NFSServer()
        analytic = NFSServer()
        duration = timed.request_at(5.0, 4096, n_ops=2) - 5.0
        assert duration == pytest.approx(analytic.read_seconds(4096, n_ops=2))

    def test_nfs_reset_queue(self):
        nfs = NFSServer(bandwidth_bps=1e6, latency_s=0.0)
        nfs.request_at(0.0, 1_000_000)
        nfs.reset_queue()
        assert nfs.request_at(0.0, 1_000_000) == pytest.approx(1.0)

    def test_pfs_stripes_across_targets(self):
        # iops_limit=None isolates the striped-transfer behaviour from
        # the RPC-saturation term (exercised in TestIopsSaturation).
        pfs = ParallelFileSystem(
            aggregate_bandwidth_bps=2e6, latency_s=0.0, n_targets=2,
            iops_limit=None,
        )
        # Two concurrent clients land on distinct targets: no queueing.
        assert pfs.request_at(0.0, 1_000_000) == pytest.approx(1.0)
        assert pfs.request_at(0.0, 1_000_000) == pytest.approx(1.0)
        # A third queues behind one of them.
        assert pfs.request_at(0.0, 1_000_000) == pytest.approx(2.0)


class TestSweepRunner:
    def test_parallel_matches_sequential(self, small_config):
        parallel = _sweep(small_config, [2, 4], SweepRunner(workers=2))
        sequential = _sweep(small_config, [2, 4], SweepRunner(workers=1))
        for n_tasks in (2, 4):
            assert parallel[n_tasks].import_s == sequential[n_tasks].import_s
            assert parallel[n_tasks].total_s == sequential[n_tasks].total_s

    def test_memoizes_per_config(self, small_config):
        runner = SweepRunner(workers=1)
        _sweep(small_config, [2, 4], runner)
        assert (runner.hits, runner.misses) == (0, 2)
        _sweep(small_config, [2, 4], runner)
        assert (runner.hits, runner.misses) == (2, 2)
        # A different grid point is a miss, shared points hit.
        _sweep(small_config, [2, 8], runner)
        assert (runner.hits, runner.misses) == (3, 3)

    def test_multirank_reports_survive_the_pool(self, small_config):
        reports = _sweep(
            small_config, [4], SweepRunner(workers=2), engine="multirank"
        )
        report = reports[4]
        assert isinstance(report, JobReport)
        assert report.engine == "multirank"
        assert len(report.per_rank) == 4

    def test_worker_validation(self):
        with pytest.raises(ConfigError):
            SweepRunner(workers=0)

    def test_disk_cache_survives_processes(self, small_config, tmp_path):
        first = SweepRunner(workers=1, cache_dir=tmp_path)
        computed = _sweep(small_config, [2], first)
        assert (first.hits, first.misses) == (0, 1)
        # A fresh runner models a fresh process/CI run: the memo dict is
        # empty but the disk layer replays the result.
        second = SweepRunner(workers=1, cache_dir=tmp_path)
        replayed = _sweep(small_config, [2], second)
        assert (second.hits, second.misses) == (1, 0)
        assert replayed[2].total_s == computed[2].total_s
        assert replayed[2].import_s == computed[2].import_s

    def test_disk_cache_distinguishes_points(self, small_config, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        _sweep(small_config, [2], runner)
        fresh = SweepRunner(workers=1, cache_dir=tmp_path)
        _sweep(small_config, [4], fresh)
        assert (fresh.hits, fresh.misses) == (0, 1)

    def test_disk_cache_tolerates_corruption(self, small_config, tmp_path):
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        _sweep(small_config, [2], runner)
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"not a pickle")
        fresh = SweepRunner(workers=1, cache_dir=tmp_path)
        reports = _sweep(small_config, [2], fresh)
        assert fresh.misses == 1  # recomputed, not crashed
        assert fresh.corrupt == 1  # and the poisoned file is counted
        assert reports[2].total_s > 0.0


class TestModeParity:
    @pytest.mark.parametrize(
        "mode", [BuildMode.LINKED, BuildMode.LINKED_BIND_NOW]
    )
    def test_build_modes_run_under_the_engine(self, small_config, mode):
        report = _run(small_config, n_tasks=2, warm_file_cache=True, mode=mode)
        assert report.per_rank[0].mode == mode.value
        if mode is BuildMode.LINKED_BIND_NOW:
            assert report.per_rank[0].lazy_fixups == 0
