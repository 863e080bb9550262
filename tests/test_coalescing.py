"""Event coalescing: representative tasks with multiplicity counts.

The multi-rank engine collapses each node's co-resident ranks into
representative tasks whenever no per-rank heterogeneity knob is active
(``MultiRankJob._plan_ranks``).  The collapse has two regimes with
different guarantees, and these tests pin both:

- **warm nodes are exact** — every read hits the resident cache, so one
  representative reproduces the unbatched run field-for-field, even with
  a straggler clock on the node;
- **cold nodes are a conservative approximation** — all demand faults
  are charged to the first toucher instead of being spread across
  co-resident ranks the way an unbatched run spreads them, so the
  coalesced job bounds the unbatched makespan from above and stays
  within a small factor of it.

The engine statistics the optimization motivates (``EngineStats`` on the
``JobReport``, the scheduler's multiplicity-weighted rank accounting)
are pinned alongside.
"""

from dataclasses import replace

import pytest

from repro.core import presets
from repro.core.job import PynamicJob
from repro.core.multirank import MultiRankJob, RankPlan
from repro.errors import ConfigError
from repro.machine.scheduler import EventScheduler, RankTask
from repro.scenario.spec import ScenarioSpec


@pytest.fixture(scope="module")
def small_config():
    return replace(presets.tiny(), n_modules=6, avg_functions=20)


def _spec(config, **fields):
    return ScenarioSpec(config=config, engine="multirank", **fields)


def _report_fields(report):
    return [
        (
            rank.startup_s,
            rank.import_s,
            rank.visit_s,
            rank.mpi_s,
            rank.modules_imported,
            rank.functions_visited,
            rank.lazy_fixups,
        )
        for rank in report.per_rank
    ]


def _makespan(report):
    return max(
        rank.startup_s + rank.import_s + rank.visit_s + rank.mpi_s
        for rank in report.per_rank
    )


class TestWarmNodeExactness:
    """All-warm-node jobs coalesce without changing a single field."""

    def test_warm_nodes_match_unbatched_exactly(self, small_config):
        # Warm via the per-node scenario knob (not warm_file_cache), so
        # the job takes the unified coalescing branch, one
        # representative per node, rather than the warm single-rep path.
        spec = _spec(
            small_config, n_tasks=8, cores_per_node=4, warm_nodes=(0, 1)
        )
        fast_job = MultiRankJob(spec)
        fast = fast_job.run()
        slow_job = MultiRankJob(spec, batch_homogeneous=False)
        slow = slow_job.run()
        assert fast_job.rank_plan is RankPlan.PER_NODE
        assert slow_job.rank_plan is RankPlan.EVERY_RANK
        assert fast_job.n_simulated == 2 and slow_job.n_simulated == 8
        assert _report_fields(fast) == _report_fields(slow)

    def test_warm_straggler_node_stays_exact(self, small_config):
        spec = _spec(
            small_config,
            n_tasks=8,
            cores_per_node=4,
            warm_nodes=(0, 1),
            straggler_nodes=(0,),
            straggler_slowdown=2.0,
        )
        fast_job = MultiRankJob(spec)
        fast = fast_job.run()
        slow = MultiRankJob(spec, batch_homogeneous=False).run()
        assert fast_job.rank_plan is RankPlan.PER_NODE
        assert _report_fields(fast) == _report_fields(slow)
        # The throttled node really is slower than its peer.
        assert fast.per_rank[0].import_s > fast.per_rank[4].import_s


class TestColdApproximation:
    """Cold collapses bound the unbatched job from above, tightly."""

    def test_cold_coalescing_is_a_tight_upper_bound(self, small_config):
        spec = _spec(small_config, n_tasks=8, cores_per_node=4)
        fast = MultiRankJob(spec)
        fast_report = fast.run()
        slow = MultiRankJob(spec, batch_homogeneous=False)
        slow_report = slow.run()
        assert fast.rank_plan is RankPlan.COLD_BATCH
        assert slow.rank_plan is RankPlan.EVERY_RANK
        assert fast.n_simulated == 4 and slow.n_simulated == 8
        # Serializing every fault onto the toucher can only slow the
        # job down, and the measured gap stays small (~5-10%).
        assert _makespan(fast_report) >= _makespan(slow_report)
        assert _makespan(fast_report) <= 1.2 * _makespan(slow_report)

    def test_warm_cold_mix_bound_and_warm_node_hits(self, small_config):
        spec = _spec(small_config, n_tasks=12, cores_per_node=4, warm_nodes=(1,))
        fast_job = MultiRankJob(spec)
        fast = fast_job.run()
        slow = MultiRankJob(spec, batch_homogeneous=False).run()
        assert fast_job.rank_plan is RankPlan.PER_NODE
        # Cold nodes simulate toucher + hitter, the warm node one rep.
        assert fast_job.n_simulated == 5
        assert _makespan(fast) >= _makespan(slow)
        assert _makespan(fast) <= 1.2 * _makespan(slow)
        # The warm node's ranks never fault, so they import faster than
        # any cold toucher.
        warm_rank = fast.per_rank[4]
        assert warm_rank.import_s < fast.per_rank[0].import_s
        assert all(r is warm_rank for r in fast.per_rank[4:8])

    def test_jitter_disables_coalescing(self, small_config):
        job = MultiRankJob(
            _spec(small_config, n_tasks=8, cores_per_node=4, os_jitter_s=0.01)
        )
        job.run()
        assert job.rank_plan is RankPlan.EVERY_RANK
        assert job.n_simulated == 8


class TestEngineStats:
    """The JobReport exposes what the engine actually stepped."""

    def test_multirank_report_carries_stats(self, small_config):
        job = MultiRankJob(_spec(small_config, n_tasks=8, cores_per_node=4))
        report = job.run()
        stats = report.engine_stats
        assert stats is not None
        assert stats.ranks_simulated + stats.ranks_coalesced == 8
        assert stats.ranks_simulated == job.n_simulated
        assert stats.scheduler_steps > 0
        assert stats.tasks_completed == job.n_simulated
        # Shared-FS timelines were exercised and merged windows stay
        # bounded by what was booked.
        assert stats.nfs_timeline_bookings >= stats.nfs_timeline_windows
        assert stats.nfs_timeline_bookings > 0

    def test_cold_eight_ranks_on_four_core_nodes_step_four(self):
        # Each cold node steps its first toucher and one cache-hit
        # representative, so half of the 8 ranks ride multiplicity.
        spec = ScenarioSpec(
            config=presets.tiny(), engine="multirank", n_tasks=8,
            cores_per_node=4,
        )
        job = MultiRankJob(spec)
        stats = job.run().engine_stats
        assert job.rank_plan is RankPlan.COLD_BATCH
        assert stats.ranks_simulated == 4
        assert stats.ranks_coalesced == 4

    def test_analytic_report_has_no_stats(self, small_config):
        report = PynamicJob(ScenarioSpec(config=small_config)).run()
        assert report.engine_stats is None


class TestSchedulerAccounting:
    """Counters accumulate across runs; multiplicity weighs ranks."""

    @staticmethod
    def _tasks(n_tasks, multiplicity=1):
        def make(rank):
            state = [float(rank)]

            def steps():
                for _ in range(3):
                    state[0] += 1.0
                    yield

            return RankTask(
                rank, steps(), lambda: state[0], multiplicity=multiplicity
            )

        return [make(rank) for rank in range(n_tasks)]

    def test_multiplicity_weighs_ranks_completed(self):
        scheduler = EventScheduler()
        scheduler.run(self._tasks(4, multiplicity=5))
        assert scheduler.tasks_completed == 4
        assert scheduler.ranks_completed == 20
        assert scheduler.steps_run == 4 * 4

    def test_counters_accumulate_until_reset(self):
        scheduler = EventScheduler()
        scheduler.run(self._tasks(2))
        scheduler.run(self._tasks(2))
        assert scheduler.tasks_completed == 4
        scheduler.reset_stats()
        assert (
            scheduler.steps_run
            == scheduler.tasks_completed
            == scheduler.ranks_completed
            == 0
        )

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(ConfigError):
            RankTask(0, iter(()), lambda: 0.0, multiplicity=0)
