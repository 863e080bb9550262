"""Integration: the paper's qualitative results hold on a mid-size run.

These are the structural assertions of Tables I, II and IV at a scale
small enough for the unit-test suite (the benchmarks run the full-size
versions).
"""

import pytest

from repro.core.builds import BuildMode, build_benchmark
from repro.core.config import PynamicConfig
from repro.core.generator import generate
from repro.core.job import PynamicJob
from repro.machine.cluster import Cluster
from repro.scenario import ScenarioSpec, simulate
from repro.tools.debugger import ParallelDebugger


@pytest.fixture(scope="module")
def mid_results():
    config = PynamicConfig(
        n_modules=16,
        n_utilities=12,
        avg_functions=60,
        seed=99,
        name_length=64,
        avg_body_instructions=60,
    )
    return {
        mode: simulate(
            ScenarioSpec(config=config, mode=mode, warm_file_cache=True)
        ).rank0
        for mode in BuildMode
    }


class TestTable1Shape:
    def test_prelink_speeds_up_import(self, mid_results):
        vanilla = mid_results[BuildMode.VANILLA]
        link = mid_results[BuildMode.LINKED]
        assert vanilla.import_s / link.import_s > 1.5

    def test_lazy_binding_slows_down_visit(self, mid_results):
        vanilla = mid_results[BuildMode.VANILLA]
        link = mid_results[BuildMode.LINKED]
        assert link.visit_s / vanilla.visit_s > 3.0

    def test_bind_now_moves_cost_to_startup(self, mid_results):
        link = mid_results[BuildMode.LINKED]
        bind = mid_results[BuildMode.LINKED_BIND_NOW]
        assert bind.startup_s > link.startup_s
        # And restores the fast visit.
        assert bind.visit_s == pytest.approx(
            mid_results[BuildMode.VANILLA].visit_s, rel=0.35
        )

    def test_startup_ordering(self, mid_results):
        vanilla = mid_results[BuildMode.VANILLA]
        link = mid_results[BuildMode.LINKED]
        bind = mid_results[BuildMode.LINKED_BIND_NOW]
        assert vanilla.startup_s <= link.startup_s < bind.startup_s

    def test_bind_import_close_to_link_import(self, mid_results):
        link = mid_results[BuildMode.LINKED]
        bind = mid_results[BuildMode.LINKED_BIND_NOW]
        assert bind.import_s == pytest.approx(link.import_s, rel=0.2)


class TestTable2Shape:
    def test_visit_dcache_explosion_only_when_lazy(self, mid_results):
        vanilla = mid_results[BuildMode.VANILLA].counters["visit"]
        link = mid_results[BuildMode.LINKED].counters["visit"]
        bind = mid_results[BuildMode.LINKED_BIND_NOW].counters["visit"]
        assert link.l1d_misses / max(1, vanilla.l1d_misses) > 50
        assert bind.l1d_misses == pytest.approx(vanilla.l1d_misses, rel=0.3)

    def test_import_is_data_miss_dominated(self, mid_results):
        counters = mid_results[BuildMode.VANILLA].counters["import"]
        assert counters.l1d_misses > 100 * max(1, counters.l1i_misses)

    def test_instruction_misses_stable_across_builds(self, mid_results):
        vanilla = mid_results[BuildMode.VANILLA].counters["visit"]
        link = mid_results[BuildMode.LINKED].counters["visit"]
        assert link.l1i_misses == pytest.approx(vanilla.l1i_misses, rel=0.2)

    def test_vanilla_import_misses_exceed_link_import(self, mid_results):
        vanilla = mid_results[BuildMode.VANILLA].counters["import"]
        link = mid_results[BuildMode.LINKED].counters["import"]
        assert vanilla.l1d_misses > link.l1d_misses


class TestEngineGolden:
    """Golden agreement between the analytic fast path and the
    multi-rank discrete-event engine, so the old Table I/II job numbers
    cannot silently drift when either engine changes."""

    CONFIG = PynamicConfig(
        n_modules=6,
        n_utilities=3,
        avg_functions=20,
        seed=7,
        name_length=0,
        avg_body_instructions=40,
    )

    def _pair(self, **fields):
        spec = ScenarioSpec(config=self.CONFIG, **fields)
        analytic = PynamicJob(spec).run()
        multirank = PynamicJob(spec.with_(engine="multirank")).run()
        return analytic, multirank

    def test_warm_single_rank_matches_within_1_percent(self):
        analytic, multirank = self._pair(n_tasks=1, warm_file_cache=True)
        for attr in ("startup_s", "import_s", "visit_s", "mpi_s", "total_s"):
            assert getattr(multirank, attr) == pytest.approx(
                getattr(analytic, attr), rel=0.01
            ), attr

    def test_cold_single_rank_matches_within_1_percent(self):
        analytic, multirank = self._pair(n_tasks=1)
        for attr in ("startup_s", "import_s", "visit_s", "total_s"):
            assert getattr(multirank, attr) == pytest.approx(
                getattr(analytic, attr), rel=0.01
            ), attr

    @pytest.mark.parametrize("n_tasks", [2, 4])
    def test_small_cold_jobs_agree_in_envelope(self, n_tasks):
        analytic, multirank = self._pair(n_tasks=n_tasks, cores_per_node=1)
        # Job completion (slowest rank) stays close to the analytic
        # closed form; the per-phase split may differ because queueing
        # emerges in whichever phase the contention actually lands.
        assert multirank.total_max == pytest.approx(analytic.total_s, rel=0.15)
        assert multirank.import_max == pytest.approx(analytic.import_s, rel=0.5)

    def test_warm_jobs_agree_at_any_scale(self):
        analytic, multirank = self._pair(n_tasks=16, warm_file_cache=True)
        # Warm caches mean no shared-resource traffic: the engines must
        # agree on import/visit exactly and on totals up to MPI skew.
        assert multirank.import_s == pytest.approx(analytic.import_s, rel=0.01)
        assert multirank.visit_s == pytest.approx(analytic.visit_s, rel=0.01)
        assert multirank.import_skew_s == 0.0


class TestTable4Shape:
    def test_cold_warm_structure(self, tiny_spec):
        cluster = Cluster(n_nodes=2)
        build = build_benchmark(tiny_spec, cluster.nfs, BuildMode.LINKED)
        for image in build.images.values():
            cluster.file_store.add(image)
        cold = ParallelDebugger(cluster, n_tasks=8).startup(build, cold=True)
        warm = ParallelDebugger(cluster, n_tasks=8).startup(build, cold=False)
        assert cold.total_s > warm.total_s
        assert cold.phase1_s > warm.phase1_s
        assert cold.phase2_s == pytest.approx(warm.phase2_s, rel=0.05)
