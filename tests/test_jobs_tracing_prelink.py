"""N-task jobs, linker event tracing, and prelink support."""

from dataclasses import replace

import pytest

from repro.core import presets
from repro.core.builds import BuildMode
from repro.core.job import PynamicJob
from repro.core.runner import BenchmarkRunner
from repro.errors import ConfigError
from repro.harness.sweep import SweepRunner, sweep_scenarios
from repro.perf.tracing import EventKind, EventTrace
from repro.scenario.spec import ScenarioSpec


def _job(config=None, **fields):
    return PynamicJob(ScenarioSpec(config=config or presets.tiny(), **fields))


class TestPynamicJob:
    def test_node_sizing(self):
        assert _job(n_tasks=8).n_nodes == 1
        assert _job(n_tasks=9).n_nodes == 2
        assert _job(n_tasks=256).n_nodes == 32

    def test_needs_a_task(self):
        with pytest.raises(ConfigError):
            _job(n_tasks=0)

    def test_cold_import_grows_with_tasks(self):
        config = replace(presets.tiny(), n_modules=6, avg_functions=20)
        small = _job(config, n_tasks=8).run()
        big = _job(config, n_tasks=128).run()
        assert big.import_s > small.import_s

    def test_warm_jobs_insensitive_to_scale(self):
        config = replace(presets.tiny(), n_modules=6, avg_functions=20)
        small = _job(config, n_tasks=8, warm_file_cache=True).run()
        big = _job(config, n_tasks=128, warm_file_cache=True).run()
        # Warm: no NFS traffic, so import time is scale-independent; only
        # the MPI test grows (log2 of the task count).
        assert big.import_s == pytest.approx(small.import_s, rel=0.02)
        assert big.mpi_s > small.mpi_s

    def test_mpi_test_scales_with_tasks(self, tiny_config):
        small = _job(tiny_config, n_tasks=4).run()
        big = _job(tiny_config, n_tasks=64).run()
        assert big.mpi_s > small.mpi_s

    def test_sweep_covers_all_counts(self):
        config = replace(presets.tiny(), n_modules=4, avg_functions=10)
        specs = [ScenarioSpec(config=config, n_tasks=n) for n in (2, 16)]
        reports = sweep_scenarios(specs, runner=SweepRunner(workers=1))
        assert [report.n_tasks for report in reports] == [2, 16]

    def test_nfs_concurrency_restored(self):
        config = replace(presets.tiny(), n_modules=4, avg_functions=10)
        job = _job(config, n_tasks=64)
        job.run()
        # The job resets the server's contention state afterwards.
        # (A fresh cluster is made per job; smoke-check the API contract.)
        assert job.n_nodes == 8


class TestEventTrace:
    def _traced_run(self, mode=BuildMode.VANILLA, **kwargs):
        trace = EventTrace()
        runner = BenchmarkRunner(
            config=presets.tiny(), mode=mode, trace=trace, **kwargs
        )
        runner.run()
        return trace

    def test_records_maps_and_dlopens(self):
        trace = self._traced_run()
        assert trace.count(EventKind.MAP) > 0
        # Every module import is one dlopen; cross-module DT_NEEDED edges
        # may have pulled a module in early, making its import a re-open.
        total_dlopens = trace.count(EventKind.DLOPEN_NEW) + trace.count(
            EventKind.DLOPEN_EXISTING
        )
        assert total_dlopens == presets.tiny().n_modules
        assert trace.count(EventKind.DLSYM) == presets.tiny().n_modules

    def test_timestamps_monotone(self):
        trace = self._traced_run()
        assert trace.is_monotone()

    def test_linked_mode_traces_reopens_and_fixups(self):
        trace = self._traced_run(mode=BuildMode.LINKED)
        assert trace.count(EventKind.DLOPEN_EXISTING) == presets.tiny().n_modules
        assert trace.count(EventKind.LAZY_FIXUP) > 0

    def test_bind_now_has_no_lazy_fixups_in_trace(self):
        trace = self._traced_run(mode=BuildMode.LINKED_BIND_NOW)
        assert trace.count(EventKind.LAZY_FIXUP) == 0

    def test_subjects_are_sonames(self):
        trace = self._traced_run()
        subjects = trace.subjects(EventKind.DLOPEN_NEW)
        assert all(name.startswith("libmodule_") for name in subjects)

    def test_render_and_truncation(self):
        trace = self._traced_run()
        text = trace.render(limit=5)
        assert "more events" in text
        assert len(text.splitlines()) == 6

    def test_max_events_cap(self):
        trace = EventTrace(max_events=3)
        for i in range(10):
            trace.record(float(i), EventKind.MAP, f"lib{i}.so")
        assert len(trace) == 3

    def test_by_kind_filter(self):
        trace = self._traced_run()
        maps = trace.by_kind(EventKind.MAP)
        assert all(event.kind is EventKind.MAP for event in maps)


class TestPrelink:
    def test_prelink_eliminates_lazy_fixups(self, tiny_spec):
        report = BenchmarkRunner(
            spec=tiny_spec, mode=BuildMode.LINKED, prelink=True
        ).run().report
        assert report.lazy_fixups == 0

    def test_prelink_visit_as_fast_as_bind_now(self, tiny_spec):
        prelinked = BenchmarkRunner(
            spec=tiny_spec, mode=BuildMode.LINKED, prelink=True
        ).run().report
        bound = BenchmarkRunner(
            spec=tiny_spec, mode=BuildMode.LINKED_BIND_NOW
        ).run().report
        assert prelinked.visit_s == pytest.approx(bound.visit_s, rel=0.1)

    def test_prelink_startup_cheaper_than_bind_now(self):
        config = replace(presets.tiny(), n_modules=10, avg_functions=40)
        prelinked = BenchmarkRunner(
            config=config, mode=BuildMode.LINKED, prelink=True
        ).run()
        bound = BenchmarkRunner(
            config=config, mode=BuildMode.LINKED_BIND_NOW
        ).run()
        assert prelinked.report.startup_s < bound.report.startup_s
        assert prelinked.linker.prelink_verifications > 0

    def test_prelink_works_for_vanilla_dlopens_too(self, tiny_spec):
        report = BenchmarkRunner(
            spec=tiny_spec, mode=BuildMode.VANILLA, prelink=True
        ).run().report
        assert report.lazy_fixups == 0
        assert report.eager_plt_resolutions == 0  # nothing left to resolve


class TestNewExperimentRegistration:
    def test_registered(self):
        from repro.harness.experiments import all_experiment_names

        names = all_experiment_names()
        assert "ablation_prelink" in names
        assert "job_scaling" in names

    def test_prelink_experiment_metrics(self):
        from repro.harness.experiments import run_experiment

        result = run_experiment("ablation_prelink")
        assert result.metrics["prelink_visit_over_lazy"] < 0.5
        assert result.metrics["prelink_startup_over_bindnow"] < 1.0
