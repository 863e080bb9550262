"""The parallel sweep runner vs. the sequential reference loop."""

import os
import time
from dataclasses import replace

import pytest

from repro.core import presets
from repro.core.job import PynamicJob
from repro.harness.sweep import SweepRunner, sweep_scenarios
from repro.scenario.spec import ScenarioSpec

TASK_COUNTS = [8, 32, 64, 128]


@pytest.fixture(scope="module")
def grid_config():
    return replace(presets.tiny(), n_modules=8, n_utilities=6, avg_functions=30)


def _grid(config, counts, engine="analytic"):
    return [
        ScenarioSpec(config=config, engine=engine, n_tasks=n_tasks)
        for n_tasks in counts
    ]


def _sequential(specs):
    """The reference loop: one job after another, no pool, no memo."""
    return [PynamicJob(spec).run() for spec in specs]


def test_parallel_sweep_matches_sequential(grid_config):
    specs = _grid(grid_config, TASK_COUNTS)
    parallel = sweep_scenarios(specs, runner=SweepRunner(workers=4))
    sequential = _sequential(specs)
    for fast, slow in zip(parallel, sequential):
        assert fast.import_s == slow.import_s
        assert fast.total_s == slow.total_s


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="needs >= 4 cores to show a speedup"
)
def test_four_workers_beat_the_sequential_loop(grid_config, benchmark):
    # The multi-rank grid is the expensive one: simulate every rank.
    specs = _grid(grid_config, [16, 32, 48, 64], engine="multirank")

    started = time.perf_counter()
    sequential = _sequential(specs)
    sequential_s = time.perf_counter() - started

    def parallel_sweep():
        return sweep_scenarios(specs, runner=SweepRunner(workers=4))

    parallel = benchmark.pedantic(parallel_sweep, rounds=1, iterations=1)
    parallel_s = benchmark.stats.stats.mean
    print(f"\nsequential {sequential_s:.2f}s, 4 workers {parallel_s:.2f}s")
    assert parallel_s < sequential_s
    for fast, slow in zip(parallel, sequential):
        assert fast.import_s == slow.import_s
