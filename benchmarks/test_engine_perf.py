"""Pins the engine hot-path speedups so they cannot silently regress.

The headline acceptance number — the :class:`ReservationTimeline`
reserves >= 10x faster than the legacy O(n) list at 10k-window
timelines — is asserted directly against :mod:`repro.perf.bench` (the
measured ratio is ~200x, so the 10x floor survives even a pathological
CI runner).  The smoke-size ``engine_perf`` experiment is run once for
its structure: every metric the README's perf section documents must be
present, and the end-to-end cell must show the coalescer actually
collapsing co-resident cold ranks.
"""

import pytest

from repro.harness.experiments import run_experiment
from repro.perf.bench import (
    bench_earliest_gap,
    bench_reserve,
    bench_scheduler,
)


@pytest.fixture(scope="module")
def perf_result():
    return run_experiment("engine_perf", smoke=True)


def test_reserve_10x_at_10k_windows():
    results = bench_reserve(10_000, n_ops=128, repeats=3)
    speedup = results["timeline"].ops_per_sec / results["legacy"].ops_per_sec
    assert speedup >= 10.0, f"reserve speedup collapsed to {speedup:.1f}x"


def test_earliest_gap_prunes_oversized_requests():
    # A service no interior hole can fit: legacy walks all 10k windows,
    # the suffix-max metadata resolves it in one pruned hop.
    results = bench_earliest_gap(10_000, n_ops=128, repeats=3)
    speedup = results["timeline"].ops_per_sec / results["legacy"].ops_per_sec
    assert speedup >= 10.0, f"gap-search speedup collapsed to {speedup:.1f}x"


def test_both_implementations_place_identically():
    # The benchmark is only meaningful while the two implementations do
    # the same work: replay one workload through both and compare.
    from repro.fs.reservation import legacy_reserve
    from repro.perf.bench import _arrivals, _build_legacy, _build_timeline

    timeline = _build_timeline(512)
    windows = _build_legacy(512)
    for arrival in _arrivals(96, 512):
        assert timeline.reserve(arrival, 0.25) == legacy_reserve(
            windows, arrival, 0.25
        )


def test_scheduler_benchmark_counts_every_step():
    result = bench_scheduler(n_tasks=16, n_steps=8, repeats=2)
    # One resumption per yield plus the final StopIteration step each.
    assert result.ops == 16 * (8 + 1)


def test_experiment_emits_documented_metrics(perf_result):
    for size in (64, 256):
        assert perf_result.metrics[f"reserve_speedup[{size}]"] > 1.0
        assert perf_result.metrics[f"reserve_ops_per_s[timeline][{size}]"] > 0
    assert perf_result.metrics["scheduler_steps_per_s"] > 0
    assert perf_result.metrics["job_wall_s"] > 0


def test_end_to_end_cell_exercises_coalescing(perf_result):
    # 8 ranks on 4-core nodes: each cold node steps a first-toucher and
    # one cache-hit representative, so half the ranks ride multiplicity.
    assert perf_result.metrics["job_ranks_simulated"] == 4.0
    assert perf_result.metrics["job_ranks_coalesced"] == 4.0
