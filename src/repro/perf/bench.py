"""Pinned microbenchmarks for the engine hot path.

The ROADMAP's "engine raw speed" item only stays won if it is measured:
these benchmarks time the reservation-timeline operations
(:meth:`ReservationTimeline.reserve`, :meth:`~ReservationTimeline.earliest_gap`)
against the ``legacy_*`` O(n) list implementation they replaced, and the
:class:`EventScheduler` pop/step/push cycle, at several timeline sizes.
The ``engine_perf`` harness experiment wraps them into ``BENCH_engine.json``
(tier-2 CI), and ``benchmarks/test_engine_perf.py`` pins the headline
ratio — >= 10x reserve throughput at 10k-window timelines — so a future
regression of the data structure fails the suite instead of silently
restoring the quadratic inner loop.

Workloads are fully deterministic (a fixed multiplicative stride stands
in for random arrivals) and every trial rebuilds its structures outside
the timed region, so the numbers compare data structures, not allocator
luck.  Wall-clock noise is tamed by taking the best of ``repeats``
trials — the standard microbenchmark estimator for a minimum-latency
quantity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.fs.reservation import (
    ReservationTimeline,
    legacy_earliest_gap,
    legacy_reserve,
)
from repro.machine.scheduler import EventScheduler, RankTask

#: Free hole between consecutive prebuilt windows (seconds).
_HOLE_S = 1.0
#: Knuth's multiplicative-hash constant: a cheap deterministic scatter.
_STRIDE = 2654435761


@dataclass(frozen=True)
class BenchResult:
    """One timed measurement: ``ops`` operations in ``seconds``."""

    name: str
    impl: str
    size: int
    ops: int
    seconds: float

    @property
    def ops_per_sec(self) -> float:
        if self.seconds <= 0.0:
            return float("inf")
        return self.ops / self.seconds

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "impl": self.impl,
            "size": self.size,
            "ops": self.ops,
            "seconds": self.seconds,
            "ops_per_sec": self.ops_per_sec,
        }


def _build_timeline(size: int) -> ReservationTimeline:
    """A timeline of ``size`` disjoint windows with 1 s holes between."""
    timeline = ReservationTimeline()
    for i in range(size):
        timeline.book(2.0 * _HOLE_S * i, _HOLE_S)
    return timeline


def _build_legacy(size: int) -> list[tuple[float, float]]:
    """The same prebuilt windows as a legacy reservation list."""
    return [
        (2.0 * _HOLE_S * i, 2.0 * _HOLE_S * i + _HOLE_S) for i in range(size)
    ]


def _arrivals(n_ops: int, size: int) -> list[float]:
    """Deterministic arrivals scattered across the prebuilt horizon."""
    span = max(2 * size, 1)
    return [float((i * _STRIDE) % span) for i in range(n_ops)]


def _best_of(trials: list[float]) -> float:
    return min(trials)


def bench_reserve(
    size: int, n_ops: int = 256, repeats: int = 3
) -> dict[str, BenchResult]:
    """Time ``reserve`` (search + book) against a ``size``-window timeline.

    Arrivals scatter across the whole horizon and each service fits the
    interior holes, so the legacy implementation pays its O(n) scan on
    most operations while the timeline bisects.  Returns
    ``{"timeline": ..., "legacy": ...}``.
    """
    if size < 0 or n_ops < 1 or repeats < 1:
        raise ConfigError("benchmark sizes must be positive")
    arrivals = _arrivals(n_ops, size)
    service = _HOLE_S / 4.0

    timeline_trials = []
    for _ in range(repeats):
        timeline = _build_timeline(size)
        reserve = timeline.reserve
        begin = time.perf_counter()
        for arrival in arrivals:
            reserve(arrival, service)
        timeline_trials.append(time.perf_counter() - begin)

    legacy_trials = []
    for _ in range(repeats):
        windows = _build_legacy(size)
        begin = time.perf_counter()
        for arrival in arrivals:
            legacy_reserve(windows, arrival, service)
        legacy_trials.append(time.perf_counter() - begin)

    return {
        "timeline": BenchResult(
            "reserve", "timeline", size, n_ops, _best_of(timeline_trials)
        ),
        "legacy": BenchResult(
            "reserve", "legacy", size, n_ops, _best_of(legacy_trials)
        ),
    }


def bench_earliest_gap(
    size: int, n_ops: int = 256, repeats: int = 3
) -> dict[str, BenchResult]:
    """Time the non-mutating gap search with a service no hole can fit.

    This is the timeline's worst case turned best case: the legacy scan
    walks every window before falling off the tail, while the suffix-max
    metadata resolves the query in one pruned hop.
    """
    if size < 0 or n_ops < 1 or repeats < 1:
        raise ConfigError("benchmark sizes must be positive")
    arrivals = _arrivals(n_ops, size)
    service = 2.0 * _HOLE_S  # larger than every interior hole

    timeline = _build_timeline(size)
    gap = timeline.earliest_gap
    timeline_trials = []
    for _ in range(repeats):
        begin = time.perf_counter()
        for arrival in arrivals:
            gap(arrival, service)
        timeline_trials.append(time.perf_counter() - begin)

    windows = _build_legacy(size)
    legacy_trials = []
    for _ in range(repeats):
        begin = time.perf_counter()
        for arrival in arrivals:
            legacy_earliest_gap(windows, arrival, service)
        legacy_trials.append(time.perf_counter() - begin)

    return {
        "timeline": BenchResult(
            "earliest_gap", "timeline", size, n_ops, _best_of(timeline_trials)
        ),
        "legacy": BenchResult(
            "earliest_gap", "legacy", size, n_ops, _best_of(legacy_trials)
        ),
    }


def _counting_tasks(n_tasks: int, n_steps: int) -> list[RankTask]:
    """Tasks that advance a private virtual clock by 1 s per step."""

    def make(rank: int) -> RankTask:
        state = [float(rank) * 1e-6]

        def steps():
            advance = state
            for _ in range(n_steps):
                advance[0] += 1.0
                yield

        return RankTask(rank, steps(), lambda: state[0])

    return [make(rank) for rank in range(n_tasks)]


def bench_scheduler(
    n_tasks: int = 256, n_steps: int = 64, repeats: int = 3
) -> BenchResult:
    """Time the scheduler's pop/step/push cycle over trivial tasks.

    The step bodies do almost nothing, so the measured rate is the
    scheduling overhead itself — the fixed cost every simulated rank
    step pays on top of its model work.
    """
    if n_tasks < 1 or n_steps < 1 or repeats < 1:
        raise ConfigError("benchmark sizes must be positive")
    trials = []
    ops = 0
    for _ in range(repeats):
        scheduler = EventScheduler()
        tasks = _counting_tasks(n_tasks, n_steps)
        begin = time.perf_counter()
        scheduler.run(tasks)
        trials.append(time.perf_counter() - begin)
        ops = scheduler.steps_run
    return BenchResult("scheduler_run", "timeline", n_tasks, ops, _best_of(trials))
