"""The parallel sweep runner: experiment grids across worker processes.

Regenerating a table or an ablation means evaluating the same simulation
at many grid points (task counts, DLL counts, build modes).  Every point
is an independent, deterministic, CPU-bound simulation — exactly the
shape ``multiprocessing`` likes — so the :class:`SweepRunner` fans a grid
out across workers and memoizes each point's result, keeping table
regeneration fast even as the multi-rank engine makes single points more
expensive.

Every simulated experiment cell is one :class:`ScenarioSpec`:
:func:`sweep_scenarios` runs each as a full job, and
:meth:`SweepRunner.map_specs` runs them through any other top-level
evaluator (the staging-only pass of the mitigation studies).

Workers must re-import this module, so the evaluation functions are
plain top-level functions of picklable arguments, and results are
reduced to report dataclasses (never clusters or linkers).

With ``SweepRunner(cache_dir=...)`` results also persist on disk, so
repeated studies — and CI re-runs — skip recomputation across
processes.  The disk layer is the SQLite results warehouse
(:mod:`repro.results`): WAL-mode, schema-versioned,
concurrent-writer-safe, with the full :class:`JobReport` metric
surface stored as queryable typed columns next to the pickled payload
(``pynamic-repro results query/diff/export``).  Scenario grids key on
the *canonical spec hash* (:attr:`ScenarioSpec.spec_hash`), so the same
grid point hits the cache however its spec was built.
"""

from __future__ import annotations

import os
from multiprocessing import get_context
from typing import Callable, Sequence

from repro.core.job import JobReport
from repro.errors import ConfigError

#: Hard cap on worker processes — grid points are coarse, so more
#: workers than points (or than cores) only adds fork overhead.
MAX_WORKERS = 8


def _eval_scenario_point(point: "object") -> JobReport:
    """Evaluate one :class:`ScenarioSpec` grid point (top-level for
    pickling; the cache key is the spec's canonical hash, not this
    function's argument repr)."""
    from repro.scenario.run import simulate

    return simulate(point)


class SweepRunner:
    """Executes grid points across processes with memoized results.

    ``workers=1`` evaluates inline (no pool, no fork overhead) — handy
    for tests and for tiny grids.  Results are memoized per (function,
    point) so regenerating overlapping tables (or re-running an
    experiment in the same process) re-simulates nothing.

    ``cache_dir`` adds a disk layer under the in-memory one: the
    SQLite results warehouse (``<cache_dir>/warehouse.sqlite3``, see
    :mod:`repro.results`), so a fresh process (a CI run, a notebook
    restart) replays previous studies without re-simulating — and two
    concurrent processes (parallel sweeps, a CI run next to a local
    one) can share the one warehouse safely.  Every point carries an
    explicit key (a canonical spec or workload hash), so two spellings
    of one grid point share an entry.
    Disk loads count as ``hits``; rows that exist but cannot be read
    back (torn payloads, schema-version mismatches) count as
    ``corrupt`` and are reported with a warning, never silently folded
    into ``misses``.  ``cache_dir`` may also name a ``.sqlite3`` file
    directly.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: "str | os.PathLike[str] | None" = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self._warehouse = None
        if self.cache_dir is not None:
            from repro.results.store import ResultsWarehouse

            # Opens (or creates) <cache_dir>/warehouse.sqlite3.
            self._warehouse = ResultsWarehouse.for_cache_dir(self.cache_dir)
        self._memo: dict[tuple[str, str], object] = {}
        self.hits = 0
        self.misses = 0

    # -- disk layer (the SQLite results warehouse) -------------------------
    @property
    def warehouse(self) -> "object | None":
        """The backing :class:`repro.results.store.ResultsWarehouse`
        (None without ``cache_dir``)."""
        return self._warehouse

    @property
    def corrupt(self) -> int:
        """Disk entries that existed but could not be read back —
        distinct from ``misses``, so CI cache poisoning is visible."""
        return self._warehouse.corrupt if self._warehouse is not None else 0

    def _disk_load(self, key: tuple[str, str]) -> object | None:
        if self._warehouse is None:
            return None
        return self._warehouse.load(key[0], key[1])

    def _disk_store(
        self,
        key: tuple[str, str],
        result: object,
        spec_json: "str | None" = None,
    ) -> None:
        if self._warehouse is None:
            return
        self._warehouse.store(key[0], key[1], result, spec_json=spec_json)

    def _worker_count(self, n_points: int) -> int:
        if self.workers is not None:
            return min(self.workers, max(1, n_points))
        return max(1, min(os.cpu_count() or 1, n_points, MAX_WORKERS))

    def map(
        self,
        func: Callable[[object], object],
        points: Sequence[object],
        keys: Sequence[str],
        spec_docs: "Sequence[str | None] | None" = None,
    ) -> list:
        """Evaluate ``func`` over ``points``, parallel and memoized.

        Results come back in point order.  ``func`` must be a top-level
        function and every point must be picklable.  Duplicate points
        inside one call are simulated only once.

        ``keys`` supplies one stable memo key per point — the scenario
        sweeps pass each spec's canonical hash, so any two spellings of
        the same grid point share a cache entry (in memory and on
        disk).  ``spec_docs`` optionally carries each point's canonical
        spec JSON, stored alongside the result in the warehouse so
        ``results query`` shows *what* was parameterized, not just the
        hash.
        """
        if len(keys) != len(points):
            raise ConfigError(
                f"got {len(keys)} keys for {len(points)} points"
            )
        if spec_docs is not None and len(spec_docs) != len(points):
            raise ConfigError(
                f"got {len(spec_docs)} spec docs for {len(points)} points"
            )
        keys = [(func.__name__, key) for key in keys]
        results: dict[int, object] = {}
        compute: dict[tuple[str, str], int] = {}  # key -> first index
        for index, key in enumerate(keys):
            if key in self._memo:
                results[index] = self._memo[key]
                self.hits += 1
                continue
            if key in compute:
                self.hits += 1  # duplicate of a point already queued
                continue
            cached = self._disk_load(key)
            if cached is not None:
                self._memo[key] = cached
                results[index] = cached
                self.hits += 1
                continue
            compute[key] = index
            self.misses += 1
        if compute:
            computed = self._evaluate(
                func, [points[index] for index in compute.values()]
            )
            self._memo.update(zip(compute.keys(), computed))
            for (key, index), result in zip(compute.items(), computed):
                self._disk_store(
                    key,
                    result,
                    spec_json=(
                        spec_docs[index] if spec_docs is not None else None
                    ),
                )
            for index, key in enumerate(keys):
                if index not in results:
                    results[index] = self._memo[key]
        return [results[index] for index in range(len(points))]

    def map_specs(
        self, func: Callable[[object], object], specs: "Sequence[object]"
    ) -> list:
        """:meth:`map` over :class:`ScenarioSpec` cells, keyed by each
        spec's canonical hash and stored with its canonical JSON."""
        specs = list(specs)
        return self.map(
            func,
            specs,
            keys=[spec.spec_hash for spec in specs],
            spec_docs=[spec.canonical_json() for spec in specs],
        )

    def _evaluate(self, func: Callable[[object], object], todo: list) -> list:
        """Run the grid points, inline or across a worker pool."""
        workers = self._worker_count(len(todo))
        if workers == 1:
            return [func(point) for point in todo]
        # fork keeps the generated specs' import state cheap to inherit
        # (fall back where fork does not exist); grid points are coarse
        # so chunksize 1 balances.
        try:
            context = get_context("fork")
        except ValueError:
            context = get_context()
        with context.Pool(processes=workers) as pool:
            return pool.map(func, todo, chunksize=1)


#: Shared default runner: memoized across every experiment in a process.
DEFAULT_RUNNER = SweepRunner()


def sweep_scenarios(
    specs: "Sequence[object]",
    runner: SweepRunner | None = None,
) -> list[JobReport]:
    """Evaluate a grid of :class:`ScenarioSpec`s, parallel and memoized.

    The memo/disk key of each point is the spec's canonical sha256
    (:attr:`ScenarioSpec.spec_hash`), so a grid point is one cache
    entry no matter how it was spelled — direct construction, the
    fluent builder, or a JSON file.
    """
    return (runner or DEFAULT_RUNNER).map_specs(_eval_scenario_point, specs)
