"""Concurrent ``simulate()`` calls sharing one warehouse.

The simulation service's workers are exactly this: N processes calling
``simulate(spec, cache_dir=...)`` against one SQLite warehouse, some
with the same spec hash, some with distinct ones.  Pinned here:

- a committed row is one simulation — every later caller of the same
  hash (from any process) replays it bit-identically, zero re-simulation;
- distinct hashes each simulate exactly once and land as separate rows;
- readers in fresh processes (and read-only handles) see every
  committed row;
- a writer killed by SIGTERM in the middle of its stores leaves a
  warehouse whose every row loads, with nothing counted corrupt.
"""

import pickle
import time
from multiprocessing import get_context

from repro.core.config import PynamicConfig
from repro.results import ResultsWarehouse, resolve_warehouse_path
from repro.scenario.spec import ScenarioSpec


def _spec_with_seed(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        config=PynamicConfig(
            n_modules=2, n_utilities=1, avg_functions=4, seed=seed
        ),
        n_tasks=2,
    )


def _simulate_one(args: "tuple[str, int]") -> "tuple[str, int, int, bytes]":
    """Pool entry: simulate one seeded spec through a shared warehouse.

    Returns (spec_hash, hits, misses, pickled report) so the parent can
    count actual simulations and compare payloads bit-for-bit.
    """
    cache_dir, seed = args
    from repro.harness.sweep import SweepRunner, sweep_scenarios

    spec = _spec_with_seed(seed)
    runner = SweepRunner(workers=1, cache_dir=cache_dir)
    (report,) = sweep_scenarios([spec], runner=runner)
    return spec.spec_hash, runner.hits, runner.misses, pickle.dumps(report)


def test_n_processes_one_warehouse(tmp_path):
    cache_dir = str(tmp_path)
    # Phase 1: one process commits the shared hash cold.
    warm_hash, hits, misses, warm_payload = _simulate_one((cache_dir, 1))
    assert (hits, misses) == (0, 1)

    # Phase 2: four processes — two resubmit the committed hash, two
    # bring distinct cold hashes.
    context = get_context("spawn")
    with context.Pool(processes=4) as pool:
        outcomes = pool.map(
            _simulate_one,
            [(cache_dir, 1), (cache_dir, 1), (cache_dir, 2), (cache_dir, 3)],
        )

    by_hash: dict = {}
    total_misses = 0
    for spec_hash, hits, misses, payload in outcomes:
        total_misses += misses
        by_hash.setdefault(spec_hash, []).append((hits, misses, payload))

    # The committed hash never re-simulated: both resubmissions were
    # pure warehouse hits with the bit-identical payload.
    warm_runs = by_hash[warm_hash]
    assert len(warm_runs) == 2
    for hits, misses, payload in warm_runs:
        assert (hits, misses) == (1, 0)
        assert pickle.loads(payload) == pickle.loads(warm_payload)

    # The two distinct hashes each simulated exactly once.
    cold_hashes = set(by_hash) - {warm_hash}
    assert len(cold_hashes) == 2
    assert total_misses == 2

    # Every committed row is visible to a fresh read-only reader.
    with ResultsWarehouse(resolve_warehouse_path(cache_dir), readonly=True) as ro:
        assert len(ro) == 3
        assert ro.corrupt == 0
        for spec_hash, runs in by_hash.items():
            stored = ro.load("_eval_scenario_point", spec_hash)
            assert stored is not None
            assert stored == pickle.loads(runs[0][2])


def _store_forever(cache_dir: str, first: int, stored) -> None:
    """Child entry: store one report under fresh keys until killed,
    counting each committed store in ``stored``."""
    from repro.scenario import simulate

    report = simulate(_spec_with_seed(7))
    with ResultsWarehouse.for_cache_dir(cache_dir) as warehouse:
        index = first
        while True:
            warehouse.store("sigterm_rows", f"row-{index}", report)
            index += 1
            with stored.get_lock():
                stored.value += 1


def test_sigterm_during_writes_leaves_every_row_loadable(tmp_path):
    cache_dir = str(tmp_path)
    context = get_context("spawn")
    committed = 0
    for round_index in range(3):
        stored = context.Value("i", 0)
        writer = context.Process(
            target=_store_forever,
            args=(cache_dir, 100_000 * round_index, stored),
        )
        writer.start()
        deadline = time.monotonic() + 60
        while stored.value < 50 and time.monotonic() < deadline:
            time.sleep(0.01)
        writer.terminate()  # SIGTERM, mid-store more often than not
        writer.join(timeout=30)
        assert writer.exitcode == -15
        assert stored.value >= 50
        committed += stored.value

    with ResultsWarehouse.for_cache_dir(cache_dir) as warehouse:
        rows = warehouse.rows(func="sigterm_rows")
        # Each store the child counted had committed; the store the
        # signal interrupted either committed whole or not at all.
        assert committed <= len(rows) <= committed + 3
        for row in rows:
            assert warehouse.load("sigterm_rows", row["result_key"]) is not None
        assert warehouse.corrupt == 0
