"""The results warehouse: store, schema, concurrency, query, CLI.

Covers the SQLite sweep store: bit-identical round-trips, the metadata
backfill of rows older versions wrote, corrupt rows *counted* instead
of eaten, two concurrent writer processes on
one warehouse (WAL + ``BEGIN IMMEDIATE``), and the ``results
query/diff/export`` CLI.
"""

import json
import os
import sqlite3
from multiprocessing import get_context

import pytest

from repro.core.config import PynamicConfig
from repro.core.job import JobReport
from repro.errors import ConfigError
from repro.harness.cli import main
from repro.harness.sweep import SweepRunner, sweep_scenarios
from repro.results import (
    ResultsWarehouse,
    cache_key,
    diff_rows,
    export_document,
    open_warehouse,
    resolve_metrics,
    resolve_warehouse_path,
    write_json_atomic,
)
from repro.results.schema import SCHEMA_VERSION
from repro.scenario.run import simulate
from repro.scenario.spec import ScenarioSpec


@pytest.fixture(scope="module")
def tiny_spec():
    return ScenarioSpec(
        config=PynamicConfig(n_modules=2, n_utilities=1, avg_functions=4),
        n_tasks=2,
    )


@pytest.fixture(scope="module")
def tiny_report(tiny_spec):
    return simulate(tiny_spec)


class TestStoreRoundTrip:
    def test_job_report_round_trips_bit_identically(
        self, tmp_path, tiny_spec, tiny_report
    ):
        with ResultsWarehouse(tmp_path) as store:
            store.store(
                "_eval_scenario_point",
                tiny_spec.spec_hash,
                tiny_report,
                spec_json=tiny_spec.canonical_json(),
            )
            loaded = store.load("_eval_scenario_point", tiny_spec.spec_hash)
        assert isinstance(loaded, JobReport)
        assert loaded == tiny_report

    def test_typed_columns_mirror_the_report(
        self, tmp_path, tiny_spec, tiny_report
    ):
        with ResultsWarehouse(tmp_path) as store:
            store.store(
                "_eval_scenario_point",
                tiny_spec.spec_hash,
                tiny_report,
                spec_json=tiny_spec.canonical_json(),
            )
            (row,) = store.rows()
        assert row["engine"] == tiny_report.engine
        assert row["distribution"] == tiny_report.distribution
        assert row["n_tasks"] == tiny_report.n_tasks
        assert row["total_max"] == pytest.approx(tiny_report.total_max)
        assert row["startup_p95"] == pytest.approx(tiny_report.startup_p95)
        assert row["result_key"] == tiny_spec.spec_hash
        assert json.loads(row["spec_json"]) == tiny_spec.to_dict()
        assert row["created_at"]

    def test_missing_key_is_a_plain_miss(self, tmp_path):
        with ResultsWarehouse(tmp_path) as store:
            assert store.load("f", "nope") is None
            assert store.corrupt == 0

    def test_cache_dir_may_name_the_db_file_directly(
        self, tmp_path, tiny_report
    ):
        db = tmp_path / "my.sqlite3"
        with ResultsWarehouse(db) as store:
            store.store("f", "k", tiny_report)
        assert db.exists()
        with ResultsWarehouse(db) as again:
            assert again.load("f", "k") == tiny_report

    def test_resolve_warehouse_path(self, tmp_path):
        assert resolve_warehouse_path(tmp_path) == str(
            tmp_path / "warehouse.sqlite3"
        )
        assert resolve_warehouse_path("x.db") == "x.db"


class TestCorruptionIsCountedNotEaten:
    def test_unpicklable_payload_counts_corrupt_and_recomputes(
        self, tmp_path, tiny_report
    ):
        with ResultsWarehouse(tmp_path) as store:
            store.store("f", "k", tiny_report)
            digest = cache_key("f", "k")
            conn = store._connect()
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(
                "UPDATE results SET payload = ? WHERE cache_key = ?",
                (b"not a pickle", digest),
            )
            conn.commit()
            with pytest.warns(UserWarning, match="corrupt payload"):
                assert store.load("f", "k") is None
            assert store.corrupt == 1
            # The poisoned row is gone: the next load is a clean miss.
            assert store.load("f", "k") is None
            assert store.corrupt == 1

    def test_schema_version_mismatch_drops_and_reports(
        self, tmp_path, tiny_report
    ):
        with ResultsWarehouse(tmp_path) as store:
            store.store("f", "k", tiny_report)
        path = resolve_warehouse_path(tmp_path)
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.warns(UserWarning, match="another schema version"):
            store = ResultsWarehouse(tmp_path)
            assert store.load("f", "k") is None
        assert store.corrupt == 1
        store.close()

    def test_garbage_db_file_is_quarantined_and_rebuilt(
        self, tmp_path, tiny_report
    ):
        path = resolve_warehouse_path(tmp_path)
        os.makedirs(tmp_path, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(b"this is not a database")
        with pytest.warns(UserWarning, match="unreadable"):
            store = ResultsWarehouse(tmp_path)
            store.store("f", "k", tiny_report)
        assert store.corrupt == 1
        assert store.load("f", "k") == tiny_report
        store.close()

    def test_sweep_runner_surfaces_the_corrupt_counter(
        self, tmp_path, tiny_spec
    ):
        first = SweepRunner(workers=1, cache_dir=tmp_path)
        sweep_scenarios([tiny_spec], runner=first)
        digest = cache_key("_eval_scenario_point", tiny_spec.spec_hash)
        conn = sqlite3.connect(resolve_warehouse_path(tmp_path))
        conn.execute(
            "UPDATE results SET payload = ? WHERE cache_key = ?",
            (b"torn", digest),
        )
        conn.commit()
        conn.close()
        fresh = SweepRunner(workers=1, cache_dir=tmp_path)
        with pytest.warns(UserWarning, match="corrupt payload"):
            sweep_scenarios([tiny_spec], runner=fresh)
        # Recomputed (miss), and the poisoning is visible — not folded
        # into the miss count as the pickle layer did.
        assert (fresh.hits, fresh.misses, fresh.corrupt) == (0, 1, 1)


class TestLegacyPickleMigration:
    """Rows that older versions wrote without their (func, key) metadata
    (the pickle-cache migration left ``func`` NULL) may still sit in a
    warehouse on disk; the first hit backfills them."""

    def test_migrated_row_backfills_func_and_key_on_first_hit(
        self, tmp_path, tiny_spec, tiny_report
    ):
        store = ResultsWarehouse.for_cache_dir(tmp_path)
        store.store("_eval_scenario_point", tiny_spec.spec_hash, tiny_report)
        store.close()
        conn = sqlite3.connect(resolve_warehouse_path(tmp_path))
        conn.execute("UPDATE results SET func = NULL, result_key = NULL")
        conn.commit()
        conn.close()
        store = ResultsWarehouse.for_cache_dir(tmp_path)
        (row,) = store.rows()
        assert row["func"] is None
        loaded = store.load("_eval_scenario_point", tiny_spec.spec_hash)
        assert loaded == tiny_report
        (row,) = store.rows()
        assert row["func"] == "_eval_scenario_point"
        assert row["result_key"] == tiny_spec.spec_hash
        store.close()


def _store_one(args):
    """Worker: hammer one key into a shared warehouse (top-level for
    pickling under the spawn context)."""
    path, worker_id, payload_marker = args
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from repro.results.store import ResultsWarehouse

    store = ResultsWarehouse(path)
    for round_number in range(20):
        store.store(
            "_eval_scenario_point",
            "shared-spec-hash",
            {"worker": worker_id, "round": round_number, "marker": payload_marker},
        )
    store.close()
    return worker_id


class TestConcurrentWriters:
    def test_two_processes_storing_the_same_key_do_not_tear(self, tmp_path):
        """WAL + BEGIN IMMEDIATE: concurrent same-key writers serialize
        on the busy timeout; the surviving row is one writer's intact
        payload, never an error or a torn blob."""
        path = resolve_warehouse_path(tmp_path)
        context = get_context("spawn")
        with context.Pool(processes=2) as pool:
            done = pool.map(
                _store_one, [(path, 1, "alpha"), (path, 2, "beta")]
            )
        assert sorted(done) == [1, 2]
        store = ResultsWarehouse(path)
        value = store.load("_eval_scenario_point", "shared-spec-hash")
        assert value is not None and store.corrupt == 0
        assert value["round"] == 19
        assert value["marker"] in ("alpha", "beta")
        assert len(store) == 1
        store.close()

    def test_second_sweep_process_reuses_a_cold_sweeps_rows(
        self, tmp_path, tiny_spec
    ):
        """The acceptance path: a cold sweep populates the warehouse, a
        second runner (a fresh process as far as the cache can tell)
        replays with hits > 0 and corrupt == 0."""
        cold = SweepRunner(workers=1, cache_dir=tmp_path)
        (first,) = sweep_scenarios([tiny_spec], runner=cold)
        assert (cold.hits, cold.misses) == (0, 1)
        warm = SweepRunner(workers=1, cache_dir=tmp_path)
        (second,) = sweep_scenarios([tiny_spec], runner=warm)
        assert warm.hits > 0 and warm.corrupt == 0
        assert warm.misses == 0
        assert second == first


class TestQueryDiffExport:
    def test_open_warehouse_requires_an_existing_store(self, tmp_path):
        with pytest.raises(ConfigError, match="no results warehouse"):
            open_warehouse(tmp_path / "nowhere")

    def test_resolve_metrics_validates_names(self):
        assert resolve_metrics(None) == ["total_max", "staging_max"]
        assert resolve_metrics(["import_s"]) == ["import_s"]
        with pytest.raises(ConfigError, match="made_up"):
            resolve_metrics(["made_up"])

    def test_diff_flags_regressions(self):
        old = [{"cache_key": "k", "result_key": "k", "total_max": 1.0}]
        new = [{"cache_key": "k", "result_key": "k", "total_max": 1.2}]
        diff = diff_rows(old, new, ["total_max"])
        assert diff["max_regression_pct"] == pytest.approx(20.0)
        (entry,) = diff["changed"]
        assert entry["delta"] == pytest.approx(0.2)
        assert diff["only_old"] == [] and diff["only_new"] == []

    def test_export_document_shape(self, tmp_path, tiny_spec, tiny_report):
        with ResultsWarehouse(tmp_path) as store:
            store.store(
                "_eval_scenario_point",
                tiny_spec.spec_hash,
                tiny_report,
                spec_json=tiny_spec.canonical_json(),
            )
            document = export_document(store)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["row_count"] == 1
        assert document["rows"][0]["result_key"] == tiny_spec.spec_hash
        assert "payload" not in document["rows"][0]
        json.dumps(document)  # JSON-ready end to end

    def test_write_json_atomic_cleans_its_tmp_on_failure(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json_atomic(str(target), {"bad": object()})
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no leaked .tmp.<pid>


class TestResultsCli:
    @pytest.fixture()
    def populated(self, tmp_path, tiny_spec):
        cache = tmp_path / "cache"
        runner = SweepRunner(workers=1, cache_dir=cache)
        sweep_scenarios([tiny_spec], runner=runner)
        return cache

    def test_query_prints_stored_rows(self, populated, capsys, tiny_spec):
        assert main(["results", "query", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "1 stored result(s)" in out
        assert tiny_spec.spec_hash[:16] in out
        assert "JobReport" in out

    def test_query_json_and_filters(self, populated, capsys):
        assert main(
            ["results", "query", str(populated), "--engine", "analytic",
             "--json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert main(
            ["results", "query", str(populated), "--engine", "multirank",
             "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_query_missing_warehouse_prints_clean_error(
        self, tmp_path, capsys
    ):
        assert main(["results", "query", str(tmp_path / "void")]) == 1
        assert "no results warehouse" in capsys.readouterr().err

    def test_export_then_diff_round_trip(
        self, populated, tmp_path, capsys
    ):
        out = tmp_path / "export.json"
        assert main(
            ["results", "export", str(populated), "--json", str(out)]
        ) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert document["row_count"] == 1
        # identical warehouses: diff passes any gate
        assert main(
            ["results", "diff", str(populated), str(populated),
             "--fail-over", "0.5"]
        ) == 0
        assert "+0.00%" in capsys.readouterr().out

    def test_job_cache_dir_lands_in_the_warehouse(self, tmp_path, capsys):
        cache = tmp_path / "jobcache"
        args = [
            "job", "--spec", "tiny", "--set", "n_tasks=2",
            "--set", "config.n_modules=2", "--set", "config.n_utilities=1",
            "--set", "config.avg_functions=4", "--cache-dir", str(cache),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["results", "query", str(cache), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1 and rows[0]["kind"] == "JobReport"
        # second run replays from the warehouse (same spec hash)
        assert main(args) == 0


class TestReadonlyMode:
    """The service's query-path contract: ``mode=ro`` handles never
    create files, never write, and never queue behind a busy writer."""

    def _populated(self, tmp_path, tiny_spec, tiny_report):
        with ResultsWarehouse(tmp_path) as store:
            store.store(
                "_eval_scenario_point",
                tiny_spec.spec_hash,
                tiny_report,
                spec_json=tiny_spec.canonical_json(),
            )
        return tmp_path

    def test_reads_what_the_writer_stored(
        self, tmp_path, tiny_spec, tiny_report
    ):
        self._populated(tmp_path, tiny_spec, tiny_report)
        with ResultsWarehouse(tmp_path, readonly=True) as ro:
            assert (
                ro.load("_eval_scenario_point", tiny_spec.spec_hash)
                == tiny_report
            )
            entry = ro.load_by_result_key(tiny_spec.spec_hash)
            assert entry is not None and entry["result"] == tiny_report
            assert entry["row"]["kind"] == "JobReport"
            assert len(ro) == 1

    def test_store_refuses(self, tmp_path, tiny_spec, tiny_report):
        self._populated(tmp_path, tiny_spec, tiny_report)
        with ResultsWarehouse(tmp_path, readonly=True) as ro:
            with pytest.raises(ConfigError, match="read-only"):
                ro.store("_eval_scenario_point", "k", tiny_report)

    def test_missing_warehouse_is_empty_not_created(self, tmp_path):
        target = tmp_path / "never-written"
        with ResultsWarehouse(target, readonly=True) as ro:
            assert ro.load("_eval_scenario_point", "nope") is None
            assert ro.load_by_result_key("nope") is None
            assert ro.rows() == [] and len(ro) == 0
        assert not target.exists()  # ro open must not create the dir/DB

    def test_reader_not_blocked_by_a_held_write_lock(
        self, tmp_path, tiny_spec, tiny_report
    ):
        """The regression this mode exists for: a writer holding the
        warehouse's reserved lock (a busy worker pool mid-commit) must
        not block ``GET /v1/results`` reads."""
        self._populated(tmp_path, tiny_spec, tiny_report)
        writer = sqlite3.connect(resolve_warehouse_path(tmp_path))
        writer.isolation_level = None
        writer.execute("BEGIN IMMEDIATE")  # hold the write lock
        try:
            import time

            with ResultsWarehouse(tmp_path, readonly=True) as ro:
                begin = time.perf_counter()
                value = ro.load("_eval_scenario_point", tiny_spec.spec_hash)
                elapsed = time.perf_counter() - begin
            assert value == tiny_report
            # WAL readers proceed immediately; anywhere near the 30 s
            # busy timeout means the ro path regressed to blocking.
            assert elapsed < 5.0
        finally:
            writer.execute("ROLLBACK")
            writer.close()

    def test_schema_mismatch_is_an_explicit_error(self, tmp_path):
        path = resolve_warehouse_path(tmp_path)
        with ResultsWarehouse(path) as store:
            store.store("_eval_scenario_point", "k", {"v": 1})
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        ro = ResultsWarehouse(path, readonly=True)
        with pytest.raises(ConfigError, match="schema version"):
            ro.load("_eval_scenario_point", "k")


#: A warehouse written by the schema-version-1 code: two scenario rows
#: (``_fixture_specs()``, analytic and multirank), checkpointed into a
#: lone WAL-mode file, as CI downloads its baseline artifact.
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "warehouse_v1.sqlite3")


def _fixture_specs():
    spec = ScenarioSpec(
        config=PynamicConfig(n_modules=2, n_utilities=1, avg_functions=4),
        n_tasks=2,
    )
    return [spec, spec.with_(engine="multirank", n_tasks=4, cores_per_node=2)]


class TestOtherSchemaVersions:
    def test_v1_baseline_diffs_against_a_v2_warehouse(self, tmp_path, capsys):
        import shutil

        baseline = tmp_path / "baseline.sqlite3"
        shutil.copyfile(V1_FIXTURE, baseline)
        before = baseline.read_bytes()
        candidate = tmp_path / "candidate"
        for spec in _fixture_specs():
            simulate(spec, cache_dir=str(candidate))
        assert main(
            ["results", "diff", str(baseline), str(candidate), "--fail-over", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "empty" not in out
        assert "4 compared metric(s), 0 only in old, 0 only in new" in out
        assert "2 written by another model" in out
        # Read-only: the baseline keeps its rows and its version.
        assert baseline.read_bytes() == before
        with open_warehouse(baseline) as store:
            assert store.schema_version == 1
            old_rows = store.rows()
        with open_warehouse(candidate) as store:
            new_rows = store.rows()
        diff = diff_rows(old_rows, new_rows, ["total_max"])
        assert diff["fingerprint_mismatches"] == 2
        assert {entry["spec"] for entry in diff["changed"]} == {
            spec.spec_hash[:16] for spec in _fixture_specs()
        }
        # The deltas are real: a changed baseline value shows up.
        conn = sqlite3.connect(baseline)
        conn.execute("UPDATE results SET total_max = total_max * 2")
        conn.commit()
        conn.close()
        with open_warehouse(baseline) as store:
            diff = diff_rows(store.rows(), new_rows, ["total_max"])
        assert [entry["pct"] for entry in diff["changed"]] == pytest.approx([-50.0] * 2)

    def test_query_and_export_read_a_v1_warehouse(self, tmp_path, capsys):
        import shutil

        baseline = tmp_path / "baseline.sqlite3"
        shutil.copyfile(V1_FIXTURE, baseline)
        assert main(["results", "query", str(baseline)]) == 0
        assert "2 stored result(s)" in capsys.readouterr().out
        out = tmp_path / "export.json"
        assert main(["results", "export", str(baseline), "--json", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["schema_version"] == 1
        assert document["row_count"] == 2

    def test_a_v1_warehouse_serves_no_cached_results_read_only(self, tmp_path):
        import shutil

        baseline = tmp_path / "baseline.sqlite3"
        shutil.copyfile(V1_FIXTURE, baseline)
        spec = _fixture_specs()[0]
        with open_warehouse(baseline) as store:
            with pytest.raises(ConfigError, match="schema version 1"):
                store.load("_eval_scenario_point", spec.spec_hash)


class TestModelFingerprint:
    def test_rows_and_meta_record_the_fingerprint(self, tmp_path, tiny_spec):
        from repro.results import model_fingerprint

        simulate(tiny_spec, cache_dir=str(tmp_path))
        with ResultsWarehouse(tmp_path) as store:
            (row,) = store.rows()
            meta = store._connect().execute(
                "SELECT value FROM meta WHERE key = 'model_fingerprint'"
            ).fetchone()
        assert row["model_fingerprint"] == model_fingerprint()
        assert meta[0] == model_fingerprint()
        assert len(model_fingerprint()) == 64

    def test_a_stale_fingerprint_row_is_resimulated(self, tmp_path, tiny_spec):
        first = SweepRunner(workers=1, cache_dir=tmp_path)
        (report,) = sweep_scenarios([tiny_spec], runner=first)
        first.warehouse.close()
        conn = sqlite3.connect(resolve_warehouse_path(tmp_path))
        conn.execute(
            "UPDATE results SET model_fingerprint = 'older-model',"
            " total_max = -1.0"
        )
        conn.commit()
        conn.close()
        with ResultsWarehouse(tmp_path, readonly=True) as ro:
            assert ro.load("_eval_scenario_point", tiny_spec.spec_hash) is None
            assert ro.load_by_result_key(tiny_spec.spec_hash) is None
            assert ro.load_document("_eval_scenario_point", tiny_spec.spec_hash) is None
            assert ro.load_document_by_result_key(tiny_spec.spec_hash) is None
        again = SweepRunner(workers=1, cache_dir=tmp_path)
        (replayed,) = sweep_scenarios([tiny_spec], runner=again)
        # A miss, not corruption: re-simulated, and the row rewritten.
        assert (again.hits, again.misses, again.corrupt) == (0, 1, 0)
        assert replayed == report
        (row,) = again.warehouse.rows()
        from repro.results import model_fingerprint

        assert row["model_fingerprint"] == model_fingerprint()
        assert row["total_max"] == pytest.approx(report.total_max)
        again.warehouse.close()

    def test_diff_counts_mismatches_but_never_fails_on_them(self):
        old = [{"cache_key": "k", "total_max": 1.0, "model_fingerprint": "a"}]
        new = [{"cache_key": "k", "total_max": 1.0, "model_fingerprint": "b"}]
        diff = diff_rows(old, new, ["total_max"])
        assert diff["fingerprint_mismatches"] == 1
        assert diff["max_regression_pct"] == 0.0
        assert diff_rows(old, old, ["total_max"])["fingerprint_mismatches"] == 0


class TestStoredDocument:
    def test_scenario_rows_store_the_canonical_result_document(
        self, tmp_path, tiny_spec, tiny_report
    ):
        from repro.results.schema import result_document

        with ResultsWarehouse(tmp_path) as store:
            store.store("_eval_scenario_point", tiny_spec.spec_hash, tiny_report)
            store.store("eval_staging_point", tiny_spec.spec_hash, tiny_report)
            text = store.load_document("_eval_scenario_point", tiny_spec.spec_hash)
            assert store.load_document("eval_staging_point", tiny_spec.spec_hash) is None
            entry = store.load_document_by_result_key(tiny_spec.spec_hash)
            assert "document" not in store.rows()[0]
        expected = result_document("scenario", tiny_spec.spec_hash, tiny_report)
        assert text == json.dumps(expected, sort_keys=True)
        assert entry["document"] == text
        assert entry["func"] == "_eval_scenario_point"

    def test_the_service_worker_reexports_result_document(self):
        from repro.results.schema import result_document
        from repro.service.worker import result_document as reexported

        assert reexported is result_document
