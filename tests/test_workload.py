"""Multi-tenant workload layer: spec, arrivals, engine, report, CLI.

The cross-process determinism test is the load-bearing one: a
WorkloadSpec's canonical hash must name *one* report, byte for byte,
no matter which process computed it — that contract is what lets the
results warehouse replay workload cells instead of re-simulating them.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.config import PynamicConfig
from repro.dist.topology import DistributionSpec, Topology
from repro.errors import ConfigError
from repro.harness.cli import main
from repro.harness.sweep import SweepRunner
from repro.scenario.spec import ScenarioSpec
from repro.rng import SeededRng
from repro.workload import (
    TenantSpec,
    WorkloadSpec,
    arrival_times,
    run_workload,
    validate_workload_dict,
    workload_preset,
    workload_preset_names,
)
from repro.workload.engine import WorkloadEngine
from repro.workload.run import _eval_workload_point


def tiny_job(n_tasks=2, seed=7):
    return ScenarioSpec(
        config=PynamicConfig(
            n_modules=3,
            n_utilities=2,
            avg_functions=8,
            avg_body_instructions=20,
            seed=seed,
            name_length=0,
        ),
        engine="multirank",
        n_tasks=n_tasks,
        cores_per_node=1,
    )


def tiny_workload(n_jobs=3, n_nodes=4, policy="fifo", arrival="burst",
                  **tenant_kwargs):
    tenant = TenantSpec(
        name="t0",
        scenario=tiny_job(),
        n_jobs=n_jobs,
        arrival=arrival,
        **tenant_kwargs,
    )
    return WorkloadSpec(tenants=(tenant,), n_nodes=n_nodes, policy=policy)


# -- spec validation and round-trip -------------------------------------


class TestWorkloadSpec:
    def test_round_trips_through_dict_and_schema(self):
        spec = tiny_workload()
        data = spec.to_dict()
        validate_workload_dict(data)
        assert WorkloadSpec.from_dict(data) == spec

    def test_canonical_json_is_stable_and_hash_is_sha256(self):
        spec = tiny_workload()
        assert spec.canonical_json() == spec.canonical_json()
        assert len(spec.workload_hash) == 64
        int(spec.workload_hash, 16)

    def test_hash_changes_with_any_field(self):
        base = tiny_workload()
        assert base.with_(seed=1).workload_hash != base.workload_hash
        assert base.with_(policy="backfill").workload_hash != base.workload_hash

    def test_rejects_analytic_tenant_engine(self):
        with pytest.raises(ConfigError, match="multirank"):
            TenantSpec(scenario=tiny_job().with_(engine="analytic"))

    def test_rejects_duplicate_tenant_names(self):
        tenant = TenantSpec(name="dup", scenario=tiny_job())
        with pytest.raises(ConfigError, match="duplicate"):
            WorkloadSpec(tenants=(tenant, tenant), n_nodes=4)

    def test_rejects_job_wider_than_cluster(self):
        tenant = TenantSpec(name="wide", scenario=tiny_job(n_tasks=8))
        with pytest.raises(ConfigError):
            WorkloadSpec(tenants=(tenant,), n_nodes=4)

    def test_rejects_poisson_without_rate(self):
        with pytest.raises(ConfigError, match="rate_per_s"):
            TenantSpec(scenario=tiny_job(), arrival="poisson")

    def test_rejects_fixed_with_rate(self):
        with pytest.raises(ConfigError):
            TenantSpec(
                scenario=tiny_job(),
                arrival="fixed",
                interval_s=1.0,
                rate_per_s=2.0,
            )

    def test_from_dict_rejects_unknown_keys(self):
        data = tiny_workload().to_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigError):
            WorkloadSpec.from_dict(data)

    def test_presets_registered_and_buildable(self):
        names = workload_preset_names()
        assert "rush_hour" in names
        for name in names:
            spec = workload_preset(name)
            validate_workload_dict(spec.to_dict())


# -- arrivals ------------------------------------------------------------


class TestArrivals:
    def test_burst_lands_all_jobs_at_start(self):
        tenant = TenantSpec(
            name="b", scenario=tiny_job(), n_jobs=4, start_s=2.5
        )
        assert arrival_times(tenant, SeededRng(0)) == [2.5] * 4

    def test_fixed_is_an_arithmetic_stream(self):
        tenant = TenantSpec(
            name="f",
            scenario=tiny_job(),
            n_jobs=3,
            arrival="fixed",
            interval_s=1.5,
        )
        assert arrival_times(tenant, SeededRng(0)) == [0.0, 1.5, 3.0]

    def test_poisson_is_deterministic_and_increasing(self):
        tenant = TenantSpec(
            name="p",
            scenario=tiny_job(),
            n_jobs=16,
            arrival="poisson",
            rate_per_s=2.0,
        )
        first = arrival_times(tenant, SeededRng(9))
        second = arrival_times(tenant, SeededRng(9))
        assert first == second
        assert all(b > a for a, b in zip(first, first[1:]))

    def test_poisson_draws_are_tenant_order_independent(self):
        # Forked per-tenant streams: drawing tenant B first must not
        # change tenant A's arrival times.
        a = TenantSpec(name="a", scenario=tiny_job(), n_jobs=4,
                       arrival="poisson", rate_per_s=1.0)
        b = TenantSpec(name="b", scenario=tiny_job(), n_jobs=4,
                       arrival="poisson", rate_per_s=1.0)
        rng = SeededRng(3)
        a_first = arrival_times(a, rng)
        rng = SeededRng(3)
        arrival_times(b, rng)
        assert arrival_times(a, rng) == a_first


# -- engine behavior -----------------------------------------------------


class TestWorkloadEngine:
    def test_burst_queues_when_cluster_is_narrow(self):
        # 3 two-node jobs on 4 nodes: at most two run at once, so at
        # least one job waits and the makespan exceeds the longest job.
        report = WorkloadEngine(tiny_workload()).run()
        assert report.n_jobs == 3
        waits = [job.wait_s for job in report.jobs]
        assert max(waits) > 0.0
        assert min(waits) == 0.0
        assert report.makespan_s >= max(job.run_s for job in report.jobs)

    def test_disjoint_concurrent_node_sets(self):
        report = WorkloadEngine(tiny_workload()).run()
        for a in report.jobs:
            for b in report.jobs:
                if a.job_id >= b.job_id:
                    continue
                overlap = a.start_s < b.end_s and b.start_s < a.end_s
                if overlap:
                    assert not (
                        set(a.node_indices) & set(b.node_indices)
                    ), (a, b)

    def test_contention_inflates_cold_start_over_solo(self):
        from repro.core.job import percentile
        from repro.core.multirank import MultiRankJob
        from repro.workload.report import cold_start_values

        solo = MultiRankJob(tiny_job()).run()
        solo_p95 = percentile(cold_start_values(solo), 95)
        report = WorkloadEngine(
            tiny_workload(n_jobs=2, n_nodes=4)
        ).run()
        assert report.tenant("t0").startup_p95_s > solo_p95

    def test_backfill_policy_runs_and_reports_every_job(self):
        wide = TenantSpec(name="wide", scenario=tiny_job(n_tasks=4),
                          n_jobs=1)
        narrow = TenantSpec(name="narrow", scenario=tiny_job(), n_jobs=4,
                            arrival="fixed", interval_s=0.05)
        spec = WorkloadSpec(
            tenants=(wide, narrow), n_nodes=4, policy="backfill"
        )
        report = WorkloadEngine(spec, estimates={"wide": 1.0,
                                                 "narrow": 1.0}).run()
        assert report.n_jobs == 5
        assert {t.name for t in report.tenants} == {"wide", "narrow"}
        assert all(job.slowdown >= 1.0 for job in report.jobs)

    def test_report_json_digest_is_serializable(self):
        report = WorkloadEngine(tiny_workload()).run()
        doc = report.to_json_dict()
        json.dumps(doc)
        assert doc["workload_hash"] == tiny_workload().workload_hash
        assert doc["n_jobs"] == 3


# -- determinism ---------------------------------------------------------


class TestDeterminism:
    def test_same_spec_same_report_in_process(self):
        spec = tiny_workload()
        assert WorkloadEngine(spec).run() == WorkloadEngine(spec).run()

    def test_cross_process_reports_are_identical(self):
        # The warehouse contract: the workload hash names one report.
        spec = tiny_workload()
        program = (
            "import json, sys\n"
            "from repro.workload import WorkloadSpec\n"
            "from repro.workload.run import run_workload\n"
            "spec = WorkloadSpec.from_dict(json.loads(sys.argv[1]))\n"
            "doc = run_workload(spec).to_json_dict()\n"
            "print(json.dumps(doc, sort_keys=True))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        digests = [
            subprocess.run(
                [sys.executable, "-c", program, json.dumps(spec.to_dict())],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            ).stdout
            for _ in range(2)
        ]
        assert digests[0] == digests[1]
        local = json.dumps(
            run_workload(spec).to_json_dict(), sort_keys=True
        )
        assert digests[0].strip() == local

    def test_warehouse_replay_matches_fresh_run(self, tmp_path):
        spec = tiny_workload(n_jobs=2)
        runner = SweepRunner(workers=1, cache_dir=str(tmp_path))
        first = run_workload(spec, runner=runner)
        replay = run_workload(
            spec, runner=SweepRunner(workers=1, cache_dir=str(tmp_path))
        )
        assert first == replay
        assert replay == _eval_workload_point(spec)


# -- satellite: SweepRunner.map length mismatches ------------------------


class TestSweepMapKeyValidation:
    def test_keys_length_mismatch_raises(self):
        runner = SweepRunner(workers=1)
        with pytest.raises(ConfigError, match="2 keys for 3 points"):
            runner.map(abs, [1, 2, 3], keys=["a", "b"])

    def test_spec_docs_length_mismatch_raises(self):
        runner = SweepRunner(workers=1)
        with pytest.raises(ConfigError, match="spec docs"):
            runner.map(abs, [1, 2], keys=["a", "b"], spec_docs=["{}"])


# -- CLI surface ---------------------------------------------------------


class TestWorkloadCli:
    def test_show_validate_run_round_trip(self, tmp_path, capsys):
        source = tmp_path / "wl.json"
        spec = tiny_workload(n_jobs=2)
        source.write_text(json.dumps(spec.to_dict()))
        assert main(["workload", "validate", str(source)]) == 0
        out = capsys.readouterr().out
        assert spec.workload_hash in out
        json_path = tmp_path / "report.json"
        assert main(
            ["workload", "run", str(source), "--json", str(json_path)]
        ) == 0
        doc = json.loads(json_path.read_text())
        assert doc["workload_hash"] == spec.workload_hash
        assert doc["n_jobs"] == 2

    def test_run_rejects_bad_source(self, capsys):
        assert main(["workload", "run", "no-such-preset"]) == 1

    def test_spec_dir_batch_study(self, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        specs = [tiny_job(n_tasks=n) for n in (1, 2)]
        for index, spec in enumerate(specs):
            (spec_dir / f"s{index}.json").write_text(
                json.dumps(spec.to_dict())
            )
        assert main(["run", "--spec-dir", str(spec_dir)]) == 0
        out_dir = spec_dir / "results"
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == sorted(
            f"{spec.spec_hash}.json" for spec in specs
        )
        for spec in specs:
            doc = json.loads((out_dir / f"{spec.spec_hash}.json").read_text())
            assert doc["spec"] == spec.to_dict()
            assert doc["metrics"]["total_max"] > 0.0

    def test_spec_dir_requires_json_files(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["run", "--spec-dir", str(empty)]) == 1

    def test_bare_run_errors_cleanly(self, capsys):
        assert main(["run"]) == 1
        assert "--spec-dir" in capsys.readouterr().err


# -- warehouse column mapping --------------------------------------------


def test_extract_columns_maps_workload_report():
    from repro.results.schema import extract_columns

    report = WorkloadEngine(tiny_workload(n_jobs=2)).run()
    columns = extract_columns(report)
    assert columns["engine"] == "workload"
    assert columns["n_nodes"] == report.n_nodes
    assert columns["total_max"] == report.makespan_s
    assert columns["metrics"]["fairness_spread"] == report.fairness_spread
    assert columns["metrics"]["tenant[t0].slowdown_p95"] == (
        report.tenant("t0").slowdown_p95
    )
