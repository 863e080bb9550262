"""The experiment harness: registry, CLI, fast experiments end-to-end."""

import pytest

from repro.errors import ConfigError
from repro.harness.cli import build_parser, main
from repro.harness.experiments import (
    ExperimentResult,
    all_experiment_names,
    run_experiment,
)


class TestRegistry:
    def test_all_experiments_registered(self):
        names = all_experiment_names()
        for expected in (
            "table1",
            "table2",
            "table3",
            "table4",
            "costmodel",
            "scaling_dlls",
            "scaling_dll_size",
            "scaling_nfs",
            "ablation_coverage",
            "ablation_randomization",
            "ablation_name_length",
            "mitigation",
            "table4_multirank",
        ):
            assert expected in names

    def test_overrides_reach_only_accepting_factories(self):
        # table3 declares no parameters: unknown overrides are dropped
        # with a warning rather than exploding or silently steering the
        # user into misattributed results.
        with pytest.warns(UserWarning, match="does not take"):
            result = run_experiment(
                "table3", engine="multirank", node_counts=[2]
            )
        assert result.tables

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment("table99")

    def test_result_render(self):
        result = ExperimentResult(name="x", paper_reference="Table 0")
        result.add_table("t", ["a"], [["v"]])
        result.notes.append("note text")
        text = result.render()
        assert "Table 0" in text and "note text" in text


class TestFastExperiments:
    """The experiments that run in well under a second."""

    def test_table3(self):
        result = run_experiment("table3")
        # The Pynamic-model column must land close to the paper's.
        for key, value in result.metrics.items():
            if key.startswith("rel_err_"):
                assert value < 0.10, f"{key} off by {value:.2%}"
        assert result.metrics["analytic_vs_exact_error"] < 0.05

    def test_costmodel(self):
        result = run_experiment("costmodel")
        assert result.metrics["minutes_with_reinsertion"] == pytest.approx(
            83.3, abs=0.5
        )
        assert (
            result.metrics["ptrace_event_reinsert_s"]
            > result.metrics["ptrace_event_plain_s"]
        )

    def test_scaling_nfs(self):
        result = run_experiment("scaling_nfs")
        assert result.metrics["nfs_over_pfs_at_1024"] > 10
        assert result.metrics["nfs_degradation_16_to_1024"] > 10


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "table4" in out

    def test_run_command(self, capsys):
        assert main(["run", "costmodel"]) == 0
        out = capsys.readouterr().out
        assert "83" in out

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_unknown_experiment_exits_1(self, capsys):
        assert main(["run", "bogus"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("unknown experiment 'bogus'; available: ")

    def test_run_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main(["run", "costmodel", "--json", str(out_path)]) == 0
        import json

        payload = json.loads(out_path.read_text())
        assert "costmodel" in payload
        assert payload["costmodel"]["metrics"]["minutes_with_reinsertion"] > 0

    #: A small library set and a 4-node binomial overlay, as --set edits.
    SMALL = [
        "--spec", "tiny",
        "--set", "config.n_modules=3", "--set", "config.n_utilities=2",
        "--set", "config.avg_functions=8",
    ]
    OVERLAY = [
        "--set", "n_tasks=4", "--set", "cores_per_node=1",
        "--set", "engine=multirank", "--set", "distribution.topology=binomial",
    ]

    def test_job_command_with_distribution(self, capsys):
        assert main(["job", *self.SMALL, *self.OVERLAY]) == 0
        out = capsys.readouterr().out
        assert "distribution=binomial" in out
        assert "staging" in out

    def test_job_staging_only_runs_just_the_overlay_pass(self, capsys):
        assert main(
            ["job", *self.SMALL, *self.OVERLAY, "--staging-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "staging-only" in out
        assert "makespan" in out
        assert "relay sends" in out
        # The per-rank report lines must NOT appear: the job was skipped.
        assert "multirank job:" not in out

    def test_job_staging_only_needs_a_distribution(self, capsys):
        assert main(
            [
                "job", *self.SMALL,
                "--set", "n_tasks=4", "--set", "engine=multirank",
                "--staging-only",
            ]
        ) == 1
        # The spec hash line, then the error: no traceback.
        spec_line, error = capsys.readouterr().err.strip().splitlines()
        assert spec_line.startswith("spec ")
        assert error == (
            "distribution: a staging cell needs an overlay to stage with"
        )

    def test_job_profile_prints_hot_functions(self, capsys):
        assert main(
            ["job", *self.SMALL, "--set", "n_tasks=2", "--profile", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "cProfile top 5 by own time" in out
        assert "tottime" in out

    def test_job_command_analytic_default(self, capsys):
        assert main(["job", *self.SMALL, "--set", "n_tasks=2"]) == 0
        out = capsys.readouterr().out
        assert "analytic job" in out

    def test_job_rejects_distribution_on_analytic_engine(self, capsys):
        assert main(
            [
                "job", *self.SMALL,
                "--set", "engine=analytic",
                "--set", "distribution.topology=binomial",
            ]
        ) == 1
        assert "requires engine='multirank'" in capsys.readouterr().err
