"""The unified scenario API: spec, builder, presets, plumbing, CLI."""

import json
import re

import pytest

from repro.core import presets
from repro.core.builds import BuildMode
from repro.core.job import PynamicJob
from repro.core.multirank import MultiRankJob
from repro.dist.topology import DistributionSpec, Topology
from repro.elf.symbols import HashStyle
from repro.errors import ConfigError
from repro.harness.cli import main
from repro.harness.sweep import SweepRunner, sweep_scenarios
from repro.machine.osprofile import aix32, linux_chaos
from repro.scenario import (
    Scenario,
    ScenarioSpec,
    scenario_preset,
    scenario_preset_names,
    simulate,
    validate_spec_dict,
)


class TestSpecValidation:
    def test_default_spec_is_valid_and_hashable(self):
        spec = ScenarioSpec()
        assert spec.engine == "analytic"
        assert isinstance(hash(spec), int)
        assert len(spec.spec_hash) == 64

    def test_errors_name_the_offending_field(self):
        cases = [
            (dict(n_tasks=0), "n_tasks"),
            (dict(cores_per_node=0), "cores_per_node"),
            (dict(engine="turbo"), "engine"),
            (dict(os_profile="plan9"), "os_profile"),
            (dict(warm_fraction=1.5), "warm_fraction"),
            (dict(os_jitter_s=-1.0), "os_jitter_s"),
            (dict(straggler_slowdown=0.5), "straggler_slowdown"),
        ]
        for kwargs, field in cases:
            with pytest.raises(ConfigError, match=field):
                ScenarioSpec(**kwargs)

    def test_non_finite_floats_rejected_by_name(self):
        # NaN fails no ``<`` comparison and inf passes the one-sided
        # bounds, so before the explicit isfinite check these poisoned
        # the canonical hash and emitted invalid JSON.
        for field in ("straggler_slowdown", "os_jitter_s", "warm_fraction"):
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigError, match=field):
                    ScenarioSpec(engine="multirank", **{field: value})

    def test_non_finite_distribution_floats_rejected_by_name(self):
        for field in (
            "relay_bandwidth_share",
            "daemon_spawn_s",
            "straggler_relay_slowdown",
        ):
            with pytest.raises(ConfigError, match=field):
                DistributionSpec(**{field: float("nan")})

    def test_node_indices_validated_against_job_size(self):
        with pytest.raises(ConfigError, match="straggler_nodes"):
            ScenarioSpec(
                engine="multirank", n_tasks=8, straggler_nodes=(5,)
            )
        # 8 tasks / 8 cores = 1 node; node 0 is fine at 2 nodes.
        ScenarioSpec(
            engine="multirank",
            n_tasks=16,
            straggler_nodes=(1,),
        )

    def test_heterogeneity_requires_multirank(self):
        with pytest.raises(ConfigError, match="multirank"):
            ScenarioSpec(warm_fraction=0.5)
        with pytest.raises(ConfigError, match="multirank"):
            ScenarioSpec(distribution=DistributionSpec())

    def test_node_collections_normalized_sorted_unique(self):
        spec = ScenarioSpec(
            engine="multirank",
            n_tasks=32,
            cores_per_node=8,
            straggler_nodes=(3, 1, 3),
            warm_nodes=[2, 0],
        )
        assert spec.straggler_nodes == (1, 3)
        assert spec.warm_nodes == (0, 2)

    def test_equal_specs_share_hash_across_spellings(self):
        a = ScenarioSpec(
            engine="multirank", n_tasks=16, warm_fraction=0.5,
            straggler_nodes=(1, 0),
        )
        b = ScenarioSpec(
            engine="multirank", n_tasks=16, warm_fraction=0.5,
            straggler_nodes=[0, 1],
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a.spec_hash == b.spec_hash

    def test_derived_views(self):
        spec = ScenarioSpec(n_tasks=17, cores_per_node=8)
        assert spec.n_nodes == 3
        assert spec.is_homogeneous
        assert spec.seed == spec.config.seed


class TestSerialization:
    def test_round_trip_with_distribution(self):
        spec = ScenarioSpec(
            engine="multirank",
            n_tasks=64,
            cores_per_node=1,
            distribution=DistributionSpec(
                topology=Topology.KARY,
                fanout=4,
                pipelined=True,
                chunk_bytes=1 << 16,
            ),
            node_os_profiles=((0, "bluegene"),),
            os_jitter_s=0.01,
        )
        data = spec.to_dict()
        validate_spec_dict(data)
        again = ScenarioSpec.from_dict(data)
        assert again == spec
        assert again.spec_hash == spec.spec_hash

    def test_json_text_round_trip(self):
        spec = scenario_preset("llnl_multiphysics_scaled")
        again = ScenarioSpec.from_dict(json.loads(spec.canonical_json()))
        assert again == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="n_taskz"):
            ScenarioSpec.from_dict({"version": 1, "n_taskz": 4})
        with pytest.raises(ConfigError, match="modules_n"):
            ScenarioSpec.from_dict({"version": 1, "config": {"modules_n": 4}})
        with pytest.raises(ConfigError, match="warp"):
            ScenarioSpec.from_dict({"version": 1, "scenario": {"warp": 1}})

    def test_from_dict_rejects_bad_enums_with_config_error(self):
        with pytest.raises(ConfigError, match="mode"):
            ScenarioSpec.from_dict({"version": 1, "mode": "static"})
        with pytest.raises(ConfigError, match="topology"):
            ScenarioSpec.from_dict(
                {
                    "version": 1,
                    "engine": "multirank",
                    "distribution": {"topology": "ring"},
                }
            )

    def test_from_dict_rejects_wrong_version(self):
        with pytest.raises(ConfigError, match="version"):
            ScenarioSpec.from_dict({"version": 99})

    def test_missing_optional_keys_take_defaults(self):
        spec = ScenarioSpec.from_dict({"version": 1})
        assert spec == ScenarioSpec()

    def test_int_vs_float_spelling_shares_canonical_hash(self):
        a = ScenarioSpec(engine="multirank", warm_fraction=1)
        b = ScenarioSpec(engine="multirank", warm_fraction=1.0)
        assert a == b
        assert a.spec_hash == b.spec_hash

    def test_size_model_int_vs_float_spelling_shares_hash(self):
        from dataclasses import replace

        from repro.codegen.sizes import SizeModel

        a = ScenarioSpec(
            config=replace(presets.tiny(), size_model=SizeModel(symtab_ratio=2))
        )
        b = ScenarioSpec(
            config=replace(
                presets.tiny(), size_model=SizeModel(symtab_ratio=2.0)
            )
        )
        assert a == b
        assert a.spec_hash == b.spec_hash
        assert ScenarioSpec.from_dict(a.to_dict()) == a


class TestBuilder:
    def test_issue_chain(self):
        spec = (
            Scenario.preset("llnl_multiphysics")
            .nodes(1024)
            .pipelined(chunk_bytes=1 << 20)
            .warm_fraction(0.5)
            .build()
        )
        assert spec.engine == "multirank"
        assert spec.n_tasks == 1024 and spec.cores_per_node == 1
        assert spec.distribution.pipelined
        assert spec.distribution.chunk_bytes == 1 << 20
        assert spec.warm_fraction == 0.5

    def test_builders_are_immutable_and_forkable(self):
        base = Scenario.preset("tiny").nodes(8)
        a = base.distribution("binomial").build()
        b = base.distribution("kary", fanout=4).build()
        assert base.build().distribution is None
        assert a.distribution.topology is Topology.BINOMIAL
        assert b.distribution.topology is Topology.KARY

    def test_engine_auto_selection_and_pinning(self):
        assert Scenario().build().engine == "analytic"
        assert Scenario().jitter(0.1).build().engine == "multirank"
        with pytest.raises(ConfigError, match="multirank"):
            Scenario().engine("analytic").jitter(0.1).build()

    def test_library_set_and_seed(self):
        spec = Scenario.preset("tiny").library_set(n_modules=9).seed(99).build()
        assert spec.config.n_modules == 9
        assert spec.seed == 99

    def test_stragglers_and_profiles(self):
        spec = (
            Scenario.preset("tiny")
            .nodes(4)
            .stragglers(2, slowdown=3.0)
            .node_os_profile(1, "aix32")
            .build()
        )
        assert spec.straggler_nodes == (2,)
        assert spec.straggler_slowdown == 3.0
        assert spec.node_os_profiles == ((1, "aix32"),)
        assert spec.node_profile(1, linux_chaos()) == aix32()
        assert spec.node_profile(0, linux_chaos()) == linux_chaos()

    def test_order_independence(self):
        a = Scenario.preset("tiny").pipelined().nodes(16).build()
        b = Scenario.preset("tiny").nodes(16).pipelined().build()
        assert a == b and a.spec_hash == b.spec_hash

    def test_pipelined_preserves_existing_chunk_bytes(self):
        # Re-asserting .pipelined() must not reset a preset's relay
        # granularity; an explicit None selects whole-image relaying.
        chain = Scenario.preset("llnl_multiphysics_scaled")
        assert chain.pipelined().build().distribution.chunk_bytes == 1 << 20
        assert (
            chain.pipelined(chunk_bytes=None).build().distribution.chunk_bytes
            is None
        )


class TestPresets:
    def test_registry_contents(self):
        names = scenario_preset_names()
        for expected in (
            "tiny",
            "table1",
            "table4",
            "llnl_multiphysics",
            "llnl_multiphysics_scaled",
            "llnl_multiphysics_xl",
        ):
            assert expected in names

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="no_such_preset"):
            scenario_preset("no_such_preset")

    def test_scaled_preset_keeps_full_library_count(self):
        spec = scenario_preset("llnl_multiphysics_scaled")
        full = scenario_preset("llnl_multiphysics")
        assert spec.config.n_libraries == full.config.n_libraries == 495
        assert spec.n_nodes > 1000
        assert spec.engine == "multirank"
        assert spec.distribution.pipelined

    def test_xl_preset_is_the_16k_node_cold_cell(self):
        spec = scenario_preset("llnl_multiphysics_xl")
        scaled = scenario_preset("llnl_multiphysics_scaled")
        assert spec.config.n_libraries == 495  # the full set survives
        assert spec.n_nodes == 16384 and spec.cores_per_node == 1
        assert spec.engine == "multirank"
        assert not spec.warm_file_cache
        assert spec.distribution.pipelined
        # Per-library work is scaled below the 1536-node study's, so the
        # 10.7x node count stays simulable in CI time.
        assert spec.config.avg_functions < scaled.config.avg_functions


class TestJobPlumbing:
    """A spec is the only input of a job, however the spec was spelled."""

    def test_from_scenario_carries_its_spec_without_renormalizing(
        self, tiny_config
    ):
        spec = ScenarioSpec(config=tiny_config, n_tasks=2)
        assert PynamicJob(spec).spec is spec
        multirank = spec.with_(engine="multirank")
        assert MultiRankJob(multirank).spec is multirank

    def test_pregenerated_spec_has_no_declarative_spelling(
        self, tiny_config, tiny_spec
    ):
        # A generated library set is not a job: it rides along with the
        # spec that declares the job, and must match what the spec's
        # config would generate.
        with pytest.raises(ConfigError, match="ScenarioSpec"):
            PynamicJob(tiny_spec)
        spec = ScenarioSpec(
            config=tiny_config, engine="multirank", n_tasks=4,
            cores_per_node=2,
        )
        shared = MultiRankJob(spec, benchmark=tiny_spec).run()
        assert shared == MultiRankJob(spec).run()

    def test_bit_identical_reports_across_spellings(self, tiny_config):
        """Acceptance: the same grid point built directly, through the
        fluent builder and from a JSON document produces bit-identical
        JobReports."""
        direct = ScenarioSpec(
            config=tiny_config,
            engine="multirank",
            n_tasks=4,
            cores_per_node=2,
            os_jitter_s=0.01,
            hash_style=HashStyle.GNU,
        )
        built = (
            Scenario(config=tiny_config)
            .tasks(4, cores_per_node=2)
            .jitter(0.01)
            .hash_style(HashStyle.GNU)
            .build()
        )
        parsed = ScenarioSpec.from_dict(json.loads(direct.canonical_json()))
        assert built == direct == parsed
        report = PynamicJob(direct).run()
        assert report == simulate(built)
        assert report == simulate(parsed)

    def test_bit_identical_analytic_reports(self, tiny_config):
        spec = ScenarioSpec(config=tiny_config, n_tasks=3)
        parsed = ScenarioSpec.from_dict(json.loads(spec.canonical_json()))
        assert PynamicJob(spec).run() == simulate(parsed)

    def test_multirank_from_scenario_rejects_analytic(self, tiny_config):
        with pytest.raises(ConfigError, match="engine"):
            MultiRankJob(ScenarioSpec(config=tiny_config))


class TestSweepCacheUnification:
    """Acceptance: one cache entry per grid point, however spelled."""

    @staticmethod
    def _spellings(config):
        direct = ScenarioSpec(
            config=config, engine="multirank", n_tasks=4, cores_per_node=2
        )
        parsed = ScenarioSpec.from_dict(json.loads(direct.canonical_json()))
        return direct, parsed

    def test_memory_cache_hits_across_spellings(self, tiny_config):
        direct, parsed = self._spellings(tiny_config)
        runner = SweepRunner(workers=1)
        first = sweep_scenarios([direct], runner=runner)
        assert (runner.hits, runner.misses) == (0, 1)
        again = sweep_scenarios([parsed], runner=runner)
        assert (runner.hits, runner.misses) == (1, 1)
        assert first[0] == again[0]

    def test_disk_cache_hits_across_processes_and_spellings(
        self, tiny_config, tmp_path
    ):
        direct, parsed = self._spellings(tiny_config)
        first = SweepRunner(workers=1, cache_dir=tmp_path)
        sweep_scenarios([direct], runner=first)
        assert first.misses == 1
        # A fresh runner (a fresh process, as far as the cache is
        # concerned) spells the same point from its JSON: disk hit.
        second = SweepRunner(workers=1, cache_dir=tmp_path)
        sweep_scenarios([parsed], runner=second)
        assert (second.hits, second.misses) == (1, 0)


class TestSpecCli:
    def test_spec_show_and_validate(self, capsys, tmp_path):
        assert main(["spec", "show", "tiny"]) == 0
        shown = capsys.readouterr().out
        data = json.loads(shown)
        validate_spec_dict(data)
        path = tmp_path / "spec.json"
        path.write_text(shown, encoding="utf-8")
        assert main(["spec", "validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_spec_show_with_overrides(self, capsys):
        assert main(
            [
                "spec", "show", "tiny",
                "--set", "engine=multirank",
                "--set", "config.n_modules=9",
                "--set", "distribution.topology=binomial",
            ]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "multirank"
        assert data["config"]["n_modules"] == 9
        assert data["distribution"]["topology"] == "binomial"

    def test_spec_validate_rejects_bad_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"version": 1, "engine": "warpdrive", "config": {}}),
            encoding="utf-8",
        )
        assert main(["spec", "validate", str(path)]) == 1
        assert "engine" in capsys.readouterr().err

    def test_spec_schema_output(self, capsys):
        from repro.scenario import SCENARIO_JSON_SCHEMA

        assert main(["spec", "schema"]) == 0
        assert json.loads(capsys.readouterr().out) == SCENARIO_JSON_SCHEMA

    def test_spec_presets_listing(self, capsys):
        assert main(["spec", "presets"]) == 0
        out = capsys.readouterr().out
        assert "llnl_multiphysics_scaled" in out and "tiny" in out

    def test_spec_show_unknown_preset_prints_clean_error(self, capsys):
        assert main(["spec", "show", "nosuchpreset"]) == 1
        err = capsys.readouterr().err
        assert "nosuchpreset" in err and "Traceback" not in err

    def test_job_from_spec_file_with_overrides(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        spec = ScenarioSpec(config=presets.tiny(), n_tasks=2)
        path.write_text(spec.canonical_json(), encoding="utf-8")
        assert main(
            [
                "job", "--spec", str(path),
                "--set", "engine=multirank", "--set", "n_tasks=4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "multirank job: 4 tasks" in out

    def test_job_from_preset_name(self, capsys):
        assert main(["job", "--spec", "tiny"]) == 0
        assert "analytic job: 1 tasks" in capsys.readouterr().out

    def test_job_set_distribution_auto_selects_multirank(self, capsys):
        # The docstring's own example: adding an overlay to an analytic
        # spec upgrades the engine like the fluent builder does.
        assert main(
            [
                "job", "--spec", "tiny",
                "--set", "distribution.pipelined=true",
                "--set", "n_tasks=4", "--set", "cores_per_node=1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "multirank job: 4 tasks" in out
        assert "distribution=binomial" in out

    @staticmethod
    def _clean_error(capsys, argv, match):
        """``job`` rejects a bad spec with one stderr line and exit 1."""
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert re.search(match, captured.err)
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""

    def test_job_set_engine_pin_beats_auto_selection(self, capsys):
        self._clean_error(
            capsys,
            [
                "job", "--spec", "tiny",
                "--set", "engine=analytic",
                "--set", "distribution.topology=binomial",
            ],
            "multirank",
        )

    def test_job_set_rejects_unknown_field(self, capsys):
        self._clean_error(
            capsys,
            ["job", "--spec", "tiny", "--set", "bogus_knob=1"],
            "bogus_knob",
        )

    def test_job_set_requires_key_value(self, capsys):
        self._clean_error(
            capsys, ["job", "--spec", "tiny", "--set", "engine"], "KEY=VALUE"
        )

    def test_job_unknown_preset_prints_clean_error(self, capsys):
        self._clean_error(
            capsys, ["job", "--spec", "nosuchpreset"], "nosuchpreset"
        )

    def test_job_invalid_override_value_prints_clean_error(self, capsys):
        self._clean_error(
            capsys,
            ["job", "--spec", "tiny", "--set", "n_tasks=0"],
            "n_tasks: need at least one task",
        )

    def test_job_requires_a_spec(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["job"])
        assert exit_info.value.code == 2
        assert "--spec" in capsys.readouterr().err
