"""Tier-1 registry smoke: every experiment runs and declares its grid.

Iterates the full experiment ``REGISTRY`` in smoke mode against a fresh
results warehouse, renders each result the way ``--json`` does, and
validates the emitted ``scenarios`` block against the published
ScenarioSpec schema — so an experiment that is unregistered, declares
no grid, or drifts from the schema fails CI here rather than in a
downstream consumer of the JSON payloads.  Every simulated cell must
also land in the warehouse as one of the specs the experiment declared.
"""

import json

import pytest

from repro.harness.cli import main
from repro.harness.experiments import all_experiment_names, run_experiment
from repro.results import ResultsWarehouse
from repro.scenario import ScenarioSpec, validate_spec_dict

#: Experiments that must exist — a registration that goes missing (a
#: renamed module, a dropped import) fails here explicitly.
EXPECTED_EXPERIMENTS = (
    "ablation_body_memory",
    "ablation_coverage",
    "ablation_hash_style",
    "ablation_name_length",
    "ablation_prelink",
    "ablation_randomization",
    "costmodel",
    "job_scaling",
    "mitigation",
    "mitigation_scaled",
    "resilience",
    "rush_hour",
    "scaling_dll_size",
    "scaling_dlls",
    "scaling_nfs",
    "staging_strategies",
    "table1",
    "table2",
    "table3",
    "table4",
    "table4_multirank",
)


#: Experiments that simulate no ScenarioSpec cell: closed forms, section
#: sizes, and the debugger-startup studies, which keep their own setup.
NO_SIMULATED_CELLS = (
    "ablation_randomization",
    "costmodel",
    "scaling_nfs",
    "staging_strategies",
    "table3",
    "table4",
    "table4_multirank",
)

#: Warehouse rows keyed on a ScenarioSpec's canonical hash.
SPEC_CELL_FUNCS = ("_eval_scenario_point", "eval_staging_point")


def test_expected_experiments_are_registered():
    names = all_experiment_names()
    missing = [name for name in EXPECTED_EXPERIMENTS if name not in names]
    assert not missing, f"unregistered experiments: {missing}"


@pytest.mark.parametrize("name", EXPECTED_EXPERIMENTS)
def test_experiment_smoke_emits_schema_valid_spec_block(name, tmp_path):
    result = run_experiment(name, smoke=True, cache_dir=str(tmp_path))
    payload = result.to_json_dict()
    assert payload["tables"] or payload["metrics"], f"{name}: empty result"
    scenarios = payload["scenarios"]
    assert scenarios, f"{name}: declares no ScenarioSpec grid"
    declared = set()
    for scenario in scenarios:
        validate_spec_dict(scenario)
        # The block must also round-trip into a live spec (the schema
        # alone cannot check cross-field rules like node ranges).
        declared.add(ScenarioSpec.from_dict(scenario).spec_hash)
    with ResultsWarehouse.for_cache_dir(str(tmp_path)) as store:
        rows = store.rows()
    if name in NO_SIMULATED_CELLS:
        assert not rows, f"{name}: simulated cells it does not declare"
        return
    assert rows, f"{name}: simulated no cell through the warehouse"
    assert payload["metrics"]["sweep_cache_misses"] >= 1
    for row in rows:
        if row["func"] in SPEC_CELL_FUNCS:
            assert row["result_key"] in declared, (name, row["func"])


def test_cli_smoke_json_payload_carries_spec_block(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["run", "job_scaling", "--smoke", "--json", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    scenarios = payload["job_scaling"]["scenarios"]
    assert scenarios
    for scenario in scenarios:
        validate_spec_dict(scenario)


def test_cli_table1_replays_from_cache_dir(tmp_path):
    cache = str(tmp_path / "cache")
    payloads = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.json"
        argv = ["run", "table1", "--smoke", "--cache-dir", cache]
        assert main([*argv, "--json", str(out)]) == 0
        payloads.append(json.loads(out.read_text(encoding="utf-8"))["table1"])
    first, second = payloads
    assert first["metrics"]["sweep_cache_misses"] == 3.0
    assert second["metrics"]["sweep_cache_misses"] == 0.0
    assert second["metrics"]["sweep_cache_hits"] == 3.0
    assert second["tables"] == first["tables"]
