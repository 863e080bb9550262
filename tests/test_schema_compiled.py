"""The compiled schema validators against the interpreter they replaced.

``repro.scenario.schema.compile_schema`` turns each published schema
into nested closures; ``tests/schema_oracle.py`` keeps the
keyword-by-keyword interpreter.  Hypothesis mutates valid scenario,
workload and fault documents (replaced, deleted, added and nudged
fields, at any depth), and both must accept or reject every one with
the same error text.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.faults import BrownoutWindow, FaultSpec, LinkFault, RelayCrash
from repro.faults.schema import FAULT_JSON_SCHEMA
from repro.scenario import scenario_preset, scenario_preset_names
from repro.scenario.schema import (
    SCENARIO_JSON_SCHEMA,
    compile_schema,
    validate_spec_dict,
)
from repro.workload import workload_preset, workload_preset_names
from repro.workload.spec import WORKLOAD_JSON_SCHEMA, validate_workload_dict

from schema_oracle import oracle_validate

_FAULTS = FaultSpec(
    crashes=(RelayCrash(node=1, at_progress=0.5), RelayCrash(node=2, at_s=0.25)),
    brownouts=(BrownoutWindow(start_s=0.1, end_s=0.4, bandwidth_factor=0.5),),
    links=(LinkFault(node=3, loss_probability=0.1),),
    seed=7,
)

SCENARIOS = [scenario_preset(name).to_dict() for name in scenario_preset_names()]
SCENARIOS.append(
    scenario_preset("llnl_multiphysics_scaled").with_(faults=_FAULTS).to_dict()
)
WORKLOADS = [workload_preset(name).to_dict() for name in workload_preset_names()]
FAULTS = [_FAULTS.to_dict()]

#: Strings the schemas' enums hold, so mutations hit enum members too.
_WORDS = [
    "analytic", "multirank", "vanilla", "link", "prelink", "sysv", "gnu",
    "binomial", "flat", "nfs", "pfs", "fifo", "poisson", "linux_chaos",
]
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 0.0, 0.5, 1.0, 1.5, 2]),
    st.text(max_size=6),
    st.sampled_from(_WORDS),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_WORDS + ["seed", "node"]), children, max_size=3),
    max_leaves=5,
)


def _slots(value, trail=()):
    """Every (container path, key) in a document, depth first."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield trail, key
            yield from _slots(item, trail + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield trail, index
            yield from _slots(item, trail + (index,))


def _container(document, trail):
    for key in trail:
        document = document[key]
    return document


def _mutate(data, document):
    document = copy.deepcopy(document)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        slots = [((), None)] + list(_slots(document))
        trail, key = data.draw(st.sampled_from(slots), label="slot")
        if key is None:  # the whole document
            if data.draw(st.booleans(), label="replace root"):
                return data.draw(_VALUES, label="root")
            continue
        parent = _container(document, trail)
        operation = data.draw(
            st.sampled_from(["replace", "delete", "add", "nudge"]), label="op"
        )
        if operation == "replace":
            parent[key] = data.draw(_VALUES, label="value")
        elif operation == "delete":
            del parent[key]
        elif operation == "add":
            if isinstance(parent, dict):
                name = data.draw(st.sampled_from(_WORDS + ["extra"]), label="key")
                parent[name] = data.draw(_VALUES, label="value")
            else:
                parent.append(data.draw(_VALUES, label="value"))
        else:
            value = parent[key]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                delta = data.draw(st.sampled_from([-2, -1, -0.5, 0.5, 1]), label="delta")
                nudged = value + delta
                parent[key] = (
                    nudged if not isinstance(nudged, float) or math.isfinite(nudged) else 0
                )
    return document


def _outcome(check):
    try:
        check()
    except ConfigError as exc:
        return str(exc)
    return None


def _agree(document, schema, path):
    compiled = _outcome(lambda: compile_schema(schema)(document, path))
    oracle = _outcome(lambda: oracle_validate(document, schema, path))
    assert compiled == oracle
    return compiled


def test_valid_documents_pass_both():
    for document in SCENARIOS:
        assert _agree(document, SCENARIO_JSON_SCHEMA, "spec") is None
    for document in WORKLOADS:
        assert _agree(document, WORKLOAD_JSON_SCHEMA, "workload") is None
    for document in FAULTS:
        assert _agree(document, FAULT_JSON_SCHEMA, "faults") is None


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_scenarios_agree(data):
    document = _mutate(data, data.draw(st.sampled_from(SCENARIOS), label="base"))
    verdict = _agree(document, SCENARIO_JSON_SCHEMA, "spec")
    if isinstance(document, dict):
        assert _outcome(lambda: validate_spec_dict(document)) == verdict


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_workloads_agree(data):
    document = _mutate(data, data.draw(st.sampled_from(WORKLOADS), label="base"))
    verdict = _agree(document, WORKLOAD_JSON_SCHEMA, "workload")
    if isinstance(document, dict):
        assert _outcome(lambda: validate_workload_dict(document)) == verdict


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_fault_blocks_agree(data):
    document = _mutate(data, data.draw(st.sampled_from(FAULTS), label="base"))
    _agree(document, FAULT_JSON_SCHEMA, "faults")


def test_each_schema_compiles_once():
    assert compile_schema(SCENARIO_JSON_SCHEMA) is compile_schema(SCENARIO_JSON_SCHEMA)


def test_a_schema_bug_fails_at_compile_time():
    with pytest.raises(ConfigError, match="unsupported keyword 'pattern'"):
        compile_schema({"type": "object", "pattern": "x"})
