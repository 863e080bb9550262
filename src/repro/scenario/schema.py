"""The published JSON schema for serialized :class:`ScenarioSpec`s.

:data:`SCENARIO_JSON_SCHEMA` is a draft-07-style document describing
exactly what :meth:`ScenarioSpec.to_dict` emits and
:meth:`ScenarioSpec.from_dict` accepts; a golden test pins it so schema
drift is an explicit, reviewed change.  :func:`compile_schema` turns
the schema itself into nested validator closures (for the keyword
subset the schema uses), so the document *is* the validator — no
external ``jsonschema`` dependency, and no way for the two to disagree.
The scenario, workload and fault schemas each compile once per process.
"""

from __future__ import annotations

from collections import abc
from typing import Callable, Mapping

from repro.core.builds import BuildMode
from repro.dist.topology import SOURCES, Topology
from repro.elf.symbols import HashStyle
from repro.errors import ConfigError
from repro.faults.schema import FAULT_JSON_SCHEMA
from repro.scenario.spec import ENGINES, OS_PROFILES, SPEC_VERSION

#: Keyword subset the schema compiler understands.
_SUPPORTED_KEYWORDS = frozenset(
    {
        "$schema",
        "title",
        "description",
        "type",
        "enum",
        "const",
        "properties",
        "required",
        "additionalProperties",
        "items",
        "minimum",
        "maximum",
        "exclusiveMinimum",
        "exclusiveMaximum",
    }
)

#: A compiled schema: ``check(document, path)`` raises or returns None.
Validator = Callable[[object, str], None]

#: The classes each JSON type name accepts (``boolean`` is special-cased:
#: bool is an int subclass that only ``boolean`` accepts).
_TYPE_CLASSES = {
    "object": (dict, abc.Mapping),
    "array": (list, tuple),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "null": (type(None),),
}

#: id(schema) -> (schema, its compiled validator).
_COMPILED: "dict[int, tuple[Mapping, Validator]]" = {}

# Enums are derived from the registries/enums they describe, so the
# schema cannot drift from the code — only from the golden test.
_OS_PROFILE_NAMES = sorted(OS_PROFILES)

_NODE_ARRAY = {
    "type": "array",
    "items": {"type": "integer", "minimum": 0},
}

_SIZE_MODEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "text_bytes_per_instruction": {"type": "number", "exclusiveMinimum": 0},
        "prologue_bytes": {"type": "integer", "minimum": 0},
        "per_argument_bytes": {"type": "integer", "minimum": 0},
        "per_call_bytes": {"type": "integer", "minimum": 0},
        "alignment_bytes": {"type": "integer", "minimum": 1},
        "entry_overhead_bytes": {"type": "integer", "minimum": 0},
        "init_bytes": {"type": "integer", "minimum": 0},
        "data_bytes_per_function": {"type": "integer", "minimum": 0},
        "data_library_base": {"type": "integer", "minimum": 0},
        "debug_bytes_per_function": {"type": "integer", "minimum": 0},
        "debug_library_base": {"type": "integer", "minimum": 0},
        "symtab_ratio": {"type": "number", "minimum": 1},
    },
}

_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "n_modules": {"type": "integer", "minimum": 1},
        "n_utilities": {"type": "integer", "minimum": 0},
        "avg_functions": {"type": "integer", "minimum": 1},
        "avg_utility_functions": {"type": ["integer", "null"], "minimum": 1},
        "functions_spread": {
            "type": "number",
            "minimum": 0,
            "exclusiveMaximum": 1,
        },
        "seed": {"type": "integer"},
        "max_depth": {"type": "integer", "minimum": 1},
        "enable_cross_module": {"type": "boolean"},
        "cross_module_probability": {"type": "number", "minimum": 0, "maximum": 1},
        "utility_call_probability": {"type": "number", "minimum": 0, "maximum": 1},
        "libc_call_probability": {"type": "number", "minimum": 0, "maximum": 1},
        "avg_body_instructions": {"type": "integer", "minimum": 1},
        "memory_bytes_per_function": {"type": "integer", "minimum": 0},
        "body_spread": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        "name_length": {"type": "integer", "minimum": 0},
        "coverage": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "mpi_test": {"type": "boolean"},
        "size_model": _SIZE_MODEL_SCHEMA,
    },
}

_SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "straggler_nodes": _NODE_ARRAY,
        "straggler_slowdown": {"type": "number", "minimum": 1},
        "os_jitter_s": {"type": "number", "minimum": 0},
        "warm_fraction": {"type": "number", "minimum": 0, "maximum": 1},
        "warm_nodes": _NODE_ARRAY,
        "node_os_profiles": {
            "type": "object",
            "additionalProperties": {"type": "string", "enum": _OS_PROFILE_NAMES},
        },
    },
}

_DISTRIBUTION_SCHEMA = {
    "type": ["object", "null"],
    "additionalProperties": False,
    "properties": {
        "topology": {
            "type": "string",
            "enum": [member.value for member in Topology],
        },
        "fanout": {"type": "integer", "minimum": 1},
        "source": {"type": "string", "enum": list(SOURCES)},
        "relay_bandwidth_share": {
            "type": "number",
            "exclusiveMinimum": 0,
            "maximum": 1,
        },
        "pipelined": {"type": "boolean"},
        "chunk_bytes": {"type": ["integer", "null"], "minimum": 1},
        "daemon_spawn_s": {"type": "number", "minimum": 0},
        "straggler_relay_nodes": _NODE_ARRAY,
        "straggler_relay_slowdown": {"type": "number", "minimum": 1},
    },
}

#: The published schema for a serialized ScenarioSpec (version 1).
SCENARIO_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "ScenarioSpec",
    "description": (
        "One declarative parameterization of a simulated Pynamic "
        "measurement: machine + library set + engine + warm mix + "
        "distribution overlay + heterogeneity + seed."
    ),
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "engine", "config"],
    "properties": {
        "version": {"const": SPEC_VERSION},
        "engine": {"type": "string", "enum": list(ENGINES)},
        "mode": {
            "type": "string",
            "enum": [member.value for member in BuildMode],
        },
        "n_tasks": {"type": "integer", "minimum": 1},
        "cores_per_node": {"type": "integer", "minimum": 1},
        "warm_file_cache": {"type": "boolean"},
        "os_profile": {"type": "string", "enum": _OS_PROFILE_NAMES},
        "hash_style": {
            "type": "string",
            "enum": [member.value for member in HashStyle],
        },
        "prelink": {"type": "boolean"},
        "config": _CONFIG_SCHEMA,
        "scenario": _SCENARIO_SCHEMA,
        "distribution": _DISTRIBUTION_SCHEMA,
        "faults": FAULT_JSON_SCHEMA,
    },
}


def _accepted_classes(names: "list[str]") -> "tuple[tuple, bool]":
    """The classes a ``type`` keyword's names accept, and whether bool
    is one of them (bool is an int subclass only ``boolean`` accepts)."""
    classes: list = []
    for name in names:
        if name not in _TYPE_CLASSES and name != "boolean":
            raise ConfigError(f"schema bug: unknown type keyword {name!r}")
        classes.extend(_TYPE_CLASSES.get(name, ()))
    return tuple(dict.fromkeys(classes)), "boolean" in names


def _compile(schema: Mapping) -> Validator:
    """A validator closure for one schema node (sub-schemas compiled
    through :func:`compile_schema`, so a shared node compiles once).

    Every check runs in the interpreter's order and raises its text.
    """
    for keyword in schema:
        if keyword not in _SUPPORTED_KEYWORDS:
            raise ConfigError(
                f"schema bug: unsupported keyword {keyword!r} in {schema!r}"
            )
    has_const = "const" in schema
    const = schema.get("const")
    names = schema.get("type")
    if isinstance(names, str):
        names = [names]
    typed = names is not None
    accepted, allow_bool = _accepted_classes(names) if typed else ((), False)
    type_label = "/".join(names) if typed else ""
    enum = schema.get("enum")
    try:
        enum_set = frozenset(enum or ())
    except TypeError:  # an unhashable member: every lookup scans the list
        enum_set = frozenset()
    minimum = schema.get("minimum")
    maximum = schema.get("maximum")
    above = schema.get("exclusiveMinimum")
    below = schema.get("exclusiveMaximum")
    bounded = any(
        limit is not None for limit in (minimum, maximum, above, below)
    )
    items = compile_schema(schema["items"]) if "items" in schema else None
    properties = {
        key: compile_schema(sub)
        for key, sub in schema.get("properties", {}).items()
    }
    required = tuple(schema.get("required", ()))
    additional = schema.get("additionalProperties", True)
    reject_unknown = additional is False
    additional_check = (
        compile_schema(additional) if isinstance(additional, Mapping) else None
    )
    known = sorted(properties)
    checks_mapping = bool(
        properties or required or reject_unknown or additional_check
    )

    def check(value: object, path: str) -> None:
        if has_const and value != const:
            raise ConfigError(f"{path}: expected {const!r}, got {value!r}")
        if typed and not (
            allow_bool if value.__class__ is bool else isinstance(value, accepted)
        ):
            raise ConfigError(
                f"{path}: expected {type_label}, got "
                f"{type(value).__name__} ({value!r})"
            )
        if value is None:
            return  # nullable fields carry no further constraints
        if enum is not None:
            try:
                found = value in enum_set
            except TypeError:  # unhashable: the list's == scan
                found = False
            if not found and value not in enum:
                raise ConfigError(f"{path}: {value!r} is not one of {enum}")
        if bounded and value.__class__ is not bool and isinstance(
            value, (int, float)
        ):
            if minimum is not None and value < minimum:
                raise ConfigError(
                    f"{path}: {value!r} is below the minimum {minimum}"
                )
            if maximum is not None and value > maximum:
                raise ConfigError(
                    f"{path}: {value!r} is above the maximum {maximum}"
                )
            if above is not None and value <= above:
                raise ConfigError(
                    f"{path}: {value!r} must be greater than {above}"
                )
            if below is not None and value >= below:
                raise ConfigError(f"{path}: {value!r} must be less than {below}")
        if items is not None and isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                items(item, f"{path}[{index}]")
        if checks_mapping and (
            value.__class__ is dict or isinstance(value, abc.Mapping)
        ):
            for key in required:
                if key not in value:
                    raise ConfigError(f"{path}: missing required field {key!r}")
            for key, item in value.items():
                sub = properties.get(key)
                if sub is not None:
                    sub(item, f"{path}.{key}")
                elif reject_unknown:
                    raise ConfigError(
                        f"{path}: unknown field {key!r}; known fields: {known}"
                    )
                elif additional_check is not None:
                    additional_check(item, f"{path}.{key}")

    return check


def compile_schema(schema: Mapping) -> Validator:
    """The validator for ``schema``: ``check(document, path)`` raises a
    :class:`ConfigError` naming the first violation, or returns None.

    The schema is walked once, here, into nested closures (one per
    schema node) that hold its keywords as precomputed locals, so a
    document is checked without re-reading the schema.  Each schema
    object compiles once per process.  The error text is that of the
    keyword-by-keyword interpreter in ``tests/schema_oracle.py``, the
    test oracle.
    """
    entry = _COMPILED.get(id(schema))
    if entry is not None and entry[0] is schema:
        return entry[1]
    check = _compile(schema)
    # The schema rides along so its id cannot be reused while cached.
    _COMPILED[id(schema)] = (schema, check)
    return check


def validate_document(data: object, schema: Mapping, path: str = "document") -> None:
    """Validate any document against a schema with its compiled validator.

    The public spelling of the check behind :func:`validate_spec_dict`,
    for sibling schemas that *embed* :data:`SCENARIO_JSON_SCHEMA` (the
    workload layer's ``WORKLOAD_JSON_SCHEMA``) so one compiler serves
    every published document shape.  ``path`` prefixes error messages.
    """
    compile_schema(schema)(data, path)


_check_spec = compile_schema(SCENARIO_JSON_SCHEMA)


def validate_spec_dict(data: object) -> None:
    """Validate a spec document against :data:`SCENARIO_JSON_SCHEMA`.

    Raises :class:`repro.errors.ConfigError` with a JSON-path message on
    the first violation; returns None when the document conforms.
    """
    if not isinstance(data, abc.Mapping):
        raise ConfigError(
            f"spec: expected a JSON object, got {type(data).__name__}"
        )
    _check_spec(data, "spec")


def parse_spec_document(data: object) -> "ScenarioSpec":
    """Validate-and-build: one entry for every spec-accepting frontend.

    Schema-validates ``data`` (field-naming :class:`ConfigError` on the
    first violation), then builds the frozen
    :class:`~repro.scenario.spec.ScenarioSpec` — whose ``spec_hash`` is
    the canonical identity the CLI (``spec hash``/``spec validate``)
    and the simulation service key on.  Guarantees both frontends can
    never diverge on what a document hashes to.
    """
    validate_spec_dict(data)
    from repro.scenario.spec import ScenarioSpec

    return ScenarioSpec.from_dict(data)
