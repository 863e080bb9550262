"""The interpreted JSON-schema walker: the oracle for the compiled one.

:func:`oracle_validate` walks a schema document keyword by keyword on
every call, exactly as the published schemas were once validated in
``repro.scenario.schema``.  ``tests/test_schema_compiled.py`` holds the
compiled validators (:func:`repro.scenario.schema.compile_schema`) to
it: on any document, both accept or both raise the same text.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ConfigError

#: Keyword subset the interpreter understands.
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


def _type_matches(value: object, type_name: str) -> bool:
    if type_name == "object":
        return isinstance(value, Mapping)
    if type_name == "array":
        return isinstance(value, (list, tuple))
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "boolean":
        return isinstance(value, bool)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "null":
        return value is None
    raise ConfigError(f"schema bug: unknown type keyword {type_name!r}")


def oracle_validate(value: object, schema: Mapping, path: str) -> None:
    for keyword in schema:
        if keyword not in _SUPPORTED_KEYWORDS:
            raise ConfigError(
                f"schema bug: unsupported keyword {keyword!r} at {path}"
            )
    if "const" in schema and value != schema["const"]:
        raise ConfigError(
            f"{path}: expected {schema['const']!r}, got {value!r}"
        )
    if "type" in schema:
        names = schema["type"]
        if isinstance(names, str):
            names = [names]
        if not any(_type_matches(value, name) for name in names):
            raise ConfigError(
                f"{path}: expected {'/'.join(names)}, got "
                f"{type(value).__name__} ({value!r})"
            )
    if value is None:
        return  # nullable fields carry no further constraints
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(
            f"{path}: {value!r} is not one of {schema['enum']}"
        )
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            raise ConfigError(
                f"{path}: {value!r} is below the minimum {schema['minimum']}"
            )
        if "maximum" in schema and value > schema["maximum"]:
            raise ConfigError(
                f"{path}: {value!r} is above the maximum {schema['maximum']}"
            )
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise ConfigError(
                f"{path}: {value!r} must be greater than "
                f"{schema['exclusiveMinimum']}"
            )
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            raise ConfigError(
                f"{path}: {value!r} must be less than "
                f"{schema['exclusiveMaximum']}"
            )
    if isinstance(value, (list, tuple)) and "items" in schema:
        for index, item in enumerate(value):
            oracle_validate(item, schema["items"], f"{path}[{index}]")
    if isinstance(value, Mapping):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{path}: missing required field {key!r}")
        additional = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in properties:
                oracle_validate(item, properties[key], f"{path}.{key}")
            elif additional is False:
                raise ConfigError(
                    f"{path}: unknown field {key!r}; known fields: "
                    f"{sorted(properties)}"
                )
            elif isinstance(additional, Mapping):
                oracle_validate(item, additional, f"{path}.{key}")
