"""The C argument types and function signatures Pynamic generates.

Section III: "The function signatures vary from zero to five arguments of
standard C types (int, long, float, double, char *)."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.rng import SeededRng

#: Paper-specified bounds on generated signature arity.
MIN_ARGS = 0
MAX_ARGS = 5


class CType(enum.Enum):
    """The five standard C argument types the generator uses."""

    INT = "int"
    LONG = "long"
    FLOAT = "float"
    DOUBLE = "double"
    CHAR_PTR = "char *"

    @property
    def default_value(self) -> str:
        """A literal of this type for generated call sites."""
        return {
            CType.INT: "1",
            CType.LONG: "1L",
            CType.FLOAT: "1.0f",
            CType.DOUBLE: "1.0",
            CType.CHAR_PTR: '"x"',
        }[self]


#: Every :class:`CType` in definition order: the draw table of
#: :meth:`Signature.random`, built once instead of per argument.
C_TYPES: tuple[CType, ...] = tuple(CType)


@dataclass(frozen=True)
class Signature:
    """A generated function signature: fixed int return, 0-5 typed args."""

    args: tuple[CType, ...]
    return_type: str = "int"

    def __post_init__(self) -> None:
        if not MIN_ARGS <= len(self.args) <= MAX_ARGS:
            raise ConfigError(
                f"signature arity {len(self.args)} outside "
                f"[{MIN_ARGS}, {MAX_ARGS}]"
            )

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    def parameter_list(self) -> str:
        """C parameter list text, e.g. ``int a0, char * a1`` or ``void``."""
        if not self.args:
            return "void"
        return ", ".join(
            f"{ctype.value} a{i}" for i, ctype in enumerate(self.args)
        )

    def argument_list(self) -> str:
        """C call-site argument text using default literals."""
        return ", ".join(ctype.default_value for ctype in self.args)

    @staticmethod
    def random(rng: SeededRng) -> "Signature":
        """Draw a signature uniformly: arity 0-5, types uniform."""
        arity = rng.randint(MIN_ARGS, MAX_ARGS)
        types = tuple(rng.choice(C_TYPES) for _ in range(arity))
        return Signature(args=types)
