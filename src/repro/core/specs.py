"""Intermediate representation of a generated benchmark.

The generator (Section III) produces *specs* — pure-data descriptions of
every module, utility library and function.  Downstream consumers render
them three ways:

- :mod:`repro.core.builds` lowers them to simulated ELF objects,
- :mod:`repro.codegen.emitter` renders them as real C source text,
- :mod:`repro.core.driver` interprets them as the visit-time call graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.codegen.ctypes_ import Signature
from repro.errors import GenerationError


@dataclass(frozen=True)
class FunctionSpec:
    """One generated C function."""

    name: str
    index: int
    signature: Signature
    body_instructions: int
    text_bytes: int
    #: Symbol name of the next function in this module's call chain
    #: (None for chain tails and utility functions).
    internal_callee: str | None = None
    #: Utility-library function symbols this function calls.
    utility_calls: tuple[str, ...] = ()
    #: Cross-module entry symbols this function calls (Section III:
    #: "an additional function per module that can be called by other
    #: modules").
    cross_module_calls: tuple[str, ...] = ()
    #: libc symbols this function calls (malloc, printf, ...).
    libc_calls: tuple[str, ...] = ()
    #: Static data bytes the body reads when executed (Section V
    #: future-work body variation; 0 = compute-only, the paper's shape).
    data_touch_bytes: int = 0
    #: Byte offset of this function's data region within its library's
    #: .data section (assigned cumulatively by the generator).
    data_offset: int = 0

    @property
    def n_calls(self) -> int:
        """Total call sites in the body."""
        return (
            (1 if self.internal_callee else 0)
            + len(self.utility_calls)
            + len(self.cross_module_calls)
            + len(self.libc_calls)
        )


@dataclass(frozen=True)
class LibrarySpec:
    """Common shape of modules and utility libraries."""

    name: str
    soname: str
    path: str
    functions: tuple[FunctionSpec, ...]

    def __post_init__(self) -> None:
        if not self.functions:
            raise GenerationError(f"{self.name} generated with no functions")

    @cached_property
    def function_by_name(self) -> dict[str, FunctionSpec]:
        """Name -> spec index for the visit engine."""
        return {func.name: func for func in self.functions}

    @property
    def n_functions(self) -> int:
        """Number of generated functions (excluding entry/init)."""
        return len(self.functions)


@dataclass(frozen=True)
class UtilitySpec(LibrarySpec):
    """A pure-C utility library (external dependency stand-in)."""


@dataclass(frozen=True)
class ModuleSpec(LibrarySpec):
    """A Python-callable module."""

    #: Symbol name of the single Python-callable entry function.
    entry_name: str = ""
    #: Symbol name of the module init function (what dlsym finds).
    init_name: str = ""
    #: Symbol name of the cross-module-callable function (if enabled).
    cross_name: str | None = None
    #: sonames of the utility libraries this module links against.
    utility_deps: tuple[str, ...] = ()
    #: sonames of other Python modules this module depends on (Section
    #: III: "some Python modules are further dependent on other Python
    #: modules").
    module_deps: tuple[str, ...] = ()
    #: Chain-head function names the entry visits, in order ("the entry
    #: function calls every tenth function within that module").
    chain_heads: tuple[str, ...] = ()
    #: Byte size of the entry function's text.
    entry_text_bytes: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.entry_name or not self.init_name:
            raise GenerationError(f"{self.name} is missing entry/init names")


@dataclass(frozen=True)
class SystemLibSpec:
    """A base system library (libc, libm, libpython, libmpi, ld-linux).

    These stand in for the non-generated DSOs every real process maps;
    they anchor the front of every search scope.
    """

    name: str
    soname: str
    path: str
    symbol_names: tuple[str, ...]
    #: Average text bytes per exported function.
    text_bytes_per_symbol: int = 160

    @property
    def n_symbols(self) -> int:
        """Exported symbol count."""
        return len(self.symbol_names)


@dataclass(frozen=True)
class BenchmarkSpec:
    """A complete generated benchmark."""

    config: "object"
    modules: tuple[ModuleSpec, ...]
    utilities: tuple[UtilitySpec, ...]
    system_libs: tuple[SystemLibSpec, ...]
    #: Function names per library for quick totals.
    executable_name: str = "pyMPI"

    @property
    def n_generated_libraries(self) -> int:
        """Modules + utilities (the paper's DLL count)."""
        return len(self.modules) + len(self.utilities)

    @property
    def total_functions(self) -> int:
        """All generated functions across modules and utilities."""
        return sum(m.n_functions for m in self.modules) + sum(
            u.n_functions for u in self.utilities
        )

    def module(self, name: str) -> ModuleSpec:
        """Look up a module spec by name."""
        for module in self.modules:
            if module.name == name:
                return module
        raise GenerationError(f"no module named {name!r}")

    def utility(self, name: str) -> UtilitySpec:
        """Look up a utility spec by name."""
        for utility in self.utilities:
            if utility.name == name:
                return utility
        raise GenerationError(f"no utility named {name!r}")
