"""Build configurations: Vanilla, Link, Link+Bind (Section III/IV).

"Pynamic supports several different build and run configurations.  For
example, the shared objects can be linked into pyMPI at compile time. ...
Alternatively, the Pynamic driver can be run with a vanilla pyMPI build."

Lowering rules (how a spec becomes a simulated ELF object):

- every generated function is an *exported* dynamic symbol (as in the
  real generator) — which means even intra-module chain calls go through
  the PLT, because exported symbols are preemptible;
- each distinct callee of a DSO gets one JMP_SLOT relocation;
- modules carry GLOB_DAT relocations for the libc/Python data objects
  they reference; utility libraries for libc data;
- DT_NEEDED edges: modules need their utility libraries plus libpython
  and libc; utilities need libc.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.codegen.sizes import SizeModel, SectionTotals, totals_from_objects
from repro.core.specs import (
    BenchmarkSpec,
    ModuleSpec,
    SystemLibSpec,
    UtilitySpec,
)
from repro.core.syslibs import ALL_DATA_SYMBOLS
from repro.elf.image import Executable, SharedObject
from repro.elf.symbols import (
    HashStyle,
    LinkHashes,
    Symbol,
    SymbolKind,
    SymbolTable,
)
from repro.errors import GenerationError
from repro.fs.files import BackingFileSystem, FileImage
from repro.linker.static import StaticLinker


class BuildMode(enum.Enum):
    """The three Table I rows."""

    VANILLA = "vanilla"
    LINKED = "link"
    LINKED_BIND_NOW = "link+bind"

    @property
    def prelinked(self) -> bool:
        """True if generated DSOs are DT_NEEDED deps of the executable."""
        return self is not BuildMode.VANILLA


@dataclass
class BuildImage:
    """Everything the runner needs to execute one build."""

    mode: BuildMode
    spec: BenchmarkSpec
    executable: Executable
    registry: dict[str, SharedObject]
    module_objects: dict[str, SharedObject]
    utility_objects: dict[str, SharedObject]
    system_objects: dict[str, SharedObject] = field(default_factory=dict)
    images: dict[str, FileImage] = field(default_factory=dict)
    #: The hash of every name the build defines, shared by its tables.
    name_hashes: LinkHashes = field(default_factory=LinkHashes)

    @property
    def generated_objects(self) -> list[SharedObject]:
        """Modules + utilities — the DLL set Table III sizes."""
        return [*self.module_objects.values(), *self.utility_objects.values()]

    def section_totals(self) -> SectionTotals:
        """Exact Table III totals for this build's generated DLLs."""
        return totals_from_objects(self.generated_objects)


def _lower_system_lib(
    spec: SystemLibSpec, model: SizeModel, new_table: Callable[[], SymbolTable]
) -> SharedObject:
    shared = SharedObject(
        soname=spec.soname,
        path=spec.path,
        symbol_table=new_table(),
    )
    text_offset = 0
    data_offset = 0
    for name in spec.symbol_names:
        if name in ALL_DATA_SYMBOLS:
            shared.add_symbol(
                Symbol(name=name, kind=SymbolKind.OBJECT, value=data_offset, size=16)
            )
            data_offset += 16
        else:
            shared.add_symbol(
                Symbol(
                    name=name,
                    kind=SymbolKind.FUNCTION,
                    value=text_offset,
                    size=spec.text_bytes_per_symbol,
                )
            )
            text_offset += spec.text_bytes_per_symbol
    shared.finalize_sections(
        text_bytes=max(4096, text_offset),
        data_bytes=max(4096, data_offset),
        debug_bytes=64 * 1024,
        symtab_ratio=model.symtab_ratio,
    )
    return shared


def _lower_utility(
    spec: UtilitySpec, model: SizeModel, new_table: Callable[[], SymbolTable]
) -> SharedObject:
    shared = SharedObject(
        soname=spec.soname,
        path=spec.path,
        symbol_table=new_table(),
    )
    shared.needed.append("libc.so.6")
    offset = 0
    for func in spec.functions:
        shared.add_symbol(
            Symbol(
                name=func.name,
                kind=SymbolKind.FUNCTION,
                value=offset,
                size=func.text_bytes,
            )
        )
        offset += func.text_bytes
        for callee in func.libc_calls:
            shared.add_plt_relocation(callee)
    for data_symbol in ("stdout", "errno"):
        shared.add_data_relocation(data_symbol)
    touch_bytes = sum(f.data_touch_bytes for f in spec.functions)
    shared.finalize_sections(
        text_bytes=offset,
        data_bytes=model.library_data_bytes(spec.n_functions) + touch_bytes,
        debug_bytes=model.library_debug_bytes(spec.n_functions),
        symtab_ratio=model.symtab_ratio,
    )
    return shared


def _lower_module(
    spec: ModuleSpec, model: SizeModel, new_table: Callable[[], SymbolTable]
) -> SharedObject:
    shared = SharedObject(
        soname=spec.soname,
        path=spec.path,
        symbol_table=new_table(),
    )
    shared.needed.extend(spec.utility_deps)
    shared.needed.extend(spec.module_deps)
    shared.needed.extend(("libpython2.5.so.1.0", "libc.so.6"))
    offset = 0
    for func in spec.functions:
        shared.add_symbol(
            Symbol(
                name=func.name,
                kind=SymbolKind.FUNCTION,
                value=offset,
                size=func.text_bytes,
            )
        )
        offset += func.text_bytes
        if func.internal_callee is not None:
            shared.add_plt_relocation(func.internal_callee)
        for callee in (*func.utility_calls, *func.cross_module_calls, *func.libc_calls):
            shared.add_plt_relocation(callee)
    # The cross-module-callable extra function (Section III).
    if spec.cross_name is not None:
        cross_bytes = model.function_text_bytes(2, 64, 0)
        shared.add_symbol(
            Symbol(
                name=spec.cross_name,
                kind=SymbolKind.FUNCTION,
                value=offset,
                size=cross_bytes,
            )
        )
        offset += cross_bytes
    # Python-callable entry: visits the chain heads.
    entry_bytes = spec.entry_text_bytes
    shared.add_symbol(
        Symbol(
            name=spec.entry_name,
            kind=SymbolKind.FUNCTION,
            value=offset,
            size=entry_bytes,
        )
    )
    offset += entry_bytes
    for head in spec.chain_heads:
        shared.add_plt_relocation(head)
    for api in ("PyArg_ParseTuple", "Py_BuildValue"):
        shared.add_plt_relocation(api)
    # Module init function (what dlsym resolves at import).
    shared.add_symbol(
        Symbol(
            name=spec.init_name,
            kind=SymbolKind.FUNCTION,
            value=offset,
            size=model.init_bytes,
        )
    )
    offset += model.init_bytes
    shared.add_plt_relocation("Py_InitModule4")
    for data_symbol in ("_Py_NoneStruct", "PyExc_RuntimeError", "stdout", "errno"):
        shared.add_data_relocation(data_symbol)
    touch_bytes = sum(f.data_touch_bytes for f in spec.functions)
    shared.finalize_sections(
        text_bytes=offset,
        data_bytes=model.library_data_bytes(spec.n_functions) + touch_bytes,
        debug_bytes=model.library_debug_bytes(spec.n_functions),
        symtab_ratio=model.symtab_ratio,
    )
    return shared


def _lower_executable(
    spec: BenchmarkSpec, new_table: Callable[[], SymbolTable]
) -> Executable:
    exe = Executable(
        soname=spec.executable_name,
        path=f"/nfs/pynamic/{spec.executable_name}",
        symbol_table=new_table(),
    )
    exe.needed.extend(
        (
            "ld-linux-x86-64.so.2",
            "libpython2.5.so.1.0",
            "libmpi.so.1",
            "libc.so.6",
            "libm.so.6",
            "libdl.so.2",
            "libpthread.so.0",
        )
    )
    text = 0
    for i in range(60):
        exe.add_symbol(
            Symbol(
                name=f"pyMPI_internal_{i:03d}",
                kind=SymbolKind.FUNCTION,
                value=text,
                size=192,
            )
        )
        text += 192
    for api in ("MPI_Init", "MPI_Comm_rank", "MPI_Allreduce", "malloc", "printf"):
        exe.add_plt_relocation(api)
    for data_symbol in ("stdout", "environ", "_Py_NoneStruct"):
        exe.add_data_relocation(data_symbol)
    exe.finalize_sections(
        text_bytes=max(4096, text),
        data_bytes=8192,
        debug_bytes=128 * 1024,
    )
    return exe


def build_benchmark(
    spec: BenchmarkSpec,
    filesystem: BackingFileSystem,
    mode: BuildMode = BuildMode.VANILLA,
    hash_style: HashStyle = HashStyle.SYSV,
) -> BuildImage:
    """Lower a generated spec to a runnable build on ``filesystem``.

    For pre-linked modes, a :class:`StaticLinker` adds every generated DSO
    to the executable's startup dependency list (after verifying the
    benchmark has no duplicate definitions).  ``hash_style`` selects the
    hash section the toolchain emits: SysV (period-correct default) or
    DT_GNU_HASH (the post-2007 fix whose effect the ``ablation_hash_style``
    experiment measures).
    """
    config = spec.config
    model: SizeModel = getattr(config, "size_model", SizeModel())
    # Every table of this build registers its names in one map, which
    # hashes them in one batch when the first lookup needs them.
    name_hashes = LinkHashes()

    def new_table() -> SymbolTable:
        return SymbolTable(hash_style=hash_style, link_hashes=name_hashes)

    system_objects = {
        lib.soname: _lower_system_lib(lib, model, new_table)
        for lib in spec.system_libs
    }
    utility_objects = {
        util.soname: _lower_utility(util, model, new_table)
        for util in spec.utilities
    }
    module_objects = {
        module.soname: _lower_module(module, model, new_table)
        for module in spec.modules
    }
    executable = _lower_executable(spec, new_table)
    if mode.prelinked:
        linker = StaticLinker()
        linker.link_into(
            executable,
            [*module_objects.values(), *utility_objects.values()],
        )
    registry: dict[str, SharedObject] = {
        executable.soname: executable,
        **system_objects,
        **utility_objects,
        **module_objects,
    }
    if len(registry) != (
        1 + len(system_objects) + len(utility_objects) + len(module_objects)
    ):
        raise GenerationError("soname collision between generated objects")
    images = {
        shared.path: shared.publish(filesystem) for shared in registry.values()
    }
    return BuildImage(
        mode=mode,
        spec=spec,
        executable=executable,
        registry=registry,
        module_objects=module_objects,
        utility_objects=utility_objects,
        system_objects=system_objects,
        images=images,
        name_hashes=name_hashes,
    )
