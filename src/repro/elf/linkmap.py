"""Loaded objects and the process link map.

A :class:`LoadedObject` is one mapped DSO: its per-section base addresses,
dlopen reference count, which GOT/PLT slots have been resolved so far, and
the local search scope it was opened with.  The :class:`LinkMap` is the
ordered list the dynamic linker maintains — exactly the structure a
debugger must mirror on every load event (Section II.B.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elf.image import SharedObject
from repro.elf.relocation import GOT_SLOT_BYTES, PLT_STUB_BYTES
from repro.elf.sections import SectionKind
from repro.elf.symbols import Symbol, SymbolKind
from repro.errors import ConfigError, LinkError
from repro.machine.paging import Mapping


@dataclass
class LoadedObject:
    """A shared object mapped into one process."""

    shared_object: SharedObject
    section_bases: dict[SectionKind, int] = field(default_factory=dict)
    mappings: dict[SectionKind, Mapping] = field(default_factory=dict)
    refcount: int = 1
    #: True if the object participates in the global search scope
    #: (executable, DT_NEEDED chain, RTLD_GLOBAL dlopens).
    in_global_scope: bool = False
    #: Search scope for symbols referenced *by* this object (global scope
    #: first, then this object's local dlopen scope).
    local_scope: list["LoadedObject"] = field(default_factory=list)
    #: Indices of resolved GLOB_DAT slots.
    got_resolved: set[int] = field(default_factory=set)
    #: Symbol names whose JMP_SLOT entries have been fixed up.
    plt_resolved: set[str] = field(default_factory=set)
    #: Bases of the three sections every symbol probe reads, as plain
    #: ints set by :meth:`map_section` (None until mapped): the probe
    #: loop skips :meth:`base`'s Enum-keyed dict lookup.
    hash_base: int | None = None
    dynsym_base: int | None = None
    dynstr_base: int | None = None

    @property
    def soname(self) -> str:
        """The object's soname."""
        return self.shared_object.soname

    def map_section(self, kind: SectionKind, mapping: Mapping) -> None:
        """Record where a section was mapped into the process."""
        self.section_bases[kind] = mapping.start
        self.mappings[kind] = mapping
        if kind is SectionKind.HASH:
            self.hash_base = mapping.start
        elif kind is SectionKind.DYNSYM:
            self.dynsym_base = mapping.start
        elif kind is SectionKind.DYNSTR:
            self.dynstr_base = mapping.start

    def base(self, kind: SectionKind) -> int:
        """Base address of a mapped section."""
        try:
            return self.section_bases[kind]
        except KeyError:
            raise LinkError(
                f"{self.soname}: section {kind.value} is not mapped"
            ) from None

    # -- addresses the resolver and visit engine touch ---------------------
    def symbol_value_addr(self, symbol: Symbol) -> int:
        """Runtime address of a defined symbol."""
        section = (
            SectionKind.TEXT
            if symbol.kind is SymbolKind.FUNCTION
            else SectionKind.DATA
        )
        return self.base(section) + symbol.value

    def got_slot_addr(self, slot: int) -> int:
        """Address of a GLOB_DAT GOT slot."""
        return self.base(SectionKind.GOT) + slot * GOT_SLOT_BYTES

    def plt_slot_addr(self, slot: int) -> int:
        """Address of a PLT stub / its GOT entry."""
        return self.base(SectionKind.PLT) + slot * PLT_STUB_BYTES

    @property
    def fully_bound(self) -> bool:
        """True once every JMP_SLOT relocation has been resolved."""
        return len(self.plt_resolved) >= len(self.shared_object.plt_relocations)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LoadedObject({self.soname}, refs={self.refcount})"


class LinkMap:
    """Ordered list of the objects loaded into one process."""

    def __init__(self) -> None:
        self._objects: list[LoadedObject] = []
        self._by_soname: dict[str, LoadedObject] = {}
        self.global_scope: list[LoadedObject] = []
        #: Monotone counters of load/unload events (what a tool must keep
        #: up with).
        self.load_events = 0
        self.unload_events = 0

    def add(self, obj: LoadedObject, global_scope: bool) -> None:
        """Append a newly loaded object."""
        if obj.soname in self._by_soname:
            raise ConfigError(f"{obj.soname} is already in the link map")
        self._objects.append(obj)
        self._by_soname[obj.soname] = obj
        self.load_events += 1
        if global_scope:
            obj.in_global_scope = True
            self.global_scope.append(obj)

    def find(self, soname: str) -> LoadedObject | None:
        """Look up a loaded object by soname."""
        return self._by_soname.get(soname)

    def remove(self, obj: LoadedObject) -> None:
        """Unload an object (dlclose dropped the last reference).

        Counted in ``unload_events`` — tools must track unloads just like
        loads ("reinsert all existing breakpoints on each load or unload
        event", Section II.B.2).  Objects in the global scope (startup
        set) are never unloaded.
        """
        if obj.soname not in self._by_soname:
            raise ConfigError(f"{obj.soname} is not in the link map")
        if obj.in_global_scope:
            raise LinkError(f"cannot unload startup object {obj.soname}")
        del self._by_soname[obj.soname]
        self._objects.remove(obj)
        self.unload_events += 1

    def __contains__(self, soname: str) -> bool:
        return soname in self._by_soname

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self):
        return iter(self._objects)

    def objects(self) -> tuple[LoadedObject, ...]:
        """All loaded objects in load order."""
        return tuple(self._objects)
