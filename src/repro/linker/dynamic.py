"""The runtime dynamic linker (``ld.so`` + ``dlopen``/``dlsym``).

This module implements the behaviours Table I hinges on:

- **program startup**: map the executable and its transitive DT_NEEDED
  chain, apply eager GLOB_DAT relocations, and resolve JMP_SLOT (PLT)
  relocations only under ``LD_BIND_NOW`` (the Link+Bind row);
- **dlopen of a new object** (the Vanilla row): load it and its deps,
  honour ``RTLD_NOW`` by resolving both GOT and PLT immediately;
- **dlopen of a pre-linked object** (the Link row): bump the reference
  count, *ignore* ``RTLD_NOW`` — glibc "does not respect the RTLD_NOW
  flag for the modules that have already been linked with lazy binding at
  program startup" — and pay the re-verification walk the paper observed
  ("import time ... is only a three fold speedup over the Vanilla
  build");
- **lazy fixup**: first call through an unresolved PLT slot runs the
  trampoline and a full scope-ordered lookup, writing the slot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Mapping as TypingMapping

from repro.elf.image import Executable, SharedObject
from repro.elf.linkmap import LinkMap, LoadedObject
from repro.elf.relocation import GOT_SLOT_BYTES, PLT_STUB_BYTES, Relocation
from repro.elf.sections import ALLOC_SECTIONS, SectionKind
from repro.elf.symbols import Symbol
from repro.errors import LinkError
from repro.linker.resolver import ResolutionResult, SymbolResolver
from repro.machine.context import ExecutionContext
from repro.machine.node import Process
from repro.machine.scheduler import SteppedProgram, drain
from repro.perf.tracing import EventKind, EventTrace

if TYPE_CHECKING:  # pragma: no cover - avoids a linker <-> dist cycle
    from repro.dist.router import ObjectRouter


class SteppedStartup(SteppedProgram):
    """One process's program startup as a schedulable stepped program.

    Packages :meth:`DynamicLinker.start_program_steps` for the
    stepped-execution layer: after the generator is exhausted (by an
    :class:`EventScheduler` or :func:`drain`), ``link_map`` holds the
    completed process link map.
    """

    def __init__(
        self,
        linker: "DynamicLinker",
        process: Process,
        executable: Executable,
        ctx: ExecutionContext,
    ) -> None:
        self.linker = linker
        self.process = process
        self.executable = executable
        self.ctx = ctx
        self.link_map: LinkMap | None = None

    def steps(self) -> Generator[None, None, None]:
        self.link_map = yield from self.linker.start_program_steps(
            self.process, self.executable, self.ctx
        )


class DynamicLinker:
    """Per-process runtime linker over a registry of shared objects.

    ``prelink=True`` models prelink(8), the other contemporary response
    to Pynamic-class workloads: relocations are precomputed against
    reserved addresses at install time, so loading only *verifies* each
    object (a checksum pass) instead of resolving symbol by symbol.  The
    ``ablation_prelink`` experiment measures the effect.

    ``trace`` (an :class:`EventTrace`) records every linking event with
    its simulated timestamp — the notification stream Section II.B.3's
    tools must consume.

    ``router`` (an :class:`repro.dist.router.ObjectRouter`) is the
    collective-open hook: before the first byte of a shared object is
    read, the linker asks the router how long this process must wait for
    the image to be locally available.  For objects the distribution
    overlay staged, the wait is the remaining staging time (zero once the
    node's relay daemon landed the image) and every subsequent read hits
    the node's buffer cache; unrouted objects fall through to the
    demand-paged NFS path unchanged.
    """

    def __init__(
        self,
        registry: TypingMapping[str, SharedObject],
        prelink: bool = False,
        trace: EventTrace | None = None,
        router: "ObjectRouter | None" = None,
    ) -> None:
        #: soname -> SharedObject for everything installed on the system.
        self.registry = dict(registry)
        self.prelink = prelink
        self.trace = trace
        self.router = router
        self.resolver = SymbolResolver()
        #: Counters for reports and tests.
        self.lazy_fixups = 0
        self.eager_plt_resolutions = 0
        self.data_relocations_applied = 0
        self.dlopen_new = 0
        self.dlopen_existing = 0
        self.unloads = 0
        self.prelink_verifications = 0

    def _record(
        self, ctx: ExecutionContext, kind: EventKind, subject: str, detail: str = ""
    ) -> None:
        if self.trace is not None:
            self.trace.record(ctx.seconds, kind, subject, detail)

    # ------------------------------------------------------------------
    # program startup
    # ------------------------------------------------------------------
    def start_program(
        self,
        process: Process,
        executable: Executable,
        ctx: ExecutionContext,
    ) -> LinkMap:
        """Exec the program: map it, its deps, and apply startup relocations.

        Thin wrapper draining :meth:`start_program_steps`, so the analytic
        path charges exactly the costs the stepped path would.  Returns
        the process link map (also attached to ``process``).
        """
        return drain(self.start_program_steps(process, executable, ctx))

    def start_program_steps(
        self,
        process: Process,
        executable: Executable,
        ctx: ExecutionContext,
    ) -> Generator[None, None, LinkMap]:
        """Program startup as a per-object step generator.

        Yields after each unit of startup work — one object mapped, one
        object's data relocations applied, one object's PLT filled under
        LD_BIND_NOW — so a discrete-event scheduler can interleave the
        startup phases of many ranks at the resolution the paper measures
        (per-DLL map/relocate/resolve costs).  Returns the link map.
        """
        link_map = LinkMap()
        process.link_map = link_map
        ctx.work(ctx.costs.exec_base_instructions)
        self._map_object(process, ctx, executable, link_map, global_scope=True)
        yield
        # Breadth-first DT_NEEDED closure, preserving link order.
        queue = list(executable.needed)
        while queue:
            soname = queue.pop(0)
            if soname in link_map:
                continue
            shared = self._lookup_registry(soname)
            self._map_object(process, ctx, shared, link_map, global_scope=True)
            queue.extend(
                dep for dep in shared.needed if dep not in link_map
            )
            yield
        # Eager data relocations for every startup object.
        for obj in link_map:
            self._apply_data_relocations(ctx, obj, link_map)
            yield
        # LD_BIND_NOW: the Link+Bind row — fill every PLT at startup.
        if process.bind_now:
            for obj in link_map:
                self.resolve_all_plt(ctx, obj, link_map)
                yield
        return link_map

    # ------------------------------------------------------------------
    # dlopen / dlsym / dlclose
    # ------------------------------------------------------------------
    def dlopen(
        self,
        process: Process,
        ctx: ExecutionContext,
        soname: str,
        *,
        now: bool = True,
        global_scope: bool = False,
    ) -> LoadedObject:
        """Open a shared object, honouring the paper's glibc semantics."""
        link_map = self._link_map(process)
        existing = link_map.find(soname)
        if existing is not None:
            self.dlopen_existing += 1
            existing.refcount += 1
            self._reverify_existing(ctx, existing, link_map)
            self._record(
                ctx, EventKind.DLOPEN_EXISTING, soname,
                f"refcount={existing.refcount}",
            )
            # NOTE: RTLD_NOW is deliberately NOT honoured here — the
            # object keeps whatever binding state it already has.  This is
            # the behaviour the paper demonstrates with the Link row.
            return existing
        self.dlopen_new += 1
        shared = self._lookup_registry(soname)
        obj = self._map_object(
            process, ctx, shared, link_map, global_scope=global_scope
        )
        new_objects = [obj]
        closure = [obj]
        seen_closure = {obj.soname}
        # Load this object's dependency closure (refcount deps already in).
        queue = list(shared.needed)
        while queue:
            dep_name = queue.pop(0)
            if dep_name in seen_closure:
                continue
            seen_closure.add(dep_name)
            dep = link_map.find(dep_name)
            if dep is not None:
                dep.refcount += 1
                closure.append(dep)
                continue
            dep_shared = self._lookup_registry(dep_name)
            dep_obj = self._map_object(
                process, ctx, dep_shared, link_map, global_scope=global_scope
            )
            new_objects.append(dep_obj)
            closure.append(dep_obj)
            queue.extend(dep_shared.needed)
        # The local scope of an RTLD_LOCAL dlopen: the object + its full
        # dependency closure (including deps another dlopen already
        # loaded).  Only newly loaded members take this as their scope.
        for member in new_objects:
            member.local_scope = closure
        for member in new_objects:
            self._apply_data_relocations(ctx, member, link_map)
        if now:
            # RTLD_NOW is honoured for genuinely new objects (Vanilla row).
            for member in new_objects:
                self.resolve_all_plt(ctx, member, link_map)
        self._record(
            ctx, EventKind.DLOPEN_NEW, soname, f"+{len(new_objects)} objects"
        )
        return obj

    def dlclose(self, process: Process, handle: LoadedObject) -> None:
        """Drop one reference; unload at zero.

        When the last reference to an RTLD_LOCAL object drops, the object
        leaves the link map (producing an unload event for tools) and its
        dependencies are dlclosed recursively.  Startup (global-scope)
        objects only ever lose references — ld.so never unloads them.
        The address-space pages are not reclaimed (the simulator's bump
        allocator has no free list); only linker state is unwound.
        """
        if handle.refcount <= 0:
            raise LinkError(f"dlclose of {handle.soname} with no references")
        handle.refcount -= 1
        if handle.refcount > 0 or handle.in_global_scope:
            return
        link_map = self._link_map(process)
        link_map.remove(handle)
        self.unloads += 1
        # Unload events reach tools exactly like load events.
        if self.trace is not None and process.node.processes:
            ctx = ExecutionContext(process)
            self._record(ctx, EventKind.UNMAP, handle.soname)
        # Binding state dies with the mapping: a future dlopen reloads
        # and re-resolves from scratch.
        handle.got_resolved.clear()
        handle.plt_resolved.clear()
        for dep_name in handle.shared_object.needed:
            dep = link_map.find(dep_name)
            if dep is not None:
                self.dlclose(process, dep)

    def dlsym(
        self,
        process: Process,
        ctx: ExecutionContext,
        handle: LoadedObject,
        name: str,
    ) -> ResolutionResult:
        """Look up ``name`` starting at ``handle`` (then its local deps)."""
        ctx.work(ctx.costs.dlsym_instructions)
        scope = [handle] + [o for o in handle.local_scope if o is not handle]
        result = self.resolver.lookup(ctx, scope, name)
        self._record(ctx, EventKind.DLSYM, name, handle.soname)
        return result

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def search_scope(self, obj: LoadedObject, link_map: LinkMap) -> list[LoadedObject]:
        """The scope used for symbols referenced *by* ``obj``.

        ELF semantics: the global scope first (this is what makes symbol
        interposition work — and what makes lookups expensive when
        hundreds of DSOs are pre-linked), then the object's local dlopen
        scope.
        """
        scope = list(link_map.global_scope)
        if not obj.in_global_scope:
            seen = set(id(o) for o in scope)
            for member in obj.local_scope or [obj]:
                if id(member) not in seen:
                    scope.append(member)
                    seen.add(id(member))
            if id(obj) not in seen:
                scope.append(obj)
        return scope

    def _apply_data_relocations(
        self, ctx: ExecutionContext, obj: LoadedObject, link_map: LinkMap
    ) -> None:
        """Resolve every GLOB_DAT slot of ``obj`` (always eager)."""
        scope = self.search_scope(obj, link_map)
        for reloc in obj.shared_object.data_relocations:
            if reloc.slot in obj.got_resolved:
                continue
            self.resolver.lookup(ctx, scope, reloc.symbol)
            ctx.work(ctx.costs.relocation_instructions)
            ctx.dwrite(obj.got_slot_addr(reloc.slot), GOT_SLOT_BYTES)
            obj.got_resolved.add(reloc.slot)
            self.data_relocations_applied += 1

    def resolve_all_plt(
        self, ctx: ExecutionContext, obj: LoadedObject, link_map: LinkMap
    ) -> int:
        """Eagerly resolve every JMP_SLOT of ``obj`` (RTLD_NOW/LD_BIND_NOW).

        Returns the number of slots newly resolved.
        """
        scope = self.search_scope(obj, link_map)
        resolved = 0
        for reloc in obj.shared_object.plt_relocations:
            if reloc.symbol in obj.plt_resolved:
                continue
            self.resolver.lookup(ctx, scope, reloc.symbol)
            ctx.work(ctx.costs.relocation_instructions)
            ctx.dwrite(obj.plt_slot_addr(reloc.slot), PLT_STUB_BYTES)
            obj.plt_resolved.add(reloc.symbol)
            resolved += 1
            self.eager_plt_resolutions += 1
        return resolved

    def call_external(
        self,
        process: Process,
        ctx: ExecutionContext,
        caller: LoadedObject,
        symbol: str,
    ) -> ResolutionResult | None:
        """A call through ``caller``'s PLT slot for ``symbol``.

        If the slot is already bound this is a three-instruction indirect
        jump.  Otherwise the lazy-binding trampoline fires: save
        registers, run a full scope-ordered lookup, write the slot — the
        memory-intensive path responsible for the Link row's visit time.

        Returns the resolution result on a lazy fixup, None on the fast
        path.
        """
        reloc: Relocation = caller.shared_object.plt_relocation_for(symbol)
        costs = ctx.costs
        if symbol in caller.plt_resolved:
            ctx.work(costs.plt_call_instructions)
            ctx.dread(caller.plt_slot_addr(reloc.slot), GOT_SLOT_BYTES)
            return None
        link_map = self._link_map(process)
        ctx.work(costs.lazy_fixup_instructions)
        scope = self.search_scope(caller, link_map)
        result = self.resolver.lookup(ctx, scope, symbol)
        ctx.work(costs.relocation_instructions)
        ctx.dwrite(caller.plt_slot_addr(reloc.slot), PLT_STUB_BYTES)
        caller.plt_resolved.add(symbol)
        self.lazy_fixups += 1
        self._record(
            ctx, EventKind.LAZY_FIXUP, symbol,
            f"{caller.soname} -> {result.provider.soname}",
        )
        return result

    def resolve_for_call(
        self,
        process: Process,
        ctx: ExecutionContext,
        caller: LoadedObject,
        symbol: str,
    ) -> tuple[LoadedObject, Symbol]:
        """Resolve a symbol for a call, returning (provider, definition).

        Convenience wrapper over :meth:`call_external` that also performs
        the oracle lookup of the definition for the visit engine.
        """
        result = self.call_external(process, ctx, caller, symbol)
        if result is not None:
            return result.provider, result.symbol
        link_map = self._link_map(process)
        for obj in self.search_scope(caller, link_map):
            found = obj.shared_object.symbol_table.get(symbol)
            if found is not None:
                return obj, found
        raise LinkError(f"bound PLT slot for unknown symbol {symbol!r}")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _reverify_existing(
        self, ctx: ExecutionContext, obj: LoadedObject, link_map: LinkMap
    ) -> None:
        """The observed glibc inefficiency for pre-linked dlopens.

        dlopen of an already-loaded DSO still resolves the path, walks the
        link map comparing sonames, re-walks the dependency list and runs
        version/presence checks that probe hash tables for a fraction of
        the object's undefined symbols — without writing any GOT entries.
        """
        costs = ctx.costs
        ctx.work(
            costs.dlopen_base_instructions
            + costs.dlopen_reverify_per_object_instructions * len(link_map)
        )
        # soname comparison against every link-map entry touches l_name
        # (modelled as the head of each object's .dynstr).
        from repro.elf.sections import SectionKind as _SK
        for other in link_map:
            base = other.section_bases.get(_SK.DYNSTR)
            if base is not None:
                ctx.dread(base, 16)
        undef = [r.symbol for r in obj.shared_object.plt_relocations]
        undef += [r.symbol for r in obj.shared_object.data_relocations]
        k = int(len(undef) * costs.dlopen_relookup_fraction)
        scope = self.search_scope(obj, link_map)
        for symbol in undef[:k]:
            self.resolver.lookup(ctx, scope, symbol)

    def _map_object(
        self,
        process: Process,
        ctx: ExecutionContext,
        shared: SharedObject,
        link_map: LinkMap,
        *,
        global_scope: bool,
    ) -> LoadedObject:
        """Map one object's allocatable sections into the process."""
        costs = ctx.costs
        ctx.work(costs.dlopen_base_instructions + costs.linkmap_entry_instructions)
        image = shared.file_image
        if image is None:
            raise LinkError(f"{shared.soname} was never published to a file system")
        if self.router is not None:
            # Collective open: block until the distribution overlay has
            # landed the image on this node (no-op for unrouted objects).
            ctx.node.wait_staged(self.router, image.path)
        # Read ELF/program headers (the first page).
        ctx.node.read_file(image, 0, min(4096, image.size_bytes))
        obj = LoadedObject(shared_object=shared)
        aspace = process.address_space
        layout = shared.sections.file_layout()
        for kind in ALLOC_SECTIONS:
            size = shared.sections.size(kind)
            if size == 0:
                continue
            offset, _ = layout[kind]
            mapping = aspace.map(
                size,
                name=f"{shared.soname}:{kind.value}",
                is_text=(kind is SectionKind.TEXT),
                file=image,
                file_offset=offset,
            )
            obj.map_section(kind, mapping)
        # ld.so touches the hash/dynsym/dynstr metadata of every object it
        # maps (it needs them for any lookup), so those sections are read
        # eagerly at map time; GOT/PLT are small COW pages (no file read).
        metadata = (SectionKind.HASH, SectionKind.DYNSYM, SectionKind.DYNSTR)
        for kind in metadata:
            size = shared.sections.size(kind)
            if size == 0:
                continue
            offset, _ = layout[kind]
            ctx.node.read_file(image, offset, size)
            mapping = obj.mappings[kind]
            process.address_space.mark_range_present(mapping.start, mapping.size)
        for kind in (SectionKind.GOT, SectionKind.PLT):
            mapping = obj.mappings.get(kind)
            if mapping is None:
                continue
            pages = -(-mapping.size // process.address_space.page_bytes)
            ctx.work(pages * 200)  # zero/COW setup, no file IO
            process.address_space.mark_range_present(mapping.start, mapping.size)
        # Without demand paging (BlueGene profile) the whole mapped image
        # is read up front.
        if not process.profile.demand_paging:
            for kind in ALLOC_SECTIONS:
                size = shared.sections.size(kind)
                if size == 0:
                    continue
                offset, _ = layout[kind]
                ctx.node.read_file(image, offset, size)
        if self.prelink:
            # prelink(8): relocations were computed at install time; the
            # loader only verifies the object's dependency checksums.
            ctx.work(
                costs.linkmap_entry_instructions
                + 4 * (
                    len(shared.data_relocations) + len(shared.plt_relocations)
                )
            )
            for reloc in shared.data_relocations:
                obj.got_resolved.add(reloc.slot)
            for reloc in shared.plt_relocations:
                obj.plt_resolved.add(reloc.symbol)
            self.prelink_verifications += 1
        link_map.add(obj, global_scope=global_scope)
        self._record(
            ctx, EventKind.MAP, shared.soname,
            f"{shared.sections.alloc_bytes} bytes",
        )
        return obj

    def _lookup_registry(self, soname: str) -> SharedObject:
        try:
            return self.registry[soname]
        except KeyError:
            raise LinkError(f"no shared object {soname!r} installed") from None

    @staticmethod
    def _link_map(process: Process) -> LinkMap:
        link_map = process.link_map
        if not isinstance(link_map, LinkMap):
            raise LinkError("process has no link map (program not started)")
        return link_map
