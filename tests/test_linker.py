"""The dynamic and static linkers — the paper's central mechanisms."""

import pytest

from repro.elf.image import Executable, SharedObject
from repro.elf.sections import SectionKind
from repro.elf.symbols import Symbol, SymbolKind, strcmp_cost_chars
from repro.errors import AlreadyLinkedError, LinkError, UndefinedSymbolError
from repro.linker.dynamic import DynamicLinker
from repro.linker.resolver import SymbolResolver
from repro.linker.static import StaticLinker
from repro.machine.context import ExecutionContext
from repro.machine.node import Node


def _make_lib(soname, symbols, plt=(), data=(), needed=()):
    shared = SharedObject(soname=soname, path=f"/nfs/{soname}")
    offset = 0
    for name in symbols:
        shared.add_symbol(
            Symbol(name=name, kind=SymbolKind.FUNCTION, value=offset, size=64)
        )
        offset += 64
    for symbol in plt:
        shared.add_plt_relocation(symbol)
    for symbol in data:
        shared.add_data_relocation(symbol)
    shared.needed.extend(needed)
    shared.finalize_sections(
        text_bytes=max(64, offset), data_bytes=64, debug_bytes=64
    )
    return shared


def _make_world():
    """exe -> libbase; libplugin (dlopenable) -> libutil -> libbase."""
    libbase = _make_lib("libbase.so", [f"base_{i}" for i in range(8)] + ["stdout_sym"])
    libutil = _make_lib(
        "libutil.so",
        [f"util_{i}" for i in range(8)],
        plt=["base_0"],
        needed=["libbase.so"],
    )
    libplugin = _make_lib(
        "libplugin.so",
        ["plugin_entry", "plugin_helper"],
        plt=["util_3", "plugin_helper", "base_1"],
        data=["stdout_sym"],
        needed=["libutil.so"],
    )
    exe = Executable(soname="main", path="/nfs/main")
    exe.add_symbol(Symbol(name="main", kind=SymbolKind.FUNCTION, value=0, size=64))
    exe.needed.append("libbase.so")
    exe.finalize_sections(text_bytes=4096, data_bytes=64, debug_bytes=64)
    registry = {
        shared.soname: shared for shared in (exe, libbase, libutil, libplugin)
    }
    nfs_like = __import__("repro.fs.nfs", fromlist=["NFSServer"]).NFSServer()
    for shared in registry.values():
        shared.publish(nfs_like)
    return exe, registry


@pytest.fixture()
def world():
    exe, registry = _make_world()
    node = Node()
    process = node.spawn()
    ctx = ExecutionContext(process)
    linker = DynamicLinker(registry)
    return exe, registry, linker, process, ctx


class TestStartProgram:
    def test_maps_needed_closure(self, world):
        exe, registry, linker, process, ctx = world
        link_map = linker.start_program(process, exe, ctx)
        assert "main" in link_map
        assert "libbase.so" in link_map
        assert len(link_map) == 2

    def test_startup_objects_in_global_scope(self, world):
        exe, registry, linker, process, ctx = world
        link_map = linker.start_program(process, exe, ctx)
        assert all(obj.in_global_scope for obj in link_map)

    def test_data_relocations_eager(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        assert linker.data_relocations_applied >= len(exe.data_relocations)

    def test_plt_lazy_by_default(self, world):
        exe, registry, linker, process, ctx = world
        link_map = linker.start_program(process, exe, ctx)
        assert linker.eager_plt_resolutions == 0

    def test_ld_bind_now_resolves_plt(self):
        exe, registry = _make_world()
        node = Node()
        process = node.spawn(env={"LD_BIND_NOW": "1"})
        ctx = ExecutionContext(process)
        linker = DynamicLinker(registry)
        linker.start_program(process, exe, ctx)
        assert linker.eager_plt_resolutions == 0  # exe has no PLT relocs
        # Pre-link the plugin chain and watch LD_BIND_NOW bind it all.
        exe2, registry2 = _make_world()
        exe2.needed.extend(["libutil.so", "libplugin.so"])
        process2 = Node().spawn(env={"LD_BIND_NOW": "1"})
        linker2 = DynamicLinker(registry2)
        linker2.start_program(process2, exe2, ExecutionContext(process2))
        assert linker2.eager_plt_resolutions == 4  # util's 1 + plugin's 3


class TestDlopen:
    def test_loads_dependency_closure(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=True)
        link_map = process.link_map
        assert "libutil.so" in link_map
        assert handle.soname == "libplugin.so"
        assert linker.dlopen_new == 1

    def test_rtld_local_keeps_global_scope_clean(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        linker.dlopen(process, ctx, "libplugin.so", now=True)
        global_names = {obj.soname for obj in process.link_map.global_scope}
        assert "libplugin.so" not in global_names

    def test_rtld_now_binds_new_objects(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=True)
        assert handle.fully_bound

    def test_lazy_dlopen_defers_plt(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=False)
        assert not handle.fully_bound

    def test_reopen_bumps_refcount_and_ignores_now(self):
        """The paper's key glibc finding: RTLD_NOW is not honoured for
        objects already pre-linked lazily."""
        exe, registry = _make_world()
        exe.needed.extend(["libutil.so", "libplugin.so"])  # pre-linked build
        process = Node().spawn()
        ctx = ExecutionContext(process)
        linker = DynamicLinker(registry)
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=True)
        assert linker.dlopen_existing == 1
        assert handle.refcount == 2
        assert not handle.fully_bound  # RTLD_NOW ignored!

    def test_shared_dep_refcounted(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        linker.dlopen(process, ctx, "libplugin.so", now=True)
        base = process.link_map.find("libbase.so")
        # exe startup (1) + libutil's dep edge (1).
        assert base.refcount == 2

    def test_dlclose(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=True)
        linker.dlclose(process, handle)
        assert handle.refcount == 0
        with pytest.raises(LinkError):
            linker.dlclose(process, handle)

    def test_unknown_soname(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        with pytest.raises(LinkError):
            linker.dlopen(process, ctx, "libnothere.so")


class TestLazyBinding:
    def test_first_call_fixes_up_then_fast(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=False)
        result = linker.call_external(process, ctx, handle, "util_3")
        assert result is not None
        assert result.provider.soname == "libutil.so"
        assert linker.lazy_fixups == 1
        # Second call: resolved slot, fast path.
        assert linker.call_external(process, ctx, handle, "util_3") is None
        assert linker.lazy_fixups == 1

    def test_lazy_fixup_is_much_costlier_than_bound_call(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=False)
        clock = ctx.node.clock
        before = clock.cycles
        linker.call_external(process, ctx, handle, "util_3")
        fixup_cost = clock.cycles - before
        before = clock.cycles
        linker.call_external(process, ctx, handle, "util_3")
        bound_cost = clock.cycles - before
        assert fixup_cost > 50 * max(1, bound_cost)

    def test_intra_object_call_goes_through_plt(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=False)
        provider, symbol = linker.resolve_for_call(
            process, ctx, handle, "plugin_helper"
        )
        assert provider is handle  # exported symbols are preemptible

    def test_undefined_symbol(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=False)
        with pytest.raises(LinkError):
            linker.call_external(process, ctx, handle, "no_such_symbol")


class TestDlsym:
    def test_searches_handle_first(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=True)
        result = linker.dlsym(process, ctx, handle, "plugin_entry")
        assert result.provider is handle
        assert result.objects_probed == 1

    def test_falls_through_to_deps(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=True)
        result = linker.dlsym(process, ctx, handle, "util_5")
        assert result.provider.soname == "libutil.so"

    def test_missing_symbol_raises(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=True)
        with pytest.raises(UndefinedSymbolError):
            linker.dlsym(process, ctx, handle, "absent")


class TestResolverCosts:
    def test_scope_position_drives_probe_count(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        handle = linker.dlopen(process, ctx, "libplugin.so", now=False)
        resolver = SymbolResolver()
        scope = linker.search_scope(handle, process.link_map)
        early = resolver.lookup(ctx, scope, "base_0")
        late = resolver.lookup(ctx, scope, "plugin_entry")
        assert early.objects_probed < late.objects_probed

    def test_strcmp_cost_model(self):
        assert strcmp_cost_chars("abc", "abd") == 3
        assert strcmp_cost_chars("abc", "abc") == 4  # incl. the NUL check
        assert strcmp_cost_chars("x", "y") == 1

    def test_lookup_counts(self, world):
        exe, registry, linker, process, ctx = world
        linker.start_program(process, exe, ctx)
        before = linker.resolver.lookups
        linker.dlopen(process, ctx, "libplugin.so", now=True)
        assert linker.resolver.lookups > before


class TestStaticLinker:
    def test_link_into_appends_needed(self):
        exe, registry = _make_world()
        plugin = registry["libplugin.so"]
        util = registry["libutil.so"]
        StaticLinker().link_into(exe, [plugin, util])
        assert exe.needed[-2:] == ["libplugin.so", "libutil.so"]

    def test_double_link_rejected(self):
        exe, registry = _make_world()
        plugin = registry["libplugin.so"]
        linker = StaticLinker()
        linker.link_into(exe, [plugin])
        with pytest.raises(AlreadyLinkedError):
            linker.link_into(exe, [plugin])

    def test_duplicate_definitions_rejected(self):
        a = _make_lib("liba.so", ["dup_sym"])
        b = _make_lib("libb.so", ["dup_sym"])
        with pytest.raises(LinkError):
            StaticLinker.check_unique_definitions([a, b])

    def test_undefined_after_link_clean_world(self):
        exe, registry = _make_world()
        exe.needed.extend(["libutil.so", "libplugin.so"])
        missing = StaticLinker.undefined_after_link(exe, registry)
        # stdout_sym and base symbols all resolve inside the closure.
        assert missing == []

    def test_undefined_after_link_reports_gaps(self):
        exe, registry = _make_world()
        registry["libplugin.so"].add_plt_relocation("ghost_symbol")
        exe.needed.extend(["libutil.so", "libplugin.so"])
        missing = StaticLinker.undefined_after_link(exe, registry)
        assert any("ghost_symbol" in entry for entry in missing)
