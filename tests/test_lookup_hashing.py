"""Names are hashed at link time, once per build, and lookups reuse them.

A build's tables share one :class:`~repro.elf.symbols.LinkHashes`, which
hashes every name the build defines in one batch (SysV names through the
lane-parallel :func:`~repro.elf.symbols.elf_hash_many`) the first time a
probe needs them.  A lookup of a defined name then hashes it zero
times, and any other name at most once per style, as glibc's
``_dl_lookup_symbol_x`` does.  The call-count tests wrap the hash
functions and count, per lookup, how often each hashes the looked-up
name, over SysV, GNU and mixed scopes; the hypothesis tests pin the
batch kernel and the branch-free fold to glibc's step-by-step hash.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.elf.symbols as symbols
from repro.elf.image import Executable, SharedObject
from repro.core import presets
from repro.core.builds import build_benchmark
from repro.core.generator import generate
from repro.elf.symbols import (
    HashStyle,
    LinkHashes,
    NameHash,
    Symbol,
    SymbolKind,
    SymbolTable,
    elf_hash,
    elf_hash_many,
    gnu_hash,
)
from repro.errors import UndefinedSymbolError
from repro.fs.nfs import NFSServer
from repro.linker.dynamic import DynamicLinker
from repro.machine.context import ExecutionContext
from repro.machine.node import Node
from repro.scenario import scenario_preset


def _reference_elf_hash(name: str) -> int:
    """glibc's ``_dl_elf_hash``, written out step by step."""
    h = 0
    for char in name.encode("utf-8", errors="replace"):
        h = (h << 4) + char
        g = h & 0xF0000000
        if g:
            h ^= g >> 24
        h &= ~g & 0xFFFFFFFF
    return h


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_elf_hash_matches_glibc_steps(name):
    assert elf_hash(name) == _reference_elf_hash(name)


def test_elf_hash_long_names():
    for name in ("x" * 500, "\xff" * 200, "MPIDO_" + "z" * 157):
        assert elf_hash(name) == _reference_elf_hash(name)


def test_name_hash_computes_each_style_once(monkeypatch):
    calls = collections.Counter()

    def counted(style, func):
        def wrapper(name):
            calls[style] += 1
            return func(name)

        return wrapper

    monkeypatch.setattr(symbols, "elf_hash", counted("sysv", elf_hash))
    monkeypatch.setattr(symbols, "gnu_hash", counted("gnu", gnu_hash))
    hashes = NameHash("some_symbol")
    assert calls == {}  # lazy: nothing until a style is asked for
    assert [hashes.sysv(), hashes.sysv()] == [elf_hash("some_symbol")] * 2
    assert [hashes.gnu(), hashes.gnu()] == [gnu_hash("some_symbol")] * 2
    assert calls == {"sysv": 1, "gnu": 1}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.text(max_size=200),
            st.text(alphabet=st.characters(min_codepoint=0x80), max_size=40),
            st.binary(max_size=60).map(lambda raw: raw.decode("latin-1")),
        ),
        max_size=40,
    )
)
def test_elf_hash_many_matches_elf_hash(names):
    assert elf_hash_many(names) == [elf_hash(name) for name in names]


def test_elf_hash_many_corners():
    assert elf_hash_many([]) == []
    assert elf_hash_many(["x"]) == [elf_hash("x")]
    # Mixed lengths (left-padding), bytes >= 0x80 that trigger the fold,
    # empty and duplicate names in one batch.
    names = ["", "a", "\xff" * 200, "MPIDO_" + "z" * 157, "a", "\x80\xfe\x01"]
    assert elf_hash_many(names) == [_reference_elf_hash(name) for name in names]


def test_plan_built_from_given_hashes_matches_fresh_plan():
    # Tables that take their hashes from a shared build map compile the
    # same chains and Bloom words as tables that hash their own names.
    for style in HashStyle:
        names = [f"sym_{i}" for i in range(40)]
        shared = LinkHashes()
        table = SymbolTable(hash_style=style, link_hashes=shared)
        other = SymbolTable(hash_style=style, link_hashes=shared)
        fresh = SymbolTable(hash_style=style)
        for i, name in enumerate(names):
            for t in (table, fresh):
                t.add(Symbol(name=name, kind=SymbolKind.FUNCTION, value=i, size=8))
            other.add(
                Symbol(name=f"other_{name}", kind=SymbolKind.FUNCTION, value=i, size=8)
            )
        assert table.compile() == fresh.compile()
        assert table.bloom == fresh.bloom
        for name in names[::3] + ["absent_a", "absent_b"]:
            assert table.bucket_of(name) == fresh.bucket_of(name)


def _counting(monkeypatch):
    """Count hashes of each name, per style, from every hash entry point."""
    calls = collections.Counter()

    def counted(style, func):
        def wrapper(name):
            calls[style, name] += 1
            return func(name)

        return wrapper

    def counted_many(names):
        for name in names:
            calls[HashStyle.SYSV, name] += 1
        return elf_hash_many(names)

    monkeypatch.setattr(symbols, "elf_hash", counted(HashStyle.SYSV, elf_hash))
    monkeypatch.setattr(symbols, "gnu_hash", counted(HashStyle.GNU, gnu_hash))
    monkeypatch.setattr(symbols, "elf_hash_many", counted_many)
    return calls


def _scope_world(styles):
    """An executable whose DT_NEEDED libraries use the given hash styles,
    all built against one :class:`LinkHashes`, as one build's are."""
    nfs = NFSServer()
    build_hashes = LinkHashes()

    def table(style):
        return SymbolTable(hash_style=style, link_hashes=build_hashes)

    exe = Executable(soname="main", path="/nfs/main", symbol_table=table(styles[0]))
    exe.add_symbol(Symbol(name="main", kind=SymbolKind.FUNCTION, value=0, size=64))
    registry = {"main": exe}
    for n, style in enumerate(styles):
        lib = SharedObject(
            soname=f"lib{n}.so", path=f"/nfs/lib{n}.so", symbol_table=table(style)
        )
        for i in range(24):
            lib.add_symbol(
                Symbol(
                    name=f"lib{n}_fn_{i}",
                    kind=SymbolKind.FUNCTION,
                    value=64 * i,
                    size=64,
                )
            )
        lib.finalize_sections(text_bytes=64 * 24, data_bytes=64, debug_bytes=64)
        exe.needed.append(lib.soname)
        registry[lib.soname] = lib
    exe.finalize_sections(text_bytes=4096, data_bytes=64, debug_bytes=64)
    for shared in registry.values():
        shared.publish(nfs)
    process = Node().spawn()
    ctx = ExecutionContext(process)
    linker = DynamicLinker(registry)
    link_map = linker.start_program(process, exe, ctx)
    return linker, ctx, link_map.global_scope


@pytest.mark.parametrize(
    "styles",
    [
        [HashStyle.SYSV] * 5,
        [HashStyle.GNU] * 5,
        [HashStyle.SYSV, HashStyle.GNU, HashStyle.SYSV, HashStyle.GNU, HashStyle.GNU],
    ],
    ids=["sysv", "gnu", "mixed"],
)
def test_each_lookup_hashes_its_name_once_per_style(monkeypatch, styles):
    linker, ctx, scope = _scope_world(styles)
    calls = _counting(monkeypatch)
    # The first lookup hashes the whole build in one batch per style.
    linker.resolver.lookup(ctx, scope, "main")
    defined = {
        symbol.name: obj.shared_object.symbol_table.hash_style
        for obj in scope
        for symbol in obj.shared_object.symbol_table.symbols()
    }
    assert calls == {(style, name): 1 for name, style in defined.items()}
    # Names from every library: the build's hash is reused.  Only a
    # table of the other style in a mixed scope hashes it, once.
    for n, style in enumerate(styles):
        for i in (0, 7, 23):
            name = f"lib{n}_fn_{i}"
            calls.clear()
            result = linker.resolver.lookup(ctx, scope, name)
            assert result.provider.soname == f"lib{n}.so"
            probed_styles = {
                obj.shared_object.symbol_table.hash_style
                for obj in scope[: result.objects_probed]
            }
            assert calls == {(other, name): 1 for other in probed_styles - {style}}
    # A name the build lacks: every object was probed, so each style in
    # the scope hashed it exactly once.
    calls.clear()
    with pytest.raises(UndefinedSymbolError):
        linker.resolver.lookup(ctx, scope, "nowhere_defined")
    assert calls == {(style, "nowhere_defined"): 1 for style in styles}


def test_single_style_build_lookups_hash_defined_names_zero_times(monkeypatch):
    linker, ctx, scope = _scope_world([HashStyle.SYSV] * 3)
    linker.resolver.lookup(ctx, scope, "main")  # the build's one batch
    calls = _counting(monkeypatch)
    for name in ("main", "lib0_fn_3", "lib2_fn_23"):
        linker.resolver.lookup(ctx, scope, name)
    assert calls == {}


def test_two_builds_do_not_share_one_hash_map():
    spec = generate(presets.tiny())
    first = build_benchmark(spec, NFSServer())
    second = build_benchmark(spec, NFSServer())
    assert first.name_hashes is not second.name_hashes
    for build in (first, second):
        for shared in build.registry.values():
            assert shared.symbol_table.link_hashes is build.name_hashes


def test_building_the_scaled_dll_set_hashes_no_name(monkeypatch):
    # Section sizes follow from symbol counts; nothing is hashed until
    # the first probe, so a build that is only staged hashes nothing.
    calls = _counting(monkeypatch)
    spec = generate(scenario_preset("llnl_multiphysics_scaled").config)
    build = build_benchmark(spec, NFSServer())
    assert len(build.generated_objects) == 495
    assert all(
        shared.symbol_table.bucket_chains is None
        for shared in build.registry.values()
    )
    assert calls == {}
