"""A lookup hashes the wanted name at most once per hash style.

glibc computes a lookup's name hash once and reuses it for every object
in the search scope; :class:`~repro.elf.symbols.NameHash` gives the
resolver the same behaviour.  The call-count tests wrap the two hash
functions and count, per lookup, how often each hashes the looked-up
name, over SysV, GNU and mixed scopes.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.elf.symbols as symbols
from repro.elf.image import Executable, SharedObject
from repro.elf.symbols import (
    HashStyle,
    NameHash,
    Symbol,
    SymbolKind,
    SymbolTable,
    elf_hash,
    gnu_hash,
)
from repro.errors import UndefinedSymbolError
from repro.fs.nfs import NFSServer
from repro.linker.dynamic import DynamicLinker
from repro.machine.context import ExecutionContext
from repro.machine.node import Node


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


def test_plan_built_from_given_hashes_matches_fresh_plan():
    for style in HashStyle:
        names = [f"sym_{i}" for i in range(40)]
        table = SymbolTable(hash_style=style)
        fresh = SymbolTable(hash_style=style)
        for i, name in enumerate(names):
            for t in (table, fresh):
                t.add(Symbol(name=name, kind=SymbolKind.FUNCTION, value=i, size=8))
        for name in names[::3] + ["absent_a", "absent_b"]:
            assert table.probe_plan(name, NameHash(name)) == fresh.probe_plan(name)


def _scope_world(styles):
    """An executable whose DT_NEEDED libraries use the given hash styles."""
    nfs = NFSServer()
    exe = Executable(
        soname="main",
        path="/nfs/main",
        symbol_table=SymbolTable(hash_style=styles[0]),
    )
    exe.add_symbol(Symbol(name="main", kind=SymbolKind.FUNCTION, value=0, size=64))
    registry = {"main": exe}
    for n, style in enumerate(styles):
        lib = SharedObject(
            soname=f"lib{n}.so",
            path=f"/nfs/lib{n}.so",
            symbol_table=SymbolTable(hash_style=style),
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
    # Build every hash index now, so the counts below see lookups only.
    for obj in link_map:
        obj.shared_object.symbol_table.nbuckets
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
    calls = collections.Counter()

    def counted(style, func):
        def wrapper(name):
            calls[style, name] += 1
            return func(name)

        return wrapper

    monkeypatch.setattr(symbols, "elf_hash", counted(HashStyle.SYSV, elf_hash))
    monkeypatch.setattr(symbols, "gnu_hash", counted(HashStyle.GNU, gnu_hash))
    # Names from every library, then one the whole scope lacks.
    wanted = [f"lib{n}_fn_{i}" for n in range(len(styles)) for i in (0, 7, 23)]
    for name in wanted:
        calls.clear()
        linker.resolver.lookup(ctx, scope, name)
        assert calls, "the lookup built no probe plan"
        assert set(calls) <= {(style, name) for style in styles}
        assert max(calls.values()) == 1
    calls.clear()
    with pytest.raises(UndefinedSymbolError):
        linker.resolver.lookup(ctx, scope, "nowhere_defined")
    # Every object was probed, so each style in the scope hashed once.
    assert calls == {(style, "nowhere_defined"): 1 for style in styles}
