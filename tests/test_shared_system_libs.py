"""The system libraries are lowered once per process and shared.

:func:`repro.core.builds.build_benchmark` takes the libc/libpython/
libmpi stand-ins from a memo keyed by their specs, the size model and
the hash style.  Every build gets its own copies of those objects, with
file images on its own filesystem, but the copies share the sealed
symbol tables, their compiled bucket chains and their name hashes.
Reports must be exactly those of a lowering per build.
"""

import dataclasses

import pytest

from repro.core import presets
import repro.core.builds as builds
from repro.core.builds import BuildMode, _lowered_system_libs, build_benchmark
from repro.core.generator import generate
from repro.elf.symbols import HashStyle, Symbol, SymbolKind, SymbolTable
from repro.errors import ConfigError
from repro.fs.nfs import NFSServer
from repro.scenario import scenario_preset, simulate


def test_builds_share_system_tables_but_not_file_images():
    spec = generate(presets.tiny())
    first_fs, second_fs = NFSServer(), NFSServer()
    first = build_benchmark(spec, first_fs)
    second = build_benchmark(spec, second_fs)
    assert first.system_objects.keys() == second.system_objects.keys()
    for soname, mine in first.system_objects.items():
        theirs = second.system_objects[soname]
        assert mine is not theirs
        assert mine.symbol_table is theirs.symbol_table
        assert mine.file_image is not theirs.file_image
        assert mine.file_image.filesystem is first_fs
        assert theirs.file_image.filesystem is second_fs
        assert first.images[mine.path] is mine.file_image
        assert second.images[theirs.path] is theirs.file_image
    # Generated objects stay per build.
    for soname, module in first.module_objects.items():
        assert module.symbol_table is not second.module_objects[soname].symbol_table


def test_the_memo_keys_on_hash_style():
    spec = generate(presets.tiny())
    sysv = build_benchmark(spec, NFSServer())
    gnu = build_benchmark(spec, NFSServer(), hash_style=HashStyle.GNU)
    for soname, shared in gnu.system_objects.items():
        assert shared.symbol_table.hash_style is HashStyle.GNU
        assert shared.symbol_table is not sysv.system_objects[soname].symbol_table


def test_sealed_table_rejects_add():
    spec = generate(presets.tiny())
    build = build_benchmark(spec, NFSServer())
    libc = build.system_objects["libc.so.6"]
    with pytest.raises(ConfigError, match="sealed"):
        libc.add_symbol(Symbol(name="late", kind=SymbolKind.FUNCTION, value=0, size=8))
    table = SymbolTable()
    table.add(Symbol(name="early", kind=SymbolKind.FUNCTION, value=0, size=8))
    table.seal()
    with pytest.raises(ConfigError, match="sealed"):
        table.add(Symbol(name="late", kind=SymbolKind.FUNCTION, value=8, size=8))
    assert len(table) == 1


_TINY = scenario_preset("tiny")


@pytest.mark.parametrize("style", [HashStyle.SYSV, HashStyle.GNU], ids=["sysv", "gnu"])
@pytest.mark.parametrize(
    "mode",
    [BuildMode.VANILLA, BuildMode.LINKED, BuildMode.LINKED_BIND_NOW],
    ids=["vanilla", "link", "link+bind"],
)
@pytest.mark.parametrize("engine", ["analytic", "multirank"])
def test_reports_match_a_lowering_per_build(monkeypatch, style, mode, engine):
    spec = _TINY.with_(hash_style=style, mode=mode)
    if engine == "multirank":
        spec = spec.with_(engine="multirank", n_tasks=4, cores_per_node=2)
    # Shared: the memo already holds (and has probed) this key.
    simulate(spec.with_(config=dataclasses.replace(spec.config, seed=11)))
    shared = simulate(spec)
    # Reference: lowered afresh for every build, as before the memo.
    monkeypatch.setattr(
        builds, "_lowered_system_libs", _lowered_system_libs.__wrapped__
    )
    fresh = simulate(spec)
    assert repr(shared) == repr(fresh)
