"""The fused scope walk must be invisible to the model.

:meth:`SymbolResolver.lookup` walks the whole scope in one loop over
each table's compiled bucket chains, with the access path inlined and
the instruction cycles held in a local until a page fault or the end of
the lookup.  ``instructions_to_cycles`` rounds *per call*, the cache
hierarchy is stateful and a major fault reads the file system at the
current clock, so the loop is only correct if it charges exactly what
the plain per-probe walk charges: the same ``work``/``dread`` sequence,
in the same order, with the same addresses and sizes.

That plain walk is kept below as the reference.  It takes nothing from
the compiled index: it rebuilds each table's chains and Bloom filter
from :func:`elf_hash`/:func:`gnu_hash`.  The tests compare lookups
against it on SysV, GNU and mixed scopes, at a non-integer CPI (which
catches cycles summed before rounding), and with ``.dynstr`` pages
evicted so a chain walk takes a major NFS fault (which catches cycles
added to the clock after the fault's read was booked), and run whole
simulations both ways.  :class:`TestProbePlan` covers the compiled
chains themselves: a probe's plan is its bucket's compiled chain.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.elf.image import Executable, SharedObject
from repro.elf.sections import SectionKind
from repro.elf.symbols import (
    SYMBOL_ENTRY_BYTES,
    HashStyle,
    Symbol,
    SymbolKind,
    SymbolTable,
    elf_hash,
    gnu_hash,
    strcmp_cost_chars,
)
from repro.errors import UndefinedSymbolError
from repro.fs.nfs import NFSServer
from repro.linker.dynamic import DynamicLinker
from repro.linker.resolver import ResolutionResult, SymbolResolver
from repro.machine.context import ExecutionContext
from repro.machine.costs import CostModel
from repro.machine.node import TimedReadNode
from repro.scenario import scenario_preset, simulate

# -- the reference walk ------------------------------------------------------


def _reference_index(table: SymbolTable):
    """(chains by bucket, Bloom (word, bit) set), hashed from scratch."""
    gnu = table.hash_style is HashStyle.GNU
    hash_of = gnu_hash if gnu else elf_hash
    n = max(1, len(table))
    nbuckets = max(1, int(n * table._bucket_ratio))
    words = max(1, n // 8)
    chains: dict[int, list[int]] = {}
    bloom: set[tuple[int, int]] = set()
    for index, symbol in enumerate(table.symbols(), start=1):
        h = hash_of(symbol.name)
        chains.setdefault(h % nbuckets, []).append(index)
        word = (h // 64) % words
        bloom.update({(word, h % 64), (word, (h >> 6) % 64)})
    return chains, bloom, nbuckets, words


def _probe_reference(ctx: ExecutionContext, obj, name: str) -> "Symbol | None":
    """One object's probe, as ``_dl_lookup_symbol`` does it, step by step."""
    costs = ctx.costs
    table = obj.shared_object.symbol_table
    chains, bloom, nbuckets, words = _reference_index(table)
    hash_base = obj.base(SectionKind.HASH)
    if table.hash_style is HashStyle.GNU:
        h = gnu_hash(name)
        word = (h // 64) % words
        ctx.work(costs.bloom_check_instructions)
        ctx.dread(hash_base + 16 + 8 * word, 8)
        if (word, h % 64) not in bloom or (word, (h >> 6) % 64) not in bloom:
            return None
    else:
        h = elf_hash(name)
    ctx.work(costs.probe_instructions)
    bucket = h % nbuckets
    ctx.dread(hash_base + 8 + 4 * bucket, 4)
    for index in chains.get(bucket, []):
        candidate = table.at(index)
        ctx.dread(
            obj.base(SectionKind.DYNSYM) + SYMBOL_ENTRY_BYTES * index,
            SYMBOL_ENTRY_BYTES,
        )
        chars = strcmp_cost_chars(name, candidate.name)
        ctx.work(costs.strcmp_instructions_per_char * chars)
        ctx.dread(
            obj.base(SectionKind.DYNSTR) + table.strings.offset_of(candidate.name),
            chars,
        )
        if candidate.name == name:
            return candidate
    return None


def reference_lookup(self, ctx, scope, name):
    """:meth:`SymbolResolver.lookup` as one ``_probe_reference`` per object."""
    costs = ctx.costs
    self.lookups += 1
    ctx.work(
        costs.lookup_base_instructions + costs.hash_instructions_per_char * len(name)
    )
    probed = 0
    for obj in scope:
        probed += 1
        symbol = _probe_reference(ctx, obj, name)
        if symbol is not None:
            self.total_probes += probed
            return ResolutionResult(
                provider=obj,
                symbol=symbol,
                objects_probed=probed,
                address=obj.symbol_value_addr(symbol),
            )
    self.total_probes += probed
    raise UndefinedSymbolError(name, len(scope))


# -- worlds ------------------------------------------------------------------


class _RecordingNFS(NFSServer):
    """An NFS server that records the virtual time of every request."""

    def __init__(self) -> None:
        super().__init__()
        self.arrivals: list[float] = []

    def request_at(self, start_s, n_bytes, n_ops=1):
        self.arrivals.append(start_s)
        return super().request_at(start_s, n_bytes, n_ops)


def _table(style: HashStyle, names, bucket_ratio: float = 1.0) -> SymbolTable:
    table = SymbolTable(bucket_ratio=bucket_ratio, hash_style=style)
    for i, name in enumerate(names):
        table.add(Symbol(name=name, kind=SymbolKind.FUNCTION, value=16 * i, size=16))
    return table


def _lib_names(n: int, count: int) -> "list[str]":
    # Shared prefixes make strcmp walk past the first character.
    return [f"lib{n}_function_{i:03d}_" + "x" * (i % 5) for i in range(count)]


def _world(styles, cpi=1.0, bucket_ratio=0.25, evict=()):
    """A started process whose scope is an executable plus one library
    per style; each ``(library, section)`` in ``evict`` loses its resident
    pages and the node its page cache, so the next read there is a
    major NFS fault."""
    nfs = _RecordingNFS()
    exe = Executable(
        soname="main", path="/nfs/main", symbol_table=_table(styles[0], ["main"])
    )
    registry = {"main": exe}
    for n, style in enumerate(styles):
        lib = SharedObject(
            soname=f"lib{n}.so",
            path=f"/nfs/lib{n}.so",
            symbol_table=_table(style, _lib_names(n, 40), bucket_ratio),
        )
        lib.finalize_sections(text_bytes=16 * 40, data_bytes=64, debug_bytes=64)
        exe.needed.append(lib.soname)
        registry[lib.soname] = lib
    exe.finalize_sections(text_bytes=4096, data_bytes=64, debug_bytes=64)
    for shared in registry.values():
        shared.publish(nfs)
    node = TimedReadNode(costs=CostModel(cycles_per_instruction=cpi))
    process = node.spawn()
    ctx = ExecutionContext(process)
    linker = DynamicLinker(registry)
    link_map = linker.start_program(process, exe, ctx)
    for n, kind in evict:
        mapping = link_map.find(f"lib{n}.so").mappings[kind]
        page = process.address_space.page_bytes
        for address in range(mapping.start, mapping.end, page):
            ctx._present.discard(address // page)
        node.buffer_cache.drop()
    return linker, ctx, link_map.global_scope, nfs


def _run(world, names, lookup):
    linker, ctx, scope, _ = world
    outcomes = []
    for name in names:
        try:
            result = lookup(linker.resolver, ctx, scope, name)
        except UndefinedSymbolError:
            outcomes.append(None)
        else:
            outcomes.append(
                (result.provider.soname, result.symbol, result.objects_probed,
                 result.address)
            )
    return outcomes


def _state(world) -> tuple:
    linker, ctx, _, nfs = world
    hierarchy = ctx.node.hierarchy
    levels = (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
    return (
        ctx.node.clock.cycles,
        hierarchy.counters(),
        [[list(tags) for tags in level._sets] for level in levels],
        (ctx.minor_faults, ctx.major_faults, ctx.major_fault_bytes),
        nfs.arrivals,
        (linker.resolver.lookups, linker.resolver.total_probes),
    )


def _wanted(n_libs: int) -> "list[str]":
    names = [
        name
        for n in range(n_libs)
        for name in _lib_names(n, 40)[::7]
    ]
    return names + ["lib0_function_", "nowhere_defined", "main"] + names[:3]


def _assert_lookup_matches_reference(build_world, names):
    fused, reference = build_world(), build_world()
    assert _run(fused, names, SymbolResolver.lookup) == _run(
        reference, names, reference_lookup
    )
    assert _state(fused) == _state(reference)


SCOPES = {
    "sysv": [HashStyle.SYSV] * 4,
    "gnu": [HashStyle.GNU] * 4,
    "mixed": [HashStyle.SYSV, HashStyle.GNU, HashStyle.GNU, HashStyle.SYSV],
}


@pytest.mark.parametrize("styles", SCOPES.values(), ids=SCOPES.keys())
@pytest.mark.parametrize("cpi", [1.0, 1.37])
def test_lookup_matches_reference_walk(styles, cpi):
    _assert_lookup_matches_reference(
        lambda: _world(styles, cpi=cpi), _wanted(len(styles))
    )


@pytest.mark.parametrize("styles", SCOPES.values(), ids=SCOPES.keys())
def test_major_nfs_fault_mid_chain_sees_the_current_clock(styles):
    evict = [(1, SectionKind.DYNSTR), (2, SectionKind.DYNSTR), (3, SectionKind.HASH)]

    def build():
        return _world(styles, cpi=1.37, evict=evict)

    _assert_lookup_matches_reference(build, _wanted(len(styles)))
    world = build()
    _run(world, _wanted(len(styles)), SymbolResolver.lookup)
    assert world[1].major_faults >= 2  # the evicted pages really faulted


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    styles=st.lists(st.sampled_from(list(HashStyle)), min_size=1, max_size=4),
    cpi=st.sampled_from([0.8, 1.0, 1.37, 2.5]),
    bucket_ratio=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
    dynstr_fault=st.booleans(),
)
def test_random_scopes_match_reference_walk(styles, cpi, bucket_ratio, dynstr_fault):
    evict = [(0, SectionKind.DYNSTR)] if dynstr_fault else []
    _assert_lookup_matches_reference(
        lambda: _world(styles, cpi=cpi, bucket_ratio=bucket_ratio, evict=evict),
        _wanted(len(styles)),
    )


class TestProbePlan:
    """A table's compiled bucket chains: what every probe replays."""

    def test_plan_finds_the_symbol(self):
        table = _table(HashStyle.SYSV, ["alpha", "beta", "gamma"])
        chain = table.compile()[table.bucket_of("beta")]
        assert table.get("beta") in [symbol for _, _, symbol in chain]

    def test_plan_for_absent_name_has_no_symbol(self):
        table = _table(HashStyle.SYSV, ["alpha", "beta"])
        chain = table.compile()[table.bucket_of("delta")]
        assert all(symbol.name != "delta" for _, _, symbol in chain)

    def test_plan_is_cached_and_add_invalidates(self):
        table = _table(HashStyle.SYSV, ["alpha"])
        assert table.bucket_chains is None  # nothing compiled before a probe
        first = table.compile()
        assert table.bucket_chains is first
        table.add(Symbol(name="beta", kind=SymbolKind.FUNCTION, value=16, size=16))
        assert table.bucket_chains is None
        assert table.get("beta") in [
            symbol for chain in table.compile() for _, _, symbol in chain
        ]

    def test_gnu_bloom_reject_skips_the_chain(self):
        linker, ctx, scope, _ = _world([HashStyle.GNU] * 3)
        libraries = scope[1:]
        tables = [obj.shared_object.symbol_table for obj in libraries]
        rejected = next(
            (
                name
                for name in (f"absent_{i}" for i in range(10_000))
                if not any(table.bloom_maybe_contains(name) for table in tables)
            ),
            None,
        )
        assert rejected is not None, "no name every Bloom filter rejects"
        for table in tables:
            _, bloom, _, words = _reference_index(table)
            h = gnu_hash(rejected)
            word = (h // 64) % words
            assert (word, h % 64) not in bloom or (word, (h >> 6) % 64) not in bloom
        # The lookup reads one Bloom word per object and no bucket or chain.
        before = ctx.node.hierarchy.counters().l1d_accesses
        with pytest.raises(UndefinedSymbolError):
            linker.resolver.lookup(ctx, libraries, rejected)
        after = ctx.node.hierarchy.counters().l1d_accesses
        assert after - before == len(libraries)

    def test_plan_steps_match_reference_walk(self):
        names = [f"MPIDO_sym_{i:03d}" for i in range(32)]
        for style in HashStyle:
            table = _table(style, names, bucket_ratio=0.25)
            chains, bloom, nbuckets, words = _reference_index(table)
            compiled = table.compile()
            assert len(compiled) == nbuckets == table.nbuckets
            for bucket in range(nbuckets):
                assert [
                    (offset, name_offset, symbol)
                    for offset, name_offset, symbol in compiled[bucket]
                ] == [
                    (
                        table.symbol_entry_offset(index),
                        table.strings.offset_of(table.at(index).name),
                        table.at(index),
                    )
                    for index in chains.get(bucket, [])
                ]
            if style is HashStyle.GNU:
                assert {
                    (word, bit)
                    for word, bits in enumerate(table.bloom)
                    for bit in range(64)
                    if bits >> bit & 1
                } == bloom
                assert len(table.bloom) == words


@pytest.mark.parametrize("style", [HashStyle.SYSV, HashStyle.GNU])
def test_simulation_bit_identical_to_reference_probe(monkeypatch, style):
    """The whole point: the fused walk and the reference walk produce the
    same JobReport to the last bit (cycle rounding, cache state and all)."""
    spec = dataclasses.replace(scenario_preset("tiny"), hash_style=style)
    fused = simulate(spec)
    monkeypatch.setattr(SymbolResolver, "lookup", reference_lookup)
    reference = simulate(spec)
    assert fused == reference
