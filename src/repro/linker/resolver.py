"""Scope-ordered symbol lookup.

``_dl_lookup_symbol`` walks the search scope object by object; in each
object it indexes the SysV hash table, chases the bucket chain, and
compares candidate names.  Every step is charged as real memory traffic
(bucket slot, Elf64_Sym entries, .dynstr bytes), which is precisely the
"memory intensive binding operations" the paper blames for the visit-time
L1-D miss explosion of lazily-bound pre-linked builds (Table II).

As in glibc, a lookup hashes the wanted name once, not once per scope
object, and as with ``ld``, a name the build defines was hashed at link
time: :meth:`SymbolResolver.lookup` takes its
:class:`~repro.elf.symbols.NameHash` from the build's
:class:`~repro.elf.symbols.LinkHashes`, so it hashes a defined name
zero times and any other name at most once per style.

:meth:`SymbolResolver.lookup` runs the whole scope walk in one loop over
each table's compiled bucket chains (:meth:`SymbolTable.compile`): the
Bloom word, the bucket slot, and per chain entry the ``Elf64_Sym`` and
the ``.dynstr`` bytes strcmp examined.  Each read takes the execution
context's access path inline: the resident-page filter, then
:meth:`~repro.cache.hierarchy.CacheHierarchy.walk`.  Instruction work
is rounded to cycles step by step, exactly as
:meth:`ExecutionContext.work` rounds it, and the cycles pile up in a
local that is added to the node clock before any page fault is
serviced (a major fault reads the file at the current clock) and at the
end.  The charged clock, counters and cache state are those of the
per-probe ``work``/``dread`` walk, which ``tests/test_resolver_plans.py``
keeps as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.elf.linkmap import LoadedObject
from repro.elf.symbols import (
    GNU_HASH_HEADER_BYTES,
    HASH_HEADER_BYTES,
    SYMBOL_ENTRY_BYTES,
    HashStyle,
    NameHash,
    Symbol,
    bloom_probe,
    strcmp_cost_chars,
)
from repro.errors import UndefinedSymbolError
from repro.machine.context import ExecutionContext

#: Bytes of a hash bucket slot read per probe.
_BUCKET_READ_BYTES = 4


@dataclass(frozen=True)
class ResolutionResult:
    """Outcome of a successful lookup."""

    provider: LoadedObject
    symbol: Symbol
    #: Number of objects probed before the definition was found.
    objects_probed: int
    #: Runtime address of the definition.
    address: int


class SymbolResolver:
    """Walks a search scope charging the realistic memory traffic."""

    def __init__(self) -> None:
        self.lookups = 0
        self.total_probes = 0

    def lookup(
        self,
        ctx: ExecutionContext,
        scope: Sequence[LoadedObject],
        name: str,
    ) -> ResolutionResult:
        """Resolve ``name`` against ``scope`` in order.

        Raises :class:`UndefinedSymbolError` when no object defines it.
        """
        costs = ctx.costs
        cpi = costs.cycles_per_instruction
        self.lookups += 1
        # The name hash is computed once per lookup (glibc caches it),
        # and charged once here.
        pending = costs.instructions_to_cycles(
            costs.lookup_base_instructions
            + costs.hash_instructions_per_char * len(name)
        )
        bloom_cycles = round(costs.bloom_check_instructions * cpi)
        probe_cycles = round(costs.probe_instructions * cpi)
        strcmp_per_char = costs.strcmp_instructions_per_char
        name_chars = len(name) + 1  # an equal name: every char, then NUL
        first_char = name[:1]
        if scope:
            hashes = scope[0].shared_object.symbol_table.link_hashes.name_hash(name)
        else:
            hashes = NameHash(name)
        gnu_style = HashStyle.GNU
        clock = ctx._clock
        present = ctx._present
        shift = ctx._page_shift
        touch = ctx._touch
        walk = ctx._walk
        l1d = ctx._l1d
        probed = 0
        for obj in scope:
            probed += 1
            table = obj.shared_object.symbol_table
            chains = table.bucket_chains
            if chains is None:
                chains = table.compile()
            hash_base = obj.hash_base
            if table.hash_style is gnu_style:
                # DT_GNU_HASH fast path: one Bloom-word read rejects objects
                # that cannot define the symbol — the post-2007 fix for
                # exactly the scope-walk cost Pynamic exposes.
                bloom = table.bloom
                word, mask = bloom_probe(hashes.gnu(), len(bloom))
                pending += bloom_cycles
                address = hash_base + GNU_HASH_HEADER_BYTES + 8 * word
                page = address >> shift
                if page not in present or (address + 7) >> shift != page:
                    clock.add_cycles(pending)
                    pending = 0
                    touch(address, 8)
                pending += walk(l1d, address, 8)
                if bloom[word] & mask != mask:
                    continue
                bucket = hashes.gnu() % len(chains)
            else:
                bucket = hashes.sysv() % len(chains)
            pending += probe_cycles
            address = hash_base + HASH_HEADER_BYTES + _BUCKET_READ_BYTES * bucket
            page = address >> shift
            if page not in present or (address + 3) >> shift != page:
                clock.add_cycles(pending)
                pending = 0
                touch(address, _BUCKET_READ_BYTES)
            pending += walk(l1d, address, _BUCKET_READ_BYTES)
            dynsym_base = obj.dynsym_base
            dynstr_base = obj.dynstr_base
            for entry_offset, name_offset, symbol in chains[bucket]:
                address = dynsym_base + entry_offset
                page = address >> shift
                if page not in present or (address + 23) >> shift != page:
                    clock.add_cycles(pending)
                    pending = 0
                    touch(address, SYMBOL_ENTRY_BYTES)
                pending += walk(l1d, address, SYMBOL_ENTRY_BYTES)
                # glibc strcmp's every chain entry against the wanted name.
                candidate = symbol.name
                match = candidate == name
                if match:
                    chars = name_chars
                elif candidate[:1] != first_char:
                    chars = 1  # most chain neighbours differ at once
                else:
                    chars = strcmp_cost_chars(name, candidate)
                pending += round(strcmp_per_char * chars * cpi)
                address = dynstr_base + name_offset
                page = address >> shift
                if page not in present or (address + chars - 1) >> shift != page:
                    clock.add_cycles(pending)
                    pending = 0
                    touch(address, chars)
                pending += walk(l1d, address, chars)
                if match:
                    clock.add_cycles(pending)
                    self.total_probes += probed
                    return ResolutionResult(
                        provider=obj,
                        symbol=symbol,
                        objects_probed=probed,
                        address=obj.symbol_value_addr(symbol),
                    )
        clock.add_cycles(pending)
        self.total_probes += probed
        raise UndefinedSymbolError(name, len(scope))
