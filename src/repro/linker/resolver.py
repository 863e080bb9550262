"""Scope-ordered symbol lookup.

``_dl_lookup_symbol`` walks the search scope object by object; in each
object it indexes the SysV hash table, chases the bucket chain, and
compares candidate names.  Every step is charged as real memory traffic
(bucket slot, Elf64_Sym entries, .dynstr bytes), which is precisely the
"memory intensive binding operations" the paper blames for the visit-time
L1-D miss explosion of lazily-bound pre-linked builds (Table II).

As in glibc, a lookup hashes the wanted name once, not once per scope
object: :meth:`SymbolResolver.lookup` makes one
:class:`~repro.elf.symbols.NameHash` per lookup, which computes each
hash style at most once and only when a table actually needs it, and
hands it to every table it probes.

The *charged* traffic is identical on every lookup of a name against an
unchanged table, so the per-object probe is driven by a memoized
:class:`~repro.elf.symbols.ProbePlan`: the chain walk, strcmp prefix
lengths and string-table offsets are computed once per (table, name)
and replayed for every rank that binds the same symbol — the
symbol-probe hot path ROADMAP flags on 16k-rank jobs.  Replay adds the
object's hash/dynsym/dynstr bases, kept as plain ints on the
:class:`~repro.elf.linkmap.LoadedObject`, and preserves the exact
``work``/``dread`` call sequence (per-call cycle rounding and cache
state depend on it), pinned bit-identical against
:meth:`SymbolResolver._probe_reference`, the original walk kept as the
reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.elf.linkmap import LoadedObject
from repro.elf.sections import SectionKind
from repro.elf.symbols import (
    SYMBOL_ENTRY_BYTES,
    HashStyle,
    NameHash,
    Symbol,
    strcmp_cost_chars,
)
from repro.errors import UndefinedSymbolError
from repro.machine.context import ExecutionContext

#: Bytes of a hash bucket slot read per probe.
_BUCKET_READ_BYTES = 4

# Kept under the historical name for callers and tests.
_strcmp_cost_chars = strcmp_cost_chars


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
        self.lookups += 1
        # The name hash is computed once per lookup (glibc caches it),
        # and charged once here.
        ctx.work(
            costs.lookup_base_instructions
            + costs.hash_instructions_per_char * len(name)
        )
        hashes = NameHash(name)
        probed = 0
        for obj in scope:
            probed += 1
            symbol = self._probe(ctx, obj, name, hashes)
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

    def _probe(
        self,
        ctx: ExecutionContext,
        obj: LoadedObject,
        name: str,
        hashes: NameHash | None = None,
    ) -> Symbol | None:
        """Probe one object's hash table; None if it lacks the symbol.

        Replays the table's memoized :class:`ProbePlan` (built, on a
        miss, from the lookup's ``hashes``): the plan holds
        section-relative offsets, the object's per-process load bases
        are added here, and the ``work``/``dread`` sequence charged is
        exactly the one :meth:`_probe_reference` would issue.
        """
        costs = ctx.costs
        table = obj.shared_object.symbol_table
        plan = table.probe_plan(name, hashes)
        hash_base = obj.hash_base
        if table.hash_style is HashStyle.GNU:
            # DT_GNU_HASH fast path: one Bloom-word read rejects objects
            # that cannot define the symbol — the post-2007 fix for
            # exactly the scope-walk cost Pynamic exposes.
            ctx.work(costs.bloom_check_instructions)
            ctx.dread(hash_base + plan.bloom_offset, 8)
            if not plan.bloom_pass:
                return None
        ctx.work(costs.probe_instructions)
        ctx.dread(hash_base + plan.bucket_offset, _BUCKET_READ_BYTES)
        dynsym_base = obj.dynsym_base
        dynstr_base = obj.dynstr_base
        strcmp_per_char = costs.strcmp_instructions_per_char
        work = ctx.work
        dread = ctx.dread
        for entry_offset, chars, name_offset in plan.steps:
            dread(dynsym_base + entry_offset, SYMBOL_ENTRY_BYTES)
            # glibc strcmp's every chain entry against the wanted name.
            work(strcmp_per_char * chars)
            dread(dynstr_base + name_offset, chars)
        return plan.symbol

    def _probe_reference(
        self,
        ctx: ExecutionContext,
        obj: LoadedObject,
        name: str,
        hashes: NameHash | None = None,
    ) -> Symbol | None:
        """The original un-memoized probe, kept as the reference.

        Tests pin :meth:`_probe` bit-identical against this walk, and
        the ``symbol_probe`` microbenchmark measures the plan cache
        against the per-lookup structure walk it replaced.  It hashes
        ``name`` itself and ignores ``hashes``.
        """
        costs = ctx.costs
        table = obj.shared_object.symbol_table
        if table.hash_style is HashStyle.GNU:
            ctx.work(costs.bloom_check_instructions)
            ctx.dread(
                obj.base(SectionKind.HASH) + table.bloom_word_offset(name), 8
            )
            if not table.bloom_maybe_contains(name):
                return None
        ctx.work(costs.probe_instructions)
        bucket = table.bucket_of(name)
        ctx.dread(obj.hash_slot_addr(bucket), _BUCKET_READ_BYTES)
        for index in table.chain(bucket):
            candidate = table.at(index)
            ctx.dread(obj.symbol_entry_addr(index), SYMBOL_ENTRY_BYTES)
            chars = strcmp_cost_chars(name, candidate.name)
            ctx.work(costs.strcmp_instructions_per_char * chars)
            ctx.dread(obj.symbol_name_addr(candidate.name), chars)
            if candidate.name == name:
                return candidate
        return None
