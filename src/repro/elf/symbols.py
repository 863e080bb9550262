"""Symbols, string tables and the ELF hash tables (SysV and GNU).

The resolver's cost — the heart of Tables I and II — is a walk over these
structures: hash the name, index the bucket array, chase the chain,
compare strings.  We reproduce the classic SysV layout (what 2007-era
toolchains emitted): a bucket array sized proportionally to the symbol
count, 24-byte ``Elf64_Sym`` entries, and a NUL-terminated string table.

We also model the ``DT_GNU_HASH`` format that later toolchains adopted
*specifically because of* workloads like Pynamic's: its Bloom filter
rejects absent symbols with a single word read, collapsing the
scope-walk cost that dominates the paper's Link build.  The
``ablation_hash_style`` experiment quantifies that fix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigError


class HashStyle(enum.Enum):
    """Which hash section the dynamic linker walks."""

    SYSV = "sysv"
    GNU = "gnu"


def gnu_hash(name: str) -> int:
    """The DJB-style hash used by DT_GNU_HASH (``dl_new_hash``)."""
    h = 5381
    for char in name.encode("utf-8", errors="replace"):
        h = (h * 33 + char) & 0xFFFFFFFF
    return h

#: Size of one Elf64_Sym entry in bytes.
SYMBOL_ENTRY_BYTES = 24
#: Bytes of hash-table header (nbucket, nchain).
HASH_HEADER_BYTES = 8
#: Bytes per bucket / chain slot (Elf32 words, as in the SysV hash).
HASH_SLOT_BYTES = 4


def elf_hash(name: str) -> int:
    """The classic SysV ELF hash function (matching glibc's `_dl_elf_hash`).

    glibc's step is ``h = (h << 4) + c; g = h & 0xf0000000; h ^= g >> 24;
    h &= ~g``.  The high nibble ``g`` folds into bits 4-7 and is then
    cleared, so ``h`` always fits in 28 bits; the loop below does the
    same fold without the branch.
    """
    h = 0
    for char in name.encode("utf-8", errors="replace"):
        h = (h << 4) + char
        h = (h ^ ((h >> 24) & 0xF0)) & 0x0FFFFFFF
    return h


class NameHash:
    """One looked-up name's hashes, each computed at most once.

    glibc's ``_dl_lookup_symbol_x`` hashes the wanted name once per
    lookup, not once per scope object: the GNU hash up front and the
    SysV hash the first time an object without ``DT_GNU_HASH`` needs it.
    A resolver makes one of these per lookup and hands it to every
    table's :meth:`SymbolTable.probe_plan`, so a name is hashed at most
    once per style however long the scope.  It lives only as long as
    the lookup; nothing is memoized across lookups.
    """

    __slots__ = ("name", "_sysv", "_gnu")

    def __init__(self, name: str) -> None:
        self.name = name
        self._sysv: int | None = None
        self._gnu: int | None = None

    def sysv(self) -> int:
        """The SysV (``DT_HASH``) hash of the name."""
        if self._sysv is None:
            self._sysv = elf_hash(self.name)
        return self._sysv

    def gnu(self) -> int:
        """The GNU (``DT_GNU_HASH``) hash of the name."""
        if self._gnu is None:
            self._gnu = gnu_hash(self.name)
        return self._gnu


def strcmp_cost_chars(a: str, b: str) -> int:
    """Characters strcmp examines: the common prefix plus the mismatch."""
    if a == b:
        return len(a) + 1  # every character, then both NULs
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i + 1


class SymbolKind(enum.Enum):
    """STT_FUNC vs STT_OBJECT, the two kinds the generator emits."""

    FUNCTION = "function"
    OBJECT = "object"


@dataclass(frozen=True)
class Symbol:
    """One exported (defined) dynamic symbol."""

    name: str
    kind: SymbolKind
    #: Offset of the symbol inside its section (text for functions).
    value: int
    size: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("symbol name must be non-empty")
        if self.value < 0 or self.size < 0:
            raise ConfigError(f"negative value/size for symbol {self.name!r}")


class StringTable:
    """A NUL-terminated string pool (``.dynstr``/``.strtab``)."""

    def __init__(self) -> None:
        self._offsets: dict[str, int] = {}
        self._size = 1  # leading NUL, as in real ELF

    def add(self, name: str) -> int:
        """Intern a string, returning its byte offset."""
        existing = self._offsets.get(name)
        if existing is not None:
            return existing
        offset = self._size
        self._offsets[name] = offset
        self._size += len(name.encode("utf-8", errors="replace")) + 1
        return offset

    def offset_of(self, name: str) -> int:
        """Offset of an interned string."""
        try:
            return self._offsets[name]
        except KeyError:
            raise ConfigError(f"string {name!r} not interned") from None

    def __contains__(self, name: str) -> bool:
        return name in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)

    @property
    def size_bytes(self) -> int:
        """Total byte size of the pool."""
        return self._size


class ProbePlan(NamedTuple):
    """The precomputed replay of one table's hash probe for one name.

    Every lookup of ``name`` against a given (immutable-since-build)
    table touches the same sequence of structures: the Bloom word (GNU
    only), the bucket slot, then per chain entry an ``Elf64_Sym`` read,
    a bounded strcmp and the ``.dynstr`` bytes it examined.  The plan
    stores that sequence as *section-relative offsets* — per-process
    load bases are added back at replay time — so one plan serves every
    process mapping the DLL, and replaying it charges the exact same
    ``work``/``dread`` calls (same order, sizes and per-call rounding)
    as the walk it memoizes.  A cold rank builds a plan for nearly every
    probe, so it is a named tuple, which is cheap to construct.
    """

    #: Byte offset of the bucket slot within the hash section.
    bucket_offset: int
    #: Per chain entry: (dynsym entry offset, strcmp chars, dynstr offset).
    steps: tuple[tuple[int, int, int], ...]
    #: The matching symbol, or None when the chain lacks the name.
    symbol: "Symbol | None"
    #: GNU only: byte offset of the Bloom word the lookup reads.
    bloom_offset: int
    #: GNU only: False means the Bloom word rejected the name and the
    #: bucket chain is never walked (``steps`` is empty).
    bloom_pass: bool


class SymbolTable:
    """A dynamic symbol table with its SysV hash index.

    Indexing follows real ELF: symbol 0 is the reserved undefined symbol,
    so defined symbols occupy indices 1..n.
    """

    def __init__(
        self,
        bucket_ratio: float = 1.0,
        hash_style: HashStyle = HashStyle.SYSV,
    ) -> None:
        if bucket_ratio <= 0:
            raise ConfigError("bucket_ratio must be positive")
        self._bucket_ratio = bucket_ratio
        self.hash_style = hash_style
        self._symbols: list[Symbol] = []
        self._by_name: dict[str, int] = {}
        self.strings = StringTable()
        self._buckets: dict[int, list[int]] | None = None
        self._nbuckets = 1
        self._bloom_bits: set[tuple[int, int]] = set()
        self._bloom_words = 1
        self._probe_plans: dict[str, ProbePlan] = {}

    def _hash(self, name: str) -> int:
        if self.hash_style is HashStyle.GNU:
            return gnu_hash(name)
        return elf_hash(name)

    # -- GNU-hash Bloom filter ---------------------------------------------
    _BLOOM_SHIFT = 6

    def _bloom_positions(self, h: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two Bloom (word, bit) positions of a name's GNU hash ``h``."""
        word = (h // 64) % self._bloom_words
        return (word, h % 64), (word, (h >> self._BLOOM_SHIFT) % 64)

    def _bloom_passes(self, h: int) -> bool:
        a, b = self._bloom_positions(h)
        return a in self._bloom_bits and b in self._bloom_bits

    def _bloom_offset(self, h: int) -> int:
        (word, _bit), _ = self._bloom_positions(h)
        return 16 + 8 * word  # 16-byte GNU hash header, 8-byte words

    @property
    def bloom_words(self) -> int:
        """Number of 64-bit Bloom filter words (GNU hash only)."""
        if self._buckets is None:
            self._build_index()
        return self._bloom_words

    def bloom_maybe_contains(self, name: str) -> bool:
        """GNU-hash fast path: can this object possibly define ``name``?

        False means definitely absent (one memory word decided it); True
        means the bucket chain must be walked (rare false positives are
        part of the real design).
        """
        if self.hash_style is not HashStyle.GNU:
            raise ConfigError("Bloom filter only exists for GNU-hash tables")
        if self._buckets is None:
            self._build_index()
        return self._bloom_passes(gnu_hash(name))

    def bloom_word_offset(self, name: str) -> int:
        """Byte offset of the Bloom word a lookup reads (GNU hash only)."""
        if self._buckets is None:
            self._build_index()
        return self._bloom_offset(gnu_hash(name))

    def add(self, symbol: Symbol) -> int:
        """Add a defined symbol; returns its table index (1-based)."""
        if symbol.name in self._by_name:
            raise ConfigError(f"duplicate symbol {symbol.name!r}")
        self._symbols.append(symbol)
        index = len(self._symbols)  # 1-based, slot 0 is STN_UNDEF
        self._by_name[symbol.name] = index
        self.strings.add(symbol.name)
        self._buckets = None  # invalidate the hash index
        self._probe_plans.clear()  # plans bake chain order and offsets
        return index

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> Symbol | None:
        """Direct (oracle) lookup by name, bypassing the hash walk."""
        index = self._by_name.get(name)
        if index is None:
            return None
        return self._symbols[index - 1]

    def at(self, index: int) -> Symbol:
        """Symbol at a 1-based table index."""
        if not 1 <= index <= len(self._symbols):
            raise ConfigError(f"symbol index {index} out of range")
        return self._symbols[index - 1]

    def symbols(self) -> tuple[Symbol, ...]:
        """All defined symbols in index order."""
        return tuple(self._symbols)

    # -- hash geometry ----------------------------------------------------
    def _build_index(self) -> None:
        n = max(1, len(self._symbols))
        self._nbuckets = max(1, int(n * self._bucket_ratio))
        # Each symbol's name is hashed once; GNU tables reuse that hash
        # for the Bloom filter.
        hashes = [self._hash(symbol.name) for symbol in self._symbols]
        buckets: dict[int, list[int]] = {}
        for index, h in enumerate(hashes, start=1):
            buckets.setdefault(h % self._nbuckets, []).append(index)
        self._buckets = buckets
        if self.hash_style is HashStyle.GNU:
            self._bloom_words = max(1, n // 8)
            bits: set[tuple[int, int]] = set()
            for h in hashes:
                bits.update(self._bloom_positions(h))
            self._bloom_bits = bits

    @property
    def nbuckets(self) -> int:
        """Number of hash buckets."""
        if self._buckets is None:
            self._build_index()
        return self._nbuckets

    def bucket_of(self, name: str) -> int:
        """The bucket a name hashes into (style-dependent hash)."""
        return self._hash(name) % self.nbuckets

    def chain(self, bucket: int) -> list[int]:
        """Symbol indices chained in a bucket (possibly empty)."""
        if self._buckets is None:
            self._build_index()
        assert self._buckets is not None
        return self._buckets.get(bucket, [])

    def probe_plan(self, name: str, hashes: NameHash | None = None) -> ProbePlan:
        """The memoized probe replay for ``name`` against this table.

        Built once per (table, name) by walking the hash structures the
        slow way; every subsequent lookup — and in a Pynamic job the
        same import/visit names are probed against the same DLL scope
        once *per rank* — replays the cached offset sequence instead.
        :meth:`add` invalidates all plans along with the hash index.

        ``hashes`` is the lookup's :class:`NameHash` for ``name``: a
        plan build takes the name's hash from it, so one lookup hashes
        its name at most once per style across the whole scope.  A GNU
        plan derives its Bloom word, Bloom bits and bucket from that one
        hash.
        """
        plan = self._probe_plans.get(name)
        if plan is not None:
            return plan
        if hashes is None:
            hashes = NameHash(name)
        if self._buckets is None:
            self._build_index()
        bloom_offset = 0
        bloom_pass = True
        if self.hash_style is HashStyle.GNU:
            h = hashes.gnu()
            bloom_offset = self._bloom_offset(h)
            bloom_pass = self._bloom_passes(h)
        else:
            h = hashes.sysv()
        bucket_offset = 0
        steps: list[tuple[int, int, int]] = []
        symbol: Symbol | None = None
        if bloom_pass:
            bucket = h % self._nbuckets
            bucket_offset = self.bucket_slot_offset(bucket)
            name_offsets = self.strings._offsets
            for index in self._buckets.get(bucket, ()):
                candidate = self._symbols[index - 1]
                steps.append(
                    (
                        SYMBOL_ENTRY_BYTES * index,
                        strcmp_cost_chars(name, candidate.name),
                        name_offsets[candidate.name],
                    )
                )
                if candidate.name == name:
                    symbol = candidate
                    break
        plan = ProbePlan(
            bucket_offset=bucket_offset,
            steps=tuple(steps),
            symbol=symbol,
            bloom_offset=bloom_offset,
            bloom_pass=bloom_pass,
        )
        self._probe_plans[name] = plan
        return plan

    # -- byte sizes ---------------------------------------------------------
    @property
    def symtab_bytes(self) -> int:
        """Size of the symbol entry array, including slot 0."""
        return (len(self._symbols) + 1) * SYMBOL_ENTRY_BYTES

    @property
    def strtab_bytes(self) -> int:
        """Size of the associated string table."""
        return self.strings.size_bytes

    @property
    def hash_bytes(self) -> int:
        """Size of the hash section (style-dependent layout)."""
        nchain = len(self._symbols) + 1
        if self.hash_style is HashStyle.GNU:
            return (
                16  # nbuckets, symoffset, bloom_size, bloom_shift
                + 8 * self.bloom_words
                + HASH_SLOT_BYTES * (self.nbuckets + nchain)
            )
        return HASH_HEADER_BYTES + HASH_SLOT_BYTES * (self.nbuckets + nchain)

    # -- simulated addresses used by the resolver ---------------------------
    def bucket_slot_offset(self, bucket: int) -> int:
        """Byte offset of a bucket slot within the hash section."""
        if not 0 <= bucket < self.nbuckets:
            raise ConfigError(f"bucket {bucket} out of range")
        return HASH_HEADER_BYTES + HASH_SLOT_BYTES * bucket

    def symbol_entry_offset(self, index: int) -> int:
        """Byte offset of a symbol entry within the dynsym section."""
        if not 0 <= index <= len(self._symbols):
            raise ConfigError(f"symbol index {index} out of range")
        return SYMBOL_ENTRY_BYTES * index
