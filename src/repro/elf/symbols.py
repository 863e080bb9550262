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

Names are hashed where ``ld`` hashes them: at link time, once per
build.  Every :class:`SymbolTable` of a build shares one
:class:`LinkHashes`, which hashes all of the build's names in one batch
(:func:`elf_hash_many` for SysV) the first time any table is probed; the
resolver takes a defined name's hash from it.  The system libraries
are lowered once per process and shared by every build: their sealed
tables keep a :class:`LinkHashes` of their own, which each build's map
starts from.  A table's section sizes follow from its symbol count
alone, so a build that is only sized, published and staged hashes
nothing.  On its first probe a table compiles its index: per bucket, a
tuple of ``(dynsym entry offset, dynstr offset, Symbol)``, and for GNU
tables the Bloom words as ints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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
#: Bytes of GNU hash header (nbuckets, symoffset, bloom_size, bloom_shift);
#: the 8-byte Bloom words follow it.
GNU_HASH_HEADER_BYTES = 16


def bloom_probe(h: int, words: int) -> tuple[int, int]:
    """The Bloom word a GNU hash ``h`` tests, and the two bits it needs.

    Returns ``(word index, mask)``: the word is ``(h >> 6) % words`` and
    the bits are ``h % 64`` and ``(h >> 6) % 64`` (``bloom_shift`` 6).
    """
    return (h >> 6) % words, (1 << (h & 63)) | (1 << ((h >> 6) & 63))


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


def elf_hash_many(names: list[str]) -> list[int]:
    """:func:`elf_hash` of every name, computed for all of them at once.

    Each name gets a 40-bit lane of one Python int.  The names are
    left-padded with NUL to one length; a leading NUL keeps ``h`` at 0,
    so padding leaves every hash unchanged.  Each step of glibc's loop
    then runs on all lanes with a handful of big-int operations, the
    column of the names' ``i``-th bytes packed by slicing.  A lane
    holds at most 33 bits between the shift-add and the fold, so lanes
    never carry into each other.
    """
    if not names:
        return []
    encoded = [name.encode("utf-8", errors="replace") for name in names]
    width = max(map(len, encoded))
    lane_bytes = 5 * len(encoded)
    padded = b"".join(raw.rjust(width, b"\0") for raw in encoded)
    column = bytearray(lane_bytes)
    fold = int.from_bytes(b"\xf0\0\0\0\0" * len(encoded), "little")
    keep = int.from_bytes(b"\xff\xff\xff\x0f\0" * len(encoded), "little")
    h = 0
    for i in range(width):
        column[::5] = padded[i::width]
        h = (h << 4) + int.from_bytes(column, "little")
        h = (h ^ ((h >> 24) & fold)) & keep
    lanes = h.to_bytes(lane_bytes, "little")
    return [
        int.from_bytes(lanes[i : i + 4], "little")
        for i in range(0, lane_bytes, 5)
    ]


class NameHash:
    """One looked-up name's hashes, each computed at most once.

    glibc's ``_dl_lookup_symbol_x`` hashes the wanted name once per
    lookup, not once per scope object: the GNU hash up front and the
    SysV hash the first time an object without ``DT_GNU_HASH`` needs it.
    The resolver makes one of these per lookup, preset by
    :meth:`LinkHashes.name_hash` with the hashes the build already
    holds, so a defined name is never hashed again and any other name
    is hashed at most once per style.  It lives only as long as the
    lookup.
    """

    __slots__ = ("name", "_sysv", "_gnu")

    def __init__(
        self, name: str, sysv: int | None = None, gnu: int | None = None
    ) -> None:
        self.name = name
        self._sysv = sysv
        self._gnu = gnu

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


class LinkHashes:
    """The hash of every name one build defines, in its table's style.

    ``ld`` hashes each exported name once, when it writes the object's
    ``.hash``/``.gnu.hash``, so a defined name's hash belongs to the
    build.  The build hands one of these to each of its tables, which
    register every name they define.  Names are hashed lazily, in one
    batch per style, the first time a table is indexed or a lookup asks
    for a name; a build that never probes hashes nothing.

    ``base`` is the map of the system libraries a build links against,
    lowered once per process and shared by every build that uses them
    (see :mod:`repro.core.builds`).  A build's map takes in the base's
    hashes the first time it is asked for any, so a name a system
    library defines is hashed once per process, not once per build.
    The build's own map goes away with its build; no two builds share
    one.
    """

    __slots__ = ("_sysv", "_gnu", "_pending_sysv", "_pending_gnu", "_base")

    def __init__(self, base: "LinkHashes | None" = None) -> None:
        self._sysv: dict[str, int] = {}
        self._gnu: dict[str, int] = {}
        self._pending_sysv: list[str] = []
        self._pending_gnu: list[str] = []
        self._base = base

    def register(self, name: str, style: HashStyle) -> None:
        """Record that a table hashed in ``style`` defines ``name``."""
        if style is HashStyle.GNU:
            self._pending_gnu.append(name)
        else:
            self._pending_sysv.append(name)

    def sysv(self) -> dict[str, int]:
        """Every name a SysV table registered, mapped to its SysV hash."""
        if self._base is not None:
            self._take_base()
        if self._pending_sysv:
            names = self._new_names(self._pending_sysv, self._sysv)
            self._pending_sysv = []
            self._sysv.update(zip(names, elf_hash_many(names)))
        return self._sysv

    def gnu(self) -> dict[str, int]:
        """Every name a GNU table registered, mapped to its GNU hash."""
        if self._base is not None:
            self._take_base()
        if self._pending_gnu:
            names = self._new_names(self._pending_gnu, self._gnu)
            self._pending_gnu = []
            self._gnu.update((name, gnu_hash(name)) for name in names)
        return self._gnu

    def _take_base(self) -> None:
        base, self._base = self._base, None
        self._sysv.update(base.sysv())
        self._gnu.update(base.gnu())

    @staticmethod
    def _new_names(pending: list[str], known: dict[str, int]) -> list[str]:
        return [name for name in dict.fromkeys(pending) if name not in known]

    def hashes(self, style: HashStyle) -> dict[str, int]:
        """:meth:`gnu` or :meth:`sysv`, by ``style``."""
        return self.gnu() if style is HashStyle.GNU else self.sysv()

    def name_hash(self, name: str) -> NameHash:
        """A lookup's :class:`NameHash`, preset with the known hashes."""
        return NameHash(name, self.sysv().get(name), self.gnu().get(name))


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


#: One compiled chain entry: (dynsym entry offset, dynstr offset, Symbol).
ChainEntry = tuple[int, int, Symbol]


class SymbolTable:
    """A dynamic symbol table with its hash index.

    Indexing follows real ELF: symbol 0 is the reserved undefined symbol,
    so defined symbols occupy indices 1..n.  ``link_hashes`` is the
    build's :class:`LinkHashes`; a table made on its own keeps one of
    its own.  A table shared by several builds is :meth:`seal`-ed: its
    symbols, and so its compiled index, can no longer change.
    """

    def __init__(
        self,
        bucket_ratio: float = 1.0,
        hash_style: HashStyle = HashStyle.SYSV,
        link_hashes: LinkHashes | None = None,
    ) -> None:
        if bucket_ratio <= 0:
            raise ConfigError("bucket_ratio must be positive")
        self._bucket_ratio = bucket_ratio
        self.hash_style = hash_style
        self.link_hashes = link_hashes if link_hashes is not None else LinkHashes()
        self._symbols: list[Symbol] = []
        self._by_name: dict[str, int] = {}
        self.strings = StringTable()
        #: The compiled index, None until the first probe (see
        #: :meth:`compile`): one tuple of :data:`ChainEntry` per bucket.
        self.bucket_chains: list[tuple[ChainEntry, ...]] | None = None
        #: GNU only: the compiled Bloom filter, one int per 64-bit word.
        self.bloom: list[int] = []
        self._sealed = False

    def seal(self) -> None:
        """Refuse any further :meth:`add`: the table is now shared."""
        self._sealed = True

    def add(self, symbol: Symbol) -> int:
        """Add a defined symbol; returns its table index (1-based)."""
        if self._sealed:
            raise ConfigError(
                f"cannot add {symbol.name!r}: the symbol table is sealed"
            )
        if symbol.name in self._by_name:
            raise ConfigError(f"duplicate symbol {symbol.name!r}")
        self._symbols.append(symbol)
        index = len(self._symbols)  # 1-based, slot 0 is STN_UNDEF
        self._by_name[symbol.name] = index
        self.strings.add(symbol.name)
        self.link_hashes.register(symbol.name, self.hash_style)
        self.bucket_chains = None  # invalidate the compiled index
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

    # -- hash geometry (from the symbol count alone) -------------------------
    @property
    def nbuckets(self) -> int:
        """Number of hash buckets."""
        return max(1, int(max(1, len(self._symbols)) * self._bucket_ratio))

    @property
    def bloom_words(self) -> int:
        """Number of 64-bit Bloom filter words (GNU hash only)."""
        return max(1, len(self._symbols) // 8)

    # -- the compiled index ---------------------------------------------------
    def compile(self) -> list[tuple[ChainEntry, ...]]:
        """Build (once per change) and return :attr:`bucket_chains`.

        Each symbol's hash comes from the build's :class:`LinkHashes`;
        GNU tables reuse it for the Bloom filter (see :func:`bloom_probe`).
        """
        hashes = self.link_hashes.hashes(self.hash_style)
        nbuckets = self.nbuckets
        name_offsets = self.strings._offsets
        chains: dict[int, list[ChainEntry]] = {}
        for index, symbol in enumerate(self._symbols, start=1):
            name = symbol.name
            chains.setdefault(hashes[name] % nbuckets, []).append(
                (SYMBOL_ENTRY_BYTES * index, name_offsets[name], symbol)
            )
        compiled: list[tuple[ChainEntry, ...]] = [()] * nbuckets
        for bucket, chain in chains.items():
            compiled[bucket] = tuple(chain)
        if self.hash_style is HashStyle.GNU:
            words = self.bloom_words
            bloom = [0] * words
            for symbol in self._symbols:
                word, mask = bloom_probe(hashes[symbol.name], words)
                bloom[word] |= mask
            self.bloom = bloom
        self.bucket_chains = compiled
        return compiled

    def _hash(self, name: str) -> int:
        hashes = self.link_hashes.name_hash(name)
        return hashes.gnu() if self.hash_style is HashStyle.GNU else hashes.sysv()

    def bloom_maybe_contains(self, name: str) -> bool:
        """GNU-hash fast path: can this object possibly define ``name``?

        False means definitely absent (one memory word decided it); True
        means the bucket chain must be walked (rare false positives are
        part of the real design).
        """
        if self.hash_style is not HashStyle.GNU:
            raise ConfigError("Bloom filter only exists for GNU-hash tables")
        if self.bucket_chains is None:
            self.compile()
        word, mask = bloom_probe(self._hash(name), self.bloom_words)
        return self.bloom[word] & mask == mask

    def bucket_of(self, name: str) -> int:
        """The bucket a name hashes into (style-dependent hash)."""
        return self._hash(name) % self.nbuckets

    def chain(self, bucket: int) -> list[int]:
        """Symbol indices chained in a bucket (possibly empty)."""
        if not 0 <= bucket < self.nbuckets:
            raise ConfigError(f"bucket {bucket} out of range")
        chains = self.bucket_chains
        if chains is None:
            chains = self.compile()
        return [offset // SYMBOL_ENTRY_BYTES for offset, _, _ in chains[bucket]]

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
                GNU_HASH_HEADER_BYTES
                + 8 * self.bloom_words
                + HASH_SLOT_BYTES * (self.nbuckets + nchain)
            )
        return HASH_HEADER_BYTES + HASH_SLOT_BYTES * (self.nbuckets + nchain)

    # -- simulated addresses used by the resolver ---------------------------
    def symbol_entry_offset(self, index: int) -> int:
        """Byte offset of a symbol entry within the dynsym section."""
        if not 0 <= index <= len(self._symbols):
            raise ConfigError(f"symbol index {index} out of range")
        return SYMBOL_ENTRY_BYTES * index
