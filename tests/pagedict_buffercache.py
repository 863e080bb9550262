# The page-dict BufferCache that repro.fs.buffercache replaced, kept
# verbatim as the reference for tests/test_buffercache_runs.py.
"""Per-node disk buffer cache.

Table IV's warm startup is "about twice as fast as the Cold Startup ...
due to the disk buffer cache memory: the first invocation brings all the
DLLs into the disk cache of each node".  The cache here is page-granular
LRU: a read first partitions its page range into resident and missing
pages, charges missing pages to the file's backing file system, and serves
resident pages at memory-copy bandwidth.

Internals: resident pages live in one insertion-ordered ``dict`` (oldest
first — a plain dict is an LRU when touching re-inserts and eviction pops
the first key), keyed by a single integer ``path_base + page_index``
where each distinct path gets a ``path_base`` of ``id << _PAGE_BITS``.
Integer keys matter at scale: a thousand-node cluster holds tens of
millions of resident pages, and unlike ``(path, page)`` tuples, ints are
invisible to the cyclic garbage collector and a page span is just a
``range`` — no per-page allocation at all on the hot paths.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.fs.files import FileImage
from repro.units import GIB

#: Bits reserved for the page index inside a key (4 KiB pages -> files up
#: to 2^40 pages = 4 PiB before path bases could collide).
_PAGE_BITS = 40


class BufferCache:
    """Page-granular LRU cache of file contents, one per node."""

    def __init__(
        self,
        capacity_bytes: int = 8 * GIB,
        page_bytes: int = 4096,
        hit_bandwidth_bps: float = 3e9,
        hit_latency_s: float = 2e-7,
    ) -> None:
        if capacity_bytes <= 0 or page_bytes <= 0:
            raise ConfigError("capacity and page size must be positive")
        if capacity_bytes < page_bytes:
            raise ConfigError("capacity smaller than a single page")
        self.capacity_pages = capacity_bytes // page_bytes
        self.page_bytes = page_bytes
        self.hit_bandwidth_bps = hit_bandwidth_bps
        self.hit_latency_s = hit_latency_s
        # Maps (path_base + page_index) -> None in LRU order (oldest
        # first); see the module docstring for the key scheme.
        self._pages: dict[int, None] = {}
        # path -> path_base (already shifted by _PAGE_BITS).
        self._path_bases: dict[str, int] = {}
        self.hits = 0
        self.misses = 0

    def _path_base(self, path: str) -> int:
        """The key base for ``path``, allocated on first use."""
        bases = self._path_bases
        base = bases.get(path)
        if base is None:
            base = len(bases) << _PAGE_BITS
            bases[path] = base
        return base

    def _page_range(self, offset: int, size: int) -> range:
        first = offset // self.page_bytes
        last = (offset + size - 1) // self.page_bytes
        return range(first, last + 1)

    def read(self, image: FileImage, offset: int = 0, size: int | None = None) -> float:
        """Read a byte range of ``image``; return the simulated seconds.

        Missing pages are fetched from ``image.filesystem`` in one batched
        request (the kernel's read-ahead), then inserted.  Resident pages
        cost only a memory copy.
        """
        return self.read_with(image, offset, size, image.filesystem.read_seconds)

    def read_with(
        self,
        image: FileImage,
        offset: int = 0,
        size: int | None = None,
        fetch: "Callable[[int, int], float] | None" = None,
    ) -> float:
        """Like :meth:`read`, but missing pages are charged via ``fetch``.

        ``fetch(n_bytes, n_ops)`` returns the seconds the backing store
        takes for the miss traffic.  The multi-rank engine passes a closure
        that routes the request through the file system's timed FIFO queue
        at the reading rank's current virtual time, so contention between
        ranks emerges instead of being charged analytically.
        """
        if fetch is None:
            fetch = image.filesystem.read_seconds
        if size is None:
            size = image.size_bytes - offset
        if size == 0:
            return 0.0
        if offset < 0 or size < 0 or offset + size > image.size_bytes:
            raise ConfigError(
                f"read of {offset}+{size} outside {image.path!r} "
                f"({image.size_bytes} bytes)"
            )
        pages = self._pages
        page_bytes = self.page_bytes
        base = self._path_base(image.path)
        first = offset // page_bytes
        last = (offset + size - 1) // page_bytes
        n_range = last - first + 1
        keys = range(base + first, base + last + 1)
        missing_pages = 0
        if len(pages) + n_range <= self.capacity_pages:
            # Eviction-free fast path (the overwhelmingly common case:
            # node caches hold the whole working set): counters and LRU
            # order come out identical to the general loop below, so
            # this is a speedup, not a model change.  Spans that are
            # entirely missing or entirely resident — nearly every read
            # in practice — run at C speed.
            contains = pages.__contains__
            if not any(map(contains, keys)):
                pages.update(dict.fromkeys(keys))
                missing_pages = n_range
            elif all(map(contains, keys)):
                for key in keys:  # LRU touch: re-insert at the tail
                    del pages[key]
                    pages[key] = None
            else:
                for key in keys:
                    if contains(key):
                        del pages[key]
                        pages[key] = None
                    else:
                        missing_pages += 1
                        pages[key] = None
            self.hits += n_range - missing_pages
            self.misses += missing_pages
        else:
            for key in keys:
                if key in pages:
                    del pages[key]
                    pages[key] = None
                    self.hits += 1
                else:
                    self.misses += 1
                    missing_pages += 1
                    pages[key] = None
                    if len(pages) > self.capacity_pages:
                        del pages[next(iter(pages))]  # evict the oldest
        seconds = self.hit_latency_s + size / self.hit_bandwidth_bps
        if missing_pages:
            seconds += fetch(missing_pages * self.page_bytes, 1)
        return seconds

    def install(self, image: FileImage, offset: int = 0, size: int | None = None) -> int:
        """Mark a byte range resident without charging any fetch time.

        Models data arriving outside the demand-read path — a staging
        daemon landing relayed bytes in the page cache as they come off
        the wire (the copy overlaps the transfer, so the link time
        already paid for it).  Returns the number of pages newly
        installed; hit/miss counters are untouched.
        """
        if size is None:
            size = image.size_bytes - offset
        if size == 0:
            return 0
        if offset < 0 or size < 0 or offset + size > image.size_bytes:
            raise ConfigError(
                f"install of {offset}+{size} outside {image.path!r} "
                f"({image.size_bytes} bytes)"
            )
        pages = self._pages
        page_bytes = self.page_bytes
        base = self._path_base(image.path)
        first = offset // page_bytes
        last = (offset + size - 1) // page_bytes
        n_range = last - first + 1
        keys = range(base + first, base + last + 1)
        installed = 0
        if len(pages) + n_range <= self.capacity_pages:
            # Eviction-free fast path; see read_with.
            contains = pages.__contains__
            if not any(map(contains, keys)):
                pages.update(dict.fromkeys(keys))
                installed = n_range
            elif all(map(contains, keys)):
                for key in keys:
                    del pages[key]
                    pages[key] = None
            else:
                for key in keys:
                    if contains(key):
                        del pages[key]
                        pages[key] = None
                    else:
                        installed += 1
                        pages[key] = None
        else:
            for key in keys:
                if key in pages:
                    del pages[key]
                    pages[key] = None
                    continue
                installed += 1
                pages[key] = None
                if len(pages) > self.capacity_pages:
                    del pages[next(iter(pages))]  # evict the oldest
        return installed

    def contains(self, image: FileImage, offset: int = 0, size: int | None = None) -> bool:
        """True if the entire byte range is resident."""
        if size is None:
            size = image.size_bytes - offset
        if size == 0:
            return True
        base = self._path_bases.get(image.path)
        if base is None:
            return False
        pages = self._pages
        for page in self._page_range(offset, size):
            if base + page not in pages:
                return False
        return True

    def resident_bytes(self) -> int:
        """Bytes currently cached."""
        return len(self._pages) * self.page_bytes

    def drop(self) -> None:
        """Evict everything — used to model a cold (first) invocation."""
        self._pages.clear()

    def reset_counters(self) -> None:
        """Zero hit/miss statistics without evicting pages."""
        self.hits = 0
        self.misses = 0
