"""Per-node disk buffer cache.

Table IV's warm startup is "about twice as fast as the Cold Startup ...
due to the disk buffer cache memory: the first invocation brings all the
DLLs into the disk cache of each node".  The cache here is page-granular
LRU: a read first partitions its page range into resident and missing
pages, charges missing pages to the file's backing file system, and serves
resident pages at memory-copy bandwidth.

Internals: the page-level LRU order is stored as *runs*.  A run is
``(path, first_page, last_page)``, and the runs sit in a doubly linked
list, oldest first; the resident pages in LRU order are the runs' pages
concatenated.  That is exact, not an approximation: a read visits its
pages in ascending order and each one moves to the tail, so the pages a
read leaves behind form one ascending run.  Touching part of a run cuts
that part out, and whatever is left of the run keeps its place.  A range
that starts right after the tail run of the same file extends that run,
so a file staged chunk by chunk ends up as one run.  Each file keeps its
runs sorted by first page, and ``bisect`` over their starts finds the
runs a range overlaps.  Eviction trims or unlinks runs at the head.

At scale this matters: a node holding ~500 DLLs keeps about one run per
file rather than one entry per 4 KiB page, which is millions of entries
per thousand-node cluster.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Callable, Iterator

from repro.errors import ConfigError
from repro.fs.files import FileImage
from repro.units import GIB


class _Run:
    """Resident pages ``first..last`` of ``path``: a link of the LRU list."""

    __slots__ = ("path", "first", "last", "prev", "next")

    def __init__(self, path: "str | None", first: int, last: int) -> None:
        self.path = path
        self.first = first
        self.last = last


#: The sort key of a file's run index.
_first_page = attrgetter("first")


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
        #: path -> its resident runs, sorted by first page.
        self._files: dict[str, list[_Run]] = {}
        # Sentinel of the circular LRU list: ``next`` is the oldest run,
        # ``prev`` the newest.  Its path is None, so no range extends it.
        self._lru = _Run(None, 0, -1)
        self._lru.prev = self._lru.next = self._lru
        self._resident = 0
        self.hits = 0
        self.misses = 0

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
        page_bytes = self.page_bytes
        first = offset // page_bytes
        last = (offset + size - 1) // page_bytes
        missing_pages = self._touch(image.path, first, last)
        self.hits += last - first + 1 - missing_pages
        self.misses += missing_pages
        seconds = self.hit_latency_s + size / self.hit_bandwidth_bps
        if missing_pages:
            seconds += fetch(missing_pages * page_bytes, 1)
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
        page_bytes = self.page_bytes
        return self._touch(
            image.path, offset // page_bytes, (offset + size - 1) // page_bytes
        )

    def contains(self, image: FileImage, offset: int = 0, size: int | None = None) -> bool:
        """True if the entire byte range is resident."""
        if size is None:
            size = image.size_bytes - offset
        if size == 0:
            return True
        runs = self._files.get(image.path)
        if runs is None:
            return False
        first = offset // self.page_bytes
        last = (offset + size - 1) // self.page_bytes
        if last < first:
            return True
        i = bisect_right(runs, first, key=_first_page) - 1
        if i < 0 or runs[i].last < first:
            return False
        # Adjacent pages may sit in different runs; follow the chain.
        end = runs[i].last
        while end < last:
            i += 1
            if i == len(runs) or runs[i].first != end + 1:
                return False
            end = runs[i].last
        return True

    def resident_bytes(self) -> int:
        """Bytes currently cached."""
        return self._resident * self.page_bytes

    def drop(self) -> None:
        """Evict everything — used to model a cold (first) invocation."""
        for runs in self._files.values():
            runs.clear()
        self._lru.prev = self._lru.next = self._lru
        self._resident = 0

    def reset_counters(self) -> None:
        """Zero hit/miss statistics without evicting pages."""
        self.hits = 0
        self.misses = 0

    def runs(self) -> Iterator[tuple[str, int, int]]:
        """The resident runs as ``(path, first_page, last_page)``, oldest
        first."""
        lru = self._lru
        run = lru.next
        while run is not lru:
            yield run.path, run.first, run.last
            run = run.next

    # -- the run list --------------------------------------------------------
    def _touch(self, path: str, first: int, last: int) -> int:
        """Touch pages ``first..last`` of ``path`` in ascending order, as
        a page-at-a-time LRU does; return how many were missing.

        The range is walked a segment at a time: a resident segment moves
        to the tail, evicting nothing, and a missing segment is inserted
        at the tail and then evicts from the head whatever overflows.
        That can evict a resident page of this range that the walk has
        not reached yet; it then counts as missing, as it does page by
        page.
        """
        runs = self._files.get(path)
        if runs is None:
            runs = self._files[path] = []
        lru = self._lru
        if not runs:
            # Nothing of the file is resident (a cold file landing): the
            # range is one missing segment, newer than every run.
            tail = lru.prev
            run = _Run(path, first, last)
            run.prev = tail
            run.next = lru
            tail.next = lru.prev = run
            runs.append(run)
            missing = last - first + 1
            self._resident += missing
            if self._resident > self.capacity_pages:
                self._evict(self._resident - self.capacity_pages)
            return missing
        missing = 0
        page = first
        while page <= last:
            i = bisect_right(runs, page, key=_first_page) - 1
            if i >= 0 and runs[i].last >= page:
                run = runs[i]
                end = run.last if run.last < last else last
                if run is not lru.prev or end != run.last:
                    i = self._cut(runs, i, run, page, end)
                    self._append(runs, i, path, page, end)
                # else: already the newest pages, in ascending order.
            else:
                i += 1
                if i == len(runs) or runs[i].first > last:
                    end = last
                else:
                    end = runs[i].first - 1
                self._append(runs, i, path, page, end)
                missing += end - page + 1
                self._resident += end - page + 1
                if self._resident > self.capacity_pages:
                    self._evict(self._resident - self.capacity_pages)
            page = end + 1
        return missing

    def _cut(
        self, runs: list[_Run], i: int, run: _Run, first: int, last: int
    ) -> int:
        """Take pages ``first..last`` out of ``run`` (``runs[i]``); what
        is left keeps the run's place in the LRU order.  Returns where a
        run of the cut pages belongs in ``runs``."""
        if run.first != first:
            if run.last != last:
                rest = _Run(run.path, last + 1, run.last)
                rest.prev = run
                rest.next = run.next
                run.next.prev = rest
                run.next = rest
                runs.insert(i + 1, rest)
            run.last = first - 1
            return i + 1
        if run.last == last:
            run.prev.next = run.next
            run.next.prev = run.prev
            del runs[i]
        else:
            run.first = last + 1
        return i

    def _append(
        self, runs: list[_Run], i: int, path: str, first: int, last: int
    ) -> None:
        """Make pages ``first..last`` of ``path`` (none resident) the
        newest; ``runs[i]`` is their place in the path's index."""
        lru = self._lru
        tail = lru.prev
        if tail.path == path and tail.last == first - 1:
            tail.last = last
            return
        run = _Run(path, first, last)
        run.prev = tail
        run.next = lru
        tail.next = lru.prev = run
        runs.insert(i, run)

    def _evict(self, n_pages: int) -> None:
        """Evict the ``n_pages`` oldest pages."""
        self._resident -= n_pages
        lru = self._lru
        while n_pages:
            run = lru.next
            size = run.last - run.first + 1
            if size <= n_pages:
                lru.next = run.next
                run.next.prev = lru
                runs = self._files[run.path]
                del runs[bisect_left(runs, run.first, key=_first_page)]
                n_pages -= size
            else:
                run.first += n_pages
                n_pages = 0
