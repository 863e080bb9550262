"""Per-node disk buffer cache.

Table IV's warm startup is "about twice as fast as the Cold Startup ...
due to the disk buffer cache memory: the first invocation brings all the
DLLs into the disk cache of each node".  The cache here is page-granular
LRU: a read first partitions its page range into resident and missing
pages, charges missing pages to the file's backing file system, and serves
resident pages at memory-copy bandwidth.

Internals: the page-level LRU order is stored as *runs*.  A run is
``(path, first_page, last_page)``, and the runs sit in a singly linked
list, oldest first; the resident pages in LRU order are the runs' pages
concatenated.  That is exact, not an approximation: a read visits its
pages in ascending order and each one moves to the tail, so the pages a
read leaves behind form one ascending run.  Touching part of a run cuts
that part out, and whatever is left of the run keeps its place.  A range
that starts right after the tail run of the same file extends that run,
so a file staged chunk by chunk ends up as one run.  Eviction trims or
unlinks runs at the head.

The per-file index maps a path to its one run while the file's resident
pages form one run, which is every staged file.  Only a file split into
two or more runs gets a list of them, sorted by first page, and
``bisect`` over their starts finds the runs a range overlaps.  A path
whose pages have all gone maps to the shared empty tuple, so ``drop``
leaves no per-file object behind, yet ``contains`` still tells a path
the cache has held from one it never has (a reversed range reads as
resident only for the first, as in a page-at-a-time cache).

The list links each run to the next newer one only, and the cache holds
the newest, so no run is ever reachable from itself: a dropped cache is
freed by reference counting, with no work for the cyclic collector.
Without back links, a run leaves the middle of the list by taking over
its successor's pages and link; the successor object is what goes, and
its file's index is re-pointed at the survivor.

At scale this matters: a node holding ~500 DLLs keeps one run object per
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
    """Resident pages ``first..last`` of ``path``: a link of the LRU
    list.  ``next`` is the next newer run (None for the newest)."""

    __slots__ = ("path", "first", "last", "next")

    def __init__(self, path: "str | None", first: int, last: int) -> None:
        self.path = path
        self.first = first
        self.last = last
        self.next: "_Run | None" = None


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
        #: path -> its one resident run, its two or more runs sorted by
        #: first page, or ``()`` once nothing of it is resident.
        self._files: "dict[str, _Run | list[_Run] | tuple[()]]" = {}
        # Head sentinel of the LRU list: ``next`` is the oldest run.  Its
        # path is None, so no range extends it.
        self._lru = _Run(None, 0, -1)
        #: The newest run (the sentinel when nothing is resident).
        self._tail = self._lru
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
        if type(runs) is _Run:
            return runs.first <= first and last <= runs.last
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
        self._files = dict.fromkeys(self._files, ())
        self._lru.next = None
        self._tail = self._lru
        self._resident = 0

    def reset_counters(self) -> None:
        """Zero hit/miss statistics without evicting pages."""
        self.hits = 0
        self.misses = 0

    def runs(self) -> Iterator[tuple[str, int, int]]:
        """The resident runs as ``(path, first_page, last_page)``, oldest
        first."""
        run = self._lru.next
        while run is not None:
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
        tail = self._tail
        runs = self._files.get(path)
        if not runs:
            # Nothing of the file is resident (a cold file landing): the
            # range is one missing run, newer than every run.
            run = _Run(path, first, last)
            tail.next = run
            self._tail = run
            self._files[path] = run
        elif runs is tail and tail.last == first - 1:
            # The next chunk of the file that landed last.
            tail.last = last
        else:
            return self._touch_runs(path, runs, first, last)
        missing = last - first + 1
        self._resident += missing
        if self._resident > self.capacity_pages:
            self._evict(self._resident - self.capacity_pages)
        return missing

    def _touch_runs(
        self, path: str, runs: "_Run | list[_Run]", first: int, last: int
    ) -> int:
        """:meth:`_touch` a segment at a time, for a range that may meet
        resident pages of the file.  ``runs`` is the file's index entry;
        the walk edits it as a list and stores one run back as itself."""
        if type(runs) is _Run:
            runs = self._files[path] = [runs]
        missing = 0
        page = first
        while page <= last:
            i = bisect_right(runs, page, key=_first_page) - 1
            if i >= 0 and runs[i].last >= page:
                run = runs[i]
                end = run.last if run.last < last else last
                if run is not self._tail or end != run.last:
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
                    # Eviction may have shrunk the index to one run.
                    runs = self._files[path]
                    if type(runs) is _Run:
                        runs = self._files[path] = [runs]
            page = end + 1
        if len(runs) == 1:
            self._files[path] = runs[0]
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
                rest.next = run.next
                run.next = rest
                if self._tail is run:
                    self._tail = rest
                runs.insert(i + 1, rest)
            run.last = first - 1
            return i + 1
        if run.last == last:
            # The whole run goes.  It is not the newest (the caller skips
            # touching the newest run whole), so it has a successor: move
            # the successor's pages and link into it and drop the
            # successor object instead.  ``index`` may be ``runs``
            # itself; its slot is replaced before ``del`` shifts any.
            after = run.next
            index = self._files[after.path]
            if index is after:
                self._files[after.path] = run
            else:
                index[bisect_left(index, after.first, key=_first_page)] = run
            del runs[i]
            run.path, run.first, run.last = after.path, after.first, after.last
            run.next = after.next
            if self._tail is after:
                self._tail = run
        else:
            run.first = last + 1
        return i

    def _append(
        self, runs: list[_Run], i: int, path: str, first: int, last: int
    ) -> None:
        """Make pages ``first..last`` of ``path`` (none resident) the
        newest; ``runs[i]`` is their place in the path's index."""
        tail = self._tail
        if tail.path == path and tail.last == first - 1:
            tail.last = last
            return
        run = _Run(path, first, last)
        tail.next = run
        self._tail = run
        runs.insert(i, run)

    def _evict(self, n_pages: int) -> None:
        """Evict the ``n_pages`` oldest pages.

        Never all of them: the capacity is at least a page, so the
        newest page, and with it the tail run, always stays.
        """
        self._resident -= n_pages
        lru = self._lru
        while n_pages:
            run = lru.next
            size = run.last - run.first + 1
            if size <= n_pages:
                lru.next = run.next
                runs = self._files[run.path]
                if runs is run:
                    self._files[run.path] = ()
                else:
                    del runs[bisect_left(runs, run.first, key=_first_page)]
                    if len(runs) == 1:
                        self._files[run.path] = runs[0]
                n_pages -= size
            else:
                run.first += n_pages
                n_pages = 0
