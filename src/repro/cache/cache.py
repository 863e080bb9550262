"""A single set-associative LRU cache level.

The simulator tracks tags only — no data are stored.  Writes are modelled
as write-allocate (a write to a missing line fetches it first), which is
what matters for the miss counts the paper reports.  Dirty write-back
traffic is not modelled; Table II only reports read/write *miss* counts.
"""

from __future__ import annotations

from repro.cache.config import CacheConfig


class Cache:
    """Tag-only set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        # Geometry as plain ints, also read by the hierarchy's inline walk.
        self._n_sets = config.n_sets
        self._ways = config.ways
        # One list of tags per set, most-recently-used first.
        self._sets: list[list[int]] = [[] for _ in range(config.n_sets)]
        self.accesses = 0
        self.misses = 0

    def _set_index(self, line_addr: int) -> int:
        return line_addr % self._n_sets

    def access(self, line_addr: int) -> bool:
        """Access one cache line (identified by ``addr >> log2(line)``).

        Returns True on hit.  On miss the line is installed, evicting the
        LRU way if the set is full.
        """
        self.accesses += 1
        tags = self._sets[self._set_index(line_addr)]
        tag = line_addr
        if tag in tags:
            # Move to MRU position.
            if tags[0] != tag:
                tags.remove(tag)
                tags.insert(0, tag)
            return True
        self.misses += 1
        tags.insert(0, tag)
        if len(tags) > self._ways:
            tags.pop()
        return False

    def contains(self, line_addr: int) -> bool:
        """True if the line is currently resident (no LRU update)."""
        return line_addr in self._sets[self._set_index(line_addr)]

    def invalidate_all(self) -> None:
        """Drop every resident line (counters are preserved)."""
        for tags in self._sets:
            tags.clear()

    def resident_lines(self) -> int:
        """Total number of lines currently resident."""
        return sum(len(tags) for tags in self._sets)

    @property
    def hits(self) -> int:
        """Number of accesses that hit."""
        return self.accesses - self.misses

    def reset_counters(self) -> None:
        """Zero the access/miss counters without touching cache contents."""
        self.accesses = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name}, {self.config.size_bytes}B/{self.config.ways}w, "
            f"accesses={self.accesses}, misses={self.misses})"
        )
