"""The L1I / L1D / unified-L2 hierarchy with PAPI-style counters.

The hierarchy converts byte-granular accesses into per-line lookups and
returns the *cycle penalty* each access incurs, which the execution context
adds to the simulated clock.  Counters are cumulative; the PAPI facade in
:mod:`repro.perf.papi` snapshots them to produce per-phase deltas the way
the paper's instrumented driver does.

Every access goes through one fused walk, :meth:`CacheHierarchy.walk`.
Per line it looks the tag up in its L1 set: a hit on the set's
most-recently-used tag changes no state, any other hit moves the tag to
the front, and a miss installs it and does the same for the L2.
Counters and penalties are updated inline, with no per-level
:meth:`Cache.access` calls.  The execution context calls the walk
directly on its hot path; :meth:`CacheHierarchy.access` is the
kind-dispatching entry point for everything else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cache.cache import Cache
from repro.cache.config import HierarchyConfig


class AccessKind(enum.Enum):
    """Which port an access uses (selects L1I vs. L1D)."""

    INSTRUCTION = "instruction"
    DATA_READ = "data_read"
    DATA_WRITE = "data_write"


@dataclass(frozen=True)
class MissCounts:
    """A snapshot of the hierarchy's cumulative counters."""

    l1d_accesses: int
    l1d_misses: int
    l1i_accesses: int
    l1i_misses: int
    l2_accesses: int
    l2_misses: int

    def minus(self, earlier: "MissCounts") -> "MissCounts":
        """Counter delta between this snapshot and an earlier one."""
        return MissCounts(
            l1d_accesses=self.l1d_accesses - earlier.l1d_accesses,
            l1d_misses=self.l1d_misses - earlier.l1d_misses,
            l1i_accesses=self.l1i_accesses - earlier.l1i_accesses,
            l1i_misses=self.l1i_misses - earlier.l1i_misses,
            l2_accesses=self.l2_accesses - earlier.l2_accesses,
            l2_misses=self.l2_misses - earlier.l2_misses,
        )


class CacheHierarchy:
    """Two-level hierarchy: split L1, unified L2, inclusive fills."""

    def __init__(
        self,
        config: HierarchyConfig | None = None,
        l2_hit_penalty: int = 12,
        memory_penalty: int = 80,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.l1i = Cache(self.config.l1i, "L1I")
        self.l1d = Cache(self.config.l1d, "L1D")
        self.l2 = Cache(self.config.l2, "L2")
        #: Cycle penalties are *effective* (they assume some overlap with
        #: execution); see CostModel for the calibration discussion.
        self.l2_hit_penalty = l2_hit_penalty
        self.memory_penalty = memory_penalty
        self._line_shift = self.config.line_bytes.bit_length() - 1

    def access(self, address: int, size: int, kind: AccessKind) -> int:
        """Access ``size`` bytes at ``address``; return the cycle penalty."""
        if size <= 0:
            raise ValueError(f"access size must be positive, got {size}")
        l1 = self.l1i if kind is AccessKind.INSTRUCTION else self.l1d
        return self.walk(l1, address, size)

    def walk(self, l1: Cache, address: int, size: int) -> int:
        """Access ``size`` (> 0) bytes at ``address`` through ``l1``.

        ``l1`` is this hierarchy's :attr:`l1i` or :attr:`l1d`.  Returns
        the cycle penalty; updates the same LRU state and counters as a
        per-line :meth:`Cache.access` on ``l1`` and, on each L1 miss,
        on the L2 (write-allocate, inclusive fill).
        """
        shift = self._line_shift
        line = address >> shift
        last = (address + size - 1) >> shift
        sets = l1._sets
        n_sets = l1._n_sets
        l1.accesses += last - line + 1
        penalty = 0
        while True:
            tags = sets[line % n_sets]
            if line in tags:
                # A hit on the set's most-recently-used tag changes nothing.
                if tags[0] != line:
                    tags.remove(line)
                    tags.insert(0, line)
            else:
                l1.misses += 1
                tags.insert(0, line)
                if len(tags) > l1._ways:
                    tags.pop()
                l2 = self.l2
                l2.accesses += 1
                tags = l2._sets[line % l2._n_sets]
                if line in tags:
                    if tags[0] != line:
                        tags.remove(line)
                        tags.insert(0, line)
                    penalty += self.l2_hit_penalty
                else:
                    l2.misses += 1
                    tags.insert(0, line)
                    if len(tags) > l2._ways:
                        tags.pop()
                    penalty += self.memory_penalty
            if line == last:
                return penalty
            line += 1

    def line_count(self, size: int, address: int = 0) -> int:
        """Number of lines an access of ``size`` bytes at ``address`` spans."""
        first = address >> self._line_shift
        last = (address + size - 1) >> self._line_shift
        return last - first + 1

    def counters(self) -> MissCounts:
        """Snapshot the cumulative access/miss counters."""
        return MissCounts(
            l1d_accesses=self.l1d.accesses,
            l1d_misses=self.l1d.misses,
            l1i_accesses=self.l1i.accesses,
            l1i_misses=self.l1i.misses,
            l2_accesses=self.l2.accesses,
            l2_misses=self.l2.misses,
        )

    def flush(self) -> None:
        """Invalidate all levels (e.g. at process start)."""
        self.l1i.invalidate_all()
        self.l1d.invalidate_all()
        self.l2.invalidate_all()
