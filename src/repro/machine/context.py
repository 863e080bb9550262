"""The execution context: the single funnel for all simulated costs.

Every component that "executes" — the dynamic linker resolving a symbol,
the pager servicing a fault, a generated function body running — does so
through an :class:`ExecutionContext`.  The context charges instruction
work to the node clock, routes memory accesses through the cache
hierarchy, and services page faults via the buffer cache, so that cost
attribution (the essence of Tables I and II) is automatic.

``ifetch``/``dread``/``dwrite`` are the simulator's hottest calls, so
they take a fast path.  A resident-page filter (the page shift and the
address space's resident-page set, cached here) skips
:meth:`AddressSpace.touch` whenever the access stays on one resident
page; anything else falls through to :meth:`ExecutionContext._touch`,
which services faults as before.  The access then goes straight to the
hierarchy's single fused per-line walk,
:meth:`~repro.cache.hierarchy.CacheHierarchy.walk`.  The resolver's
scope walk (:meth:`repro.linker.resolver.SymbolResolver.lookup`)
inlines the same path and reads the same cached fields.
"""

from __future__ import annotations

from repro.machine.node import Node, Process


class ClockContext:
    """Charges instruction work and stalls to a node's clock.

    The clock-only part of :class:`ExecutionContext`: no address space
    and no cache hierarchy.  A rank replaying a shared compute trace
    (:mod:`repro.core.ranktrace`) runs its MPI phase through one.
    """

    def __init__(self, node: Node) -> None:
        self.node = node
        self.costs = node.costs
        self._clock = node.clock

    def work(self, instructions: int | float) -> None:
        """Execute ``instructions`` of already-cached straight-line code."""
        self._clock.add_cycles(self.costs.instructions_to_cycles(instructions))

    def stall_seconds(self, seconds: float) -> None:
        """Block for a wall-clock duration (IO waits, launcher latency)."""
        self._clock.add_seconds(seconds)

    @property
    def seconds(self) -> float:
        """Current node time in seconds."""
        return self._clock.seconds


class ExecutionContext(ClockContext):
    """Charges a process's execution costs to its node."""

    def __init__(self, process: Process) -> None:
        super().__init__(process.node)
        self.process = process
        self._aspace = process.address_space
        # The access fast path's cached state: the hierarchy walk and
        # its L1 ports, and the page shift and resident-page set of the
        # resident-page filter (the set object is never replaced).
        hierarchy = self.node.hierarchy
        self._walk = hierarchy.walk
        self._l1i = hierarchy.l1i
        self._l1d = hierarchy.l1d
        self._page_shift = self._aspace.page_bytes.bit_length() - 1
        self._present = self._aspace._present
        #: Total bytes read by major page faults (for reports/tests).
        self.major_fault_bytes = 0
        self.minor_faults = 0
        self.major_faults = 0

    # -- memory accesses ---------------------------------------------------
    def _touch(self, address: int, size: int) -> None:
        faults = self._aspace.touch(address, size)
        if not faults:
            return
        page_bytes = self._aspace.page_bytes
        # An earlier fault's read-ahead window may cover later faults in
        # the same touched range; track coverage to avoid double-charging.
        covered: dict[int, int] = {}  # id(mapping) -> covered-until address
        for fault in faults:
            if fault.is_major and covered.get(id(fault.mapping), -1) >= fault.page_address:
                continue
            self._clock.add_cycles(self.costs.minor_fault_cycles)
            if not fault.is_major:
                self.minor_faults += 1
                continue
            mapping = fault.mapping
            window = min(
                self.costs.readahead_bytes,
                mapping.end - fault.page_address,
            )
            window = max(window, page_bytes)
            image, offset, _ = fault.file_range(page_bytes)
            nbytes = min(window, image.size_bytes - offset)
            if nbytes > 0 and self.node.cache_contains(image, offset, nbytes):
                # Soft fault: the file data already sit in the page cache,
                # so servicing is just mapping the existing page.
                self.minor_faults += 1
            elif nbytes > 0:
                self.major_faults += 1
                self._clock.add_cycles(self.costs.major_fault_extra_cycles)
                self.node.read_file(image, offset, nbytes)
                self.major_fault_bytes += nbytes
            self._aspace.mark_range_present(fault.page_address, window)
            covered[id(mapping)] = fault.page_address + window - 1

    def ifetch(self, address: int, size: int) -> None:
        """Fetch instruction bytes (L1I path)."""
        shift = self._page_shift
        page = address >> shift
        if (
            page not in self._present
            or (address + size - 1) >> shift != page
            or size <= 0
        ):
            self._touch(address, size)
        penalty = self._walk(self._l1i, address, size)
        if penalty:
            self._clock.add_cycles(penalty)

    def dread(self, address: int, size: int) -> None:
        """Read data bytes (L1D path)."""
        shift = self._page_shift
        page = address >> shift
        if (
            page not in self._present
            or (address + size - 1) >> shift != page
            or size <= 0
        ):
            self._touch(address, size)
        penalty = self._walk(self._l1d, address, size)
        if penalty:
            self._clock.add_cycles(penalty)

    #: Writes take the same write-allocate L1D path as reads.
    dwrite = dread

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionContext(pid={self.process.pid}, t={self.seconds:.6f}s)"
