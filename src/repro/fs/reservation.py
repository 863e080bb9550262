"""Earliest-gap reservation of a serial resource's timeline.

Shared by the timed queueing interfaces of :class:`NFSServer` (one
full-bandwidth pipe), :class:`ParallelFileSystem` (one timeline per
storage target) and the distribution overlay's per-node egress links.  A
reservation timeline is a sorted sequence of disjoint ``(start, end)``
windows during which the resource is transferring; a new request books
the earliest free window at or after its arrival — possibly in the
"past" of the latest booking, which keeps the outcome independent of the
order a coarse-grained scheduler issues requests in.

:class:`ReservationTimeline` is the one implementation.  Booking
bisects on the window starts (with an O(1) tail-append fast path for
the overwhelmingly common in-order case), windows that abut within a
float epsilon merge so long cold runs cannot accumulate thousands of
zero-width slivers, and a maintained largest-free-gap suffix lets
:meth:`~ReservationTimeline.earliest_gap` skip regions with no fitting
hole instead of walking them.  The hypothesis property suite pins it
against the original O(n) list scan, which lives in ``tests/`` as the
reference.

The epsilon merge is observation-free by construction: two windows only
merge when the hole between them is at most ``merge_eps`` (default
1e-12 s), while every service time in the simulation is bounded below by
a physical constant orders of magnitude larger (one byte at NFS
bandwidth is ~4e-8 s; one RPC at the IOPS cap is 1e-5 s) — no booking
could ever have landed in the hole a merge erases, so merged and
unmerged timelines return bit-identical gap placements.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf, ulp

#: Largest hole (seconds) that adjacent windows close over when merging.
#: Far below any service time the simulation can produce (see module
#: docstring), so merging never changes a booking decision.
DEFAULT_MERGE_EPS = 1e-12


class ReservationTimeline:
    """Sorted disjoint busy windows with O(log n) earliest-gap booking.

    The structure keeps the window starts and ends as two parallel
    lists, plus the free holes *between* consecutive windows that are
    wider than every hole to their right: the hole records.  Read right
    to left, the records are the running maxima of the holes, so the
    widest hole at or after window ``i`` (its suffix maximum) is the
    first record at or after ``i``.  ``earliest_gap`` bisects to the
    first window that can constrain the request, then walks forward, but
    stops as soon as it passes the last record wide enough for the
    request: beyond it no interior hole fits, so the answer is the tail.
    A request too large for every interior hole resolves in O(log n)
    regardless of timeline length.

    Each record is keyed by the start time of the window after its hole,
    so inserting a window does not renumber the records.  A tail append
    pops the records no wider than its new hole and pushes that hole:
    amortized O(1), however the holes grow.  An interior booking can
    only shrink, split or close holes; when it touches a record it
    rescans the holes back to the previous record and no further.
    """

    __slots__ = (
        "_starts", "_ends", "_record_keys", "_record_widths", "merge_eps",
        "bookings",
    )

    def __init__(self, merge_eps: float = DEFAULT_MERGE_EPS) -> None:
        if merge_eps < 0.0:
            raise ValueError(f"merge_eps must be >= 0, got {merge_eps}")
        self._starts: list[float] = []
        self._ends: list[float] = []
        #: Hole records, left to right: the start of the window after
        #: each record hole (increasing), and the hole's width *negated*
        #: (increasing too, since record widths decrease left to right),
        #: so both lists bisect directly.
        self._record_keys: list[float] = []
        self._record_widths: list[float] = []
        self.merge_eps = merge_eps
        #: Total windows ever booked (merges collapse storage, not this).
        self.bookings = 0

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        """Stored (post-merge) window count."""
        return len(self._starts)

    @property
    def windows(self) -> list[tuple[float, float]]:
        """The stored windows as ``(start, end)`` tuples (a copy)."""
        return list(zip(self._starts, self._ends))

    @property
    def horizon_s(self) -> float:
        """End of the latest booked window (0.0 when empty)."""
        return self._ends[-1] if self._ends else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReservationTimeline({len(self._starts)} windows, "
            f"{self.bookings} bookings, horizon {self.horizon_s:.6f}s)"
        )

    # -- queries -------------------------------------------------------
    def earliest_gap(self, arrival: float, service: float) -> float:
        """Earliest start >= ``arrival`` of a free ``service``-long hole.

        Bit-identical to a linear scan over the same windows (the
        reference the property suite holds it to): the fit test is the same ``begin + service <= start``
        float comparison, and the record cut-off only prunes holes where
        that test could not succeed even under worst-case rounding (the
        threshold carries a 4-ulp guard).
        """
        ends = self._ends
        n = len(ends)
        if n == 0:
            return arrival
        last_end = ends[n - 1]
        if arrival >= last_end:
            return arrival
        starts = self._starts
        i = bisect_right(ends, arrival)
        # The hole between the arrival and the first constraining window.
        if arrival + service <= starts[i]:
            return arrival
        begin = ends[i]
        if i < n - 1:
            # Conservative prune threshold: skipping is only allowed when
            # no interior hole could pass the exact fit test even with
            # float slop, so pruned and unpruned walks agree.  Holes past
            # the last record at least ``guard`` wide cannot fit.
            guard = service - 4.0 * ulp(last_end)
            wide = bisect_right(self._record_widths, -guard)
            if wide == 0:
                return last_end
            last_fit = bisect_left(starts, self._record_keys[wide - 1]) - 1
            while i < n - 1:
                if i > last_fit:
                    return last_end
                if begin + service <= starts[i + 1]:
                    return begin
                i += 1
                begin = ends[i]
        return begin

    # -- mutation ------------------------------------------------------
    def book(self, begin: float, service: float) -> None:
        """Insert a ``(begin, begin + service)`` busy window.

        The caller guarantees the window does not overlap an existing
        one (it came from :meth:`earliest_gap`, which only returns free
        holes).  Windows separated from a neighbour by at most
        ``merge_eps`` fuse with it.
        """
        end = begin + service
        self.bookings += 1
        starts, ends = self._starts, self._ends
        n = len(starts)
        eps = self.merge_eps
        # Tail fast path: the overwhelmingly common in-order booking.
        if n == 0:
            starts.append(begin)
            ends.append(end)
            return
        last_end = ends[n - 1]
        if begin >= last_end:
            if begin - last_end <= eps:
                ends[n - 1] = end  # extend the tail window in place
                return
            starts.append(begin)
            ends.append(end)
            # The new hole is the rightmost: it outranks every record no
            # wider than itself.
            negated = last_end - begin
            keys, widths = self._record_keys, self._record_widths
            while widths and widths[-1] >= negated:
                keys.pop()
                widths.pop()
            keys.append(begin)
            widths.append(negated)
            return
        i = bisect_right(starts, begin)
        # Window i-1 ends at or before `begin`; window i starts after it.
        following = starts[i] if i < n else inf
        left = i > 0 and begin - ends[i - 1] <= eps
        right = following - end <= eps
        if left and right:
            ends[i - 1] = ends[i]
            del starts[i], ends[i]
            self._repair(following, following)
        elif left:
            ends[i - 1] = end
            self._repair(following, following)
        elif right:
            starts[i] = begin
            if i > 0:
                self._repair(begin, following)
        else:
            starts.insert(i, begin)
            ends.insert(i, end)
            if i > 0:
                self._repair(begin, following)
            elif not self._record_widths or (
                end - following < self._record_widths[0]
            ):
                # A new leftmost hole, wider than every hole after it.
                self._record_keys.insert(0, following)
                self._record_widths.insert(0, end - following)

    def reserve(self, arrival: float, service: float) -> float:
        """Book the earliest free window; returns its start time."""
        begin = self.earliest_gap(arrival, service)
        self.book(begin, service)
        return begin

    def reserve_ops(
        self, arrival: float, n_ops: int, iops_limit: float | None
    ) -> float:
        """Queueing delay before a server limited to ``iops_limit``
        RPCs/s can accept ``n_ops`` more requests arriving at ``arrival``.

        Each RPC occupies ``1 / iops_limit`` seconds of server request
        processing on a serial ops timeline — the saturation the
        per-request latency alone cannot express, because latency
        pipelines across clients without limit.  An unloaded request
        starts immediately (delay 0), so the unloaded completion time
        still matches the analytic model; under a storm of small reads
        the delay grows with the backlog.  ``iops_limit=None`` disables
        the term.
        """
        if iops_limit is None or n_ops <= 0:
            return 0.0
        service = n_ops / iops_limit
        return self.reserve(arrival, service) - arrival

    # -- internals -----------------------------------------------------
    def _repair(self, low_key: float, high_key: float) -> None:
        """Re-establish the hole records after holes keyed in
        ``[low_key, high_key]`` shrank, split, closed or were re-keyed.

        Such a change only matters if a record sits in that key range.
        Then the holes from the last one keyed at most ``high_key`` back
        to the previous surviving record are rescanned right to left;
        records further left stay valid, since each was wider than every
        hole after it before the change and none grew.
        """
        keys, widths = self._record_keys, self._record_widths
        first = bisect_left(keys, low_key)
        stop = bisect_right(keys, high_key)
        if first == stop:
            return
        starts, ends = self._starts, self._ends
        lowest = bisect_left(starts, keys[first - 1]) if first > 0 else 0
        hole = bisect_right(starts, high_key) - 2
        floor = -widths[stop] if stop < len(widths) else 0.0
        found_keys: list[float] = []
        found_widths: list[float] = []
        while hole >= lowest:
            width = starts[hole + 1] - ends[hole]
            if width > floor:
                found_keys.append(starts[hole + 1])
                found_widths.append(-width)
                floor = width
            hole -= 1
        found_keys.reverse()
        found_widths.reverse()
        keys[first:stop] = found_keys
        widths[first:stop] = found_widths

    def _check_invariants(self) -> None:
        """Assert structural invariants (test/debug hook, not hot path)."""
        starts, ends = self._starts, self._ends
        n = len(starts)
        assert len(ends) == n
        for j in range(n):
            assert starts[j] < ends[j], f"empty window at {j}"
            if j + 1 < n:
                assert ends[j] < starts[j + 1], f"overlap/abut at {j}"
        expected_keys: list[float] = []
        expected_widths: list[float] = []
        floor = 0.0
        for j in range(n - 2, -1, -1):
            width = starts[j + 1] - ends[j]
            if width > floor:
                expected_keys.append(starts[j + 1])
                expected_widths.append(-width)
                floor = width
        expected_keys.reverse()
        expected_widths.reverse()
        assert self._record_keys == expected_keys, "stale hole record keys"
        assert self._record_widths == expected_widths, "stale hole records"
