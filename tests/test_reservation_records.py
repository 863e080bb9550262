"""The hole records of :class:`ReservationTimeline` are cheap to keep.

A timeline keeps, right to left, the free holes wider than every hole
after them.  These tests pin the costs the structure promises: a tail
append writes O(1) record entries amortized however the holes grow, and
an interior booking rewrites no more than the records between the hole
it touched and the previous record.
"""

from repro.fs.reservation import ReservationTimeline


class _CountingList(list):
    """A list that counts the entries written or removed through it."""

    def __init__(self, items=()) -> None:
        super().__init__(items)
        self.touched = 0

    def append(self, item) -> None:
        self.touched += 1
        super().append(item)

    def pop(self, *args):
        self.touched += 1
        return super().pop(*args)

    def insert(self, index, item) -> None:
        self.touched += 1
        super().insert(index, item)

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            start, stop, _ = index.indices(len(self))
            self.touched += max(stop - start, 0) + len(value)
        else:
            self.touched += 1
        super().__setitem__(index, value)

    def __delitem__(self, index) -> None:
        self.touched += 1
        super().__delitem__(index)


def _count_record_writes(timeline: ReservationTimeline) -> tuple:
    keys = _CountingList(timeline._record_keys)
    widths = _CountingList(timeline._record_widths)
    timeline._record_keys, timeline._record_widths = keys, widths
    return keys, widths


def test_tail_appends_touch_o1_records_as_holes_grow():
    # Every new hole is wider than all before it: the old suffix-max
    # array rewrote its whole length on each such append.
    timeline = ReservationTimeline()
    keys, widths = _count_record_writes(timeline)
    n = 5000
    at = 0.0
    for index in range(n):
        timeline.book(at, 1.0)
        at += 1.0 + 1e-3 * (index + 1)
    assert timeline.bookings == n
    assert len(timeline._record_keys) == 1
    # Each append pops the one record and pushes its own hole.
    assert keys.touched + widths.touched <= 4 * n
    timeline._check_invariants()


def test_tail_appends_touch_o1_records_amortized_on_mixed_holes():
    timeline = ReservationTimeline()
    keys, widths = _count_record_writes(timeline)
    n = 4000
    at = 0.0
    for index in range(n):
        timeline.book(at, 0.5)
        # Holes that shrink for a while and then jump: long record
        # stacks that one wide hole clears at once.
        at += 0.5 + (1e-3 * (100 - index % 100) if index % 500 else 5.0)
    # Each record is pushed once and popped at most once.
    assert keys.touched + widths.touched <= 4 * n
    timeline._check_invariants()


def test_interior_booking_rescans_back_to_the_previous_record_only():
    # Shrinking holes: every hole is a record.
    timeline = ReservationTimeline()
    at = 0.0
    n = 2000
    for index in range(n):
        timeline.book(at, 1.0)
        at += 1.0 + 1e-3 * (n - index)
    assert len(timeline._record_keys) == n - 1
    keys, widths = _count_record_writes(timeline)
    # Narrow the hole after window 10 from the left: one record changes
    # and its neighbours bound the rescan.
    hole_start = timeline._ends[10]
    timeline.book(hole_start + 1e-9, 1e-4)
    assert keys.touched + widths.touched <= 8
    timeline._check_invariants()


def test_interior_booking_off_the_records_touches_none():
    # Growing holes: only the last hole is a record, so filling any
    # earlier hole changes no record at all.
    timeline = ReservationTimeline()
    at = 0.0
    for index in range(1000):
        timeline.book(at, 1.0)
        at += 1.0 + 1e-3 * (index + 1)
    keys, widths = _count_record_writes(timeline)
    for window in range(0, 900, 7):
        hole_start = timeline._ends[window]
        hole_end = timeline._starts[window + 1]
        timeline.book(hole_start + (hole_end - hole_start) / 3, 1e-5)
    assert keys.touched + widths.touched == 0
    timeline._check_invariants()
