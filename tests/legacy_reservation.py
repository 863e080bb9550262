# The O(n) list reservation functions that repro.fs.reservation's
# ReservationTimeline replaced, kept verbatim as the reference for
# tests/test_reservation_props.py.


def legacy_earliest_gap(
    reservations: list[tuple[float, float]], arrival: float, service: float
) -> float:
    """Earliest start >= ``arrival`` of a free ``service``-long window."""
    begin = arrival
    for window_start, window_end in reservations:
        if begin + service <= window_start:
            return begin
        if window_end > begin:
            begin = window_end
    return begin


def legacy_book(
    reservations: list[tuple[float, float]], begin: float, service: float
) -> None:
    """Insert a (begin, begin + service) window, keeping the list sorted."""
    for index, (window_start, _) in enumerate(reservations):
        if begin < window_start:
            reservations.insert(index, (begin, begin + service))
            return
    reservations.append((begin, begin + service))


def legacy_reserve(
    reservations: list[tuple[float, float]], arrival: float, service: float
) -> float:
    """Book the earliest free window; returns its start time."""
    begin = legacy_earliest_gap(reservations, arrival, service)
    legacy_book(reservations, begin, service)
    return begin
