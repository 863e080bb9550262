"""Property suite: the reservation timeline against its legacy reference.

:class:`ReservationTimeline` replaced the O(n) list implementation on
the engine's hottest path; ``tests/legacy_reservation.py`` keeps that
implementation verbatim as the semantic reference.  Hypothesis drives
both through random workloads and pins:

- ``reserve`` returns bit-identical placements;
- ``earliest_gap`` agrees with the linear scan over the same windows,
  so the suffix-max pruning never changes an answer;
- stored windows stay sorted, disjoint and non-empty, with the suffix
  metadata intact (``_check_invariants``);
- a storm of identical requests packs consecutively and is independent
  of how it interleaves with a disjoint storm — the "booked in the
  past" property that makes results robust to scheduler issue order.

Service times are drawn >= 1e-6 s, the simulation's own lower bound
(one RPC at the IOPS cap is 1e-5 s): the epsilon merge is
observation-free only above that scale, which is exactly the contract
the module docstring states.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from legacy_reservation import legacy_earliest_gap, legacy_reserve
from repro.fs.reservation import ReservationTimeline

#: One reservation request: (arrival, service).
_REQUEST = st.tuples(
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=1e-6, max_value=10.0),
)
_WORKLOAD = st.lists(_REQUEST, max_size=100)


@given(_WORKLOAD)
def test_reserve_matches_legacy_reference(workload):
    timeline = ReservationTimeline()
    windows = []
    for arrival, service in workload:
        assert timeline.reserve(arrival, service) == legacy_reserve(
            windows, arrival, service
        )
    # Merging collapses storage but never the horizon.
    if windows:
        assert timeline.horizon_s == max(end for _, end in windows)


@given(_WORKLOAD, st.lists(_REQUEST, min_size=1, max_size=20))
def test_earliest_gap_agrees_with_linear_scan(workload, queries):
    timeline = ReservationTimeline()
    for arrival, service in workload:
        timeline.reserve(arrival, service)
    frozen = timeline.windows
    for arrival, service in queries:
        got = timeline.earliest_gap(arrival, service)
        assert got == legacy_earliest_gap(frozen, arrival, service)


@given(_WORKLOAD)
def test_windows_stay_sorted_disjoint_and_suffix_fresh(workload):
    timeline = ReservationTimeline()
    for arrival, service in workload:
        timeline.reserve(arrival, service)
    timeline._check_invariants()
    previous_end = None
    for start, end in timeline.windows:
        assert start < end
        if previous_end is not None:
            assert start > previous_end
        previous_end = end
    assert timeline.bookings == len(workload)


@given(_WORKLOAD)
def test_out_of_band_booking_keeps_invariants(workload):
    # book() is also called directly (the overlay books at a begin it
    # already computed); replay each placement through the raw insert.
    reference = ReservationTimeline()
    direct = ReservationTimeline()
    for arrival, service in workload:
        begin = reference.reserve(arrival, service)
        direct.book(begin, service)
        direct._check_invariants()
    assert direct.windows == reference.windows


@settings(max_examples=50)
@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=1.0),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.randoms(use_true_random=False),
)
def test_disjoint_storms_are_issue_order_independent(
    arrival, service, n_first, n_second, rng
):
    # Two storms of identical requests whose spans cannot collide: the
    # final windows must not depend on how the storms interleave,
    # because a late-issued early request books in the "past" of the
    # latest reservation.  (Full permutation independence over arbitrary
    # workloads is false — an early-arrival request issued late can find
    # its hole already taken — so the pinned property is exactly the
    # disjoint-storm case the engine relies on.)
    second_arrival = arrival + (n_first + n_second) * service + 1.0
    requests = [(arrival, service)] * n_first
    requests += [(second_arrival, service)] * n_second
    canonical = ReservationTimeline()
    for req in requests:
        canonical.reserve(*req)
    shuffled = list(requests)
    rng.shuffle(shuffled)
    permuted = ReservationTimeline()
    for req in shuffled:
        permuted.reserve(*req)
    assert permuted.windows == canonical.windows
    # Identical requests pack consecutively into one merged window each.
    assert len(permuted) == 2


def test_identical_storm_packs_into_one_window():
    timeline = ReservationTimeline()
    begins = [timeline.reserve(5.0, 0.5) for _ in range(8)]
    expected = []
    begin = 5.0
    for _ in range(8):
        expected.append(begin)
        begin += 0.5
    assert begins == expected
    assert len(timeline) == 1
    assert timeline.bookings == 8
