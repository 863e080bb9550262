"""The stream-draining overlay pass against the scheduled per-chunk oracle.

``DistributionOverlay.stage`` schedules only the source-reading daemons
and then runs each relay once, in node order, over its parent's whole
chunk stream.  ``tests/scheduled_overlay.py`` keeps the pass it
replaced: every daemon a scheduler task, every chunk a mailbox message.
The two must agree bit for bit — plan, cache runs, egress windows,
clocks and counters — over every topology, relay discipline, chunk
size, warm set, start time, lossy link and crash point.

The stream pass rests on one observation, checked here on the oracle:
during the pass each egress link has one booker whose clock never goes
back, so every booking lands at ``max(now, horizon)``.  Post-run crash
recovery (``recover_overlay``) is the one caller that books an egress
link out of order.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scheduled_overlay
from repro.dist import DistributionOverlay, DistributionSpec, Topology
from repro.errors import DistributionError
from repro.faults import FaultSpec, LinkFault, RelayCrash
from repro.fs.buffercache import BufferCache
from repro.fs.files import FileImage
from repro.fs.reservation import ReservationTimeline
from repro.machine.cluster import Cluster
from repro.machine.scheduler import EventScheduler
from scheduled_overlay import ScheduledOverlay

_KIB = 1024

_TOPOLOGIES = {
    "flat": dict(topology=Topology.FLAT, source="nfs"),
    "pfs": dict(topology=Topology.FLAT, source="pfs"),
    "binomial": dict(topology=Topology.BINOMIAL),
    "binomial-pfs": dict(topology=Topology.BINOMIAL, source="pfs"),
    "kary": dict(topology=Topology.KARY, fanout=3),
}


@st.composite
def _cases(draw):
    n_nodes = draw(st.integers(1, 10))
    sizes = draw(
        st.lists(
            st.sampled_from([0, 1, 4096, 5000, 48 * _KIB, 200 * _KIB]),
            min_size=1,
            max_size=4,
        )
    )
    # (node, how much of the set its cache holds before the pass).
    warm = draw(
        st.dictionaries(
            st.integers(0, n_nodes - 1),
            st.sampled_from(["all", "first", "half-of-first"]),
            max_size=3,
        )
    )
    crashes = []
    for node in draw(st.sets(st.integers(0, n_nodes - 1), max_size=3)):
        if draw(st.booleans()):
            crashes.append(
                RelayCrash(node=node, at_progress=draw(st.floats(0.0, 0.95)))
            )
        else:
            crashes.append(RelayCrash(node=node, at_s=draw(st.floats(0.0, 0.05))))
    links = tuple(
        LinkFault(
            node=node,
            loss_probability=draw(st.sampled_from([0.0, 0.2, 0.5])),
            bandwidth_factor=draw(st.sampled_from([1.0, 0.5])),
            retry_backoff_s=draw(st.sampled_from([0.0, 0.001])),
        )
        for node in draw(st.sets(st.integers(0, n_nodes - 1), max_size=3))
    )
    faults = (
        FaultSpec(crashes=tuple(crashes), links=links, seed=draw(st.integers(0, 9)))
        if crashes or links
        else None
    )
    return dict(
        n_nodes=n_nodes,
        topology=draw(st.sampled_from(sorted(_TOPOLOGIES))),
        pipelined=draw(st.booleans()),
        chunk_bytes=draw(st.sampled_from([None, 4096, 16 * _KIB, 1024 * _KIB])),
        spawn_s=draw(st.sampled_from([0.0, 0.002])),
        sizes=sizes,
        warm=warm,
        small_cache=draw(st.booleans()),
        start_s=draw(st.sampled_from([0.0, 0.0, 0.25])),
        faults=faults,
    )


def _stage(overlay_cls, case):
    """One pass on a fresh cluster; returns everything it leaves behind."""
    cluster = Cluster(n_nodes=case["n_nodes"], cores_per_node=1)
    if case["small_cache"]:
        # Small enough that landing the set evicts from the cache.
        for node in cluster.nodes:
            node.buffer_cache = BufferCache(capacity_bytes=256 * _KIB)
    images = [
        FileImage(path=f"/nfs/lib{i}.so", size_bytes=size, filesystem=cluster.nfs)
        for i, size in enumerate(case["sizes"])
    ]
    for node, amount in case["warm"].items():
        cache = cluster.nodes[node].buffer_cache
        if amount == "all":
            for image in images:
                cache.read(image)
        elif amount == "first":
            cache.read(images[0])
        else:
            cache.read(images[0], 0, images[0].size_bytes // 2)
    spec = DistributionSpec(
        pipelined=case["pipelined"],
        chunk_bytes=case["chunk_bytes"],
        daemon_spawn_s=case["spawn_s"],
        **_TOPOLOGIES[case["topology"]],
    )
    overlay = overlay_cls(spec, cluster, faults=case["faults"])
    try:
        plan = overlay.stage(images, start_s=case["start_s"])
    except DistributionError as exc:
        return ("raised", str(exc))
    return (
        plan,
        [list(node.buffer_cache.runs()) for node in cluster.nodes],
        [(node.buffer_cache.hits, node.buffer_cache.misses) for node in cluster.nodes],
        [(d._egress.windows, d._egress.bookings) for d in overlay.daemons],
        [d.node.clock.cycles for d in overlay.daemons],
        [(d.relay_sends, d.link_retries, d.source_reads) for d in overlay.daemons],
        [dict(d.landed) for d in overlay.daemons],
        [d.crashed for d in overlay.daemons],
        cluster.nfs.timeline_stats(),
        cluster.nfs._reservations.windows,
        cluster.pfs.timeline_stats(),
    )


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_cases())
def test_stream_pass_matches_the_scheduled_oracle(case):
    assert _stage(DistributionOverlay, case) == _stage(ScheduledOverlay, case)


# -- the tail-append count ---------------------------------------------


class _CountingTimeline(ReservationTimeline):
    """An egress timeline that logs, per booking, whether it was a tail
    append and whether recovery (rather than the pass) made it."""

    log: list[tuple[bool, bool]] = []
    recovering = False

    def reserve(self, arrival: float, service: float) -> float:
        horizon = self.horizon_s
        begin = super().reserve(arrival, service)
        self.log.append((begin == max(arrival, horizon), _CountingTimeline.recovering))
        return begin


def _counted_recover(*args):
    _CountingTimeline.recovering = True
    try:
        return _recover(*args)
    finally:
        _CountingTimeline.recovering = False


_recover = scheduled_overlay.recover_overlay

_TAIL_CASES = {
    "fault-free": dict(topology="binomial", pipelined=True, chunk_bytes=4096, faults=None),
    "store-and-forward": dict(topology="kary", pipelined=False, chunk_bytes=None, faults=None),
    "warm": dict(topology="binomial", pipelined=True, chunk_bytes=16 * _KIB,
                 warm={3: "all", 5: "first"}, faults=None),
    "lossy": dict(
        topology="binomial", pipelined=True, chunk_bytes=4096,
        faults=FaultSpec(links=tuple(LinkFault(node=n, loss_probability=0.4,
                                               retry_backoff_s=0.001) for n in range(4)),
                         seed=3),
    ),
    "crashing": dict(
        topology="binomial", pipelined=True, chunk_bytes=4096,
        faults=FaultSpec(crashes=(RelayCrash(node=1, at_progress=0.3),
                                  RelayCrash(node=6, at_progress=0.6)), seed=1),
    ),
    "crashing-store-and-forward": dict(
        topology="kary", pipelined=False, chunk_bytes=16 * _KIB,
        faults=FaultSpec(crashes=(RelayCrash(node=2, at_s=0.01),), seed=2),
    ),
}


def _tail_case(**overrides):
    case = dict(n_nodes=12, spawn_s=0.0, sizes=[200 * _KIB, 48 * _KIB, 5000],
                warm={}, small_cache=False, start_s=0.0)
    case.update(overrides)
    return case


@pytest.fixture
def counted(monkeypatch):
    monkeypatch.setattr(scheduled_overlay, "ReservationTimeline", _CountingTimeline)
    monkeypatch.setattr(scheduled_overlay, "recover_overlay", _counted_recover)
    monkeypatch.setattr(_CountingTimeline, "log", [])
    return _CountingTimeline.log


@pytest.mark.parametrize("name", sorted(_TAIL_CASES))
def test_every_egress_booking_during_the_pass_is_a_tail_append(counted, name):
    _stage(ScheduledOverlay, _tail_case(**_TAIL_CASES[name]))
    during_pass = [tail for tail, recovering in counted if not recovering]
    assert during_pass, "the pass booked no egress window"
    assert all(during_pass), (
        f"{during_pass.count(False)} of {len(during_pass)} pass bookings "
        f"went into a hole before the horizon"
    )


def test_recovery_is_the_caller_that_books_out_of_order(counted):
    """Orphans of the root's crashed child re-fetch from the root soon
    after the crash, into the holes its link left while it waited on
    NFS reads."""
    _stage(ScheduledOverlay, _tail_case(
        topology="binomial", pipelined=True, chunk_bytes=4096,
        sizes=[200 * _KIB] * 6,
        faults=FaultSpec(crashes=(RelayCrash(node=1, at_progress=0.3),),
                         seed=1, detection_s=0.001),
    ))
    during_pass = [tail for tail, recovering in counted if not recovering]
    by_recovery = [tail for tail, recovering in counted if recovering]
    assert all(during_pass)
    assert by_recovery and not all(by_recovery)


# -- the scheduler sees only the readers --------------------------------


@pytest.mark.parametrize("topology,readers", [("binomial", 1), ("kary", 1), ("flat", 6)])
def test_only_source_readers_are_scheduled(monkeypatch, topology, readers):
    seen = []
    run = EventScheduler.run

    def recording_run(scheduler, tasks):
        seen.append(len(tasks))
        return run(scheduler, tasks)

    monkeypatch.setattr(EventScheduler, "run", recording_run)
    _stage(DistributionOverlay, _tail_case(topology=topology, n_nodes=6,
                                           pipelined=True, chunk_bytes=4096,
                                           faults=None))
    assert seen == [readers]


def test_a_stream_that_ends_short_raises_without_faults():
    cluster = Cluster(n_nodes=2, cores_per_node=1)
    images = [FileImage(path="/nfs/a.so", size_bytes=8192, filesystem=cluster.nfs)]
    overlay = DistributionOverlay(DistributionSpec(), cluster)
    overlay.stage(images)
    relay = overlay.daemons[1]
    relay.landed.clear()
    relay._received_bytes.clear()
    with pytest.raises(DistributionError, match="stream from its parent 0 has ended"):
        relay._receive_stream()
