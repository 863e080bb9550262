"""Deterministic crash recovery for the distribution overlay.

When a relay daemon crashes mid-broadcast its subtree is orphaned: the
children stop receiving, and the crashed node's own staged set is
incomplete.  Recovery is a *deterministic* post-pass over the daemon
tree in ascending node index (parents precede children in every tree
topology the overlay builds), so the same seed and crash schedule
replay to the same event log in any process:

- every daemon missing bytes re-attaches to its nearest **live
  ancestor** in the original tree (crashed ancestors are skipped; the
  walk only ever moves *up*, so recovery can never re-parent a subtree
  onto its own descendant — the no-cycle property is structural);
- a crashed daemon restarts and re-fetches the same way (the *daemon*
  died, not the compute node — its ranks still need the DLL set);
- with no live ancestor at all (the root crashed), orphans fall back to
  the staging source filesystem — re-reads route through the node's
  buffer cache, so bytes that already landed before the crash are never
  paid for twice;
- transfers resume at **chunk granularity** from the per-path received
  prefix, booked on the serving ancestor's egress-link reservation
  timeline like any other relay send — recovery traffic contends with
  whatever the link was already doing.

Recovery transfers are retransmitted reliably: lossy-link retry draws
apply only to the original broadcast, keeping the event log independent
of how many chunks happened to be re-sent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DistributionError

#: ``RecoveryEvent.new_parent`` value for a source-filesystem re-fetch.
SOURCE_PARENT = -1


@dataclass(frozen=True)
class RecoveryEvent:
    """One orphaned (or restarted) relay re-attaching and resuming."""

    #: The daemon that lost its feed and re-fetched.
    node: int
    #: The crashed daemon blamed (``node`` itself for a restarted
    #: daemon; None when the feed merely stalled behind an ancestor
    #: crash recovered upstream).
    failed_parent: int | None
    #: The live original-tree ancestor that served the re-fetch, or
    #: :data:`SOURCE_PARENT` for the staging source filesystem.
    new_parent: int
    #: When the failure detector fired for this daemon.
    detected_s: float
    #: When the last re-fetched byte landed.
    completed_s: float
    #: Bytes staged a second time through the recovery path.
    refetched_bytes: int
    #: Distinct images the re-fetch completed.
    images: int

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "failed_parent": self.failed_parent,
            "new_parent": self.new_parent,
            "detected_s": self.detected_s,
            "completed_s": self.completed_s,
            "refetched_bytes": self.refetched_bytes,
            "images": self.images,
        }


def _parent(daemon, daemons):
    """The daemon's parent in the original tree (None at a source)."""
    index = daemon.parent_index
    return None if index is None else daemons[index]


def _live_ancestor(daemon, daemons):
    """First non-crashed ancestor walking up the original tree."""
    ancestor = _parent(daemon, daemons)
    while ancestor is not None and ancestor.crashed:
        ancestor = _parent(ancestor, daemons)
    return ancestor


def _first_crashed(daemon, daemons):
    """The daemon itself if crashed, else the first crashed ancestor."""
    if daemon.crashed:
        return daemon
    ancestor = _parent(daemon, daemons)
    while ancestor is not None:
        if ancestor.crashed:
            return ancestor
        ancestor = _parent(ancestor, daemons)
    return None


def recover_overlay(daemons, images, source_images, detection_s):
    """Re-attach and resume every daemon with missing bytes.

    ``daemons[i]`` is node ``i``'s daemon, and each names its parent by
    that index (``parent_index``).  Mutates the daemons in place (landed
    times, received prefixes, buffer caches, egress bookings) and returns
    ``(events, refetched_bytes_total)``.  Daemons are visited in
    ascending node index, so a serving ancestor has always finished its
    own recovery before any descendant reads from it.
    """
    events: list[RecoveryEvent] = []
    total_refetched = 0
    #: node index -> completion time of its recovery (feeds stalled
    #: children whose parents were orphans themselves).
    resumed_at: dict[int, float] = {}
    source_by_path = {image.path: source for image, source in
                      zip(images, source_images)}
    for daemon in daemons:
        missing = [
            image for image in daemon.images
            if image.path not in daemon.landed
        ]
        if not missing:
            continue
        cause = _first_crashed(daemon, daemons)
        if cause is not None:
            detected_s = cause.crash_s + detection_s
        else:
            # The feed stalled behind an upstream crash recovered at the
            # parent: resume once the parent itself came back.
            parent = daemon.parent_index
            if parent is None or parent not in resumed_at:
                raise DistributionError(
                    f"node {daemon.index} is missing {len(missing)} images "
                    f"with no crashed ancestor and no recovered parent — "
                    f"the staging pass lost bytes"
                )
            detected_s = resumed_at[parent] + detection_s
        server = _live_ancestor(daemon, daemons)
        refetched = 0
        completed_s = detected_s
        if server is None:
            # The whole chain above is dead: re-read from the staging
            # source.  Bytes already landed hit the buffer cache and
            # cost nothing — only the lost remainder is paid for.
            clock = daemon.node.clock
            clock.advance_to_seconds(detected_s)
            for image in missing:
                refetched += (
                    image.size_bytes
                    - daemon._received_bytes.get(image.path, 0)
                )
                daemon.node.read_file(source_by_path[image.path])
                daemon.source_reads += 1
                daemon._received_bytes[image.path] = image.size_bytes
                daemon.landed[image.path] = clock.seconds
            completed_s = clock.seconds
        else:
            latency = server.network_latency_s
            bandwidth = server.egress_bandwidth_bps
            reserve = server._egress.reserve
            install = daemon.node.buffer_cache.install
            for image in missing:
                path = image.path
                offset = daemon._received_bytes.get(path, 0)
                chunk = daemon.chunk_bytes or image.size_bytes
                arrival = max(detected_s, server.landed[path])
                while offset < image.size_bytes:
                    size = min(chunk, image.size_bytes - offset)
                    service = latency + size / bandwidth
                    end = reserve(arrival, service) + service
                    install(image, offset, size)
                    server.relay_sends += 1
                    refetched += size
                    offset += size
                    arrival = end
                daemon._received_bytes[path] = image.size_bytes
                daemon.landed[path] = arrival
                completed_s = max(completed_s, arrival)
        failed_parent = cause.index if cause is not None else None
        new_parent = SOURCE_PARENT if server is None else server.index
        events.append(
            RecoveryEvent(
                node=daemon.index,
                failed_parent=failed_parent,
                new_parent=new_parent,
                detected_s=detected_s,
                completed_s=completed_s,
                refetched_bytes=refetched,
                images=len(missing),
            )
        )
        resumed_at[daemon.index] = completed_s
        total_refetched += refetched
    return tuple(events), total_refetched
