# The scheduled per-chunk relay daemon that repro.dist.overlay replaced,
# kept as the reference for tests/test_overlay_stream.py: every daemon is
# a task on the EventScheduler, each chunk is a Mailbox message, and a
# receiver blocked on an empty inbox parks until its parent sends.
"""Oracle: the distribution overlay as one scheduled task per daemon."""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Generator, Iterator, Sequence

from repro.dist.overlay import DistributionOverlay, RelayChunk, StagingPlan
from repro.dist.topology import Topology, children_map
from repro.errors import ConfigError, DistributionError
from repro.faults.recovery import RecoveryEvent, recover_overlay
from repro.faults.spec import RelayCrash
from repro.fs.files import FileImage
from repro.fs.reservation import ReservationTimeline
from repro.machine.node import TimedReadNode
from repro.machine.scheduler import EventScheduler, RankTask, SteppedProgram


class Mailbox:
    """Timestamped messages between stepped programs on one scheduler.

    A sender *delivers* a payload with the virtual time at which it
    arrives; the receiver *receives* messages in arrival order, advancing
    its own clock to the arrival time.  Because the scheduler interleaves
    tasks least-virtual-time-first, a receiver whose mailbox is empty
    simply yields (its ``now`` callable should then report a time at or
    after its sender's clock, so the sender runs first) and re-checks on
    its next step — the blocking-receive idiom the distribution overlay's
    relay daemons use.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, object]] = []
        self._seq = itertools.count()

    def deliver(self, arrival_s: float, payload: object) -> None:
        """Enqueue ``payload`` arriving at virtual time ``arrival_s``."""
        if arrival_s < 0:
            raise ConfigError(f"negative arrival time: {arrival_s}")
        heapq.heappush(self._heap, (arrival_s, next(self._seq), payload))

    def peek_arrival(self) -> float | None:
        """Arrival time of the earliest queued message (None if empty)."""
        return self._heap[0][0] if self._heap else None

    def receive(self) -> tuple[float, object] | None:
        """Pop the earliest message as ``(arrival_s, payload)``, or None."""
        if not self._heap:
            return None
        arrival, _, payload = heapq.heappop(self._heap)
        return arrival, payload

    def __len__(self) -> int:
        return len(self._heap)


class RelayDaemon(SteppedProgram):
    """One node's staging daemon: receive (or read), land, relay.

    ``now()`` is the scheduler key.  A daemon blocked on an empty inbox
    reports a time just *after* its parent's clock, so the
    least-virtual-time-first policy always runs the sender first; once a
    message is queued, the key becomes its arrival time.
    """

    def __init__(
        self,
        index: int,
        node: TimedReadNode,
        images: Sequence[FileImage],
        read_images: Sequence[FileImage],
        reads_source: bool,
        egress_bandwidth_bps: float,
        network_latency_s: float,
        pipelined: bool,
        spawn_s: float,
        chunk_bytes: "int | None" = None,
        start_s: float = 0.0,
        crash: "RelayCrash | None" = None,
        loss_probability: float = 0.0,
        retry_backoff_s: float = 0.0,
        loss_rng: "random.Random | None" = None,
        fault_tolerant: bool = False,
    ) -> None:
        self.index = index
        self.node = node
        #: Virtual time the staging pass begins (a batch-queued job's
        #: start time on a shared cluster timeline; 0 for a solo job).
        self.start_s = start_s
        self.images = list(images)
        #: Same files, possibly re-pointed at the staging source (PFS
        #: mirrors share the originals' paths, hence their cache pages).
        self.read_images = list(read_images)
        self.reads_source = reads_source
        self.egress_bandwidth_bps = egress_bandwidth_bps
        self.network_latency_s = network_latency_s
        self.pipelined = pipelined
        self.spawn_s = spawn_s
        self.chunk_bytes = chunk_bytes
        self.inbox = Mailbox()
        self.parent: "RelayDaemon | None" = None
        #: What ``recover_overlay`` walks up the tree by.
        self.parent_index: "int | None" = None
        self.children: list["RelayDaemon"] = []
        #: Paths whose images the node's cache held before staging began
        #: (set by the overlay) — served to the subtree, never awaited.
        self.warm_paths: frozenset[str] = frozenset()
        #: path -> seconds the image became available on this node.
        self.landed: dict[str, float] = {}
        #: path -> bytes received so far (chunked transfers in flight).
        self._received_bytes: dict[str, int] = {}
        self._egress = ReservationTimeline()
        self.relay_sends = 0
        self.source_reads = 0
        self.completed = False
        self._blocked = False
        # -- fault injection state (inert on a fault-free pass) -------
        #: Scheduled crash for this daemon, if any.
        self.crash = crash
        #: Whether any fault is active on the overlay: children of a
        #: finished-but-incomplete parent break out gracefully (to be
        #: recovered post-run) instead of raising.
        self.fault_tolerant = fault_tolerant
        self.loss_probability = loss_probability
        self.retry_backoff_s = retry_backoff_s
        self.loss_rng = loss_rng
        self.crashed = False
        self.crash_s = 0.0
        self.link_retries = 0
        #: Bytes landed so far — the crash-at-progress trigger.
        self._landed_bytes = 0
        self._crash_threshold = None
        if crash is not None and crash.at_progress is not None:
            total = sum(image.size_bytes for image in images)
            self._crash_threshold = math.ceil(crash.at_progress * total)

    # -- scheduler interface ------------------------------------------------
    def now(self) -> float:
        """The scheduler key: clock, next message arrival, or parked.

        A daemon blocked on an empty inbox parks at ``+inf``: it is only
        popped again once every daemon with finite-key work has drained,
        by which point its sender has queued something (the root never
        blocks, and ties at ``inf`` break by node index, so a parked
        parent always wakes before its parked children — the chain
        unwinds from the root down without livelock or deep recursion).
        Resuming a receiver later than its wake time cannot change the
        outcome: daemon clocks advance to the *recorded* arrival times
        and link transfers book earliest-gap reservations, both
        independent of the order the scheduler happens to interleave
        resumptions in.
        """
        clock = self.node.clock
        seconds = clock.cycles / float(clock.frequency_hz)
        if not self._blocked:
            return seconds
        head = self.inbox.peek_arrival()
        if head is not None:
            return max(seconds, head)
        return float("inf")

    def steps(self) -> Generator[None, None, None]:
        if self.spawn_s > 0.0:
            self.node.clock.add_seconds(self.spawn_s)
            yield
        if self.crash is not None and self._crash_due():
            self._die()
        if not self.crashed and self.warm_paths:
            yield from self._serve_warm_images()
        if not self.crashed:
            if self.reads_source:
                yield from self._read_from_source()
            else:
                yield from self._receive_from_parent()
        if not self.pipelined and not self.crashed:
            for child in self.children:
                for image in self.images:
                    if self.crash is not None and self._crash_due():
                        self._die()
                        break
                    if image.path in child.warm_paths:
                        continue
                    # Under faults this daemon may itself hold only a
                    # partial set (an upstream crash): forward what
                    # actually landed; recovery delivers the rest.
                    if image.path not in self.landed:
                        continue
                    self._send_image(child, image, synchronous=True)
                if self.crashed:
                    break
                yield
        self.completed = True

    # -- fault injection ----------------------------------------------------
    def _crash_due(self) -> bool:
        """Has the scheduled crash trigger been reached?  Checked at
        landing events (and between store-and-forward sends), so the
        chunk crossing the threshold still lands locally but is never
        forwarded."""
        crash = self.crash
        if crash.at_s is not None:
            return self.node.clock.seconds >= crash.at_s
        return self._landed_bytes >= self._crash_threshold

    def _die(self) -> None:
        self.crashed = True
        self.crash_s = self.node.clock.seconds

    # -- staging work -------------------------------------------------------
    def _chunks(self, image: FileImage) -> Iterator[tuple[int, int]]:
        """(offset, size) spans of one image at the relay granularity."""
        chunk = self.chunk_bytes or image.size_bytes
        offset = 0
        while offset < image.size_bytes:
            size = min(chunk, image.size_bytes - offset)
            yield offset, size
            offset += size

    def _serve_warm_images(self) -> Generator[None, None, None]:
        """Cache-aware relaying: warm images are available at launch and
        (under cut-through) fan out to the cold children immediately —
        this daemon is a secondary source, not a blocked receiver."""
        for image in self.images:
            if image.path not in self.warm_paths:
                continue
            # A pre-warmed cache (reused batch allocation) already holds
            # the image: available since job launch.
            self.landed[image.path] = self.start_s
            if self.crash is not None:
                self._landed_bytes += image.size_bytes
                if self._crash_due():
                    self._die()
                    return
            if self.pipelined:
                yield from self._relay_image(image)
            yield

    def _read_from_source(self) -> Generator[None, None, None]:
        for image, source_image in zip(self.images, self.read_images):
            if image.path in self.landed:  # warm, served above
                continue
            self.node.read_file(source_image)
            self.source_reads += 1
            self.landed[image.path] = self.node.clock.seconds
            if self.crash is not None:
                self._landed_bytes += image.size_bytes
                if self._crash_due():
                    self._die()
                    return
            if self.pipelined:
                yield from self._relay_image(image)
            yield

    def _receive_from_parent(self) -> Generator[None, None, None]:
        if self.parent is None:
            raise DistributionError(
                f"relay daemon {self.index} has no parent and no source"
            )
        # Warm images were landed before this loop, so only the cold
        # remainder is awaited — the parent skips sending anything else.
        # All currently queued messages drain in one step: chunks are
        # processed in arrival order and clocks advance to the *recorded*
        # arrival times either way, so batching changes only how often
        # the scheduler re-heapifies this daemon, not any outcome.
        #
        # This loop runs once per received chunk across the whole overlay
        # — the engine's single hottest path — so the clock arithmetic
        # and the cut-through forward are inlined rather than calling
        # ``SimClock.advance_to_seconds`` / ``_send_chunk``.  Every
        # expression matches those methods' float arithmetic exactly.
        landed, images = self.landed, self.images
        n_images = len(images)
        received_bytes = self._received_bytes
        clock = self.node.clock
        frequency = float(clock.frequency_hz)
        ceil = math.ceil
        install = self.node.buffer_cache.install
        receive = self.inbox.receive
        pipelined = self.pipelined
        children = self.children
        latency = self.network_latency_s
        bandwidth = self.egress_bandwidth_bps
        egress_reserve = self._egress.reserve
        crash = self.crash
        loss_p = self.loss_probability
        loss_rng = self.loss_rng
        backoff = self.retry_backoff_s
        while len(landed) < n_images:
            message = receive()
            if message is None:
                if self.parent.completed:
                    if self.fault_tolerant:
                        # The feed died upstream: keep the partial set
                        # and let post-run recovery re-attach us.
                        self._blocked = False
                        return
                    raise DistributionError(
                        f"node {self.index} still waits for "
                        f"{n_images - len(landed)} images but "
                        f"its parent {self.parent.index} has finished"
                    )
                self._blocked = True
                yield
                continue
            self._blocked = False
            while message is not None:
                arrival, chunk = message
                cycles = ceil(arrival * frequency)
                if cycles > clock.cycles:
                    clock.cycles = cycles
                image = chunk.image
                size = chunk.size
                install(image, chunk.offset, size)
                path = image.path
                received = received_bytes.get(path, 0) + size
                received_bytes[path] = received
                if received >= image.size_bytes:
                    landed[path] = clock.cycles / frequency
                if crash is not None:
                    self._landed_bytes += size
                    if self._crash_due():
                        # The crossing chunk landed; nothing is
                        # forwarded past the crash.
                        self._die()
                        return
                if pipelined and children:
                    # Cut-through: forward the chunk before the rest of
                    # the image has even arrived.
                    now_s = clock.cycles / frequency
                    base_service = latency + size / bandwidth
                    for child in children:
                        if path in child.warm_paths:
                            continue
                        service = base_service
                        if loss_p:
                            attempts = 1
                            while loss_rng.random() < loss_p:
                                attempts += 1
                            if attempts > 1:
                                self.link_retries += attempts - 1
                                service = (
                                    attempts * base_service
                                    + (attempts - 1) * backoff
                                )
                        end = egress_reserve(now_s, service) + service
                        child.inbox.deliver(end, chunk)
                        self.relay_sends += 1
                if len(landed) >= n_images:
                    break
                message = receive()
            yield

    def _relay_image(self, image: FileImage) -> Generator[None, None, None]:
        """Cut-through: stream ``image`` to every cold child chunk by
        chunk (chunk-major, so the first chunk reaches every child before
        the second is queued anywhere)."""
        targets = [
            child
            for child in self.children
            if image.path not in child.warm_paths
        ]
        if not targets:
            return
        for offset, size in self._chunks(image):
            chunk = RelayChunk(image=image, offset=offset, size=size)
            for child in targets:
                self._send_chunk(child, chunk, synchronous=False)
            yield

    def _send_image(
        self, child: "RelayDaemon", image: FileImage, synchronous: bool
    ) -> None:
        """Book one whole-image transfer (as chunks) on the egress link."""
        for offset, size in self._chunks(image):
            self._send_chunk(
                child,
                RelayChunk(image=image, offset=offset, size=size),
                synchronous=synchronous,
            )

    def _send_chunk(
        self, child: "RelayDaemon", chunk: RelayChunk, synchronous: bool
    ) -> None:
        """Book one chunk transfer on this node's egress link.

        ``synchronous`` (store-and-forward) rides the daemon's clock on
        the link — the next send cannot start earlier; asynchronous
        (cut-through) sends only book the reservation timeline, letting
        the NIC drain while the daemon keeps receiving.
        """
        service = self.network_latency_s + (
            chunk.size / self.egress_bandwidth_bps
        )
        if self.loss_probability:
            attempts = 1
            while self.loss_rng.random() < self.loss_probability:
                attempts += 1
            if attempts > 1:
                self.link_retries += attempts - 1
                service = (
                    attempts * service
                    + (attempts - 1) * self.retry_backoff_s
                )
        begin = self._egress.reserve(self.node.clock.seconds, service)
        end = begin + service
        if synchronous:
            self.node.clock.advance_to_seconds(end)
        child.inbox.deliver(end, chunk)
        self.relay_sends += 1


class ScheduledOverlay(DistributionOverlay):
    """A :class:`DistributionOverlay` whose pass runs every daemon on
    the scheduler, one step per received chunk."""

    def stage(
        self, images: Sequence[FileImage], start_s: float = 0.0
    ) -> StagingPlan:
        """Run one staging pass; lands images in every node's cache.

        Returns the :class:`StagingPlan` with per-(node, image)
        availability times.  The caller owns queue hygiene: the pass
        books reservations on the cluster's shared file-system timelines
        exactly like any other client.

        ``start_s`` offsets the whole pass on the shared virtual
        timeline — a batch-queued job staging at its (possibly delayed)
        start time books its source reads at ``>= start_s``, so several
        jobs' staging passes genuinely contend on one cluster's
        file-system reservations.  All reported times stay absolute.
        """
        if not images:
            raise ConfigError("nothing to distribute: empty image set")
        if start_s < 0:
            raise ConfigError(f"start_s must be >= 0, got {start_s}")
        n_nodes = self.cluster.n_nodes
        spec = self.spec
        for index in spec.straggler_relay_nodes:
            if not 0 <= index < n_nodes:
                raise ConfigError(
                    f"straggler relay {index} outside the {n_nodes}-node job"
                )
        faults = self.faults
        if faults is not None:
            for crash in faults.crashes:
                if crash.node >= n_nodes:
                    raise ConfigError(
                        f"crash node {crash.node} outside the "
                        f"{n_nodes}-node job"
                    )
            for link in faults.links:
                if link.node >= n_nodes:
                    raise ConfigError(
                        f"link-fault node {link.node} outside the "
                        f"{n_nodes}-node job"
                    )
        children = children_map(spec.topology, n_nodes, spec.fanout)
        source_images = self._source_images(images)
        flat = spec.topology is Topology.FLAT
        self.daemons = []
        for index in range(n_nodes):
            crash = link = None
            if faults is not None:
                crash = faults.crash_for(index)
                link = faults.link_for(index)
            loss_probability = link.loss_probability if link else 0.0
            self.daemons.append(
                RelayDaemon(
                    index=index,
                    node=TimedReadNode(
                        name=f"{self.cluster.nodes[index].name}:distd",
                        costs=self.cluster.nodes[index].costs,
                        buffer_cache=self.cluster.nodes[index].buffer_cache,
                        cores=1,
                    ),
                    images=images,
                    read_images=source_images,
                    reads_source=flat or index == 0,
                    egress_bandwidth_bps=self._egress_bandwidth(index),
                    network_latency_s=self.network.latency_s,
                    pipelined=spec.pipelined,
                    spawn_s=spec.daemon_spawn_s,
                    chunk_bytes=spec.chunk_bytes,
                    start_s=start_s,
                    crash=crash,
                    loss_probability=loss_probability,
                    retry_backoff_s=link.retry_backoff_s if link else 0.0,
                    # One deterministic stream per node: the loss draws
                    # do not depend on scheduler interleaving across
                    # nodes, so the same seed replays bit-identically.
                    loss_rng=(
                        random.Random(faults.seed * 1_000_003 + index)
                        if loss_probability
                        else None
                    ),
                    fault_tolerant=faults is not None,
                )
            )
        if start_s > 0.0:
            for daemon in self.daemons:
                daemon.node.clock.advance_to_seconds(start_s)
        # Cache-aware wiring: snapshot each node's pre-staged residency
        # before any daemon runs (the pass itself mutates the caches).
        for daemon in self.daemons:
            daemon.warm_paths = frozenset(
                image.path
                for image in images
                if daemon.node.buffer_cache.contains(image)
            )
        warm_nodes = tuple(
            daemon.index
            for daemon in self.daemons
            if len(daemon.warm_paths) == len(images)
        )
        for parent_index, kids in enumerate(children):
            parent = self.daemons[parent_index]
            for child_index in kids:
                child = self.daemons[child_index]
                child.parent = parent
                child.parent_index = parent_index
                parent.children.append(child)
        tasks = [
            RankTask(daemon.index, daemon.steps(), now=daemon.now)
            for daemon in self.daemons
        ]
        EventScheduler().run(tasks)
        recovery_events: tuple[RecoveryEvent, ...] = ()
        refetched_bytes = 0
        if faults is not None and any(
            len(daemon.landed) < len(images) for daemon in self.daemons
        ):
            recovery_events, refetched_bytes = recover_overlay(
                self.daemons, images, source_images, faults.detection_s
            )
        per_node_done: list[float] = []
        for daemon in self.daemons:
            if len(daemon.landed) != len(images):
                raise DistributionError(
                    f"node {daemon.index} landed {len(daemon.landed)} of "
                    f"{len(images)} images"
                )
            per_node_done.append(max(daemon.landed.values()))
        root = self.daemons[0]
        root_read_s = max(root.landed.values(), default=0.0)
        return StagingPlan(
            strategy=spec.label,
            n_nodes=n_nodes,
            n_files=len(images),
            staged_bytes=sum(image.size_bytes for image in images),
            landed=tuple(daemon.landed for daemon in self.daemons),
            per_node_done_s=tuple(per_node_done),
            root_read_s=root_read_s,
            relay_sends=sum(daemon.relay_sends for daemon in self.daemons),
            chunk_bytes=spec.chunk_bytes,
            warm_nodes=warm_nodes,
            source_reads=sum(daemon.source_reads for daemon in self.daemons),
            recovery_events=recovery_events,
            refetched_bytes=refetched_bytes,
            crashed_nodes=tuple(
                daemon.index for daemon in self.daemons if daemon.crashed
            ),
            link_retries=sum(daemon.link_retries for daemon in self.daemons),
        )
