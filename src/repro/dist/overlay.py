"""The distribution overlay: relay daemons staging DLLs inside the engine.

One :class:`RelayDaemon` runs per node.  The root daemon (or, under the
FLAT topology, every daemon) reads each DLL image once from the source
file system's timed reservation queue (``request_at``).  These source
readers share that queue, so they run as tasks on an
:class:`~repro.machine.scheduler.EventScheduler`, least virtual time
first.  Relay daemons forward images to their overlay children over the
interconnect, serializing sends on a per-node egress-link
:class:`~repro.fs.reservation.ReservationTimeline`.  Every image a
daemon receives is *landed* in its node's disk
:class:`~repro.fs.buffercache.BufferCache` (the page-cache copy overlaps
the transfer, so landing charges no extra time), and the landing instant
is recorded in the daemon's landing map.  The resulting
:class:`StagingPlan` keeps those maps, one per node: the per-(node,
image) availability the :class:`~repro.dist.router.NodeRouter` uses to
stall a rank's cold DLL reads until the overlay has delivered the
bytes.

A relay touches nothing shared: its inputs are its parent's sends and
its own clock, link and cache.  Each egress link has one booker whose
clock never goes back, so every send during the pass books the link at
``max(now, horizon)`` (a tail append), and the arrival times of one
parent's sends to one child rise in send order.  So a parent appends
each send to the child's :attr:`RelayDaemon.stream`, and once the
readers are done the relays run to completion one at a time in node
order (every topology numbers a parent before its children): each lands
and forwards its parent's whole stream in one pass, with no event loop.
The pass is bit-identical to scheduling every daemon per chunk, which
``tests/scheduled_overlay.py`` keeps as the reference.

With the default store-and-forward discipline
(``DistributionSpec(pipelined=False)``) a binomial overlay on a
homogeneous cold cluster reproduces the analytic closed form
``staging_seconds(..., COLLECTIVE)`` — one NFS pass plus
``ceil(log2 n)`` full-set interconnect rounds — which is what the golden
tests pin.  ``pipelined=True`` switches to cut-through relaying, which
overlaps rounds and beats the closed form; with ``chunk_bytes`` set, a
transfer streams as per-chunk messages, so a relay forwards chunk *i*
while still receiving chunk *i+1* and the tree fills like a pipeline —
the ``staging_seconds(..., PIPELINED)`` twin pins that shape.

Relays are *cache-aware*: a daemon whose node's buffer cache already
holds an image (a warm node in a partially reused batch allocation) acts
as a secondary source for its subtree — the image is available at job
launch, is relayed to the children lacking it without waiting for the
root pass, and is never sent down the link to a child that is itself
warm.  A fully warm cluster therefore stages in zero time with zero
relay sends and zero source reads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Sequence

from repro.dist.topology import DistributionSpec, Topology, children_map
from repro.errors import ConfigError, DistributionError
from repro.faults.recovery import RecoveryEvent, recover_overlay
from repro.faults.spec import FaultSpec, RelayCrash
from repro.fs.files import FileImage
from repro.fs.reservation import ReservationTimeline
from repro.machine.cluster import Cluster
from repro.machine.node import TimedReadNode
from repro.machine.scheduler import (
    EventScheduler,
    RankTask,
    SteppedProgram,
    drain,
    paused_gc,
)
from repro.mpi.network import NetworkModel


@dataclass(frozen=True)
class RelayChunk:
    """One relayed byte range of an image (a message on the overlay)."""

    image: FileImage
    offset: int
    size: int


@dataclass
class StagingPlan:
    """Outcome of one overlay staging run.

    ``landed[i]`` is node ``i``'s landing map, kept as its relay daemon
    built it: path -> the virtual time the image became available on
    that node (the pass's start when the node's cache already held it).
    :meth:`ready` reads one (node, image) pair from it.
    ``per_node_done_s[i]`` is when node ``i`` held the *full* set.
    """

    strategy: str
    n_nodes: int
    n_files: int
    staged_bytes: int
    landed: tuple[dict[str, float], ...]
    per_node_done_s: tuple[float, ...]
    root_read_s: float
    #: Chunk sends booked on egress links (one per chunk per child).
    relay_sends: int
    #: Relay granularity used (None = whole images).
    chunk_bytes: "int | None" = None
    #: Nodes whose caches held the *entire* set before staging began —
    #: the cache-aware relays that served their subtrees as secondary
    #: sources instead of waiting for the root pass.
    warm_nodes: tuple[int, ...] = ()
    #: Batched read requests the source-reading daemons issued (never
    #: exceeds the number of distinct cold images at the root).
    source_reads: int = 0
    #: Deterministic crash-recovery log (one entry per orphaned or
    #: restarted relay; empty on a fault-free pass).
    recovery_events: tuple[RecoveryEvent, ...] = ()
    #: Bytes staged a second time through the recovery path.
    refetched_bytes: int = 0
    #: Relay daemons that crashed during the pass.
    crashed_nodes: tuple[int, ...] = ()
    #: Lossy-link resends booked on egress reservations.
    link_retries: int = 0

    @property
    def makespan_s(self) -> float:
        """Seconds until every node held the full DLL set."""
        return max(self.per_node_done_s)

    def ready(self, node_index: int, path: str) -> float | None:
        """Availability time of ``path`` on ``node_index`` (None if unstaged)."""
        if 0 <= node_index < len(self.landed):
            return self.landed[node_index].get(path)
        return None

    def router_for(self, node_index: int) -> "NodeRouter":
        """An :class:`ObjectRouter` bound to one node of this plan."""
        from repro.dist.router import NodeRouter

        return NodeRouter(self, node_index)


class RelayDaemon(SteppedProgram):
    """One node's staging daemon: read or receive, land, relay.

    :meth:`steps` is the whole daemon.  A source reader runs it as a
    scheduler task, yielding after each source read and each relayed
    chunk so the readers' requests reach the shared file system in
    virtual-time order.  A relay runs it to completion with
    :func:`~repro.machine.scheduler.drain` once its parent has finished:
    by then :attr:`stream` holds every chunk the parent sent it.
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
        #: Every daemon of a pass shares these two tuples.
        self.images = tuple(images)
        #: Same files, possibly re-pointed at the staging source (PFS
        #: mirrors share the originals' paths, hence their cache pages).
        self.read_images = tuple(read_images)
        self.reads_source = reads_source
        self.egress_bandwidth_bps = egress_bandwidth_bps
        self.network_latency_s = network_latency_s
        self.pipelined = pipelined
        self.spawn_s = spawn_s
        self.chunk_bytes = chunk_bytes
        #: ``(arrival_s, chunk)`` for every chunk the parent sent here,
        #: in send order, which is also arrival order.
        self.stream: list[tuple[float, RelayChunk]] = []
        #: The parent's index in ``DistributionOverlay.daemons`` (None
        #: for a source reader).  An index, not the daemon: the tree is
        #: held one way only, so a finished pass has no reference cycle
        #: and falls to reference counting.
        self.parent_index: "int | None" = None
        self.children: list["RelayDaemon"] = []
        #: Paths whose images the node's cache held before staging began
        #: (set by the overlay) — served to the subtree, never awaited.
        self.warm_paths: frozenset[str] = frozenset()
        #: path -> seconds the image became available on this node.
        self.landed: dict[str, float] = {}
        #: path -> bytes received of an image still in flight; crash
        #: recovery resumes from it.  A landed image leaves it, so a
        #: finished pass holds no per-image counts.
        self._received_bytes: dict[str, int] = {}
        self._egress = ReservationTimeline()
        self.relay_sends = 0
        self.source_reads = 0
        # -- fault injection state (inert on a fault-free pass) -------
        #: Scheduled crash for this daemon, if any.
        self.crash = crash
        #: Whether any fault is active on the overlay: a relay whose
        #: stream ends short keeps its partial set (to be recovered
        #: post-run) instead of raising.
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

    def now(self) -> float:
        """The scheduler key of a source reader: its clock."""
        return self.node.clock.seconds

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
                self._receive_stream()
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
        this daemon is a secondary source, not a waiting receiver."""
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

    def _receive_stream(self) -> None:
        """Land the parent's whole chunk stream in arrival order; under
        cut-through, forward each chunk to the cold children as it lands.

        This loop runs once per received chunk across the whole overlay
        — the engine's single hottest path — so the clock arithmetic and
        the forward are inlined rather than calling
        ``SimClock.advance_to_seconds`` / ``_send_chunk``.  Every
        expression matches those methods' float arithmetic exactly, and
        the egress horizon is kept in a local: only this loop books the
        link while it runs.
        """
        if self.parent_index is None:
            raise DistributionError(
                f"relay daemon {self.index} has no parent and no source"
            )
        # Warm images were landed before this loop; the parent sent only
        # the cold remainder.
        landed, n_images = self.landed, len(self.images)
        received_bytes = self._received_bytes
        clock = self.node.clock
        frequency = float(clock.frequency_hz)
        ceil = math.ceil
        install = self.node.buffer_cache.install
        forward = self.pipelined and self.children
        targets = [
            (child.warm_paths, child.stream.append) for child in self.children
        ]
        latency = self.network_latency_s
        bandwidth = self.egress_bandwidth_bps
        book = self._egress.book
        horizon = self._egress.horizon_s
        crash = self.crash
        loss_p = self.loss_probability
        loss_rng = self.loss_rng
        backoff = self.retry_backoff_s
        sends = 0
        for arrival, chunk in self.stream:
            cycles = ceil(arrival * frequency)
            if cycles > clock.cycles:
                clock.cycles = cycles
            image = chunk.image
            size = chunk.size
            install(image, chunk.offset, size)
            path = image.path
            received = received_bytes.pop(path, 0) + size
            if received >= image.size_bytes:
                landed[path] = clock.cycles / frequency
            else:
                received_bytes[path] = received
            if crash is not None:
                self._landed_bytes += size
                if self._crash_due():
                    # The crossing chunk landed; nothing is forwarded
                    # past the crash.
                    self._die()
                    break
            if forward:
                # Cut-through: forward the chunk before the rest of the
                # image has even arrived.
                now_s = clock.cycles / frequency
                base_service = latency + size / bandwidth
                for warm_paths, send in targets:
                    if path in warm_paths:
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
                    begin = now_s if now_s >= horizon else horizon
                    book(begin, service)
                    horizon = begin + service
                    send((horizon, chunk))
                    sends += 1
        self.relay_sends += sends
        if len(landed) < n_images and not self.fault_tolerant:
            raise DistributionError(
                f"node {self.index} still waits for "
                f"{n_images - len(landed)} images but the stream from "
                f"its parent {self.parent_index} has ended"
            )

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
        """Book one chunk transfer on this node's egress link and append
        it to ``child``'s stream.

        The link's one booker never goes back in time, so the earliest
        free window is always at the tail: ``max(now, horizon)``.
        ``synchronous`` (store-and-forward) rides the daemon's clock on
        the link — the next send cannot start earlier; asynchronous
        (cut-through) sends only book the link, letting the NIC drain
        while the daemon keeps receiving.
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
        now = self.node.clock.seconds
        horizon = self._egress.horizon_s
        begin = now if now >= horizon else horizon
        self._egress.book(begin, service)
        end = begin + service
        if synchronous:
            self.node.clock.advance_to_seconds(end)
        child.stream.append((end, chunk))
        self.relay_sends += 1


class DistributionOverlay:
    """Builds the daemon tree for a cluster and runs one staging pass."""

    def __init__(
        self,
        spec: DistributionSpec,
        cluster: Cluster,
        network: NetworkModel | None = None,
        straggler_nodes: Iterable[int] = (),
        straggler_slowdown: float = 1.0,
        faults: "FaultSpec | None" = None,
    ) -> None:
        if straggler_slowdown < 1.0:
            raise ConfigError(
                f"straggler slowdown must be >= 1, got {straggler_slowdown}"
            )
        self.spec = spec
        self.cluster = cluster
        self.network = network or NetworkModel()
        self.straggler_nodes = frozenset(straggler_nodes)
        self.straggler_slowdown = straggler_slowdown
        self.faults = faults
        self.daemons: list[RelayDaemon] = []

    # ------------------------------------------------------------------
    def _egress_bandwidth(self, index: int) -> float:
        """Egress link rate for node ``index``'s relay daemon."""
        bandwidth = self.network.bandwidth_bps * self.spec.relay_bandwidth_share
        if index in self.spec.straggler_relay_nodes:
            bandwidth /= self.spec.straggler_relay_slowdown
        if index in self.straggler_nodes:
            bandwidth /= self.straggler_slowdown
        if self.faults is not None:
            link = self.faults.link_for(index)
            if link is not None:
                bandwidth *= link.bandwidth_factor
        return bandwidth

    def _source_images(
        self, images: tuple[FileImage, ...]
    ) -> tuple[FileImage, ...]:
        """The images as read from the staging source.

        For ``source="pfs"`` the DLL set is assumed pre-staged on the
        parallel file system: daemons read path-identical mirrors whose
        pages land under the originals' cache keys.
        """
        if self.spec.source == "nfs":
            return images
        return tuple(
            FileImage(
                path=image.path,
                size_bytes=image.size_bytes,
                filesystem=self.cluster.pfs,
            )
            for image in images
        )

    # The pass allocates a cache run and a stream entry per chunk and
    # leaves no cycle behind: see ``paused_gc``.
    @paused_gc()
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
        images = tuple(images)
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
        # An empty cache holds exactly the zero-byte images, which
        # ``contains`` reports resident.
        empty_warm = frozenset(
            image.path for image in images if not image.size_bytes
        )
        for daemon in self.daemons:
            cache = daemon.node.buffer_cache
            daemon.warm_paths = (
                frozenset(
                    image.path for image in images if cache.contains(image)
                )
                if cache.resident_bytes()
                else empty_warm
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
                child.parent_index = parent_index
                parent.children.append(child)
        # Only the source readers contend on a shared timeline.  Each
        # relay then lands its parent's finished stream, parents first.
        EventScheduler().run(
            [
                RankTask(daemon.index, daemon.steps(), now=daemon.now)
                for daemon in self.daemons
                if daemon.reads_source
            ]
        )
        for daemon in self.daemons:
            if not daemon.reads_source:
                drain(daemon.steps())
                daemon.stream = []
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
            landed = daemon.landed
            if len(landed) != len(images):
                raise DistributionError(
                    f"node {daemon.index} landed {len(landed)} of "
                    f"{len(images)} images"
                )
            per_node_done.append(max(landed.values()))
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
