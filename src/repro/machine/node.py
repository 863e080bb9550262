"""Compute nodes and processes.

A :class:`Node` bundles the per-node hardware state: a cycle clock, a
cache hierarchy and a disk buffer cache shared by every process (and every
debug server) running on the node.  A :class:`Process` owns an address
space and environment; the dynamic linker attaches its link map to it.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.cache.hierarchy import CacheHierarchy
from repro.fs.buffercache import BufferCache
from repro.fs.files import FileImage
from repro.machine.clock import SimClock
from repro.machine.costs import CostModel
from repro.machine.osprofile import OsProfile, linux_chaos
from repro.machine.paging import AddressSpace
from repro.rng import SeededRng

_pid_counter = itertools.count(1000)


class Node:
    """One compute node: clock + caches + buffer cache."""

    def __init__(
        self,
        name: str = "node0",
        costs: CostModel | None = None,
        hierarchy: CacheHierarchy | None = None,
        buffer_cache: BufferCache | None = None,
        cores: int = 8,
    ) -> None:
        self.name = name
        self.costs = costs or CostModel()
        # Built lazily: allocating the per-set tag lists dominates node
        # construction, and most nodes of a >1k-node cluster (overlay
        # relay daemons, never-simulated peers) never execute a single
        # modelled instruction.
        self._hierarchy = hierarchy
        self.buffer_cache = buffer_cache or BufferCache(
            page_bytes=self.costs.page_bytes
        )
        self.clock = SimClock(self.costs.frequency_hz)
        self.cores = cores
        self.processes: list[Process] = []

    @property
    def hierarchy(self) -> CacheHierarchy:
        """The node's CPU cache hierarchy, created on first use."""
        if self._hierarchy is None:
            self._hierarchy = CacheHierarchy(
                l2_hit_penalty=self.costs.l2_hit_penalty,
                memory_penalty=self.costs.memory_penalty,
            )
        return self._hierarchy

    @property
    def seconds(self) -> float:
        """Current simulated node time."""
        return self.clock.seconds

    def read_file(self, image: FileImage, offset: int = 0, size: int | None = None) -> float:
        """Read a file range through the buffer cache; advance the clock.

        Returns the seconds the read took.
        """
        seconds = self.buffer_cache.read(image, offset, size)
        self.clock.add_seconds(seconds)
        return seconds

    def cache_contains(self, image: FileImage, offset: int, size: int) -> bool:
        """True if the byte range already sits in the node's page cache.

        One of the three queries a rank's compute asks of the world
        outside it (with :meth:`read_file` and :meth:`wait_staged`);
        :mod:`repro.core.ranktrace` records and replays exactly these.
        """
        return self.buffer_cache.contains(image, offset, size)

    def wait_staged(self, router: "Any", path: str) -> float | None:
        """Block until ``router`` reports ``path`` locally available.

        Returns the router's answer (``None`` for an unrouted path); a
        nonzero wait advances the clock.
        """
        wait = router.wait_seconds(path, self.clock.seconds)
        if wait:
            self.clock.add_seconds(wait)
        return wait

    def spawn(
        self,
        profile: OsProfile | None = None,
        env: dict[str, str] | None = None,
        rng: SeededRng | None = None,
    ) -> "Process":
        """Create a process on this node."""
        process = Process(
            node=self,
            profile=profile or linux_chaos(),
            env=dict(env or {}),
            rng=rng,
        )
        self.processes.append(process)
        return process

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name}, t={self.seconds:.3f}s)"


class TimedReadNode(Node):
    """A node whose file reads contend on the shared timed FS queues.

    Used for every entity with a private virtual clock that the
    stepped-execution layer interleaves — simulated MPI ranks, debugger
    daemons.  It shares its home node's disk buffer cache, and cache
    misses route through the backing file system's timed reservation
    queue (``request_at``) at this clock's current virtual time, so
    concurrent readers' requests contend instead of being charged the
    analytic closed form.
    """

    def read_file(
        self, image: FileImage, offset: int = 0, size: int | None = None
    ) -> float:
        def fetch(n_bytes: int, n_ops: int) -> float:
            request_at = getattr(image.filesystem, "request_at", None)
            if request_at is None:
                return image.filesystem.read_seconds(n_bytes, n_ops)
            now = self.clock.seconds
            return request_at(now, n_bytes, n_ops) - now

        seconds = self.buffer_cache.read_with(image, offset, size, fetch)
        self.clock.add_seconds(seconds)
        return seconds


class Process:
    """A simulated process: address space, environment, link map slot."""

    def __init__(
        self,
        node: Node,
        profile: OsProfile,
        env: dict[str, str],
        rng: SeededRng | None = None,
    ) -> None:
        self.pid = next(_pid_counter)
        self.node = node
        self.profile = profile
        self.env = env
        self.address_space = AddressSpace(profile=profile, rng=rng)
        #: Set by the dynamic linker at program startup.
        self.link_map: Any = None
        #: Wall-clock (node seconds) when exec began — the paper measures
        #: startup as "time between program invocation and the first line
        #: of code" via a command-line timestamp.
        self.invoked_at: float = node.seconds

    def getenv(self, name: str, default: str | None = None) -> str | None:
        """Environment lookup (e.g. LD_BIND_NOW)."""
        return self.env.get(name, default)

    @property
    def bind_now(self) -> bool:
        """True if LD_BIND_NOW forces eager PLT binding (Table I row 3)."""
        value = self.env.get("LD_BIND_NOW", "")
        return value not in ("", "0")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(pid={self.pid}, node={self.node.name})"
