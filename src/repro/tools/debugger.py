"""A TotalView-like parallel debugger: the Table IV experiment.

Startup has two phases (Section IV.B):

1. "the time for the debugger to launch a parallel job and attach to all
   the tasks at their program startup ... includes the time for the tool
   to update the link maps and the symbol tables of the parallel
   processes for all pre-linked dynamic libraries" — dominated by reading
   and parsing every pre-linked DLL's debug/symtab/strtab sections, once
   per *node* when link maps are homogeneous (per *task* when address
   randomization defeats sharing), through each node's disk buffer cache;

2. "the tool's ability to handle dynamic loading events generated by
   initial Python import calls" — per-event, per-task processing with no
   file IO (the files were parsed in phase 1), which is why the paper's
   warm run barely improves phase 2 (3:35 -> 3:34) while phase 1 speeds
   up ~4x.

Cold vs. warm is literally the state of the nodes' buffer caches: the
first invocation pulls every DLL over NFS; the second hits the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.builds import BuildImage
from repro.core.job import percentile
from repro.elf.image import SharedObject
from repro.elf.sections import TOOL_SECTIONS
from repro.errors import ToolError
from repro.fs.files import FileImage
from repro.machine.cluster import Cluster
from repro.machine.node import Node, TimedReadNode
from repro.machine.osprofile import OsProfile, linux_chaos
from repro.machine.scheduler import EventScheduler, RankTask, SteppedProgram
from repro.rng import SeededRng
from repro.scenario.spec import ScenarioSpec
from repro.tools.ptrace import PtraceInterface, TracedTask


@dataclass(frozen=True)
class ToolCostModel:
    """Tool-side cost constants (separate from the machine CostModel)."""

    #: Instructions to parse one byte of debug/symtab/strtab data.
    parse_instructions_per_byte: int = 120
    #: Front-end instructions to mirror one object into one task's
    #: link-map representation.
    per_object_per_task_instructions: int = 150_000
    #: Instructions to process one dynamic-load event for one task
    #: (stop, read rendezvous, update, resume) — the paper's T1.
    event_per_task_instructions: int = 50_000_000
    #: Debug-server launch + attach instructions per task.
    attach_per_task_instructions: int = 6_000_000
    #: Breakpoints planted before startup (for AIX-style reinsertion).
    initial_breakpoints: int = 0


@dataclass(frozen=True)
class DebuggerStartup:
    """Table IV's measurements for one invocation."""

    phase1_s: float
    phase2_s: float
    cold: bool
    n_tasks: int
    n_prelinked: int
    n_events: int

    @property
    def total_s(self) -> float:
        """Total startup time."""
        return self.phase1_s + self.phase2_s


@dataclass(frozen=True)
class MultirankDebuggerStartup(DebuggerStartup):
    """Table IV plus the per-daemon distribution the analytic mode hides.

    ``per_daemon_s`` holds each per-node debug server's phase-1 IO+parse
    seconds as measured on its own virtual clock while all daemons
    contend on the shared NFS server's timed queue.
    """

    per_daemon_s: tuple[float, ...]

    @property
    def daemon_p50(self) -> float:
        """Median per-daemon IO+parse time."""
        return percentile(list(self.per_daemon_s), 50)

    @property
    def daemon_p95(self) -> float:
        """95th-percentile per-daemon IO+parse time."""
        return percentile(list(self.per_daemon_s), 95)

    @property
    def daemon_max(self) -> float:
        """Slowest daemon's IO+parse time (what gates phase 1)."""
        return max(self.per_daemon_s)

    @property
    def daemon_skew_s(self) -> float:
        """Inter-daemon skew: slowest minus fastest debug server."""
        return max(self.per_daemon_s) - min(self.per_daemon_s)


class _DebugServerDaemon(SteppedProgram):
    """One node's debug server as a stepped program.

    Each step reads and parses one pre-linked DLL's debug/symtab/strtab
    sections through the node's buffer cache, with misses contending on
    the shared file system's timed queue at the daemon's virtual time.
    """

    def __init__(
        self,
        debugger: "ParallelDebugger",
        node: TimedReadNode,
        prelinked: list[SharedObject],
        parse_multiplier: int,
        jitter_s: float,
    ) -> None:
        self.debugger = debugger
        self.node = node
        self.prelinked = prelinked
        self.parse_multiplier = parse_multiplier
        self.jitter_s = jitter_s
        self.objects_processed = 0

    @property
    def now(self) -> float:
        """The daemon's current virtual time."""
        return self.node.clock.seconds

    def steps(self) -> Generator[None, None, None]:
        costs = self.debugger.costs
        frequency = float(self.node.costs.frequency_hz)
        if self.jitter_s > 0.0:
            self.node.clock.add_seconds(self.jitter_s)
            yield
        for shared in self.prelinked:
            image, extents = self.debugger._tool_section_extents(shared)
            read_bytes = 0
            for offset, size in extents:
                self.node.read_file(image, offset, size)
                read_bytes += size
            self.node.clock.add_seconds(
                self.parse_multiplier
                * read_bytes
                * costs.parse_instructions_per_byte
                / frequency
            )
            self.objects_processed += 1
            yield


class ParallelDebugger:
    """Attaches to an N-task pyMPI job and survives its import storm."""

    def __init__(
        self,
        cluster: Cluster,
        n_tasks: int,
        costs: ToolCostModel | None = None,
        os_profile: OsProfile | None = None,
    ) -> None:
        if n_tasks < 1:
            raise ToolError("need at least one task to debug")
        self.cluster = cluster
        self.n_tasks = n_tasks
        self.costs = costs or ToolCostModel()
        self.os_profile = os_profile or linux_chaos()
        self.ptrace = PtraceInterface(self.os_profile)
        self.tasks: list[TracedTask] = []

    # ------------------------------------------------------------------
    def startup(self, build: BuildImage, cold: bool = True) -> DebuggerStartup:
        """Run the two-phase startup against a build; returns the times.

        ``cold=True`` drops every node's buffer cache first (the paper's
        "Cold Startup"); run again with ``cold=False`` for the warm one.
        """
        if cold:
            self.cluster.drop_buffer_caches()
        nodes = self.cluster.nodes_for_job(self.n_tasks)
        self.cluster.nfs.set_concurrency(len(nodes))
        prelinked = self._prelinked_objects(build)
        dynamic = self._dynamic_event_objects(build)
        phase1_s = self._phase1(build, nodes, prelinked)
        phase2_s = self._phase2(dynamic)
        self.cluster.nfs.set_concurrency(1)
        return DebuggerStartup(
            phase1_s=phase1_s,
            phase2_s=phase2_s,
            cold=cold,
            n_tasks=self.n_tasks,
            n_prelinked=len(prelinked),
            n_events=len(dynamic) * self.n_tasks,
        )

    # ------------------------------------------------------------------
    def startup_multirank(
        self,
        build: BuildImage,
        cold: bool = True,
        scenario: ScenarioSpec | None = None,
        seed: int = 0,
    ) -> MultirankDebuggerStartup:
        """Two-phase startup with one stepped debug server per node.

        The per-node daemons run as :class:`RankTask`s on the
        :class:`EventScheduler`, one step per pre-linked DLL, each
        contending on the shared NFS server's timed queue for its
        DWARF/symtab/strtab reads — so cold-startup queueing skew between
        debug servers *emerges* instead of every node being charged the
        same closed-form maximum.  On a homogeneous warm cluster every
        daemon sees only buffer-cache hits and the totals equal
        :meth:`startup`'s analytic ones.

        ``scenario`` is a :class:`ScenarioSpec` whose heterogeneity
        knobs (stragglers, jitter, per-node OS profiles) the daemons
        run; ``seed`` feeds the deterministic jitter draws.
        """
        if cold:
            self.cluster.drop_buffer_caches()
        nodes = self.cluster.nodes_for_job(self.n_tasks)
        scenario = scenario or ScenarioSpec()
        scenario.validate_node_indices(len(nodes))
        self.cluster.nfs.reset_queue()
        self.cluster.pfs.reset_queue()
        prelinked = self._prelinked_objects(build)
        dynamic = self._dynamic_event_objects(build)
        tasks_per_node = -(-self.n_tasks // len(nodes))
        rng = SeededRng(seed)
        daemons: list[_DebugServerDaemon] = []
        rank_tasks: list[RankTask] = []
        for index, home in enumerate(nodes):
            costs = scenario.node_costs(index, home.costs)
            profile = scenario.node_profile(index, self.os_profile)
            jitter_s = 0.0
            if scenario.os_jitter_s > 0.0:
                jitter_s = rng.fork(f"daemon{index}:jitter").uniform(
                    0.0, scenario.os_jitter_s
                )
            daemon = _DebugServerDaemon(
                self,
                TimedReadNode(
                    name=f"{home.name}:dbgserver",
                    costs=costs,
                    buffer_cache=home.buffer_cache,
                    cores=1,
                ),
                prelinked,
                parse_multiplier=(
                    tasks_per_node if profile.randomize_load_addresses else 1
                ),
                jitter_s=jitter_s,
            )
            daemons.append(daemon)
            rank_tasks.append(
                RankTask.from_program(
                    index, daemon, now=lambda d=daemon: d.now
                )
            )
        EventScheduler().run(rank_tasks)
        per_daemon_s = tuple(daemon.now for daemon in daemons)
        io_parse_s = max(per_daemon_s) if per_daemon_s else 0.0
        attach_s = self._attach_all()
        phase1_s = io_parse_s + attach_s + self._mirror_seconds(len(prelinked))
        phase2_s = self._phase2(dynamic)
        return MultirankDebuggerStartup(
            phase1_s=phase1_s,
            phase2_s=phase2_s,
            cold=cold,
            n_tasks=self.n_tasks,
            n_prelinked=len(prelinked),
            n_events=len(dynamic) * self.n_tasks,
            per_daemon_s=per_daemon_s,
        )

    # ------------------------------------------------------------------
    def _phase1(
        self,
        build: BuildImage,
        nodes: list[Node],
        prelinked: list[SharedObject],
    ) -> float:
        """Launch + attach + process all pre-linked libraries."""
        costs = self.costs
        frequency = float(self.cluster.costs.frequency_hz)
        # Per-node debug servers read and parse the DLLs concurrently.
        per_node_seconds: list[float] = []
        tasks_per_node = -(-self.n_tasks // len(nodes))
        for node in nodes:
            seconds = 0.0
            # Parse results are shared across a node's tasks only when
            # the link maps are homogeneous; exec-shield-style address
            # randomization defeats that (Section II.B.2).
            parse_multiplier = (
                tasks_per_node
                if self.os_profile.randomize_load_addresses
                else 1
            )
            for shared in prelinked:
                image, extents = self._tool_section_extents(shared)
                read_bytes = 0
                for offset, size in extents:
                    seconds += node.buffer_cache.read(image, offset, size)
                    read_bytes += size
                seconds += (
                    parse_multiplier
                    * read_bytes
                    * costs.parse_instructions_per_byte
                    / frequency
                )
            per_node_seconds.append(seconds)
        io_parse_s = max(per_node_seconds) if per_node_seconds else 0.0
        attach_s = self._attach_all()
        return io_parse_s + attach_s + self._mirror_seconds(len(prelinked))

    def _attach_all(self) -> float:
        """Attach every task (front-end serial); returns the seconds."""
        costs = self.costs
        frequency = float(self.cluster.costs.frequency_hz)
        self.tasks = []
        attach_s = 0.0
        for _rank in range(self.n_tasks):
            node = self.cluster.node_for_rank(_rank, self.n_tasks)
            process = node.spawn(profile=self.os_profile)
            task = TracedTask(process=process)
            self.ptrace.attach(task)
            for _ in range(costs.initial_breakpoints):
                self.ptrace.set_breakpoint(
                    task, 0x400000 + 0x1000 * (len(task.breakpoints) + 1)
                )
            self.tasks.append(task)
            attach_s += costs.attach_per_task_instructions / frequency
            attach_s += task.control_seconds
        return attach_s

    def _mirror_seconds(self, n_prelinked: int) -> float:
        """Front-end serial link-map mirroring time for all tasks."""
        return (
            n_prelinked
            * self.n_tasks
            * self.costs.per_object_per_task_instructions
            / float(self.cluster.costs.frequency_hz)
        )

    def _tool_section_extents(
        self, shared: SharedObject
    ) -> tuple[FileImage, list[tuple[int, int]]]:
        """The (offset, size) file extents a debugger reads for one DSO."""
        image = shared.file_image
        if image is None:
            raise ToolError(f"{shared.soname} has no published file")
        extents = []
        for kind in TOOL_SECTIONS:
            extent = image.extents.get(kind.value)
            if extent is not None:
                extents.append(extent)
        return image, extents

    def _phase2(self, dynamic: list[SharedObject]) -> float:
        """Handle the import storm: one load event per module per task."""
        costs = self.costs
        frequency = float(self.cluster.costs.frequency_hz)
        seconds = 0.0
        for _shared in dynamic:
            for task in self.tasks:
                seconds += self.ptrace.handle_load_event(task)
                seconds += costs.event_per_task_instructions / frequency
        return seconds

    # ------------------------------------------------------------------
    @staticmethod
    def _prelinked_objects(build: BuildImage) -> list[SharedObject]:
        """Objects mapped at program startup (exe's DT_NEEDED closure)."""
        registry = build.registry
        closure: list[SharedObject] = []
        seen: set[str] = set()
        queue = [build.executable.soname]
        while queue:
            soname = queue.pop(0)
            if soname in seen:
                continue
            seen.add(soname)
            shared = registry.get(soname)
            if shared is None:
                raise ToolError(f"unknown object {soname!r} in DT_NEEDED")
            closure.append(shared)
            queue.extend(shared.needed)
        return closure

    @staticmethod
    def _dynamic_event_objects(build: BuildImage) -> list[SharedObject]:
        """The objects whose import produces tool-visible load events.

        Every module import calls dlopen and trips the linker's debug
        rendezvous — whether or not the DSO was pre-linked (TotalView
        still processes the notification and re-verifies its state).
        """
        return list(build.module_objects.values())
