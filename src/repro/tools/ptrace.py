"""A ptrace-style process-control interface.

"tools like the TotalView parallel debugger or the Dyninst dynamic
instrumentation library must be notified of every dynamic linking and
loading event so that they can update their internal process
representations" (Section II.B.3).  This module models that interface:
attach/stop/continue round trips, breakpoint insertion, and load-event
handling — including the AIX pre-4.3.2 requirement that a client
"reinsert all existing breakpoints on each load or unload event".

Costs are charged in *tool-side instructions* plus a per-round-trip
syscall latency, accumulated on a :class:`TracedTask` so a debugger can
aggregate them across tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PtraceError
from repro.machine.node import Process
from repro.machine.osprofile import OsProfile
from repro.tools.breakpoints import BreakpointTable


@dataclass
class TracedTask:
    """One attached MPI task from the tool's point of view."""

    process: Process
    attached: bool = False
    stopped: bool = False
    breakpoints: BreakpointTable = field(default_factory=BreakpointTable)
    #: Accumulated tool-side seconds spent controlling this task.
    control_seconds: float = 0.0
    load_events_handled: int = 0


class PtraceInterface:
    """The OS's process-control interface, parameterized by profile."""

    #: Seconds per ptrace round trip (stop, peek/poke, continue).
    ROUND_TRIP_S = 0.0002
    #: Seconds to write one breakpoint trap into the inferior.
    BREAKPOINT_POKE_S = 0.0001

    def __init__(self, profile: OsProfile) -> None:
        self.profile = profile
        self.round_trips = 0

    def _charge(self, task: TracedTask, seconds: float) -> None:
        task.control_seconds += seconds
        self.round_trips += 1

    def attach(self, task: TracedTask) -> None:
        """PTRACE_ATTACH: stop the task and take control."""
        if task.attached:
            raise PtraceError("task is already attached")
        task.attached = True
        task.stopped = True
        self._charge(task, self.ROUND_TRIP_S)

    def detach(self, task: TracedTask) -> None:
        """PTRACE_DETACH."""
        self._require_attached(task)
        task.attached = False
        task.stopped = False
        self._charge(task, self.ROUND_TRIP_S)

    def stop(self, task: TracedTask) -> None:
        """Signal-stop a running task."""
        self._require_attached(task)
        if not task.stopped:
            task.stopped = True
            self._charge(task, self.ROUND_TRIP_S)

    def cont(self, task: TracedTask) -> None:
        """PTRACE_CONT."""
        self._require_attached(task)
        if not task.stopped:
            raise PtraceError("cannot continue a running task")
        task.stopped = False
        self._charge(task, self.ROUND_TRIP_S)

    def set_breakpoint(self, task: TracedTask, address: int) -> None:
        """Plant a breakpoint (task must be stopped)."""
        self._require_stopped(task)
        task.breakpoints.insert(address)
        self._charge(task, self.BREAKPOINT_POKE_S)

    def handle_load_event(self, task: TracedTask) -> float:
        """Process one dynamic-load event on a task.

        The task stops at the linker's debug rendezvous; the tool reads
        the updated link map.  On an AIX-style profile the tool must then
        reinsert every existing breakpoint (the ``B x T2`` penalty of
        Section II.B.3).  Returns the tool-side seconds this event cost.
        """
        self._require_attached(task)
        before = task.control_seconds
        was_running = not task.stopped
        if was_running:
            self.stop(task)
        # Read the rendezvous structure + updated link map head.
        self._charge(task, self.ROUND_TRIP_S)
        if self.profile.ptrace_reinsert_breakpoints:
            for _address in task.breakpoints.addresses():
                self._charge(task, self.BREAKPOINT_POKE_S)
        if was_running:
            self.cont(task)
        task.load_events_handled += 1
        return task.control_seconds - before

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _require_attached(task: TracedTask) -> None:
        if not task.attached:
            raise PtraceError("task is not attached")

    def _require_stopped(self, task: TracedTask) -> None:
        self._require_attached(task)
        if not task.stopped:
            raise PtraceError("task must be stopped for this operation")
