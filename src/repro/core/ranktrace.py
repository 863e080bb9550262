"""Shared compute traces: identical cold ranks replay one recorded rank.

Every rank of a Pynamic job loads and runs the same DLL set.  At cold
start the only thing that differs between ranks is how long the shared
file system makes each one wait.  A rank's compute (the memory model,
the resolver, the linker and the driver) reaches outside the rank
through three :class:`~repro.machine.node.Node` queries only:

- ``read_file(image, offset, size)``: a timed read through the node's
  buffer cache, which books NFS/PFS on a miss;
- ``cache_contains(image, offset, nbytes)``: whether a major fault's
  range already sits in the page cache;
- ``wait_staged(router, path)``: the distribution overlay's wait.

Given the ``contains`` answers, compute is deterministic, and read
durations and staging waits only ever advance the rank's clock.  So the
first rank of a :class:`TraceStore` key, the *leader*, runs live on a
:class:`TracedNode` and records a trace, a list of events: every query
with the cycles the compute added since the previous one, the phase marks,
the tail cycles at each step boundary, and at the end the rank outputs
that do not depend on the clock.  :class:`~repro.machine.clock.SimClock`
counts integer cycles and every charge is rounded before it is added,
so the recorded deltas sum exactly.

Every later rank with the key, a :class:`Follower`, replays the
trace.  It adds the recorded cycles and issues the same queries live
at its own clock: they book the file system, touch the buffer-cache LRU
and wait on the router.  It checks each ``contains`` answer against the
trace.  A follower whose answer differs, or that needs a step the
leader has not recorded yet, *rebuilds*: it re-runs its own program
from the start against its own log of answers, read durations and
waits, touching no shared state, and runs live from the diverging
query on.  Compute is deterministic given the answers, so a rebuilt rank is bit-identical to
one that ran live throughout.  Its cost is at most twice one live rank.

None of this adds work on the per-access or per-lookup path: the
queries sit on the page-fault and object-mapping paths.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Generator, Hashable

from repro.core.driver import DriverReport, PynamicDriver
from repro.errors import DriverError
from repro.fs.buffercache import BufferCache
from repro.fs.files import FileImage
from repro.machine.context import ClockContext
from repro.machine.costs import CostModel
from repro.machine.node import TimedReadNode
from repro.machine.osprofile import OsProfile
from repro.perf.timers import PhaseTimer

#: Event kinds.  Every event is a tuple ``(kind, cycles, ...)`` whose
#: second field is the cycles the compute added since the previous one.
READ, CONTAINS, WAIT, MARK, YIELD, END = range(6)


def trace_key(
    costs: CostModel, profile: OsProfile, routed: bool, warm: bool
) -> "Hashable | None":
    """What a rank's compute depends on besides its build, or ``None``.

    The node's costs and OS profile shape every charge; ``routed`` says
    whether the rank asks a staging router; ``warm`` whether its node's
    cache was pre-warmed (it would diverge from a cold trace at its
    first fault).  Randomized load addresses make every rank's layout
    its own, so such ranks never share a trace.
    """
    if profile.randomize_load_addresses:
        return None
    return (costs, profile, routed, warm)


class TraceStore:
    """The recorded traces of one build, by :func:`trace_key`.

    A trace is the list of events its leader appends while it runs.
    Scope a store to one run (one job, or the jobs of one workload run
    that share a build): its traces hold the build's file images.
    """

    def __init__(self) -> None:
        self._traces: dict[Hashable, list[tuple]] = {}

    def get(self, key: Hashable) -> list[tuple] | None:
        """The trace recorded under ``key``, if a leader claimed it."""
        return self._traces.get(key)

    def claim(self, key: Hashable) -> list[tuple]:
        """Start the trace for ``key``; its caller is the leader."""
        if key in self._traces:
            raise DriverError(f"trace {key!r} already has a leader")
        trace = self._traces[key] = []
        return trace

    def __len__(self) -> int:
        return len(self._traces)


class TracedNode(TimedReadNode):
    """A rank node that records its queries or answers them from a log.

    - With ``trace`` set (a leader), queries run live and are appended
      to it.
    - During a rebuild (:meth:`serve_log`), queries are answered from
      the rank's own log without touching the buffer cache, the file
      system or the router.  Once the log runs out, the node is live.
    - Otherwise it is a plain :class:`TimedReadNode`.
    """

    def __init__(
        self, name: str, costs: CostModel, buffer_cache: BufferCache
    ) -> None:
        super().__init__(
            name=name, costs=costs, buffer_cache=buffer_cache, cores=1
        )
        self.trace: list[tuple] | None = None
        #: Clock cycles at the end of the last recorded event.
        self.mark = 0
        self._log: "array[float] | None" = None
        self._position = 0
        self._last_query_cycles = 0

    @property
    def serving_log(self) -> bool:
        """True while a rebuild answers queries from its log."""
        return self._log is not None

    # -- the three queries ----------------------------------------------
    def read_file(
        self, image: FileImage, offset: int = 0, size: int | None = None
    ) -> float:
        if self._log is not None:
            seconds = self._logged()
            self.clock.add_seconds(seconds)
            return seconds
        cycles = self.clock.cycles
        seconds = super().read_file(image, offset, size)
        if self.trace is not None:
            self.trace.append(
                (READ, cycles - self.mark, image, offset, size)
            )
            self.mark = self.clock.cycles
        return seconds

    def cache_contains(self, image: FileImage, offset: int, size: int) -> bool:
        if self._log is not None:
            return bool(self._logged())
        answer = super().cache_contains(image, offset, size)
        if self.trace is not None:
            cycles = self.clock.cycles
            self.trace.append(
                (CONTAINS, cycles - self.mark, image, offset, size, answer)
            )
            self.mark = cycles
        return answer

    def wait_staged(self, router: Any, path: str) -> float | None:
        if self._log is not None:
            wait = self._logged()
            if wait:
                self.clock.add_seconds(wait)
            return wait
        cycles = self.clock.cycles
        wait = super().wait_staged(router, path)
        if self.trace is not None:
            self.trace.append((WAIT, cycles - self.mark, path))
            self.mark = self.clock.cycles
        return wait

    # -- program boundaries ---------------------------------------------
    def record(self, kind: int, payload: object = None) -> None:
        """Append a ``MARK``, ``YIELD`` or ``END`` event when recording."""
        if self.trace is not None:
            cycles = self.clock.cycles
            if kind == YIELD:
                self.trace.append((YIELD, cycles - self.mark))
            else:
                self.trace.append((kind, cycles - self.mark, payload))
            self.mark = cycles

    def record_mark(self, label: str) -> None:
        """Record a driver phase mark (see :meth:`Follower._apply_mark`)."""
        self.record(MARK, label)

    # -- rebuilds ---------------------------------------------------------
    def serve_log(self, log: "array[float]", last_query_cycles: int) -> None:
        """Answer the next ``len(log)`` queries from ``log``, then go live.

        ``last_query_cycles`` is the clock at the log's last query as
        the follower issued it; a rebuild that reaches that query at any
        other clock has not reproduced the follower, and raises.
        """
        if not log:
            return
        self._log = log
        self._position = 0
        self._last_query_cycles = last_query_cycles

    def _logged(self) -> float:
        log = self._log
        value = log[self._position]  # type: ignore[index]
        self._position += 1
        if self._position == len(log):  # type: ignore[arg-type]
            if self.clock.cycles != self._last_query_cycles:
                raise DriverError(
                    f"{self.name}: rebuild reached its last logged query at "
                    f"cycle {self.clock.cycles}, the follower at "
                    f"{self._last_query_cycles}"
                )
            self._log = None
        return value


def traced(
    steps: Generator[None, None, PynamicDriver], node: TracedNode
) -> Generator[None, None, None]:
    """Run a live rank program on ``node``, recording its step boundaries.

    The program's first step (the launch and its per-rank jitter) is
    never part of a trace; its return value is the rank's driver, whose
    clock-free outputs end the trace.
    """
    next(steps)
    node.mark = node.clock.cycles
    yield
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            node.record(END, stop.value.outputs())
            return
        node.record(YIELD)
        yield


class Follower:
    """A rank that replays a recorded trace against live I/O.

    Until it rebuilds, a follower stands in for the rank's driver:
    :attr:`ctx` is a :class:`ClockContext` for the MPI phase, and
    :meth:`report` assembles the rank's report from its own clock
    readings and the trace's clock-free outputs.  A follower builds no
    cache hierarchy, address space or link map.

    ``launch(ctx)`` charges the rank's launch step.  ``live()`` returns
    the rank's live program on :attr:`node`; a rebuild runs it.
    """

    def __init__(
        self,
        node: TracedNode,
        trace: list[tuple],
        router: Any,
        mode: str,
        launch: Callable[[ClockContext], None],
        live: Callable[[], Generator[None, None, None]],
    ) -> None:
        self.node = node
        self.ctx = ClockContext(node)
        self._trace = trace
        self._router = router
        self._mode = mode
        self._launch = launch
        self._live = live
        self._timer = PhaseTimer(node.clock)
        self._startup_s = 0.0
        self._outputs: dict | None = None
        self.invoked_at = 0.0
        #: True once the rank replayed its whole trace.
        self.replayed = False
        #: True once the rank fell back to a rebuild.
        self.rebuilt = False

    def steps(self) -> Generator[None, None, None]:
        """The rank's steps: replayed while the trace lasts, then live."""
        node = self.node
        clock = node.clock
        start_cycles = clock.cycles
        self.invoked_at = clock.seconds
        self._launch(self.ctx)
        yield
        done = 1  # steps completed, the launch step included
        log: "array[float]" = array("d")
        query_cycles = 0
        router = self._router
        # The leader may still be appending: a list iterator sees that.
        for event in self._trace:
            kind = event[0]
            clock.add_cycles(event[1])
            if kind == READ:
                query_cycles = clock.cycles
                log.append(node.read_file(event[2], event[3], event[4]))
            elif kind == CONTAINS:
                query_cycles = clock.cycles
                answer = node.cache_contains(event[2], event[3], event[4])
                log.append(answer)
                if answer != event[5]:
                    break
            elif kind == WAIT:
                query_cycles = clock.cycles
                log.append(node.wait_staged(router, event[2]) or 0.0)
            elif kind == MARK:
                self._apply_mark(event[2])
            elif kind == YIELD:
                yield
                done += 1
            else:
                self._outputs = event[2]
                self.replayed = True
                return
        # Diverged on an answer, or past what the leader has recorded.
        self.rebuilt = True
        resume_cycles = clock.cycles
        clock.cycles = start_cycles
        node.serve_log(log, query_cycles)
        program = self._live()
        for _ in range(done):
            next(program)
        if not node.serving_log and clock.cycles != resume_cycles:
            raise DriverError(
                f"{node.name}: rebuild ended its step at cycle "
                f"{clock.cycles}, the follower at {resume_cycles}"
            )
        yield from program

    def _apply_mark(self, label: str) -> None:
        """A driver phase mark, read from this rank's own clock."""
        if label == "startup":
            self._startup_s = self.node.clock.seconds - self.invoked_at
        elif label[0] == "+":
            self._timer.start(label[1:])
        else:
            self._timer.stop(label[1:])

    def report(self, mpi_s: float) -> DriverReport:
        """The rank's :class:`DriverReport` once its trace has replayed."""
        outputs = self._outputs
        if outputs is None:
            raise DriverError("follower rank never finished its trace")
        return DriverReport(
            mode=self._mode,
            startup_s=self._startup_s,
            import_s=self._timer.get("import"),
            visit_s=self._timer.get("visit"),
            mpi_s=mpi_s,
            **{**outputs, "counters": dict(outputs["counters"])},
        )
