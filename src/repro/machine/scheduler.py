"""The stepped-execution layer: discrete-event scheduling of virtual clocks.

Every consumer of a per-entity virtual clock — the multi-rank job engine
(:mod:`repro.core.multirank`), the stepped dynamic-linker startup
(:meth:`DynamicLinker.start_program_steps`), the multirank parallel
debugger (:mod:`repro.tools.debugger`), the distribution overlay's
source-reading daemons (:mod:`repro.dist.overlay`) — expresses its work
as a :class:`SteppedProgram`: a resumable generator of fine-grained
steps.  The :class:`EventScheduler` interleaves those generators on a
shared virtual timeline with a *least-virtual-time-first* policy: the
entity whose clock is furthest behind always runs its next step.
Shared-resource requests (NFS reads through the timed queueing
interface) are therefore issued in approximately nondecreasing virtual
time, which is what lets contention, queueing delay and inter-rank skew
*emerge* from the model instead of being charged as closed-form
corrections.

The approximation: a step is atomic, so a long step can advance one rank
past a peer that then issues an earlier-timestamped request.  The timed
file-system queues tolerate this (service never begins before the request's
own start time), and consumers keep steps fine-grained — one shared object
mapped, one module imported, one module visited per step — so the
reordering window stays small.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, Sequence, TypeVar

from repro.errors import ConfigError

_T = TypeVar("_T")


@dataclass(frozen=True)
class EngineStats:
    """Counters describing one engine run, attached to a ``JobReport``.

    ``ranks_simulated`` tasks were actually stepped; ``ranks_coalesced``
    rode a representative's simulation (warm-batch replicas and per-node
    lockstep coalescing) — their sum is the job's rank count.  The
    timeline figures aggregate the shared file-system reservation
    structures after the run: ``bookings`` counts every window ever
    booked, ``windows`` what remained stored after adjacent-window
    merging.
    """

    scheduler_steps: int
    tasks_completed: int
    ranks_simulated: int
    ranks_coalesced: int
    nfs_timeline_windows: int
    nfs_timeline_bookings: int
    pfs_timeline_windows: int
    pfs_timeline_bookings: int


class SteppedProgram:
    """A unit of per-entity work runnable one fine-grained step at a time.

    Implementations expose :meth:`steps`, a generator that yields after
    each unit of work (one object mapped, one module imported, one DLL's
    debug sections parsed).  Anything holding a ``SteppedProgram`` can
    either interleave it on an :class:`EventScheduler` (via
    :meth:`RankTask.from_program`) or run it to completion inline with
    :func:`drain` — the two paths charge identical costs, which is what
    keeps the analytic fast paths validated against the stepped ones.
    """

    def steps(self) -> Generator[None, None, None]:
        """Yield after each unit of work."""
        raise NotImplementedError


def drain(steps: Generator[None, None, _T]) -> _T:
    """Run a step generator to completion; returns its return value.

    The inline twin of scheduling the generator as a :class:`RankTask`:
    monolithic wrappers (``DynamicLinker.start_program``) drain the same
    generator the scheduler would interleave, so the stepped and atomic
    paths cannot drift apart.
    """
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


@contextmanager
def paused_gc() -> Iterator[None]:
    """Pause the cyclic garbage collector for the enclosed block (or,
    as ``@paused_gc()``, the decorated function).

    A loop allocating millions of short-lived objects while the live
    population (resident cache runs, landed maps) keeps growing makes the
    collector rescan the whole heap over and over for nothing — measured
    at ~a third of a large staging run's wall time.  Pausing defers no
    work because the staging pass creates no reference cycles: a buffer
    cache links its runs one way, and relay daemons name their parent
    by index, so a finished pass is freed by reference counting the
    moment it is dropped.  ``tests/test_staging_refcount.py`` holds
    that.  Nests: only the outermost block re-enables the collector.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class RankTask:
    """One rank's execution: a generator of steps plus its clock reading.

    ``steps`` yields after each unit of work (launch, program start, one
    module import, one module visit); ``now`` reports the rank's current
    virtual time so the scheduler can order resumptions.

    ``multiplicity`` is the number of ranks this task stands for: a
    coalesced task — one representative standing for several co-resident
    ranks — is stepped once but weighs ``multiplicity`` in the
    scheduler's ``ranks_completed`` accounting.
    """

    def __init__(
        self,
        rank: int,
        steps: Generator[None, None, None],
        now: Callable[[], float],
        multiplicity: int = 1,
    ) -> None:
        if multiplicity < 1:
            raise ConfigError(
                f"task multiplicity must be >= 1, got {multiplicity}"
            )
        self.rank = rank
        self._steps = steps
        self._now = now
        self.multiplicity = multiplicity
        self.done = False
        self.steps_run = 0

    @classmethod
    def from_program(
        cls, rank: int, program: SteppedProgram, now: Callable[[], float]
    ) -> "RankTask":
        """Wrap a :class:`SteppedProgram` for the scheduler."""
        return cls(rank, program.steps(), now)

    @property
    def now(self) -> float:
        """The rank's current virtual time in seconds."""
        return self._now()

    def step(self) -> bool:
        """Run one step; returns False once the rank has finished."""
        if self.done:
            return False
        try:
            next(self._steps)
        except StopIteration:
            self.done = True
            return False
        self.steps_run += 1
        return True


class EventScheduler:
    """Least-virtual-time-first cooperative scheduler over rank tasks.

    The counters (``steps_run``, ``tasks_completed``,
    ``ranks_completed``) *accumulate across* :meth:`run` calls on the
    same scheduler instance — an engine that runs several phases on one
    scheduler reads job totals at the end.  Call :meth:`reset_stats` to
    start a fresh measurement window without constructing a new
    scheduler.  ``ranks_completed`` weighs each completed task by its
    :attr:`RankTask.multiplicity`, so coalesced representatives count
    every rank they stand for.
    """

    def __init__(self) -> None:
        self.steps_run = 0
        self.tasks_completed = 0
        self.ranks_completed = 0

    def reset_stats(self) -> None:
        """Zero the accumulated counters (the scheduler itself is
        stateless between runs — only the statistics persist)."""
        self.steps_run = 0
        self.tasks_completed = 0
        self.ranks_completed = 0

    def run(self, tasks: Sequence[RankTask]) -> None:
        """Interleave every task to completion on the shared timeline.

        Ties on virtual time break by rank index, so a run is fully
        deterministic for a given task list.
        """
        if not tasks:
            raise ConfigError("scheduler needs at least one task")
        heap: list[tuple[float, int, RankTask]] = [
            (task.now, task.rank, task) for task in tasks
        ]
        heapq.heapify(heap)
        # The pop/step/push cycle runs once per step of every task on the
        # timeline — inline ``RankTask.step`` and keep the counters local
        # (flushed even if a task raises) to cut per-step overhead.  The
        # loop allocates a heap entry per step, and no entry is part of
        # a cycle, so pausing the collector leaves it nothing to catch
        # up on: see ``paused_gc``.
        heappop, heappush = heapq.heappop, heapq.heappush
        steps_run = 0
        completed = 0
        ranks = 0
        try:
            with paused_gc():
                while heap:
                    _, rank, task = heappop(heap)
                    steps_run += 1
                    try:
                        next(task._steps)
                    except StopIteration:
                        task.done = True
                        completed += 1
                        ranks += task.multiplicity
                    else:
                        task.steps_run += 1
                        heappush(heap, (task._now(), rank, task))
        finally:
            self.steps_run += steps_run
            self.tasks_completed += completed
            self.ranks_completed += ranks
