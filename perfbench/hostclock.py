"""Host-speed calibration for the benchmark's timings.

A shared VM host does not run at one speed.  Each vCPU switches, for
seconds to minutes at a time, between a fast state and states up to
~1.8x slower (other tenants on the same physical core), and the two
vCPUs switch independently.  How much a piece of code slows down depends
on the code: interpreter-bound simulation and SQLite round trips slow
by different factors, and by different factors in different slow
states.  A raw time therefore says as much about the neighbours as about
the program.

:func:`pin_to_one_cpu` puts the benchmark, and every process it starts,
on one vCPU.  :class:`HostClock` times two fixed references on that vCPU
every ``INTERVAL_S`` seconds for the whole run, and workers add timings
of their own between short samples:

- ``cpu``: a pure-Python loop, for interpreter-bound work (cold answers,
  set-up);
- ``io``: a SQLite open, indexed read and close of a one-row database,
  for warehouse round trips (warm answers and requests).

:meth:`HostClock.calibrate` scales a host interval to reference speed:
raw seconds times the reference's ``NOMINAL_S`` over its mean time
measured during the interval.  Neither reference runs any of the
program, so a change to the program moves calibrated times exactly as it
moves raw ones; only the host's own speed changes cancel.
"""

from __future__ import annotations

import bisect
import os
import sqlite3
import threading
import time

#: Seconds between two background reference timings.
INTERVAL_S = 0.25
#: What each reference takes on the host's fast state (2 vCPU x86-64
#: VM, CPython 3.11); calibrated times are seconds at that speed.
NOMINAL_S = {"cpu": 0.00017, "io": 0.00012}
#: Reference timings on each side of an interval that is shorter than
#: the sampling gap (a sub-millisecond request, say).
NEIGHBOURS = 2


def cpu_reference() -> int:
    """Fixed interpreter work of the kind the simulator does: small-int
    arithmetic, dict stores and loads, a list index, a call.  It
    allocates nothing that outlives it."""
    table: dict = {}
    ring = [0] * 64
    total = 0
    for value in range(800):
        key = value & 63
        table[key] = total
        total = (total + table[key] + ring[key] * 3 + value * value) % 1_000_003
        ring[key] = abs(total)
    return total


def make_io_database(path: str) -> None:
    """Create the one-row database the ``io`` reference reads."""
    connection = sqlite3.connect(path)
    try:
        with connection:
            connection.execute("CREATE TABLE IF NOT EXISTS blob (k INTEGER PRIMARY KEY, v BLOB)")
            connection.execute("INSERT OR REPLACE INTO blob VALUES (1, ?)", (b"x" * 4000,))
    finally:
        connection.close()


def io_reference(path: str) -> None:
    """Open the reference database, read its row by key, close it."""
    connection = sqlite3.connect(path)
    try:
        connection.execute("SELECT v FROM blob WHERE k = 1").fetchone()
    finally:
        connection.close()


def current_cpu() -> int:
    """The CPU this process is running on, from /proc/self/stat."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[36])


def pin_to_one_cpu() -> int:
    """Pin the calling thread (and so every thread and process it starts
    afterwards) to the CPU it is on now; returns that CPU."""
    cpu = current_cpu()
    os.sched_setaffinity(0, {cpu})
    return cpu


def _fastest_of_two(func, *args) -> float:
    """Seconds of the faster of two back-to-back calls, which drops a
    one-off preemption."""
    start = time.perf_counter()
    func(*args)
    middle = time.perf_counter()
    func(*args)
    return min(middle - start, time.perf_counter() - middle)


def time_reference(io_path: str) -> "list[float]":
    """One reference timing: (start, cpu seconds, io seconds)."""
    start = time.perf_counter()
    return [start, _fastest_of_two(cpu_reference), _fastest_of_two(io_reference, io_path)]


class HostClock:
    """Reference timings of one vCPU, taken on a background thread and
    by anyone who :meth:`add` s their own.

    Start it after :func:`pin_to_one_cpu`, so that the thread, and the
    processes whose intervals it calibrates, share the measured vCPU.
    """

    KINDS = ("cpu", "io")

    def __init__(self, io_path: str) -> None:
        self.io_path = io_path
        make_io_database(io_path)
        self.timings: list[list[float]] = []
        self._starts: list[float] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostclock", daemon=True)

    def start(self) -> "HostClock":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            cpu_reference()  # warms the path back up after the sleep
            self.add([time_reference(self.io_path)])

    def add(self, timings: "list[list[float]]") -> None:
        """Take in :func:`time_reference` timings made elsewhere on the
        same vCPU, such as between a worker's short samples."""
        with self._lock:
            self.timings = sorted(self.timings + list(timings))
            self._starts = [timing[0] for timing in self.timings]

    def reference_s(self, start: float, end: float, kind: str) -> float:
        """Mean seconds of reference ``kind`` over ``[start, end]``: the
        timings inside it, or the nearest ones when it holds fewer than
        ``NEIGHBOURS``."""
        with self._lock:
            starts, timings = self._starts, self.timings
        if not timings:
            raise RuntimeError("the host clock has no timings yet")
        low = bisect.bisect_left(starts, start)
        high = bisect.bisect_right(starts, end)
        if high - low < NEIGHBOURS:
            low = max(0, min(low, high) - NEIGHBOURS // 2)
            high = min(len(timings), low + NEIGHBOURS)
            low = max(0, high - NEIGHBOURS)
        column = 1 + self.KINDS.index(kind)
        window = [timing[column] for timing in timings[low:high]]
        return sum(window) / len(window)

    def calibrate(self, start: float, seconds: float, kind: str) -> float:
        """``seconds`` of host time that began at ``start`` (a
        ``time.perf_counter`` value of any process), at the speed
        reference ``kind`` runs at on the host's fast state."""
        return seconds * NOMINAL_S[kind] / self.reference_s(start, start + seconds, kind)

    def summary(self) -> dict:
        """How fast the vCPU ran over the run, for the results file:
        each reference's p10, p50, p90 and nominal milliseconds."""
        speed: dict = {"timings": len(self.timings)}
        for column, kind in enumerate(self.KINDS, start=1):
            ordered = sorted(timing[column] for timing in self.timings)
            if ordered:
                count = len(ordered)
                speed[kind] = [
                    ordered[count // 10] * 1000,
                    ordered[count // 2] * 1000,
                    ordered[(9 * count) // 10] * 1000,
                    NOMINAL_S[kind] * 1000,
                ]
        return speed
