"""The repo benchmark: one run of one workload, from the repository root.

    python3 perfbench/run.py --workload cold_job --seed 0 --seconds 20 --trace 0

Workloads: cold_job, staging_pass, rush_hour, service_mix (see
``perfbench/index.json`` for what each measures and why).  Each run
starts fresh interpreters: a few ``--setup-only`` workers time the
one-time set-up, then one measuring worker does the timed section and
checks every answer.  With ``--trace 0`` the run reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it reports the
per-layer metrics from a traced run instead, and writes its spans.

The run and every process it starts share one vCPU, whose speed a
:class:`hostclock.HostClock` samples throughout; each end-to-end time is
calibrated to the host's reference speed (see ``hostclock.py``): cold
answers and set-ups by the ``cpu`` reference, warm answers and requests
by the ``io`` one.  The
raw host times are printed beside them and kept in the results file.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with
its unit and sample count.  A copy of the full result, with nproc, the
Python version, the commit, the load average before and after and the
vCPU's measured speed, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

from hostclock import HostClock, pin_to_one_cpu, time_reference

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_job", "staging_pass", "rush_hour", "service_mix")
#: Fresh-interpreter set-ups behind each setup_s median (the measuring
#: worker's own set-up is one of them).
SETUPS = {"cold_job": 3, "staging_pass": 3, "rush_hour": 3, "service_mix": 3}
#: Every child process must be done this many seconds after the start.
BUDGET_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # already gone
        pass


def start_worker(command: "list[str]", env: dict, deadline: float, clock: HostClock,
                 live: set):
    """Start a worker and add it to ``live``; returns (process, [start,
    seconds until its READY line]).  Reference timings just before and
    after bracket the set-up."""
    clock.add([time_reference(clock.io_path)])
    start = time.perf_counter()
    # Its own process group, so a timeout also stops the server a
    # service_mix worker starts.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    watchdog = threading.Timer(
        max(0.0, deadline - time.monotonic()), kill_group, (process.pid,)
    )
    watchdog.daemon = True
    watchdog.start()
    process.watchdog = watchdog
    live.add(process)
    line = process.stdout.readline()
    ready = [start, time.perf_counter() - start]
    clock.add([time_reference(clock.io_path)])
    if line.strip() != "READY":
        finish(process, live)
        raise WorkerFailed(f"worker set-up failed (exit {process.returncode})")
    return process, ready


def finish(process, live: set) -> str:
    """Wait for a worker and drop it from ``live``; returns the rest of
    its stdout."""
    try:
        rest = process.stdout.read()
        process.wait()
    finally:
        process.watchdog.cancel()
        live.discard(process)
    return rest


def stop_workers(live: set, signum: int) -> None:
    """On SIGTERM or SIGINT: kill every live worker's process group (a
    service_mix worker's server is in it), wait for each, and exit."""
    for process in list(live):
        kill_group(process.pid)
        process.wait()
    raise SystemExit(128 + signum)


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(result: dict, setups: list, calibrate) -> dict:
    """The end-to-end metrics from the worker's (start, seconds) timings,
    each time passed through ``calibrate(start, seconds, kind)``."""
    timings = result["timings"]
    warm_s = [calibrate(*timing, "io") for timing in timings["warm"]]
    # No warm answers only when every cold answer failed (already scored).
    warm_ms = [value * 1000 for value in warm_s] or [0.0]
    if "loop" in timings:  # service_mix: one closed loop of requests
        wall_s = calibrate(*timings["loop"], "io")
        req_per_s = result["requests"] / wall_s
    else:  # batch: cold answers, then warm ones
        cold_s = [calibrate(*timing, "cpu") for timing in timings["cold"]]
        wall_s = statistics.median(cold_s)
        # Answers per calibrated second spent answering (the checks
        # between answers are not the program's time).
        req_per_s = (len(cold_s) + len(warm_s)) / (sum(cold_s) + sum(warm_s))
    return {
        "setup_s": statistics.median(calibrate(*timing, "cpu") for timing in setups),
        "wall_s": wall_s,
        "warm_p50_ms": statistics.median(warm_ms),
        "warm_p99_ms": percentile(warm_ms, 99),
        "req_per_s": req_per_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout; "unknown" when it is not a git repository
    (the ceiling keeps git from reporting an enclosing repository)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def seed_value(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the workload seed must be >= 0")
    return value


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_value, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: seconds-fast inputs for the benchmark's self-test",
    )
    parser.add_argument("--golden", help="expected values (default perfbench/golden.json)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    source = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--out", out,
    ]
    if args.golden:
        command += ["--golden", os.path.abspath(args.golden)]

    live: set = set()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda number, _frame: stop_workers(live, number))
    load_before = os.getloadavg()
    cpu = pin_to_one_cpu()
    clock = HostClock(os.path.join(out, "reference.db")).start()
    try:
        outcome = measure(args, command, env, clock, live)
    finally:
        clock.stop()
    if outcome is None:
        return 1
    result, setups = outcome

    if args.trace:
        measured, raw = result["metrics"], {}
    else:
        measured = end_to_end(result, setups, clock.calibrate)
        raw = end_to_end(result, setups, lambda _start, seconds, _kind: seconds)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"perfbench: {args.workload} reported no {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
    }

    speed = clock.summary()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} cpu={cpu}")
    for kind in HostClock.KINDS:
        if kind in speed:
            print(f"  {kind} reference ms p10/p50/p90/nominal "
                  + "/".join(f"{value:.3f}" for value in speed[kind]))
    if raw:
        print(f"  {'metric':26s} {'calibrated':>14s} {'raw':>14s}")
    timings = result.get("timings", {})
    warm = f"{len(timings.get('warm', []))} warm samples"
    notes = {
        "setup_s": f"median of {len(setups)} fresh-interpreter set-ups",
        "wall_s": (
            f"one loop of {result.get('requests')} requests"
            if "loop" in timings
            else f"median of {len(timings.get('cold', []))} cold answers"
        ),
        "warm_p50_ms": warm,
        "warm_p99_ms": warm,
    }
    for name, entry in metrics.items():
        host = f"{raw[name]:14.6g}" if name in raw else ""
        print(f"  {name:26s} {entry['value']:14.6g} {host:14s} {entry['unit']:6s} "
              f"{notes.get(name, '')}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':26s} {failed / attempted:14.6g} {'':6s} "
          f"{failed} of {attempted} operations failed; "
          f"{result['golden_checked']} answers checked against expected values")
    for failure in result.get("failures", []):
        print(f"    FAIL {failure}")
    if args.trace:
        print("  layer self seconds under cProfile:")
        for layer, seconds in sorted(result["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:12s} {seconds:10.4f} s")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": git_commit(root),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "cpu": cpu,
            "host_speed": speed,
        },
        "reference_timings": clock.timings,
        "setup_timings": setups,
        "cold_answers_s": [
            clock.calibrate(*timing, "cpu") for timing in result.get("timings", {}).get("cold", [])
        ],
        "metrics": metrics,
        "raw_metrics": raw,
        "worker": result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(os.path.join(out, name), "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def measure(args, command: "list[str]", env: dict, clock: HostClock, live: set):
    """Run the set-up-only workers and the measuring one; returns (the
    measuring worker's result, the (start, seconds) of every set-up), or
    None after reporting a failed worker."""
    deadline = time.monotonic() + BUDGET_S
    setups: list = []

    def setup_only(count: int) -> None:
        for _ in range(count):
            process, ready = start_worker(
                command + ["--setup-only"], env, deadline, clock, live
            )
            finish(process, live)
            if process.returncode != 0:
                raise WorkerFailed(f"set-up worker exited {process.returncode}")
            setups.append(ready)

    # Set-up-only workers run both before and after the measuring one, so
    # the setup_s samples span the run rather than one stretch of it.
    probes = 0 if args.trace else (1 if args.size == "tiny" else SETUPS[args.workload] - 1)
    try:
        setup_only(probes // 2)
        process, ready = start_worker(command, env, deadline, clock, live)
        setups.append(ready)
        lines = finish(process, live).strip().splitlines()
        if process.returncode != 0 or not lines:
            raise WorkerFailed(f"measuring worker exited {process.returncode}")
        result = json.loads(lines[-1])
        clock.add(result.pop("reference", []))
        setup_only(probes - probes // 2)
    except WorkerFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return None
    return result, setups

if __name__ == "__main__":
    sys.exit(main())
