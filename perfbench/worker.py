"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script (with ``src`` on ``PYTHONPATH``) and times
it from process start to the ``READY`` line it prints once every piece
of one-time work is done: that interval is one ``setup_s`` sample.  A
``--setup-only`` process stops there; the measuring process goes on to
the timed section, checks every answer, and prints one JSON document as
its last stdout line.  Progress and diagnostics go to stderr.

Every input is derived from ``--seed``; the program only ever sees the
generated specs.  Each cold answer uses its own config seed, so no
answer can reuse a per-process memo of an earlier one.
"""

from __future__ import annotations

import argparse
import collections
import cProfile
import dataclasses
import json
import os
import pstats
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.core import presets as config_presets
from repro.core.multirank import MultiRankJob
from repro.dist.overlay import DistributionOverlay
from repro.fs.reservation import ReservationTimeline
from repro.harness.mitigation_scaled import eval_staging_point
from repro.harness.sweep import SweepRunner
from repro.machine.scheduler import EventScheduler
from repro.results import ResultsWarehouse
from repro.scenario import parse_spec_document, scenario_preset, simulate
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import SCENARIO_FUNC
from repro.service.worker import result_document
from repro.workload import parse_workload_document, run_workload
from repro.workload.engine import WorkloadEngine
from repro.workload.presets import workload_preset
from hostclock import time_reference
from tracing import Tracer, layer_profile

HERE = os.path.dirname(os.path.abspath(__file__))

DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(HERE, "golden.json")
#: Warm answers per batch run, back to back (~2-3 s on 2 vCPU); p99 then
#: has 30 samples beyond it.
WARM_ANSWERS = {"full": 3000, "tiny": 100}
#: Warm answers between two reference timings (see hostclock.py).
REFERENCE_EVERY = 10
#: Warm answers replayed under tracing (results.load_* samples).
TRACED_WARM_ANSWERS = {"full": 400, "tiny": 50}
#: Repetitions behind the scenario.parse_us / hash_us medians.
PARSE_REPS = {"full": 300, "tiny": 20}
#: First failure messages kept in the result document.
MAX_FAILURES = 20


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def json_round(value: object) -> object:
    """``value`` as it reads back from JSON (how goldens are stored)."""
    return json.loads(json.dumps(value))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_us(func, args_list: list) -> float:
    """Median microseconds of ``func(arg)`` over ``args_list``."""
    samples = []
    for arg in args_list:
        start = time.perf_counter()
        func(arg)
        samples.append((time.perf_counter() - start) * 1e6)
    return statistics.median(samples)


class Run:
    """Shared state of one run: arguments, scratch directory, failures."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.size = args.size
        self.workdir = os.path.join(args.out, f"work-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.failures: list[str] = []
        self.failed = 0
        self.attempted = 0
        #: hostclock.time_reference timings taken between samples.
        self.reference: list[list[float]] = []
        self.io_path = os.path.join(args.out, "reference.db")
        with open(args.golden) as handle:
            self.golden = json.load(handle)
        with open(os.path.join(HERE, "index.json")) as handle:
            self.layers = json.load(handle)["layers"]

    def fail(self, message: str) -> None:
        if len(self.failures) < MAX_FAILURES:
            self.failures.append(message)

    def golden_entries(self, workload: str) -> dict:
        return self.golden.get(workload, {}).get(self.size, {})

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------
def sample_seed(seed: int, index: int) -> int:
    """Config seed of cold answer ``index`` for workload seed ``seed``."""
    return 1 + seed * 64 + index


def report_counters(report) -> dict:
    """Simulated memory/linker counters summed over a JobReport's ranks."""
    totals = {
        "accesses": 0, "l1d_misses": 0, "l1i_misses": 0, "l2_misses": 0,
        "lazy_fixups": 0, "eager_plt": 0,
    }
    for rank in report.per_rank or [report.rank0]:
        for counts in rank.counters.values():
            totals["accesses"] += counts.l1d_accesses + counts.l1i_accesses
            totals["l1d_misses"] += counts.l1d_misses
            totals["l1i_misses"] += counts.l1i_misses
            totals["l2_misses"] += counts.l2_misses
        totals["lazy_fixups"] += rank.lazy_fixups
        totals["eager_plt"] += rank.eager_plt_resolutions
    return totals


class BatchWorkload:
    """A workload whose answer is one simulation, asked cold then warm.

    Cold answers go through the program's warehouse-memoized entry point
    into a fresh warehouse, so each one simulates and commits.  Warm
    answers ask the same entry point the same questions again, which the
    warehouse answers.  Subclasses define the specs, the entry point,
    the digest compared against the goldens and the invariants checked
    on every seed.
    """

    name = ""
    #: Calibrated seconds budgeted per cold answer: a run makes
    #: --seconds // nominal_s of them, the same count on every host.
    nominal_s = 1.0

    def __init__(self, run: Run) -> None:
        self.run = run
        self.size = run.size
        self.warehouse = os.path.join(run.workdir, "warehouse")

    # -- hooks -------------------------------------------------------------
    def spec(self, config_seed: int):
        raise NotImplementedError

    def answer(self, spec, cache_dir: str):
        raise NotImplementedError

    def key(self, spec) -> str:
        return spec.spec_hash

    def parse(self, document: dict):
        return parse_spec_document(document)

    def digest(self, report) -> dict:
        raise NotImplementedError

    def invariants(self, spec, report) -> "list[str]":
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- set-up ------------------------------------------------------------
    def n_cold(self) -> int:
        if self.size == "tiny":
            return 2
        count = max(1, int(self.run.args.seconds // self.nominal_s))
        return max(count, 2) if self.run.args.trace else count

    def setup(self) -> None:
        self.specs = [
            self.spec(sample_seed(self.run.args.seed, index))
            for index in range(self.n_cold())
        ]
        for spec in self.specs:
            if self.parse(json_round(spec.to_dict())) != spec:
                raise SystemExit(f"{self.name}: spec does not round-trip")
        self.keys = [self.key(spec) for spec in self.specs]
        if len(set(self.keys)) != len(self.keys):
            raise SystemExit(f"{self.name}: sample specs collide")
        # A miniature answer through the same entry points absorbs lazy
        # imports, the warehouse's first open and its commit lookup.
        warmup = os.path.join(self.run.workdir, "warmup")
        small = self.warmup_spec()
        self.answer(small, warmup)
        self.answer(small, warmup)
        with ResultsWarehouse.for_cache_dir(self.warehouse) as warehouse:
            len(warehouse)

    def warmup_spec(self):
        raise NotImplementedError

    # -- checks ------------------------------------------------------------
    def check_cold(self, index: int, spec, report) -> bool:
        problems = self.invariants(spec, report)
        expected = self.run.golden_entries(self.name).get(self.keys[index])
        if self.run.args.seed == DEFAULT_SEED and expected is not None:
            actual = json_round(self.digest(report))
            for field, value in expected.items():
                if actual.get(field) != value:
                    problems.append(
                        f"{field} = {actual.get(field)!r}, expected {value!r}"
                    )
            self.golden_checked += 1
        for problem in problems:
            self.run.fail(f"{self.name} cold answer {index}: {problem}")
        return not problems

    # -- measurement -------------------------------------------------------
    def cold_answer(self, index: int) -> "tuple[list[float], object]":
        """Answer cold question ``index``; returns its (start, seconds) and
        the report, None if the answer crashed."""
        spec = self.specs[index]
        self.run.reference.append(time_reference(self.run.io_path))
        start = time.perf_counter()
        try:
            report = self.answer(spec, self.warehouse)
        except Exception as exc:  # a crashed answer is a failed operation
            report = None
            self.run.fail(f"{self.name} cold answer {index}: {exc!r}")
        timing = [start, time.perf_counter() - start]
        self.run.reference.append(time_reference(self.run.io_path))
        return timing, report

    def warm_order(self, count: int, reports: list) -> "list[int]":
        """Which stored answer each of ``count`` warm questions asks for."""
        ok = [index for index, report in enumerate(reports) if report is not None]
        rng = random.Random(self.run.args.seed * 1009 + len(reports))
        return rng.choices(ok, k=count) if ok else []

    def warm_answers(self, order: "list[int]", reports: list) -> "list[list[float]]":
        """Ask for the stored answers in ``order``; returns each one's
        (start, seconds) and scores any answer that differs from its cold
        original."""
        samples = []
        for count, index in enumerate(order):
            if count % REFERENCE_EVERY == 0:
                self.run.reference.append(time_reference(self.run.io_path))
            start = time.perf_counter()
            try:
                report = self.answer(self.specs[index], self.warehouse)
            except Exception as exc:
                samples.append([start, time.perf_counter() - start])
                self.run.failed += 1
                self.run.fail(f"{self.name} warm answer: {exc!r}")
                continue
            samples.append([start, time.perf_counter() - start])
            if report != reports[index]:
                self.run.failed += 1
                self.run.fail(f"{self.name} warm answer {index} differs from cold")
        self.run.attempted += len(order)
        return samples

    def measure(self) -> dict:
        self.golden_checked = 0
        cold, reports = [], []
        for index in range(len(self.specs)):
            timing, report = self.cold_answer(index)
            cold.append(timing)
            reports.append(report)
            self.run.attempted += 1
            if report is None or not self.check_cold(index, self.specs[index], report):
                self.run.failed += 1
            log(f"{self.name}: cold answer {index} {timing[1]:.3f} s")
        if self.run.args.record_golden:
            self.record_golden(reports)
        warm = self.warm_answers(self.warm_order(WARM_ANSWERS[self.size], reports), reports)
        return {
            "timings": {"cold": cold, "warm": warm},
            "peak_rss_mb": peak_rss_mb(),
            "golden_checked": self.golden_checked,
        }

    def record_golden(self, reports: list) -> None:
        with open(self.run.args.golden) as handle:
            golden = json.load(handle)
        entries = golden.setdefault(self.name, {}).setdefault(self.size, {})
        for key, report in zip(self.keys, reports):
            entries[key] = json_round(self.digest(report))
        with open(self.run.args.golden, "w") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
        log(f"{self.name}: recorded {len(reports)} golden digests")

    # -- traced run --------------------------------------------------------
    def install_tracing(self, tracer: Tracer) -> dict:
        """Patch the public boundaries this workload crosses; returns the
        dict the patches fill with counters read off their results."""
        seen = nothing_seen()

        def on_launch(_args, result):
            tasks, finalize = result

            def traced_finalize(scheduler):
                with tracer.span("core.finalize"):
                    report = finalize(scheduler)
                seen["job_reports"].append(report)
                return report

            return tasks, traced_finalize

        def on_stage(_args, plan):
            seen["plans"].append(plan)
            return plan

        def on_workload(_args, report):
            seen["workloads"].append(report)
            return report

        def on_load(_args, result):
            seen["loads"].append(result is not None)
            return result

        tracer.patch_method(MultiRankJob, "launch", "core.launch", on_launch)
        tracer.patch_method(DistributionOverlay, "stage", "dist.stage", on_stage)
        tracer.patch_method(WorkloadEngine, "run", "workload.run", on_workload)
        tracer.patch_method(ResultsWarehouse, "load", "results.load", on_load)
        tracer.patch_method(ResultsWarehouse, "store", "results.store")
        tracer.patch_function("repro.core.builds", "build_benchmark", "build")

        scheduler_run = EventScheduler.run

        def counted_run(scheduler, tasks):
            before = scheduler.steps_run
            try:
                return scheduler_run(scheduler, tasks)
            finally:
                seen["steps"] += scheduler.steps_run - before

        tracer.replace(EventScheduler, "run", tracer.traced("scheduler.run", counted_run))

        timeline_init = ReservationTimeline.__init__

        def remembered_init(timeline, *args, **kwargs):
            timeline_init(timeline, *args, **kwargs)
            seen["timelines"].append(timeline)

        tracer.replace(ReservationTimeline, "__init__", remembered_init)
        return seen

    def traced(self) -> dict:
        self.golden_checked = 0
        (_, untraced_s), first = self.cold_answer(0)
        self.run.attempted += 1
        if first is None or not self.check_cold(0, self.specs[0], first):
            self.run.failed += 1
        tracer = Tracer()
        seen = self.install_tracing(tracer)
        profiler = cProfile.Profile()
        try:
            profiler.enable()
            with tracer.span("answer.cold", request=1):
                (_, traced_s), second = self.cold_answer(1)
            profiler.disable()
            self.run.attempted += 1
            if second is None or not self.check_cold(1, self.specs[1], second):
                self.run.failed += 1
            with tracer.span("answer.warm", request="warm"):
                reports = [first, second]
                self.warm_answers(self.warm_order(TRACED_WARM_ANSWERS[self.size], reports), reports)
        finally:
            profiler.disable()
            tracer.restore()
        log(f"{self.name}: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
        profile = layer_profile(pstats.Stats(profiler), self.run.layers)
        metrics = layer_metrics(profile, tracer, seen)
        documents = [json_round(spec.to_dict()) for spec in self.specs[:2]]
        reps = PARSE_REPS[self.size]
        metrics["scenario.parse_us"] = median_us(
            self.parse, [documents[i % 2] for i in range(reps)]
        )
        parsed = [self.parse(documents[i % 2]) for i in range(reps)]
        metrics["scenario.hash_us"] = median_us(self.key, parsed)
        metrics["trace.overhead"] = traced_s / untraced_s
        return {
            "metrics": metrics,
            "tracer": tracer,
            "layer_self_s": profile["self_s"],
            "golden_checked": self.golden_checked,
        }


def nothing_seen() -> dict:
    """What the traced boundaries have seen before the first call."""
    return {
        "job_reports": [], "plans": [], "timelines": [], "steps": 0,
        "workloads": [], "loads": [],
    }


def layer_metrics(profile: dict, tracer: Tracer, seen: dict) -> dict:
    """The per-layer metrics read off a profile, the spans and what the
    traced boundaries saw (the service's own are filled in by its run)."""
    self_s = profile["self_s"]
    calls = profile["calls"]
    counters = collections.Counter()
    simulated = coalesced = 0
    for report in seen["job_reports"]:
        counters.update(report_counters(report))
        if report.engine_stats is not None:
            simulated += report.engine_stats.ranks_simulated
            coalesced += report.engine_stats.ranks_coalesced
    lookups = calls.get("linker/resolver.py:lookup", 0)
    # The workload engine steps its tasks in its own loop and reports the
    # count; solo jobs and staging passes go through EventScheduler.run.
    steps = seen["steps"] + sum(report.engine_steps for report in seen["workloads"])
    sends = sum(plan.relay_sends for plan in seen["plans"])
    bookings = sum(timeline.bookings for timeline in seen["timelines"])
    windows = sum(len(timeline) for timeline in seen["timelines"])
    loads = [d * 1000 for d in tracer.durations("results.load")] or [0.0]
    stores = [d * 1000 for d in tracer.durations("results.store")] or [0.0]

    def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    metrics = {
        "memory.self_s": self_s.get("memory", 0.0),
        "memory.accesses": counters["accesses"],
        "memory.l1d_misses": counters["l1d_misses"],
        "memory.l1i_misses": counters["l1i_misses"],
        "memory.l2_misses": counters["l2_misses"],
        "memory.ns_per_access": ratio(self_s.get("memory", 0.0), counters["accesses"], 1e9),
        "linker.self_s": self_s.get("linker", 0.0),
        "linker.lookups": lookups,
        "linker.us_per_lookup": ratio(self_s.get("linker", 0.0), lookups, 1e6),
        "linker.lazy_fixups": counters["lazy_fixups"],
        "linker.eager_plt": counters["eager_plt"],
        "build.s": sum(tracer.durations("build")),
        "build.calls": len(tracer.durations("build")),
        "scheduler.self_s": self_s.get("scheduler", 0.0),
        "scheduler.steps": steps,
        "scheduler.us_per_step": ratio(self_s.get("scheduler", 0.0), steps, 1e6),
        "fs.self_s": self_s.get("fs", 0.0),
        "fs.bookings": bookings,
        "fs.windows": windows,
        "fs.merge_ratio": ratio(windows, bookings),
        "dist.self_s": self_s.get("dist", 0.0),
        "dist.stage_s": sum(tracer.durations("dist.stage")),
        "dist.relay_sends": sends,
        "dist.source_reads": sum(plan.source_reads for plan in seen["plans"]),
        "dist.us_per_send": ratio(self_s.get("dist", 0.0), sends, 1e6),
        "core.launch_s": sum(tracer.durations("core.launch")),
        "core.finalize_s": sum(tracer.durations("core.finalize")),
        "core.ranks_simulated": simulated,
        "core.ranks_coalesced": coalesced,
        "workload.self_s": self_s.get("workload", 0.0),
        "workload.run_s": sum(tracer.durations("workload.run")),
        "workload.jobs": sum(report.n_jobs for report in seen["workloads"]),
        "results.load_ms_p50": statistics.median(loads),
        "results.load_ms_p99": percentile(loads, 99),
        "results.store_ms_p50": statistics.median(stores),
        "results.hit_ratio": ratio(sum(seen["loads"]), len(seen["loads"])),
        "service.overhead_ms": 0.0,
        "service.cold_p50_ms": 0.0,
        "service.jobs_deduplicated": 0,
        "service.queue_depth_max": 0,
        "service.worker_busy_frac": 0.0,
    }
    return metrics


class ColdJob(BatchWorkload):
    """The 495-DLL scaled multiphysics job, one cold rank on one node."""

    name = "cold_job"
    nominal_s = 9.5

    def base(self):
        base = scenario_preset("llnl_multiphysics_scaled").with_(n_tasks=1)
        if self.size == "tiny":
            base = base.with_(config=config_presets.tiny())
        return base

    def spec(self, config_seed: int):
        base = self.base()
        return base.with_(config=dataclasses.replace(base.config, seed=config_seed))

    def warmup_spec(self):
        return self.base().with_(config=config_presets.tiny())

    def answer(self, spec, cache_dir: str):
        return simulate(spec, cache_dir=cache_dir)

    def digest(self, report) -> dict:
        return {
            "startup_s": report.startup_s,
            "import_s": report.import_s,
            "visit_s": report.visit_s,
            "mpi_s": report.mpi_s,
            "total_s": report.total_s,
            "staging_p50": report.staging_p50,
            "staging_p95": report.staging_p95,
            "counters": {
                phase: dataclasses.asdict(counts)
                for phase, counts in sorted(report.rank0.counters.items())
            },
            "engine_stats": dataclasses.asdict(report.engine_stats),
            **report_counters(report),
        }

    def invariants(self, spec, report) -> "list[str]":
        problems = []
        ranks = report.per_rank or []
        if len(ranks) != spec.n_tasks:
            problems.append(f"{len(ranks)} rank reports for {spec.n_tasks} ranks")
        for index, rank in enumerate(ranks):
            if rank.modules_imported != spec.config.n_modules or rank.total_s <= 0:
                problems.append(f"rank {index} did not complete")
        stats = report.engine_stats
        if stats is None or stats.ranks_simulated + stats.ranks_coalesced != spec.n_tasks:
            problems.append(f"engine stats do not cover every rank: {stats}")
        elif stats.tasks_completed != stats.ranks_simulated:
            problems.append(f"unfinished rank tasks: {stats}")
        return problems


class StagingPass(ColdJob):
    """The same library set as a --staging-only overlay pass at 256 nodes."""

    name = "staging_pass"
    nominal_s = 4.5

    def base(self):
        return super().base().with_(n_tasks=8 if self.size == "tiny" else 256)

    def warmup_spec(self):
        return super().warmup_spec().with_(n_tasks=4)

    def answer(self, spec, cache_dir: str):
        # What ``pynamic-repro job --staging-only --cache-dir`` runs.
        runner = SweepRunner(cache_dir=cache_dir)
        return runner.map(
            eval_staging_point,
            [spec],
            keys=[spec.spec_hash],
            spec_docs=[spec.canonical_json()],
        )[0]

    def digest(self, report) -> dict:
        return dataclasses.asdict(report)

    def invariants(self, spec, report) -> "list[str]":
        problems = []
        if report.n_nodes != spec.n_nodes:
            problems.append(f"staged {report.n_nodes} of {spec.n_nodes} nodes")
        # Cold binomial relay: every node but the root receives every file
        # once, and the root reads each file from the source at most once.
        if report.relay_sends != (spec.n_nodes - 1) * report.n_files:
            problems.append(
                f"{report.relay_sends} relay sends for {spec.n_nodes} nodes x "
                f"{report.n_files} files"
            )
        if not 0 < report.source_reads <= report.n_files:
            problems.append(f"{report.source_reads} source reads")
        if not 0 < report.p50_s <= report.p95_s <= report.makespan_s:
            problems.append("staging percentiles out of order")
        if report.staged_bytes <= 0 or report.warm_node_count != 0:
            problems.append("nothing staged, or warm nodes on a cold pass")
        return problems


class RushHour(BatchWorkload):
    """The rush_hour preset: 8 cold 8-node jobs on 64 shared nodes."""

    name = "rush_hour"
    nominal_s = 4.5

    def spec(self, config_seed: int, tiny_config: bool = False):
        workload = workload_preset("rush_hour")
        (tenant,) = workload.tenants
        config = tenant.scenario.config
        if tiny_config or self.size == "tiny":
            config = config_presets.tiny()
            tenant = dataclasses.replace(tenant, n_jobs=2)
        scenario = tenant.scenario.with_(
            config=dataclasses.replace(config, seed=config_seed)
        )
        return dataclasses.replace(
            workload,
            tenants=(dataclasses.replace(tenant, scenario=scenario),),
            seed=self.run.args.seed,
        )

    def warmup_spec(self):
        return self.spec(0, tiny_config=True)

    def key(self, spec) -> str:
        return spec.workload_hash

    def parse(self, document: dict):
        return parse_workload_document(document)

    def answer(self, spec, cache_dir: str):
        return run_workload(spec, cache_dir=cache_dir)

    def digest(self, report) -> dict:
        return {
            "makespan_s": report.makespan_s,
            "engine_steps": report.engine_steps,
            "n_jobs": report.n_jobs,
            "fairness_spread": report.fairness_spread,
            "tenants": [dataclasses.asdict(tenant) for tenant in report.tenants],
        }

    def invariants(self, spec, report) -> "list[str]":
        problems = []
        expected = sum(tenant.n_jobs for tenant in spec.tenants)
        if report.n_jobs != expected:
            problems.append(f"{report.n_jobs} of {expected} jobs completed")
        for job in report.jobs:
            if not job.arrival_s <= job.start_s < job.end_s:
                problems.append(f"job {job.job_id} ran out of order")
        if len(report.tenants) != len(spec.tenants):
            problems.append("tenant summaries missing")
        return problems


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------
#: Spec fields made schema-invalid to draw the 400 requests from.
INVALID_EDITS = (
    ("n_tasks", -1),
    ("engine", "quantum"),
    ("cores_per_node", 0),
    ("n_tasks", "many"),
    ("warm_fraction", 2.5),
    ("unknown_knob", 1),
)


class ServiceMix:
    """``pynamic-repro serve`` driven by one client over two connections."""

    name = "service_mix"
    #: Requests per second of --seconds: sizes the fixed request count.
    requests_per_second = 120
    warm_specs = 8
    cold_share = 0.03
    invalid_share = 0.005

    def __init__(self, run: Run) -> None:
        self.run = run
        self.size = run.size
        self.warehouse = os.path.join(run.workdir, "warehouse")
        self.server = None
        self.warmups = 0

    def tiny_spec(self, kind: str, index: int, multirank: bool = False):
        """A tiny spec whose config seed is unique to (seed, kind, index), so
        warm, cold and warm-up specs can never share a hash."""
        kinds = ("warm", "cold", "warmup")
        config_seed = (self.run.args.seed * len(kinds) + kinds.index(kind)) * 100_000 + index
        spec = scenario_preset("tiny")
        spec = spec.with_(config=dataclasses.replace(spec.config, seed=config_seed))
        if multirank:
            spec = spec.with_(engine="multirank", n_tasks=4, cores_per_node=1)
        return spec

    def plan(self, cold_offset: int) -> list:
        """The seeded request sequence: (kind, spec, document) triples;
        documents are serialized up front so the loop times the service."""
        seed = self.run.args.seed
        rng = random.Random(seed * 7919 + cold_offset)
        if self.size == "tiny":
            total = 60
        else:
            total = int(self.requests_per_second * self.run.args.seconds)
        n_cold = max(2, round(total * self.cold_share))
        n_invalid = max(2, round(total * self.invalid_share))
        cold = [self.tiny_spec("cold", cold_offset + j) for j in range(n_cold)]
        requests = [("cold", spec, spec.to_dict()) for spec in cold]
        for _ in range(n_invalid):
            field, value = rng.choice(INVALID_EDITS)
            document = rng.choice(self.warm).to_dict()
            document[field] = value
            requests.append(("invalid", None, document))
        for _ in range(total - n_cold - n_invalid):
            kind = rng.choice(("warm_post", "warm_get"))
            spec = rng.choice(self.warm)
            requests.append((kind, spec, spec.to_dict()))
        rng.shuffle(requests)
        return requests

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        count = 3 if self.size == "tiny" else self.warm_specs
        self.warm = [
            self.tiny_spec("warm", j, multirank=(j % 4 == 3)) for j in range(count)
        ]
        for spec in self.warm:
            if parse_spec_document(json_round(spec.to_dict())) != spec:
                raise SystemExit("service_mix: spec does not round-trip")
        self.expected = {}
        for spec in self.warm:
            report = simulate(spec, cache_dir=self.warehouse)
            self.expected[spec.spec_hash] = json_round(
                result_document("scenario", spec.spec_hash, report)
            )
        self.start_server(profile=None)

    def start_server(self, profile: "str | None") -> None:
        command = [
            sys.executable, "-u", os.path.join(HERE, "serve.py"),
            "--port", "0", "--workers", "1", "--cache-dir", self.warehouse,
        ]
        if profile:
            command += ["--profile", profile]
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=os.environ.copy()
        )
        line = self.server.stdout.readline()
        match = re.search(r"http://([^:]+):(\d+)", line)
        if match is None:
            self.stop_server()
            raise SystemExit(f"service_mix: server did not start: {line!r}")
        threading.Thread(
            target=self.server.stdout.read, name="server-stdout", daemon=True
        ).start()
        self.client = ServiceClient(match.group(1), int(match.group(2)), timeout=60)
        # Untimed warm-up: first warm answer, first result read, and one
        # cold job that forks the pool worker and its lazy imports.
        spec = self.warm[0]
        self.client.submit(spec.to_dict())
        self.client.result(spec.spec_hash)
        self.warmups += 1
        self.client.submit_and_wait(self.tiny_spec("warmup", self.warmups).to_dict())
        self.baseline = self.client.metrics()

    def server_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop_server(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server = None

    # -- the loop ----------------------------------------------------------
    def request(self, kind: str, spec, document: dict) -> "tuple[bool, object]":
        """Send one request; returns (correct, detail)."""
        client = self.client
        try:
            if kind == "warm_post":
                data = client.submit(document)
                expected = self.expected[spec.spec_hash]
                return data.get("cached") is True and data.get("result") == expected, None
            if kind == "warm_get":
                data = client.result(spec.spec_hash)
                return data.get("result") == self.expected[spec.spec_hash], None
            if kind == "cold":
                submitted, final = client.submit_and_wait(document, timeout=60)
                ok = submitted.get("cached") is False and final.get("status") == "done"
                return ok, final.get("result")
            try:
                client.submit(document)
            except ServiceError as exc:
                return exc.status == 400 and exc.payload.get("error") == "invalid-spec", None
            return False, "invalid spec accepted"
        except Exception as exc:  # refused, reset or timed out
            return False, repr(exc)

    def loop(self, requests: list, tracer: "Tracer | None") -> dict:
        records: list = [None] * len(requests)

        def drive(lane: int) -> None:
            for index in range(lane, len(requests), 2):
                kind, spec, document = requests[index]
                start = time.perf_counter()
                if tracer is not None:
                    with tracer.span(f"request.{kind}", request=index):
                        ok, detail = self.request(kind, spec, document)
                else:
                    ok, detail = self.request(kind, spec, document)
                records[index] = (kind, [start, time.perf_counter() - start], ok, detail)

        lanes = [threading.Thread(target=drive, args=(lane,)) for lane in range(2)]
        start = time.perf_counter()
        for lane in lanes:
            lane.start()
        for lane in lanes:
            lane.join()
        return {"loop": [start, time.perf_counter() - start], "records": records}

    def check_loop(self, requests: list, outcome: dict) -> None:
        """Score every request, then the invariants over the whole loop."""
        metrics = self.client.metrics()
        cold_results = {}
        for index, (kind, _timing, ok, detail) in enumerate(outcome["records"]):
            self.run.attempted += 1
            if kind == "cold" and ok:
                cold_results[requests[index][1].spec_hash] = detail
            if not ok:
                self.run.failed += 1
                self.run.fail(f"service_mix request {index} ({kind}): {detail}")
        # Each cold hash was simulated exactly once, and its answer is the
        # warehouse row the worker committed.
        n_cold = sum(1 for kind, _spec, _doc in requests if kind == "cold")
        submitted = metrics["jobs_submitted"] - self.baseline["jobs_submitted"]
        if submitted != n_cold or metrics["jobs_failed"] or metrics["jobs_deduplicated"]:
            self.run.failed += 1
            self.run.fail(f"service_mix: {submitted} cold jobs for {n_cold} cold specs: {metrics}")
        with ResultsWarehouse.for_cache_dir(self.warehouse, readonly=True) as warehouse:
            for spec_hash, result in cold_results.items():
                entry = warehouse.load_by_result_key(spec_hash)
                row = entry and json_round(result_document("scenario", spec_hash, entry["result"]))
                if row != result:
                    self.run.failed += 1
                    self.run.fail(f"service_mix: cold {spec_hash[:12]} differs from its row")
        self.metrics_after = metrics

    def check_expected(self) -> None:
        """Warm answers were compared with these documents; they must be
        both the warehouse row and a direct simulate() of the spec."""
        with ResultsWarehouse.for_cache_dir(self.warehouse, readonly=True) as warehouse:
            for spec in self.warm:
                expected = self.expected[spec.spec_hash]
                entry = warehouse.load_by_result_key(spec.spec_hash)
                row = entry and json_round(
                    result_document("scenario", spec.spec_hash, entry["result"])
                )
                direct = json_round(
                    result_document("scenario", spec.spec_hash, simulate(spec))
                )
                if not expected == row == direct:
                    self.run.failed += 1
                    self.run.fail(f"service_mix: warm {spec.spec_hash[:12]} is not the simulated answer")

    def summarize(self, outcome: dict) -> dict:
        """The (start, seconds) of every warm and every cold request."""
        split: dict = {"warm": [], "cold": []}
        for kind, timing, _ok, _detail in outcome["records"]:
            if kind.startswith("warm"):
                split["warm"].append(timing)
            elif kind == "cold":
                split["cold"].append(timing)
        return split

    def measure(self) -> dict:
        requests = self.plan(cold_offset=0)
        outcome = self.loop(requests, tracer=None)
        rss = self.server_peak_rss_mb()
        self.check_loop(requests, outcome)
        self.stop_server()
        self.check_expected()
        split = self.summarize(outcome)
        return {
            "timings": {"loop": outcome["loop"], "warm": split["warm"], "cold": split["cold"]},
            "requests": len(requests),
            "peak_rss_mb": rss,
            "golden_checked": len(self.warm),
        }

    def traced(self) -> dict:
        # Untraced loop first, for the tracing overhead.
        requests = self.plan(cold_offset=0)
        untraced = self.loop(requests, tracer=None)
        self.check_loop(requests, untraced)
        self.stop_server()
        profile_path = os.path.join(self.run.workdir, "server.prof")
        self.start_server(profile=profile_path)
        tracer = Tracer()
        samples = {"depth": [], "busy": []}
        done = threading.Event()

        def poll_metrics() -> None:
            while not done.wait(0.05):
                try:
                    metrics = self.client.metrics()
                except Exception:  # the loop's own requests report failures
                    continue
                samples["depth"].append(metrics["queue_depth"])
                samples["busy"].append(metrics["worker_utilization"])

        poller = threading.Thread(target=poll_metrics, name="metrics-poller")
        poller.start()
        try:
            requests = self.plan(cold_offset=2048)
            outcome = self.loop(requests, tracer=tracer)
        finally:
            done.set()
            poller.join()
        self.check_loop(requests, outcome)
        metrics_after = self.metrics_after
        self.stop_server()
        self.check_expected()
        split = self.summarize(outcome)
        profile = layer_profile(pstats.Stats(profile_path), self.run.layers)
        metrics = layer_metrics(profile, tracer, nothing_seen())
        # The warm-path public functions, over the keys the loop sent.
        warm = [spec for kind, spec, _doc in requests if kind.startswith("warm")]
        documents = [document for kind, _spec, document in requests if kind.startswith("warm")]
        parse_us = median_us(parse_spec_document, documents)
        parsed = [parse_spec_document(document) for document in documents]
        hash_us = median_us(lambda spec: spec.spec_hash, parsed)

        def load(spec_hash: str) -> None:
            with ResultsWarehouse.for_cache_dir(self.warehouse, readonly=True) as warehouse:
                warehouse.load(SCENARIO_FUNC, spec_hash)

        load_ms = []
        for spec in warm:
            start = time.perf_counter()
            load(spec.spec_hash)
            load_ms.append((time.perf_counter() - start) * 1000)
        store_ms = []
        scratch = os.path.join(self.run.workdir, "restore")
        cold = [spec for kind, spec, _doc in requests if kind == "cold"]
        with ResultsWarehouse.for_cache_dir(self.warehouse, readonly=True) as source, \
                ResultsWarehouse.for_cache_dir(scratch) as target:
            for spec in cold:
                report = source.load(SCENARIO_FUNC, spec.spec_hash)
                start = time.perf_counter()
                target.store(SCENARIO_FUNC, spec.spec_hash, report, spec.canonical_json())
                store_ms.append((time.perf_counter() - start) * 1000)
        hits = metrics_after["warehouse_hits"]
        lookups = hits + metrics_after["warehouse_misses"]
        warm_p50 = statistics.median(seconds * 1000 for _start, seconds in split["warm"])
        metrics.update({
            "scenario.parse_us": parse_us,
            "scenario.hash_us": hash_us,
            "results.load_ms_p50": statistics.median(load_ms),
            "results.load_ms_p99": percentile(load_ms, 99),
            "results.store_ms_p50": statistics.median(store_ms),
            "results.hit_ratio": hits / lookups if lookups else 0.0,
            "service.overhead_ms": warm_p50 - (parse_us + hash_us) / 1000 - statistics.median(load_ms),
            "service.cold_p50_ms": statistics.median(
                seconds * 1000 for _start, seconds in self.summarize(untraced)["cold"]
            ),
            "service.jobs_deduplicated": metrics_after["jobs_deduplicated"],
            "service.queue_depth_max": max(samples["depth"], default=0),
            "service.worker_busy_frac": statistics.fmean(samples["busy"]) if samples["busy"] else 0.0,
            "trace.overhead": outcome["loop"][1] / untraced["loop"][1],
        })
        return {
            "metrics": metrics,
            "tracer": tracer,
            "layer_self_s": profile["self_s"],
            "golden_checked": len(self.warm),
        }

    def close(self) -> None:
        self.stop_server()


WORKLOADS = {
    "cold_job": ColdJob,
    "staging_pass": StagingPass,
    "rush_hour": RushHour,
    "service_mix": ServiceMix,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--golden", default=GOLDEN_PATH)
    parser.add_argument("--out", required=True, help="directory for scratch and trace files")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--record-golden", action="store_true",
        help="write this run's cold-answer digests into --golden (default seed only)",
    )
    args = parser.parse_args(argv)
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error("goldens are recorded for the default seed only")
    run = Run(args)
    workload = WORKLOADS[args.workload](run)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = workload.traced() if args.trace else workload.measure()
    finally:
        workload.close()
        run.close()
    tracer = result.pop("tracer", None)
    if tracer is not None:
        spans = os.path.join(args.out, f"{args.workload}-seed{args.seed}-spans.json")
        tracer.dump(spans)
        result["spans_file"] = os.path.relpath(spans)
    result.update(
        reference=run.reference,
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
