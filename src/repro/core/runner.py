"""One-call benchmark runs: machine + build + driver.

The :class:`BenchmarkRunner` wires everything together the way a Pynamic
invocation on Zeus would: stage the generated DLLs on NFS, (optionally)
pre-warm the node's disk buffer cache — Table I/II runs were warm-cache;
Table IV explicitly contrasts cold vs. warm — launch the process, run the
dynamic loader and the interpreter, then hand control to the driver.
That rank lifecycle is :func:`rank_steps`, the one generator both job
engines run: drained here, interleaved by the multi-rank engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from repro.core.builds import BuildImage, BuildMode, build_benchmark
from repro.core.config import PynamicConfig
from repro.core.driver import DriverReport, PynamicDriver
from repro.core.generator import generate
from repro.core.specs import BenchmarkSpec
from repro.elf.symbols import HashStyle
from repro.errors import ConfigError
from repro.linker.dynamic import DynamicLinker
from repro.machine.cluster import Cluster
from repro.machine.context import ClockContext, ExecutionContext
from repro.machine.node import Node
from repro.machine.osprofile import OsProfile, linux_chaos
from repro.machine.scheduler import drain
from repro.mpi.api import MpiSession
from repro.perf.tracing import EventTrace
from repro.rng import SeededRng


@dataclass
class RunResult:
    """Everything one benchmark run produced."""

    mode: BuildMode
    report: DriverReport
    build: BuildImage
    cluster: Cluster
    linker: DynamicLinker

    @property
    def total_s(self) -> float:
        """Table I total (startup + import + visit)."""
        return self.report.total_s


class BenchmarkRunner:
    """Run one build configuration of a generated benchmark."""

    def __init__(
        self,
        config: PynamicConfig | None = None,
        spec: BenchmarkSpec | None = None,
        mode: BuildMode = BuildMode.VANILLA,
        cluster: Cluster | None = None,
        os_profile: OsProfile | None = None,
        n_tasks: int = 1,
        warm_file_cache: bool = True,
        hash_style: HashStyle = HashStyle.SYSV,
        prelink: bool = False,
        trace: "EventTrace | None" = None,
    ) -> None:
        if spec is None and config is None:
            raise ConfigError("provide a config or a pre-generated spec")
        self.spec = spec if spec is not None else generate(config)  # type: ignore[arg-type]
        self.mode = mode
        self.cluster = cluster or Cluster(n_nodes=1)
        self.os_profile = os_profile or linux_chaos()
        self.n_tasks = n_tasks
        self.warm_file_cache = warm_file_cache
        self.hash_style = hash_style
        self.prelink = prelink
        self.trace = trace

    def run(self) -> RunResult:
        """Build, load and drive the benchmark; returns the results."""
        cluster = self.cluster
        build = build_benchmark(
            self.spec, cluster.nfs, self.mode, hash_style=self.hash_style
        )
        for image in build.images.values():
            cluster.file_store.add(image)
        node = cluster.nodes[0]
        if self.warm_file_cache:
            # Model prior activity (build, previous run) leaving the DLLs
            # in the node's disk cache; no simulated time elapses.
            for image in build.images.values():
                node.buffer_cache.read(image)
        mpi_session = None
        if getattr(self.spec.config, "mpi_test", False):
            mpi_session = MpiSession(cluster=cluster, n_tasks=self.n_tasks)
        driver = drain(
            rank_steps(
                node,
                build,
                self.os_profile,
                SeededRng(getattr(self.spec.config, "seed", 0)),
                launch=_launcher_latency,
                prelink=self.prelink,
                trace=self.trace,
                mpi_session=mpi_session,
            )
        )
        return RunResult(
            mode=self.mode,
            report=driver.finish(),
            build=build,
            cluster=cluster,
            linker=driver.linker,
        )


def _launcher_latency(ctx: ClockContext) -> None:
    """Job launcher (srun) latency, the same for every rank."""
    ctx.stall_seconds(ctx.costs.job_launch_latency_s)


def rank_steps(
    node: Node,
    build: BuildImage,
    profile: OsProfile,
    rng: SeededRng,
    launch: Callable[[ClockContext], None],
    *,
    prelink: bool = False,
    router: "object | None" = None,
    trace: "EventTrace | None" = None,
    mpi_session: "MpiSession | None" = None,
    on_driver: "Callable[[PynamicDriver], None] | None" = None,
    on_mark: "Callable[[str], None] | None" = None,
) -> Generator[None, None, PynamicDriver]:
    """One rank's lifecycle as a resumable generator; returns its driver.

    Spawn (``rng`` draws the load addresses), ``launch(ctx)`` (launcher
    latency, plus per-rank jitter on the multi-rank engine), exec and
    the dynamic loader one shared object per step, the interpreter
    boot, then the driver's import and visit steps.  The analytic
    runner drains it; the multi-rank engine interleaves it with the
    other ranks.  ``on_driver`` hears the driver before its first step.
    """
    env = {}
    if build.mode is BuildMode.LINKED_BIND_NOW:
        env["LD_BIND_NOW"] = "1"
    process = node.spawn(profile=profile, env=env, rng=rng)
    ctx = ExecutionContext(process)
    launch(ctx)
    yield
    linker = DynamicLinker(
        build.registry, prelink=prelink, trace=trace, router=router  # type: ignore[arg-type]
    )
    yield from linker.start_program_steps(process, build.executable, ctx)
    ctx.work(ctx.costs.interpreter_boot_instructions)
    driver = PynamicDriver(
        build=build,
        linker=linker,
        process=process,
        ctx=ctx,
        mpi_session=mpi_session,
    )
    if on_driver is not None:
        on_driver(driver)
    yield
    yield from driver.steps(on_mark)
    return driver
