"""The Pynamic driver (Section III).

"Pynamic also creates a Python driver script.  This script imports all
generated modules and executes each module's entry function.  In the
presence of pyMPI, the driver will also perform a test of the MPI
functionality. ... the Pynamic driver can also gather performance metrics
including the job startup time, module import time, function visit time,
and the MPI test time."

This module *interprets* the generated benchmark against the simulated
machine: imports go through the dynamic linker's dlopen/dlsym, visits walk
the generated call chains (entry -> every ``max_depth``-th function ->
chained successors), and every call through an unresolved PLT slot pays
the lazy-binding cost.  PAPI-style counters bracket the import and visit
phases exactly as the paper's instrumented driver does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.cache.hierarchy import MissCounts
from repro.core.builds import BuildImage
from repro.core.specs import FunctionSpec, ModuleSpec
from repro.elf.linkmap import LoadedObject
from repro.elf.sections import SectionKind
from repro.errors import DriverError
from repro.linker.dynamic import DynamicLinker
from repro.machine.context import ExecutionContext
from repro.machine.scheduler import SteppedProgram, drain
from repro.machine.node import Process
from repro.perf.papi import PapiCounters
from repro.perf.timers import PhaseTimer


@dataclass
class DriverReport:
    """The metrics the paper's driver gathers (Table I columns)."""

    mode: str
    startup_s: float
    import_s: float
    visit_s: float
    mpi_s: float
    counters: dict[str, MissCounts] = field(default_factory=dict)
    modules_imported: int = 0
    functions_visited: int = 0
    lazy_fixups: int = 0
    eager_plt_resolutions: int = 0
    major_fault_bytes: int = 0

    @property
    def total_s(self) -> float:
        """Table I's "total" column: startup + import + visit."""
        return self.startup_s + self.import_s + self.visit_s


class PynamicDriver(SteppedProgram):
    """Imports every generated module and visits every function.

    :meth:`steps` runs the import and visit phases one module at a
    time; :meth:`run` drains them and adds the MPI test.  Both job
    engines drive the same steps (see :func:`repro.core.runner.rank_steps`).
    """

    def __init__(
        self,
        build: BuildImage,
        linker: DynamicLinker,
        process: Process,
        ctx: ExecutionContext,
        papi: PapiCounters | None = None,
        mpi_session: "object | None" = None,
    ) -> None:
        self.build = build
        self.linker = linker
        self.process = process
        self.ctx = ctx
        self.papi = papi or PapiCounters(ctx.node.hierarchy)
        self.mpi_session = mpi_session
        self._handles: dict[str, LoadedObject] = {}
        self._functions_visited = 0
        self._startup_s = 0.0
        self._timer: PhaseTimer | None = None
        self._fixups_before = 0
        self._eager_before = 0
        size_model = getattr(build.spec.config, "size_model", None)
        self._bytes_per_instruction = (
            size_model.text_bytes_per_instruction if size_model else 3.5
        )

    # ------------------------------------------------------------------
    def run(self) -> DriverReport:
        """Execute the full driver: import all, visit all, MPI test."""
        drain(self.steps())
        return self.finish()

    def steps(
        self, on_mark: "Callable[[str], None] | None" = None
    ) -> Generator[None, None, None]:
        """Import then visit every module, yielding after each one.

        ``on_mark`` (when set) hears each phase mark — ``"startup"``,
        then ``"+import"``/``"-import"`` and ``"+visit"``/``"-visit"`` —
        at the clock reading the phase timer takes, so a rank trace can
        replay the timer on another rank's clock.
        """
        ctx = self.ctx
        if self.process.link_map is None:
            raise DriverError("program was not started before running the driver")
        # Startup: "the time between program invocation and the first
        # line of code", measured the way the paper does (timestamp at
        # invocation compared against the driver's first line).
        self._startup_s = ctx.seconds - self.process.invoked_at
        self._timer = timer = PhaseTimer(ctx.node.clock)
        self._fixups_before = self.linker.lazy_fixups
        self._eager_before = self.linker.eager_plt_resolutions
        if on_mark is not None:
            on_mark("startup")
        for phase, run in (
            ("import", self._import_module),
            ("visit", self._visit_module),
        ):
            timer.start(phase)
            self.papi.start(phase)
            if on_mark is not None:
                on_mark("+" + phase)
            for module in self.build.spec.modules:
                run(module)
                yield
            self.papi.stop(phase)
            timer.stop(phase)
            if on_mark is not None:
                on_mark("-" + phase)

    def finish(self) -> DriverReport:
        """The MPI self-test (with a session), then :meth:`report`.

        The multi-rank engine instead synchronizes all ranks, runs the
        collective once and hands each rank its wait to :meth:`report`.
        """
        mpi_s = 0.0
        if self.mpi_session is not None:
            timer = self._started()
            with timer.phase("mpi"):
                self.mpi_session.run_selftest(self.ctx)
            mpi_s = timer.get("mpi")
        return self.report(mpi_s)

    def outputs(self) -> dict:
        """The report fields that do not depend on the rank's clock."""
        return dict(
            counters=dict(self.papi.phases),
            modules_imported=len(self._handles),
            functions_visited=self._functions_visited,
            lazy_fixups=self.linker.lazy_fixups - self._fixups_before,
            eager_plt_resolutions=(
                self.linker.eager_plt_resolutions - self._eager_before
            ),
            major_fault_bytes=self.ctx.major_fault_bytes,
        )

    def report(self, mpi_s: float) -> DriverReport:
        """The :class:`DriverReport` once :meth:`steps` has run."""
        timer = self._started()
        return DriverReport(
            mode=self.build.mode.value,
            startup_s=self._startup_s,
            import_s=timer.get("import"),
            visit_s=timer.get("visit"),
            mpi_s=mpi_s,
            **self.outputs(),
        )

    def _started(self) -> PhaseTimer:
        if self._timer is None:
            raise DriverError("driver never ran its steps")
        return self._timer

    # ------------------------------------------------------------------
    # import phase
    # ------------------------------------------------------------------
    def _import_module(self, module: ModuleSpec) -> None:
        """``import module_nnnn`` : dlopen + dlsym(init) + run init."""
        ctx = self.ctx
        costs = ctx.costs
        ctx.work(costs.py_import_overhead_instructions)
        handle = self.linker.dlopen(
            self.process, ctx, module.soname, now=True, global_scope=False
        )
        self._handles[module.name] = handle
        self.linker.dlsym(self.process, ctx, handle, module.init_name)
        # Run the init function: fetch its code, create the module object,
        # register the entry method.
        init_symbol = handle.shared_object.symbol_table.get(module.init_name)
        if init_symbol is None:
            raise DriverError(f"{module.name} exports no init function")
        ctx.ifetch(handle.symbol_value_addr(init_symbol), init_symbol.size)
        ctx.work(costs.py_module_init_instructions)
        self.linker.call_external(self.process, ctx, handle, "Py_InitModule4")
        data_base = handle.base(SectionKind.DATA)
        for slot in range(2):  # entry method + module doc slot
            ctx.work(costs.method_register_instructions)
            ctx.dwrite(data_base + 64 * slot, 32)

    # ------------------------------------------------------------------
    # visit phase
    # ------------------------------------------------------------------
    def _visit_module(self, module: ModuleSpec) -> None:
        """Call the module's entry function, which visits every chain."""
        ctx = self.ctx
        costs = ctx.costs
        handle = self._handles.get(module.name)
        if handle is None:
            raise DriverError(f"{module.name} was never imported")
        ctx.work(costs.py_call_overhead_instructions)
        entry_symbol = handle.shared_object.symbol_table.get(module.entry_name)
        if entry_symbol is None:
            raise DriverError(f"{module.name} exports no entry function")
        ctx.ifetch(handle.symbol_value_addr(entry_symbol), entry_symbol.size)
        # The entry parses its (no-)args and builds a return value.
        for api in ("PyArg_ParseTuple", "Py_BuildValue"):
            self.linker.call_external(self.process, ctx, handle, api)
            ctx.work(40)
        for head in module.chain_heads:
            self.linker.call_external(self.process, ctx, handle, head)
            self._run_chain(module, handle, head)

    def _run_chain(
        self, module: ModuleSpec, handle: LoadedObject, head: str
    ) -> None:
        """Execute one call chain: head, then successors to max depth."""
        config = self.build.spec.config
        depth_limit = getattr(config, "max_depth", 10)
        name: str | None = head
        for _ in range(depth_limit):
            if name is None:
                break
            spec = module.function_by_name.get(name)
            if spec is None:
                raise DriverError(f"{module.name} has no function {name!r}")
            self._execute_function(module, handle, spec)
            name = spec.internal_callee
            if name is not None:
                self.linker.call_external(self.process, self.ctx, handle, name)

    def _execute_function(
        self, module: ModuleSpec, handle: LoadedObject, spec: FunctionSpec
    ) -> None:
        """Execute one generated module function's body."""
        ctx = self.ctx
        costs = ctx.costs
        symbol = handle.shared_object.symbol_table.get(spec.name)
        if symbol is None:
            raise DriverError(f"{module.name} exports no symbol {spec.name!r}")
        ctx.ifetch(handle.symbol_value_addr(symbol), symbol.size)
        ctx.work(
            costs.c_call_instructions
            + spec.body_instructions
            + spec.signature.arity * costs.argument_instructions
        )
        if spec.data_touch_bytes:
            # Section V body variation: the function streams over its
            # static data region (past the method-table area).
            ctx.dread(
                handle.base(SectionKind.DATA) + 512 + spec.data_offset,
                spec.data_touch_bytes,
            )
        self._functions_visited += 1
        for callee in spec.libc_calls:
            self.linker.call_external(self.process, ctx, handle, callee)
            ctx.work(60)  # the libc routine itself (hot, resident)
        for callee in (*spec.utility_calls, *spec.cross_module_calls):
            provider, definition = self.linker.resolve_for_call(
                self.process, ctx, handle, callee
            )
            self._execute_external(provider, definition)

    def _execute_external(self, provider: LoadedObject, symbol) -> None:
        """Execute a leaf function in another DSO (utility / cross)."""
        ctx = self.ctx
        ctx.ifetch(provider.symbol_value_addr(symbol), max(16, symbol.size))
        ctx.work(
            ctx.costs.c_call_instructions
            + symbol.size / self._bytes_per_instruction
        )
        self._functions_visited += 1
