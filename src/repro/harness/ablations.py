"""Design-choice ablations drawn from Sections II.B.2, III and V.

- **coverage** (Section V): "Allowing Pynamic to be configured with a
  specified code coverage would allow us to gain further insight
  regarding the benefits of linking the DLLs at link time" — with lazy
  binding, only *visited* functions pay the fixup, so the Link build's
  visit penalty shrinks with coverage while Link+Bind keeps paying for
  everything at startup.
- **address randomization** (Section II.B.2): exec-shield-style layouts
  make per-task link maps heterogeneous, defeating the debugger's shared
  parse and inflating phase 1.
- **name length** (Section III/Table III): long mangled names inflate
  string tables and every strcmp the resolver performs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.codegen.sizes import analytic_totals
from repro.core import presets
from repro.core.builds import BuildMode, build_benchmark
from repro.core.config import PynamicConfig
from repro.core.generator import generate
from repro.harness.experiments import ExperimentResult, register
from repro.harness.sweep import DEFAULT_RUNNER, SweepRunner
from repro.machine.cluster import Cluster
from repro.machine.osprofile import linux_chaos
from repro.scenario.spec import ScenarioSpec
from repro.tools.debugger import ParallelDebugger


def _shrunk(config: PynamicConfig) -> PynamicConfig:
    """The seconds-fast variant of an ablation workload (CI smoke)."""
    return replace(
        config,
        n_modules=max(2, config.n_modules // 2),
        n_utilities=max(1, config.n_utilities // 2),
        avg_functions=min(config.avg_functions, 40),
    )


@register("ablation_coverage")
def run_coverage(
    smoke: bool = False, runner: SweepRunner = DEFAULT_RUNNER
) -> ExperimentResult:
    """A1: visit cost vs. configured code coverage."""
    result = ExperimentResult(
        name="Code-coverage ablation (lazy binding pays per visited function)",
        paper_reference="Section V (future work)",
    )
    base = replace(presets.table1_config(), n_modules=20, n_utilities=15)
    if smoke:
        base = _shrunk(base)
    coverages = (0.25, 0.5, 1.0)
    specs = [
        ScenarioSpec(
            config=replace(base, coverage=coverage),
            mode=BuildMode.LINKED,
            warm_file_cache=True,
        )
        for coverage in coverages
    ]
    rows = []
    visits = {}
    for coverage, job in zip(coverages, result.sweep(specs, runner)):
        report = job.rank0
        visits[coverage] = report.visit_s
        rows.append(
            [coverage, report.visit_s, report.lazy_fixups, report.functions_visited]
        )
    result.add_table(
        "Link-build visit cost vs. coverage",
        ["coverage", "visit(s)", "lazy fixups", "functions visited"],
        rows,
    )
    result.metrics["visit_full_over_quarter"] = visits[1.0] / visits[0.25]
    result.notes.append(
        "real codes do not visit 100% of generated functions; partial "
        "coverage proportionally defers the lazy-binding penalty"
    )
    return result


@register("ablation_randomization")
def run_randomization(smoke: bool = False) -> ExperimentResult:
    """A2: debugger phase 1 with homogeneous vs. randomized link maps."""
    result = ExperimentResult(
        name="Address-randomization ablation (tool shared-parse defeat)",
        paper_reference="Section II.B.2",
    )
    config = replace(presets.table4_config(), avg_functions=100 if smoke else 400)
    result.declare_scenario(
        *(
            ScenarioSpec(
                config=config,
                mode=BuildMode.LINKED,
                n_tasks=32,
                warm_file_cache=True,
                os_profile=profile,
            )
            for profile in ("linux_chaos", "linux_chaos_aslr")
        )
    )
    rows = []
    times = {}
    for randomized in (False, True):
        cluster = Cluster(n_nodes=4)
        spec = generate(config)
        build = build_benchmark(spec, cluster.nfs, BuildMode.LINKED)
        for image in build.images.values():
            cluster.file_store.add(image)
        debugger = ParallelDebugger(
            cluster,
            n_tasks=32,
            os_profile=linux_chaos(randomize_load_addresses=randomized),
        )
        startup = debugger.startup(build, cold=False)
        times[randomized] = startup.phase1_s
        rows.append(
            ["randomized" if randomized else "homogeneous", startup.phase1_s]
        )
    result.add_table(
        "warm phase-1 time (32 tasks on 4 nodes)",
        ["link maps", "phase 1 (s)"],
        rows,
    )
    result.metrics["randomized_over_homogeneous"] = times[True] / times[False]
    result.notes.append(
        "randomized layouts force per-task symbol parsing instead of one "
        "shared parse per node — 'scalable tools require ... as homogeneous "
        "characteristics as possible'"
    )
    return result


@register("ablation_name_length")
def run_name_length(
    smoke: bool = False, runner: SweepRunner = DEFAULT_RUNNER
) -> ExperimentResult:
    """A3: string-table size and import cost vs. symbol-name length."""
    result = ExperimentResult(
        name="Symbol-name-length ablation",
        paper_reference="Section III / Table III",
    )
    base = replace(presets.table1_config(), n_modules=12, n_utilities=9)
    if smoke:
        base = _shrunk(base)
    specs = [
        ScenarioSpec(
            config=replace(base, name_length=name_length),
            warm_file_cache=True,
        )
        for name_length in (32, 128, 236)
    ]
    rows = []
    imports = {}
    strtabs = {}
    for spec, job in zip(specs, result.sweep(specs, runner)):
        name_length = spec.config.name_length
        strtab_mb = analytic_totals(spec.config).as_mb()["String Table"]
        report = job.rank0
        imports[name_length] = report.import_s
        strtabs[name_length] = strtab_mb
        rows.append([name_length, strtab_mb, report.import_s])
    result.add_table(
        "longer names inflate string tables and resolution cost",
        ["name length", "string table (MB)", "vanilla import(s)"],
        rows,
    )
    result.metrics["strtab_growth"] = strtabs[236] / strtabs[32]
    result.metrics["import_growth"] = imports[236] / imports[32]
    return result


@register("ablation_hash_style")
def run_hash_style(
    smoke: bool = False, runner: SweepRunner = DEFAULT_RUNNER
) -> ExperimentResult:
    """A4: SysV hash (2007) vs. DT_GNU_HASH (the later fix).

    The GNU hash's Bloom filter rejects objects that cannot define a
    symbol with a single word read, collapsing the scope-walk cost that
    dominates the Link build's visit — the toolchain world's answer to
    exactly the workload Pynamic models.
    """
    from repro.elf.symbols import HashStyle

    result = ExperimentResult(
        name="Hash-style ablation: SysV vs. DT_GNU_HASH",
        paper_reference="Section IV.A (mechanism) / post-paper toolchain fix",
    )
    config = replace(presets.table1_config(), n_modules=20, n_utilities=15)
    if smoke:
        config = _shrunk(config)
    specs = [
        ScenarioSpec(
            config=config,
            mode=BuildMode.LINKED,
            warm_file_cache=True,
            hash_style=style,
        )
        for style in (HashStyle.SYSV, HashStyle.GNU)
    ]
    rows = []
    visits = {}
    for spec, job in zip(specs, result.sweep(specs, runner)):
        style = spec.hash_style
        report = job.rank0
        visits[style] = report.visit_s
        rows.append(
            [
                style.value,
                report.import_s,
                report.visit_s,
                report.counters["visit"].l1d_misses,
            ]
        )
    result.add_table(
        "Link-build cost under each hash style",
        ["hash style", "import(s)", "visit(s)", "visit L1-D misses"],
        rows,
    )
    result.metrics["sysv_over_gnu_visit"] = (
        visits[HashStyle.SYSV] / visits[HashStyle.GNU]
    )
    result.notes.append(
        "DT_GNU_HASH's Bloom filter turns most scope probes into one "
        "cheap word test — the visit penalty collapses"
    )
    return result


@register("ablation_body_memory")
def run_body_memory(
    smoke: bool = False, runner: SweepRunner = DEFAULT_RUNNER
) -> ExperimentResult:
    """A5: function-body memory footprint (Section V body variation).

    "We also could support varying the generated function bodies to
    represent the static and runtime properties of real codes more
    accurately" — here each function streams over a configurable static
    data region, so even the eagerly bound builds see visit-time data
    misses, and the lazy-binding pollution (Table II) competes with real
    computational cache lines, as the paper theorizes for real HPC codes.
    """
    result = ExperimentResult(
        name="Function-body memory-footprint ablation",
        paper_reference="Section V (future work) / Section IV.A theory",
    )
    base = replace(presets.table1_config(), n_modules=16, n_utilities=12)
    if smoke:
        base = _shrunk(base)
    footprints = (0, 512, 4096)
    specs = [
        ScenarioSpec(
            config=replace(base, memory_bytes_per_function=footprint),
            warm_file_cache=True,
        )
        for footprint in footprints
    ]
    rows = []
    visits = {}
    misses = {}
    for footprint, job in zip(footprints, result.sweep(specs, runner)):
        report = job.rank0
        visits[footprint] = report.visit_s
        misses[footprint] = report.counters["visit"].l1d_misses
        rows.append(
            [footprint, report.visit_s, report.counters["visit"].l1d_misses]
        )
    result.add_table(
        "Vanilla-build visit cost vs. per-function data footprint",
        ["bytes/function", "visit(s)", "visit L1-D misses"],
        rows,
    )
    result.metrics["visit_growth"] = visits[4096] / visits[0]
    result.metrics["miss_growth"] = misses[4096] / max(1, misses[0])
    return result


@register("ablation_prelink")
def run_prelink(
    smoke: bool = False, runner: SweepRunner = DEFAULT_RUNNER
) -> ExperimentResult:
    """A7: prelink(8) — install-time relocation precomputation.

    The contemporary system-software answer to Pynamic-class startup
    cost: relocations are computed once against reserved load addresses,
    so the loader only verifies checksums.  Compared against the three
    paper builds: prelink gets Link+Bind's quiet visit *without* its
    startup penalty.
    """
    result = ExperimentResult(
        name="prelink ablation: install-time relocation precomputation",
        paper_reference="Section V discussion (system-software changes)",
    )
    config = replace(presets.table1_config(), n_modules=20, n_utilities=15)
    if smoke:
        config = _shrunk(config)
    strategies = {
        "link (lazy)": (BuildMode.LINKED, False),
        "link+bind": (BuildMode.LINKED_BIND_NOW, False),
        "link+prelink": (BuildMode.LINKED, True),
    }
    specs = [
        ScenarioSpec(
            config=config, mode=mode, warm_file_cache=True, prelink=prelink
        )
        for mode, prelink in strategies.values()
    ]
    rows = []
    timings = {}
    for label, job in zip(strategies, result.sweep(specs, runner)):
        report = job.rank0
        timings[label] = report
        rows.append(
            [label, report.startup_s, report.import_s, report.visit_s, report.lazy_fixups]
        )
    result.add_table(
        "startup/import/visit under each strategy",
        ["strategy", "startup(s)", "import(s)", "visit(s)", "lazy fixups"],
        rows,
    )
    result.metrics["prelink_visit_over_lazy"] = (
        timings["link+prelink"].visit_s / timings["link (lazy)"].visit_s
    )
    result.metrics["prelink_startup_over_bindnow"] = (
        timings["link+prelink"].startup_s / timings["link+bind"].startup_s
    )
    result.notes.append(
        "prelink removes both the lazy visit penalty and the bind-now "
        "startup penalty — at the cost of address-space rigidity (it is "
        "incompatible with the randomization of Section II.B.2)"
    )
    return result
