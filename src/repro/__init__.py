"""repro — a reproduction of "Pynamic: the Python Dynamic Benchmark".

Lee, Ahn, de Supinski, Gyllenhaal, Miller (LLNL), IISWC 2007,
UCRL-CONF-232621.

The package pairs a faithful re-implementation of the Pynamic *generator*
(configurable Python modules + utility libraries + driver) with a
simulated execution substrate — ELF images, a glibc-style dynamic linker
with lazy/eager binding, demand paging, Opteron-style caches, NFS + disk
buffer caches, a pyMPI-like MPI layer and a TotalView-like parallel
debugger — so that the paper's Tables I-IV can be regenerated on a
laptop.  See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro.core.config import PynamicConfig
from repro.core.generator import generate
from repro.core.builds import BuildMode, build_benchmark
from repro.core.driver import DriverReport, PynamicDriver
from repro.core.runner import BenchmarkRunner, RunResult
from repro.core import presets
from repro.scenario import Scenario, ScenarioSpec, scenario_preset, simulate

__version__ = "1.1.0"

__all__ = [
    "BenchmarkRunner",
    "BuildMode",
    "DriverReport",
    "PynamicConfig",
    "PynamicDriver",
    "RunResult",
    "Scenario",
    "ScenarioSpec",
    "build_benchmark",
    "generate",
    "presets",
    "scenario_preset",
    "simulate",
    "__version__",
]
