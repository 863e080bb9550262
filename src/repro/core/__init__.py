"""The paper's primary contribution: the Pynamic benchmark.

- :mod:`repro.core.config` — the user-facing knobs (module/utility counts,
  average functions per library, call depth, seed, ...),
- :mod:`repro.core.generator` — the shared-object generator (Section III),
- :mod:`repro.core.specs` — the intermediate representation of generated
  modules/utilities/functions,
- :mod:`repro.core.builds` — the Vanilla / Link / Link+Bind build modes,
- :mod:`repro.core.driver` — the Pynamic driver (import-all, visit-all,
  MPI test, startup/import/visit metrics),
- :mod:`repro.core.runner` — one-call benchmark runs on a simulated node,
- :mod:`repro.core.job` — N-task jobs (the analytic rank-0 fast path);
  every job is built from a :class:`repro.scenario.spec.ScenarioSpec`,
- :mod:`repro.core.multirank` — the multi-rank discrete-event engine
  with per-rank skew, heterogeneity scenarios and the
  library-distribution overlay hook (:mod:`repro.dist`),
- :mod:`repro.core.presets` — configurations incl. the LLNL multiphysics
  model from Section IV.
"""

from repro.core.config import PynamicConfig
from repro.core.specs import (
    BenchmarkSpec,
    FunctionSpec,
    ModuleSpec,
    SystemLibSpec,
    UtilitySpec,
)
from repro.core.generator import generate
from repro.core.builds import BuildImage, BuildMode, build_benchmark
from repro.core.driver import DriverReport, PynamicDriver
from repro.core.runner import BenchmarkRunner, RunResult
from repro.core.job import JobReport, PynamicJob
from repro.core.multirank import MultiRankJob
from repro.dist.topology import DistributionSpec, Topology
from repro.core import presets

__all__ = [
    "BenchmarkRunner",
    "BenchmarkSpec",
    "BuildImage",
    "BuildMode",
    "DistributionSpec",
    "DriverReport",
    "FunctionSpec",
    "JobReport",
    "ModuleSpec",
    "MultiRankJob",
    "PynamicConfig",
    "PynamicDriver",
    "PynamicJob",
    "RunResult",
    "SystemLibSpec",
    "Topology",
    "UtilitySpec",
    "build_benchmark",
    "generate",
    "presets",
]
