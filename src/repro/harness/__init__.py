"""The experiment harness: regenerate every table of the paper.

Each experiment module produces an :class:`ExperimentResult` holding
paper-vs-measured tables (rendered with :mod:`repro.perf.report`) plus
the raw metrics the benchmark suite asserts on.  ``python -m
repro.harness.cli run all`` reproduces everything in one go.
"""

from repro.harness.experiments import ExperimentResult, REGISTRY, register, run_experiment
from repro.harness.sweep import SweepRunner, sweep_scenarios

__all__ = [
    "ExperimentResult",
    "REGISTRY",
    "SweepRunner",
    "register",
    "run_experiment",
    "sweep_scenarios",
]
