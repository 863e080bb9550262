"""Experiment plumbing: results, registry, lookup.

Experiments are registered callables producing an
:class:`ExperimentResult`.  A factory may accept keyword parameters
(``engine=``, ``distribution=``, ``node_counts=`` ...);
:func:`run_experiment` forwards only the overrides a factory's signature
actually declares, so the CLI can pass one set of knobs to every
experiment and each picks up what it understands.

A simulated cell is one :class:`ScenarioSpec`.  A factory that
simulates takes ``runner=`` and evaluates its cells with
:meth:`ExperimentResult.sweep`, which declares exactly the specs it
runs, so every cell of the ``--json`` ``scenarios`` block is one
warehouse row.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ConfigError
from repro.harness.sweep import (
    DEFAULT_RUNNER,
    SweepRunner,
    _eval_scenario_point,
)
from repro.perf.report import render_table


@dataclass
class ExperimentResult:
    """One regenerated paper artifact."""

    name: str
    paper_reference: str
    tables: list[tuple[str, Sequence[str], Sequence[Sequence[object]]]] = field(
        default_factory=list
    )
    notes: list[str] = field(default_factory=list)
    #: Raw numbers for benchmark assertions (ratios, orderings).
    metrics: dict[str, float] = field(default_factory=dict)
    #: The experiment's grid as serialized :class:`ScenarioSpec`s — the
    #: declarative record of *what was parameterized*, emitted in the
    #: ``--json`` payload and validated against the published schema by
    #: the tier-1 registry smoke.
    scenarios: list[dict] = field(default_factory=list)

    def declare_scenario(self, *specs: object) -> None:
        """Record the :class:`ScenarioSpec`(s) this experiment ran."""
        for spec in specs:
            data = spec.to_dict()  # type: ignore[attr-defined]
            if data not in self.scenarios:
                self.scenarios.append(data)

    def sweep(
        self,
        specs: "Sequence[object]",
        runner: SweepRunner,
        evaluate: Callable[[object], object] = _eval_scenario_point,
    ) -> list:
        """Declare ``specs`` and evaluate each through ``runner``: a full
        job by default, or e.g. a staging-only pass."""
        self.declare_scenario(*specs)
        return runner.map_specs(evaluate, specs)

    def add_table(
        self,
        title: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
    ) -> None:
        """Attach a rendered table to the result."""
        self.tables.append((title, headers, rows))

    def render(self) -> str:
        """Human-readable report."""
        parts = [f"== {self.name} ({self.paper_reference}) =="]
        for title, headers, rows in self.tables:
            parts.append(render_table(headers, rows, title=title))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    def to_json_dict(self) -> dict:
        """A JSON-serializable view (for ``--json`` / benchmark files)."""
        return {
            "name": self.name,
            "paper_reference": self.paper_reference,
            "tables": [
                {
                    "title": title,
                    "headers": list(headers),
                    "rows": [[str(cell) for cell in row] for row in rows],
                }
                for title, headers, rows in self.tables
            ],
            "metrics": dict(self.metrics),
            "notes": list(self.notes),
            "scenarios": [dict(scenario) for scenario in self.scenarios],
        }


#: name -> zero-argument callable producing an ExperimentResult.
REGISTRY: dict[str, Callable[[], ExperimentResult]] = {}


def register(name: str) -> Callable[[Callable[[], ExperimentResult]], Callable[[], ExperimentResult]]:
    """Decorator registering an experiment under ``name``."""

    def wrap(func: Callable[[], ExperimentResult]) -> Callable[[], ExperimentResult]:
        if name in REGISTRY:
            raise ConfigError(f"experiment {name!r} registered twice")
        REGISTRY[name] = func
        return func

    return wrap


def _import_experiments() -> None:
    """Import the experiment modules lazily so registration happens on use."""
    from repro.harness import (  # noqa: F401
        ablations,
        costmodel_exp,
        job_scaling,
        mitigation,
        mitigation_scaled,
        resilience,
        rush_hour,
        scaling,
        staging_exp,
        table1,
        table2,
        table3,
        table4,
    )


def run_experiment(
    name: str, cache_dir: "str | None" = None, **overrides: object
) -> ExperimentResult:
    """Run a registered experiment by name.

    Every simulated cell goes through one :class:`SweepRunner`:
    ``SweepRunner(cache_dir=...)`` when ``cache_dir`` is given (the
    cells memoize in that directory's results warehouse and the result
    gains ``sweep_cache_hits``/``misses``/``corrupt`` metrics), else the
    process-wide :data:`DEFAULT_RUNNER`.  It is passed to every factory
    that takes ``runner``; ``cache_dir`` is dropped silently elsewhere,
    since those experiments simulate no cell.

    ``overrides`` (e.g. ``engine="multirank"``,
    ``distribution=DistributionSpec(...)``) are forwarded to the
    experiment factory — but only the keywords its signature declares;
    the rest are dropped with a warning so one override set fits every
    experiment without misattributing results.  ``None`` values are
    treated as "not specified".  ``smoke=True`` is a harness-level knob
    (scale the workload down to seconds for CI registry sweeps): it is
    forwarded to factories that declare it and dropped *silently*
    elsewhere — experiments that are already seconds-fast simply have
    no smoke mode.
    """
    _import_experiments()
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; available: {sorted(REGISTRY)}"
        ) from None
    accepted = inspect.signature(factory).parameters
    kwargs = {}
    dropped = []
    for key, value in overrides.items():
        if value is None:
            continue
        if key in accepted:
            kwargs[key] = value
        elif key != "smoke":
            dropped.append(key)
    if dropped:
        warnings.warn(
            f"experiment {name!r} does not take {sorted(dropped)}; "
            "the overrides were ignored",
            stacklevel=2,
        )
    if "runner" not in accepted:
        return factory(**kwargs)
    if not cache_dir:
        return factory(runner=DEFAULT_RUNNER, **kwargs)
    runner = SweepRunner(cache_dir=cache_dir)
    with runner.warehouse:
        result = factory(runner=runner, **kwargs)
    # A nonzero corrupt count means warehouse rows existed but could not
    # be replayed (torn payloads, schema-version drift): shown here
    # instead of silently inflating the miss column.
    result.metrics["sweep_cache_hits"] = float(runner.hits)
    result.metrics["sweep_cache_misses"] = float(runner.misses)
    result.metrics["sweep_cache_corrupt"] = float(runner.corrupt)
    if runner.corrupt:
        result.notes.append(
            f"sweep cache reported {runner.corrupt} corrupt disk "
            f"entr{'y' if runner.corrupt == 1 else 'ies'} (recomputed; "
            f"see the warehouse warnings above)"
        )
    return result


def all_experiment_names() -> list[str]:
    """Names of all registered experiments."""
    _import_experiments()
    return sorted(REGISTRY)
