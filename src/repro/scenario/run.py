"""The one entry point: ``simulate(spec) -> JobReport``.

Every layer consumes the same :class:`ScenarioSpec`; this module is the
thin bridge from the declarative value to the engines.  It is a plain
top-level function of one picklable argument, so the sweep runner can
fan calls out across worker processes directly.

``simulate(spec, cache_dir=...)`` routes the single point through the
sweep runner's disk layer — the SQLite results warehouse
(:mod:`repro.results`) — so a one-off job (the CLI's ``job
--cache-dir``) shares cache entries with every sweep that evaluated
the same canonical spec hash, and its report lands in the warehouse
for ``results query``.
"""

from __future__ import annotations

from repro.scenario.spec import ScenarioSpec


def simulate(
    spec: ScenarioSpec,
    cache_dir: "str | None" = None,
    runner: "object | None" = None,
) -> "object":
    """Run one scenario with its declared engine; returns a
    :class:`repro.core.job.JobReport`.

    With ``cache_dir`` (or an explicit :class:`SweepRunner` via
    ``runner``) the point is memoized through the results warehouse
    under its canonical spec hash — a warm entry replays instead of
    re-simulating.
    """
    if cache_dir is None and runner is None:
        from repro.core.job import PynamicJob

        return PynamicJob(spec).run()
    from repro.harness.sweep import SweepRunner, sweep_scenarios

    if runner is None:
        runner = SweepRunner(workers=1, cache_dir=cache_dir)
    return sweep_scenarios([spec], runner=runner)[0]
