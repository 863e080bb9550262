"""Entry point: run a workload, optionally memoized by workload hash."""

from __future__ import annotations

from repro.harness.sweep import SweepRunner
from repro.workload.engine import WorkloadEngine
from repro.workload.report import WorkloadReport
from repro.workload.spec import WorkloadSpec


def _eval_workload_point(spec: WorkloadSpec) -> WorkloadReport:
    """Module-level so the sweep runner's process pool can pickle it."""
    return WorkloadEngine(spec).run()


def run_workload(
    spec: WorkloadSpec,
    cache_dir: str | None = None,
    runner: SweepRunner | None = None,
) -> WorkloadReport:
    """Simulate ``spec``'s whole batch queue to a :class:`WorkloadReport`.

    With ``cache_dir`` (or a ``runner``), the run is keyed by
    ``spec.workload_hash`` in the results warehouse exactly like single
    jobs are keyed by ``spec_hash`` — a repeated run replays from the
    store instead of re-simulating, and the canonical workload JSON is
    stored alongside for provenance.
    """
    if runner is None:
        if cache_dir is None:
            return WorkloadEngine(spec).run()
        runner = SweepRunner(cache_dir=cache_dir)
    [report] = runner.map(
        _eval_workload_point,
        [spec],
        keys=[spec.workload_hash],
        spec_docs=[spec.canonical_json()],
    )
    return report
