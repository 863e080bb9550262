#!/usr/bin/env python3
"""Multi-tenant workloads: a cold-start rush hour on one shared NFS.

The paper measures one job's startup storm; this example builds the
production version — several tenants' jobs arriving on a batch queue,
every one of them cold-starting against the *same* shared filesystem
timeline — and shows what the workload layer reports about it: queue
waits, pooled cold-start percentiles, slowdowns, and how a broadcast
staging overlay flattens the storm.

Run:  PYTHONPATH=src python examples/rush_hour.py
"""

import json

from repro.core.config import PynamicConfig
from repro.core.job import percentile
from repro.core.multirank import MultiRankJob
from repro.dist.topology import DistributionSpec, Topology
from repro.scenario import ScenarioSpec
from repro.workload import (
    TenantSpec,
    WorkloadSpec,
    cold_start_values,
    run_workload,
)


def main() -> None:
    # 1. A tenant's job is just a ScenarioSpec (multirank engine: the
    # workload layer interleaves real rank tasks, not summaries).
    job = ScenarioSpec(
        config=PynamicConfig(
            n_modules=6,
            n_utilities=4,
            avg_functions=16,
            avg_body_instructions=30,
            seed=11,
            name_length=0,
        ),
        engine="multirank",
        n_tasks=4,
        cores_per_node=1,
    )

    # 2. A workload is tenants + arrival processes + a shared cluster.
    # The burst tenant slams 4 cold jobs onto the queue at t=0; the
    # stream tenant trickles jobs in behind it at 0.5 jobs/s.
    workload = WorkloadSpec(
        tenants=(
            TenantSpec(name="burst", scenario=job, n_jobs=4),
            TenantSpec(
                name="stream",
                scenario=job.with_(n_tasks=2),
                n_jobs=4,
                arrival="poisson",
                rate_per_s=0.5,
            ),
        ),
        n_nodes=8,
        policy="backfill",
        seed=1,
    )
    print(f"workload {workload.workload_hash[:16]}: "
          f"{workload.n_jobs} jobs from {len(workload.tenants)} tenants "
          f"on {workload.n_nodes} shared nodes ({workload.policy})")

    # 3. Workload specs are data, like scenario specs: exact JSON
    # round-trips, canonical sha256 stable across processes.
    text = workload.canonical_json()
    assert WorkloadSpec.from_dict(json.loads(text)) == workload

    # 4. Run it.  One event loop drives every rank of every job, so all
    # of them book windows on the same NFS reservation timeline —
    # cross-job contention is emergent, not modeled.
    report = run_workload(workload)
    print(f"makespan {report.makespan_s:.4f}s, "
          f"fairness spread {report.fairness_spread:.3f} "
          f"(p95/p50 of per-job slowdown)")
    for tenant in report.tenants:
        print(f"  {tenant.name:>6}: wait p95 {tenant.wait_p95_s:.4f}s, "
              f"cold-start p95 {tenant.startup_p95_s:.4f}s, "
              f"slowdown p95 {tenant.slowdown_p95:.3f}")

    # 5. The contention premium: the same job run *alone* is the
    # denominator the rush-hour experiment reports against.
    solo = MultiRankJob(job).run()
    solo_p95 = percentile(cold_start_values(solo), 95)
    burst_p95 = report.tenant("burst").startup_p95_s
    print(f"solo cold-start p95 {solo_p95:.4f}s -> "
          f"{burst_p95 / solo_p95:.2f}x under the burst")

    # 6. Mitigation composes: give the burst tenant a pipelined binomial
    # broadcast overlay and the storm reads NFS once per job instead of
    # once per node.
    staged = workload.with_(
        tenants=(
            TenantSpec(
                name="burst",
                scenario=job.with_(
                    distribution=DistributionSpec(
                        topology=Topology.BINOMIAL,
                        pipelined=True,
                        chunk_bytes=1 << 20,
                    )
                ),
                n_jobs=4,
            ),
            workload.tenants[1],
        )
    )
    staged_report = run_workload(staged)
    staged_p95 = staged_report.tenant("burst").startup_p95_s
    print(f"with broadcast staging: cold-start p95 {staged_p95:.4f}s "
          f"({staged_p95 / burst_p95:.2f}x of demand-paged NFS)")


if __name__ == "__main__":
    main()
