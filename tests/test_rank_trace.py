"""Shared compute traces are exact: replayed ranks match live ones.

Every case runs twice: as is, and with trace lookups forced to miss (a
monkeypatch makes every rank's :func:`trace_key` ``None``, so every rank
runs live, as before traces existed).  The two runs must give equal
reports, by ``==`` and by ``repr``, and leave equal windows on the NFS
timelines.  Counters on the jobs show that the traced run did replay
or rebuild where the case is meant to make it.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import presets
from repro.core import multirank as multirank_module
from repro.core.multirank import MultiRankJob
from repro.core.ranktrace import CONTAINS, WAIT, Follower, TraceStore
from repro.dist.topology import DistributionSpec, Topology
from repro.machine.cluster import Cluster
from repro.machine.scheduler import EventScheduler
from repro.scenario import ScenarioSpec
from repro.workload import engine as engine_module
from repro.workload.engine import WorkloadEngine
from repro.workload.presets import workload_preset
from repro.workload.spec import TenantSpec, WorkloadSpec


@pytest.fixture(scope="module")
def tiny():
    return presets.tiny()


def _nfs_windows(cluster) -> tuple:
    nfs = cluster.nfs
    return (
        nfs._reservations.windows,
        nfs._op_reservations.windows,
        nfs.bytes_served,
    )


def _run_job(job: MultiRankJob, traces: TraceStore | None = None):
    cluster = Cluster(n_nodes=job.n_nodes, cores_per_node=job.cores_per_node)
    cluster.nfs.reset_queue()
    cluster.pfs.reset_queue()
    tasks, finalize = job.launch(cluster, traces=traces)
    scheduler = EventScheduler()
    scheduler.run(tasks)
    return finalize(scheduler), _nfs_windows(cluster)


def _live_only(monkeypatch) -> None:
    """Force every trace lookup to miss: each rank runs live."""
    monkeypatch.setattr(multirank_module, "trace_key", lambda *args: None)


def _job(batch_homogeneous: bool = True, **fields) -> MultiRankJob:
    spec = ScenarioSpec(engine="multirank", **fields)
    return MultiRankJob(spec, batch_homogeneous=batch_homogeneous)


def _job_pair(monkeypatch, **kwargs):
    traced_job = _job(**kwargs)
    traced = _run_job(traced_job)
    with monkeypatch.context() as patch:
        _live_only(patch)
        live_job = _job(**kwargs)
        live = _run_job(live_job)
    assert live_job.n_replayed == live_job.n_rebuilt == 0
    return traced_job, traced, live


def _assert_identical(traced, live) -> None:
    (traced_report, traced_windows), (live_report, live_windows) = traced, live
    assert traced_report == live_report
    assert repr(traced_report) == repr(live_report)
    assert traced_windows == live_windows


class _Counts(NamedTuple):
    """Rank counters summed over the jobs of one workload run."""

    simulated: int
    replayed: int
    rebuilt: int


def _run_workload(spec: WorkloadSpec):
    clusters = []
    jobs: list[MultiRankJob] = []

    class _Recorded(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    class _RecordedJob(MultiRankJob):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            jobs.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "Cluster", _Recorded)
        patch.setattr(engine_module, "MultiRankJob", _RecordedJob)
        report = WorkloadEngine(spec).run()
    counts = _Counts(
        simulated=sum(job.n_simulated for job in jobs),
        replayed=sum(job.n_replayed for job in jobs),
        rebuilt=sum(job.n_rebuilt for job in jobs),
    )
    return counts, (report, _nfs_windows(clusters[-1]))


def _workload_pair(monkeypatch, spec: WorkloadSpec):
    counts, traced = _run_workload(spec)
    with monkeypatch.context() as patch:
        _live_only(patch)
        live_counts, live = _run_workload(spec)
    assert live_counts.replayed == live_counts.rebuilt == 0
    return counts, traced, live


def _tiny_rush_hour(tiny, n_jobs: int = 2) -> WorkloadSpec:
    workload = workload_preset("rush_hour")
    (tenant,) = workload.tenants
    scenario = tenant.scenario.with_(config=dataclasses.replace(tiny, seed=3))
    return dataclasses.replace(
        workload,
        tenants=(dataclasses.replace(tenant, scenario=scenario, n_jobs=n_jobs),),
    )


class TestEquivalence:
    def test_tiny_rush_hour(self, monkeypatch, tiny):
        counts, traced, live = _workload_pair(
            monkeypatch, _tiny_rush_hour(tiny, n_jobs=3)
        )
        _assert_identical(traced, live)
        assert counts.replayed == counts.simulated - 1

    def test_cold_two_ranks_per_node_rebuilds(self, monkeypatch, tiny):
        job, traced, live = _job_pair(
            monkeypatch, config=tiny, n_tasks=12, cores_per_node=2
        )
        _assert_identical(traced, live)
        # The node's second rank rides the first one's page cache, so it
        # cannot follow the toucher's trace for long.
        assert job.n_rebuilt > 0

    def test_unbatched_co_resident_ranks(self, monkeypatch, tiny):
        job, traced, live = _job_pair(
            monkeypatch,
            config=tiny,
            n_tasks=9,
            cores_per_node=3,
            batch_homogeneous=False,
        )
        _assert_identical(traced, live)
        assert job.n_rebuilt > 0

    def test_launch_jitter_lets_followers_outrun_the_leader(
        self, monkeypatch, tiny
    ):
        job, traced, live = _job_pair(
            monkeypatch,
            config=tiny,
            n_tasks=8,
            cores_per_node=1,
            os_jitter_s=0.01,
        )
        _assert_identical(traced, live)
        assert job.n_rebuilt > 0
        assert job.n_replayed > 0

    def test_binomial_staging_replays_router_waits(self, monkeypatch, tiny):
        traces = TraceStore()
        kwargs = dict(
            config=tiny,
            n_tasks=8,
            cores_per_node=1,
            distribution=DistributionSpec(topology=Topology.BINOMIAL),
        )
        job = _job(**kwargs)
        traced = _run_job(job, traces)
        with monkeypatch.context() as patch:
            _live_only(patch)
            live = _run_job(_job(**kwargs))
        _assert_identical(traced, live)
        assert job.n_replayed == 7
        (trace,) = traces._traces.values()
        assert any(event[0] == WAIT for event in trace)

    def test_stragglers_and_warm_nodes_keep_separate_traces(
        self, monkeypatch, tiny
    ):
        traces = TraceStore()
        kwargs = dict(
            config=tiny,
            n_tasks=8,
            cores_per_node=1,
            straggler_nodes=(1, 3, 5),
            warm_nodes=(2, 6, 7),
        )
        job = _job(**kwargs)
        traced = _run_job(job, traces)
        with monkeypatch.context() as patch:
            _live_only(patch)
            live = _run_job(_job(**kwargs))
        _assert_identical(traced, live)
        # Cold, straggler and warm nodes: three keys, three leaders.
        assert len(traces) == 3
        assert job.n_replayed == 5
        assert job.n_rebuilt == 0

    def test_reused_nodes_diverge_and_rebuild(self, monkeypatch, tiny):
        # Three 4-node jobs run one after another on the same 4 nodes:
        # later jobs find the DLLs in the page cache, answer the cold
        # trace's contains queries differently, and rebuild.
        spec = WorkloadSpec(
            tenants=(
                TenantSpec(
                    name="again",
                    scenario=ScenarioSpec(
                        config=tiny, engine="multirank", n_tasks=4,
                        cores_per_node=1,
                    ),
                    n_jobs=3,
                ),
            ),
            n_nodes=4,
        )
        counts, traced, live = _workload_pair(monkeypatch, spec)
        _assert_identical(traced, live)
        assert counts.simulated == 12
        assert counts.replayed == 3
        assert counts.rebuilt == 8

    def test_mpi_collective_runs_on_a_follower(self, monkeypatch, tiny):
        assert tiny.mpi_test
        job, traced, live = _job_pair(
            monkeypatch,
            config=tiny,
            n_tasks=6,
            cores_per_node=1,
            straggler_nodes=(3, 4, 5),
        )
        _assert_identical(traced, live)
        per_rank = traced[0].per_rank
        slowest = max(range(len(per_rank)), key=lambda r: per_rank[r].total_s)
        # The slowest rank runs the collective through its clock-only
        # context, and every other rank is charged its barrier wait.
        assert isinstance(job._drivers[slowest], Follower)
        assert all(
            rank.mpi_s > per_rank[slowest].mpi_s
            for index, rank in enumerate(per_rank)
            if index != slowest
        )


class TestCounts:
    def test_tiny_rush_hour_runs_one_live_rank(self, tiny):
        counts, _ = _run_workload(_tiny_rush_hour(tiny))
        assert counts.simulated == 16
        assert counts.rebuilt == 0
        assert counts.simulated - counts.replayed == 1

    def test_single_rank_job_records_nothing(self, tiny):
        traces = TraceStore()
        job = _job(config=tiny, n_tasks=1)
        _run_job(job, traces)
        assert len(traces) == 0
        assert job.n_replayed == job.n_rebuilt == 0

    def test_a_key_one_rank_holds_records_nothing(self, tiny):
        traces = TraceStore()
        job = _job(
            config=tiny, n_tasks=4, cores_per_node=1, straggler_nodes=(2,)
        )
        _run_job(job, traces)
        assert len(traces) == 1
        assert job.n_replayed == 2

    def test_randomized_load_addresses_never_share(self, tiny):
        traces = TraceStore()
        job = _job(
            config=tiny,
            n_tasks=4,
            cores_per_node=1,
            os_profile="linux_chaos_aslr",
        )
        _run_job(job, traces)
        assert len(traces) == 0

    def test_cold_trace_checks_contains_answers(self, tiny):
        traces = TraceStore()
        _run_job(_job(config=tiny, n_tasks=3, cores_per_node=1), traces)
        (trace,) = traces._traces.values()
        assert any(event[0] == CONTAINS for event in trace)


_DISTRIBUTIONS = (
    None,
    DistributionSpec(topology=Topology.BINOMIAL),
    DistributionSpec(topology=Topology.BINOMIAL, pipelined=True, chunk_bytes=1 << 16),
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n_tasks=st.integers(min_value=1, max_value=8),
    cores_per_node=st.integers(min_value=1, max_value=3),
    jitter=st.sampled_from([0.0, 0.0, 0.003]),
    distribution=st.sampled_from(_DISTRIBUTIONS),
    stragglers=st.sets(st.integers(min_value=0, max_value=7), max_size=2),
    warm=st.sets(st.integers(min_value=0, max_value=7), max_size=2),
    batch=st.booleans(),
)
def test_random_job_shapes_match_live(
    monkeypatch, tiny, n_tasks, cores_per_node, jitter, distribution,
    stragglers, warm, batch,
):
    n_nodes = -(-n_tasks // cores_per_node)
    _, traced, live = _job_pair(
        monkeypatch,
        config=tiny,
        n_tasks=n_tasks,
        cores_per_node=cores_per_node,
        os_jitter_s=jitter,
        straggler_nodes=tuple(sorted(i for i in stragglers if i < n_nodes)),
        warm_nodes=tuple(sorted(i for i in warm if i < n_nodes)),
        distribution=distribution,
        batch_homogeneous=batch,
    )
    _assert_identical(traced, live)
