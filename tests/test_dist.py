"""The library-distribution overlay: topologies, relay daemons, routing,
golden agreement with the analytic staging closed forms, and the
cold-path co-resident batching that makes large cold jobs tractable."""

from dataclasses import replace

import pytest

from repro.core import presets
from repro.core.builds import BuildMode, build_benchmark
from repro.core.generator import generate
from repro.core.job import PynamicJob
from repro.core.multirank import MultiRankJob, RankPlan
from repro.dist import (
    DistributionOverlay,
    DistributionSpec,
    NodeRouter,
    Topology,
    children_map,
    parent_map,
)
from repro.errors import ConfigError
from repro.fs.nfs import NFSServer
from repro.fs.staging import StagingStrategy, staging_seconds
from repro.harness.experiments import run_experiment
from repro.machine.cluster import Cluster
from repro.scenario.spec import ScenarioSpec


@pytest.fixture(scope="module")
def small_config():
    return replace(presets.tiny(), n_modules=6, avg_functions=20)


@pytest.fixture(scope="module")
def small_spec(small_config):
    return generate(small_config)


def _cluster_build(spec, n_nodes, cores_per_node=1):
    cluster = Cluster(n_nodes=n_nodes, cores_per_node=cores_per_node)
    build = build_benchmark(spec, cluster.nfs, BuildMode.VANILLA)
    for image in build.images.values():
        cluster.file_store.add(image)
    return cluster, build


def _stage(spec, n_nodes, dist_spec, **overlay_kwargs):
    cluster, build = _cluster_build(spec, n_nodes)
    overlay = DistributionOverlay(dist_spec, cluster, **overlay_kwargs)
    return overlay.stage(list(build.images.values()))


class TestTopology:
    @pytest.mark.parametrize("n_nodes", [1, 2, 5, 8, 17, 64])
    @pytest.mark.parametrize(
        "topology,fanout",
        [(Topology.BINOMIAL, 2), (Topology.KARY, 2), (Topology.KARY, 4)],
    )
    def test_trees_cover_every_node_exactly_once(self, n_nodes, topology, fanout):
        children = children_map(topology, n_nodes, fanout)
        seen = [child for kids in children for child in kids]
        assert sorted(seen) == list(range(1, n_nodes))  # root has no parent
        parents = parent_map(children)
        assert parents[0] is None
        # Parents precede their children (BFS/heap ordering).
        for child in range(1, n_nodes):
            assert parents[child] is not None
            assert parents[child] < child

    def test_binomial_depth_is_log2(self):
        children = children_map(Topology.BINOMIAL, 64)
        parents = parent_map(children)

        def depth(node):
            d = 0
            while parents[node] is not None:
                node = parents[node]
                d += 1
            return d

        assert max(depth(n) for n in range(64)) == 6

    def test_flat_has_no_edges(self):
        assert children_map(Topology.FLAT, 8) == [[] for _ in range(8)]

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            DistributionSpec(fanout=0)
        with pytest.raises(ConfigError):
            DistributionSpec(source="tape")
        with pytest.raises(ConfigError):
            DistributionSpec(relay_bandwidth_share=0.0)
        with pytest.raises(ConfigError):
            DistributionSpec(relay_bandwidth_share=1.5)
        with pytest.raises(ConfigError):
            DistributionSpec(straggler_relay_slowdown=0.5)
        with pytest.raises(ConfigError):
            DistributionSpec(daemon_spawn_s=-1.0)
        with pytest.raises(ConfigError):
            DistributionSpec(chunk_bytes=0)
        with pytest.raises(ConfigError):
            DistributionSpec(chunk_bytes=-4096)
        with pytest.raises(ConfigError):
            DistributionSpec(chunk_bytes=4096.0)

    def test_labels_and_names(self):
        assert DistributionSpec().label == "binomial"
        assert DistributionSpec(topology=Topology.FLAT).label == "flat-nfs"
        assert (
            DistributionSpec(topology=Topology.FLAT, source="pfs").label
            == "flat-pfs"
        )
        assert (
            DistributionSpec(topology=Topology.KARY, fanout=4).label == "kary4"
        )
        assert DistributionSpec.from_name("none") is None
        assert DistributionSpec.from_name("pfs").source == "pfs"
        assert DistributionSpec.from_name("kary", fanout=3).fanout == 3
        with pytest.raises(ConfigError):
            DistributionSpec.from_name("carrier-pigeon")


class TestOverlayGolden:
    """The stepped overlay against its analytic closed-form twins."""

    @pytest.mark.parametrize("n_nodes", [4, 64, 256])
    def test_binomial_matches_collective_within_5_percent(
        self, small_spec, n_nodes
    ):
        plan = _stage(small_spec, n_nodes, DistributionSpec())
        analytic = staging_seconds(
            plan.staged_bytes,
            plan.n_files,
            n_nodes,
            StagingStrategy.COLLECTIVE,
            nfs=NFSServer(),
        )
        assert plan.makespan_s == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("n_nodes", [16, 64])
    def test_flat_matches_independent(self, small_spec, n_nodes):
        plan = _stage(
            small_spec, n_nodes, DistributionSpec(topology=Topology.FLAT)
        )
        analytic = staging_seconds(
            plan.staged_bytes,
            plan.n_files,
            n_nodes,
            StagingStrategy.INDEPENDENT,
            nfs=NFSServer(),
        )
        assert plan.makespan_s == pytest.approx(analytic, rel=0.1)

    def test_broadcast_beats_flat_beyond_crossover(self, small_spec):
        """The mitigation claim at the staging level: one NFS pass plus a
        log-depth fan-out overtakes N independent NFS reads as N grows."""
        previous_ratio = 0.0
        for n_nodes in (4, 16, 64):
            flat = _stage(
                small_spec, n_nodes, DistributionSpec(topology=Topology.FLAT)
            )
            broadcast = _stage(small_spec, n_nodes, DistributionSpec())
            ratio = flat.makespan_s / broadcast.makespan_s
            assert ratio > previous_ratio
            previous_ratio = ratio
        assert previous_ratio > 10.0  # decisive at 64 nodes

    def test_pipelined_cut_through_beats_store_and_forward(self, small_spec):
        store = _stage(small_spec, 64, DistributionSpec(pipelined=False))
        cut = _stage(small_spec, 64, DistributionSpec(pipelined=True))
        assert cut.makespan_s < store.makespan_s
        assert cut.relay_sends == store.relay_sends

    def test_kary_fanout_tradeoff_is_visible(self, small_spec):
        """Different arities give different makespans (depth vs egress)."""
        k2 = _stage(
            small_spec, 64, DistributionSpec(topology=Topology.KARY, fanout=2)
        )
        k8 = _stage(
            small_spec, 64, DistributionSpec(topology=Topology.KARY, fanout=8)
        )
        assert k2.makespan_s != k8.makespan_s

    def test_pfs_source_reads_from_the_parallel_fs(self, small_spec):
        cluster, build = _cluster_build(small_spec, 8)
        overlay = DistributionOverlay(
            DistributionSpec(topology=Topology.FLAT, source="pfs"), cluster
        )
        nfs_before = cluster.nfs.bytes_served
        plan = overlay.stage(list(build.images.values()))
        assert cluster.nfs.bytes_served == nfs_before  # untouched
        assert cluster.pfs.bytes_served > 0
        assert plan.strategy == "flat-pfs"


class TestOverlayMechanics:
    def test_every_node_lands_the_full_set_in_cache(self, small_spec):
        cluster, build = _cluster_build(small_spec, 8)
        images = list(build.images.values())
        DistributionOverlay(DistributionSpec(), cluster).stage(images)
        for node in cluster.nodes:
            for image in images:
                assert node.buffer_cache.contains(image)

    def test_root_reads_each_image_once_from_nfs(self, small_spec):
        cluster, build = _cluster_build(small_spec, 16)
        images = list(build.images.values())
        requests_before = cluster.nfs.requests_served
        DistributionOverlay(DistributionSpec(), cluster).stage(images)
        # One batched fetch per image, regardless of the node count.
        assert cluster.nfs.requests_served - requests_before == len(images)

    def test_staggler_relay_slows_its_subtree(self, small_spec):
        plain = _stage(small_spec, 16, DistributionSpec())
        straggled = _stage(
            small_spec,
            16,
            DistributionSpec(
                straggler_relay_nodes=(1,), straggler_relay_slowdown=8.0
            ),
        )
        assert straggled.makespan_s > plain.makespan_s
        children = children_map(Topology.BINOMIAL, 16)
        subtree = set()
        frontier = [1]
        while frontier:
            node = frontier.pop()
            subtree.add(node)
            frontier.extend(children[node])
        untouched = set(range(16)) - subtree - {0, 1}
        for node in untouched:
            assert straggled.per_node_done_s[node] == pytest.approx(
                plain.per_node_done_s[node]
            )

    def test_scenario_stragglers_reach_the_overlay(self, small_spec):
        plain = _stage(small_spec, 16, DistributionSpec())
        slowed = _stage(
            small_spec,
            16,
            DistributionSpec(),
            straggler_nodes=(0,),
            straggler_slowdown=4.0,
        )
        # The root's egress is throttled: everyone downstream waits.
        assert slowed.makespan_s > plain.makespan_s

    def test_relay_bandwidth_share_throttles_fanout(self, small_spec):
        full = _stage(small_spec, 16, DistributionSpec())
        throttled = _stage(
            small_spec, 16, DistributionSpec(relay_bandwidth_share=0.25)
        )
        assert throttled.makespan_s > full.makespan_s
        assert throttled.root_read_s == pytest.approx(full.root_read_s)

    def test_empty_image_set_rejected(self, small_spec):
        cluster, _ = _cluster_build(small_spec, 2)
        with pytest.raises(ConfigError):
            DistributionOverlay(DistributionSpec(), cluster).stage([])

    def test_determinism(self, small_spec):
        first = _stage(small_spec, 32, DistributionSpec(pipelined=True))
        second = _stage(small_spec, 32, DistributionSpec(pipelined=True))
        assert first.landed == second.landed
        assert first.per_node_done_s == second.per_node_done_s

    def test_degenerate_chain_overlay_survives_depth(self):
        """A fanout-1 k-ary overlay is a relay chain as deep as the node
        count; past ~1000 nodes it must neither recurse to death nor
        livelock, and each hop adds exactly one link traversal."""
        from repro.fs.files import FileImage
        from repro.mpi.network import NetworkModel

        n_nodes = 1100  # beyond the default Python recursion limit
        cluster = Cluster(n_nodes=n_nodes, cores_per_node=1)
        image = FileImage(
            path="/nfs/chain.so", size_bytes=65536, filesystem=cluster.nfs
        )
        plan = DistributionOverlay(
            DistributionSpec(topology=Topology.KARY, fanout=1), cluster
        ).stage([image])
        network = NetworkModel()
        hop = network.latency_s + image.size_bytes / network.bandwidth_bps
        expected = plan.root_read_s + (n_nodes - 1) * hop
        # Each hop rounds up to a whole clock cycle, hence the loose-ish
        # tolerance at 1099 hops.
        assert plan.makespan_s == pytest.approx(expected, rel=1e-4)


class TestRouter:
    def test_router_waits_then_clears(self, small_spec):
        plan = _stage(small_spec, 4, DistributionSpec())
        path = next(iter(plan.landed[0]))
        router = plan.router_for(3)
        ready = plan.ready(3, path)
        assert ready is not None and ready > 0.0
        early = router.wait_seconds(path, 0.0)
        assert early == pytest.approx(ready)
        late = router.wait_seconds(path, ready + 1.0)
        assert late == 0.0
        assert router.stalls == 1
        assert router.stall_seconds == pytest.approx(ready)

    def test_unrouted_path_returns_none(self, small_spec):
        plan = _stage(small_spec, 2, DistributionSpec())
        router = plan.router_for(0)
        assert router.wait_seconds("/no/such/file.so", 0.0) is None

    def test_node_index_validated(self, small_spec):
        plan = _stage(small_spec, 2, DistributionSpec())
        with pytest.raises(ConfigError):
            NodeRouter(plan, 7)


class TestJobIntegration:
    """The overlay wired end-to-end through PynamicJob/MultiRankJob."""

    def _run(self, config, **fields):
        spec = ScenarioSpec(config=config, engine="multirank", **fields)
        return PynamicJob(spec).run()

    def test_distribution_requires_multirank(self, small_config):
        with pytest.raises(ConfigError):
            ScenarioSpec(
                config=small_config,
                engine="analytic",
                distribution=DistributionSpec(),
            )

    def test_cold_job_never_touches_nfs_beyond_the_root_pass(
        self, small_config
    ):
        report = self._run(
            small_config,
            n_tasks=8,
            cores_per_node=1,
            distribution=DistributionSpec(),
        )
        assert report.distribution == "binomial"
        assert report.staging_per_node is not None
        assert len(report.staging_per_node) == 8
        assert report.staging_max > 0.0
        # Routed ranks find everything in the page cache: no rank takes
        # a major fault against NFS.
        assert all(r.major_fault_bytes == 0 for r in report.per_rank)

    def test_broadcast_beats_nfs_direct_beyond_crossover(self, small_config):
        """The acceptance claim at job level, small scale (the full-scale
        version runs in the mitigation benchmark)."""
        previous_ratio = 0.0
        for n_nodes in (4, 16):
            direct = self._run(
                small_config, n_tasks=n_nodes, cores_per_node=1
            )
            broadcast = self._run(
                small_config,
                n_tasks=n_nodes,
                cores_per_node=1,
                distribution=DistributionSpec(),
            )
            ratio = direct.total_max / broadcast.total_max
            assert ratio > previous_ratio
            previous_ratio = ratio
        assert previous_ratio > 1.2

    def test_warm_job_equivalence(self, small_config):
        """Warm caches make every strategy identical to NFS-direct: the
        overlay is a no-op when there is nothing to stage."""
        plain = self._run(small_config, n_tasks=16, warm_file_cache=True)
        routed = self._run(
            small_config,
            n_tasks=16,
            warm_file_cache=True,
            distribution=DistributionSpec(),
        )
        assert routed.staging_per_node is None
        for a, b in zip(plain.per_rank, routed.per_rank):
            assert a.startup_s == b.startup_s
            assert a.import_s == b.import_s
            assert a.visit_s == b.visit_s
            assert a.mpi_s == b.mpi_s

    def test_distribution_runs_are_deterministic(self, small_config):
        runs = [
            self._run(
                small_config,
                n_tasks=8,
                distribution=DistributionSpec(pipelined=True),
            )
            for _ in range(2)
        ]
        assert [r.total_s for r in runs[0].per_rank] == [
            r.total_s for r in runs[1].per_rank
        ]
        assert runs[0].staging_per_node == runs[1].staging_per_node

    def test_staging_percentiles_absent_without_overlay(self, small_config):
        report = self._run(small_config, n_tasks=2)
        assert report.distribution == "none"
        assert report.staging_per_node is None
        assert report.staging_p50 == 0.0
        assert report.staging_max == 0.0
        assert report.staging_skew_s == 0.0


def _multirank(config, batch_homogeneous=True, **fields):
    spec = ScenarioSpec(config=config, engine="multirank", **fields)
    return MultiRankJob(spec, batch_homogeneous=batch_homogeneous)


class TestColdBatching:
    """Cold homogeneous jobs batch co-resident cache-hit ranks."""

    def test_cold_batching_bookkeeping(self, small_config):
        job = _multirank(small_config, n_tasks=64)  # 8 nodes x 8
        report = job.run()
        assert job.rank_plan is RankPlan.COLD_BATCH
        assert job.n_simulated == 16  # toucher + hitter per node
        assert len(report.per_rank) == 64

    def test_cold_batching_replicates_hitters(self, small_config):
        job = _multirank(small_config, n_tasks=8)  # one node
        report = job.run()
        assert job.rank_plan is RankPlan.COLD_BATCH
        assert job.n_simulated == 2
        toucher, hitters = report.per_rank[0], report.per_rank[1:]
        assert all(h is hitters[0] for h in hitters)  # shared instance
        assert toucher.import_s > hitters[0].import_s

    def test_single_rank_per_node_never_batches(self, small_config):
        job = _multirank(small_config, n_tasks=4, cores_per_node=1)
        job.run()
        assert job.rank_plan is RankPlan.EVERY_RANK
        assert job.n_simulated == 4

    def test_heterogeneous_cold_jobs_never_batch(self, small_config):
        job = _multirank(small_config, n_tasks=8, os_jitter_s=0.01)
        job.run()
        assert job.rank_plan is RankPlan.EVERY_RANK
        assert job.n_simulated == 8

    def test_batching_can_be_disabled(self, small_config):
        job = _multirank(small_config, n_tasks=8, batch_homogeneous=False)
        job.run()
        assert job.rank_plan is RankPlan.EVERY_RANK
        assert job.n_simulated == 8

    def test_batched_cold_jobs_keep_the_contention_structure(
        self, small_config
    ):
        batched = _multirank(small_config, n_tasks=16)
        report = batched.run()
        assert batched.rank_plan is RankPlan.COLD_BATCH
        # Still one first-toucher per node paying NFS, hitters riding
        # the shared cache, nonzero skew across the job.
        assert report.import_skew_s > 0.0
        assert report.import_p95 > report.import_p50


class TestMitigationExperiment:
    def test_small_scale_smoke(self):
        result = run_experiment("mitigation", node_counts=[2, 4])
        assert result.metrics["direct_over_broadcast_at_scale"] > 1.0
        assert result.metrics["stepped_over_analytic_collective"] == (
            pytest.approx(1.0, rel=0.05)
        )
        assert "total_s[tree-broadcast][4]" in result.metrics

    def test_analytic_engine_variant(self):
        result = run_experiment(
            "mitigation", node_counts=[4, 16], engine="analytic"
        )
        assert result.tables
        assert result.metrics == {}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment("mitigation", node_counts=[2], engine="anaytic")
        with pytest.raises(ConfigError):
            run_experiment("job_scaling", engine="multi-rank")

    def test_extra_strategy_via_distribution(self):
        result = run_experiment(
            "mitigation",
            node_counts=[2],
            distribution=DistributionSpec(topology=Topology.KARY, fanout=4),
        )
        headers = result.tables[0][1]
        assert "kary4" in headers

    def test_custom_variant_of_builtin_topology_is_kept(self):
        # Same label as a built-in ("binomial") but a different spec:
        # dedup must compare specs, not labels.
        result = run_experiment(
            "mitigation",
            node_counts=[2],
            distribution=DistributionSpec(
                topology=Topology.BINOMIAL, pipelined=True
            ),
        )
        headers = result.tables[0][1]
        assert "binomial" in headers and "tree-broadcast" in headers

    def test_duplicate_builtin_strategy_not_added_twice(self):
        result = run_experiment(
            "mitigation",
            node_counts=[2],
            distribution=DistributionSpec(topology=Topology.BINOMIAL),
        )
        headers = result.tables[0][1]
        assert list(headers).count("tree-broadcast") == 1
        assert "binomial" not in headers
