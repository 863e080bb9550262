"""Chunk-level cut-through relaying and cache-aware warm relays.

Golden-twin regression tests pin the stepped chunked broadcast against
the new ``staging_seconds(PIPELINED)`` closed form (within 5% across
topologies, node counts and chunk sizes); invariant tests lock down the
cache-aware relay semantics (a fully warm cluster stages for free, a
warm interior node speeds up its whole subtree, the root never reads
more images from NFS than are cold) and the ``chunk_bytes`` validation.
"""

from dataclasses import replace

import pytest

from repro.core import presets
from repro.core.builds import BuildMode, build_benchmark
from repro.core.generator import generate
from repro.core.job import PynamicJob
from repro.dist import (
    DistributionOverlay,
    DistributionSpec,
    Topology,
    children_map,
)
from repro.errors import ConfigError, ReproError
from repro.fs.files import FileImage
from repro.fs.nfs import NFSServer
from repro.fs.staging import (
    StagingStrategy,
    pipelined_staging_seconds,
    staging_seconds,
)
from repro.harness.experiments import run_experiment
from repro.machine.cluster import Cluster
from repro.mpi.network import NetworkModel
from repro.scenario.spec import ScenarioSpec


@pytest.fixture(scope="module")
def small_config():
    return replace(presets.tiny(), n_modules=6, avg_functions=20)


@pytest.fixture(scope="module")
def small_spec(small_config):
    return generate(small_config)


def _cluster_build(spec, n_nodes):
    cluster = Cluster(n_nodes=n_nodes, cores_per_node=1)
    build = build_benchmark(spec, cluster.nfs, BuildMode.VANILLA)
    for image in build.images.values():
        cluster.file_store.add(image)
    return cluster, build


def _stage(spec, n_nodes, dist_spec, warm_nodes=(), warm_images=None):
    """One staging pass; ``warm_nodes`` caches are pre-filled first."""
    cluster, build = _cluster_build(spec, n_nodes)
    images = list(build.images.values())
    for index in warm_nodes:
        for image in warm_images if warm_images is not None else images:
            cluster.nodes[index].buffer_cache.read(image)
    requests_before = cluster.nfs.requests_served
    plan = DistributionOverlay(dist_spec, cluster).stage(images)
    return plan, cluster.nfs.requests_served - requests_before


def _subtree(topology, n_nodes, root, fanout=2):
    children = children_map(topology, n_nodes, fanout)
    seen, frontier = set(), [root]
    while frontier:
        node = frontier.pop()
        seen.add(node)
        frontier.extend(children[node])
    return seen


class TestPipelinedGoldenTwin:
    """Stepped chunked cut-through vs staging_seconds(PIPELINED)."""

    @pytest.mark.parametrize("n_nodes", [16, 64, 256])
    @pytest.mark.parametrize("chunk_bytes", [65536, 16384])
    def test_binomial_matches_within_5_percent(
        self, small_spec, n_nodes, chunk_bytes
    ):
        plan, _ = _stage(
            small_spec,
            n_nodes,
            DistributionSpec(pipelined=True, chunk_bytes=chunk_bytes),
        )
        analytic = staging_seconds(
            plan.staged_bytes,
            plan.n_files,
            n_nodes,
            StagingStrategy.PIPELINED,
            nfs=NFSServer(),
            topology=Topology.BINOMIAL,
            chunk_bytes=chunk_bytes,
        )
        assert plan.makespan_s == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("n_nodes", [16, 64, 256])
    @pytest.mark.parametrize("fanout,chunk_bytes", [(2, 65536), (4, 16384)])
    def test_kary_matches_within_5_percent(
        self, small_spec, n_nodes, fanout, chunk_bytes
    ):
        plan, _ = _stage(
            small_spec,
            n_nodes,
            DistributionSpec(
                topology=Topology.KARY,
                fanout=fanout,
                pipelined=True,
                chunk_bytes=chunk_bytes,
            ),
        )
        analytic = staging_seconds(
            plan.staged_bytes,
            plan.n_files,
            n_nodes,
            StagingStrategy.PIPELINED,
            nfs=NFSServer(),
            topology=Topology.KARY,
            fanout=fanout,
            chunk_bytes=chunk_bytes,
        )
        assert plan.makespan_s == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("n_nodes", [16, 64])
    def test_whole_image_cut_through_matches_too(self, small_spec, n_nodes):
        # chunk_bytes=None (the pre-chunking pipelined mode) is the
        # closed form's degenerate one-chunk-per-image case.
        plan, _ = _stage(
            small_spec, n_nodes, DistributionSpec(pipelined=True)
        )
        analytic = staging_seconds(
            plan.staged_bytes,
            plan.n_files,
            n_nodes,
            StagingStrategy.PIPELINED,
            nfs=NFSServer(),
        )
        assert plan.makespan_s == pytest.approx(analytic, rel=0.05)

    def test_flat_pipelined_equals_independent_twin(self, small_spec):
        plan, _ = _stage(
            small_spec,
            16,
            DistributionSpec(
                topology=Topology.FLAT, pipelined=True, chunk_bytes=65536
            ),
        )
        analytic = staging_seconds(
            plan.staged_bytes,
            plan.n_files,
            16,
            StagingStrategy.PIPELINED,
            nfs=NFSServer(),
            topology=Topology.FLAT,
        )
        assert plan.makespan_s == pytest.approx(analytic, rel=0.1)

    @pytest.mark.parametrize(
        "topology,fanout,n_nodes",
        [
            (Topology.BINOMIAL, 2, 16),
            (Topology.BINOMIAL, 2, 64),
            (Topology.KARY, 2, 16),
            (Topology.KARY, 4, 64),
        ],
    )
    def test_chunked_cut_through_beats_store_and_forward(
        self, small_spec, topology, fanout, n_nodes
    ):
        """Whenever the tree has depth > 1 and chunks are smaller than
        the images, streaming must win over store-and-forward."""
        dist = DistributionSpec(topology=topology, fanout=fanout)
        store, _ = _stage(small_spec, n_nodes, dist)
        cut, _ = _stage(
            small_spec,
            n_nodes,
            replace(dist, pipelined=True, chunk_bytes=16384),
        )
        assert cut.makespan_s < store.makespan_s

    def test_chunking_fills_a_deep_chain_like_a_pipeline(self):
        """On a fanout-1 chain the pipeline-fill term dominates: chunked
        relaying must beat whole-image cut-through by roughly the
        image-to-chunk ratio, the (depth-1)*chunk_time shape."""
        n_nodes = 32
        cluster = Cluster(n_nodes=n_nodes, cores_per_node=1)
        image = FileImage(
            path="/nfs/chain.so", size_bytes=1 << 20, filesystem=cluster.nfs
        )
        chain = DistributionSpec(topology=Topology.KARY, fanout=1, pipelined=True)
        whole = DistributionOverlay(chain, cluster).stage([image])
        cluster2 = Cluster(n_nodes=n_nodes, cores_per_node=1)
        image2 = FileImage(
            path="/nfs/chain.so", size_bytes=1 << 20, filesystem=cluster2.nfs
        )
        chunked = DistributionOverlay(
            replace(chain, chunk_bytes=1 << 16), cluster2
        ).stage([image2])
        network = NetworkModel()
        fill_whole = (n_nodes - 1) * (
            network.latency_s + image.size_bytes / network.bandwidth_bps
        )
        assert whole.makespan_s - whole.root_read_s == pytest.approx(
            fill_whole, rel=0.01
        )
        # 16 chunks: the fill shrinks from depth*image_time toward
        # (chunks + depth - 1)*chunk_time.
        assert (chunked.makespan_s - chunked.root_read_s) < 0.2 * fill_whole

    def test_default_chunking_preserves_whole_image_behaviour(
        self, small_spec
    ):
        """chunk_bytes >= the largest image is byte-identical to None."""
        cluster, build = _cluster_build(small_spec, 16)
        biggest = max(i.size_bytes for i in build.images.values())
        plain, _ = _stage(small_spec, 16, DistributionSpec(pipelined=True))
        capped, _ = _stage(
            small_spec,
            16,
            DistributionSpec(pipelined=True, chunk_bytes=biggest),
        )
        assert plain.ready_s == capped.ready_s
        assert plain.relay_sends == capped.relay_sends

    def test_chunked_runs_are_deterministic(self, small_spec):
        first, _ = _stage(
            small_spec,
            32,
            DistributionSpec(pipelined=True, chunk_bytes=16384),
        )
        second, _ = _stage(
            small_spec,
            32,
            DistributionSpec(pipelined=True, chunk_bytes=16384),
        )
        assert first.ready_s == second.ready_s
        assert first.per_node_done_s == second.per_node_done_s

    def test_plan_records_chunking(self, small_spec):
        plan, _ = _stage(
            small_spec,
            8,
            DistributionSpec(pipelined=True, chunk_bytes=32768),
        )
        assert plan.chunk_bytes == 32768
        # Chunked sends outnumber the whole-image sends on the same tree.
        whole, _ = _stage(small_spec, 8, DistributionSpec(pipelined=True))
        assert plan.relay_sends > whole.relay_sends


class TestPipelinedClosedForm:
    def test_single_node_is_just_the_read(self):
        nfs = NFSServer()
        alone = pipelined_staging_seconds(1 << 20, 4, 1, nfs=nfs)
        assert alone == pytest.approx(
            NFSServer().read_seconds(1 << 20, n_ops=4)
        )

    def test_flat_topology_equals_independent(self):
        flat = staging_seconds(
            1 << 24,
            16,
            64,
            StagingStrategy.PIPELINED,
            nfs=NFSServer(),
            topology=Topology.FLAT,
        )
        independent = staging_seconds(
            1 << 24, 16, 64, StagingStrategy.INDEPENDENT, nfs=NFSServer()
        )
        assert flat == pytest.approx(independent)

    def test_scales_logarithmically_not_linearly(self):
        t16 = staging_seconds(
            1 << 26, 100, 16, StagingStrategy.PIPELINED, nfs=NFSServer()
        )
        t1024 = staging_seconds(
            1 << 26, 100, 1024, StagingStrategy.PIPELINED, nfs=NFSServer()
        )
        assert t1024 < t16 * 3

    def test_beats_collective_closed_form(self):
        pipelined = staging_seconds(
            1 << 26,
            100,
            256,
            StagingStrategy.PIPELINED,
            nfs=NFSServer(),
            chunk_bytes=1 << 16,
        )
        collective = staging_seconds(
            1 << 26, 100, 256, StagingStrategy.COLLECTIVE, nfs=NFSServer()
        )
        assert pipelined < collective

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            pipelined_staging_seconds(-1, 4, 8)
        with pytest.raises(ConfigError):
            pipelined_staging_seconds(1 << 20, 0, 8)
        with pytest.raises(ConfigError):
            pipelined_staging_seconds(1 << 20, 4, 0)
        with pytest.raises(ConfigError):
            pipelined_staging_seconds(1 << 20, 4, 8, chunk_bytes=0)


class TestChunkBytesValidation:
    @pytest.mark.parametrize("bad", [0, -1, -65536])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ReproError):
            DistributionSpec(chunk_bytes=bad)

    @pytest.mark.parametrize("bad", [2.5, 65536.0, "64k", True, False])
    def test_non_integer_rejected(self, bad):
        with pytest.raises(ReproError):
            DistributionSpec(chunk_bytes=bad)

    def test_valid_values_accepted(self):
        assert DistributionSpec(chunk_bytes=1).chunk_bytes == 1
        assert DistributionSpec(chunk_bytes=65536).chunk_bytes == 65536
        assert DistributionSpec().chunk_bytes is None

    def test_from_name_carries_pipelining(self):
        spec = DistributionSpec.from_name(
            "binomial", pipelined=True, chunk_bytes=32768
        )
        assert spec.pipelined and spec.chunk_bytes == 32768
        kary = DistributionSpec.from_name(
            "kary", fanout=4, pipelined=True, chunk_bytes=32768
        )
        assert kary.fanout == 4 and kary.chunk_bytes == 32768
        # Flat topologies have nothing to relay: the knobs are dropped.
        assert DistributionSpec.from_name("flat", chunk_bytes=32768).chunk_bytes is None


class TestCacheAwareRelays:
    @pytest.mark.parametrize("pipelined", [False, True])
    def test_fully_warm_cluster_stages_for_free(self, small_spec, pipelined):
        plan, nfs_reads = _stage(
            small_spec,
            16,
            DistributionSpec(pipelined=pipelined, chunk_bytes=65536),
            warm_nodes=range(16),
        )
        assert plan.makespan_s == 0.0
        assert plan.relay_sends == 0
        assert plan.source_reads == 0
        assert nfs_reads == 0
        assert plan.warm_nodes == tuple(range(16))
        assert all(value == 0.0 for value in plan.ready_s.values())

    def test_warm_interior_node_speeds_up_its_subtree(self, small_spec):
        dist = DistributionSpec(pipelined=True, chunk_bytes=65536)
        cold, _ = _stage(small_spec, 16, dist)
        warm, _ = _stage(small_spec, 16, dist, warm_nodes=[1])
        subtree = _subtree(Topology.BINOMIAL, 16, 1)
        for node in subtree:
            assert warm.per_node_done_s[node] < cold.per_node_done_s[node]
        # p95 over the subtree strictly improves.
        def p95(plan, nodes):
            ordered = sorted(plan.per_node_done_s[n] for n in nodes)
            return ordered[int(0.95 * (len(ordered) - 1))]

        assert p95(warm, subtree) < p95(cold, subtree)
        # Nodes outside the warm subtree still ride the root pass — but
        # never slower: skipping the warm child frees the root's egress.
        for node in set(range(16)) - subtree - {0}:
            assert (
                warm.per_node_done_s[node]
                <= cold.per_node_done_s[node] + 1e-12
            )

    def test_warm_relay_serves_subtree_without_waiting_for_root(
        self, small_spec
    ):
        plan, _ = _stage(
            small_spec,
            16,
            DistributionSpec(pipelined=True, chunk_bytes=65536),
            warm_nodes=[1],
        )
        # The root's first NFS read alone takes longer than the whole
        # warm subtree's staging: node 1 never blocked on its parent.
        subtree = _subtree(Topology.BINOMIAL, 16, 1)
        assert max(plan.per_node_done_s[n] for n in subtree) < plan.root_read_s
        assert plan.warm_nodes == (1,)

    def test_root_reads_never_exceed_cold_image_count(self, small_spec):
        cluster, build = _cluster_build(small_spec, 8)
        images = list(build.images.values())
        # Warm a strict subset of the set on the root node only.
        warm_subset = images[: len(images) // 2]
        for image in warm_subset:
            cluster.nodes[0].buffer_cache.read(image)
        requests_before = cluster.nfs.requests_served
        plan = DistributionOverlay(
            DistributionSpec(pipelined=True, chunk_bytes=65536), cluster
        ).stage(images)
        cold = len(images) - len(warm_subset)
        assert plan.source_reads == cold
        assert cluster.nfs.requests_served - requests_before == cold
        # Everyone still lands the full set.
        assert len(plan.ready_s) == 8 * len(images)

    def test_warm_root_reads_nothing(self, small_spec):
        plan, nfs_reads = _stage(
            small_spec,
            8,
            DistributionSpec(pipelined=True, chunk_bytes=65536),
            warm_nodes=[0],
        )
        assert plan.source_reads == 0
        assert nfs_reads == 0
        assert plan.root_read_s == 0.0
        # The cold subtree is still fully staged, over the interconnect.
        assert plan.makespan_s > 0.0
        assert plan.relay_sends > 0

    def test_warm_children_are_skipped_on_the_link(self, small_spec):
        cold, _ = _stage(small_spec, 16, DistributionSpec(pipelined=True))
        half_warm, _ = _stage(
            small_spec,
            16,
            DistributionSpec(pipelined=True),
            warm_nodes=range(8, 16),
        )
        # No chunk is ever sent to a node that already holds the image.
        assert half_warm.relay_sends < cold.relay_sends

    def test_router_exposes_warmness(self, small_spec):
        plan, _ = _stage(
            small_spec,
            4,
            DistributionSpec(pipelined=True, chunk_bytes=65536),
            warm_nodes=[1],
        )
        assert plan.router_for(1).warm
        assert not plan.router_for(2).warm
        # A warm node's router can never stall a read.
        router = plan.router_for(1)
        path = next(path for (node, path) in plan.ready_s if node == 1)
        assert router.wait_seconds(path, 0.0) == 0.0
        assert router.stalls == 0


class TestJobLevelWarmMix:
    def _run(self, config, **fields):
        spec = ScenarioSpec(config=config, engine="multirank", **fields)
        return PynamicJob(spec).run()

    def test_scenario_warm_nodes_validated(self, small_config):
        with pytest.raises(ConfigError, match="warm_nodes"):
            self._run(small_config, n_tasks=4, cores_per_node=1, warm_nodes=(9,))

    def test_warm_interior_node_improves_job_staging(self, small_config):
        dist = DistributionSpec(pipelined=True, chunk_bytes=65536)
        cold = self._run(
            small_config, n_tasks=8, cores_per_node=1, distribution=dist
        )
        warm = self._run(
            small_config,
            n_tasks=8,
            cores_per_node=1,
            distribution=dist,
            warm_nodes=(1,),
        )
        assert warm.staging_p95 < cold.staging_p95
        assert warm.staging_max <= cold.staging_max

    def test_fully_warm_scenario_stages_in_zero_time(self, small_config):
        report = self._run(
            small_config,
            n_tasks=8,
            cores_per_node=1,
            distribution=DistributionSpec(pipelined=True, chunk_bytes=65536),
            warm_fraction=1.0,
        )
        assert report.staging_per_node is not None
        assert report.staging_max == 0.0


class TestMitigationIntegration:
    def test_cut_through_cell_and_goldens(self):
        result = run_experiment(
            "mitigation", node_counts=[2, 4], chunk_bytes=32768
        )
        headers = result.tables[0][1]
        assert "cut-through" in headers
        assert result.metrics["stepped_over_analytic_pipelined"] == (
            pytest.approx(1.0, rel=0.05)
        )
        assert result.metrics["store_forward_over_cut_through"] > 1.0
        assert "total_s[cut-through][4]" in result.metrics

    def test_warm_fraction_axis(self):
        result = run_experiment(
            "mitigation",
            node_counts=[2, 4],
            chunk_bytes=32768,
            warm_fraction=0.5,
        )
        titles = [title for title, _, _ in result.tables]
        assert any("cache-aware" in title for title in titles)
        for nodes in (2, 4):
            assert (
                result.metrics[f"warm_staging_s[{nodes}]"]
                < result.metrics[f"cold_staging_s[{nodes}]"]
            )

    def test_warm_fraction_validated(self):
        with pytest.raises(ConfigError):
            run_experiment("mitigation", node_counts=[2], warm_fraction=1.5)

    def test_analytic_engine_has_cut_through_column(self):
        result = run_experiment(
            "mitigation", node_counts=[4], engine="analytic"
        )
        headers = result.tables[0][1]
        assert "cut-through" in headers
        rows = result.tables[0][2]
        # The cut-through closed form beats the store-and-forward one.
        by_header = dict(zip(headers, rows[0]))
        assert float(by_header["cut-through"]) <= float(
            by_header["tree-broadcast"]
        )
