"""What a finished staging pass keeps, per (node, image).

A cold pass lands every image on every node, so the state it leaves in
the cluster's buffer caches and in its :class:`StagingPlan` grows with
nodes times images: ~800k pairs at 1536 nodes, 8M at 16k.  Each pair
should cost one cache run, one index entry and one landing-map entry,
with no wrapper object per pair (no one-run lists, no ``(node, path)``
keys).  Measured with tracemalloc on CPython 3.10-3.12, that is
142-180 bytes per pair; per-pair lists and a flat ``(node, path)`` map
cost 297-324.
"""

import gc
import tracemalloc

from repro.dist import DistributionOverlay, DistributionSpec
from repro.fs.files import FileImage
from repro.machine.cluster import Cluster

N_NODES = 32
N_IMAGES = 64
#: Bytes a finished pass may keep per (node, image).
MAX_BYTES_PER_PAIR = 240


def _cold_cluster():
    cluster = Cluster(n_nodes=N_NODES, cores_per_node=1)
    images = [
        FileImage(
            path=f"/nfs/lib/libfoot{index:03d}.so",
            size_bytes=65536 + 4096 * index,
            filesystem=cluster.nfs,
        )
        for index in range(N_IMAGES)
    ]
    return cluster, images


def test_a_cold_pass_keeps_few_bytes_per_node_and_image():
    tracemalloc.start()
    try:
        cluster, images = _cold_cluster()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        plan = DistributionOverlay(DistributionSpec(), cluster).stage(images)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert plan.n_nodes == N_NODES and plan.n_files == N_IMAGES
    per_pair = kept / (N_NODES * N_IMAGES)
    assert per_pair <= MAX_BYTES_PER_PAIR, f"{per_pair:.0f} B per (node, image)"


def test_ready_reads_each_daemons_landing_map():
    cluster, images = _cold_cluster()
    overlay = DistributionOverlay(DistributionSpec(), cluster)
    plan = overlay.stage(images)
    for daemon in overlay.daemons:
        assert len(daemon.landed) == N_IMAGES
        for image in images:
            assert plan.ready(daemon.index, image.path) == daemon.landed[image.path]
        assert plan.ready(daemon.index, "/nfs/lib/never-staged.so") is None
    assert plan.ready(N_NODES, images[0].path) is None
