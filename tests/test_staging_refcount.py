"""A finished staging pass is freed by reference counting alone.

``DistributionOverlay.stage`` and ``eval_staging_point`` run with the
cyclic garbage collector paused (``paused_gc``).  Anything a pass left
in a reference cycle would stay in memory until the collector's next
run, and that full collection over the previous pass's cache runs used
to be the largest single cost of a staging answer.  So the buffer
cache's run list and the relay tree each point one way only; these
tests keep it so.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.core import presets
from repro.dist import DistributionOverlay, DistributionSpec
from repro.dist.overlay import RelayDaemon
from repro.faults import FaultSpec, RelayCrash
from repro.fs.buffercache import BufferCache, _Run
from repro.fs.files import FileImage
from repro.harness.mitigation_scaled import eval_staging_point
from repro.machine.cluster import Cluster
from repro.machine.node import TimedReadNode
from repro.scenario import scenario_preset


#: What a staging pass allocates per node and per chunk.
_KINDS = (_Run, BufferCache, RelayDaemon, TimedReadNode)


@contextmanager
def _cyclic_garbage():
    """Run the block with the cyclic collector disabled; afterwards the
    yielded list holds every object of ``_KINDS`` the block left that
    only a collection could free.  Restores the collector's state."""
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    kept = len(gc.garbage)
    found = []
    gc.disable()
    try:
        yield found
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.collect()
        found.extend(obj for obj in gc.garbage[kept:] if isinstance(obj, _KINDS))
    finally:
        gc.set_debug(debug)
        del gc.garbage[kept:]
        if was_enabled:
            gc.enable()


def _staged_refs(faults):
    """Stage a small cluster; return weakrefs to everything the pass
    built, with the cluster and overlay already out of scope."""
    cluster = Cluster(n_nodes=8, cores_per_node=1)
    images = [
        FileImage(path=f"/nfs/lib{i}.so", size_bytes=size, filesystem=cluster.nfs)
        for i, size in enumerate((40_000, 123_457, 8192, 0))
    ]
    spec = DistributionSpec(pipelined=True, chunk_bytes=16 * 1024)
    overlay = DistributionOverlay(spec, cluster, faults=faults)
    plan = overlay.stage(images)
    assert bool(plan.recovery_events) == (faults is not None)
    refs = [weakref.ref(node.buffer_cache) for node in cluster.nodes]
    for daemon in overlay.daemons:
        refs += [weakref.ref(daemon), weakref.ref(daemon.node)]
    return refs


@pytest.mark.parametrize(
    "faults",
    [None, FaultSpec(crashes=(RelayCrash(node=1, at_progress=0.5),))],
    ids=["fault-free", "relay-crash"],
)
def test_a_dropped_pass_is_freed_without_the_collector(faults):
    with _cyclic_garbage() as cyclic:
        refs = _staged_refs(faults)
        alive = [ref() for ref in refs if ref() is not None]
    assert not alive, f"{len(alive)} objects outlive the pass: {alive[:3]}"
    assert not cyclic, f"{len(cyclic)} objects needed the collector: {cyclic[:3]}"


def test_a_staging_answer_leaves_no_cyclic_garbage():
    spec = scenario_preset("llnl_multiphysics_scaled").with_(
        n_tasks=8, config=presets.tiny()
    )
    with _cyclic_garbage() as cyclic:
        eval_staging_point(spec)
    assert not cyclic, f"{len(cyclic)} objects needed the collector: {cyclic[:3]}"
