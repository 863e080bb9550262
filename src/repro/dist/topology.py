"""Overlay topologies for the library-distribution subsystem.

Section II.B.2 proposes "collective opening of DLLs" as the OS extension
NFS needs at extreme scale; the conclusion asks Pynamic to evaluate it.
A :class:`DistributionSpec` picks how a job's nodes get the DLL set:

- ``FLAT`` — no relaying: every node's staging daemon reads the whole
  set straight from the source file system (``source="nfs"`` is the
  paper's current practice; ``source="pfs"`` is the staged-parallel-FS
  alternative);
- ``BINOMIAL`` — the classic binomial broadcast tree (node 0 reads each
  DLL once from NFS, then relays fan the set out over the interconnect
  in ``ceil(log2 n)`` rounds) — the stepped twin of
  :func:`repro.fs.staging.staging_seconds` with
  :attr:`~repro.fs.staging.StagingStrategy.COLLECTIVE`;
- ``KARY`` — a complete k-ary fan-out tree (heap ordering), trading tree
  depth against per-relay egress serialization via the ``fanout`` knob.

Topologies are pure index arithmetic: :func:`children_map` returns each
node's children with every parent preceding its children (BFS property),
which is what lets the overlay wire relay daemons without cycles and run
them in node order, each after its parent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import ConfigError

#: Valid values of the ``source`` knob.
SOURCES = ("nfs", "pfs")

#: Strategy names understood by :meth:`DistributionSpec.from_name` (and
#: offered by the CLI's ``--distribution`` flag).
DISTRIBUTION_NAMES = ("none", "flat", "pfs", "binomial", "kary")


class Topology(enum.Enum):
    """Shape of the distribution overlay."""

    FLAT = "flat"
    BINOMIAL = "binomial"
    KARY = "kary"


@dataclass(frozen=True)
class DistributionSpec:
    """Configuration of the library-distribution overlay.

    The default instance is the paper's proposed extension: a binomial
    broadcast sourced from NFS, store-and-forward per hop (which is what
    the analytic ``staging_seconds(COLLECTIVE)`` closed form models —
    the golden tests pin the two against each other).
    """

    topology: Topology = Topology.BINOMIAL
    #: Arity of the ``KARY`` tree (ignored by the other topologies).
    fanout: int = 2
    #: File system the root (or, under ``FLAT``, every node) reads from.
    source: str = "nfs"
    #: Fraction of the NIC bandwidth a relay daemon may use for egress —
    #: < 1 models daemons throttled to leave capacity for the app.
    relay_bandwidth_share: float = 1.0
    #: ``False`` (default): a relay forwards only once it holds the full
    #: set, sending the whole set to one child before the next — the
    #: store-and-forward discipline of the analytic closed form.
    #: ``True``: cut-through — each image is relayed as soon as it lands,
    #: with sends serialized on the per-node egress link reservations.
    pipelined: bool = False
    #: Relay granularity in bytes.  ``None`` (default) relays whole
    #: images — the pre-chunking behaviour.  A positive integer streams
    #: every transfer as ``ceil(size / chunk_bytes)`` chunks, so under
    #: ``pipelined=True`` a relay starts forwarding chunk *i* while
    #: still receiving chunk *i+1* (true cut-through; the analytic twin
    #: is ``staging_seconds(..., StagingStrategy.PIPELINED)``).
    chunk_bytes: "int | None" = None
    #: Per-daemon spawn latency charged before any staging work.
    daemon_spawn_s: float = 0.0
    #: Relay nodes whose egress links are degraded (a flaky NIC, a busy
    #: neighbour) — the subtree below each straggling relay lags.
    straggler_relay_nodes: tuple[int, ...] = ()
    #: Egress-bandwidth divisor applied to straggling relays.
    straggler_relay_slowdown: float = 2.0

    def __post_init__(self) -> None:
        # NaN fails no ``<`` comparison and inf passes the one-sided
        # bounds below, so either would survive into the canonical spec
        # hash/JSON; reject non-finite floats up front, by field name.
        for name in (
            "relay_bandwidth_share",
            "daemon_spawn_s",
            "straggler_relay_slowdown",
        ):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.fanout < 1:
            raise ConfigError(f"fanout must be >= 1, got {self.fanout}")
        if self.source not in SOURCES:
            raise ConfigError(
                f"source: unknown staging source {self.source!r}; choose "
                f"from {SOURCES}"
            )
        if not 0.0 < self.relay_bandwidth_share <= 1.0:
            raise ConfigError(
                f"relay_bandwidth_share must be in (0, 1], got "
                f"{self.relay_bandwidth_share}"
            )
        if self.daemon_spawn_s < 0:
            raise ConfigError(
                f"daemon_spawn_s must be >= 0, got {self.daemon_spawn_s}"
            )
        if self.straggler_relay_slowdown < 1.0:
            raise ConfigError(
                f"straggler_relay_slowdown must be >= 1, got "
                f"{self.straggler_relay_slowdown}"
            )
        if self.chunk_bytes is not None:
            # bool is an int subclass; True would silently mean a 1-byte
            # chunk, so it is rejected along with floats and strings.
            if not isinstance(self.chunk_bytes, int) or isinstance(
                self.chunk_bytes, bool
            ):
                raise ConfigError(
                    f"chunk_bytes must be a positive integer (or None for "
                    f"whole-image relaying), got {self.chunk_bytes!r}"
                )
            if self.chunk_bytes <= 0:
                raise ConfigError(
                    f"chunk_bytes must be positive, got {self.chunk_bytes}"
                )

    @property
    def label(self) -> str:
        """Short human-readable strategy name for reports."""
        if self.topology is Topology.FLAT:
            return f"flat-{self.source}"
        if self.topology is Topology.KARY:
            return f"kary{self.fanout}"
        return self.topology.value

    @classmethod
    def from_name(
        cls,
        name: str,
        fanout: int = 2,
        pipelined: bool = False,
        chunk_bytes: "int | None" = None,
    ) -> "DistributionSpec | None":
        """Build a spec from a CLI strategy name (``none`` -> ``None``).

        Names: ``none``, ``flat`` (NFS-direct staging daemons), ``pfs``
        (flat from the parallel FS), ``binomial``, ``kary``.
        ``pipelined``/``chunk_bytes`` (the CLI's ``--pipelined`` and
        ``--chunk-bytes``) select chunked cut-through relaying on the
        tree topologies; they are ignored by the flat ones, which have
        nothing to relay.
        """
        if name == "none":
            return None
        if name == "flat":
            return cls(topology=Topology.FLAT, source="nfs")
        if name == "pfs":
            return cls(topology=Topology.FLAT, source="pfs")
        if name == "binomial":
            return cls(
                topology=Topology.BINOMIAL,
                pipelined=pipelined,
                chunk_bytes=chunk_bytes,
            )
        if name == "kary":
            return cls(
                topology=Topology.KARY,
                fanout=fanout,
                pipelined=pipelined,
                chunk_bytes=chunk_bytes,
            )
        raise ConfigError(
            f"unknown distribution {name!r}; choose from {DISTRIBUTION_NAMES}"
        )


def binomial_children(index: int, n_nodes: int) -> list[int]:
    """Children of ``index`` in a binomial broadcast tree over ``n_nodes``.

    Round t of the broadcast has every node ``i < 2^t`` send to
    ``i + 2^t``, so node i's children are ``i + 2^t`` for every t with
    ``2^t > i``, in round (= increasing-index) order.
    """
    children: list[int] = []
    step = 1
    while step <= index:
        step <<= 1
    while index + step < n_nodes:
        children.append(index + step)
        step <<= 1
    return children


def kary_children(index: int, n_nodes: int, fanout: int) -> list[int]:
    """Children of ``index`` in a complete ``fanout``-ary tree (heap order)."""
    first = fanout * index + 1
    return [c for c in range(first, first + fanout) if c < n_nodes]


def children_map(
    topology: Topology, n_nodes: int, fanout: int = 2
) -> list[list[int]]:
    """Per-node child lists; every parent index precedes its children."""
    if n_nodes < 1:
        raise ConfigError(f"need at least one node, got {n_nodes}")
    if topology is Topology.FLAT:
        return [[] for _ in range(n_nodes)]
    if topology is Topology.BINOMIAL:
        return [binomial_children(i, n_nodes) for i in range(n_nodes)]
    if topology is Topology.KARY:
        if fanout < 1:
            raise ConfigError(f"fan-out must be >= 1, got {fanout}")
        return [kary_children(i, n_nodes, fanout) for i in range(n_nodes)]
    raise ConfigError(f"unknown topology {topology!r}")  # pragma: no cover


def root_fanout(topology: Topology, n_nodes: int, fanout: int = 2) -> int:
    """Number of children the root relays to (0 for FLAT / single node).

    The root's egress link is the broadcast bottleneck: every chunk it
    relays occupies the link once per child, which is what the pipelined
    closed form charges.
    """
    if n_nodes < 1:
        raise ConfigError(f"need at least one node, got {n_nodes}")
    if topology is Topology.FLAT or n_nodes == 1:
        return 0
    if topology is Topology.BINOMIAL:
        return len(binomial_children(0, n_nodes))
    if topology is Topology.KARY:
        if fanout < 1:
            raise ConfigError(f"fan-out must be >= 1, got {fanout}")
        return len(kary_children(0, n_nodes, fanout))
    raise ConfigError(f"unknown topology {topology!r}")  # pragma: no cover


def tree_depth(topology: Topology, n_nodes: int, fanout: int = 2) -> int:
    """Edges on the longest root-to-leaf path (0 for FLAT / single node)."""
    if n_nodes < 1:
        raise ConfigError(f"need at least one node, got {n_nodes}")
    if topology is Topology.FLAT or n_nodes == 1:
        return 0
    if topology is Topology.BINOMIAL:
        # Node i sits at depth popcount(i); the deepest index below n is
        # either n-1 itself or the widest all-ones pattern under it.
        top = n_nodes - 1
        return max(bin(top).count("1"), top.bit_length() - 1)
    if topology is Topology.KARY:
        if fanout < 1:
            raise ConfigError(f"fan-out must be >= 1, got {fanout}")
        if fanout == 1:
            return n_nodes - 1
        depth = 0
        index = n_nodes - 1
        while index > 0:
            index = (index - 1) // fanout
            depth += 1
        return depth
    raise ConfigError(f"unknown topology {topology!r}")  # pragma: no cover


def parent_map(children: list[list[int]]) -> list[int | None]:
    """Invert a children map (root and FLAT nodes have parent ``None``)."""
    parents: list[int | None] = [None] * len(children)
    for parent, kids in enumerate(children):
        for child in kids:
            if parents[child] is not None:
                raise ConfigError(
                    f"node {child} has two parents ({parents[child]}, {parent})"
                )
            parents[child] = parent
    return parents
