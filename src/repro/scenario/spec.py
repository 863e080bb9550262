"""The unified, declarative scenario specification.

Every measurement in the paper is a parameterization of one simulated
object — a cluster launching a dynamically linked job against shared
storage.  A :class:`ScenarioSpec` is that parameterization as *data*:
one frozen, validated, hashable value holding the machine shape, the
generated library set, the engine, the warm mix, the distribution
overlay and the heterogeneity knobs.  Specs round-trip through
:meth:`to_dict`/:meth:`from_dict` (against the published JSON schema in
:mod:`repro.scenario.schema`), and :attr:`spec_hash` is a canonical
sha256 digest that is stable across processes — the sweep runner's disk
cache keys on it, so the same grid point built directly, through the
fluent builder or from a JSON document shares one cache entry.

A spec is the only way to declare a job: construct one directly,
through the fluent :class:`repro.scenario.builder.Scenario` builder, or
from the preset registry (:mod:`repro.scenario.presets`); run it with
:func:`repro.scenario.run.simulate`, :class:`repro.core.job.PynamicJob`
or :class:`repro.core.multirank.MultiRankJob`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Mapping

from repro.codegen.sizes import SizeModel
from repro.core.builds import BuildMode
from repro.core.config import PynamicConfig
from repro.dist.topology import DistributionSpec, Topology
from repro.elf.symbols import HashStyle
from repro.errors import ConfigError
from repro.faults.spec import FaultSpec
from repro.machine.osprofile import OsProfile, aix32, bluegene, linux_chaos

if TYPE_CHECKING:
    from repro.machine.costs import CostModel

#: Valid values of the ``engine`` field.
ENGINES = ("analytic", "multirank")

#: Version stamp embedded in every serialized spec (bump on breaking
#: layout changes; :meth:`ScenarioSpec.from_dict` rejects mismatches).
SPEC_VERSION = 1


def _linux_chaos_aslr() -> OsProfile:
    """CHAOS Linux with exec-shield address randomization enabled."""
    return linux_chaos(randomize_load_addresses=True)


#: Name -> factory for every OS profile a spec may reference.  Specs
#: store profile *names* (not objects) so they stay JSON-serializable.
OS_PROFILES: dict[str, Callable[[], OsProfile]] = {
    "linux_chaos": linux_chaos,
    "linux_chaos_aslr": _linux_chaos_aslr,
    "aix32": aix32,
    "bluegene": bluegene,
}


def _float_fields(cls: type) -> frozenset:
    """Dataclass fields declared with a float default.

    These serialize as JSON floats even when spelled as ints
    (``coverage=1`` vs ``coverage=1.0``), so equal specs always share
    one canonical JSON text and one hash.  Derived from the dataclass
    itself so a new float knob can never drift out of the set.
    """
    return frozenset(
        f.name for f in fields(cls) if isinstance(f.default, float)
    )


#: PynamicConfig / SizeModel fields serialized as JSON floats.
_CONFIG_FLOAT_FIELDS = _float_fields(PynamicConfig)
_SIZE_MODEL_FLOAT_FIELDS = _float_fields(SizeModel)


def _as_sorted_nodes(value: object, field_name: str) -> tuple[int, ...]:
    """Normalize a node-index collection to a sorted unique tuple."""
    if not isinstance(value, (tuple, list)):
        raise ConfigError(
            f"{field_name} must be a sequence of node indices, got {value!r}"
        )
    for index in value:
        if not isinstance(index, int) or isinstance(index, bool):
            raise ConfigError(
                f"{field_name} entries must be integers, got {index!r}"
            )
        if index < 0:
            raise ConfigError(
                f"{field_name} entries must be non-negative, got {index}"
            )
    return tuple(sorted(set(value)))


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative, hashable description of a simulated measurement.

    The default instance is the analytic engine's default job: one task
    of the default library set on one 8-core node, cold caches, no
    overlay, no heterogeneity.  Validation happens at construction;
    every violation raises :class:`repro.errors.ConfigError` naming the
    offending field.
    """

    #: The generated library set (modules, utilities, seed, sizes).
    config: PynamicConfig = field(default_factory=PynamicConfig)
    #: Which job engine runs the spec ("analytic" or "multirank").
    engine: str = "analytic"
    #: Build mode of the benchmark (Table I rows).
    mode: BuildMode = BuildMode.VANILLA
    #: MPI tasks in the job.
    n_tasks: int = 1
    #: Cores per cluster node (tasks are block-placed).
    cores_per_node: int = 8
    #: True: every node's buffer cache starts with the DLL set resident.
    warm_file_cache: bool = False
    #: OS profile name (key of :data:`OS_PROFILES`).
    os_profile: str = "linux_chaos"
    #: ELF hash section the dynamic linker walks.
    hash_style: HashStyle = HashStyle.SYSV
    #: Pre-resolve relocations at build time (the prelink ablation).
    prelink: bool = False
    #: Node indices whose cores run slower (multirank only).
    straggler_nodes: tuple[int, ...] = ()
    #: Clock-speed divisor applied to straggler nodes.
    straggler_slowdown: float = 1.5
    #: Upper bound of per-rank OS-noise launch jitter in seconds.
    os_jitter_s: float = 0.0
    #: Fraction of nodes whose disk caches start warm (multirank only).
    warm_fraction: float = 0.0
    #: Explicit warm node indices, merged with the fraction-drawn set.
    warm_nodes: tuple[int, ...] = ()
    #: Per-node OS profile overrides as ``(node_index, profile_name)``.
    node_os_profiles: tuple[tuple[int, str], ...] = ()
    #: Library-distribution overlay (None = demand-paged NFS).
    distribution: DistributionSpec | None = None
    #: Seeded fault injection (None = fault-free; an *empty* FaultSpec
    #: is normalized to None so the fault-free twin shares one hash).
    faults: FaultSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.config, PynamicConfig):
            raise ConfigError(
                f"config must be a PynamicConfig, got {type(self.config).__name__}"
            )
        if self.engine not in ENGINES:
            raise ConfigError(
                f"engine: unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if not isinstance(self.mode, BuildMode):
            raise ConfigError(
                f"mode must be a BuildMode, got {self.mode!r}"
            )
        if not isinstance(self.hash_style, HashStyle):
            raise ConfigError(
                f"hash_style must be a HashStyle, got {self.hash_style!r}"
            )
        if not isinstance(self.n_tasks, int) or isinstance(self.n_tasks, bool):
            raise ConfigError(f"n_tasks must be an integer, got {self.n_tasks!r}")
        if self.n_tasks < 1:
            raise ConfigError(f"n_tasks: need at least one task, got {self.n_tasks}")
        if not isinstance(self.cores_per_node, int) or isinstance(
            self.cores_per_node, bool
        ):
            raise ConfigError(
                f"cores_per_node must be an integer, got {self.cores_per_node!r}"
            )
        if self.cores_per_node < 1:
            raise ConfigError(
                f"cores_per_node: need at least one core per node, got "
                f"{self.cores_per_node}"
            )
        if self.os_profile not in OS_PROFILES:
            raise ConfigError(
                f"os_profile: unknown profile {self.os_profile!r}; choose "
                f"from {sorted(OS_PROFILES)}"
            )
        for name in ("straggler_slowdown", "os_jitter_s", "warm_fraction"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            # NaN slips past every comparison below (it fails no ``<``)
            # and inf passes the one-sided ones; either would poison the
            # canonical spec hash and emit invalid JSON, so non-finite
            # values are rejected here by name.
            if not math.isfinite(value):
                raise ConfigError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.straggler_slowdown < 1.0:
            raise ConfigError(
                f"straggler_slowdown must be >= 1, got {self.straggler_slowdown}"
            )
        if self.os_jitter_s < 0:
            raise ConfigError(f"os_jitter_s must be >= 0, got {self.os_jitter_s}")
        if not 0.0 <= self.warm_fraction <= 1.0:
            raise ConfigError(
                f"warm_fraction must be in [0, 1], got {self.warm_fraction}"
            )
        if self.distribution is not None and not isinstance(
            self.distribution, DistributionSpec
        ):
            raise ConfigError(
                f"distribution must be a DistributionSpec or None, got "
                f"{type(self.distribution).__name__}"
            )
        if self.faults is not None:
            if not isinstance(self.faults, FaultSpec):
                raise ConfigError(
                    f"faults must be a FaultSpec or None, got "
                    f"{type(self.faults).__name__}"
                )
            # An empty fault block is the fault-free twin: normalize it
            # away so both spellings share one canonical JSON and one
            # spec hash (and one warehouse cache entry).
            if self.faults.empty:
                object.__setattr__(self, "faults", None)
        # Normalize node collections to sorted unique tuples so that
        # equal scenarios spelled in different orders hash identically.
        object.__setattr__(
            self,
            "straggler_nodes",
            _as_sorted_nodes(self.straggler_nodes, "straggler_nodes"),
        )
        object.__setattr__(
            self, "warm_nodes", _as_sorted_nodes(self.warm_nodes, "warm_nodes")
        )
        object.__setattr__(
            self, "node_os_profiles", self._normalized_profiles()
        )
        n_nodes = self.n_nodes
        self.validate_node_indices(n_nodes)
        if self.faults is not None:
            for crash in self.faults.crashes:
                if crash.node >= n_nodes:
                    raise ConfigError(
                        f"faults.crashes: node {crash.node} outside the "
                        f"{n_nodes}-node job"
                    )
            for link in self.faults.links:
                if link.node >= n_nodes:
                    raise ConfigError(
                        f"faults.links: node {link.node} outside the "
                        f"{n_nodes}-node job"
                    )
            if (self.faults.crashes or self.faults.links) and (
                self.distribution is None
            ):
                raise ConfigError(
                    "faults: crashes and link faults act on the "
                    "distribution overlay's relay daemons — set a "
                    "distribution (brownouts alone work without one)"
                )
        if self.engine == "analytic":
            for field_name in self._heterogeneity_fields():
                raise ConfigError(
                    f"{field_name} requires engine='multirank' (the "
                    f"analytic engine simulates homogeneous rank 0 only)"
                )
            if self.distribution is not None:
                raise ConfigError(
                    "distribution requires engine='multirank' (overlays "
                    "run on the discrete-event engine)"
                )
            if self.faults is not None:
                raise ConfigError(
                    "faults requires engine='multirank' (fault injection "
                    "runs on the discrete-event engine)"
                )

    def _normalized_profiles(self) -> tuple[tuple[int, str], ...]:
        value = self.node_os_profiles
        if isinstance(value, Mapping):
            value = tuple(value.items())
        if not isinstance(value, (tuple, list)):
            raise ConfigError(
                f"node_os_profiles must be a mapping or a sequence of "
                f"(node, profile) pairs, got {value!r}"
            )
        seen: dict[int, str] = {}
        for entry in value:
            try:
                index, name = entry
            except (TypeError, ValueError):
                raise ConfigError(
                    f"node_os_profiles entries must be (node, profile) "
                    f"pairs, got {entry!r}"
                ) from None
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                raise ConfigError(
                    f"node_os_profiles: node index must be a non-negative "
                    f"integer, got {index!r}"
                )
            if name not in OS_PROFILES:
                raise ConfigError(
                    f"node_os_profiles: unknown profile {name!r} for node "
                    f"{index}; choose from {sorted(OS_PROFILES)}"
                )
            if index in seen and seen[index] != name:
                raise ConfigError(
                    f"node_os_profiles: node {index} listed twice "
                    f"({seen[index]!r}, {name!r})"
                )
            seen[index] = name
        return tuple(sorted(seen.items()))

    def _heterogeneity_fields(self) -> list[str]:
        """Names of the fields that make this spec heterogeneous."""
        names = []
        if self.straggler_nodes:
            names.append("straggler_nodes")
        if self.os_jitter_s > 0.0:
            names.append("os_jitter_s")
        if self.warm_fraction > 0.0:
            names.append("warm_fraction")
        if self.warm_nodes:
            names.append("warm_nodes")
        if self.node_os_profiles:
            names.append("node_os_profiles")
        return names

    # -- derived views ------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Cluster nodes the job occupies (block placement)."""
        return max(1, -(-self.n_tasks // self.cores_per_node))

    @property
    def is_homogeneous(self) -> bool:
        """True when no knob introduces per-rank differences."""
        return not self._heterogeneity_fields()

    @property
    def seed(self) -> int:
        """The benchmark generator seed (lives on the library config)."""
        return self.config.seed

    def os_profile_instance(self) -> OsProfile:
        """The :class:`OsProfile` object the name resolves to."""
        return OS_PROFILES[self.os_profile]()

    # -- per-node heterogeneity (the job engine and multirank debugger) ----
    def validate_node_indices(self, n_nodes: int) -> None:
        """Reject per-node knobs naming nodes outside an ``n_nodes``
        cluster (the debugger runs a spec's knobs on a cluster of its
        own, which may be smaller than the spec's job)."""
        for field_name in ("straggler_nodes", "warm_nodes"):
            for index in getattr(self, field_name):
                if index >= n_nodes:
                    raise ConfigError(
                        f"{field_name}: node {index} outside the "
                        f"{n_nodes}-node job"
                    )
        for index, _ in self.node_os_profiles:
            if index >= n_nodes:
                raise ConfigError(
                    f"node_os_profiles: node {index} outside the "
                    f"{n_nodes}-node job"
                )

    def node_costs(self, index: int, base: "CostModel") -> "CostModel":
        """``base`` with the straggler slowdown applied if node ``index``
        is throttled."""
        if index not in self.straggler_nodes:
            return base
        return replace(
            base,
            frequency_hz=max(
                1, int(base.frequency_hz / self.straggler_slowdown)
            ),
        )

    def node_profile(self, index: int, default: OsProfile) -> OsProfile:
        """The OS profile for node ``index`` (``default`` if unlisted)."""
        for node, name in self.node_os_profiles:
            if node == index:
                return OS_PROFILES[name]()
        return default

    def with_(self, **changes: object) -> "ScenarioSpec":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-ready nested dict (see ``repro.scenario.schema``).

        Fields declared as floats are serialized as floats even when
        spelled as ints (``coverage=1`` vs ``coverage=1.0``), so equal
        specs always share one canonical JSON text and one hash.
        """
        config_dict: dict[str, object] = {}
        for cfg_field in fields(PynamicConfig):
            value = getattr(self.config, cfg_field.name)
            if cfg_field.name == "size_model":
                if value != SizeModel():
                    config_dict["size_model"] = {
                        f.name: (
                            float(getattr(value, f.name))
                            if f.name in _SIZE_MODEL_FLOAT_FIELDS
                            else getattr(value, f.name)
                        )
                        for f in fields(SizeModel)
                    }
                continue
            if cfg_field.name in _CONFIG_FLOAT_FIELDS:
                value = float(value)
            config_dict[cfg_field.name] = value
        data: dict[str, object] = {
            "version": SPEC_VERSION,
            "engine": self.engine,
            "mode": self.mode.value,
            "n_tasks": self.n_tasks,
            "cores_per_node": self.cores_per_node,
            "warm_file_cache": self.warm_file_cache,
            "os_profile": self.os_profile,
            "hash_style": self.hash_style.value,
            "prelink": self.prelink,
            "config": config_dict,
            "scenario": {
                "straggler_nodes": list(self.straggler_nodes),
                "straggler_slowdown": float(self.straggler_slowdown),
                "os_jitter_s": float(self.os_jitter_s),
                "warm_fraction": float(self.warm_fraction),
                "warm_nodes": list(self.warm_nodes),
                "node_os_profiles": {
                    str(index): name for index, name in self.node_os_profiles
                },
            },
            "distribution": None,
        }
        if self.distribution is not None:
            data["distribution"] = {
                "topology": self.distribution.topology.value,
                "fanout": self.distribution.fanout,
                "source": self.distribution.source,
                "relay_bandwidth_share": float(
                    self.distribution.relay_bandwidth_share
                ),
                "pipelined": self.distribution.pipelined,
                "chunk_bytes": self.distribution.chunk_bytes,
                "daemon_spawn_s": float(self.distribution.daemon_spawn_s),
                # Verbatim, not sorted: DistributionSpec equality is
                # order-sensitive, and round-trip fidelity wins here.
                "straggler_relay_nodes": list(
                    self.distribution.straggler_relay_nodes
                ),
                "straggler_relay_slowdown": float(
                    self.distribution.straggler_relay_slowdown
                ),
            }
        # Emitted only when set: every pre-existing spec document, hash
        # pin and warehouse cache key predates the faults field and must
        # stay byte-identical.
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict).

        Missing optional keys take their defaults; unknown keys raise
        :class:`ConfigError` naming the key, so typos never pass
        silently.
        """
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"spec document must be a JSON object, got {type(data).__name__}"
            )
        known = {
            "version",
            "engine",
            "mode",
            "n_tasks",
            "cores_per_node",
            "warm_file_cache",
            "os_profile",
            "hash_style",
            "prelink",
            "config",
            "scenario",
            "distribution",
            "faults",
        }
        for key in data:
            if key not in known:
                raise ConfigError(
                    f"unknown spec field {key!r}; known fields: {sorted(known)}"
                )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigError(
                f"version: unsupported spec version {version!r} "
                f"(this library reads version {SPEC_VERSION})"
            )
        config = _config_from_dict(data.get("config", {}))
        scenario = data.get("scenario", {})
        if not isinstance(scenario, Mapping):
            raise ConfigError("scenario block must be a JSON object")
        scenario_known = {
            "straggler_nodes",
            "straggler_slowdown",
            "os_jitter_s",
            "warm_fraction",
            "warm_nodes",
            "node_os_profiles",
        }
        for key in scenario:
            if key not in scenario_known:
                raise ConfigError(
                    f"scenario: unknown field {key!r}; known fields: "
                    f"{sorted(scenario_known)}"
                )
        raw_profiles = scenario.get("node_os_profiles", {})
        if not isinstance(raw_profiles, Mapping):
            raise ConfigError("scenario.node_os_profiles must be an object")
        try:
            node_profiles = tuple(
                (int(index), name) for index, name in raw_profiles.items()
            )
        except (TypeError, ValueError):
            raise ConfigError(
                "scenario.node_os_profiles keys must be node indices"
            ) from None
        return cls(
            config=config,
            engine=_expect(data, "engine", str, "analytic"),
            mode=_enum_from(data, "mode", BuildMode, BuildMode.VANILLA),
            n_tasks=_expect(data, "n_tasks", int, 1),
            cores_per_node=_expect(data, "cores_per_node", int, 8),
            warm_file_cache=_expect(data, "warm_file_cache", bool, False),
            os_profile=_expect(data, "os_profile", str, "linux_chaos"),
            hash_style=_enum_from(data, "hash_style", HashStyle, HashStyle.SYSV),
            prelink=_expect(data, "prelink", bool, False),
            straggler_nodes=tuple(scenario.get("straggler_nodes", ())),
            straggler_slowdown=scenario.get("straggler_slowdown", 1.5),
            os_jitter_s=scenario.get("os_jitter_s", 0.0),
            warm_fraction=scenario.get("warm_fraction", 0.0),
            warm_nodes=tuple(scenario.get("warm_nodes", ())),
            node_os_profiles=node_profiles,
            distribution=_distribution_from_dict(data.get("distribution")),
            faults=_faults_from_dict(data.get("faults")),
        )

    def canonical_json(self) -> str:
        """Deterministic JSON text of :meth:`to_dict` (sorted, compact).

        ``allow_nan=False`` is a backstop: validation already rejects
        non-finite floats field-by-field, so any that still reach here
        (a new knob missing its check) fail loudly instead of emitting
        the ``NaN``/``Infinity`` tokens JSON forbids.
        """
        try:
            return json.dumps(
                self.to_dict(),
                sort_keys=True,
                separators=(",", ":"),
                allow_nan=False,
            )
        except ValueError as exc:
            raise ConfigError(
                f"spec contains a non-finite float and has no canonical "
                f"JSON form ({exc})"
            ) from None

    @property
    def spec_hash(self) -> str:
        """sha256 of the canonical JSON — stable across processes.

        This is the digest the sweep runner's disk cache keys on, so
        any two spellings of the same grid point (direct construction,
        fluent builder, JSON file) land on one cache entry.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _expect(data: Mapping, key: str, kind: type, default: object) -> object:
    """``data[key]`` checked against ``kind`` (bool-vs-int aware)."""
    value = data.get(key, default)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{key} must be a boolean, got {value!r}")
    if not isinstance(value, kind):
        raise ConfigError(
            f"{key} must be a {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _enum_from(data: Mapping, key: str, enum_cls: type, default: object) -> object:
    """Parse an enum field by value, mapping ValueError to ConfigError."""
    raw = data.get(key)
    if raw is None:
        return default
    if isinstance(raw, enum_cls):
        return raw
    try:
        return enum_cls(raw)
    except ValueError:
        choices = sorted(member.value for member in enum_cls)  # type: ignore[attr-defined]
        raise ConfigError(
            f"{key}: unknown value {raw!r}; choose from {choices}"
        ) from None


def _config_from_dict(data: object) -> PynamicConfig:
    """Rebuild a :class:`PynamicConfig` (strict on unknown keys)."""
    if not isinstance(data, Mapping):
        raise ConfigError("config block must be a JSON object")
    known = {f.name for f in fields(PynamicConfig)}
    kwargs: dict[str, object] = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(
                f"config: unknown field {key!r}; known fields: {sorted(known)}"
            )
        if key == "size_model":
            if not isinstance(value, Mapping):
                raise ConfigError("config.size_model must be a JSON object")
            model_known = {f.name for f in fields(SizeModel)}
            for model_key in value:
                if model_key not in model_known:
                    raise ConfigError(
                        f"config.size_model: unknown field {model_key!r}"
                    )
            kwargs[key] = SizeModel(**value)
            continue
        kwargs[key] = value
    try:
        return PynamicConfig(**kwargs)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(f"config: {exc}") from None


def _faults_from_dict(data: object) -> FaultSpec | None:
    """Rebuild the optional faults block."""
    if data is None:
        return None
    if not isinstance(data, Mapping):
        raise ConfigError("faults block must be a JSON object or null")
    return FaultSpec.from_dict(dict(data))


def _distribution_from_dict(data: object) -> DistributionSpec | None:
    """Rebuild the optional distribution block."""
    if data is None:
        return None
    if not isinstance(data, Mapping):
        raise ConfigError("distribution block must be a JSON object or null")
    known = {f.name for f in fields(DistributionSpec)}
    for key in data:
        if key not in known:
            raise ConfigError(
                f"distribution: unknown field {key!r}; known fields: "
                f"{sorted(known)}"
            )
    topology = _enum_from(data, "topology", Topology, Topology.BINOMIAL)
    kwargs: dict[str, object] = {"topology": topology}
    for key in known - {"topology", "straggler_relay_nodes"}:
        if key in data:
            kwargs[key] = data[key]
    if "straggler_relay_nodes" in data:
        raw = data["straggler_relay_nodes"]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(
                "distribution.straggler_relay_nodes must be an array"
            )
        kwargs["straggler_relay_nodes"] = tuple(raw)
    return DistributionSpec(**kwargs)  # type: ignore[arg-type]
