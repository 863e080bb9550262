"""Declarative, hashable descriptions of multi-tenant workloads.

A :class:`WorkloadSpec` is to a *batch queue* what a
:class:`~repro.scenario.spec.ScenarioSpec` is to one job: a frozen,
validated, canonically-serializable description of everything the
workload engine needs — the shared cluster size, the queue policy, and a
tenant mix where each :class:`TenantSpec` pairs one multirank
``ScenarioSpec`` with a seeded arrival process and a job count.  Its
``workload_hash`` keys the results warehouse, so any two spellings of
the same workload (builder, preset, JSON file) land on one cache entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.errors import ConfigError
from repro.scenario.schema import SCENARIO_JSON_SCHEMA, compile_schema
from repro.scenario.spec import ScenarioSpec

#: Version stamp of the serialized form; bump on breaking layout change.
WORKLOAD_VERSION = 1

#: Supported arrival processes for a tenant's job stream.
ARRIVALS = ("burst", "fixed", "poisson")

#: Supported queue placement policies.
POLICIES = ("fifo", "backfill")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def _require_finite(value: float, name: str) -> None:
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a job template plus its seeded arrival process.

    Every job the tenant submits is the *same* ``scenario`` (a
    production queue replays one binary many times); what varies is when
    each of the ``n_jobs`` copies arrives:

    - ``burst``: all jobs arrive together at ``start_s`` — the paper's
      worst case, N simultaneous cold launches.
    - ``fixed``: job *i* arrives at ``start_s + i * interval_s``.
    - ``poisson``: exponential inter-arrival gaps at ``rate_per_s``
      jobs/second, drawn from the workload seed's fork for this tenant
      (label ``arrivals:<name>``), so arrival times are identical across
      processes for a given :class:`WorkloadSpec`.
    """

    #: Tenant name: unique within the workload, used in RNG fork labels.
    name: str = "tenant"
    #: The job every submission runs (engine must be "multirank").
    scenario: ScenarioSpec = field(default_factory=lambda: ScenarioSpec(engine="multirank"))
    #: How many copies of the job the tenant submits.
    n_jobs: int = 1
    #: Arrival process: one of :data:`ARRIVALS`.
    arrival: str = "burst"
    #: Poisson arrival rate in jobs/second (poisson only).
    rate_per_s: float | None = None
    #: Gap between consecutive arrivals in seconds (fixed only).
    interval_s: float | None = None
    #: Virtual time the tenant's stream begins.
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ConfigError(
                f"tenant name must match {_NAME_RE.pattern}, got {self.name!r}"
            )
        if not isinstance(self.scenario, ScenarioSpec):
            raise ConfigError(
                f"tenant {self.name}: scenario must be a ScenarioSpec, got "
                f"{type(self.scenario).__name__}"
            )
        if self.scenario.engine != "multirank":
            raise ConfigError(
                f"tenant {self.name}: workload jobs run on the multirank "
                f"engine (shared timelines), got engine="
                f"{self.scenario.engine!r}"
            )
        if not isinstance(self.n_jobs, int) or isinstance(self.n_jobs, bool) \
                or self.n_jobs < 1:
            raise ConfigError(
                f"tenant {self.name}: n_jobs must be an integer >= 1, got "
                f"{self.n_jobs!r}"
            )
        if self.arrival not in ARRIVALS:
            raise ConfigError(
                f"tenant {self.name}: unknown arrival {self.arrival!r}; "
                f"choose from {ARRIVALS}"
            )
        if self.arrival == "poisson":
            if self.rate_per_s is None:
                raise ConfigError(
                    f"tenant {self.name}: poisson arrivals need rate_per_s"
                )
            _require_finite(self.rate_per_s, f"tenant {self.name}: rate_per_s")
            if self.rate_per_s <= 0:
                raise ConfigError(
                    f"tenant {self.name}: rate_per_s must be > 0, got "
                    f"{self.rate_per_s}"
                )
        elif self.rate_per_s is not None:
            raise ConfigError(
                f"tenant {self.name}: rate_per_s only applies to poisson "
                f"arrivals (arrival={self.arrival!r})"
            )
        if self.arrival == "fixed":
            if self.interval_s is None:
                raise ConfigError(
                    f"tenant {self.name}: fixed arrivals need interval_s"
                )
            _require_finite(self.interval_s, f"tenant {self.name}: interval_s")
            if self.interval_s < 0:
                raise ConfigError(
                    f"tenant {self.name}: interval_s must be >= 0, got "
                    f"{self.interval_s}"
                )
        elif self.interval_s is not None:
            raise ConfigError(
                f"tenant {self.name}: interval_s only applies to fixed "
                f"arrivals (arrival={self.arrival!r})"
            )
        _require_finite(self.start_s, f"tenant {self.name}: start_s")
        if self.start_s < 0:
            raise ConfigError(
                f"tenant {self.name}: start_s must be >= 0, got {self.start_s}"
            )

    @property
    def nodes_per_job(self) -> int:
        """Nodes one of this tenant's jobs occupies (block placement)."""
        return self.scenario.n_nodes

    def to_dict(self) -> dict:
        """JSON-ready document (the workload schema's ``tenants`` item)."""
        data: dict = {
            "name": self.name,
            "n_jobs": self.n_jobs,
            "arrival": self.arrival,
            "start_s": self.start_s,
            "scenario": self.scenario.to_dict(),
        }
        if self.rate_per_s is not None:
            data["rate_per_s"] = self.rate_per_s
        if self.interval_s is not None:
            data["interval_s"] = self.interval_s
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "TenantSpec":
        """Strict inverse of :meth:`to_dict` (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"tenant: expected a JSON object, got {type(data).__name__}"
            )
        known = {
            "name", "n_jobs", "arrival", "rate_per_s", "interval_s",
            "start_s", "scenario",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"tenant: unknown fields {sorted(unknown)}; known fields: "
                f"{sorted(known)}"
            )
        if "scenario" not in data:
            raise ConfigError("tenant: missing required field 'scenario'")
        return cls(
            name=data.get("name", "tenant"),
            scenario=ScenarioSpec.from_dict(data["scenario"]),
            n_jobs=data.get("n_jobs", 1),
            arrival=data.get("arrival", "burst"),
            rate_per_s=data.get("rate_per_s"),
            interval_s=data.get("interval_s"),
            start_s=data.get("start_s", 0.0),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A tenant mix on one shared cluster + filesystem timeline."""

    #: The tenant mix (normalized to a tuple; at least one tenant).
    tenants: tuple[TenantSpec, ...] = ()
    #: Nodes in the shared cluster the queue carves allocations from.
    n_nodes: int = 1
    #: Placement policy: one of :data:`POLICIES`.
    policy: str = "fifo"
    #: Seed of the workload-level RNG (arrival draws fork from it).
    seed: int = 0

    def __post_init__(self) -> None:
        tenants = tuple(self.tenants)
        object.__setattr__(self, "tenants", tenants)
        if not tenants:
            raise ConfigError("workload needs at least one tenant")
        for tenant in tenants:
            if not isinstance(tenant, TenantSpec):
                raise ConfigError(
                    f"tenants must be TenantSpec instances, got "
                    f"{type(tenant).__name__}"
                )
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {names}")
        if not isinstance(self.n_nodes, int) or isinstance(self.n_nodes, bool) \
                or self.n_nodes < 1:
            raise ConfigError(
                f"n_nodes must be an integer >= 1, got {self.n_nodes!r}"
            )
        if self.policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; choose from {POLICIES}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        cores = {tenant.scenario.cores_per_node for tenant in tenants}
        if len(cores) > 1:
            raise ConfigError(
                f"tenants disagree on cores_per_node ({sorted(cores)}); the "
                f"shared cluster is homogeneous"
            )
        for tenant in tenants:
            if tenant.nodes_per_job > self.n_nodes:
                raise ConfigError(
                    f"tenant {tenant.name}: one job needs "
                    f"{tenant.nodes_per_job} nodes but the cluster has only "
                    f"{self.n_nodes}"
                )
        # Cross-tenant brownout compatibility: the shared NFS/PFS is
        # handed every tenant's windows.  An *identical* window declared
        # by several tenants is one cluster-wide event (idempotent);
        # distinct windows that overlap in time have no composition rule
        # and would otherwise fail mid-simulation.
        declared: dict[str, list] = {}
        for tenant in tenants:
            faults = tenant.scenario.faults
            if faults is None:
                continue
            for window in faults.brownouts:
                for other, owner in declared.get(window.target, ()):
                    if window == other:
                        continue
                    if (
                        window.start_s < other.end_s
                        and other.start_s < window.end_s
                    ):
                        raise ConfigError(
                            f"tenants {owner} and {tenant.name}: "
                            f"overlapping {window.target} brownout windows "
                            f"[{other.start_s}, {other.end_s}) and "
                            f"[{window.start_s}, {window.end_s}) on the "
                            f"shared filesystem"
                        )
                declared.setdefault(window.target, []).append(
                    (window, tenant.name)
                )

    @property
    def cores_per_node(self) -> int:
        """Cores per node of the shared cluster (tenant-consistent)."""
        return self.tenants[0].scenario.cores_per_node

    @property
    def n_jobs(self) -> int:
        """Total jobs across every tenant's stream."""
        return sum(tenant.n_jobs for tenant in self.tenants)

    def with_(self, **changes: object) -> "WorkloadSpec":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready document conforming to :data:`WORKLOAD_JSON_SCHEMA`."""
        return {
            "version": WORKLOAD_VERSION,
            "n_nodes": self.n_nodes,
            "policy": self.policy,
            "seed": self.seed,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WorkloadSpec":
        """Strict inverse of :meth:`to_dict` (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"workload: expected a JSON object, got {type(data).__name__}"
            )
        known = {"version", "n_nodes", "policy", "seed", "tenants"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"workload: unknown fields {sorted(unknown)}; known fields: "
                f"{sorted(known)}"
            )
        version = data.get("version", WORKLOAD_VERSION)
        if version != WORKLOAD_VERSION:
            raise ConfigError(
                f"workload: unsupported version {version!r} (this build "
                f"reads version {WORKLOAD_VERSION})"
            )
        tenants = data.get("tenants")
        if not isinstance(tenants, (list, tuple)):
            raise ConfigError("workload: 'tenants' must be an array")
        return cls(
            tenants=tuple(TenantSpec.from_dict(item) for item in tenants),
            n_nodes=data.get("n_nodes", 1),
            policy=data.get("policy", "fifo"),
            seed=data.get("seed", 0),
        )

    def canonical_json(self) -> str:
        """Deterministic JSON text (sorted, compact, NaN-free)."""
        try:
            return json.dumps(
                self.to_dict(),
                sort_keys=True,
                separators=(",", ":"),
                allow_nan=False,
            )
        except ValueError as exc:
            raise ConfigError(
                f"workload contains a non-finite float and has no canonical "
                f"JSON form ({exc})"
            ) from None

    @property
    def workload_hash(self) -> str:
        """sha256 of the canonical JSON — stable across processes.

        The warehouse key for workload runs, exactly as ``spec_hash`` is
        for single jobs.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


_TENANT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario"],
    "properties": {
        "name": {"type": "string"},
        "n_jobs": {"type": "integer", "minimum": 1},
        "arrival": {"type": "string", "enum": list(ARRIVALS)},
        "rate_per_s": {"type": "number", "exclusiveMinimum": 0},
        "interval_s": {"type": "number", "minimum": 0},
        "start_s": {"type": "number", "minimum": 0},
        "scenario": SCENARIO_JSON_SCHEMA,
    },
}

#: Published schema of :meth:`WorkloadSpec.to_dict` documents.  It embeds
#: :data:`~repro.scenario.schema.SCENARIO_JSON_SCHEMA` verbatim for each
#: tenant's job, so one compiled validator checks both document shapes.
WORKLOAD_JSON_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "WorkloadSpec",
    "description": (
        "A multi-tenant batch-queue workload: per-tenant job scenarios "
        "with seeded arrival processes, scheduled onto one shared "
        "cluster + filesystem timeline."
    ),
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "tenants"],
    "properties": {
        "version": {"const": WORKLOAD_VERSION},
        "n_nodes": {"type": "integer", "minimum": 1},
        "policy": {"type": "string", "enum": list(POLICIES)},
        "seed": {"type": "integer", "minimum": 0},
        "tenants": {"type": "array", "items": _TENANT_SCHEMA},
    },
}


_check_workload = compile_schema(WORKLOAD_JSON_SCHEMA)


def validate_workload_dict(data: object) -> None:
    """Validate a document against :data:`WORKLOAD_JSON_SCHEMA`.

    Raises :class:`~repro.errors.ConfigError` with a JSON-path message
    on the first violation; returns None when the document conforms.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"workload: expected a JSON object, got {type(data).__name__}"
        )
    _check_workload(data, "workload")


def parse_workload_document(data: object) -> "WorkloadSpec":
    """Validate-and-build: the workload twin of
    :func:`repro.scenario.schema.parse_spec_document`.

    Schema-validates ``data``, then builds the frozen
    :class:`WorkloadSpec` whose ``workload_hash`` keys the warehouse —
    the shared entry the CLI and the simulation service both route
    workload documents through.
    """
    validate_workload_dict(data)
    return WorkloadSpec.from_dict(data)
