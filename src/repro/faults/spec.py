"""Seeded fault declarations: the :class:`FaultSpec` attached to a scenario.

A fault spec is the resilience twin of :class:`ScenarioSpec`: a frozen,
validated, canonically-hashed value object declaring *what goes wrong*
during a run — relay-daemon crashes mid-broadcast, NFS/PFS brownout
windows, and slow/lossy overlay egress links.  Every fault is seeded
and deterministic: the same spec replays to the same recovery event
log, byte for byte, in any process.

Validation happens up front at construction time (the same contract as
the scenario layer): overlapping brownout windows, multipliers outside
``(0, 1]`` and crash times past the declared horizon raise
:class:`ConfigError` naming the offending field instead of failing
mid-simulation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Storage systems a brownout window can degrade.
BROWNOUT_TARGETS = ("nfs", "pfs")


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _require_factor(name: str, value: float) -> float:
    """A degradation multiplier: a finite float in ``(0, 1]``."""
    value = _require_finite(name, value)
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{name} must be in (0, 1], got {value}")
    return value


def _expect(data: dict, known: set[str], where: str) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown {where} field(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class RelayCrash:
    """One relay daemon dying mid-broadcast.

    Exactly one of ``at_progress`` (fraction of the node's total staged
    bytes landed, in ``[0, 1)``) or ``at_s`` (absolute simulation time)
    selects the crash point.  The crash takes effect at the daemon's
    next relay event at/after the trigger; the chunk crossing the
    threshold still lands locally but is never forwarded.
    """

    node: int
    at_progress: float | None = None
    at_s: float | None = None

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigError(f"crash node must be >= 0, got {self.node}")
        if (self.at_progress is None) == (self.at_s is None):
            raise ConfigError(
                f"crash for node {self.node}: set exactly one of "
                f"at_progress or at_s"
            )
        if self.at_progress is not None:
            value = _require_finite("at_progress", self.at_progress)
            if not 0.0 <= value < 1.0:
                raise ConfigError(
                    f"at_progress must be in [0, 1), got {value}"
                )
            object.__setattr__(self, "at_progress", value)
        if self.at_s is not None:
            value = _require_finite("at_s", self.at_s)
            if value < 0.0:
                raise ConfigError(f"at_s must be >= 0, got {value}")
            object.__setattr__(self, "at_s", value)

    def to_dict(self) -> dict:
        data: dict = {"node": int(self.node)}
        if self.at_progress is not None:
            data["at_progress"] = self.at_progress
        if self.at_s is not None:
            data["at_s"] = self.at_s
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RelayCrash":
        if not isinstance(data, dict):
            raise ConfigError(f"crash entry must be an object, got {data!r}")
        _expect(data, {"node", "at_progress", "at_s"}, "crash")
        return cls(
            node=data.get("node", -1),
            at_progress=data.get("at_progress"),
            at_s=data.get("at_s"),
        )


@dataclass(frozen=True)
class BrownoutWindow:
    """A time window of degraded shared-storage capacity.

    During ``[start_s, end_s)`` the target filesystem serves bandwidth
    at ``bandwidth_factor`` and operations at ``iops_factor`` of its
    nominal capacity — applied as stretched bookings on the existing
    :class:`ReservationTimeline`, so degraded requests still never
    overlap and contention still queues.
    """

    target: str = "nfs"
    start_s: float = 0.0
    end_s: float = 0.0
    bandwidth_factor: float = 1.0
    iops_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.target not in BROWNOUT_TARGETS:
            raise ConfigError(
                f"brownout target must be one of {BROWNOUT_TARGETS}, "
                f"got {self.target!r}"
            )
        start = _require_finite("start_s", self.start_s)
        end = _require_finite("end_s", self.end_s)
        if start < 0.0:
            raise ConfigError(f"start_s must be >= 0, got {start}")
        if end <= start:
            raise ConfigError(
                f"end_s must be > start_s, got [{start}, {end})"
            )
        object.__setattr__(self, "start_s", start)
        object.__setattr__(self, "end_s", end)
        object.__setattr__(
            self,
            "bandwidth_factor",
            _require_factor("bandwidth_factor", self.bandwidth_factor),
        )
        object.__setattr__(
            self, "iops_factor", _require_factor("iops_factor", self.iops_factor)
        )

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "bandwidth_factor": self.bandwidth_factor,
            "iops_factor": self.iops_factor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BrownoutWindow":
        if not isinstance(data, dict):
            raise ConfigError(
                f"brownout entry must be an object, got {data!r}"
            )
        _expect(
            data,
            {"target", "start_s", "end_s", "bandwidth_factor", "iops_factor"},
            "brownout",
        )
        return cls(
            target=data.get("target", "nfs"),
            start_s=data.get("start_s", 0.0),
            end_s=data.get("end_s", 0.0),
            bandwidth_factor=data.get("bandwidth_factor", 1.0),
            iops_factor=data.get("iops_factor", 1.0),
        )


@dataclass(frozen=True)
class LinkFault:
    """A degraded overlay egress edge: slow link and/or packet loss.

    ``bandwidth_factor`` scales the node's egress bandwidth; each send
    independently fails with ``loss_probability`` (seeded per node from
    the fault seed) and retries after ``retry_backoff_s``.
    """

    node: int
    bandwidth_factor: float = 1.0
    loss_probability: float = 0.0
    retry_backoff_s: float = 0.01

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigError(f"link node must be >= 0, got {self.node}")
        object.__setattr__(
            self,
            "bandwidth_factor",
            _require_factor("bandwidth_factor", self.bandwidth_factor),
        )
        loss = _require_finite("loss_probability", self.loss_probability)
        if not 0.0 <= loss < 1.0:
            raise ConfigError(
                f"loss_probability must be in [0, 1), got {loss}"
            )
        object.__setattr__(self, "loss_probability", loss)
        backoff = _require_finite("retry_backoff_s", self.retry_backoff_s)
        if backoff < 0.0:
            raise ConfigError(f"retry_backoff_s must be >= 0, got {backoff}")
        object.__setattr__(self, "retry_backoff_s", backoff)

    def to_dict(self) -> dict:
        return {
            "node": int(self.node),
            "bandwidth_factor": self.bandwidth_factor,
            "loss_probability": self.loss_probability,
            "retry_backoff_s": self.retry_backoff_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkFault":
        if not isinstance(data, dict):
            raise ConfigError(f"link entry must be an object, got {data!r}")
        _expect(
            data,
            {"node", "bandwidth_factor", "loss_probability", "retry_backoff_s"},
            "link",
        )
        return cls(
            node=data.get("node", -1),
            bandwidth_factor=data.get("bandwidth_factor", 1.0),
            loss_probability=data.get("loss_probability", 0.0),
            retry_backoff_s=data.get("retry_backoff_s", 0.01),
        )


def _overlap_check(windows: tuple[BrownoutWindow, ...]) -> None:
    """Same-target brownout windows must be disjoint — overlapping
    multipliers have no single well-defined degraded capacity."""
    for target in BROWNOUT_TARGETS:
        spans = sorted(
            (w for w in windows if w.target == target),
            key=lambda w: (w.start_s, w.end_s),
        )
        for left, right in zip(spans, spans[1:]):
            if right.start_s < left.end_s:
                raise ConfigError(
                    f"brownouts: overlapping {target} windows "
                    f"[{left.start_s}, {left.end_s}) and "
                    f"[{right.start_s}, {right.end_s})"
                )


@dataclass(frozen=True)
class FaultSpec:
    """Every seeded fault a run injects, validated up front.

    ``seed`` drives all stochastic fault behavior (packet loss draws);
    ``detection_s`` is the failure-detector delay between a relay crash
    and its orphans noticing; ``horizon_s``, when set, bounds absolute
    crash times (a crash scheduled past the job horizon is a config
    mistake, caught here instead of silently never firing).
    """

    crashes: tuple[RelayCrash, ...] = ()
    brownouts: tuple[BrownoutWindow, ...] = ()
    links: tuple[LinkFault, ...] = ()
    seed: int = 0
    detection_s: float = 0.05
    horizon_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "brownouts", tuple(self.brownouts))
        object.__setattr__(self, "links", tuple(self.links))
        seen: set[int] = set()
        for crash in self.crashes:
            if crash.node in seen:
                raise ConfigError(
                    f"crashes: node {crash.node} crashes more than once"
                )
            seen.add(crash.node)
        linked: set[int] = set()
        for link in self.links:
            if link.node in linked:
                raise ConfigError(
                    f"links: node {link.node} declared more than once"
                )
            linked.add(link.node)
        _overlap_check(self.brownouts)
        detection = _require_finite("detection_s", self.detection_s)
        if detection < 0.0:
            raise ConfigError(f"detection_s must be >= 0, got {detection}")
        object.__setattr__(self, "detection_s", detection)
        if self.horizon_s is not None:
            horizon = _require_finite("horizon_s", self.horizon_s)
            if horizon <= 0.0:
                raise ConfigError(f"horizon_s must be > 0, got {horizon}")
            object.__setattr__(self, "horizon_s", horizon)
            for crash in self.crashes:
                if crash.at_s is not None and crash.at_s > horizon:
                    raise ConfigError(
                        f"crashes: node {crash.node} at_s {crash.at_s} is "
                        f"past horizon_s {horizon}"
                    )
            for window in self.brownouts:
                if window.start_s >= horizon:
                    raise ConfigError(
                        f"brownouts: {window.target} window start_s "
                        f"{window.start_s} is past horizon_s {horizon}"
                    )

    @property
    def empty(self) -> bool:
        """True when the spec declares no fault at all (the fault-free
        twin: an empty spec must be bit-identical to ``faults=None``)."""
        return not (self.crashes or self.brownouts or self.links)

    def crash_for(self, node: int) -> RelayCrash | None:
        for crash in self.crashes:
            if crash.node == node:
                return crash
        return None

    def link_for(self, node: int) -> LinkFault | None:
        for link in self.links:
            if link.node == node:
                return link
        return None

    def to_dict(self) -> dict:
        return {
            "crashes": [crash.to_dict() for crash in self.crashes],
            "brownouts": [window.to_dict() for window in self.brownouts],
            "links": [link.to_dict() for link in self.links],
            "seed": int(self.seed),
            "detection_s": self.detection_s,
            "horizon_s": self.horizon_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"faults must be an object, got {data!r}")
        _expect(
            data,
            {"crashes", "brownouts", "links", "seed", "detection_s",
             "horizon_s"},
            "faults",
        )
        for name in ("crashes", "brownouts", "links"):
            value = data.get(name, [])
            if not isinstance(value, list):
                raise ConfigError(f"faults.{name} must be a list, got {value!r}")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError(f"faults.seed must be an integer, got {seed!r}")
        return cls(
            crashes=tuple(
                RelayCrash.from_dict(entry) for entry in data.get("crashes", [])
            ),
            brownouts=tuple(
                BrownoutWindow.from_dict(entry)
                for entry in data.get("brownouts", [])
            ),
            links=tuple(
                LinkFault.from_dict(entry) for entry in data.get("links", [])
            ),
            seed=seed,
            detection_s=data.get("detection_s", 0.05),
            horizon_s=data.get("horizon_s"),
        )

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(),
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )

    @property
    def fault_hash(self) -> str:
        """sha256 of the canonical JSON — process-independent."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
