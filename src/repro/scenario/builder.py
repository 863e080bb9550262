"""The fluent :class:`Scenario` builder.

A builder is an immutable chain of edits over an unvalidated field set;
:meth:`Scenario.build` materializes (and validates) the
:class:`ScenarioSpec`.  Because validation is deferred to ``build()``,
order does not matter — ``.pipelined().nodes(1024)`` and
``.nodes(1024).pipelined()`` agree — and the engine is auto-selected:
a chain that adds an overlay or any heterogeneity builds a multirank
spec unless ``.engine()`` pinned one explicitly.

    >>> spec = (Scenario.preset("llnl_multiphysics")
    ...         .nodes(1024)
    ...         .pipelined(chunk_bytes=1 << 20)
    ...         .warm_fraction(0.5)
    ...         .build())
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Mapping

from repro.core.builds import BuildMode
from repro.core.config import PynamicConfig
from repro.dist.topology import DistributionSpec, Topology
from repro.elf.symbols import HashStyle
from repro.errors import ConfigError
from repro.faults.spec import FaultSpec
from repro.scenario.spec import ScenarioSpec


#: Sentinel distinguishing "argument not passed" from an explicit None.
_UNSET = object()


class Scenario:
    """Fluent, immutable builder of :class:`ScenarioSpec` values.

    Every method returns a *new* builder, so partial chains can be
    shared and forked when declaring experiment grids::

        base = Scenario.preset("tiny").nodes(64)
        specs = [base.distribution(name).build() for name in strategies]
    """

    def __init__(self, spec: ScenarioSpec | None = None, **overrides: object) -> None:
        base = spec if spec is not None else ScenarioSpec()
        self._fields: dict[str, object] = {
            f.name: getattr(base, f.name) for f in fields(ScenarioSpec)
        }
        #: True once .engine() pinned the engine explicitly (disables
        #: the build-time auto-selection, which only ever *upgrades*
        #: analytic to multirank when the chain demands it).
        self._engine_pinned = False
        self._fields.update(overrides)

    @classmethod
    def preset(cls, name: str) -> "Scenario":
        """A builder seeded from a registered preset spec."""
        from repro.scenario.presets import scenario_preset

        return cls(scenario_preset(name))

    def _with(self, **changes: object) -> "Scenario":
        clone = Scenario.__new__(Scenario)
        clone._fields = {**self._fields, **changes}
        clone._engine_pinned = self._engine_pinned
        return clone

    # -- machine shape ------------------------------------------------------
    def tasks(self, n_tasks: int, cores_per_node: int | None = None) -> "Scenario":
        """An ``n_tasks``-task job (optionally setting cores per node)."""
        changes: dict[str, object] = {"n_tasks": n_tasks}
        if cores_per_node is not None:
            changes["cores_per_node"] = cores_per_node
        return self._with(**changes)

    def nodes(self, n_nodes: int) -> "Scenario":
        """An ``n_nodes``-node job, one rank per node (the scale-study
        shape: every node pays the cold path)."""
        return self._with(n_tasks=n_nodes, cores_per_node=1)

    def os_profile(self, name: str) -> "Scenario":
        """Default OS profile by registry name."""
        return self._with(os_profile=name)

    # -- library set --------------------------------------------------------
    def config(self, config: PynamicConfig) -> "Scenario":
        """Replace the generated library set."""
        return self._with(config=config)

    def library_set(self, **changes: object) -> "Scenario":
        """Tweak fields of the current library config
        (``.library_set(n_modules=8, avg_functions=30)``)."""
        current = self._fields["config"]
        return self._with(config=replace(current, **changes))  # type: ignore[arg-type]

    def seed(self, seed: int) -> "Scenario":
        """Set the benchmark generator seed."""
        return self.library_set(seed=seed)

    # -- engine and build ---------------------------------------------------
    def engine(self, engine: str) -> "Scenario":
        """Pin the job engine (disables auto-selection)."""
        clone = self._with(engine=engine)
        clone._engine_pinned = True
        return clone

    def mode(self, mode: "BuildMode | str") -> "Scenario":
        """Build mode, as a :class:`BuildMode` or its string value."""
        if isinstance(mode, str):
            try:
                mode = BuildMode(mode)
            except ValueError:
                values = sorted(member.value for member in BuildMode)
                raise ConfigError(
                    f"mode: unknown build mode {mode!r}; choose from {values}"
                ) from None
        return self._with(mode=mode)

    def hash_style(self, style: "HashStyle | str") -> "Scenario":
        """ELF hash style, as a :class:`HashStyle` or its string value."""
        if isinstance(style, str):
            try:
                style = HashStyle(style)
            except ValueError:
                values = sorted(member.value for member in HashStyle)
                raise ConfigError(
                    f"hash_style: unknown style {style!r}; choose from {values}"
                ) from None
        return self._with(hash_style=style)

    def prelink(self, enabled: bool = True) -> "Scenario":
        """Pre-resolve relocations at build time."""
        return self._with(prelink=enabled)

    # -- warm mix -----------------------------------------------------------
    def warm(self, enabled: bool = True) -> "Scenario":
        """Start every node's buffer cache warm."""
        return self._with(warm_file_cache=enabled)

    def warm_fraction(self, fraction: float) -> "Scenario":
        """Fraction of nodes whose caches start warm (multirank)."""
        return self._with(warm_fraction=fraction)

    def warm_nodes(self, *nodes: int) -> "Scenario":
        """Explicit warm node indices (multirank)."""
        return self._with(warm_nodes=tuple(nodes))

    # -- heterogeneity ------------------------------------------------------
    def stragglers(self, *nodes: int, slowdown: float | None = None) -> "Scenario":
        """Throttle the listed nodes (optionally setting the divisor)."""
        changes: dict[str, object] = {"straggler_nodes": tuple(nodes)}
        if slowdown is not None:
            changes["straggler_slowdown"] = slowdown
        return self._with(**changes)

    def jitter(self, os_jitter_s: float) -> "Scenario":
        """Per-rank OS-noise launch jitter upper bound."""
        return self._with(os_jitter_s=os_jitter_s)

    def node_os_profile(self, node: int, name: str) -> "Scenario":
        """Override one node's OS profile by registry name."""
        current = dict(self._fields["node_os_profiles"])  # type: ignore[call-overload]
        current[node] = name
        return self._with(node_os_profiles=tuple(sorted(current.items())))

    # -- distribution overlay -----------------------------------------------
    def distribution(
        self, spec: "DistributionSpec | str | None", **kwargs: object
    ) -> "Scenario":
        """Attach a library-distribution overlay.

        Accepts a :class:`DistributionSpec`, a CLI-style name
        (``"binomial"``, ``"kary"``, ``"flat"``, ``"pfs"``, ``"none"``)
        with :meth:`DistributionSpec.from_name` keywords, or ``None`` to
        remove the overlay.
        """
        if isinstance(spec, str):
            spec = DistributionSpec.from_name(spec, **kwargs)  # type: ignore[arg-type]
        elif kwargs:
            raise ConfigError(
                "distribution: keyword arguments only apply when the "
                "overlay is given by name"
            )
        return self._with(distribution=spec)

    def fanout(self, fanout: int) -> "Scenario":
        """Fan-out degree of the overlay tree (defaults to a k-ary
        overlay when none is attached yet)."""
        current = self._fields["distribution"]
        if current is None:
            current = DistributionSpec(topology=Topology.KARY, fanout=fanout)
        else:
            current = replace(current, fanout=fanout)  # type: ignore[arg-type]
        return self._with(distribution=current)

    def pipelined(self, chunk_bytes: "int | None | object" = _UNSET) -> "Scenario":
        """Chunked cut-through relaying on the overlay (attaching the
        default binomial broadcast when none is set yet).

        ``chunk_bytes`` sets the relay granularity; when not passed,
        an existing overlay's granularity is left untouched (an
        explicit ``chunk_bytes=None`` selects whole-image relaying).
        """
        current = self._fields["distribution"]
        if current is None:
            current = DistributionSpec(topology=Topology.BINOMIAL)
        changes: dict[str, object] = {"pipelined": True}
        if chunk_bytes is not _UNSET:
            changes["chunk_bytes"] = chunk_bytes
        return self._with(
            distribution=replace(current, **changes)  # type: ignore[arg-type]
        )

    # -- fault injection ----------------------------------------------------
    def faults(self, spec: "FaultSpec | None") -> "Scenario":
        """Attach a :class:`repro.faults.FaultSpec` (or ``None`` to
        remove it).  An empty spec normalizes away at build time, so the
        fault-free twin of a faulted chain hashes identically."""
        return self._with(faults=spec)

    # -- materialization ----------------------------------------------------
    def _needs_multirank(self) -> bool:
        f: Mapping[str, object] = self._fields
        faults = f["faults"]
        return bool(
            f["distribution"] is not None
            or f["straggler_nodes"]
            or f["warm_nodes"]
            or f["node_os_profiles"]
            or f["os_jitter_s"]
            or f["warm_fraction"]
            or (faults is not None and not faults.empty)  # type: ignore[attr-defined]
        )

    def build(self) -> ScenarioSpec:
        """Materialize (and validate) the :class:`ScenarioSpec`."""
        fields_ = dict(self._fields)
        if not self._engine_pinned and self._needs_multirank():
            fields_["engine"] = "multirank"
        return ScenarioSpec(**fields_)  # type: ignore[arg-type]

    def run(self) -> "object":
        """Build the spec and simulate it (returns the JobReport)."""
        from repro.scenario.run import simulate

        return simulate(self.build())
