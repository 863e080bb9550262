"""The fused memory-access path against a plain reference model.

``ExecutionContext.ifetch``/``dread``/``dwrite`` skip the page touch
when an access stays on one resident page, and
:meth:`CacheHierarchy.walk` updates both cache levels inline.  Both are
shortcuts, so these tests drive random access streams through them and
through the straightforward model kept below (touch on every access,
then a per-level, per-line LRU lookup) and require the same penalties,
counters, page faults and clock, access by access.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig, HierarchyConfig
from repro.cache.hierarchy import AccessKind, CacheHierarchy
from repro.fs.files import FileImage
from repro.fs.nfs import NFSServer
from repro.machine.context import ExecutionContext
from repro.machine.node import Node
from repro.machine.osprofile import OsProfile

LINE = 64
PAGE = 4096
#: Bytes mapped per stream: 16 pages, so accesses reuse pages and lines.
SPAN = 16 * PAGE

_settings = settings(
    max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


class _RefLevel:
    """One tag-only LRU cache level, most-recently-used tag first."""

    def __init__(self, config: CacheConfig) -> None:
        self.ways = config.ways
        self.n_sets = config.n_sets
        self.sets = [[] for _ in range(config.n_sets)]
        self.accesses = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        self.accesses += 1
        tags = self.sets[line % self.n_sets]
        if line in tags:
            tags.remove(line)
            tags.insert(0, line)
            return True
        self.misses += 1
        tags.insert(0, line)
        del tags[self.ways:]
        return False


class _RefHierarchy:
    """Split L1, unified L2: every line goes to L1, misses go on to L2."""

    def __init__(self, config: HierarchyConfig, l2_hit: int, memory: int) -> None:
        self.l1i = _RefLevel(config.l1i)
        self.l1d = _RefLevel(config.l1d)
        self.l2 = _RefLevel(config.l2)
        self.l2_hit = l2_hit
        self.memory = memory

    def access(self, address: int, size: int, kind: AccessKind) -> int:
        l1 = self.l1i if kind is AccessKind.INSTRUCTION else self.l1d
        penalty = 0
        for line in range(address // LINE, (address + size - 1) // LINE + 1):
            if l1.access(line):
                continue
            penalty += self.l2_hit if self.l2.access(line) else self.memory
        return penalty

    def state(self) -> tuple:
        levels = (self.l1i, self.l1d, self.l2)
        return tuple((lv.accesses, lv.misses, lv.sets) for lv in levels)


def _state(hierarchy: CacheHierarchy) -> tuple:
    levels = (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
    return tuple((lv.accesses, lv.misses, lv._sets) for lv in levels)


class _RefContext(ExecutionContext):
    """Touches every access's pages, then charges the reference model."""

    def __init__(self, process, reference: _RefHierarchy) -> None:
        super().__init__(process)
        self.reference = reference

    def _charge(self, address: int, size: int, kind: AccessKind) -> None:
        self._touch(address, size)
        penalty = self.reference.access(address, size, kind)
        if penalty:
            self._clock.add_cycles(penalty)

    def ifetch(self, address: int, size: int) -> None:
        self._charge(address, size, AccessKind.INSTRUCTION)

    def dread(self, address: int, size: int) -> None:
        self._charge(address, size, AccessKind.DATA_READ)

    def dwrite(self, address: int, size: int) -> None:
        self._charge(address, size, AccessKind.DATA_WRITE)


#: Small levels with non-power-of-two set counts (3 and 10 sets), so short
#: streams evict, plus the default Opteron geometry.
_GEOMETRIES = {
    "odd": HierarchyConfig(
        l1i=CacheConfig(3 * 2 * LINE, 2),
        l1d=CacheConfig(3 * 2 * LINE, 2),
        l2=CacheConfig(10 * 4 * LINE, 4),
    ),
    "opteron": HierarchyConfig(),
}

_offsets = st.one_of(
    st.integers(min_value=0, max_value=SPAN - 1),
    # Just below a page boundary: accesses that cross pages.
    st.builds(
        lambda page, back: page * PAGE - back,
        st.integers(min_value=1, max_value=SPAN // PAGE - 1),
        st.integers(min_value=1, max_value=2 * LINE),
    ),
)
_access = st.tuples(
    _offsets,
    st.integers(min_value=1, max_value=5 * LINE),
    st.sampled_from(list(AccessKind)),
    # Repeat the access this many extra times (MRU hits).
    st.integers(min_value=0, max_value=2),
)
_streams = st.lists(_access, min_size=1, max_size=120)


def _expand(stream):
    for offset, size, kind, repeats in stream:
        size = min(size, SPAN - offset)
        for _ in range(repeats + 1):
            yield offset, size, kind


@_settings
@given(geometry=st.sampled_from(sorted(_GEOMETRIES)), stream=_streams)
def test_hierarchy_access_matches_reference(geometry, stream):
    config = _GEOMETRIES[geometry]
    hierarchy = CacheHierarchy(config)
    reference = _RefHierarchy(
        config, hierarchy.l2_hit_penalty, hierarchy.memory_penalty
    )
    for offset, size, kind in _expand(stream):
        assert hierarchy.access(offset, size, kind) == reference.access(
            offset, size, kind
        )
    assert _state(hierarchy) == reference.state()


def _context(config: HierarchyConfig, demand_paging: bool, fast: bool):
    node = Node(hierarchy=CacheHierarchy(config))
    process = node.spawn(profile=OsProfile("p", demand_paging=demand_paging))
    if fast:
        ctx = ExecutionContext(process)
    else:
        hierarchy = node.hierarchy
        ctx = _RefContext(
            process,
            _RefHierarchy(
                config, hierarchy.l2_hit_penalty, hierarchy.memory_penalty
            ),
        )
    image = FileImage(path="/lib.so", size_bytes=SPAN, filesystem=NFSServer())
    # A file-backed and an anonymous mapping, back to back.
    files = process.address_space.map(SPAN // 2, name="file", file=image)
    anon = process.address_space.map(SPAN // 2, name="anon")
    return ctx, files.start, anon.start


@_settings
@given(
    geometry=st.sampled_from(sorted(_GEOMETRIES)),
    demand_paging=st.booleans(),
    stream=_streams,
)
def test_context_matches_reference(geometry, demand_paging, stream):
    config = _GEOMETRIES[geometry]
    fast, file_base, anon_base = _context(config, demand_paging, fast=True)
    ref, ref_file_base, ref_anon_base = _context(config, demand_paging, fast=False)
    assert (file_base, anon_base) == (ref_file_base, ref_anon_base)
    ops = {
        AccessKind.INSTRUCTION: "ifetch",
        AccessKind.DATA_READ: "dread",
        AccessKind.DATA_WRITE: "dwrite",
    }
    half = SPAN // 2
    for offset, size, kind in _expand(stream):
        base, offset = (file_base, offset) if offset < half else (anon_base, offset - half)
        size = min(size, half - offset)
        getattr(fast, ops[kind])(base + offset, size)
        getattr(ref, ops[kind])(base + offset, size)
        assert fast.node.clock.cycles == ref.node.clock.cycles
    assert _state(fast.node.hierarchy) == ref.reference.state()
    assert (fast.minor_faults, fast.major_faults, fast.major_fault_bytes) == (
        ref.minor_faults,
        ref.major_faults,
        ref.major_fault_bytes,
    )
    assert fast.process.address_space.resident_pages() == (
        ref.process.address_space.resident_pages()
    )
