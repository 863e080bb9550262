"""The run-list buffer cache against the page-dict cache it replaced.

``pagedict_buffercache.BufferCache`` keeps one dict key per resident
page; ``repro.fs.buffercache.BufferCache`` keeps LRU-ordered runs.  The
two must be indistinguishable: the same return values, counters, fetch
traffic, residency answers and page-level LRU order after every call,
including under evictions that land in the middle of a range.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pagedict_buffercache
from repro.core import presets
from repro.core.builds import BuildMode, build_benchmark
from repro.core.generator import generate
from repro.dist import DistributionOverlay, DistributionSpec
from repro.errors import ConfigError
from repro.fs.buffercache import BufferCache
from repro.fs.files import FileImage
from repro.machine.cluster import Cluster

PAGE = 16
#: Whole and ragged page counts, so ranges end mid-page.
SIZES = (5 * PAGE + 3, 24 * PAGE, 40 * PAGE + 7, 1)
MAX_BYTES = max(SIZES) + PAGE


class _RecordingFS:
    """A backing store that logs every fetch it is charged."""

    def __init__(self) -> None:
        self.calls: list[tuple[int, int]] = []

    def read_seconds(self, n_bytes: int, n_ops: int = 1) -> float:
        self.calls.append((n_bytes, n_ops))
        return n_bytes * 1e-9 + n_ops * 1e-4


class _Side:
    """One cache with its own images and fetch log."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.fs = _RecordingFS()
        self.images = [
            FileImage(path=f"/lib{index}.so", size_bytes=size, filesystem=self.fs)
            for index, size in enumerate(SIZES)
        ]
        self.fetched: list[tuple[int, int]] = []

    def fetch(self, n_bytes: int, n_ops: int) -> float:
        self.fetched.append((n_bytes, n_ops))
        return n_bytes * 2e-9 + n_ops * 3e-4

    def apply(self, op: tuple):
        name, *args = op
        if name in ("drop", "reset_counters"):
            return getattr(self.cache, name)()
        index, offset, size = args
        image = self.images[index]
        try:
            if name == "read_with":
                return self.cache.read_with(image, offset, size, self.fetch)
            return getattr(self.cache, name)(image, offset, size)
        except ConfigError as exc:
            return ("ConfigError", str(exc))


def _oracle_lru(cache) -> list[tuple[str, int]]:
    bits = pagedict_buffercache._PAGE_BITS
    names = {base >> bits: path for path, base in cache._path_bases.items()}
    mask = (1 << bits) - 1
    return [(names[key >> bits], key & mask) for key in cache._pages]


def _run_lru(cache: BufferCache) -> list[tuple[str, int]]:
    return [
        (path, page)
        for path, first, last in cache.runs()
        for page in range(first, last + 1)
    ]


def _check_runs(cache: BufferCache) -> None:
    """Every file's index is sorted, disjoint, and names exactly the
    runs on the LRU list; the page count matches."""
    listed = {id(run) for run in _lru_links(cache)}
    indexed = set()
    for path, runs in cache._files.items():
        for run in runs:
            assert run.path == path and run.first <= run.last
        for left, right in zip(runs, runs[1:]):
            assert left.last < right.first
        indexed.update(id(run) for run in runs)
    assert listed == indexed
    pages = sum(run.last - run.first + 1 for run in _lru_links(cache))
    assert pages == cache._resident <= cache.capacity_pages


def _lru_links(cache: BufferCache):
    run = cache._lru.next
    while run is not cache._lru:
        assert run.next.prev is run
        yield run
        run = run.next


def _ranged_op(name):
    return st.tuples(
        st.just(name),
        st.integers(min_value=0, max_value=len(SIZES) - 1),
        st.integers(min_value=0, max_value=MAX_BYTES),
        st.one_of(st.none(), st.integers(min_value=-PAGE, max_value=MAX_BYTES)),
    )


_OPS = st.one_of(
    _ranged_op("read"),
    _ranged_op("read_with"),
    _ranged_op("install"),
    _ranged_op("contains"),
    st.just(("drop",)),
    st.just(("reset_counters",)),
)


def _clip(op: tuple, keep_raw: bool) -> tuple:
    """Pull most ranges inside their file, so ops mostly succeed."""
    if keep_raw or len(op) == 1:
        return op
    name, index, offset, size = op
    offset = min(offset, SIZES[index])
    if size is not None:
        size = max(0, min(size, SIZES[index] - offset))
    return name, index, offset, size


@settings(
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(
    capacity_pages=st.integers(min_value=1, max_value=64),
    spare_bytes=st.integers(min_value=0, max_value=PAGE - 1),
    ops=st.lists(st.tuples(_OPS, st.integers(0, 7)), min_size=1, max_size=80),
)
def test_matches_the_page_dict_cache(capacity_pages, spare_bytes, ops):
    capacity = capacity_pages * PAGE + spare_bytes
    runs = _Side(BufferCache(capacity_bytes=capacity, page_bytes=PAGE))
    pages = _Side(
        pagedict_buffercache.BufferCache(capacity_bytes=capacity, page_bytes=PAGE)
    )
    for op, draw in ops:
        op = _clip(op, keep_raw=draw == 0)
        assert runs.apply(op) == pages.apply(op), op
        assert (runs.cache.hits, runs.cache.misses) == (
            pages.cache.hits,
            pages.cache.misses,
        ), op
        assert runs.fetched == pages.fetched
        assert runs.fs.calls == pages.fs.calls
        assert runs.cache.resident_bytes() == pages.cache.resident_bytes()
        assert _run_lru(runs.cache) == _oracle_lru(pages.cache), op
        _check_runs(runs.cache)


def test_eviction_inside_the_range_turns_a_later_hit_into_a_miss():
    # Pages 2..3 are resident and oldest; reading 0..3 through a
    # 3-page cache evicts them before the walk reaches them.
    side = _Side(BufferCache(capacity_bytes=3 * PAGE, page_bytes=PAGE))
    image = side.images[1]
    side.cache.read(image, 2 * PAGE, 2 * PAGE)
    side.cache.reset_counters()
    side.cache.read(image, 0, 4 * PAGE)
    assert (side.cache.hits, side.cache.misses) == (0, 4)
    assert list(side.cache.runs()) == [(image.path, 1, 3)]


def test_chunked_install_is_one_run():
    cache = BufferCache(page_bytes=PAGE)
    image = _Side(cache).images[2]
    chunk = 3 * PAGE + 5  # ragged: each chunk re-touches the last page
    installed = 0
    for offset in range(0, image.size_bytes, chunk):
        installed += cache.install(
            image, offset, min(chunk, image.size_bytes - offset)
        )
    assert installed == -(-image.size_bytes // PAGE)
    assert list(cache.runs()) == [(image.path, 0, installed - 1)]


def test_partial_touch_splits_and_leftovers_keep_their_place():
    cache = BufferCache(page_bytes=PAGE)
    side = _Side(cache)
    a, b = side.images[1], side.images[0]
    cache.read(a)
    cache.read(b)
    cache.read(a, 4 * PAGE, 2 * PAGE)
    assert list(cache.runs()) == [
        (a.path, 0, 3),
        (a.path, 6, 23),
        (b.path, 0, 5),
        (a.path, 4, 5),
    ]
    assert cache.contains(a)  # residency follows the chain across runs
    # Pages 6..23 moved to the tail, right after 4..5: one run again.
    cache.read(a, 6 * PAGE)
    assert list(cache.runs())[-2:] == [(b.path, 0, 5), (a.path, 4, 23)]
    # Touching the middle of the newest run splits it too.
    cache.read(a, 10 * PAGE, PAGE)
    assert list(cache.runs())[-3:] == [
        (a.path, 4, 9),
        (a.path, 11, 23),
        (a.path, 10, 10),
    ]


@pytest.mark.parametrize("chunk_bytes", [None, 12_345])
def test_binomial_staging_leaves_one_run_per_file(chunk_bytes):
    config = replace(presets.tiny(), n_modules=6, avg_functions=20)
    cluster = Cluster(n_nodes=8, cores_per_node=1)
    build = build_benchmark(generate(config), cluster.nfs, BuildMode.VANILLA)
    images = list(build.images.values())
    for image in images:
        cluster.file_store.add(image)
    spec = DistributionSpec(chunk_bytes=chunk_bytes)
    DistributionOverlay(spec, cluster).stage(images)
    for node in cluster.nodes:
        cache = node.buffer_cache
        paths = [path for path, _, _ in cache.runs()]
        assert sorted(paths) == sorted(image.path for image in images)
        for image in images:
            assert cache.contains(image)
