"""End-to-end integration: full pipeline invariants across subsystems."""

from dataclasses import replace

import pytest

from repro.core import presets
from repro.core.builds import BuildMode, build_benchmark
from repro.core.generator import generate
from repro.core.runner import BenchmarkRunner
from repro.elf.sections import SectionKind
from repro.machine.cluster import Cluster
from repro.scenario import ScenarioSpec, simulate


class TestCrossSubsystemInvariants:
    def test_file_bytes_cover_sections(self, tiny_build_vanilla):
        """Every published image is big enough for all its extents."""
        for image in tiny_build_vanilla.images.values():
            for name, (offset, size) in image.extents.items():
                assert offset + size <= image.size_bytes, (image.path, name)

    def test_mapped_bytes_match_alloc_sections(self, tiny_spec, cluster):
        build = build_benchmark(tiny_spec, cluster.nfs, BuildMode.LINKED)
        for img in build.images.values():
            cluster.file_store.add(img)
        result = BenchmarkRunner(
            spec=tiny_spec, mode=BuildMode.LINKED, cluster=Cluster(n_nodes=1)
        ).run()
        link_map = result.linker._link_map(
            result.cluster.nodes[0].processes[-1]
        )
        for obj in link_map:
            for kind, mapping in obj.mappings.items():
                assert mapping.size == obj.shared_object.sections.size(kind)

    def test_all_plt_bound_after_bind_now_run(self, tiny_spec):
        result = BenchmarkRunner(
            spec=tiny_spec, mode=BuildMode.LINKED_BIND_NOW
        ).run()
        process = result.cluster.nodes[0].processes[-1]
        for obj in process.link_map:
            assert obj.fully_bound, obj.soname

    def test_all_got_resolved_after_any_run(self, tiny_spec):
        for mode in BuildMode:
            result = BenchmarkRunner(spec=tiny_spec, mode=mode).run()
            process = result.cluster.nodes[0].processes[-1]
            for obj in process.link_map:
                assert len(obj.got_resolved) == len(
                    obj.shared_object.data_relocations
                ), (mode, obj.soname)

    def test_visit_leaves_all_visited_slots_bound(self, tiny_spec):
        """After a full-coverage linked run, every module is fully bound
        (100% visit touches every chain and external callee)."""
        result = BenchmarkRunner(spec=tiny_spec, mode=BuildMode.LINKED).run()
        process = result.cluster.nodes[0].processes[-1]
        for module in tiny_spec.modules:
            obj = process.link_map.find(module.soname)
            assert obj is not None
            # Every chain callee got fixed up during the visit.
            chained = {
                f.internal_callee
                for f in module.functions
                if f.internal_callee is not None
            }
            assert chained <= obj.plt_resolved

    def test_link_map_sizes(self, tiny_spec):
        vanilla = BenchmarkRunner(spec=tiny_spec, mode=BuildMode.VANILLA).run()
        linked = BenchmarkRunner(spec=tiny_spec, mode=BuildMode.LINKED).run()
        vanilla_map = vanilla.cluster.nodes[0].processes[-1].link_map
        linked_map = linked.cluster.nodes[0].processes[-1].link_map
        # Same final object population; what differs is when they loaded.
        assert len(vanilla_map) == len(linked_map)

    def test_load_events_counted(self, tiny_spec):
        result = BenchmarkRunner(spec=tiny_spec, mode=BuildMode.VANILLA).run()
        link_map = result.cluster.nodes[0].processes[-1].link_map
        assert link_map.load_events == len(link_map)


class TestDeterminismAcrossStack:
    def test_full_run_bit_identical(self):
        config = replace(presets.tiny(), seed=2024)
        for mode in BuildMode:
            spec = ScenarioSpec(config=config, mode=mode, warm_file_cache=True)
            ra, rb = simulate(spec).rank0, simulate(spec).rank0
            assert ra.startup_s == rb.startup_s
            assert ra.import_s == rb.import_s
            assert ra.visit_s == rb.visit_s
            assert ra.counters["import"] == rb.counters["import"]
            assert ra.counters["visit"] == rb.counters["visit"]

    def test_emitted_source_stable_across_processes(self, tiny_spec, tmp_path):
        from repro.codegen.emitter import SourceEmitter

        first = SourceEmitter(tiny_spec).emit_all()
        second = SourceEmitter(generate(tiny_spec.config)).emit_all()
        assert first == second


class TestScaleMonotonicity:
    def test_more_modules_more_import_time(self):
        small = replace(presets.tiny(), n_modules=3)
        big = replace(presets.tiny(), n_modules=9)
        t_small = BenchmarkRunner(config=small, mode=BuildMode.VANILLA).run().report
        t_big = BenchmarkRunner(config=big, mode=BuildMode.VANILLA).run().report
        assert t_big.import_s > t_small.import_s

    def test_more_functions_more_visit_time(self):
        small = replace(presets.tiny(), avg_functions=10)
        big = replace(presets.tiny(), avg_functions=40)
        t_small = BenchmarkRunner(config=small, mode=BuildMode.VANILLA).run().report
        t_big = BenchmarkRunner(config=big, mode=BuildMode.VANILLA).run().report
        assert t_big.visit_s > t_small.visit_s

    def test_section_totals_scale_with_config(self):
        small = build_benchmark(
            generate(replace(presets.tiny(), avg_functions=10)),
            Cluster().nfs,
            BuildMode.VANILLA,
        ).section_totals()
        big = build_benchmark(
            generate(replace(presets.tiny(), avg_functions=40)),
            Cluster().nfs,
            BuildMode.VANILLA,
        ).section_totals()
        assert big.text > 2 * small.text
        assert big.strtab > 2 * small.strtab
