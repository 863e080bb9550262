"""Code generation: C types, sizes, emission, trees."""

import pytest

from repro.codegen.ctypes_ import CType, Signature
from repro.codegen.driver_emitter import emit_driver
from repro.codegen.emitter import SourceEmitter
from repro.codegen.fileset import write_benchmark_tree
from repro.codegen.sizes import SizeModel, analytic_totals, totals_from_objects
from repro.core import presets
from repro.core.builds import BuildMode, build_benchmark
from repro.core.generator import generate
from repro.errors import ConfigError, GenerationError
from repro.fs.nfs import NFSServer
from repro.rng import SeededRng


class TestSignatures:
    def test_arity_bounds(self):
        with pytest.raises(ConfigError):
            Signature(args=tuple([CType.INT] * 6))

    def test_void_parameter_list(self):
        assert Signature(args=()).parameter_list() == "void"

    def test_parameter_list_text(self):
        signature = Signature(args=(CType.INT, CType.CHAR_PTR))
        assert signature.parameter_list() == "int a0, char * a1"

    def test_argument_list_literals(self):
        signature = Signature(args=(CType.DOUBLE, CType.FLOAT))
        assert signature.argument_list() == "1.0, 1.0f"

    def test_random_signatures_in_paper_range(self):
        rng = SeededRng(1)
        for _ in range(100):
            signature = Signature.random(rng)
            assert 0 <= signature.arity <= 5

    def test_random_uses_all_five_types(self):
        rng = SeededRng(2)
        seen = set()
        for _ in range(300):
            seen.update(Signature.random(rng).args)
        assert seen == set(CType)

    def test_random_draws_the_stream_of_the_per_argument_list(self):
        """The draw table is built once, but each argument still draws
        from the same sequence the old ``list(CType)`` form built per
        argument, so generated benchmarks do not change."""

        def per_argument_list(rng: SeededRng) -> Signature:
            arity = rng.randint(0, 5)
            return Signature(
                args=tuple(rng.choice(list(CType)) for _ in range(arity))
            )

        for seed in (0, 7, 11):
            fresh, reference = SeededRng(seed), SeededRng(seed)
            for _ in range(200):
                assert Signature.random(fresh) == per_argument_list(reference)
            assert fresh.uniform(0.0, 1.0) == reference.uniform(0.0, 1.0)


class TestSizeModel:
    def test_alignment(self):
        model = SizeModel()
        size = model.function_text_bytes(2, 100, 1)
        assert size % model.alignment_bytes == 0

    def test_more_body_more_text(self):
        model = SizeModel()
        assert model.function_text_bytes(0, 200, 0) > model.function_text_bytes(
            0, 50, 0
        )

    def test_calls_add_bytes(self):
        model = SizeModel()
        assert (
            model.function_text_bytes(0, 100, 3)
            >= model.function_text_bytes(0, 100, 0) + 2 * model.per_call_bytes
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            SizeModel(text_bytes_per_instruction=0)
        with pytest.raises(ConfigError):
            SizeModel(symtab_ratio=0.5)

    def test_analytic_matches_exact_within_tolerance(self, tiny_config):
        spec = generate(tiny_config)
        build = build_benchmark(spec, NFSServer(), BuildMode.VANILLA)
        exact = totals_from_objects(build.generated_objects)
        analytic = analytic_totals(tiny_config)
        for field in ("text", "debug", "symtab", "strtab"):
            exact_value = getattr(exact, field)
            analytic_value = getattr(analytic, field)
            assert analytic_value == pytest.approx(exact_value, rel=0.25)

    def test_analytic_llnl_matches_paper_within_10pct(self):
        totals = analytic_totals(presets.llnl_multiphysics()).as_mb()
        paper = {
            "Text": 665,
            "Data": 13,
            "Debug": 1100,
            "Symbol Table": 36,
            "String Table": 348,
        }
        for section, value in paper.items():
            assert totals[section] == pytest.approx(value, rel=0.10)

    def test_name_length_drives_strtab(self):
        from dataclasses import replace

        base = presets.tiny()
        short = analytic_totals(replace(base, name_length=16))
        long = analytic_totals(replace(base, name_length=200))
        assert long.strtab > 5 * short.strtab

    def test_totals_mb_keys(self):
        totals = analytic_totals(presets.tiny()).as_mb()
        assert set(totals) == {
            "Text",
            "Data",
            "Debug",
            "Symbol Table",
            "String Table",
            "total",
        }


class TestEmitter:
    def test_emits_every_library(self, tiny_spec):
        files = SourceEmitter(tiny_spec).emit_all()
        assert len(files) == len(tiny_spec.modules) + len(tiny_spec.utilities)

    def test_module_source_structure(self, tiny_spec):
        emitter = SourceEmitter(tiny_spec)
        module = tiny_spec.modules[0]
        text = emitter.emit_module(module)
        assert '#include "Python.h"' in text
        assert f"void {module.init_name}(void)" in text
        assert "Py_InitModule4" in text
        assert "PyArg_ParseTuple" in text
        # Every generated function appears with a definition.
        for func in module.functions:
            assert f"int {func.name}(" in text

    def test_entry_visits_chain_heads(self, tiny_spec):
        module = tiny_spec.modules[0]
        text = SourceEmitter(tiny_spec).emit_module(module)
        for head in module.chain_heads:
            assert head + "(" in text

    def test_utility_source_has_no_python(self, tiny_spec):
        utility = tiny_spec.utilities[0]
        text = SourceEmitter(tiny_spec).emit_utility(utility)
        assert "Python.h" not in text
        assert "Py_InitModule4" not in text

    def test_balanced_braces(self, tiny_spec):
        for text in SourceEmitter(tiny_spec).emit_all().values():
            assert text.count("{") == text.count("}")

    def test_unknown_symbol_raises(self, tiny_spec):
        with pytest.raises(GenerationError):
            SourceEmitter(tiny_spec).signature_of("ghost")


class TestDriverEmitter:
    def test_driver_lists_all_modules(self, tiny_spec):
        text = emit_driver(tiny_spec)
        for module in tiny_spec.modules:
            assert f'"{module.name}"' in text

    def test_driver_is_valid_python(self, tiny_spec):
        compile(emit_driver(tiny_spec), "pynamic_driver.py", "exec")

    def test_driver_measures_paper_phases(self, tiny_spec):
        text = emit_driver(tiny_spec)
        for phase in ("startup", "import", "visit", "mpi"):
            assert phase in text


class TestFileset:
    def test_writes_complete_tree(self, tiny_spec, tmp_path):
        written = write_benchmark_tree(tiny_spec, tmp_path)
        names = {path.name for path in written}
        assert "pynamic_driver.py" in names
        assert "Makefile" in names
        assert "pynamic.cfg" in names
        for module in tiny_spec.modules:
            assert f"{module.name}.c" in names

    def test_makefile_builds_every_dso(self, tiny_spec, tmp_path):
        write_benchmark_tree(tiny_spec, tmp_path)
        makefile = (tmp_path / "Makefile").read_text()
        for module in tiny_spec.modules:
            assert f"lib{module.name}.so" in makefile

    def test_config_record_reproducibility(self, tiny_spec, tmp_path):
        write_benchmark_tree(tiny_spec, tmp_path)
        record = (tmp_path / "pynamic.cfg").read_text()
        assert f"seed = {tiny_spec.config.seed}" in record

    def test_refuses_oversized_emission(self, tiny_spec, tmp_path):
        with pytest.raises(GenerationError):
            write_benchmark_tree(tiny_spec, tmp_path, max_functions=3)
