"""Self-test of the benchmark: tiny-size runs of every workload driver.

Run from the repository root with ``python -m pytest perfbench``.  Each
run goes through ``perfbench/run.py`` exactly as a real one does, with
``--size tiny`` inputs that finish in seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_job", "staging_pass", "rush_hour", "service_mix")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def bench(workload: str, *extra: str) -> "tuple[list[str], dict]":
    """Run one tiny benchmark run; returns (stdout lines, final JSON)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "2", "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_reports(lines: "list[str]", result: dict, declared: list) -> None:
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
            for line in lines
        ), f"{metric['name']} not printed with its unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_is_correct(workload):
    lines, result = bench(workload, "--trace", "0")
    assert_reports(lines, result, BENCHMARK["end_to_end"])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    lines, result = bench(workload, "--trace", "1")
    assert_reports(lines, result, BENCHMARK["per_layer"])
    assert result["correct"] is True
    table = lines[lines.index("  layer self seconds under cProfile:") + 1:-1]
    assert table and all(line.split()[-1] == "s" for line in table)
    assert result["metrics"]["trace.overhead"]["value"] > 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if workload == "staging_pass":
        assert metrics["memory.accesses"] == 0 and metrics["memory.self_s"] == 0
        assert metrics["dist.relay_sends"] > 0
    if workload == "service_mix":
        assert metrics["memory.self_s"] == 0
        assert metrics["results.hit_ratio"] > 0


def test_perturbed_expected_value_is_a_failure(tmp_path):
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    entries = golden["cold_job"]["tiny"]
    assert entries, "no tiny goldens recorded for cold_job"
    first = entries[sorted(entries)[0]]
    first["total_s"] += 1e-9
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    lines, result = bench("cold_job", "--trace", "0", "--golden", str(path))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("FAIL cold_job cold answer" in line and "total_s" in line for line in lines)


def test_host_clock_scales_an_interval_by_the_measured_speed(tmp_path):
    sys.path.insert(0, HERE)
    from hostclock import NOMINAL_S, HostClock

    clock = HostClock(str(tmp_path / "reference.db"))
    # The vCPU ran at reference speed for 10 s, then the cpu reference
    # ran 1.5x and the io reference 2x slower.
    clock.add([
        [float(t), NOMINAL_S["cpu"] * (1.0 if t < 10 else 1.5),
         NOMINAL_S["io"] * (1.0 if t < 10 else 2.0)]
        for t in range(20)
    ])
    assert clock.calibrate(1.0, 4.0, "cpu") == pytest.approx(4.0)
    assert clock.calibrate(12.0, 6.0, "cpu") == pytest.approx(4.0)
    assert clock.calibrate(12.0, 6.0, "io") == pytest.approx(3.0)
    # Half the interval at each speed: the mean speed.
    assert clock.calibrate(5.0, 9.5, "cpu") == pytest.approx(9.5 / 1.25)
    # An interval shorter than the sampling gap uses its neighbours.
    assert clock.calibrate(15.2, 0.001, "io") == pytest.approx(0.0005)
