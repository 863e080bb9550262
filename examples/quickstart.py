#!/usr/bin/env python3
"""Quickstart: declare a small Pynamic scenario and run all three builds.

This is the 60-second tour of the Scenario API: describe the generated
library set once, then run the Vanilla, Link, and Link+Bind builds by
swapping one field of the declarative spec — a Table-I style report
shows where each build pays its dynamic-linking bill.

A spec is the only way to declare a job: every engine, sweep, cache
entry and CLI run starts from one.

Run:  PYTHONPATH=src python examples/quickstart.py
"""

from repro import PynamicConfig
from repro.core.builds import BuildMode
from repro.perf.report import render_table
from repro.scenario import Scenario


def main() -> None:
    config = PynamicConfig(
        n_modules=12,
        n_utilities=9,
        avg_functions=60,
        seed=1,
    )
    print(
        f"generating {config.n_modules} Python modules + "
        f"{config.n_utilities} utility libraries "
        f"(~{config.avg_functions} functions each, seed={config.seed})"
    )
    # One base scenario; each build mode is a one-field variation.
    base = Scenario().config(config).warm()

    rows = []
    reports = {}
    for mode in BuildMode:
        report = base.mode(mode).run()
        reports[mode] = report
        rows.append(
            [
                mode.value,
                report.startup_s,
                report.import_s,
                report.visit_s,
                report.total_s,
                report.rank0.lazy_fixups,
            ]
        )
    print()
    print(
        render_table(
            ["version", "startup(s)", "import(s)", "visit(s)", "total(s)", "lazy fixups"],
            rows,
            title="Pynamic results (simulated; compare the shape of Table I)",
        )
    )
    vanilla = reports[BuildMode.VANILLA]
    link = reports[BuildMode.LINKED]
    print()
    print(
        f"pre-linking made import {vanilla.import_s / link.import_s:.1f}x "
        f"faster but visit {link.visit_s / vanilla.visit_s:.1f}x slower — "
        "lazy binding moved the symbol-resolution bill to first call"
    )


if __name__ == "__main__":
    main()
