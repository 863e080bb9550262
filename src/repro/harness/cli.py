"""Command-line entry point: ``pynamic-repro``.

The CLI is spec-driven: a job is a :class:`ScenarioSpec`, named by a
preset or a JSON file (``--spec``), and dotted ``--set`` overrides edit
any of its fields.  ``run``'s engine flags select the cells of the
experiments that take them.

Examples::

    pynamic-repro list
    pynamic-repro run table1
    pynamic-repro run all --smoke
    pynamic-repro run job_scaling --engine multirank
    pynamic-repro run mitigation_scaled --cache-dir .sweep-cache --json out.json
    pynamic-repro job --spec tiny --set engine=multirank --set n_tasks=64
    pynamic-repro job --spec scenario.json --set distribution.pipelined=true
    pynamic-repro job --spec tiny --set n_tasks=64 --set distribution.topology=binomial
    pynamic-repro spec show llnl_multiphysics_scaled
    pynamic-repro spec validate scenario.json
    pynamic-repro spec schema
    pynamic-repro results query .sweep-cache --metric staging_max
    pynamic-repro results diff old-cache/ .sweep-cache --fail-over 5
    pynamic-repro results export .sweep-cache --json results.json
    pynamic-repro generate --modules 8 --utilities 6 --avg-functions 40 \\
        --out /tmp/pynamic_tree
    pynamic-repro sizes --modules 280 --utilities 215 --avg-functions 1850 \\
        --name-length 236
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.dist.topology import DISTRIBUTION_NAMES
from repro.errors import ConfigError
from repro.harness.experiments import all_experiment_names, run_experiment


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--modules", type=int, default=8, help="Python modules")
    parser.add_argument("--utilities", type=int, default=6, help="utility libraries")
    parser.add_argument(
        "--avg-functions", type=int, default=40, help="average functions per library"
    )
    parser.add_argument("--seed", type=int, default=42, help="generator seed")
    parser.add_argument(
        "--name-length", type=int, default=0, help="pad symbol names to this length"
    )
    parser.add_argument(
        "--depth", type=int, default=10, help="call-chain depth (paper default 10)"
    )
    parser.add_argument(
        "--coverage",
        type=float,
        default=1.0,
        help="fraction of functions the driver visits",
    )


def _config_from_args(args: argparse.Namespace):
    from repro.core.config import PynamicConfig

    return PynamicConfig(
        n_modules=args.modules,
        n_utilities=args.utilities,
        avg_functions=args.avg_functions,
        seed=args.seed,
        name_length=args.name_length,
        max_depth=args.depth,
        coverage=args.coverage,
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Engine/distribution knobs of ``run``'s experiments."""
    parser.add_argument(
        "--engine",
        choices=("analytic", "multirank"),
        default=None,
        help="job engine (experiments that take one; default per experiment)",
    )
    parser.add_argument(
        "--distribution",
        choices=DISTRIBUTION_NAMES,
        default=None,
        help=(
            "library-distribution overlay: none (demand-paged NFS), flat "
            "(staged NFS reads), pfs (flat from the parallel FS), binomial "
            "(tree broadcast), kary (k-ary fan-out; see --fanout)"
        ),
    )
    parser.add_argument(
        "--fanout",
        type=int,
        default=2,
        help="fan-out degree of the kary distribution tree",
    )
    parser.add_argument(
        "--pipelined",
        action="store_true",
        help=(
            "cut-through relaying on the tree distributions: forward each "
            "image (or chunk) as soon as it lands instead of "
            "store-and-forwarding the full set"
        ),
    )
    parser.add_argument(
        "--chunk-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "relay granularity of the distribution overlay (default: whole "
            "images; also sets the cut-through cell of the mitigation "
            "experiment)"
        ),
    )
    parser.add_argument(
        "--warm-fraction",
        type=float,
        default=None,
        metavar="FRACTION",
        help=(
            "fraction of nodes whose buffer caches start warm — warm relay "
            "daemons serve their subtrees from the local cache (mitigation "
            "warm-mix axis / job warm mix)"
        ),
    )


def _distribution_from_args(args: argparse.Namespace):
    if args.distribution is None:
        return None
    from repro.dist.topology import DistributionSpec

    return DistributionSpec.from_name(
        args.distribution,
        fanout=args.fanout,
        pipelined=args.pipelined,
        chunk_bytes=args.chunk_bytes,
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The declarative spelling: ``--spec`` + ``--set`` overrides."""
    parser.add_argument(
        "--spec",
        default=None,
        metavar="NAME_OR_PATH",
        required=True,
        help=(
            "run a ScenarioSpec: a preset name (see `spec presets`) or a "
            "JSON file"
        ),
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help=(
            "override a spec field by dotted path (repeatable), e.g. "
            "--set n_tasks=64 --set config.n_modules=8 "
            "--set distribution.topology=kary; values are parsed as JSON "
            "(bare words are strings)"
        ),
    )


def _load_document(source: str, parse, preset=None):
    """Resolve a document source: a JSON file path or a preset name.

    Files go through ``parse`` (:func:`parse_spec_document` or
    :func:`parse_workload_document`), the validate-and-hash entries the
    simulation service routes submissions through, so the CLI and the
    server can never disagree on a document.  Without ``preset`` the
    source must be a file.  Every file error is a :class:`ConfigError`
    that names the file.
    """
    looks_like_path = (
        source.endswith(".json")
        or os.path.sep in source
        or os.path.exists(source)
    )
    if preset is not None and not looks_like_path:
        return preset(source)
    try:
        with open(source, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: not valid JSON ({exc})") from None
    try:
        return parse(data)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _apply_overrides(spec, assignments: list[str]):
    """Apply dotted ``--set key=value`` edits and re-validate.

    Mirrors the fluent builder's engine auto-selection: an override
    that adds an overlay or heterogeneity to an analytic spec upgrades
    the engine to multirank, unless an override pins ``engine``
    explicitly.
    """
    from repro.scenario import ScenarioSpec

    data = spec.to_dict()
    engine_pinned = False
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        if not sep or not key:
            raise ConfigError(
                f"--set expects KEY=VALUE, got {assignment!r}"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare words are strings ("--set engine=multirank")
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            child = node.get(part)
            if child is None:
                child = {}
                node[part] = child
            if not isinstance(child, dict):
                raise ConfigError(
                    f"--set {key}: {part!r} is not an object field"
                )
            node = child
        node[parts[-1]] = value
        if key == "engine":
            engine_pinned = True
    try:
        return ScenarioSpec.from_dict(data)
    except ConfigError:
        # An override added an overlay or heterogeneity to an analytic
        # spec: retry on the engine those fields demand (the fluent
        # builder's auto-selection), unless an override pinned engine.
        if engine_pinned or data.get("engine", "analytic") != "analytic":
            raise
        data["engine"] = "multirank"
        return ScenarioSpec.from_dict(data)


def _format_metric(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return "-" if value is None else str(value)


def _run_results(args: argparse.Namespace) -> int:
    """The ``results query/diff/export`` subcommands."""
    from repro.perf.report import render_table
    from repro.results import (
        diff_rows,
        export_document,
        open_warehouse,
        query_rows,
        resolve_metrics,
        write_json_atomic,
    )

    try:
        if args.results_command == "query":
            metrics = resolve_metrics(args.metrics)
            with open_warehouse(args.warehouse) as store:
                stored = len(store)
                rows = query_rows(
                    store,
                    engine=args.engine,
                    distribution=args.distribution,
                    kind=args.kind,
                    commit=args.commit,
                    key_prefix=args.spec_hash,
                )
            if not rows and not args.json:
                # An empty table invites misreading ("the sweep ran but
                # produced nothing"); say which of the two empties it is.
                if stored == 0:
                    print(
                        f"warehouse {args.warehouse} is empty — run a "
                        f"sweep or job with --cache-dir pointing at it "
                        f"to populate it"
                    )
                else:
                    print(
                        f"no rows match the given filters "
                        f"({stored} row(s) stored in {args.warehouse}); "
                        f"try `results query {args.warehouse}` without "
                        f"filters"
                    )
                return 0
            if args.json:
                print(json.dumps(rows, indent=2, sort_keys=True))
                return 0
            table = [
                [
                    (row.get("result_key") or row["cache_key"])[:16],
                    row.get("kind") or "-",
                    row.get("engine") or "-",
                    row.get("distribution") or "-",
                    _format_metric(row.get("n_tasks")),
                    _format_metric(row.get("n_nodes")),
                    *[_format_metric(row.get(metric)) for metric in metrics],
                    (row.get("git_commit") or "-")[:8],
                    row.get("created_at") or "-",
                ]
                for row in rows
            ]
            print(
                render_table(
                    ["spec", "kind", "engine", "distribution", "tasks",
                     "nodes", *metrics, "commit", "stored"],
                    table,
                    title=f"{len(rows)} stored result(s)",
                )
            )
            return 0
        if args.results_command == "diff":
            metrics = resolve_metrics(args.metrics)
            with open_warehouse(args.old) as old_store:
                old_rows = query_rows(old_store)
            with open_warehouse(args.new) as new_store:
                new_rows = query_rows(new_store)
            empties = [
                location
                for location, rows in ((args.old, old_rows), (args.new, new_rows))
                if not rows
            ]
            if empties and not args.json:
                # A zero-row diff looks like "no regressions"; an empty
                # side means there was nothing to compare at all.
                for location in empties:
                    print(f"warehouse {location} is empty — nothing to diff")
                return 0
            diff = diff_rows(old_rows, new_rows, metrics)
            if args.json:
                print(json.dumps(diff, indent=2, sort_keys=True))
            else:
                table = [
                    [
                        entry["spec"],
                        entry.get("distribution") or "-",
                        _format_metric(entry.get("n_nodes")),
                        entry["metric"],
                        _format_metric(entry["old"]),
                        _format_metric(entry["new"]),
                        f"{entry['pct']:+.2f}%",
                    ]
                    for entry in diff["changed"]
                ]
                print(
                    render_table(
                        ["spec", "distribution", "nodes", "metric", "old",
                         "new", "delta"],
                        table,
                        title=(
                            f"{len(diff['changed'])} compared metric(s), "
                            f"{len(diff['only_old'])} only in old, "
                            f"{len(diff['only_new'])} only in new, "
                            f"{diff['fingerprint_mismatches']} written by "
                            f"another model"
                        ),
                    )
                )
            if (
                args.fail_over is not None
                and diff["max_regression_pct"] > args.fail_over
            ):
                print(
                    f"FAIL: worst regression "
                    f"{diff['max_regression_pct']:+.2f}% exceeds "
                    f"--fail-over {args.fail_over}%",
                    file=sys.stderr,
                )
                return 1
            return 0
        if args.results_command == "export":
            with open_warehouse(args.warehouse) as store:
                document = export_document(store)
            if args.json == "-":
                print(json.dumps(document, indent=2, sort_keys=True))
            else:
                write_json_atomic(args.json, document)
                print(
                    f"wrote {document['row_count']} row(s) to {args.json}"
                )
            return 0
    except ConfigError as exc:
        print(f"{exc}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse enforces the subcommands


def _run_spec_dir(args: argparse.Namespace) -> int:
    """``run --spec-dir``: a directory of spec JSONs as one batch study.

    Every ``*.json`` in the directory is loaded as a
    :class:`ScenarioSpec`, simulated through :func:`simulate` (so a
    ``--cache-dir`` memoizes the whole study in the results warehouse),
    and summarized into one result JSON per spec named by its canonical
    spec hash — the open ROADMAP batch-study item.
    """
    from repro.results.schema import extract_columns
    from repro.scenario import ScenarioSpec, parse_spec_document, simulate

    spec_dir = args.spec_dir
    if not os.path.isdir(spec_dir):
        print(f"--spec-dir {spec_dir}: not a directory", file=sys.stderr)
        return 1
    paths = sorted(
        os.path.join(spec_dir, name)
        for name in os.listdir(spec_dir)
        if name.endswith(".json")
    )
    if not paths:
        print(f"--spec-dir {spec_dir}: no *.json spec files", file=sys.stderr)
        return 1
    specs: list[tuple[str, ScenarioSpec]] = []
    for path in paths:
        try:
            specs.append((path, _load_document(path, parse_spec_document)))
        except ConfigError as exc:
            print(f"{exc}", file=sys.stderr)
            return 1
    out_dir = args.out or os.path.join(spec_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    from repro.perf.report import render_table

    rows = []
    for path, spec in specs:
        report = simulate(spec, cache_dir=args.cache_dir)
        columns = extract_columns(report)
        document = {
            "spec_hash": spec.spec_hash,
            "source": os.path.basename(path),
            "spec": spec.to_dict(),
            "metrics": columns["metrics"],
        }
        out_path = os.path.join(out_dir, f"{spec.spec_hash}.json")
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        rows.append(
            [
                os.path.basename(path),
                spec.spec_hash[:16],
                spec.engine,
                spec.n_tasks,
                _format_metric(columns["metrics"].get("total_s")),
                _format_metric(columns["metrics"].get("total_max")),
            ]
        )
    print(
        render_table(
            ["spec file", "spec hash", "engine", "tasks", "total_s",
             "total_max"],
            rows,
            title=f"{len(specs)} spec(s) -> {out_dir}",
        )
    )
    return 0


def _run_workload_command(args: argparse.Namespace) -> int:
    """The ``workload run/show/validate/schema/presets`` subcommands."""
    from repro.workload import (
        WORKLOAD_JSON_SCHEMA,
        parse_workload_document,
        run_workload,
        workload_preset,
        workload_preset_names,
    )

    if args.workload_command == "schema":
        print(json.dumps(WORKLOAD_JSON_SCHEMA, indent=2, sort_keys=True))
        return 0
    if args.workload_command == "presets":
        for name in workload_preset_names():
            print(name)
        return 0
    validating = args.workload_command == "validate"
    try:
        spec = _load_document(
            args.source,
            parse_workload_document,
            None if validating else workload_preset,
        )
    except ConfigError as exc:
        print(f"{exc}", file=sys.stderr)
        return 1
    if validating:
        print(f"{args.source}: valid (workload_hash {spec.workload_hash})")
        return 0
    if args.workload_command == "hash":
        print(spec.workload_hash)
        return 0
    if args.workload_command == "show":
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        print(f"workload_hash {spec.workload_hash}", file=sys.stderr)
        return 0
    # workload run
    from repro.perf.report import render_table

    print(f"workload {spec.workload_hash[:16]}", file=sys.stderr)
    report = run_workload(spec, cache_dir=args.cache_dir)
    print(
        f"workload: {report.n_jobs} jobs on {report.n_nodes} shared nodes "
        f"({report.policy} queue), makespan {report.makespan_s:.4f}s, "
        f"fairness spread {report.fairness_spread:.3f}"
    )
    print(
        render_table(
            ["tenant", "jobs", "wait p50/p95", "cold-start p50/p95",
             "staging p95", "slowdown p95"],
            [
                [
                    t.name,
                    t.n_jobs,
                    f"{t.wait_p50_s:.4f}/{t.wait_p95_s:.4f}",
                    f"{t.startup_p50_s:.4f}/{t.startup_p95_s:.4f}",
                    f"{t.staging_p95_s:.4f}",
                    f"{t.slowdown_p95:.3f}",
                ]
                for t in report.tenants
            ],
            title="per-tenant percentiles (seconds)",
        )
    )
    if args.json is not None:
        document = report.to_json_dict()
        if args.json == "-":
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="pynamic-repro",
        description=(
            "Reproduce the tables of 'Pynamic: the Python Dynamic "
            "Benchmark' (IISWC 2007) on a simulated cluster."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser(
        "run",
        help="run one experiment (or 'all'), or a --spec-dir batch study",
    )
    run_parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment name or 'all' (omit when using --spec-dir)",
    )
    run_parser.add_argument(
        "--spec-dir",
        default=None,
        metavar="DIR",
        help=(
            "batch study: run every ScenarioSpec *.json in DIR through "
            "simulate() and write one result JSON per spec, named by its "
            "canonical spec hash (combine with --cache-dir to memoize "
            "the whole study in the results warehouse)"
        ),
    )
    run_parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help=(
            "output directory for --spec-dir result files "
            "(default: <spec-dir>/results)"
        ),
    )
    _add_engine_arguments(run_parser)
    run_parser.add_argument(
        "--node-counts",
        type=int,
        nargs="+",
        default=None,
        help="node counts for scale studies that accept them (mitigation)",
    )
    run_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the results (tables + metrics) as JSON",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "results warehouse directory for every experiment's "
            "simulated cells: each cell is stored under its spec hash "
            "and replays across processes instead of re-simulating, "
            "and the results gain sweep_cache_* metrics"
        ),
    )
    run_parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "scale experiments that support it down to seconds (the CI "
            "registry sweep mode)"
        ),
    )
    job_parser = sub.add_parser(
        "job", help="simulate one N-task Pynamic job and print its report"
    )
    _add_spec_arguments(job_parser)
    job_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "memoize the job through the results warehouse: a spec hash "
            "any sweep already evaluated replays from disk, and this "
            "job's report becomes queryable via `results query`"
        ),
    )
    job_parser.add_argument(
        "--staging-only",
        action="store_true",
        help=(
            "run only the spec's cold staging pass (the distribution "
            "overlay delivering every DLL to every node) and print its "
            "makespan, skipping the per-rank import/visit simulation — "
            "the same cell shape the mitigation studies sweep, and the "
            "only tractable spelling of >10k-node cells like "
            "llnl_multiphysics_xl (16384 full rank simulations would "
            "take hours; the staging pass takes minutes)"
        ),
    )
    job_parser.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=25,
        default=None,
        metavar="N",
        help=(
            "run the simulation under cProfile and print the top N "
            "functions by own time (default 25) after the report — the "
            "starting point for hot-path hunts; note that with a warm "
            "--cache-dir hit this profiles the replay, not a simulation"
        ),
    )
    results_parser = sub.add_parser(
        "results",
        help="query, diff or export a results warehouse (sweep cache DB)",
    )
    results_sub = results_parser.add_subparsers(
        dest="results_command", required=True
    )

    def _add_warehouse_argument(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "warehouse",
            nargs="?",
            default=".sweep-cache",
            help=(
                "cache dir or .sqlite3 file holding the warehouse "
                "(default: .sweep-cache)"
            ),
        )

    query_parser = results_sub.add_parser(
        "query",
        help="print stored sweep rows (typed columns, no payloads)",
    )
    _add_warehouse_argument(query_parser)
    query_parser.add_argument(
        "--engine", default=None, help="filter by engine column"
    )
    query_parser.add_argument(
        "--distribution", default=None, help="filter by distribution label"
    )
    query_parser.add_argument(
        "--kind", default=None, help="filter by result kind (e.g. JobReport)"
    )
    query_parser.add_argument(
        "--commit", default=None, help="filter by git commit"
    )
    query_parser.add_argument(
        "--spec-hash",
        default=None,
        metavar="PREFIX",
        help="filter by canonical spec-hash (or row-digest) prefix",
    )
    query_parser.add_argument(
        "--metric",
        action="append",
        default=[],
        dest="metrics",
        metavar="COLUMN",
        help="metric column(s) to print (repeatable; default: total_max, "
        "staging_max)",
    )
    query_parser.add_argument(
        "--json", action="store_true", help="emit rows as JSON to stdout"
    )
    diff_parser = results_sub.add_parser(
        "diff",
        help=(
            "compare two warehouses metric-by-metric (regression gate "
            "over metric trajectories across commits)"
        ),
    )
    diff_parser.add_argument(
        "old", help="baseline warehouse (cache dir or .sqlite3 file)"
    )
    diff_parser.add_argument(
        "new", help="candidate warehouse (cache dir or .sqlite3 file)"
    )
    diff_parser.add_argument(
        "--metric",
        action="append",
        default=[],
        dest="metrics",
        metavar="COLUMN",
        help="metric column(s) to compare (repeatable)",
    )
    diff_parser.add_argument(
        "--fail-over",
        type=float,
        default=None,
        metavar="PCT",
        help=(
            "exit nonzero when any shared grid point's metric grew by "
            "more than PCT percent — the CI perf-regression gate"
        ),
    )
    diff_parser.add_argument(
        "--json", action="store_true", help="emit the diff as JSON to stdout"
    )
    export_parser = results_sub.add_parser(
        "export",
        help="dump every stored row (typed columns + spec JSON) as JSON",
    )
    _add_warehouse_argument(export_parser)
    export_parser.add_argument(
        "--json",
        required=True,
        metavar="PATH",
        help="output path ('-' writes to stdout)",
    )
    workload_parser = sub.add_parser(
        "workload",
        help=(
            "multi-tenant batch-queue workloads: many ScenarioSpec jobs "
            "on one shared cluster + filesystem timeline"
        ),
    )
    workload_sub = workload_parser.add_subparsers(
        dest="workload_command", required=True
    )
    workload_run = workload_sub.add_parser(
        "run",
        help=(
            "simulate a WorkloadSpec (preset name or JSON file) and "
            "print per-tenant wait/cold-start percentiles, makespan and "
            "fairness"
        ),
    )
    workload_run.add_argument(
        "source", help="workload preset name or path to a workload JSON file"
    )
    workload_run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "memoize the run in the results warehouse under the "
            "canonical workload hash; a repeated run replays in "
            "milliseconds"
        ),
    )
    workload_run.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the WorkloadReport digest as JSON ('-' = stdout)",
    )
    workload_show = workload_sub.add_parser(
        "show",
        help=(
            "print a workload (preset name or JSON file) as canonical "
            "JSON; the workload hash goes to stderr"
        ),
    )
    workload_show.add_argument(
        "source", help="workload preset name or path to a workload JSON file"
    )
    workload_validate = workload_sub.add_parser(
        "validate",
        help="validate a workload JSON file against the published schema",
    )
    workload_validate.add_argument(
        "source", help="path to a workload JSON file"
    )
    workload_hash_parser = workload_sub.add_parser(
        "hash",
        help=(
            "print the canonical workload hash (the warehouse / service "
            "result key) without simulating"
        ),
    )
    workload_hash_parser.add_argument(
        "source", help="workload preset name or path to a workload JSON file"
    )
    workload_sub.add_parser(
        "schema", help="print the published workload JSON schema"
    )
    workload_sub.add_parser(
        "presets", help="list registered workload presets"
    )
    serve_parser = sub.add_parser(
        "serve",
        help=(
            "run the always-on simulation service: an HTTP frontend "
            "that answers warm spec hashes from the warehouse and "
            "farms cold specs to a worker pool"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8472,
        help="TCP port (0 binds an ephemeral port, printed at startup)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="simulation worker processes",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=".sweep-cache",
        help="results warehouse backing warm answers and commits",
    )
    spec_parser = sub.add_parser(
        "spec", help="show, validate or describe ScenarioSpec documents"
    )
    spec_sub = spec_parser.add_subparsers(dest="spec_command", required=True)
    show_parser = spec_sub.add_parser(
        "show",
        help=(
            "print a spec (preset name or JSON file) as canonical JSON; "
            "the spec hash goes to stderr"
        ),
    )
    show_parser.add_argument(
        "source", help="preset name or path to a spec JSON file"
    )
    show_parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override fields by dotted path before printing",
    )
    validate_parser = spec_sub.add_parser(
        "validate",
        help="validate a spec JSON file against the published schema",
    )
    validate_parser.add_argument("source", help="path to a spec JSON file")
    spec_hash_parser = spec_sub.add_parser(
        "hash",
        help=(
            "print the canonical spec hash (the warehouse / service "
            "result key) without simulating"
        ),
    )
    spec_hash_parser.add_argument(
        "source", help="preset name or path to a spec JSON file"
    )
    spec_sub.add_parser("schema", help="print the published JSON schema")
    spec_sub.add_parser("presets", help="list registered scenario presets")
    generate_parser = sub.add_parser(
        "generate", help="emit a benchmark source tree (C files + driver)"
    )
    _add_config_arguments(generate_parser)
    generate_parser.add_argument(
        "--out", required=True, help="output directory for the source tree"
    )
    sizes_parser = sub.add_parser(
        "sizes", help="print the Table-III section sizes for a configuration"
    )
    _add_config_arguments(sizes_parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in all_experiment_names():
            print(name)
        return 0
    if args.command == "run":
        if args.spec_dir is not None:
            return _run_spec_dir(args)
        if args.experiment is None:
            print(
                "run: name an experiment (or 'all'), or pass --spec-dir DIR",
                file=sys.stderr,
            )
            return 1
        names = (
            all_experiment_names()
            if args.experiment == "all"
            else [args.experiment]
        )
        collected = {}
        for name in names:
            try:
                result = run_experiment(
                    name,
                    engine=args.engine,
                    distribution=_distribution_from_args(args),
                    node_counts=args.node_counts,
                    chunk_bytes=args.chunk_bytes,
                    warm_fraction=args.warm_fraction,
                    cache_dir=args.cache_dir,
                    smoke=True if args.smoke else None,
                )
            except ConfigError as exc:
                print(f"{exc}", file=sys.stderr)
                return 1
            collected[name] = result
            print(result.render())
            print()
        if args.json is not None:
            payload = {
                name: result.to_json_dict()
                for name, result in collected.items()
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"wrote {args.json}")
        return 0
    if args.command == "workload":
        return _run_workload_command(args)
    if args.command == "serve":
        from repro.service import ServiceConfig, serve

        return serve(
            ServiceConfig(
                host=args.host,
                port=args.port,
                workers=args.workers,
                cache_dir=args.cache_dir,
            )
        )
    if args.command == "results":
        return _run_results(args)
    if args.command == "job":
        from repro.scenario import parse_spec_document, scenario_preset, simulate

        # Same clean-error contract as `spec show`: a bad name, file or
        # override prints one line, not a traceback.
        try:
            spec = _load_document(
                args.spec, parse_spec_document, scenario_preset
            )
            if args.overrides:
                spec = _apply_overrides(spec, args.overrides)
        except ConfigError as exc:
            print(f"{exc}", file=sys.stderr)
            return 1
        print(f"spec {spec.spec_hash[:16]}", file=sys.stderr)
        profiler = None
        if args.profile is not None:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        try:
            if args.staging_only:
                from repro.harness.mitigation_scaled import eval_staging_point
                from repro.harness.sweep import SweepRunner

                runner = SweepRunner(cache_dir=args.cache_dir or None)
                [summary] = runner.map_specs(eval_staging_point, [spec])
            else:
                report = simulate(spec, cache_dir=args.cache_dir)
        except ConfigError as exc:
            print(f"{exc}", file=sys.stderr)
            return 1
        finally:
            if profiler is not None:
                profiler.disable()
        if args.staging_only:
            print(
                f"staging-only {summary.strategy} pass: "
                f"{summary.n_files} DLLs to {summary.n_nodes} nodes, "
                f"{summary.staged_bytes} bytes per node"
            )
            print(
                f"  makespan {summary.makespan_s:.4f}s  "
                f"p50/p95 {summary.p50_s:.4f}/{summary.p95_s:.4f}s  "
                f"skew {summary.skew_s:.4f}s"
            )
            print(
                f"  source reads {summary.source_reads}  "
                f"relay sends {summary.relay_sends}  "
                f"warm nodes {summary.warm_node_count}"
            )
        else:
            print(
                f"{report.engine} job: {report.n_tasks} tasks on "
                f"{report.n_nodes} nodes, "
                f"{'warm' if not report.cold else 'cold'} caches, "
                f"distribution={report.distribution}"
            )
            print(
                f"  startup {report.startup_s:.4f}s"
                f"  import {report.import_s:.4f}s"
                f"  visit {report.visit_s:.4f}s  mpi {report.mpi_s:.4f}s"
                f"  total {report.total_s:.4f}s"
            )
            if report.per_rank is not None:
                print(
                    f"  per-rank total p50/p95/max: {report.total_p50:.4f}/"
                    f"{report.total_p95:.4f}/{report.total_max:.4f}"
                    f"  skew {report.total_skew_s:.4f}s"
                )
            if report.staging_per_node:
                print(
                    f"  staging p50/p95/max: {report.staging_p50:.4f}/"
                    f"{report.staging_p95:.4f}/{report.staging_max:.4f}"
                    f"  skew {report.staging_skew_s:.4f}s"
                )
        if profiler is not None:
            import pstats

            print(f"\ncProfile top {args.profile} by own time:")
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats("tottime").print_stats(args.profile)
        return 0
    if args.command == "spec":
        from repro.scenario import (
            SCENARIO_JSON_SCHEMA,
            parse_spec_document,
            scenario_preset,
            scenario_preset_names,
        )

        if args.spec_command == "show":
            # Same clean-error contract as `spec validate`: a bad
            # name/file/override prints one line, not a traceback.
            try:
                spec = _load_document(
                    args.source, parse_spec_document, scenario_preset
                )
                if args.overrides:
                    spec = _apply_overrides(spec, args.overrides)
            except ConfigError as exc:
                print(f"{exc}", file=sys.stderr)
                return 1
            print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
            print(f"spec_hash {spec.spec_hash}", file=sys.stderr)
            return 0
        if args.spec_command in ("validate", "hash"):
            validating = args.spec_command == "validate"
            try:
                spec = _load_document(
                    args.source,
                    parse_spec_document,
                    None if validating else scenario_preset,
                )
            except ConfigError as exc:
                print(f"{exc}", file=sys.stderr)
                return 1
            if validating:
                print(f"{args.source}: valid (spec_hash {spec.spec_hash})")
            else:
                print(spec.spec_hash)
            return 0
        if args.spec_command == "schema":
            print(json.dumps(SCENARIO_JSON_SCHEMA, indent=2, sort_keys=True))
            return 0
        if args.spec_command == "presets":
            for name in scenario_preset_names():
                print(name)
            return 0
    if args.command == "generate":
        from repro.codegen.fileset import write_benchmark_tree
        from repro.core.generator import generate

        spec = generate(_config_from_args(args))
        written = write_benchmark_tree(spec, args.out)
        print(
            f"wrote {len(written)} files ({spec.total_functions} functions "
            f"across {spec.n_generated_libraries} libraries) to {args.out}"
        )
        return 0
    if args.command == "sizes":
        from repro.codegen.sizes import analytic_totals
        from repro.perf.report import render_table

        totals = analytic_totals(_config_from_args(args)).as_mb()
        print(
            render_table(
                ["section", "MB"],
                [[section, value] for section, value in totals.items()],
                title="analytic section sizes (Table III method)",
            )
        )
        return 0
    return 2  # pragma: no cover - argparse enforces the subcommands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
