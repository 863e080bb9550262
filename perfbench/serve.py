"""Start ``pynamic-repro serve`` for the benchmark, optionally profiled.

``python3 -u perfbench/serve.py [--profile PATH] <serve arguments>`` runs
the program's own ``serve`` command in this process.  With ``--profile``
the event-loop thread runs under cProfile and the stats are written to
PATH after the server drains on SIGTERM.  The worker pool's processes
are not profiled.
"""

from __future__ import annotations

import argparse
import cProfile
import sys

from repro.harness.cli import main


def run(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", help="write cProfile stats here on exit")
    args, serve_args = parser.parse_known_args(argv)
    if args.profile is None:
        return main(["serve", *serve_args])
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return main(["serve", *serve_args])
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
