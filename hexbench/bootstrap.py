"""Child-process entry point: run splithex from the source tree.

    python hexbench/bootstrap.py cli [--trace FILE --request ID] -- ARGS...
        Runs ``splithex.cli.main(ARGS)`` and exits with its code.
    python hexbench/bootstrap.py setup [--trace FILE]
        Imports splithex, fills the geometry caches, builds the hexagon for
        all three pairings and prints the seconds taken as JSON.

``src`` is put first on ``sys.path`` so no install is needed, and the CLI is
called directly rather than through ``python -m splithex.cli``, which warns
because the package imports ``cli`` itself.  With ``--trace`` the span
wrappers are installed right after the import and the spans are written to
FILE when the work ends.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def _import_traced(trace_path, request):
    """Import splithex.cli, recording the import as a span when tracing."""
    start = time.perf_counter()
    import splithex.cli  # noqa: F401
    end = time.perf_counter()
    if trace_path is None:
        return None
    from spans import Tracer

    tracer = Tracer()
    tracer.request = request
    tracer.spans.append(["cli.import", start, end, -1, request])
    tracer.install()
    return tracer


def run_cli(args) -> int:
    tracer = _import_traced(args.trace, args.request)
    import splithex.cli

    try:
        return splithex.cli.main(args.argv)
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


def library() -> dict:
    """Fill the geometry caches and build the hexagon for every pairing.

    Returns {pairing: (points, lines)}.  Calls go through the module
    attributes so that installed span wrappers see them.
    """
    from splithex import geometry, hexagon

    partitions = geometry.hyperoval_partitions()
    geometry.ti_lines()
    geometry.ti_planes()
    bases = {}
    for partition in partitions:
        structure = hexagon.build(partition)
        bases[partition.index] = (structure.points, structure.lines)
    return bases


def run_setup(args) -> int:
    start = time.perf_counter()
    tracer = _import_traced(args.trace, "setup")
    library()
    end = time.perf_counter()
    if tracer is not None:
        tracer.dump(args.trace)
    json.dump({"setup_s": end - start}, sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bootstrap")
    sub = parser.add_subparsers(dest="mode", required=True)
    cli = sub.add_parser("cli")
    cli.add_argument("--trace", default=None)
    cli.add_argument("--request", type=int, default=0)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    setup = sub.add_parser("setup")
    setup.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return run_cli(args)
    return run_setup(args)


if __name__ == "__main__":
    sys.exit(main())
