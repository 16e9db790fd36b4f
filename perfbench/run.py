#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <train_stream|serve_inproc|serve_fleet|adapt>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  It builds nothing: the package under test is
imported from ``src/`` next to this directory.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; every line before it is the human-readable
report (run record, metrics, parts, notes).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_stream", "serve_inproc", "serve_fleet", "adapt")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def stop_children(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Fleet workers are stopped by the workload itself; any left over (a
    fleet that failed half-way through start-up) are killed here.  The
    first spawned worker also starts multiprocessing's resource tracker,
    which would otherwise outlive this process for a moment: closing its
    pipe ends it, and ``_stop`` waits for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout_s)
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: package source not found at {source.parent}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import THREAD_ENV

    # Thread settings must be in place before NumPy loads its BLAS; spawned
    # fleet workers inherit them through the environment.
    os.environ.update(THREAD_ENV)
    from perfbench.report import run

    lines: list = []
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), lines=lines)
    finally:
        stop_children()
        print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
