"""Run one benchmark workload and print its metrics; the last stdout line is a JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload bob_read --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs the
workload twice in the process, untraced and then with layer spans installed, and prints the
per-layer metrics plus the tracing overhead (traced minus untraced).  Everything the run
writes stays under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sqlite3
import sys
from contextlib import closing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
_SYNCHRONOUS = {0: "OFF", 1: "NORMAL", 2: "FULL", 3: "EXTRA"}


def parse_args(argv=None) -> argparse.Namespace:
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(journal_mode) -> dict:
    """What both sides of a comparison must share: host, interpreter, backends, flush policy."""
    from repro.engine import kernels

    with closing(sqlite3.connect(":memory:")) as conn:
        synchronous = conn.execute("PRAGMA synchronous").fetchone()[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "kernel_backend": kernels.active_backend(),
        "sqlite": sqlite3.sqlite_version,
        "journal_dir": str(OUTPUT.relative_to(ROOT)) if journal_mode else None,
        "journal_mode": journal_mode,
        "synchronous": _SYNCHRONOUS.get(synchronous, synchronous) if journal_mode else None,
        "gc_enabled": gc.isenabled(),
    }


def run(args: argparse.Namespace, sizes=None) -> dict:
    """Run the workload as ``args`` asks; returns the result object the last line prints."""
    from perfbench import measure, workloads
    from perfbench.tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    sizes = sizes or workloads.Sizes()
    workdir = OUTPUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plain = measure.Recorder()
        workload(args.seed, args.seconds, sizes, plain, workdir)
        passes = [plain]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure.Recorder(tracer)
                workload(args.seed, args.seconds, sizes, traced, workdir)
            finally:
                tracer.uninstall()
            passes.append(traced)
            shared = min(len(plain.answer_hashes), len(traced.answer_hashes))
            if plain.answer_hashes[:shared] != traced.answer_hashes[:shared]:
                traced.fail(1, "traced pass answered differently from the untraced pass")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s per pass")
    print("environment " + json.dumps(environment(plain.journal_mode)))
    for name, value, unit, note in measure.workload_report(args.workload, plain):
        print(f"  {name:<30} {value:>14.6g} {unit:<10} {note}")
    if args.trace:
        metrics = measure.per_layer(args.workload, traced, plain)
        trace_file = OUTPUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_file)
        print(
            f"traced pass: {tracer.spans} spans, the first {len(tracer.start)} written to "
            f"{trace_file.relative_to(ROOT)}"
        )
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:<44} {value:>14.6g} {unit}")
    else:
        metrics = measure.end_to_end(args.workload, plain)
    for message in sum((p.errors for p in passes), []):
        print(f"error: {message}")
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    """Entry point: exits 2 without a result when the program's source is not beside it."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
