"""One measured process: import the program, run passes, print the log.

Started by ``run.py`` in a fresh interpreter with the program on
``PYTHONPATH`` and BLAS/OpenMP pinned to one thread.  Untraced, it runs
passes until ``--seconds`` have elapsed (at least three).  Traced, it
alternates traced and untraced passes (at least one of each after the
first), so that the tracing overhead is the difference between the two.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

START = time.perf_counter()

import workloads  # noqa: E402  (after START, so its import is timed)
import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="file for the spans of the first traced pass")
    args = parser.parse_args()

    ctx = workloads.Context(args.workload)
    ready_s = time.perf_counter() - START
    workdir = Path(args.workdir)
    tracer = tracing.Tracer() if args.trace else None
    null = tracing.NullTracer()

    passes = []
    begin = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            log = workloads.run_pass(args.workload, ctx, tracer if traced else null,
                                     args.seed, index, workdir / f"pass{index}",
                                     keep_hashes=index == 0)
        finally:
            run_s = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        entry = {"index": index, "traced": traced, "run_s": run_s,
                 "attempted": log.attempted, "failures": log.failures,
                 "op_ms": log.op_ms, "call_ms": log.call_ms,
                 "counts": dict(log.counts)}
        if index == 0:
            entry["artifacts"] = log.artifacts
        if traced:
            layer = tracer.recorder.metrics()
            layer["io.bytes"] = log.counts["io.bytes"]
            entry["layer"] = layer
            entry["absent"] = tracer.absent
            if args.spans and index == 0:
                _write_spans(Path(args.spans), tracer.recorder.spans, start)
        passes.append(entry)
        index += 1
        elapsed = time.perf_counter() - begin
        enough = index >= 3  # a traced and an untraced pass after the first
        if enough and elapsed >= args.seconds:
            break

    shutil.rmtree(workdir, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"workload": args.workload, "seed": args.seed, "ready_s": ready_s,
                      "peak_rss_mb": peak_mb, "env": _environment(), "passes": passes}))
    return 0


def _write_spans(path: Path, spans: list, origin: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[name, round(start - origin, 9), round(end - origin, 9), parent]
            for name, start, end, parent in spans]
    path.write_text(json.dumps({"columns": ["name", "start_s", "end_s", "parent"],
                                "spans": rows}) + "\n")


def _environment() -> dict:
    from importlib import metadata

    import numpy

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": version("scipy"), "blas": openblas}


if __name__ == "__main__":
    sys.exit(main())
