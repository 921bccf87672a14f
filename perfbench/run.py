"""Benchmark of hfreemaps: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is taken from
``src/`` as it stands, nothing is installed.  Every run starts fresh
interpreters with BLAS and OpenMP pinned to one thread:

* set-up probes: a few interpreters that only import what the workload
  drives (``hfreemaps.cli`` for ``cli``, ``hfreemaps`` for
  ``pointwise``); ``setup_s`` is the median time from start to ready
  over probes made before and after the worker, after one unmeasured
  probe that compiles the byte code;
* ``--trace 0``: one worker that runs passes over the workload's op list
  for ``--seconds`` and reports the end-to-end metrics: ``run_s`` is the
  mean time of a pass after the first (see ``mean_pass``),
  ``point_min_ms`` adds up each single-point function's fastest call
  (see ``fastest``);
* ``--trace 1``: two workers at the same seed, each alternating traced
  and untraced passes for half of ``--seconds``; they report per-layer
  self times and counts, and the counts of the two must be identical.

Every line before the last is detail (machine, versions, per-op times,
artifact hashes against ``perfbench/reference.json``, absent layers).
The last line holds ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import IMPORTS, SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# thread pools of BLAS and OpenMP start one thread each; unpinned, the
# OpenBLAS pool alone doubles the library's import time on two cores
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
# set-up probes before and after the worker, so that their median spans the run
SETUP_PROBES = (2, 3)
PROCESS_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(module: str, probes: int) -> list[float]:
    """Start-to-ready times of fresh interpreters that import ``module``."""
    code = f"import {module}; print('ready', flush=True)"
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            _, err = proc.communicate()
        finally:
            watchdog.cancel()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"importing {module} failed:\n{err}")
        times.append(ready)
    return times


def run_worker(workload, seed, seconds, trace, tag) -> dict:
    out_dir = ROOT / ".perfbench_out"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(out_dir / f"work-{os.getpid()}-{tag}")]
    if trace:
        cmd += ["--spans", str(out_dir / f"spans-{workload}-seed{seed}-{tag}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {tag} exceeded {PROCESS_TIMEOUT_S:.0f} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {tag} exited with {proc.returncode}:\n{err}")
    return json.loads(lines[-1])


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu": None, "threads": PINNED_THREADS,
            "commit": _git_commit(), "source_sha256": _source_digest()}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def _git_commit():
    """HEAD of the checkout when it is a git work tree; read directly, so
    no repository above the checkout is consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def artifact_flags(workload: str, seed: int, artifacts: dict) -> dict:
    """Artifacts whose SHA-256 differs from the reference at this seed.
    A change is reported, not counted as a failure."""
    try:
        reference = json.loads((HERE / "reference.json").read_text())
        expected = reference["artifacts"][workload][str(seed)]
    except (OSError, KeyError, ValueError):
        return {"reference": None}
    changed = sorted(name for name in set(expected) | set(artifacts)
                     if expected.get(name) != artifacts.get(name))
    return {"reference": "perfbench/reference.json", "changed": changed}


def fastest(values):
    """The run's estimate of a short call's latency: the lowest sample.

    On a shared machine the speed of a core drops by up to 1.8x in
    phases of a fraction of a second to minutes while a neighbour is
    busy.  Calls of well under a millisecond meet fast instants even in
    slow phases, so their lowest sample is the estimate least moved by
    those phases."""
    return min(values)


def mean_pass(passes) -> float:
    """The run's estimate of a pass: the mean time of its passes after
    the first, which fills caches and makes lazy imports.

    Passes last seconds, and on a shared machine whole minutes can go by
    without a fast phase that long, so the lowest pass time jumps with
    the luck of the run.  A mean over the run spans every phase the run
    met; it is the throughput a user of the machine gets, and it settles
    as the run gets longer."""
    return statistics.mean(p["run_s"] for p in passes if p["index"] > 0)


SOLVE = "infinitesimal_invert"


def untraced(workload: str, seed: int, seconds: float):
    module = IMPORTS[workload]
    setup_times(module, 1)  # compiles the byte code; not measured
    setup = setup_times(module, SETUP_PROBES[0])
    result = run_worker(workload, seed, seconds, 0, "main")
    setup += setup_times(module, SETUP_PROBES[1])
    passes = result["passes"]
    calls: dict[str, list] = {}
    for p in passes:
        for kind, samples in p["call_ms"].items():
            calls.setdefault(kind, []).extend(samples)
    points = sorted(set(calls) - {SOLVE})
    if not points:
        raise BenchError("no single-point call completed")
    run_each = [p["run_s"] for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (mean_pass(passes), "s"),
        # one call of each single-point function at its fastest
        "point_min_ms": (sum(fastest(calls[kind]) for kind in points), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    # percentiles of sub-millisecond calls mostly measure the machine's
    # speed phases, so they are reported here and not gated
    detail = {
        "setup_probes_s": setup,
        "passes": len(passes),
        "run_s_each": run_each,
        "run_s_median_pass": statistics.median(run_each),
        "op_ms_mean": {op: statistics.mean(p["op_ms"][op] for p in passes if p["index"] > 0)
                       for op in passes[0]["op_ms"]},
        "op_ms_fastest": {op: fastest(p["op_ms"][op] for p in passes)
                          for op in passes[0]["op_ms"]},
        "calls": {kind: {"count": len(ms), "min_ms": min(ms), "p50_ms": percentile(ms, 50),
                         "p90_ms": percentile(ms, 90)} for kind, ms in calls.items()},
    }
    return metrics, [result], detail


def traced(workload: str, seed: int, seconds: float):
    runs = [run_worker(workload, seed, seconds / 2, 1, tag) for tag in ("a", "b")]
    traced_passes = [p for r in runs for p in r["passes"] if p["traced"]]
    plain_passes = [p for r in runs for p in r["passes"] if not p["traced"]]
    problems = []
    # counts repeat exactly for the same seed and pass index
    by_index = {}
    for r in runs:
        for p in r["passes"]:
            if p["traced"]:
                by_index.setdefault(p["index"], []).append(p["layer"])
    for index, layers in sorted(by_index.items()):
        for name in tracing.COUNT_METRICS:
            values = {layer[name] for layer in layers}
            if len(values) > 1:
                problems.append(f"count {name} differs between runs at pass {index}: "
                                f"{sorted(values)}")
    # means over the passes after the first, as for run_s; traced and
    # untraced passes alternate, so both means span the same phases, and
    # the mean self times add up to the mean traced pass
    timed = [p for p in traced_passes if p["index"] > 0]
    metrics = {name: (statistics.mean(p["layer"][name] for p in timed), "s")
               for name in tracing.TIME_METRICS if name in timed[0]["layer"]}
    traced_run = mean_pass(traced_passes)
    plain_run = mean_pass(plain_passes)
    metrics["trace.run_s"] = (traced_run, "s")
    metrics["trace.untraced_run_s"] = (plain_run, "s")
    metrics["trace.overhead_s"] = (traced_run - plain_run, "s")
    first = runs[0]["passes"][0]["layer"]
    for name in tracing.REPORTED_COUNTS:
        metrics[name] = (first[name], "count")
    for name, value in tracing.ratio_metrics(first).items():
        metrics[name] = (value, tracing.RATIO_METRICS[name][2])
    absent = tracing.absent_metrics(runs[0]["passes"][0]["absent"])
    unattributed = traced_run - metrics["trace.self_sum_s"][0]
    detail = {"absent": absent, "unattributed_s": unattributed,
              "self_sum_within_overhead": abs(unattributed) <= abs(metrics["trace.overhead_s"][0]),
              "passes": [len(r["passes"]) for r in runs], "count_problems": problems}
    return metrics, runs, detail, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hfreemaps" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'hfreemaps'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, runs, detail, problems = traced(args.workload, args.seed, args.seconds)
        else:
            metrics, runs, detail = untraced(args.workload, args.seed, args.seconds)
            problems = []
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for r in runs for p in r["passes"])
    failures = [f for r in runs for p in r["passes"] for f in p["failures"]]
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sizes": SIZES[args.workload], "machine": machine(), "versions": runs[0]["env"],
        "failed_ratio": len(failures) / attempted, "failures": failures[:20],
        "artifacts": runs[0]["passes"][0]["artifacts"],
        "artifact_check": artifact_flags(args.workload, args.seed,
                                         runs[0]["passes"][0]["artifacts"]),
    })
    for problem in failures[:20] + problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
