"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads pointwise --seeds 1-5 --trace 1

For each workload and metric it prints the median and quartiles over the
runs, with the unit, and for end-to-end metrics the spread
``(q3 - q1) / median`` against the bound in BENCHMARK.json.  It also
prints the failed ratio of each workload.  ``--write-reference`` stores
the medians and quartiles as the baseline, and the SHA-256 of every
artifact at each seed, in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    artifacts = {}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        units = {}
        attempted = failed = 0
        artifacts[workload] = {}
        for seed in args.seeds:
            detail, result = run_once(workload, seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            artifacts[workload][str(seed)] = detail["artifacts"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            flagged = detail["artifact_check"].get("changed")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  + (f" artifacts changed: {flagged}" if flagged else ""), flush=True)
        print(f"\n{workload}: failed_ratio {failed / attempted:.4f} ({failed} of {attempted} ops)")
        print(f"  {'metric':28} {'unit':6} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            summary[workload][name] = {"unit": units[name], "q1": q1, "median": med, "q3": q3}
            line = f"  {name:28} {units[name]:6} {q1:12.6g} {med:12.6g} {q3:12.6g}"
            if name in bounds:
                spread = (q3 - q1) / med
                ok = spread < bounds[name] / 3 or name == "setup_s"
                steady &= ok
                line += f" {spread:8.3f} {bounds[name]:6.2f}{'' if ok else '  WIDE'}"
            print(line)
        print(flush=True)

    if args.write_reference:
        path = HERE / "reference.json"
        reference = json.loads(path.read_text()) if path.exists() else {}
        key = "baseline_traced" if args.trace else "baseline"
        for workload, metrics in summary.items():
            entry = reference.setdefault("workloads", {}).setdefault(workload, {})
            entry[key] = {"seeds": f"{args.seeds[0]}-{args.seeds[-1]}", "metrics": metrics}
        if not args.trace:
            reference.setdefault("artifacts", {}).update(
                {w: a for w, a in artifacts.items() if any(a.values())})
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
