"""Scenario-driven command line front end.

``run`` executes one scenario file and writes its artifacts (a JSON
report, plus CSV grids and SVG drawings where the task produces them)
into an output directory.  Exit codes: 0 when every check passed, 2
when a check failed (the report lists the failing points), 1 on input
errors.  Artifacts are deterministic: no timestamps, stable float
formatting, files written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .artifacts import write_text
from .constructions import (
    FreeCurve,
    RPBracketSpec,
    build_cis,
    build_rp,
    cis_determinant_constant,
    compose_1d,
    rp_bracket_many,
    verify_1d,
    verify_cis,
)
from .errors import HfreeError, ScenarioError
from .genericity import genericity_trial, write_trials_csv
from .geometry import DEFAULT_RANK_TOL, Distribution
from .hfree import (InducedMetric, _retained, freedom_matrix_many, induced_metric_many,
                    infinitesimal_invert, required_rank)
from .contours import render_levels
from .scenario import Scenario, _box, _floats, _int, load_scenario
from .transversal import (
    BumpProfile,
    build_tube,
    glue,
    verify_transversal,
    write_grid_csv,
)

__all__ = ["run", "main"]


def _finite_json(value):
    """``value`` with every non-finite float replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _write_report(outdir: str, report: dict) -> bool:
    """Write ``report.json`` as strict JSON.  Non-finite numbers are
    written as ``null``; returns False when there were any."""
    finite = True
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        finite = False
        text = json.dumps(_finite_json(report), indent=2, sort_keys=True,
                          allow_nan=False)
    write_text(os.path.join(outdir, "report.json"), text + "\n")
    return finite


def _task_int(sc: Scenario, key: str, default: int) -> int:
    entries = sc.task_get_all(key)
    return _int(entries[-1].value, sc, entries[-1].line) if entries else default


def _task_float(sc: Scenario, key: str, default: float) -> float:
    entries = sc.task_get_all(key)
    if not entries:
        return default
    values = _floats(entries[-1].value, sc, entries[-1].line)
    if len(values) != 1:
        sc.fail(f"{key} takes one number, got {entries[-1].value!r}", entries[-1].line)
    return values[0]


def _curve_from_text(sc: Scenario, text: str, line: int | None = None) -> FreeCurve:
    text = text.strip()
    if text == "exp":
        return FreeCurve.exp()
    if text == "circle":
        return FreeCurve.circle()
    if text.startswith("custom:"):
        parts = text[len("custom:"):].split(",")
        if len(parts) != 2:
            sc.fail("custom curve looks like 'custom: a(t), b(t)'", line)
        try:
            return FreeCurve.custom(parts[0].strip(), parts[1].strip())
        except ValueError as err:
            sc.fail(str(err), line)
    sc.fail(f"unknown curve {text!r} (expected exp, circle or custom: a, b)", line)


def _rank_records(points, svals, thresholds, ranks, need: int) -> list[dict]:
    """Rank, smallest retained singular value and threshold at each point."""
    return [{"point": [float(v) for v in p], "certified_rank": int(rank),
             "smallest_retained_sv": float(retained), "threshold": float(thr),
             "hfree": int(rank) == need}
            for p, rank, retained, thr in zip(points, ranks, _retained(svals, ranks),
                                              thresholds)]


def _point_records(dist, F, points, tol):
    matrices, svals, thresholds, ranks = freedom_matrix_many(dist, F, points, tol)
    need = required_rank(dist.k)
    square = matrices.shape[1] == matrices.shape[2]
    dets = np.linalg.det(matrices) if square else None
    records = _rank_records(points, svals, thresholds, ranks, need)
    for i, rec in enumerate(records):
        critical = float(svals[i, need - 1]) if svals.shape[1] >= need else 0.0
        thr = rec["threshold"]
        rec["uncertain"] = bool(0.1 * thr < critical < 10.0 * thr)
        if dets is not None:
            rec["det"] = float(dets[i])
    return records, dets


def _run_check_hfree(sc: Scenario, outdir: str, seed, tol) -> tuple[bool, dict]:
    dist = sc.distribution()
    F = sc.map_spec()
    if F.q < required_rank(dist.k):
        sc.fail(f"map has q={F.q} < {required_rank(dist.k)} components")
    points, seed_used = sc.points(seed)
    records, dets = _point_records(dist, F, points, tol)
    failures = [r for r in records if not r["hfree"]]
    report = {
        "task": "check-hfree",
        "tolerance": tol,
        "seed": seed_used,
        "points": records,
        "summary": {
            "n_points": len(records),
            "n_failures": len(failures),
            "n_uncertain": sum(r["uncertain"] for r in records),
        },
    }
    if dets is not None:
        report["summary"]["min_abs_det"] = float(np.min(np.abs(dets)))
    return not failures, report


def _run_induced_metric(sc: Scenario, outdir, seed, tol):
    dist = sc.distribution()
    F = sc.map_spec()
    points, seed_used = sc.points(seed)
    records = [{"point": [float(v) for v in p], "metric": g.tolist(),
                "positive_definite": InducedMetric(g, p).is_positive_definite()}
               for p, g in zip(points, induced_metric_many(dist, F, points))]
    report = {"task": "induced-metric", "tolerance": tol, "seed": seed_used,
              "points": records,
              "summary": {"n_points": len(records),
                          "n_positive_definite": sum(r["positive_definite"]
                                                     for r in records)}}
    return True, report


def _run_invert(sc: Scenario, outdir, seed, tol):
    dist = sc.distribution()
    F = sc.map_spec()
    k = dist.k
    point_entries = sc.task_get_all("point")
    if not point_entries:
        sc.fail("invert task needs 'point = ...'")
    p = _floats(point_entries[-1].value, sc, point_entries[-1].line)
    if len(p) != sc.chart.dim:
        sc.fail(f"point needs {sc.chart.dim} coordinates", point_entries[-1].line)
    psi_entries = sc.task_get_all("psi")
    if len(psi_entries) != 1:
        sc.fail("invert task needs one 'psi = expr, ...' line")
    psi = [sc.expr(t, psi_entries[0].line) for t in psi_entries[0].value.split(",")]
    dg_entries = sc.task_get_all("dg")
    if len(dg_entries) != k:
        sc.fail(f"invert task needs {k} 'dg = ...' row lines")
    dg = [[sc.expr(t, e.line) for t in e.value.split(",")] for e in dg_entries]
    df = infinitesimal_invert(dist, F, p, dg, psi, tol)
    report = {"task": "invert", "tolerance": tol, "seed": 0,
              "point": p, "df": [float(v) for v in df],
              "summary": {"norm_df": float(np.linalg.norm(df))}}
    return True, report


def _verification_report(task: str, check, tol, seed_used) -> tuple[bool, dict]:
    records = []
    for i, p in enumerate(check.points):
        records.append({
            "point": [float(v) for v in p],
            "det": float(check.determinants[i]),
            "predicted": float(check.predicted[i]),
            "identity": bool(check.identity[i]),
            "certified": bool(check.certified[i]),
            "certified_rank": int(check.ranks[i]),
            "smallest_retained_sv": float(check.smallest_retained[i]),
            "threshold": float(check.thresholds[i]),
        })
    failures = int(np.count_nonzero(~check.passed))
    report = {"task": task, "tolerance": tol, "seed": seed_used, "points": records,
              "summary": {"n_points": len(records), "n_failures": failures,
                          "max_mismatch": check.max_mismatch}}
    return failures == 0, report


def _run_construct_1d(sc: Scenario, outdir, seed, tol):
    dist = sc.distribution()
    if dist.k != 1:
        sc.fail("construct-1d needs a one-field distribution")
    f_text = sc.task_get("f")
    if f_text is None:
        sc.fail("construct-1d needs 'f = ...'")
    curve = _curve_from_text(sc, sc.task_get("curve", "exp"))
    built = compose_1d(sc.expr(f_text), curve, sc.chart)
    points, seed_used = sc.points(seed)
    check = verify_1d(dist, built, points, tol=max(tol, 1e-9))
    ok, report = _verification_report("construct-1d", check, tol, seed_used)
    report["map"] = [str(c) for c in built.map_spec.components]
    return ok, report


def _run_construct_cis(sc: Scenario, outdir, seed, tol):
    dist = sc.distribution()
    f_entries = sc.task_get_all("f")
    curve_entries = sc.task_get_all("curve")
    if not f_entries:
        sc.fail("construct-cis needs 'f = ...' lines, one per frame field")
    fs = [sc.expr(e.value, e.line) for e in f_entries]
    if curve_entries and len(curve_entries) != len(f_entries):
        extra = max(f_entries, curve_entries, key=len)[min(len(f_entries),
                                                           len(curve_entries))]
        sc.fail(f"need one 'curve = ...' line per 'f = ...' line, got "
                f"{len(f_entries)} f and {len(curve_entries)} curve lines", extra.line)
    if len(f_entries) != dist.k:
        extra = (f_entries[dist.k].line if len(f_entries) > dist.k
                 else sc.field_lines[len(f_entries)])
        sc.fail(f"need one 'f = ...' line per frame field, got {len(f_entries)} f lines "
                f"and {dist.k} fields", extra)
    curves = [_curve_from_text(sc, e.value, e.line) for e in curve_entries]
    if not curves:
        curves = [FreeCurve.exp()] * len(fs)
    built = build_cis(fs, curves, sc.chart)
    points, seed_used = sc.points(seed)
    check = verify_cis(dist, built, points, tol=max(tol, 1e-8))
    ok, report = _verification_report("construct-cis", check, tol, seed_used)
    report["map"] = [str(c) for c in built.map_spec.components]
    report["determinant_constant"] = cis_determinant_constant(built.n)
    return ok, report


def _rp_spec(sc: Scenario) -> RPBracketSpec:
    casimir_entries = sc.task_get_all("casimir")
    n = sc.chart.dim
    if n < 2:
        sc.fail(f"brackets need dimension >= 2, got {n}", sc.task_line)
    if len(casimir_entries) != n - 2:
        line = casimir_entries[-1].line if casimir_entries else sc.task_line
        sc.fail(f"need {n - 2} 'casimir = ...' lines for dimension {n}, "
                f"got {len(casimir_entries)}", line)
    casimirs = tuple(sc.expr(e.value, e.line) for e in casimir_entries)
    orientation = _task_int(sc, "orientation", 1)
    if orientation not in (1, -1):
        sc.fail(f"orientation must be 1 or -1, got {orientation}",
                sc.task_get_all("orientation")[-1].line)
    return RPBracketSpec(sc.chart, casimirs, orientation=orientation)


def _run_construct_rp(sc: Scenario, outdir, seed, tol):
    spec = _rp_spec(sc)
    h_text, f_text = sc.task_get("h"), sc.task_get("f")
    if h_text is None or f_text is None:
        sc.fail("construct-rp needs 'h = ...' and 'f = ...'")
    curve = _curve_from_text(sc, sc.task_get("curve", "exp"))
    points, seed_used = sc.points(seed)
    built = build_rp(spec, sc.expr(h_text), sc.expr(f_text), curve, points, tol)
    dist = Distribution(spec.chart, (built.field,))
    _, svals, thresholds, ranks = freedom_matrix_many(dist, built.map_spec, points, tol)
    records = _rank_records(points, svals, thresholds, ranks, required_rank(1))
    failures = sum(not r["hfree"] for r in records)
    report = {"task": "construct-rp", "tolerance": tol, "seed": seed_used,
              "points": records,
              "map": [str(c) for c in built.map_spec.components],
              "hamiltonian_field": [str(c) for c in built.field.components],
              "summary": {"n_points": len(records), "n_failures": failures}}
    return failures == 0, report


def _run_rp_bracket(sc: Scenario, outdir, seed, tol):
    spec = _rp_spec(sc)
    f_text, g_text = sc.task_get("f"), sc.task_get("g")
    if f_text is None or g_text is None:
        sc.fail("rp-bracket needs 'f = ...' and 'g = ...'")
    points, seed_used = sc.points(seed)
    values = rp_bracket_many(spec, sc.expr(f_text), sc.expr(g_text), points, tol)
    records = [{"point": [float(v) for v in p], "bracket": float(b)}
               for p, b in zip(points, values)]
    report = {"task": "rp-bracket", "tolerance": tol, "seed": seed_used,
              "points": records,
              "summary": {"n_points": len(records),
                          "min": float(values.min()), "max": float(values.max())}}
    return True, report


def _run_transversal(sc: Scenario, outdir, seed, tol):
    dist = sc.distribution()
    if sc.chart.dim != 2:
        sc.fail("transversal task needs a two-dimensional chart", sc.task_line)
    if dist.k != 1:
        sc.fail("transversal task needs a one-field distribution")
    xi = dist.frame[0]
    if sc.window is None:
        sc.fail("transversal task needs a [window] section")
    window = sc.window
    seeds = sc.task_get_all("seed")
    f_text = sc.task_get("f")
    if f_text is not None and not seeds:
        rep = verify_transversal(xi, sc.expr(f_text), window)
        write_grid_csv(os.path.join(outdir, "grid.csv"), window,
                       rep.values, rep.lie_values)
        report = {"task": "transversal", "tolerance": tol, "seed": 0,
                  "mode": "verify",
                  "summary": {"min_lie": rep.min_value,
                              "argmin": [float(v) for v in rep.argmin],
                              "n_nonfinite": rep.n_nonfinite}}
        return rep.n_nonfinite == 0 and rep.min_value > 0.0, report
    if not seeds:
        sc.fail("transversal task needs 'f = ...' or tube 'seed = x, y' lines")
    weight_entries = sc.task_get_all("weights")
    weights = [1.0] * len(seeds)
    if weight_entries and weight_entries[-1].value:
        weights = _floats(weight_entries[-1].value, sc, weight_entries[-1].line)
        if len(weights) != len(seeds):
            sc.fail("need one weight per tube seed", weight_entries[-1].line)
    t_span = _task_float(sc, "t_span", 3.0)
    points = []
    for e in seeds:
        points.append(_floats(e.value, sc, e.line))
        if len(points[-1]) != 2:
            sc.fail("tube seed looks like 'seed = x, y'", e.line)
    tubes = [build_tube(xi, p, window, t_span=t_span) for p in points]
    result = glue(xi, tubes, weights, BumpProfile(), window)
    write_grid_csv(os.path.join(outdir, "grid.csv"), window,
                   result.values, result.lie_values)
    report = {"task": "transversal", "tolerance": tol, "seed": 0, "mode": "glue",
              "summary": {"min_lie_interior": result.min_interior,
                          "argmin": [float(v) for v in result.argmin],
                          "n_tubes": len(tubes)}}
    return result.ok, report


def _run_genericity(sc: Scenario, outdir, seed, tol):
    dist = sc.distribution()
    q = _task_int(sc, "q", 0)
    degree = _task_int(sc, "degree", 3)
    n_maps = _task_int(sc, "n_maps", 100)
    n_points = _task_int(sc, "n_points", 100)
    if q < 1:
        sc.fail("genericity needs 'q = ...'")
    for key, value, low in (("degree", degree, 2), ("n_maps", n_maps, 0),
                            ("n_points", n_points, 0)):
        if value < low:
            sc.fail(f"{key} must be at least {low}, got {value}",
                    sc.task_get_all(key)[-1].line)
    box_entries = sc.task_get_all("box")
    if not box_entries:
        sc.fail("genericity needs 'box = lo:hi, ...'")
    box = _box(box_entries[-1].value, sc.chart.dim, sc, box_entries[-1].line)
    seed_used = seed if seed is not None else _task_int(sc, "seed", 0)
    result = genericity_trial(dist, q, degree, n_maps, n_points, seed_used, box, tol=tol)
    write_trials_csv(os.path.join(outdir, "genericity.csv"), [result])
    report = {"task": "genericity", "tolerance": tol, "seed": seed_used,
              "summary": {"q": q, "degree": degree, "n_pairs": result.n_pairs,
                          "successes": result.successes,
                          "marginals": result.marginals,
                          "fraction": result.fraction,
                          "ci": [result.ci_low, result.ci_high],
                          "too_few_targets": result.too_few_targets},
              "failing_pairs": [
                  {"map_index": i, "point": [float(v) for v in p]}
                  for i, p in result.failures[:100]]}
    return True, report


def _run_render_levels(sc: Scenario, outdir, seed, tol):
    if sc.chart.dim != 2:
        sc.fail("render-levels needs a two-dimensional chart", sc.task_line)
    if sc.window is None:
        sc.fail("render-levels needs a [window] section")
    expr_entries = sc.task_get_all("expr")
    if not expr_entries:
        sc.fail("render-levels needs 'expr = ...' lines")
    levels = sc.task_get_all("levels")
    n_levels = _int(levels[-1].value, sc, levels[-1].line) if levels else 15
    if n_levels < 1:
        sc.fail(f"levels must be a positive integer, got {n_levels}", levels[-1].line)
    files, warnings, skipped = [], [], 0
    for i, e in enumerate(expr_entries):
        render = render_levels(sc.expr(e.value, e.line), sc.chart, sc.window, n_levels)
        name = e.value if e.value in sc.names else f"expr{i}"
        filename = f"levels_{name}.svg"
        write_text(os.path.join(outdir, filename), render.svg(sc.window))
        files.append(filename)
        warnings.extend(render.warnings)
        skipped += len(render.skipped_cells)
    report = {"task": "render-levels", "tolerance": tol, "seed": 0,
              "summary": {"files": files, "n_levels": n_levels,
                          "skipped_cells": skipped, "warnings": warnings}}
    return True, report


_RUNNERS = {
    "check-hfree": _run_check_hfree,
    "induced-metric": _run_induced_metric,
    "invert": _run_invert,
    "construct-1d": _run_construct_1d,
    "construct-cis": _run_construct_cis,
    "construct-rp": _run_construct_rp,
    "rp-bracket": _run_rp_bracket,
    "transversal": _run_transversal,
    "genericity": _run_genericity,
    "render-levels": _run_render_levels,
}


def run(scenario_path, output_dir, *, seed: int | None = None,
        tol: float | None = None, threads: int | None = None) -> int:
    """Execute a scenario; returns the process exit code.  ``threads`` is
    accepted and ignored: every task runs in one thread."""
    try:
        sc = load_scenario(scenario_path)
    except (OSError, ScenarioError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:  # a file that is not UTF-8 text
        print(f"error: {scenario_path}: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    os.makedirs(output_dir, exist_ok=True)
    effective_tol = tol if tol is not None else DEFAULT_RANK_TOL
    try:
        ok, report = _RUNNERS[sc.task](sc, output_dir, seed, effective_tol)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (HfreeError, ValueError) as err:  # ValueError: a library check on the input
        print(f"error: {sc.path}: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    report["versions"] = {"hfreemaps": __version__}
    if not _write_report(output_dir, report):
        print(f"error: {sc.path}: non-finite numbers, written as null in "
              f"report.json", file=sys.stderr)
        ok = False
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hfree",
        description="Run a scenario file: rank certification, explicit map "
                    "construction, transversal verification, genericity "
                    "experiments and level-set rendering.")
    parser.add_argument("scenario", help="path to the scenario file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the rank tolerance")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: every task runs in "
                             "one thread")
    args = parser.parse_args(argv)
    code = run(args.scenario, args.out, seed=args.seed, tol=args.tol,
               threads=args.threads)
    if code == 0:
        print(f"ok: artifacts in {args.out}")
    elif code == 2:
        print(f"check failed: see {args.out}/report.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
