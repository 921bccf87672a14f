"""Scenario-driven command line front end.

``run`` executes one scenario file and writes its artifacts (a JSON
report, plus CSV grids and SVG drawings where the task produces them)
into an output directory.  Exit codes: 0 when every check passed, 2
when a check failed (the report lists the failing points), 1 on input
errors.  Artifacts are deterministic: no timestamps, stable float
formatting, files written atomically.  ``run`` alone writes into the
output directory: it removes every artifact name there, runs the task,
then writes the artifacts the task returns, so a failed task writes none;
when a write fails, it removes them all again.  No numpy warning escapes
a run: non-finite numbers show in the report and the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
from .hfree import (freedom_certificates, induced_metric_many, infinitesimal_invert,
                    positive_definite_many)
from .contours import render_levels
from .scenario import Scenario, load_scenario
from .transversal import (
    build_tubes,
    glue,
    verify_transversal,
    write_grid_csv,
)

__all__ = ["run", "main"]


# a JSON string, matched whole so that no token inside it is taken as bare
_STRING = r'"(?:[^"\\]|\\.)*"'
_LEAF = re.compile(f"({_STRING})|null")
_NONFINITE = re.compile(f"({_STRING})|NaN|-?Infinity")
_TEXT = {"b": {False: "false", True: "true"}.__getitem__,
         "i": int.__repr__, "u": int.__repr__, "f": float.__repr__}
_RECORDS_PER_BLOCK = 1024  # records encoded per piece of report.json
_ARTIFACT = re.compile(r"report\.json|grid\.csv|genericity\.csv|levels_.*\.svg")


class _Table:
    """The per-point columns of a report, kept as arrays until
    ``_write_report`` writes them as one record per point."""

    def __init__(self, columns: dict):
        self.columns = {name: np.asarray(column) for name, column in sorted(columns.items())}

    def __len__(self) -> int:
        return len(self.columns["point"])

    def encode(self):
        """Yield the records as ``json.dumps(report, indent=2, sort_keys=True)``
        writes them under a top-level key, non-finite numbers as ``null``, in
        pieces of ``_RECORDS_PER_BLOCK``; return whether there was none."""
        n = len(self)
        skeleton = {name: np.full(column.shape[1:], None, dtype=object).tolist()
                    for name, column in self.columns.items()}
        template = _LEAF.sub(lambda m: m[1].replace("%", "%%") if m[1] else "%s",
                             json.dumps(skeleton, indent=2, sort_keys=True))
        template = "    " + template.replace("\n", "\n    ")
        finite = True
        for start in range(0, n, _RECORDS_PER_BLOCK):
            leaves = []
            for column in self.columns.values():
                block = column.reshape(n, -1)[start:start + _RECORDS_PER_BLOCK]
                texts = list(map(_TEXT[column.dtype.kind], block.ravel().tolist()))
                if column.dtype.kind == "f":
                    for i in np.flatnonzero(~np.isfinite(block)).tolist():
                        texts[i] = "null"
                        finite = False
                leaves += (texts[j::block.shape[1]] for j in range(block.shape[1]))
            yield ("[\n" if start == 0 else ",\n") + ",\n".join(
                map(template.__mod__, zip(*leaves)))
        yield "\n  ]" if n else "[]"
        return finite


def _write_report(outdir: str, report: dict) -> bool:
    """Write ``report.json``: the text of ``json.dumps(report, indent=2,
    sort_keys=True)`` and a newline, with every non-finite number written
    as ``null``; the table under ``points`` is encoded on its own and
    streamed in.  Returns False when there was any non-finite number."""
    table = report.get("points")
    dumped = json.dumps(report if table is None else {**report, "points": None},
                        indent=2, sort_keys=True)
    text = _NONFINITE.sub(lambda m: m[1] or "null", dumped)
    finite = text == dumped  # only a bare NaN or Infinity changes the text

    def pieces():
        nonlocal finite
        # no string holds a raw newline, so only a top-level key follows
        # a newline, two spaces and a quote
        head, tail = text.split('\n  "points": null', 1)
        yield head + '\n  "points": '
        finite = (yield from table.encode()) and finite
        yield tail + "\n"
    write_text(os.path.join(outdir, "report.json"),
               (text + "\n",) if table is None else pieces())
    return finite


def _certified(seed_used, points, certificate, passed, columns: dict, summary: dict,
               **extra) -> tuple[bool, dict, dict]:
    """Report of a rank-checking task: per point, the certificate columns of
    :func:`freedom_certificates` and ``columns``; a point fails where
    ``passed`` is false."""
    failures = int(np.count_nonzero(~passed))
    summary = {**summary, "n_failures": failures,
               "n_uncertain": int(np.count_nonzero(certificate["uncertain"]))}
    return failures == 0, {"seed": seed_used, "summary": summary, **extra,
                           "points": _Table({"point": points, **certificate, **columns})}, {}


def _run_check_hfree(sc: Scenario, seed, tol) -> tuple[bool, dict, dict]:
    dist, F = sc.distribution(), sc.map_spec()
    points, seed_used = sc.points(seed)
    matrices, certificate = freedom_certificates(dist, F, points, tol)
    columns, summary = {}, {}
    if matrices.shape[1] == matrices.shape[2]:
        columns["det"] = np.linalg.det(matrices)
        summary["min_abs_det"] = float(np.min(np.abs(columns["det"])))
    return _certified(seed_used, points, certificate, certificate["hfree"], columns, summary)


def _run_induced_metric(sc: Scenario, seed, tol):
    dist, F = sc.distribution(), sc.map_spec()
    points, seed_used = sc.points(seed)
    metrics = induced_metric_many(dist, F, points)
    positive = positive_definite_many(metrics)
    return True, {"seed": seed_used, "summary": {"n_positive_definite": int(np.sum(positive))},
                  "points": _Table({"point": points, "metric": metrics,
                                     "positive_definite": positive})}, {}


def _run_invert(sc: Scenario, seed, tol):
    dist, F = sc.distribution(), sc.map_spec()
    p = sc.param("point", sc.numbers, required=True, count=sc.chart.dim)
    psi = sc.param("psi", sc.exprs, each=True)
    if len(psi) != 1:
        sc.fail("invert task needs one 'psi = expr, ...' line", sc.task_line)
    dg = sc.param("dg", sc.exprs, each=True)
    if len(dg) != dist.k:
        sc.fail(f"invert task needs {dist.k} 'dg = ...' row lines", sc.task_line)
    df = infinitesimal_invert(dist, F, p, [e.value for e in dg], psi[0].value, tol)
    return True, {"point": p, "df": df.tolist(),
                  "summary": {"norm_df": float(np.linalg.norm(df))}}, {}


def _verified(check, seed_used, **extra) -> tuple[bool, dict, dict]:
    """Report of a determinant-identity check, one record per point."""
    return _certified(seed_used, check.points, check.certificate, check.passed,
                      {"det": check.determinants, "predicted": check.predicted,
                       "identity": check.identity, "certified": check.certified},
                      {"max_mismatch": check.max_mismatch}, **extra)


def _run_construct_1d(sc: Scenario, seed, tol):
    dist = sc.one_field()
    f = sc.param("f", sc.expr, required=True)
    built = compose_1d(f, sc.param("curve", sc.curve, FreeCurve.exp()), sc.chart)
    points, seed_used = sc.points(seed)
    check = verify_1d(dist, built, points, max(tol, 1e-9), rank_tol=tol)
    return _verified(check, seed_used, map=[str(c) for c in built.map_spec.components])


def _run_construct_cis(sc: Scenario, seed, tol):
    dist = sc.distribution()
    fs = sc.param("f", sc.expr, each=True)
    curves = sc.param("curve", sc.curve, each=True)
    if not fs:
        sc.fail("construct-cis needs 'f = ...' lines, one per frame field", sc.task_line)
    if curves and len(curves) != len(fs):
        extra = max(fs, curves, key=len)[min(len(fs), len(curves))]
        sc.fail(f"need one 'curve = ...' line per 'f = ...' line, got "
                f"{len(fs)} f and {len(curves)} curve lines", extra.line)
    if len(fs) != dist.k:
        fields = sc.param("field", section="distribution", each=True)
        sc.fail(f"need one 'f = ...' line per frame field, got {len(fs)} f lines "
                f"and {dist.k} fields", max(fs, fields, key=len)[min(len(fs), dist.k)].line)
    built = build_cis([e.value for e in fs],
                      [e.value for e in curves] or [FreeCurve.exp()] * len(fs), sc.chart)
    points, seed_used = sc.points(seed)
    check = verify_cis(dist, built, points, max(tol, 1e-8), rank_tol=tol)
    return _verified(check, seed_used, map=[str(c) for c in built.map_spec.components],
                     determinant_constant=cis_determinant_constant(built.n))


def _rp_spec(sc: Scenario) -> RPBracketSpec:
    n = sc.chart.dim
    if n < 2:
        sc.fail(f"brackets need dimension >= 2, got {n}", sc.task_line)
    casimirs = sc.param("casimir", sc.expr, each=True)
    if len(casimirs) != n - 2:
        sc.fail(f"need {n - 2} 'casimir = ...' lines for dimension {n}, "
                f"got {len(casimirs)}", casimirs[-1].line if casimirs else sc.task_line)
    return RPBracketSpec(sc.chart, tuple(e.value for e in casimirs),
                         orientation=sc.param("orientation", sc.integer, 1, among=(1, -1)))


def _run_construct_rp(sc: Scenario, seed, tol):
    spec = _rp_spec(sc)
    h = sc.param("h", sc.expr, required=True)
    f = sc.param("f", sc.expr, required=True)
    curve = sc.param("curve", sc.curve, FreeCurve.exp())
    points, seed_used = sc.points(seed)
    built = build_rp(spec, h, f, curve, points, tol)
    dist = Distribution(spec.chart, (built.field,))
    _, certificate = freedom_certificates(dist, built.map_spec, points, tol)
    return _certified(seed_used, points, certificate, certificate["hfree"], {}, {},
                      map=[str(c) for c in built.map_spec.components],
                      hamiltonian_field=[str(c) for c in built.field.components])


def _run_rp_bracket(sc: Scenario, seed, tol):
    spec = _rp_spec(sc)
    f = sc.param("f", sc.expr, required=True)
    g = sc.param("g", sc.expr, required=True)
    points, seed_used = sc.points(seed)
    values = rp_bracket_many(spec, f, g, points, tol)
    return True, {"seed": seed_used, "points": _Table({"point": points, "bracket": values}),
                  "summary": {"min": float(values.min()), "max": float(values.max())}}, {}


def _run_transversal(sc: Scenario, seed, tol):
    xi, window = sc.one_field().frame[0], sc.planar_window()
    seeds = sc.param("seed", sc.numbers, each=True, count=2)
    # tube seeds select the glue mode, which reads no 'f'
    mode, unread = ("glue", ("f",)) if seeds else ("verify", ("weights", "t_span"))
    for key in unread:
        for e in sc.param(key, each=True)[:1]:
            sc.fail(f"'{key}' does not apply in {mode} mode", e.line)
    if not seeds:
        f = sc.param("f", sc.expr)
        if f is None:
            sc.fail(f"{sc.task} needs 'f = ...' or tube 'seed = x, y' lines", sc.task_line)
        result = verify_transversal(xi, f, window)
        ok = result.n_nonfinite == 0 and result.min_value > 0.0
        summary = {"min_lie": result.min_value, "n_nonfinite": result.n_nonfinite}
    else:
        weights = sc.param("weights", sc.numbers, [1.0] * len(seeds), count=len(seeds))
        t_span = sc.param("t_span", sc.positive, 3.0)
        tubes = build_tubes(xi, [e.value for e in seeds], window, t_span=t_span)
        result = glue(tubes, weights)
        ok, summary = result.ok, {"min_lie_interior": result.min_interior, "n_tubes": len(tubes)}
    return ok, {"mode": mode, "summary": {**summary, "argmin": result.argmin.tolist()}}, {
        "grid.csv": (write_grid_csv, window, result.values, result.lie_values)}


def _run_genericity(sc: Scenario, seed, tol):
    dist = sc.distribution()
    q = sc.param("q", sc.integer, required=True, low=1)
    degree = sc.param("degree", sc.integer, 3, low=2)
    n_maps = sc.param("n_maps", sc.integer, 100, low=0)
    n_points = sc.param("n_points", sc.integer, 100, low=0)
    box = sc.param("box", sc.box, required=True)
    task_seed = sc.param("seed", sc.integer, 0)  # read even when --seed overrides it
    seed_used = task_seed if seed is None else seed
    result = genericity_trial(dist, q, degree, n_maps, n_points, seed_used, box, tol=tol)
    return True, {"seed": seed_used,
                  "summary": {"q": q, "degree": degree, "n_pairs": result.n_pairs,
                              "successes": result.successes,
                              "marginals": result.marginals,
                              "fraction": result.fraction,
                              "ci": [result.ci_low, result.ci_high],
                              "too_few_targets": result.too_few_targets},
                  "failing_pairs": [{"map_index": i, "point": p.tolist()}
                                    for i, p in result.failures[:100]]}, {
        "genericity.csv": (write_trials_csv, [result])}


def _run_render_levels(sc: Scenario, seed, tol):
    window = sc.planar_window()
    exprs = sc.param("expr", each=True)
    if not exprs:
        sc.fail("render-levels needs 'expr = ...' lines", sc.task_line)
    n_levels = sc.param("levels", sc.integer, 15, low=1)
    # a repeated expression lists its file again: the names are a list, not the keys
    names, files, warnings, skipped = [], {}, [], 0
    for i, e in enumerate(exprs):
        render = render_levels(sc.expr(e.value, e.line), sc.chart, window, n_levels)
        name = e.value if e.value in sc.names else f"expr{i}"
        names.append(f"levels_{name}.svg")
        files[names[-1]] = (write_text, (render.svg(window),))
        warnings.extend(render.warnings)
        skipped += len(render.skipped_cells)
    return True, {"summary": {"files": names, "n_levels": n_levels,
                              "skipped_cells": skipped, "warnings": warnings}}, files


# kind -> runner(sc, seed, tol) -> (ok, report body, {artifact name: (writer, *args)})
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


def _clear(output_dir) -> None:
    """Remove every artifact name from ``output_dir``, when it is a directory."""
    if os.path.isdir(output_dir):
        for name in os.listdir(output_dir):
            if _ARTIFACT.fullmatch(name):
                os.remove(os.path.join(output_dir, name))


def run(scenario_path, output_dir, *, seed: int | None = None,
        tol: float | None = None, threads: int | None = None) -> int:
    """Execute a scenario; returns the process exit code.  ``tol``, when
    given, must be a positive finite number.  ``threads`` is accepted and
    ignored: every task runs in one thread."""
    effective_tol = tol if tol is not None else DEFAULT_RANK_TOL
    try:
        # no artifact of an earlier run may survive this one, whatever its exit
        _clear(output_dir)
        if not 0.0 < effective_tol < float("inf"):
            print(f"error: the rank tolerance must be a positive finite number, got {tol!r}",
                  file=sys.stderr)
            return 1
        sc = load_scenario(scenario_path)
        os.makedirs(output_dir, exist_ok=True)
        # non-finite values show as null with exit 2, or as a DomainError
        with np.errstate(all="ignore"):
            ok, body, files = _RUNNERS[sc.task](sc, seed, effective_tol)
            # the skeleton of every report; a runner's body sets the seed it used
            report = {"task": sc.task, "tolerance": effective_tol, "seed": 0, **body,
                      "versions": {"hfreemaps": __version__}}
            if "points" in report:
                report["summary"]["n_points"] = len(report["points"])
            try:
                for name, (writer, *args) in files.items():
                    writer(os.path.join(output_dir, name), *args)
                finite = _write_report(output_dir, report)
            except BaseException:  # a run that fails writes no file
                _clear(output_dir)
                raise
    except (OSError, ScenarioError) as err:  # OSError: a file that cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return 1
    # ValueError: a library check on the input, or a scenario that is not UTF-8 text
    except (HfreeError, ValueError) as err:
        print(f"error: {scenario_path}: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    if not finite:
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
                        help="override the rank tolerance (a positive finite number)")
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
