"""The two workloads: their inputs, their ops and the checks on each op.

Every input is generated from ``(seed, pass index)``, so a pass is
reproducible and consecutive passes never repeat an input.  The program
is driven only through public entry points: ``hfreemaps.cli.run`` on
generated scenario files (``cli``) and the library calls of the README
tour (``pointwise``).  Checks test the meaning of the
outputs, not their bytes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import shutil
from collections import Counter
from itertools import product
from pathlib import Path
from time import perf_counter

import numpy as np

# the module a workload imports; its import is the workload's set-up
IMPORTS = {"cli": "hfreemaps.cli", "pointwise": "hfreemaps"}

CONTACT_FRAME = ("0, 1, 0", "1, 0, -y")
CONTACT_MAP = ("y", "x", "exp(y)", "exp(x)", "z")
STRIPE_FIELD = "2*y, 1-y^2"


class CheckFailed(Exception):
    """An op ran but its output does not mean what it should."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class PassLog:
    """Ops, latencies, failures, counters and artifacts of one pass."""

    def __init__(self, tracer, workdir: Path, keep_hashes: bool, key: tuple):
        self.tracer = tracer
        self.key = key
        self.workdir = workdir
        self.keep_hashes = keep_hashes
        self.attempted = 0
        self.op_name = ""
        self.failures: list[str] = []
        self.op_ms: dict[str, float] = {}
        self.call_ms: dict[str, list[float]] = {}  # function name -> latencies
        self.counts = Counter()
        self.artifacts: dict[str, str] = {}

    def op(self, name: str, fn, ctx) -> None:
        """Run one op; an exception or a failed check marks it failed.
        Each op draws its inputs from its own stream, so that changing one
        op leaves the inputs of the others as they were."""
        rng = np.random.default_rng([*self.key, self.attempted])
        self.attempted += 1
        self.op_name = name
        start = perf_counter()
        try:
            fn(self, ctx, rng)
        except Exception as err:  # any failure of the op is recorded, the pass goes on
            self.failures.append(f"{name}: {type(err).__name__}: {err}")
        self.op_ms[name] = (perf_counter() - start) * 1e3

    def timed(self, fn, *args):
        """Call a library function at a single point and record its latency."""
        start = perf_counter()
        result = fn(*args)
        self.call_ms.setdefault(fn.__name__, []).append((perf_counter() - start) * 1e3)
        return result

    def span(self, phase: str):
        return self.tracer.span(phase)

    def scenario(self, cli, text: str):
        """Write the current op's scenario and run it through ``cli.run``;
        a nonzero exit code fails the op.  Returns the parsed report and
        the artifact directory, which is named after the op."""
        name = self.op_name
        path = self.workdir / f"{name}.ini"
        out = self.workdir / name
        with self.span("bench.inputs"):
            path.write_text(text)
        code = cli.run(str(path), str(out))
        with self.span("bench.check"):
            report_path = out / "report.json"
            report = json.loads(report_path.read_text()) if report_path.exists() else None
            for artifact in sorted(out.iterdir()) if out.exists() else ():
                data = artifact.read_bytes()
                self.counts["io.bytes"] += len(data)
                if self.keep_hashes and artifact.suffix in (".csv", ".svg"):
                    self.artifacts[f"{name}/{artifact.name}"] = hashlib.sha256(data).hexdigest()
        require(code == 0, f"exit code {code}")
        require(report is not None, "no report.json")
        return report, out


def _fmt(x: float) -> str:
    return repr(float(x))


def _seed_int(rng) -> int:
    return int(rng.integers(1, 2**31))


# ---------------------------------------------------------------------------
# cli, batch tasks: large point batches


def _contact_scenario(kind: str, count: int, seed: int) -> str:
    frame = "\n".join(f"field = {f}" for f in CONTACT_FRAME)
    comps = "\n".join(f"component = {c}" for c in CONTACT_MAP)
    return (f"[chart]\ncoords = x, y, z\n\n[distribution]\n{frame}\n\n[map]\n{comps}\n\n"
            f"[points]\ncount = {count}\nbox = -2:2, -2:2, -2:2\nseed = {seed}\n\n"
            f"[task]\nkind = {kind}\n")


def _check_hfree(log, ctx, rng):
    report, _ = log.scenario(ctx.cli, _contact_scenario(
        "check-hfree", ctx.size["check_points"], _seed_int(rng)))
    with log.span("bench.check"):
        summary = report["summary"]
        require(summary["n_points"] == ctx.size["check_points"], "wrong point count")
        require(summary["n_failures"] == 0, f"{summary['n_failures']} points not H-free")
        records = report["points"]
        picks = rng.choice(len(records), ctx.size["cert_checks"], replace=False)
    # each single-point certificate must agree with the batched one
    dist, F = ctx.contact
    for i in picks:
        rec = records[int(i)]
        cert = log.timed(ctx.hf.is_hfree_at, dist, F, rec["point"])
        require(bool(cert) == rec["hfree"] and
                cert.matrix.certified_rank == rec["certified_rank"],
                f"single-point certificate disagrees at {rec['point']}")


def _construct_1d(log, ctx, rng):
    a = round(float(rng.uniform(0.8, 1.2)), 4)
    text = (f"[chart]\ncoords = x, y\n\n[exprs]\nf = y*exp({a}*x)\n\n"
            f"[distribution]\nfield = {STRIPE_FIELD}\n\n"
            f"[points]\ncount = {ctx.size['construct_points']}\nbox = -1.5:1.5, -1.5:1.5\n"
            f"seed = {_seed_int(rng)}\n\n[task]\nkind = construct-1d\nf = f\ncurve = exp\n")
    report, _ = log.scenario(ctx.cli, text)
    with log.span("bench.check"):
        _check_identity(report, tol=1e-9)


def _construct_cis(log, ctx, rng):
    text = ("[chart]\ncoords = a1, a2, w1, w2\n\n[distribution]\n"
            "field = 0, 0, 1, 0\nfield = 0, 0, 0, 1\n\n"
            f"[points]\ncount = {ctx.size['construct_points']}\n"
            f"box = -2:2, -2:2, -1.5:1.5, -1.5:1.5\nseed = {_seed_int(rng)}\n\n"
            "[task]\nkind = construct-cis\nf = w1\nf = w2\ncurve = exp\ncurve = exp\n")
    report, _ = log.scenario(ctx.cli, text)
    with log.span("bench.check"):
        _check_identity(report, tol=1e-8)
        require(abs(report["determinant_constant"] - 2.0) <= 1e-9,
                f"determinant constant {report['determinant_constant']} != 2")


def _check_identity(report, tol):
    """Known H-free construction: every point certified, and the
    determinant identity within the task's relative tolerance."""
    require(report["summary"]["n_failures"] == 0,
            f"{report['summary']['n_failures']} points failed")
    worst = 0.0
    for rec in report["points"]:
        mismatch = abs(rec["det"] - rec["predicted"]) / max(1.0, abs(rec["det"]))
        worst = max(worst, mismatch)
        require(rec["certified"] and rec["identity"], f"point {rec['point']} failed")
    require(worst <= tol, f"determinant mismatch {worst:.2e} > {tol:.0e}")


def _rp_text(kind: str, count: int, seed: int, task: str) -> str:
    return (f"[chart]\ncoords = x, y, z\n\n[points]\ncount = {count}\n"
            f"box = -2:2, -2:2, -2:2\nseed = {seed}\n\n"
            f"[task]\nkind = {kind}\ncasimir = x\n{task}")


def _rp_bracket(log, ctx, rng):
    c1, c2 = (round(float(v), 4) for v in rng.uniform(-1, 1, 2))
    # {f, g} = f_y g_z - f_z g_y = 1 for these f, g and the casimir x
    report, _ = log.scenario(ctx.cli, _rp_text(
        "rp-bracket", ctx.size["construct_points"], _seed_int(rng),
        f"f = y + {c1}*x^2\ng = z + {c2}*x*y\n"))
    with log.span("bench.check"):
        values = [rec["bracket"] for rec in report["points"]]
        require(len(values) == ctx.size["construct_points"], "wrong point count")
        worst = max(abs(v - 1.0) for v in values)
        require(worst <= 1e-9, f"bracket off the closed form by {worst:.2e}")


def _construct_rp(log, ctx, rng):
    c = round(float(rng.uniform(-1, 1)), 4)
    # {h, f} = 1 > 0, so the composition along xi_h is H-free everywhere
    report, _ = log.scenario(ctx.cli, _rp_text(
        "construct-rp", ctx.size["loop_points"], _seed_int(rng),
        f"h = y\nf = z + {c}*x*y\ncurve = exp\n"))
    with log.span("bench.check"):
        require(report["summary"]["n_points"] == ctx.size["loop_points"], "wrong point count")
        require(report["summary"]["n_failures"] == 0,
                f"{report['summary']['n_failures']} points not H-free")


def _contact_metric(p) -> np.ndarray:
    x, y, _ = p
    return np.array([[1.0 + math.exp(2 * y), 0.0], [0.0, 1.0 + math.exp(2 * x) + y * y]])


def _metric_close(g, p) -> bool:
    want = _contact_metric(p)
    return bool(np.all(np.abs(np.asarray(g) - want) <= 1e-12 * (1.0 + np.abs(want))))


def _induced_metric(log, ctx, rng):
    report, _ = log.scenario(ctx.cli, _contact_scenario(
        "induced-metric", ctx.size["loop_points"], _seed_int(rng)))
    with log.span("bench.check"):
        for rec in report["points"]:
            require(rec["positive_definite"], f"metric not positive at {rec['point']}")
            require(_metric_close(rec["metric"], rec["point"]),
                    f"metric off the closed form at {rec['point']}")


def genericity_reference(seed, q, degree, n_maps, n_points, box, tol):
    """Successes and marginals of a dense-polynomial sweep along
    ``d/dx`` in the plane, computed from the sweep's definition: for
    each map and point the rows ``F_x`` and ``F_xx`` and their
    singular values against ``tol * sigma_max * max(rows, cols)``."""
    exps = np.array(sorted(e for e in product(range(degree + 1), repeat=2)
                           if sum(e) <= degree))
    ex, ey = exps[:, 0], exps[:, 1]
    mask = 0xFFFFFFFFFFFFFFFF
    successes = marginals = 0
    for index in range(n_maps):
        def stream(s):
            key = np.array([seed & mask, s & mask], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))
        coeffs = stream(index + 1).uniform(-1.0, 1.0, size=(q, len(exps)))
        pts = stream((1 << 32) + index + 1).uniform(box[:, 0], box[:, 1], size=(n_points, 2))
        x, y = pts[:, :1], pts[:, 1:]
        ypow = y ** ey
        dx = np.where(ex > 0, ex * x ** np.maximum(ex - 1, 0), 0.0) * ypow
        dxx = np.where(ex > 1, ex * (ex - 1) * x ** np.maximum(ex - 2, 0), 0.0) * ypow
        M = np.stack([dx @ coeffs.T, dxx @ coeffs.T], axis=1)
        s = np.linalg.svd(M, compute_uv=False)
        thr = tol * s[:, 0] * max(M.shape[1:])
        success = s[:, 1] > 10.0 * thr
        failure = s[:, 1] < 0.1 * thr
        successes += int(np.count_nonzero(success))
        marginals += int(np.count_nonzero(~success & ~failure))
    return successes, marginals


def _genericity(log, ctx, rng):
    q, degree = 5, 3
    n_maps, n_points = ctx.size["generic_maps"], ctx.size["generic_points"]
    seed = _seed_int(rng)
    text = ("[chart]\ncoords = x, y\n\n[distribution]\nfield = 1, 0\n\n"
            f"[task]\nkind = genericity\nq = {q}\ndegree = {degree}\nn_maps = {n_maps}\n"
            f"n_points = {n_points}\nseed = {seed}\nbox = -2:2, -2:2\n")
    report, _ = log.scenario(ctx.cli, text)
    with log.span("bench.check"):
        summary = report["summary"]
        want = genericity_reference(seed, q, degree, n_maps, n_points,
                                    np.array([[-2.0, 2.0], [-2.0, 2.0]]), report["tolerance"])
        got = (summary["successes"], summary["marginals"])
        require(got == want, f"successes, marginals {got} != reference {want}")


def batch_pass(log: PassLog, ctx) -> None:
    log.op("check-hfree", _check_hfree, ctx)
    log.op("construct-1d", _construct_1d, ctx)
    log.op("construct-cis", _construct_cis, ctx)
    log.op("rp-bracket", _rp_bracket, ctx)
    log.op("genericity", _genericity, ctx)
    log.op("construct-rp", _construct_rp, ctx)
    log.op("induced-metric", _induced_metric, ctx)


# ---------------------------------------------------------------------------
# pointwise: library calls at single points on the contact fixture


def _random_quadratic(hf, rng, coords):
    terms = [_fmt(round(float(rng.uniform(-1, 1)), 6))]
    terms += [f"{_fmt(round(float(rng.uniform(-1, 1)), 6))}*{n}" for n in coords]
    for i, a in enumerate(coords):
        for b in coords[i:]:
            terms.append(f"{_fmt(round(float(rng.uniform(-1, 1)), 6))}*{a}*{b}")
    return hf.parse("+".join(terms).replace("+-", "-"))


def _round_trip(log, ctx, rng):
    """Acceptance criterion 06: solve for a perturbation derived from a
    known deformation at a point and its six neighbours, then compare
    the forward linearization of the solution with the request."""
    hf = ctx.hf
    lie_expr = hf.lie_expr
    dist, F = ctx.contact
    k, q, eps, h = dist.k, F.q, 1e-5, 1e-5
    with log.span("bench.inputs"):
        p = rng.uniform(-1, 1, size=3)
        df0 = [_random_quadratic(hf, rng, dist.chart.coords) for _ in range(q)]
        psi = []
        for a in range(k):
            acc = lie_expr(dist.frame[a], F.components[0]) * df0[0]
            for Fi, dfi in zip(F.components[1:], df0[1:]):
                acc = acc + lie_expr(dist.frame[a], Fi) * dfi
            psi.append(acc)
        plus = [[lie_expr(dist.frame[a], Fi + hf.Num(eps) * dfi)
                 for Fi, dfi in zip(F.components, df0)] for a in range(k)]
        minus = [[lie_expr(dist.frame[a], Fi - hf.Num(eps) * dfi)
                  for Fi, dfi in zip(F.components, df0)] for a in range(k)]
        dg = [[None] * k for _ in range(k)]
        for a in range(k):
            for b in range(a, k):
                up = plus[a][0] * plus[b][0]
                down = minus[a][0] * minus[b][0]
                for i in range(1, q):
                    up = up + plus[a][i] * plus[b][i]
                    down = down + minus[a][i] * minus[b][i]
                dg[a][b] = dg[b][a] = (up - down) / (2 * eps)

    def solve(point):
        return log.timed(hf.infinitesimal_invert, dist, F, point, dg, psi)

    df_at = solve(p)
    grad = np.empty((3, q))
    for alpha in range(3):
        hi, lo = p.copy(), p.copy()
        hi[alpha] += h
        lo[alpha] -= h
        grad[alpha] = (solve(hi) - solve(lo)) / (2 * h)
    with log.span("bench.check"):
        require(np.all(np.isfinite(df_at)), "non-finite solution")
        chart = dist.chart
        xi = np.array([[hf.eval_value(c, chart, p) for c in field.components]
                       for field in dist.frame])
        lie_df = xi @ grad
        lie_F = np.array([[hf.eval_value(lie_expr(field, Fi), chart, p)
                           for Fi in F.components] for field in dist.frame])
        worst = 0.0
        for a in range(k):
            for b in range(a, k):
                observed = float(lie_F[a] @ lie_df[b] + lie_df[a] @ lie_F[b])
                worst = max(worst, abs(observed - hf.eval_value(dg[a][b], chart, p)))
        require(worst <= 1e-6, f"round-trip error {worst:.2e}")


def _certificates(log, ctx, rng):
    """Single-point certificates at fresh points, each compared with the
    batched certificate at the same point and with the closed form."""
    hf = ctx.hf
    dist, F = ctx.contact
    with log.span("bench.inputs"):
        points = rng.uniform(-2, 2, size=(ctx.size["cert_points"], 3))
    results = []
    for p in points:
        cert = log.timed(hf.is_hfree_at, dist, F, p)
        rank = log.timed(hf.wintergarten_rank, dist, F, p)
        metric = log.timed(hf.induced_metric, dist, F, p)
        results.append((cert, rank, metric))
    with log.span("bench.check"):
        _, _, _, ranks = hf.freedom_matrix_many(dist, F, points)
        for p, batch_rank, (cert, rank, metric) in zip(points, ranks, results):
            require(cert.free and cert.matrix.certified_rank == int(batch_rank) == 5,
                    f"certificate disagrees with the batch at {p}")
            require(rank == 3, f"wintergarten rank {rank} != 3 at {p}")
            require(_metric_close(metric.matrix, p), f"metric off the closed form at {p}")


def pointwise_pass(log: PassLog, ctx) -> None:
    for t in range(ctx.size["trials"]):
        log.op(f"round-trip-{t}", _round_trip, ctx)
    log.op("certificates", _certificates, ctx)


# ---------------------------------------------------------------------------
# cli, window tasks: planar tasks


def _window_text(box: str, grid: int, task: str, exprs: str = "", field: str = "") -> str:
    dist = f"[distribution]\nfield = {field}\n\n" if field else ""
    return (f"[chart]\ncoords = x, y\n\n{exprs}{dist}[window]\nbox = {box}\n"
            f"grid = {grid}, {grid}\n\n[task]\n{task}")


def _glue(log, ctx, rng):
    # the seeds move together along x; moved apart or along y, the tubes
    # can leave steps in the glued function that the check rightly rejects
    dx = round(float(rng.uniform(-0.1, 0.1)), 4)
    seeds = "".join(f"seed = {dx}, {y}\n" for y in (-0.9, 0.0, 0.9))
    report, _ = log.scenario(ctx.cli, _window_text(
        "-1:1, -1:1", ctx.size["glue_grid"], f"kind = transversal\n{seeds}",
        field=STRIPE_FIELD))
    with log.span("bench.check"):
        summary = report["summary"]
        require(summary["n_tubes"] == 3, "wrong tube count")
        require(summary["min_lie_interior"] > 0.0,
                f"glued function not transversal: min {summary['min_lie_interior']}")


def _verify(log, ctx, rng):
    a = round(float(rng.uniform(0.8, 1.2)), 4)
    f_text = f"y*exp({a}*x)"
    grid = ctx.size["verify_grid"]
    report, out = log.scenario(ctx.cli, _window_text(
        "-1:1, -1:1", grid, "kind = transversal\nf = f\n",
        exprs=f"[exprs]\nf = {f_text}\n\n", field=STRIPE_FIELD))
    with log.span("bench.check"):
        # L f = (1 + (2a - 1) y^2) exp(a x) is smallest at (-1, 0)
        summary = report["summary"]
        want = math.exp(-a)
        require(summary["min_lie"] > 0.0 and abs(summary["min_lie"] - want) <= 1e-12 * want,
                f"min_lie {summary['min_lie']} != exp(-{a})")
        lines = (out / "grid.csv").read_text().splitlines()
        require(lines[0] == "x,y,f,lie_f" and len(lines) == 1 + grid * grid,
                "grid.csv has the wrong shape")
        chart = ctx.hf.Chart(("x", "y"))
        xi = ctx.hf.parse_field(chart, *STRIPE_FIELD.split(", "))
        f = ctx.hf.parse(f_text)
        picks = rng.choice(grid * grid, ctx.size["lie_checks"], replace=False)
        rows = [[float(v) for v in lines[1 + int(i)].split(",")] for i in picks]
    # the single-point derivative must agree with the batched grid
    for x, y, _, lie_f in rows:
        got = log.timed(ctx.hf.lie, xi, f, (x, y))
        require(abs(got - lie_f) <= 1e-12 * (1.0 + abs(lie_f)),
                f"lie at ({x}, {y}) is {got}, grid says {lie_f}")


def _svg_levels(text: str):
    """Polyline vertices of a level SVG, grouped by stroke colour."""
    groups: dict[str, list] = {}
    for line in text.splitlines():
        if not line.startswith("<polyline"):
            continue
        colour = line.split('stroke="', 1)[1].split('"', 1)[0]
        pts = line.split('points="', 1)[1].split('"', 1)[0].split()
        groups.setdefault(colour, []).extend(
            tuple(float(v) for v in pt.split(",")) for pt in pts)
    return groups


def _render(log, ctx, rng, name: str, template: str):
    coef = round(float(rng.uniform(0.8, 1.2)), 4)
    text = template.format(coef)
    n_levels = 15
    report, out = log.scenario(ctx.cli, _window_text(
        "-2:2, -2:2", ctx.size["render_grid"],
        f"kind = render-levels\nexpr = {name}\nlevels = {n_levels}\n",
        exprs=f"[exprs]\n{name} = {text}\n\n"))
    with log.span("bench.check"):
        require(report["summary"]["files"] == [f"levels_{name}.svg"], "wrong SVG files")
        chart = ctx.hf.Chart(("x", "y"))
        expr = ctx.hf.parse(text)
        groups = _svg_levels((out / f"levels_{name}.svg").read_text())
        require(len(groups) == n_levels, f"{name}: {len(groups)} levels drawn")
        # vertices of one colour lie on one level set; levels are equally spaced
        means, spreads = [], []
        for colour in sorted(groups, key=lambda c: int(c[4:].split("%")[0])):
            pts = np.array(groups[colour][:50])
            pts[:, 1] = -pts[:, 1]  # the SVG mirrors y inside a window symmetric about 0
            vals = ctx.expr.eval_value_many(expr, chart, pts)
            means.append(float(np.mean(vals)))
            spreads.append(float(np.ptp(vals)))
        steps = np.diff(means)
        require(np.all(steps > 0), f"{name}: levels out of order")
        require(max(spreads) <= 0.05 * float(np.mean(steps)),
                f"{name}: vertices off their level by {max(spreads):.3g}")
        require(float(np.ptp(steps)) <= 0.05 * float(np.mean(steps)),
                f"{name}: levels not equally spaced")


def window_pass(log: PassLog, ctx) -> None:
    log.op("transversal-glue", _glue, ctx)
    log.op("transversal-verify", _verify, ctx)
    log.op("render-f", lambda log, ctx, rng: _render(log, ctx, rng, "f", "y*exp({}*x)"), ctx)
    log.op("render-g", lambda log, ctx, rng: _render(log, ctx, rng, "g", "(y^2-{})*exp(x)"), ctx)


# ---------------------------------------------------------------------------


def cli_pass(log: PassLog, ctx) -> None:
    """Every scenario task through ``cli.run``: the batch tasks, which
    assemble and certify freedom matrices, then the planar window tasks,
    which assemble none.  They share one workload so that each run can
    last long enough for its mean pass time to settle (see
    ``run.mean_pass``)."""
    batch_pass(log, ctx)
    window_pass(log, ctx)


PASSES = {"cli": cli_pass, "pointwise": pointwise_pass}

# sizes of each op; the items a pass delivers follow from them
SIZES = {
    "cli": {"check_points": 10000, "cert_checks": 300,
            "construct_points": 2000, "loop_points": 300,
            "generic_maps": 100, "generic_points": 200,
            "glue_grid": 101, "verify_grid": 301, "render_grid": 101,
            "lie_checks": 300},
    "pointwise": {"trials": 3, "cert_points": 100},
}


class Context:
    """Program modules and fixtures a workload's ops share."""

    def __init__(self, workload: str):
        self.hf = importlib.import_module("hfreemaps")
        self.expr = importlib.import_module("hfreemaps.expr")
        self.cli = importlib.import_module(IMPORTS[workload]) if workload != "pointwise" else None
        self.size = SIZES[workload]
        chart = self.hf.Chart(("x", "y", "z"))
        dist = self.hf.Distribution(chart, tuple(
            self.hf.parse_field(chart, *f.split(", ")) for f in CONTACT_FRAME))
        self.contact = (dist, self.hf.parse_map(chart, *CONTACT_MAP))


def run_pass(workload: str, ctx: Context, tracer, seed: int, index: int,
             workdir: Path, keep_hashes: bool) -> PassLog:
    workdir.mkdir(parents=True, exist_ok=True)
    log = PassLog(tracer, workdir, keep_hashes, key=(seed, index))
    try:
        PASSES[workload](log, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return log
