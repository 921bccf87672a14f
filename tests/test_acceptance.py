"""Acceptance gate: one test per criterion, with pinned tolerances.

Each test prints a single PASS line (visible with ``pytest -s``); a
failure reads as the criterion number plus the violated bound.
"""

import re
import time

import numpy as np

from hfreemaps.cli import run as run_scenario
from hfreemaps.constructions import (
    FreeCurve,
    RPBracketSpec,
    build_cis,
    cis_determinant_constant,
    compose_1d,
    rp_bracket,
    verify_1d,
    verify_cis,
)
from hfreemaps.expr import (
    Chart,
    Num,
    eval_jet2,
    eval_value,
    parse,
)
from hfreemaps.geometry import Distribution
from hfreemaps.genericity import genericity_trial
from hfreemaps.hfree import (
    MapSpec,
    freedom_matrix_many,
    infinitesimal_invert,
    is_h_immersion_at,
    is_hfree_at,
    parse_map,
    wintergarten_rank,
)
from hfreemaps.lie import VectorField, lie_expr, parse_field
from hfreemaps.transversal import Window, build_tube, glue, verify_transversal

from oracles import FrameChange, brute_force_cis_constant, change_frame, rp_bracket_expr
from test_jets_ad import _rejection_sample, fd_gradient, fd_hessian


def _contact():
    chart = Chart(("x", "y", "z"))
    dist = Distribution(chart, (parse_field(chart, "0", "1", "0"),
                                parse_field(chart, "1", "0", "-y")))
    F = parse_map(chart, "y", "x", "exp(y)", "exp(x)", "z")
    return dist, F


def _stripe():
    chart = Chart(("x", "y"))
    dist = Distribution(chart, (parse_field(chart, "2*y", "1-y^2"),))
    return dist, parse("y*exp(x)")


def test_criterion_01_contact_certificate():
    dist, F = _contact()
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, size=(1000, 3))
    start = time.perf_counter()
    matrices, _, _, ranks = freedom_matrix_many(dist, F, pts)
    dets = np.linalg.det(matrices)
    elapsed = time.perf_counter() - start
    expected = np.exp(pts[:, 0] + pts[:, 1])
    rel = np.abs(dets - expected) / np.abs(expected)
    assert rel.max() <= 1e-9, f"det mismatch {rel.max():.2e}"
    assert np.all(ranks == 5)
    assert elapsed <= 1.0, f"took {elapsed:.2f}s"
    print(f"\n[criterion  1] PASS - contact det = exp(x+y) to {rel.max():.1e}, "
          f"rank 5 at 1000 points in {elapsed:.2f}s")


def test_criterion_02_one_dimensional_determinant_identity():
    dist, f = _stripe()
    rng = np.random.default_rng(2)
    pts = rng.uniform(-2, 2, size=(1000, 2))
    worst = 0.0
    for curve in (FreeCurve.exp(), FreeCurve.circle(), FreeCurve.custom("t", "t^2")):
        built = compose_1d(f, curve, dist.chart)
        check = verify_1d(dist, built, pts, tol=1e-9)
        assert check.identity.all(), f"identity violated for {curve.kind}"
        assert check.certified.all(), f"rank certificate failed for {curve.kind}"
        bound = np.abs(check.determinants - check.predicted) / np.maximum(
            1.0, np.abs(check.determinants))
        worst = max(worst, float(bound.max()))
    print(f"\n[criterion  2] PASS - composition determinant identity to "
          f"{worst:.1e} for exp/circle/parabola curves")


def test_criterion_03_product_map_determinant_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for n, fs, curves in (
        (2, ["w1+0.3*sin(w1)", "w2"],
         [FreeCurve.exp(), FreeCurve.custom("t", "t^2")]),
        (2, ["w1", "w2"], [FreeCurve.exp(), FreeCurve.exp()]),
        (3, ["w1", "w2+0.2*sin(w2)", "w3"],
         [FreeCurve.exp(), FreeCurve.exp(), FreeCurve.custom("t", "t^2")]),
    ):
        coords = tuple(f"a{i+1}" for i in range(n)) + tuple(f"w{i+1}" for i in range(n))
        chart = Chart(coords)
        frame = tuple(
            VectorField(chart, tuple(
                Num(1.0) if j == n + i else Num(0.0) for j in range(2 * n)))
            for i in range(n))
        dist = Distribution(chart, frame)
        constant = brute_force_cis_constant(n)  # brute-force oracle first
        assert np.isclose(constant, 2.0 ** (n * (n - 1) // 2), rtol=1e-10)
        assert np.isclose(cis_determinant_constant(n), constant, rtol=1e-10)
        built = build_cis([parse(t) for t in fs], curves, chart)
        pts = rng.uniform(-2, 2, size=(1000, 2 * n))
        check = verify_cis(dist, built, pts, tol=1e-8)
        assert check.passed.all()
        bound = np.abs(check.determinants - check.predicted) / np.maximum(
            1.0, np.abs(check.determinants))
        worst = max(worst, float(bound.max()))
    print(f"\n[criterion  3] PASS - product-map determinant identity to "
          f"{worst:.1e} with oracle constants 2 and 8")


def _random_constant_change(rng, k):
    while True:
        mat = rng.normal(size=(k, k))
        if abs(np.linalg.det(mat)) >= 0.3:
            return FrameChange(tuple(tuple(Num(float(v)) for v in row)
                                     for row in mat))


def _random_expr_change(rng, k, coords):
    """Triangular matrix with nonvanishing diagonal entries."""
    def diag():
        c = coords[rng.integers(0, len(coords))]
        scale = float(np.round(rng.uniform(0.2, 0.6), 3))
        base = float(np.round(rng.uniform(1.5, 2.5), 3))
        return parse(f"{base}+{scale}*sin({c})") if rng.random() < 0.5 \
            else parse(f"exp({scale}*{c})")

    def off():
        c = coords[rng.integers(0, len(coords))]
        return parse(f"{float(np.round(rng.uniform(-1, 1), 3))}*{c}")

    rows = []
    upper = rng.random() < 0.5
    for a in range(k):
        row = []
        for b in range(k):
            if a == b:
                row.append(diag())
            elif (b > a) == upper:
                row.append(off())
            else:
                row.append(Num(0.0))
        rows.append(tuple(row))
    return FrameChange(tuple(rows))


def test_criterion_04_trivialization_invariance():
    rng = np.random.default_rng(4)
    contact_dist, contact_F = _contact()
    stripe_dist, f = _stripe()
    stripe_F = MapSpec(stripe_dist.chart, (f, parse("exp(y*exp(x))")))
    fixtures = [(contact_dist, contact_F, 3), (stripe_dist, stripe_F, 2)]
    n_changes = 0
    for dist, F, m in fixtures:
        pts = rng.uniform(-2, 2, size=(100, m))
        _, _, _, base_ranks = freedom_matrix_many(dist, F, pts)
        for _ in range(50):
            for lam in (_random_constant_change(rng, dist.k),
                        _random_expr_change(rng, dist.k, dist.chart.coords)):
                changed = change_frame(dist, lam)
                _, _, _, ranks = freedom_matrix_many(changed, F, pts)
                assert np.array_equal(ranks, base_ranks)
                n_changes += 1
    assert n_changes == 200
    print("\n[criterion  4] PASS - certified rank invariant under 200 random "
          "frame changes at 100 points each")


def test_criterion_05_wintergarten_equivalence():
    rng = np.random.default_rng(5)
    chart3 = Chart(("x", "y", "z"))
    commuting = Distribution(chart3, (parse_field(chart3, "cos(y)", "-sin(y)", "0"),
                                      parse_field(chart3, "0", "0", "1")))
    commuting_F = parse_map(chart3, "exp(x)*cos(y)", "exp(exp(x)*cos(y))",
                            "z", "exp(z)", "z*exp(x)*cos(y)")
    stripe_dist, f = _stripe()
    plane = stripe_dist.chart
    line = Distribution(plane, (parse_field(plane, "1", "0"),))
    contact_dist, contact_F = _contact()
    fixtures = [
        (contact_dist, contact_F, 150, 2.0),
        (stripe_dist, MapSpec(plane, (f, parse("exp(y*exp(x))"))), 150, 2.0),
        (line, parse_map(plane, "x", "y"), 100, 2.0),     # immersion, never free
        (line, parse_map(plane, "x", "x^2"), 50, 2.0),    # free everywhere
        (commuting, commuting_F, 50, 1.0),
    ]
    checked = 0
    for dist, F, n, half in fixtures:
        s_k = dist.k * (dist.k + 1) // 2
        for p in rng.uniform(-half, half, size=(n, dist.chart.dim)):
            assert is_h_immersion_at(dist, F, p)
            full = wintergarten_rank(dist, F, p) == s_k
            assert full == bool(is_hfree_at(dist, F, p))
            checked += 1
    assert checked == 500
    print("\n[criterion  5] PASS - normal-map surjectivity matches the rank "
          "certificate at 500 points, zero disagreements")


def _random_quadratic(rng, chart):
    names = chart.coords
    terms = [f"{float(np.round(rng.uniform(-1, 1), 6))}"]
    for n in names:
        terms.append(f"{float(np.round(rng.uniform(-1, 1), 6))}*{n}")
    for i, a in enumerate(names):
        for b in names[i:]:
            terms.append(f"{float(np.round(rng.uniform(-1, 1), 6))}*{a}*{b}")
    return parse("+".join(terms).replace("+-", "-"))


def test_criterion_06_linearized_inversion_round_trip():
    dist, F = _contact()
    chart = dist.chart
    rng = np.random.default_rng(6)
    eps, h = 1e-5, 1e-5
    k = dist.k
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-1, 1, size=3)
        df0 = [_random_quadratic(rng, chart) for _ in range(F.q)]
        psi = []
        for a in range(k):
            acc = lie_expr(dist.frame[a], F.components[0]) * df0[0]
            for Fi, dfi in zip(F.components[1:], df0[1:]):
                acc = acc + lie_expr(dist.frame[a], Fi) * dfi
            psi.append(acc)
        # central epsilon-difference of the induced metric, as expressions
        dg = [[None] * k for _ in range(k)]
        lie_plus = [[lie_expr(dist.frame[a], Fi + Num(eps) * dfi)
                     for Fi, dfi in zip(F.components, df0)] for a in range(k)]
        lie_minus = [[lie_expr(dist.frame[a], Fi - Num(eps) * dfi)
                      for Fi, dfi in zip(F.components, df0)] for a in range(k)]
        for a in range(k):
            for b in range(a, k):
                plus = lie_plus[a][0] * lie_plus[b][0]
                minus = lie_minus[a][0] * lie_minus[b][0]
                for i in range(1, F.q):
                    plus = plus + lie_plus[a][i] * lie_plus[b][i]
                    minus = minus + lie_minus[a][i] * lie_minus[b][i]
                dg[a][b] = dg[b][a] = (plus - minus) / (2 * eps)

        solve = lambda q: infinitesimal_invert(dist, F, q, dg, psi)
        df_at = solve(p)
        grad_df = np.empty((3, F.q))
        for alpha in range(3):
            hi = p.copy(); hi[alpha] += h
            lo = p.copy(); lo[alpha] -= h
            grad_df[alpha] = (solve(hi) - solve(lo)) / (2 * h)
        xi_vals = np.array([[eval_value(c, chart, p) for c in field.components]
                            for field in dist.frame])
        lie_df = xi_vals @ grad_df            # (k, q)
        lie_F = np.array([[eval_value(lie_expr(field, Fi), chart, p)
                           for Fi in F.components] for field in dist.frame])
        for a, b in pairs:
            observed = float(lie_F[a] @ lie_df[b] + lie_df[a] @ lie_F[b])
            requested = eval_value(dg[a][b], chart, p)
            worst = max(worst, abs(observed - requested))
    assert worst <= 1e-6, f"round-trip error {worst:.2e}"
    print(f"\n[criterion  6] PASS - linearized inversion round trip to "
          f"{worst:.1e} over 100 trials")


def test_criterion_07_transversal_window():
    dist, f = _stripe()
    xi = dist.frame[0]
    window = Window(-1, 1, -1, 1, 101, 101)
    start = time.perf_counter()
    report = verify_transversal(xi, f, window)
    assert abs(report.min_value - np.exp(-1)) <= 1e-12
    assert np.array_equal(report.argmin, [-1.0, 0.0])
    tubes = [build_tube(xi, (0.0, s), window) for s in (-0.9, 0.0, 0.9)]
    result = glue(tubes, [1.0, 1.0, 1.0])
    elapsed = time.perf_counter() - start
    assert result.ok and result.min_interior > 0.0
    assert elapsed <= 5.0, f"took {elapsed:.2f}s"
    print(f"\n[criterion  7] PASS - min derivative exp(-1) at (-1,0); glued "
          f"tubes min {result.min_interior:.3f} > 0 in {elapsed:.2f}s")


def test_criterion_08_riemann_poisson_suite():
    rng = np.random.default_rng(8)
    space = Chart(("x", "y", "z"))
    spec = RPBracketSpec(space, (parse("x"),))
    assert rp_bracket(spec, "y", "z", (0.7, -0.3, 1.9)) == 1.0

    def poly(deg=2):
        return _random_quadratic(rng, space)

    for _ in range(200):
        f, g = poly(), poly()
        p = rng.uniform(-1.5, 1.5, size=3)
        assert abs(rp_bracket(spec, f, f, p)) <= 1e-12
        assert abs(rp_bracket(spec, "x", g, p)) <= 1e-12
        lhs = rp_bracket(spec, f, g * poly(), p)
    jac_worst = leib_worst = 0.0
    for _ in range(200):
        f, g, hh = poly(), poly(), poly()
        p = rng.uniform(-1.5, 1.5, size=3)
        lhs = rp_bracket(spec, hh, f * g, p)
        rhs = (eval_value(f, space, p) * rp_bracket(spec, hh, g, p)
               + eval_value(g, space, p) * rp_bracket(spec, hh, f, p))
        leib_worst = max(leib_worst,
                         abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
        total = 0.0
        for a, b, c in ((f, g, hh), (g, hh, f), (hh, f, g)):
            total += rp_bracket(spec, a, rp_bracket_expr(spec, b, c), p)
        jac_worst = max(jac_worst, abs(total))
    assert leib_worst <= 1e-10, f"Leibniz {leib_worst:.2e}"
    assert jac_worst <= 1e-8, f"Jacobi {jac_worst:.2e}"

    torus = Chart(("t1", "t2", "t3"))
    nov_worst = 0.0
    eps_tensor = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps_tensor[i, j, k] = 1.0
        eps_tensor[j, i, k] = -1.0
    for _ in range(100):
        B = rng.uniform(-2, 2, size=3)
        nspec = RPBracketSpec(
            torus,
            (parse(f"{float(B[0])!r}*t1+{float(B[1])!r}*t2+{float(B[2])!r}*t3"),))
        f, g = _random_quadratic(rng, torus), _random_quadratic(rng, torus)
        p = rng.uniform(-2, 2, size=3)
        df = eval_jet2(f, torus, p).gradient
        dg = eval_jet2(g, torus, p).gradient
        expected = float(np.einsum("ijk,i,j,k->", eps_tensor, df, dg, B))
        got = rp_bracket(nspec, f, g, p)
        nov_worst = max(nov_worst, abs(got - expected) / max(1.0, abs(expected)))
    assert nov_worst <= 1e-10, f"constant-form bracket {nov_worst:.2e}"
    print(f"\n[criterion  8] PASS - bracket suite: Leibniz {leib_worst:.1e}, "
          f"Jacobi {jac_worst:.1e}, constant-form {nov_worst:.1e}")


def test_criterion_09_genericity():
    plane = Chart(("x", "y"))
    dist = Distribution(plane, (parse_field(plane, "1", "0"),))
    box = np.array([[-2.0, 2.0], [-2.0, 2.0]])
    start = time.perf_counter()
    res = genericity_trial(dist, q=5, degree=3, n_maps=100, n_points=100,
                           seed=99, box=box)
    elapsed = time.perf_counter() - start
    assert res.n_pairs == 10_000
    assert res.fraction >= 0.99, f"fraction {res.fraction}"
    res_threads = genericity_trial(dist, q=5, degree=3, n_maps=100, n_points=100,
                                   seed=99, box=box, threads=4)
    assert res_threads.successes == res.successes
    assert res_threads.fraction == res.fraction
    zero = genericity_trial(dist, q=1, degree=3, n_maps=10, n_points=10,
                            seed=99, box=box)
    assert zero.fraction == 0.0
    assert elapsed <= 30.0, f"took {elapsed:.2f}s"
    print(f"\n[criterion  9] PASS - free fraction {res.fraction:.4f} at q=5 "
          f"({elapsed:.1f}s), 0.0 at q=1, thread-count invariant")


def test_criterion_10_jet_correctness():
    plane = Chart(("x", "y"))
    rng = np.random.default_rng(20240817)
    worst_g = worst_h = 0.0
    for e, p, j in _rejection_sample(rng, plane, 1000):
        assert np.array_equal(j.hessian, j.hessian.T)
        fg = fd_gradient(e, plane, p)
        fh = fd_hessian(e, plane, p)
        worst_g = max(worst_g, np.abs(fg - j.gradient).max()
                      / max(1.0, np.abs(j.gradient).max()))
        worst_h = max(worst_h, np.abs(fh - j.hessian).max()
                      / max(1.0, np.abs(j.hessian).max()))
    assert worst_g <= 1e-5
    assert worst_h <= 1e-5
    print(f"\n[criterion 10] PASS - 1000 jets vs finite differences: gradient "
          f"{worst_g:.1e}, Hessian {worst_h:.1e}, symmetry exact")


LEVELS_SCENARIO = """
[chart]
coords = x, y

[exprs]
f = y*exp(x)
g = (y^2-1)*exp(x)

[window]
box = -2:2, -2:2
grid = 101, 101

[task]
kind = render-levels
expr = f
expr = g
"""


def test_criterion_11_level_set_rendering(tmp_path):
    scenario = tmp_path / "levels.ini"
    scenario.write_text(LEVELS_SCENARIO)
    out = tmp_path / "out"
    assert run_scenario(scenario, out) == 0
    assert (out / "levels_f.svg").exists()
    svg = (out / "levels_g.svg").read_text()
    window_flip = 0.0  # viewBox is symmetric, svg y = flip - y
    near_plus = near_minus = False
    for match in re.finditer(r'points="([^"]+)"', svg):
        pts = np.array([[float(v) for v in pair.split(",")]
                        for pair in match.group(1).split()])
        ys = window_flip - pts[:, 1]
        if np.all(np.abs(ys - 1.0) <= 1e-3):
            near_plus = True
        if np.all(np.abs(ys + 1.0) <= 1e-3):
            near_minus = True
    assert near_plus and near_minus
    print("\n[criterion 11] PASS - level-0 contours include polylines on "
          "y = +1 and y = -1 within 1e-3")
