import warnings

import numpy as np
import pytest

from hfreemaps.constructions import (
    FreeCurve,
    RPBracketSpec,
    build_cis,
    build_rp,
    cis_determinant_constant,
    compose_1d,
    curve_freeness,
    hamiltonian_field,
    rp_bracket,
    rp_bracket_many,
    verify_1d,
    verify_cis,
    verify_rp,
)
from hfreemaps.errors import (CommutationViolation, DegenerateCasimirs, DomainError,
                              NonTransversal)
from hfreemaps.expr import Chart, Coord, Num, eval_value, eval_value_many, parse, render
from hfreemaps.geometry import Distribution
from hfreemaps.hfree import is_hfree_at
from hfreemaps.lie import lie_expr, parse_field

from oracles import (brute_force_cis_constant, node_count, predicted_1d_expr,
                     rp_bracket_expr, term_size)
from test_jets_ad import random_expr


class TestFreeCurves:
    def test_exp_curve_freeness(self):
        for t in (-1.0, 0.0, 0.7, 3.0):
            assert np.isclose(curve_freeness(FreeCurve.exp(), t), np.exp(t),
                              rtol=1e-15)

    def test_circle_curve_freeness(self, rng):
        for t in rng.uniform(-6, 6, size=20):
            assert np.isclose(curve_freeness(FreeCurve.circle(), t), 1.0,
                              rtol=1e-12)

    def test_parabola(self):
        curve = FreeCurve.custom("t", "t^2")
        assert curve_freeness(curve, -2.0) == 2.0
        assert curve_freeness(curve, 5.0) == 2.0

    def test_degenerate_custom_rejected(self):
        with pytest.raises(ValueError):
            FreeCurve.custom("t", "2*t")  # a'b'' - a''b' is identically 0
        with pytest.raises(ValueError):
            FreeCurve.custom("t", "t^3", interval=(-1.0, 1.0))  # vanishes at 0


class TestCompose1d:
    def test_components(self, stripe):
        dist, f, _ = stripe
        built = compose_1d(f, FreeCurve.exp(), dist.chart)
        assert render(built.map_spec.components[0]) == "y*exp(x)"
        assert render(built.map_spec.components[1]) == "exp(y*exp(x))"

    def test_identity_for_exp_curve(self, stripe, rng):
        dist, f, _ = stripe
        built = compose_1d(f, FreeCurve.exp(), dist.chart)
        check = verify_1d(dist, built, rng.uniform(-2, 2, size=(200, 2)))
        assert check.all_passed

    def test_identity_against_plain_coordinates(self, plane, rng):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        built = compose_1d(parse("x"), FreeCurve.exp(), plane)
        check = verify_1d(dist, built, rng.uniform(-2, 2, size=(50, 2)))
        assert check.all_passed
        assert np.allclose(check.determinants, np.exp(check.points[:, 0]),
                           rtol=1e-12)

    def test_first_integral_fails_verification(self, stripe, rng):
        dist, _, integral = stripe
        built = compose_1d(integral, FreeCurve.exp(), dist.chart)
        check = verify_1d(dist, built, rng.uniform(-2, 2, size=(50, 2)))
        # the determinant vanishes identically: the identity holds but
        # no point is certified
        assert np.allclose(check.determinants, 0.0, atol=1e-10)
        assert not check.certified.any()
        assert not check.all_passed

    @pytest.mark.parametrize("curve", [FreeCurve.exp(), FreeCurve.circle()],
                             ids=["exp", "circle"])
    @pytest.mark.parametrize("a", [1.0, 0.9312, 1.1])
    def test_prediction_is_the_symbolic_one_bit_for_bit(self, stripe, rng, a, curve):
        dist, _, _ = stripe
        f = parse(f"y*exp({a}*x)")
        pts = rng.uniform(-2, 2, size=(2000, 2))
        check = verify_1d(dist, compose_1d(f, curve, dist.chart), pts)
        oracle = eval_value_many(predicted_1d_expr(dist.frame[0], f, curve), dist.chart, pts)
        assert np.array_equal(check.predicted, oracle)

    def test_prediction_on_generated_f_within_rounding_of_the_symbolic_one(self, plane):
        # Both paths compute Dpsi(f) (L_xi f)^3 from the same terms and
        # round about once per node of the oracle's tree, so to first
        # order each errs by at most N * eps * size, with N that node
        # count and size the tree's term size (oracles.node_count and
        # term_size): together 2 N eps size.  Cancelling terms (L_xi f
        # near 0, or inside a partial derivative) make the size, not
        # |det|, the right scale.  Over about 2,700 generated (f, curve)
        # pairs the largest difference seen was 0.63 eps size.
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        fields = [("2*y", "1-y^2"), ("1", "0"), ("x*y+1", "cos(x)"), ("y", "-x")]
        curves = [FreeCurve.exp(), FreeCurve.circle(), FreeCurve.custom("t", "t^2")]
        differing = 0
        for trial in range(60):
            f = random_expr(rng, depth=int(rng.integers(2, 6)))
            if isinstance(f, (Num, Coord)):
                continue
            dist = Distribution(plane, (parse_field(plane, *fields[trial % len(fields)]),))
            curve = curves[trial % len(curves)]
            pts = rng.uniform(-2, 2, size=(200, 2))
            check = verify_1d(dist, compose_1d(f, curve, plane), pts)
            tree = predicted_1d_expr(dist.frame[0], f, curve)
            oracle = eval_value_many(tree, plane, pts)
            bound = 2 * node_count(tree) * eps * term_size(tree, plane, pts)
            assert np.all(np.abs(check.predicted - oracle) <= bound), str(f)
            differing += int(np.count_nonzero(check.predicted != oracle))
        assert differing > 0  # the two paths do round differently

    @pytest.mark.parametrize("text", ["y*exp(x)", "x/(1+y^2)", "log(2+x^2)*y"])
    @pytest.mark.parametrize("curve", [FreeCurve.exp(), FreeCurve.circle()],
                             ids=["exp", "circle"])
    def test_equals_the_product_map_of_one_function(self, stripe, rng, text, curve):
        dist, _, _ = stripe
        f = parse(text)
        pts = rng.uniform(-2, 2, size=(400, 2))
        g = np.array([eval_value(lie_expr(dist.frame[0], f), dist.chart, p) for p in pts])
        pts = pts[g > 1e-6]  # verify_cis refuses g <= 0
        one = verify_1d(dist, compose_1d(f, curve, dist.chart), pts, tol=1e-9)
        cis = verify_cis(dist, build_cis([f], [curve], dist.chart), pts, tol=1e-9)
        assert len(pts) > 100
        for name in ("points", "determinants", "predicted", "identity", "certified"):
            assert np.array_equal(getattr(one, name), getattr(cis, name)), name
        assert one.certificate.keys() == cis.certificate.keys()
        for name, column in one.certificate.items():
            assert np.array_equal(column, cis.certificate[name]), name
        assert one.tolerance == cis.tolerance


class TestCis:
    def test_constant_oracle(self):
        assert np.isclose(cis_determinant_constant(1), 1.0, rtol=1e-12)
        assert np.isclose(cis_determinant_constant(2), 2.0, rtol=1e-12)
        assert np.isclose(cis_determinant_constant(3), 8.0, rtol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_form_matches_brute_force_determinant(self, n):
        oracle = brute_force_cis_constant(n)
        assert cis_determinant_constant(n) == 2.0 ** (n * (n - 1) // 2)
        assert abs(oracle - cis_determinant_constant(n)) <= 1e-12 * abs(oracle)

    def test_component_order(self):
        chart = Chart(("a1", "a2", "w1", "w2"))
        built = build_cis([parse("w1"), parse("w2")],
                          [FreeCurve.exp(), FreeCurve.exp()], chart)
        rendered = [render(c) for c in built.map_spec.components]
        assert rendered == ["w1", "exp(w1)", "w2", "exp(w2)", "w1*w2"]

    def test_n1_degenerates_to_compose(self, plane, rng):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        built = build_cis([parse("x")], [FreeCurve.exp()], plane)
        check = verify_cis(dist, built, rng.uniform(-2, 2, size=(50, 2)))
        assert check.all_passed
        assert np.allclose(check.determinants, np.exp(check.points[:, 0]),
                           rtol=1e-12)

    def test_action_angle_model(self, rng):
        chart = Chart(("a1", "a2", "w1", "w2"))
        dist = Distribution(chart, (parse_field(chart, "0", "0", "1", "0"),
                                    parse_field(chart, "0", "0", "0", "1")))
        built = build_cis([parse("w1"), parse("w2")],
                          [FreeCurve.exp(), FreeCurve.exp()], chart)
        pts = rng.uniform(-2, 2, size=(100, 4))
        check = verify_cis(dist, built, pts)
        assert check.all_passed
        assert np.allclose(check.determinants,
                           2.0 * np.exp(pts[:, 2] + pts[:, 3]), rtol=1e-10)

    def test_nonconstant_rates(self, rng):
        chart = Chart(("a1", "a2", "w1", "w2"))
        dist = Distribution(chart, (parse_field(chart, "0", "0", "1", "0"),
                                    parse_field(chart, "0", "0", "0", "1")))
        built = build_cis([parse("w1+0.3*sin(w1)"), parse("w2")],
                          [FreeCurve.exp(), FreeCurve.custom("t", "t^2")], chart)
        check = verify_cis(dist, built, rng.uniform(-2, 2, size=(150, 4)))
        assert check.all_passed

    def test_commutation_violation(self, rng):
        chart = Chart(("a1", "a2", "w1", "w2"))
        dist = Distribution(chart, (parse_field(chart, "0", "0", "1", "0"),
                                    parse_field(chart, "0", "0", "0", "1")))
        built = build_cis([parse("w1+w2"), parse("w2")],
                          [FreeCurve.exp(), FreeCurve.exp()], chart)
        with pytest.raises(CommutationViolation):
            verify_cis(dist, built, rng.uniform(-2, 2, size=(10, 4)))

    def test_vanishing_rate_rejected(self, rng):
        chart = Chart(("a1", "a2", "w1", "w2"))
        dist = Distribution(chart, (parse_field(chart, "0", "0", "1", "0"),
                                    parse_field(chart, "0", "0", "0", "1")))
        # g_1 = cos(w1) changes sign on the sampled box
        built = build_cis([parse("sin(w1)"), parse("w2")],
                          [FreeCurve.exp(), FreeCurve.exp()], chart)
        with pytest.raises(CommutationViolation):
            verify_cis(dist, built, rng.uniform(-3, 3, size=(50, 4)))

    def test_zero_rate_point_kills_determinant(self):
        from hfreemaps.hfree import freedom_matrix, is_hfree_at
        chart = Chart(("a1", "a2", "w1", "w2"))
        dist = Distribution(chart, (parse_field(chart, "0", "0", "1", "0"),
                                    parse_field(chart, "0", "0", "0", "1")))
        built = build_cis([parse("sin(w1)"), parse("w2")],
                          [FreeCurve.exp(), FreeCurve.exp()], chart)
        p = (0.0, 0.0, np.pi / 2, 0.3)  # g_1 = cos(w1) = 0 here
        M = freedom_matrix(dist, built.map_spec, p)
        assert abs(M.det()) <= 1e-12
        assert not is_hfree_at(dist, built.map_spec, p).free


class TestRPBracket:
    @pytest.fixture
    def x_casimir(self, space):
        return RPBracketSpec(space, (parse("x"),))

    def test_plane_rotation(self, x_casimir):
        assert rp_bracket(x_casimir, "y", "z", (0.3, -0.7, 1.1)) == 1.0

    def test_partial_derivative_form(self, x_casimir, rng):
        f, g = parse("y^2*z"), parse("sin(y)+z^2")
        chart = x_casimir.chart
        for p in rng.uniform(-2, 2, size=(25, 3)):
            fy = 2 * p[1] * p[2]
            fz = p[1] ** 2
            gy = np.cos(p[1])
            gz = 2 * p[2]
            assert np.isclose(rp_bracket(x_casimir, f, g, p), fy * gz - gy * fz,
                              rtol=1e-12, atol=1e-12)

    def test_antisymmetry(self, x_casimir, rng):
        f = parse("y*z+sin(y)")
        for p in rng.uniform(-2, 2, size=(10, 3)):
            assert rp_bracket(x_casimir, f, f, p) == 0.0

    def test_casimir_annihilated(self, x_casimir, rng):
        for p in rng.uniform(-2, 2, size=(20, 3)):
            val = rp_bracket(x_casimir, "x", "y*z^2", p)
            assert abs(val) <= 1e-12

    def test_novikov_constant_form(self, rng):
        torus = Chart(("t1", "t2", "t3"))
        B = np.array([0.4, -1.1, 0.8])
        spec = RPBracketSpec(
            torus, (parse("0.4*t1-1.1*t2+0.8*t3"),))
        f, g = parse("sin(t1)*t2"), parse("t3^2+cos(t2)")
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k] = 1.0
            eps[j, i, k] = -1.0
        chart = torus
        from hfreemaps.expr import eval_jet2
        for p in rng.uniform(-2, 2, size=(25, 3)):
            df = eval_jet2(f, chart, p).gradient
            dg = eval_jet2(g, chart, p).gradient
            expected = np.einsum("ijk,i,j,k->", eps, df, dg, B)
            assert np.isclose(rp_bracket(spec, f, g, p), expected, rtol=1e-10,
                              atol=1e-12)

    def test_unit_novikov_value(self):
        torus = Chart(("t1", "t2", "t3"))
        spec = RPBracketSpec(torus, (parse("t3"),))
        assert rp_bracket(spec, "t1", "t2", (0.0, 0.0, 0.0)) == 1.0

    def test_bilinearity(self, x_casimir, rng):
        f, g, h = parse("y*z"), parse("z^2-y"), parse("sin(y)+z")
        chart = x_casimir.chart
        for _ in range(25):
            a, b = rng.uniform(-3, 3, size=2)
            p = rng.uniform(-2, 2, size=3)
            combo = a * f + b * g
            lhs = rp_bracket(x_casimir, combo, h, p)
            rhs = (a * rp_bracket(x_casimir, f, h, p)
                   + b * rp_bracket(x_casimir, g, h, p))
            assert np.isclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_leibniz(self, x_casimir, rng):
        h, f, g = parse("y+z^2"), parse("y*z"), parse("z-y^2")
        chart = x_casimir.chart
        for p in rng.uniform(-2, 2, size=(30, 3)):
            lhs = rp_bracket(x_casimir, h, f * g, p)
            rhs = (eval_value(f, chart, p) * rp_bracket(x_casimir, h, g, p)
                   + eval_value(g, chart, p) * rp_bracket(x_casimir, h, f, p))
            assert np.isclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_jacobi_identity(self, x_casimir, rng):
        for _ in range(30):
            coeffs = rng.uniform(-1, 1, size=9)
            f = parse(f"{coeffs[0]}*y^2+{coeffs[1]}*z+{coeffs[2]}*y*z")
            g = parse(f"{coeffs[3]}*z^2+{coeffs[4]}*y+{coeffs[5]}*y*z")
            h = parse(f"{coeffs[6]}*y+{coeffs[7]}*z+{coeffs[8]}*y^2*z")
            p = rng.uniform(-1.5, 1.5, size=3)
            total = 0.0
            for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
                inner = rp_bracket_expr(x_casimir, b, c)
                total += rp_bracket(x_casimir, a, inner, p)
            assert abs(total) <= 1e-8

    def test_degenerate_casimirs(self, space):
        spec = RPBracketSpec(space, (parse("x*0+1"),))
        with pytest.raises(DegenerateCasimirs):
            rp_bracket(spec, "y", "z", (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("casimir, p", [("sqrt(x)", (0.0, 0.5, 0.5)),
                                            ("log(x) - log(x)", (1e-320, 0.5, 0.5))])
    def test_non_finite_casimir_gradient_is_a_domain_error(self, space, casimir, p):
        # an infinite slope or an inf - inf gradient: a domain error, not a
        # dependence verdict on NaN rows, and numpy warns of neither
        spec = RPBracketSpec(space, (parse(casimir),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                rp_bracket(spec, "y", "z", p)
            with pytest.raises(DomainError):
                build_rp(spec, "y", "z", FreeCurve.exp(), [p])

    def test_non_finite_f_gradient_gives_a_non_finite_bracket(self, space):
        # only the rows of the independence check must be finite here; a
        # cli report writes the bracket as null
        spec = RPBracketSpec(space, (parse("x"),))
        with np.errstate(all="ignore"):
            assert not np.isfinite(rp_bracket(spec, "exp(800*y)", "z", (0.0, 1.0, 0.5)))
        with pytest.raises(DomainError):
            build_rp(spec, "exp(800*y)", "z", FreeCurve.exp(), [(0.0, 1.0, 0.5)])

    @pytest.mark.parametrize("site, message, rows", [
        ("_bracket", "metric determinant must be positive", [False, True, True, False]),
        ("rp_bracket_many", "non-finite casimir gradient values", [False, True, False, True]),
        ("build_rp", "non-finite gradient values of the casimirs, h or f",
         [False, True, False, True]),
    ])
    def test_a_batch_domain_error_flags_its_rows(self, space, site, message, rows):
        # each batch check flags the points it fails at, as a jet rule does
        x, one, zero = parse("x"), parse("1"), parse("0")
        pts = np.array([[1.0, 0.0, 0.5], [-1.0, 1.0, 0.5], [0.0, 0.0, 0.5], [2.0, 1.0, 0.5]])
        calls = {
            # det g = x
            "_bracket": lambda: rp_bracket_many(RPBracketSpec(space, (parse("z"),), metric=(
                (x, zero, zero), (zero, one, zero), (zero, zero, one))), x, parse("y"), pts),
            # the casimir's slope is infinite where y = 1
            "rp_bracket_many": lambda: rp_bracket_many(
                RPBracketSpec(space, (parse("sqrt(1-y)"),)), x, parse("z"), pts),
            # h overflows where y = 1
            "build_rp": lambda: build_rp(RPBracketSpec(space, (parse("z"),)), "exp(800*y)",
                                         "x", FreeCurve.exp(), pts),
        }
        with np.errstate(all="ignore"), pytest.raises(DomainError, match=message) as info:
            calls[site]()
        assert info.value.rows.tolist() == rows

    def test_one_evaluation_per_bracket(self, space, monkeypatch):
        # the casimir rows of the one gradient stack serve the independence
        # check, so a domain error of f or g comes before a casimir error
        from hfreemaps import expr
        calls = []
        evaluate = expr._evaluate

        def counted(*args, **kwargs):
            calls.append(1)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(expr, "_evaluate", counted)
        spec = RPBracketSpec(space, (parse("x+0.1*z^2"),))
        rp_bracket(spec, "y", "z", (0.3, -0.7, 1.1))
        assert len(calls) == 1
        with pytest.raises(DomainError):
            rp_bracket(RPBracketSpec(space, (parse("x*0+1"),)), "log(x-10)", "z",
                       (0.0, 0.0, 0.0))

    def test_metric_scaling(self, space, rng):
        # conformal metric 4*id divides the bracket by sqrt(det) = 8
        two = parse("4")
        zero = parse("0")
        spec = RPBracketSpec(space, (parse("x"),),
                             metric=((two, zero, zero),
                                     (zero, two, zero),
                                     (zero, zero, two)))
        plain = RPBracketSpec(space, (parse("x"),))
        f, g = parse("y^2"), parse("z+y")
        for p in rng.uniform(-1, 1, size=(10, 3)):
            assert np.isclose(rp_bracket(spec, f, g, p),
                              rp_bracket(plain, f, g, p) / 8.0, rtol=1e-12)


class TestBuildRp:
    def test_hamiltonian_field_of_coordinate(self, space):
        spec = RPBracketSpec(space, (parse("x"),))
        field = hamiltonian_field(spec, "y")
        values = [eval_value(c, space, (0.2, 0.4, 0.6)) for c in field.components]
        assert values == [0.0, 0.0, 1.0]

    def test_field_reproduces_bracket(self, space, rng):
        spec = RPBracketSpec(space, (parse("x+y^2"),))
        h = parse("z*y+x")
        field = hamiltonian_field(spec, h)
        from hfreemaps.lie import lie
        g = parse("sin(y)+z^2*x")
        for p in rng.uniform(-1.5, 1.5, size=(20, 3)):
            assert np.isclose(lie(field, g, p), rp_bracket(spec, h, g, p),
                              rtol=1e-11, atol=1e-11)

    def test_simple_construction(self, space, rng):
        spec = RPBracketSpec(space, (parse("x"),))
        pts = rng.uniform(-2, 2, size=(30, 3))
        built = build_rp(spec, "y", "z", FreeCurve.exp(), pts)
        assert [render(c) for c in built.map_spec.components] == ["z", "exp(z)"]
        assert verify_rp(spec, built, pts).all()

    def test_self_bracket_rejected(self, space, rng):
        spec = RPBracketSpec(space, (parse("x"),))
        pts = rng.uniform(-2, 2, size=(10, 3))
        with pytest.raises(NonTransversal):
            build_rp(spec, "y", "y", FreeCurve.exp(), pts)

    def test_torus_circle_curve(self, rng):
        torus = Chart(("t1", "t2", "t3"))
        spec = RPBracketSpec(torus, (parse("t3"),))
        pts = rng.uniform(-np.pi, np.pi, size=(40, 3))
        built = build_rp(spec, "t1", "t2", FreeCurve.circle(), pts)
        assert built.curve.domain == "circle"
        assert verify_rp(spec, built, pts).all()

    def test_verify_matches_pointwise_certificates(self, space, rng):
        spec = RPBracketSpec(space, (parse("x"),))
        # {h, f} = 2 z: transversal where the map is built, zero on z = 0
        pts = rng.uniform(-2, 2, size=(60, 3))
        built = build_rp(spec, "y", "z^2", FreeCurve.exp(), np.abs(pts) + 0.1)
        pts[::3, 2] = 0.0
        dist = Distribution(space, (built.field,))
        oracle = np.array([bool(is_hfree_at(dist, built.map_spec, p)) for p in pts])
        got = verify_rp(spec, built, pts)
        assert got.dtype == bool and np.array_equal(got, oracle)
        assert not oracle[::3].any() and oracle.sum() == 40

    def test_dependent_hamiltonian_rejected(self, space, rng):
        spec = RPBracketSpec(space, (parse("x"),))
        pts = rng.uniform(-2, 2, size=(10, 3))
        with pytest.raises(DegenerateCasimirs):
            build_rp(spec, "2*x", "z", FreeCurve.exp(), pts)

    def test_one_evaluation_and_one_rank_check_per_build(self, space, rng, monkeypatch):
        # one stack of casimir, h and f gradients serves both the
        # independence check and the brackets {h, f}; on 300 points the
        # Gram bound proves every casimir and h pair independent, so the
        # check needs no SVD
        from hfreemaps import expr, geometry
        calls = {"evaluate": 0, "proof": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(expr, "_evaluate", counted("evaluate", expr._evaluate))
        monkeypatch.setattr(geometry, "full_rank_proven",
                            counted("proof", geometry.full_rank_proven))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        spec = RPBracketSpec(space, (parse("x+0.1*z^2"),))
        build_rp(spec, "y", "z", FreeCurve.exp(), rng.uniform(-2, 2, size=(300, 3)))
        assert calls == {"evaluate": 1, "proof": 1, "svd": 0}
