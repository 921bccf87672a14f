import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfreemaps.expr import Chart, Num, derivative, eval_value, fold_add, fold_mul, parse
from hfreemaps.geometry import Distribution
from hfreemaps.hfree import MapSpec, freedom_matrix, pair_order, parse_map
from hfreemaps.lie import VectorField, lie, lie_expr, parse_field
from hfreemaps.transversal import Window, verify_transversal

from oracles import anticommutator, lie2
from test_expr import _exprs


@pytest.fixture
def commuting(space):
    """Pair of commuting fields on R^3 whose span is integrable."""
    xi1 = parse_field(space, "cos(y)", "-sin(y)", "0")
    xi2 = parse_field(space, "0", "0", "1")
    return xi1, xi2


def test_field_needs_matching_components(plane):
    with pytest.raises(ValueError):
        VectorField(plane, (parse("1"),))


def test_lie_kills_first_integral(stripe, rng):
    dist, _, integral = stripe
    xi = dist.frame[0]
    for p in rng.uniform(-2, 2, size=(50, 2)):
        scale = max(1.0, abs(eval_value(integral, xi.chart, p)))
        assert abs(lie(xi, integral, p)) <= 1e-12 * scale * 10


def test_lie_transversal_value(stripe):
    dist, f, _ = stripe
    xi = dist.frame[0]
    assert np.isclose(lie(xi, f, (0.0, 0.0)), 1.0, rtol=1e-15)
    # general value (1 + y^2) e^x
    p = (0.4, -1.3)
    assert np.isclose(lie(xi, f, p), (1 + 1.3**2) * np.exp(0.4), rtol=1e-13)


def test_lie_along_coordinate_field(plane):
    xi = parse_field(plane, "1", "0")
    assert lie(xi, parse("x"), (5.0, 2.0)) == 1.0


class TestLie2:
    def test_second_derivative_along_x(self, plane):
        xi = parse_field(plane, "1", "0")
        assert lie2(xi, xi, parse("x^2"), (0.3, 0.7)) == 2.0

    def test_contact_cross_term(self, space):
        xi1 = parse_field(space, "0", "1", "0")
        xi2 = parse_field(space, "1", "0", "-y")
        for p in [(0, 0, 0), (1.0, -0.5, 2.0), (-2.0, 1.5, 0.25)]:
            assert lie2(xi1, xi2, parse("z"), p) == -1.0

    def test_vanishing_second_derivative(self, stripe):
        dist, f, _ = stripe
        xi = dist.frame[0]
        # 2y(1+y^2)e^x + (1-y^2) 2y e^x vanishes at y = 0
        assert abs(lie2(xi, xi, f, (0.0, 0.0))) < 1e-15

    def test_against_nested_finite_differences(self, stripe, rng):
        dist, f, _ = stripe
        xi = dist.frame[0]
        h = 1e-6
        for p in rng.uniform(-1.5, 1.5, size=(20, 2)):
            inner = lambda q: lie(xi, f, q)
            grad = np.array([
                (inner(p + h * e) - inner(p - h * e)) / (2 * h)
                for e in np.eye(2)])
            xv = np.array([eval_value(c, xi.chart, p) for c in xi.components])
            expected = float(xv @ grad)
            assert np.isclose(lie2(xi, xi, f, p), expected, rtol=1e-7, atol=1e-7)


class TestAnticommutator:
    def test_contact_matrix_entry(self, space):
        xi1 = parse_field(space, "0", "1", "0")
        xi2 = parse_field(space, "1", "0", "-y")
        for p in [(0, 0, 0), (0.7, 0.2, -1.0)]:
            assert anticommutator(xi1, xi2, parse("z"), p) == -1.0

    def test_diagonal_doubles(self, plane):
        xi = parse_field(plane, "1", "0")
        assert anticommutator(xi, xi, parse("x^2"), (1.0, 1.0)) == 4.0

    def test_symmetry_is_exact(self, space, commuting, rng):
        xi1, xi2 = commuting
        f = parse("z*exp(x)*cos(y)+sin(y*z)")
        for p in rng.uniform(-2, 2, size=(25, 3)):
            assert anticommutator(xi1, xi2, f, p) == anticommutator(xi2, xi1, f, p)

    def test_commuting_fields_value(self, commuting):
        # L_2 f = e^x cos y, then L_1 (e^x cos y) = e^x; the symmetric
        # sum at the origin is 2
        xi1, xi2 = commuting
        f = parse("z*exp(x)*cos(y)")
        assert np.isclose(anticommutator(xi1, xi2, f, (0.0, 0.0, 0.0)), 2.0,
                          rtol=1e-14)

    def test_derivative_of_plane_wave_along_rotation_frame(self, commuting, rng):
        # L_1 (e^x cos y) evaluates to e^x: settled numerically against
        # independent finite differences, not taken from anywhere else
        xi1, _ = commuting
        g = parse("exp(x)*cos(y)")
        h = 1e-6
        for p in rng.uniform(-1.5, 1.5, size=(25, 3)):
            fd = sum(
                eval_value(c, xi1.chart, p)
                * (eval_value(g, xi1.chart, p + h * e)
                   - eval_value(g, xi1.chart, p - h * e)) / (2 * h)
                for c, e in zip(xi1.components, np.eye(3)))
            assert np.isclose(lie(xi1, g, p), np.exp(p[0]), rtol=1e-12)
            assert np.isclose(fd, np.exp(p[0]), rtol=1e-8)


class TestAlgebraicProperties:
    def test_linearity(self, stripe, rng):
        dist, f, g = stripe
        xi = dist.frame[0]
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=2)
            p = rng.uniform(-2, 2, size=2)
            combo = a * f + b * g
            lhs = lie(xi, combo, p)
            rhs = a * lie(xi, f, p) + b * lie(xi, g, p)
            assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_leibniz(self, stripe, rng):
        dist, f, g = stripe
        xi = dist.frame[0]
        for p in rng.uniform(-1.5, 1.5, size=(50, 2)):
            lhs = lie(xi, f * g, p)
            rhs = (eval_value(f, xi.chart, p) * lie(xi, g, p)
                   + eval_value(g, xi.chart, p) * lie(xi, f, p))
            assert np.isclose(lhs, rhs, rtol=1e-10)

    def test_commuting_fields_swap(self, commuting, rng):
        xi1, xi2 = commuting
        f = parse("z*exp(x)*cos(y)+y^2")
        for p in rng.uniform(-2, 2, size=(40, 3)):
            a = lie2(xi1, xi2, f, p)
            b = lie2(xi2, xi1, f, p)
            assert np.isclose(a, b, rtol=1e-9, atol=1e-12)


def test_lie_expr_matches_pointwise(stripe, rng):
    dist, f, _ = stripe
    xi = dist.frame[0]
    sym = lie_expr(xi, f)
    for p in rng.uniform(-2, 2, size=(30, 2)):
        assert np.isclose(eval_value(sym, xi.chart, p), lie(xi, f, p),
                          rtol=1e-13, atol=1e-13)


def _lie_expr_with_every_derivative(xi, f):
    """``lie_expr`` as it was written before it skipped zero components."""
    out = fold_mul(xi.components[0], derivative(f, xi.chart.coords[0]))
    for name, comp in zip(xi.chart.coords[1:], xi.components[1:]):
        out = fold_add(out, fold_mul(comp, derivative(f, name)))
    return out


_COMPONENTS = st.one_of(st.sampled_from([Num(0.0), Num(-0.0)]), _exprs())


@given(components=st.lists(_COMPONENTS, min_size=2, max_size=2), f=_exprs(partial=True))
@settings(max_examples=200, deadline=None)
def test_lie_expr_skips_only_zero_components(components, f):
    xi = VectorField(Chart(("x", "y")), tuple(components))
    built = []

    def counted(e, name):
        built.append(name)
        return derivative(e, name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("hfreemaps.lie"), "derivative", counted)
        got = lie_expr(xi, f)
    assert got == _lie_expr_with_every_derivative(xi, f)
    assert built == [name for name, comp in zip(xi.chart.coords, components)
                     if not (isinstance(comp, Num) and comp.value == 0.0)]


def test_lie2_matches_symbolic_composition(stripe, commuting, rng):
    # independent route: build the first derivative as an expression
    # tree and differentiate again, instead of the single-pass jets
    dist, f, _ = stripe
    xi = dist.frame[0]
    for p in rng.uniform(-1.5, 1.5, size=(25, 2)):
        sym = eval_value(lie_expr(xi, lie_expr(xi, f)), xi.chart, p)
        assert np.isclose(lie2(xi, xi, f, p), sym, rtol=1e-11, atol=1e-11)
    xi1, xi2 = commuting
    g = parse("z*exp(x)*cos(y)+sin(y*z)")
    for p in rng.uniform(-1.5, 1.5, size=(25, 3)):
        sym = eval_value(lie_expr(xi1, lie_expr(xi2, g)), xi1.chart, p)
        assert np.isclose(lie2(xi1, xi2, g, p), sym, rtol=1e-11, atol=1e-11)


class TestLieEqualsTheBatch:
    """``lie`` at a point is the batch of one of ``lie_rows``, so it equals
    every batched first-order derivative bit for bit (the right-hand side
    of the linearized inversion: ``test_right_hand_side_matches_lie``)."""

    def test_transversal_grid(self, stripe):
        dist, _, _ = stripe
        xi = dist.frame[0]
        f = parse("y*exp(1.037*x)")
        window = Window(-1, 1, -1, 1, 61, 61)
        batch = verify_transversal(xi, f, window).lie_values.ravel()
        single = np.array([lie(xi, f, p) for p in window.nodes()])
        assert single.tobytes() == batch.tobytes()

    def test_freedom_matrix_first_rows(self, contact, rng):
        dist, _ = contact
        F = parse_map(dist.chart, "x*y+z", "sin(x)*z", "exp(y-z)", "x^2-y*z", "cos(x+y)")
        for p in rng.uniform(-2, 2, size=(200, 3)):
            entries = freedom_matrix(dist, F, p).entries
            single = [[lie(xi, Fi, p) for Fi in F.components] for xi in dist.frame]
            assert np.array(single).tobytes() == entries[:dist.k].tobytes()


def test_oracle_matches_second_order_rows(stripe, contact, commuting, space, rng):
    """The second-order rows of the freedom matrix against the pointwise
    ``lie2`` (diagonal) and ``anticommutator`` (off-diagonal) oracles."""
    dist, f, g = stripe
    cases = [(dist, MapSpec(dist.chart, (f, g, parse("exp(y*exp(x))")))), contact,
             (Distribution(space, commuting),
              parse_map(space, "z*exp(x)*cos(y)+sin(y*z)", "x^2*y", "exp(z-y)", "y*z"))]
    for d, F in cases:
        for p in rng.uniform(-1.5, 1.5, size=(25, d.chart.dim)):
            entries = freedom_matrix(d, F, p).entries
            for row, (a, b) in enumerate(pair_order(d.k), start=d.k):
                xa, xb = d.frame[a], d.frame[b]
                for i, Fi in enumerate(F.components):
                    want = lie2(xa, xa, Fi, p) if a == b else anticommutator(xa, xb, Fi, p)
                    assert abs(entries[row, i] - want) <= 1e-12 * max(1.0, abs(want))
