import warnings

import numpy as np
import pytest

from hfreemaps.errors import DegenerateFrame, DomainError, NotHFree, NotImmersion, TooFewTargets
from hfreemaps.expr import Num, eval_value, parse
from hfreemaps.geometry import Distribution
from hfreemaps.hfree import (
    MapSpec,
    _lie_rows,
    _stack_rows,
    freedom_matrix,
    freedom_matrix_many,
    induced_metric,
    induced_metric_many,
    infinitesimal_invert,
    is_h_immersion_at,
    is_hfree_at,
    pair_order,
    parse_map,
    positive_definite_many,
    wintergarten_rank,
)
from hfreemaps.lie import lie_expr, parse_field

from oracles import FrameChange, change_frame


def test_map_needs_two_components(plane):
    with pytest.raises(ValueError):
        MapSpec(plane, (parse("x"),))


def test_pair_order():
    assert pair_order(2) == [(0, 0), (0, 1), (1, 1)]
    assert pair_order(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


class TestAssembly:
    def test_contact_matrix_at_origin(self, contact):
        dist, F = contact
        M = freedom_matrix(dist, F, (0.0, 0.0, 0.0))
        expected = np.array([
            [1, 0, 1, 0, 0],
            [0, 1, 0, 1, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0, -1],
            [0, 0, 0, 1, 0],
        ], dtype=float)
        assert np.array_equal(M.entries, expected)
        assert M.certified_rank == 5
        assert M.det() == 1.0

    def test_contact_determinant_formula(self, contact, rng):
        dist, F = contact
        for p in rng.uniform(-2, 2, size=(100, 3)):
            M = freedom_matrix(dist, F, p)
            assert np.isclose(M.det(), np.exp(p[0] + p[1]), rtol=1e-12)

    def test_constant_map_rank_zero(self, contact):
        dist, _ = contact
        F = parse_map(dist.chart, "1", "2", "3", "4", "5")
        M = freedom_matrix(dist, F, (0.5, -0.5, 0.0))
        assert np.array_equal(M.entries, np.zeros((5, 5)))
        assert M.certified_rank == 0

    def test_exponential_graph_k1(self, plane):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        F = parse_map(plane, "x", "exp(x)")
        M = freedom_matrix(dist, F, (0.0, 0.0))
        assert np.array_equal(M.entries, [[1.0, 1.0], [0.0, 1.0]])
        assert M.det() == 1.0
        assert M.certified_rank == 2

    def test_degenerate_frame_raises(self, plane):
        dist = Distribution(plane, (parse_field(plane, "x", "0"),))
        F = parse_map(plane, "x", "y")
        with pytest.raises(DegenerateFrame):
            freedom_matrix(dist, F, (0.0, 1.0))

    def test_singular_values_sorted(self, contact, rng):
        dist, F = contact
        M = freedom_matrix(dist, F, rng.uniform(-1, 1, size=3))
        assert np.all(np.diff(M.singular_values) <= 0)


class TestCertificates:
    def test_contact_hfree_everywhere(self, contact, rng):
        dist, F = contact
        for p in rng.uniform(-2, 2, size=(50, 3)):
            cert = is_hfree_at(dist, F, p)
            assert cert.free
            assert cert.matrix.certified_rank == 5

    def test_too_few_targets(self, plane):
        # k = 2 needs q >= 5
        dist = Distribution(plane, (parse_field(plane, "1", "0"),
                                    parse_field(plane, "0", "1")))
        with pytest.raises(TooFewTargets):
            is_hfree_at(dist, parse_map(plane, "x", "y"), (0, 0))
        with pytest.raises(TooFewTargets):
            is_hfree_at(dist, parse_map(plane, "x", "y", "x*y", "x^2"), (0, 0))

    def test_affine_map_not_hfree(self, plane):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        F = parse_map(plane, "x", "x")
        cert = is_hfree_at(dist, F, (0.0, 0.0))
        assert not cert.free
        assert cert.matrix.certified_rank == 1

    def test_immersion_examples(self, plane):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        assert is_h_immersion_at(dist, parse_map(plane, "x", "y"), (0.2, 0.1))
        assert not is_h_immersion_at(dist, parse_map(plane, "1", "2"), (0.2, 0.1))

    def test_hfree_implies_immersion(self, contact, rng):
        dist, F = contact
        for p in rng.uniform(-2, 2, size=(20, 3)):
            assert is_hfree_at(dist, F, p).free
            assert is_h_immersion_at(dist, F, p)


    @pytest.mark.parametrize("call, outcome", [
        (lambda d, F, p: freedom_matrix_many(d, F, p[None]), DomainError),
        (is_hfree_at, DomainError),
        (wintergarten_rank, DomainError),
        (is_h_immersion_at, DomainError),
        (lambda d, F, p: induced_metric_many(d, F, p[None]), None),
    ], ids=["freedom_matrix_many", "is_hfree_at", "wintergarten_rank", "is_h_immersion_at",
            "induced_metric_many"])
    def test_non_finite_map_jets_give_no_numpy_warning(self, plane, call, outcome):
        # the gradient of sqrt(x) is infinite at x = 0, and its chain rule
        # meets 0 * inf; the assembly raises its own DomainError for that
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        F = parse_map(plane, "sqrt(x)", "y")
        p = np.array([0.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if outcome is None:
                assert np.isnan(call(dist, F, p)).all()
            else:
                with pytest.raises(outcome):
                    call(dist, F, p)

    def test_non_finite_jets_flag_their_rows(self, plane):
        # the points where the map jets are not finite, as a jet rule flags them
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        F = parse_map(plane, "sqrt(x)", "y")
        pts = np.array([[1.0, 0.5], [0.0, 0.5], [2.0, 0.5], [0.0, 1.0]])
        with np.errstate(all="ignore"), pytest.raises(
                DomainError, match="non-finite jet values while assembling rows") as info:
            freedom_matrix_many(dist, F, pts)
        assert info.value.rows.tolist() == [False, True, False, True]


class TestInducedMetric:
    def test_euclidean_pullback(self, plane):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        g = induced_metric(dist, parse_map(plane, "x", "y"), (3.0, 4.0))
        assert np.array_equal(g.matrix, [[1.0]])

    def test_one_dimensional_general_form(self, stripe, rng):
        dist, f, g = stripe
        F = MapSpec(dist.chart, (f, g))
        xi = dist.frame[0]
        for p in rng.uniform(-1, 1, size=(20, 2)):
            metric = induced_metric(dist, F, p)
            la = eval_value(lie_expr(xi, f), dist.chart, p)
            lb = eval_value(lie_expr(xi, g), dist.chart, p)
            assert np.isclose(metric.matrix[0, 0], la**2 + lb**2, rtol=1e-12)

    def test_contact_metric_at_origin(self, contact):
        dist, F = contact
        g = induced_metric(dist, F, (0.0, 0.0, 0.0))
        assert np.array_equal(g.matrix, [[2.0, 0.0], [0.0, 2.0]])
        assert g.is_positive_definite()

    def test_positive_definite_iff_immersion(self, plane, rng):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        immersed = parse_map(plane, "x", "x^2+y")
        flat = parse_map(plane, "y", "y^2")
        for p in rng.uniform(-1, 1, size=(20, 2)):
            assert (induced_metric(dist, immersed, p).is_positive_definite()
                    == is_h_immersion_at(dist, immersed, p))
            assert (induced_metric(dist, flat, p).is_positive_definite()
                    == is_h_immersion_at(dist, flat, p))

    def test_batch_equals_single_point(self, contact, rng):
        dist, F = contact
        pts = rng.uniform(-2, 2, size=(40, 3))
        many = induced_metric_many(dist, F, pts)
        assert many.shape == (40, 2, 2)
        for p, g in zip(pts, many):
            assert np.array_equal(g, induced_metric(dist, F, p).matrix)

    def test_non_finite_metric_is_not_positive_definite(self, plane):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        F = parse_map(plane, "x", "exp(800*x)")
        with np.errstate(all="ignore"):
            g = induced_metric(dist, F, (1.0, 0.0))
        assert not np.all(np.isfinite(g.matrix))
        assert not g.is_positive_definite()
        assert induced_metric(dist, F, (0.0, 0.0)).is_positive_definite()

    def test_stacked_verdicts_equal_each_matrix_alone(self):
        # positive definite, semidefinite, indefinite, non-finite, zero, badly scaled
        stack = np.array([[[2.0, 1.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]],
                          [[1.0, 2.0], [2.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                          [[np.nan, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]],
                          [[1e-300, 0.0], [0.0, 1e300]]])
        for metrics in (stack, stack[[0, 6]], stack[[3, 4]], stack[:0]):
            got = positive_definite_many(metrics)
            assert got.dtype == bool and got.shape == (len(metrics),)
            alone = [bool(np.all(np.isfinite(g))) and _has_cholesky(g) for g in metrics]
            assert got.tolist() == alone
        assert positive_definite_many(stack).tolist() == [True] + [False] * 5 + [True]

    def test_symmetry_exact(self, contact, rng):
        dist, F = contact
        g = induced_metric(dist, F, rng.uniform(-2, 2, size=3)).matrix
        assert np.array_equal(g, g.T)

    def test_positive_semidefinite_always(self, contact, plane, rng):
        cases = [contact,
                 (Distribution(plane, (parse_field(plane, "1", "0"),)),
                  parse_map(plane, "y", "y^2")),
                 (Distribution(plane, (parse_field(plane, "1", "0"),)),
                  parse_map(plane, "1", "2"))]
        for dist, F in cases:
            for p in rng.uniform(-2, 2, size=(20, dist.chart.dim)):
                eigs = np.linalg.eigvalsh(induced_metric(dist, F, p).matrix)
                assert eigs.min() >= -1e-12


class TestInvert:
    def test_homogeneous_system(self, contact):
        dist, F = contact
        zero = Num(0.0)
        dg = [[zero, zero], [zero, zero]]
        df = infinitesimal_invert(dist, F, (0.3, -0.2, 0.5), dg, [zero, zero])
        assert np.allclose(df, 0.0, atol=1e-14)

    def test_constant_dg_residual(self, contact, rng):
        dist, F = contact
        one, zero = Num(1.0), Num(0.0)
        dg = [[one, zero], [zero, one]]
        p = rng.uniform(-1, 1, size=3)
        df = infinitesimal_invert(dist, F, p, dg, [zero, zero])
        # rebuild the system rows and check the residual directly
        system = _stack_rows(*_lie_rows(dist, F, p[None, :], 1e-9)[1:], True)[0]
        rhs = np.array([0.0, 0.0, -1.0, 0.0, -1.0])
        assert np.linalg.norm(system @ df - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))

    def test_not_hfree_raises(self, plane):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        F = parse_map(plane, "x", "x")
        with pytest.raises(NotHFree):
            infinitesimal_invert(dist, F, (0, 0), [[Num(0.0)]], [Num(0.0)])

    def test_asymmetric_dg_rejected(self, contact):
        dist, F = contact
        zero, one = Num(0.0), Num(1.0)
        with pytest.raises(ValueError):
            infinitesimal_invert(dist, F, (0, 0, 0),
                                 [[zero, one], [zero, zero]], [zero, zero])

    def test_minimum_norm_solution(self, contact, rng):
        # widen the target so the system is underdetermined, then check
        # the returned solution has no component in the null space
        dist, F = contact
        wide = MapSpec(F.chart, F.components + (parse("x*y+z^2"),))
        zero, one = Num(0.0), Num(1.0)
        dg = [[one, zero], [zero, one]]
        for p in rng.uniform(-1, 1, size=(10, 3)):
            df = infinitesimal_invert(dist, wide, p, dg, [zero, one])
            system = _stack_rows(*_lie_rows(dist, wide, p[None, :], 1e-9)[1:], True)[0]
            _, svals, vh = np.linalg.svd(system)
            null_basis = vh[np.count_nonzero(svals > 1e-9 * svals[0]):]
            assert np.abs(null_basis @ df).max() <= 1e-10 * max(1.0, np.linalg.norm(df))

    def test_residual_bound_on_k1_fixture(self, stripe, rng):
        dist, f, _ = stripe
        F = MapSpec(dist.chart, (f, parse("exp(y*exp(x))")))
        for _ in range(10):
            p = rng.uniform(-1, 1, size=2)
            dg = [[Num(float(rng.uniform(-2, 2)))]]
            psi = [parse("x+y^2")]
            df = infinitesimal_invert(dist, F, p, dg, psi)
            system = _stack_rows(*_lie_rows(dist, F, p[None, :], 1e-9)[1:], True)[0]
            from hfreemaps.lie import lie
            rhs = np.array([
                eval_value(psi[0], dist.chart, p),
                2 * lie(dist.frame[0], psi[0], p) - eval_value(dg[0][0], dist.chart, p),
            ])
            residual = np.linalg.norm(system @ df - rhs)
            assert residual <= 1e-8 * (1 + np.linalg.norm(rhs))

    def test_right_hand_side_matches_lie(self, contact, stripe, rng):
        # the solve reads L_a psi_b from the frame values it assembled; the
        # solution equals the one from the textbook right-hand side via lie()
        from hfreemaps.lie import lie
        cross = parse("x*z-y")
        cases = [(*contact, [parse("x*y-z^2+sin(y)"), parse("exp(x)*z+y^3")],
                  [[parse("1+x^2"), cross], [cross, parse("cos(z)")]])]
        dist1, f, _ = stripe
        cases.append((dist1, MapSpec(dist1.chart, (f, parse("exp(y*exp(x))"))),
                      [parse("sin(x*y)+y^3")], [[parse("1+x^2")]]))
        for dist, F, psi, dg in cases:
            for p in rng.uniform(-1, 1, size=(10, dist.chart.dim)):
                df = infinitesimal_invert(dist, F, p, dg, psi)
                system = _stack_rows(*_lie_rows(dist, F, p[None, :], 1e-9)[1:], True)[0]
                rhs = [eval_value(e, dist.chart, p) for e in psi]
                for a, b in pair_order(dist.k):
                    lhs = lie(dist.frame[a], psi[b], p) + lie(dist.frame[b], psi[a], p)
                    rhs.append(lhs - eval_value(dg[a][b], dist.chart, p))
                want, *_ = np.linalg.lstsq(system, np.array(rhs), rcond=None)
                assert df.tobytes() == want.tobytes()

    def test_one_frame_check_and_one_certificate(self, contact, monkeypatch):
        # the jets are evaluated once: one SVD checks the frame, one
        # certifies the rank; the solve itself is a least-squares call
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        dist, F = contact
        zero = Num(0.0)
        infinitesimal_invert(dist, F, (0.3, -0.2, 0.5), [[zero, zero], [zero, zero]],
                             [zero, zero])
        assert len(calls) == 2


class TestWintergarten:
    def test_contact_rank_full(self, contact):
        dist, F = contact
        assert wintergarten_rank(dist, F, (0.0, 0.0, 0.0)) == 3

    def test_affine_map_rank_zero(self, plane):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        F = parse_map(plane, "x", "y")
        assert wintergarten_rank(dist, F, (0.1, 0.2)) == 0

    def test_one_svd_of_the_first_order_block(self, contact, monkeypatch):
        # the frame check, one full SVD of the first-order rows for both
        # the immersion rank and the normal basis, and the normal map
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        dist, F = contact
        assert wintergarten_rank(dist, F, (0.3, -0.2, 0.5)) == 3
        assert len(calls) == 3

    def test_not_immersion_raises(self, plane):
        dist = Distribution(plane, (parse_field(plane, "1", "0"),))
        F = parse_map(plane, "y", "y^2")
        with pytest.raises(NotImmersion):
            wintergarten_rank(dist, F, (0.0, 0.0))

    def test_partial_rank(self, space):
        # second-order rows span only two of the three symmetric
        # directions: an immersion that is not free, with rank 2
        dist = Distribution(space, (parse_field(space, "1", "0", "0"),
                                    parse_field(space, "0", "1", "0")))
        F = parse_map(space, "x", "y", "x^2", "x*y", "z")
        p = (0.3, -0.4, 0.8)
        assert is_h_immersion_at(dist, F, p)
        assert wintergarten_rank(dist, F, p) == 2
        assert not is_hfree_at(dist, F, p).free

    def test_equivalence_with_hfree(self, contact, stripe, rng):
        cases = [contact]
        dist1, f, _ = stripe
        F1 = MapSpec(dist1.chart, (f, parse("exp(y*exp(x))")))
        cases.append((dist1, F1))
        for dist, F in cases:
            m = dist.chart.dim
            s_k = dist.k * (dist.k + 1) // 2
            for p in rng.uniform(-1.5, 1.5, size=(25, m)):
                full = wintergarten_rank(dist, F, p) == s_k
                assert full == bool(is_hfree_at(dist, F, p))

    def test_rank_difference_oracle(self, contact, space, rng):
        # for an immersion the normal-map rank equals the assembled
        # matrix rank minus k: an independent route to the same number
        partial = (Distribution(space, (parse_field(space, "1", "0", "0"),
                                        parse_field(space, "0", "1", "0"))),
                   parse_map(space, "x", "y", "x^2", "x*y", "z"))
        for dist, F in (contact, partial):
            for p in rng.uniform(-1.5, 1.5, size=(20, 3)):
                M = freedom_matrix(dist, F, p)
                assert wintergarten_rank(dist, F, p) == M.certified_rank - dist.k


def test_diagonal_row_scaling_keeps_rank(contact, rng):
    dist, F = contact
    pts = rng.uniform(-2, 2, size=(50, 3))
    matrices, _, _, ranks = freedom_matrix_many(dist, F, pts)
    scaled = matrices.copy()
    diag_rows = [i + dist.k for i, (a, b) in enumerate(pair_order(dist.k)) if a == b]
    scaled[:, diag_rows, :] *= 2.0
    svals = np.linalg.svd(scaled, compute_uv=False)
    thresholds = 1e-9 * svals[:, 0] * max(scaled.shape[1], scaled.shape[2])
    scaled_ranks = np.count_nonzero(svals > thresholds[:, None], axis=-1)
    assert np.array_equal(ranks, scaled_ranks)


def test_trivialization_invariance_sample(contact, rng):
    dist, F = contact
    pts = rng.uniform(-2, 2, size=(30, 3))
    lam = FrameChange((
        (parse("1+0.5*tanh(x)"), parse("y-z")),
        (Num(0.0), parse("exp(z/3)")),
    ))
    changed = change_frame(dist, lam)
    for p in pts:
        assert (freedom_matrix(changed, F, p).certified_rank
                == freedom_matrix(dist, F, p).certified_rank)


def _has_cholesky(g):
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True
