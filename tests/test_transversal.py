import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfreemaps.cli import main
from hfreemaps.errors import BlowUp, CoverageGap, HfreeError
from hfreemaps.expr import Chart, parse
from hfreemaps.lie import VectorField, parse_field
from hfreemaps.transversal import (
    _STEP_RATE,
    Tube,
    Window,
    _field_fun,
    _Group,
    _integrate,
    _integrate_groups,
    _invert_bilinear,
    _locate_times,
    _nearest,
    _outside_cells,
    _unit_orthogonal,
    build_tube,
    build_tubes,
    flow,
    glue,
    step,
    tube_function,
    verify_transversal,
    write_grid_csv,
)

from oracles import bin_raster_locate_times, sequential_integrate, step_deriv
from test_expr import _exprs


class TestWindow:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Window(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Window(0, 1, 0, 1, nx=1)

    def test_nodes_order(self):
        w = Window(0, 1, 0, 2, nx=3, ny=2)
        nodes = w.nodes()
        assert nodes.shape == (6, 2)
        assert np.array_equal(nodes[0], [0, 0])
        assert np.array_equal(nodes[2], [1, 0])
        assert np.array_equal(nodes[3], [0, 2])


class TestFlow:
    def test_constant_field(self, plane):
        xi = parse_field(plane, "1", "0")
        assert np.allclose(flow(xi, (0, 0), 1.0), [1.0, 0.0], atol=1e-12)

    def test_rotation_quarter_turn(self, plane):
        xi = parse_field(plane, "-y", "x")
        end = flow(xi, (1.0, 0.0), np.pi / 2)
        assert np.abs(end - [0.0, 1.0]).max() <= 1e-8

    def test_first_integral_conserved(self, stripe):
        dist, _, integral = stripe
        xi = dist.frame[0]
        q = flow(xi, (0.0, 0.0), 1.0)
        drift = (q[1] ** 2 - 1) * np.exp(q[0]) + 1.0
        assert abs(drift) <= 1e-7

    def test_long_time_conservation_rotation(self, plane, rng):
        xi = parse_field(plane, "-y", "x")
        for _ in range(5):
            p = rng.uniform(-2, 2, size=2)
            c0 = p[0] ** 2 + p[1] ** 2
            for t in (-5.0, 5.0):
                q = flow(xi, p, t)
                assert abs(q[0] ** 2 + q[1] ** 2 - c0) <= 1e-7 * max(1.0, c0)

    def test_long_time_conservation_stripe(self, stripe, rng):
        # trajectories hug the separatrix by t = 5, where the integral's
        # condition number is ~1e4; tighter local tolerance keeps the
        # drift within budget
        dist, _, integral = stripe
        xi = dist.frame[0]
        for _ in range(5):
            p = rng.uniform(-0.3, 0.3, size=2)
            c0 = (p[1] ** 2 - 1) * np.exp(p[0])
            for t in (-5.0, 5.0):
                q = flow(xi, p, t, rtol=1e-13, atol=1e-13)
                c1 = (q[1] ** 2 - 1) * np.exp(q[0])
                assert abs(c1 - c0) <= 1e-7 * max(1.0, abs(c0))

    def test_blowup_detected(self, plane):
        xi = parse_field(plane, "1+x^2", "0")
        with pytest.raises(BlowUp):
            flow(xi, (0.0, 0.0), 3.0)

    @pytest.mark.parametrize("field, p, edge", [
        (("1", "-sqrt(y-0.5)"), (0.0, 0.6), 0.5),
        (("1", "sqrt(1.5-y)"), (0.0, 1.4), 1.5),
    ])
    def test_flow_onto_the_edge_of_the_domain_ends(self, plane, deadline, field, p, edge):
        # the flow reaches the edge y = edge before t = 1 and stays there: a
        # step past the edge is cut, and no later step passes the cut step's
        # end before the flow reaches it, so x does not creep
        xi = parse_field(plane, *field)
        calls = []

        def fun(y):
            calls.append(len(y))
            return _field_fun(xi)(y)
        with deadline(10):
            q = _integrate(fun, np.array(p), [1.0], 1e-10, 1e-10)[-1]
        assert len(calls) < 2000
        assert np.abs(q - [1.0, edge]).max() <= 1e-9
        # the sequential loop cuts its steps by the same rule
        want = sequential_integrate(_field_fun(xi), np.array(p), [1.0], 1e-10, 1e-10)
        assert q.tobytes() == want[-1].tobytes()

    @pytest.mark.parametrize("t", [0.1 + 2 ** -55, 0.10000000000000009, 0.6 + 1e-14])
    def test_time_just_past_a_step_is_reached(self, plane, t):
        # the first step is 0.1 and an error-free field grows it fivefold,
        # which would leave a remainder below the smallest allowed step
        xi = parse_field(plane, "1", "0")
        assert np.abs(flow(xi, (0.0, 0.0), t) - [t, 0.0]).max() <= 1e-15


class TestDenseOutput:
    def test_samples_of_a_rotation(self, plane):
        xi = parse_field(plane, "-y", "x")
        ts = np.linspace(0.05, 7.0, 140)
        for sign in (1.0, -1.0):
            got = _integrate(_field_fun(xi), np.array([1.0, 0.0]), sign * ts, 1e-10, 1e-10)
            want = np.column_stack([np.cos(sign * ts), np.sin(sign * ts)])
            assert got.shape == (140, 2)
            assert np.abs(got - want).max() <= 1e-8

    def test_last_sample_is_the_flow_end_state(self, stripe, rng):
        xi = stripe[0].frame[0]
        for p in rng.uniform(-0.5, 0.5, (5, 2)):
            for t in (0.3, -1.7, 2.5):
                ts = np.linspace(0.0, t, 9)[1:]
                got = _integrate(_field_fun(xi), p, ts, 1e-10, 1e-10)
                assert np.array_equal(got[-1], flow(xi, p, t))

    def test_batch_rows_match_single_rows(self, plane):
        # one row alone and inside a batch see different step sizes, so
        # they agree to the tolerance, not bit for bit
        xi = parse_field(plane, "-y", "x")
        ys = np.array([[1.0, 0.0], [0.0, 0.5], [-0.3, 0.2]])
        ts = np.linspace(0.1, 2.0, 20)
        batch = _integrate(_field_fun(xi), ys, ts, 1e-12, 1e-12)
        assert batch.shape == (20, 3, 2)
        for i, y in enumerate(ys):
            single = _integrate(_field_fun(xi), y, ts, 1e-12, 1e-12)
            assert np.abs(batch[:, i] - single).max() <= 1e-10

    def test_stop_drops_the_first_flagged_sample_and_after(self, plane):
        xi = parse_field(plane, "1", "0")
        ts = 0.01 * np.arange(1, 1001)
        got = _integrate(_field_fun(xi), np.array([0.0, 0.0]), ts, 1e-10, 1e-10,
                         stop=lambda ys: ys[:, 0, 0] > 0.505)
        assert len(got) == 50
        assert np.abs(got[:, 0] - ts[:50]).max() <= 1e-12

    def test_rows_freeze_and_a_frozen_batch_ends(self, plane):
        # every row leaves the box long before the last sample; once all
        # are frozen the run must end, not keep rejecting steps
        xi = parse_field(plane, "1", "0")
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        ys = np.array([[0.0, 0.0], [0.5, 0.3], [5.0, 0.0]])
        ts = np.linspace(0.05, 50.0, 1000)
        got = _integrate(_field_fun(xi), ys, ts, 1e-10, 1e-10, freeze_box=(lo, hi))
        assert np.array_equal(got[:, 2], np.broadcast_to(ys[2], (1000, 2)))
        for row in (0, 1):
            # a row holds the end of the step that left the box
            end = got[-1, row]
            assert end[0] > 1.0
            held = np.all(got[:, row] == end, axis=1)
            first = int(np.argmax(held))
            assert np.all(held[first:]) and first < 100
            assert np.abs(got[:first, row, 0] - ys[row, 0] - ts[:first]).max() <= 1e-12


# flow times in and around the step's support, and every other float
_STEP_ARGS = st.one_of(st.floats(-1.0, 1.0), st.floats(allow_nan=False))


class TestBumpProfile:
    """The tube step profile, :func:`step`."""

    def test_step_midpoint_exact(self):
        assert step(0.0) == 0.5
        assert step(-0.0) == 0.5

    def test_saturation(self):
        assert step(1.0) == 1.0
        assert step(-1.0) == 0.0
        assert step(7.0) == 1.0
        assert step(-3.5) == 0.0
        assert step(np.inf) == 1.0 and step(-np.inf) == 0.0
        assert step(1e300) == 1.0 and step(-1e300) == 0.0

    def test_nan_passes_through_and_shape_is_kept(self):
        got = step(np.array([[np.nan, 0.0], [-2.0, 0.5]]))
        assert got.shape == (2, 2) and np.isnan(got[0, 0])
        assert got[0, 1] == 0.5 and got[1, 0] == 0.0
        assert np.isnan(step(np.nan)) and np.shape(step(0.3)) == ()

    def test_strictly_increasing_inside(self):
        # near |t| = 1 the derivative is positive but smaller than the
        # resolution of the values, so strict growth of samples is only
        # observable away from the edges
        ts = np.linspace(-0.999, 0.999, 500)
        assert np.all(np.diff(step(ts)) >= 0)
        inner = np.linspace(-0.9, 0.9, 200)
        assert np.all(np.diff(step(inner)) > 0)

    @settings(max_examples=300, deadline=None)
    @given(_STEP_ARGS)
    def test_symmetry(self, t):
        assert abs(step(t) + step(-t) - 1.0) <= 2.0 ** -52

    @settings(max_examples=300, deadline=None)
    @given(_STEP_ARGS)
    def test_agrees_with_mpmath(self, t):
        # bound 2^-52 on the absolute error: the roundings of the argument,
        # of tanh and of 1 + tanh (measured: 1.2 * 2^-53 at worst over
        # 28,000 points in and near (-1, 1))
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x = mpmath.mpf(t)
            want = (mpmath.mpf(x > 0) if abs(x) >= 1
                    else (1 + mpmath.tanh(_STEP_RATE * x / (1 - x * x))) / 2)
            assert abs(mpmath.mpf(float(step(t))) - want) <= mpmath.mpf(2) ** -52

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_STEP_ARGS, min_size=2, max_size=50))
    def test_monotone_on_sorted_draws(self, ts):
        assert np.all(np.diff(step(np.sort(ts))) >= 0.0)

    def test_derivative_oracle_matches_centered_differences(self):
        ts = np.linspace(-0.99, 0.99, 1981)
        h = 1e-5
        centered = (step(ts + h) - step(ts - h)) / (2.0 * h)
        # truncation h^2 |step'''| / 6 and rounding 2^-53 / h: under 1e-9
        np.testing.assert_allclose(step_deriv(ts), centered, rtol=1e-6, atol=1e-9)
        assert step_deriv(0.0) == _STEP_RATE / 2
        assert np.all(step_deriv(np.array([-1.0, 1.0, 2.0, -np.inf])) == 0.0)


class TestScipyOracle:
    @pytest.mark.parametrize("n_points, n_targets",
                             [(7, 1), (50, 3), (3000, 257), (20000, 8001)])
    def test_nearest_matches_kdtree(self, rng, n_points, n_targets):
        spatial = pytest.importorskip("scipy.spatial")
        points = rng.uniform(-2.0, 2.0, (n_points, 2))
        targets = rng.uniform(-1.0, 1.0, (n_targets, 2))
        # 3000 x 257 pairs take several chunks of at most 2**18; 20000 x 8001
        # take rows of 32 points
        _, want = spatial.cKDTree(targets).query(points)
        assert np.array_equal(_nearest(points, targets), want)

    def test_nearest_takes_first_of_ties(self):
        spatial = pytest.importorskip("scipy.spatial")
        xs = np.linspace(-1.0, 1.0, 11)
        targets = np.column_stack([xs, np.zeros_like(xs)])
        points = Window(-1.0, 1.0, -1.0, 1.0, 41, 41).nodes()
        got = _nearest(points, targets)
        d2 = ((points[:, None, :] - targets[None, :, :]) ** 2).sum(axis=-1)
        assert np.array_equal(got, np.argmin(d2, axis=1))
        dist, _ = spatial.cKDTree(targets).query(points)
        assert np.array_equal(np.sqrt(d2[np.arange(len(points)), got]), dist)


class TestTubes:
    def test_constant_field_closed_form(self, plane):
        # flow time along (1, 0) from the vertical transversal is x - x0
        w = Window(-1, 1, -1, 1, 41, 41)
        xi = parse_field(plane, "1", "0")
        tube = build_tube(xi, (0.0, 0.0), w)
        tv = tube_function(tube)
        xs = w.xs()
        for ix in (0, 10, 20, 30, 40):
            expected = step(xs[ix])
            column = tv.values[:, ix]
            assert np.allclose(column, expected, atol=5e-9)

    def test_midline_value(self, plane):
        w = Window(-1, 1, -1, 1, 21, 21)
        xi = parse_field(plane, "1", "0")
        tube = build_tube(xi, (0.0, 0.0), w)
        tv = tube_function(tube)
        assert np.allclose(tv.values[:, 10], 0.5, atol=1e-10)

    def test_saturated_sides(self, plane):
        w = Window(-4, 4, -1, 1, 41, 11)
        xi = parse_field(plane, "1", "0")
        tube = build_tube(xi, (0.0, 0.0), w, t_span=2.0)
        tv = tube_function(tube)
        assert np.all(tv.values[:, 0] == 0.0)   # x = -4 is beyond t = -1
        assert np.all(tv.values[:, -1] == 1.0)  # x = +4 is beyond t = +1

    def test_leaf_of_no_samples_is_the_seed(self, plane):
        xi = parse_field(plane, "1", "0")
        tube = build_tube(xi, (0.0, 0.0), Window(-1, 1, -1, 1, 11, 11), max_samples=0)
        assert np.array_equal(tube.transversal, [[0.0, 0.0]])
        assert np.abs(tube.states[0, :, 0] - tube.times).max() <= 1e-12

    @pytest.mark.parametrize("field, seed", [
        (("x - y", "x + y"), (0.5, 0.0)),   # the leaf spirals into a focus
        (("y", "-x"), (0.28, 0.0)),          # the radial leaf runs into a centre
    ])
    def test_leaf_into_a_zero_of_the_field_raises(self, plane, deadline, field, seed):
        # the leaf reaches the zero at the origin within its arclength, where
        # the unit orthogonal field has no limit: BlowUp, not an endless creep
        with deadline(10), pytest.raises(BlowUp, match="step size underflow"):
            build_tube(parse_field(plane, *field), seed, Window(-1, 1, -1, 1))

    def test_tube_across_the_edge_of_the_domain_exits_1(self, tmp_path, capsys, deadline):
        # the flow of (sqrt(y - 0.5), -1) leaves the field's domain across
        # y = 0.5: its steps shrink to the smallest one there, then the
        # DomainError ends the run
        path = tmp_path / "edge.ini"
        path.write_text("[chart]\ncoords = x, y\n[distribution]\nfield = sqrt(y-0.5), -1\n"
                        "[window]\nbox = -0.2:0.2, 0.55:0.65\ngrid = 11, 11\n[task]\n"
                        "kind = transversal\nseed = 0, 0.6\nt_span = 1.0\n", encoding="utf-8")
        with deadline(10):
            assert main([str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: DomainError: sqrt of a negative argument")

    def test_unclassifiable_node_raises(self, plane):
        # truncate the transversal so nodes straight above its endpoint
        # sit exactly orthogonal to the flow direction there
        from hfreemaps.errors import OutsideTube
        w = Window(-1, 1, -3, 3, 11, 13)
        xi = parse_field(plane, "1", "0")
        tube = build_tube(xi, (0.0, 0.0), w, max_samples=3)
        with pytest.raises(OutsideTube):
            tube_function(tube)


class TestGlue:
    def test_single_tube_constant_field(self, plane):
        w = Window(-1, 1, -1, 1, 51, 51)
        xi = parse_field(plane, "1", "0")
        tube = build_tube(xi, (0.0, 0.0), w)
        result = glue([tube], [1.0])
        assert result.ok
        assert result.min_interior > 0

    def test_zero_weights_fail_verification(self, plane):
        w = Window(-1, 1, -1, 1, 31, 31)
        xi = parse_field(plane, "1", "0")
        tube = build_tube(xi, (0.0, 0.0), w)
        result = glue([tube], [0.0])
        assert not result.ok
        assert result.min_interior == 0.0

    def test_coverage_gap_reported(self, plane):
        # a single narrow-span tube cannot band-cover a wide window
        w = Window(-4, 4, -1, 1, 41, 11)
        xi = parse_field(plane, "1", "0")
        tube = build_tube(xi, (0.0, 0.0), w, t_span=2.0)
        with pytest.raises(CoverageGap) as info:
            glue([tube], [1.0])
        assert len(info.value.cells) > 0

    def test_stripe_fixture(self, stripe):
        dist, _, _ = stripe
        xi = dist.frame[0]
        w = Window(-1, 1, -1, 1, 101, 101)
        tubes = [build_tube(xi, (0.0, s), w) for s in (-0.9, 0.0, 0.9)]
        result = glue(tubes, [1.0, 1.0, 1.0])
        assert result.ok
        assert result.min_interior > 0.0

    def test_tubes_must_share_one_window(self, plane):
        xi = parse_field(plane, "1", "0")
        tubes = [build_tube(xi, (0.0, 0.0), Window(-1, 1, -1, 1, n, n)) for n in (11, 13)]
        for bad in ([], tubes):
            with pytest.raises(ValueError, match="one window"):
                glue(bad, [1.0] * len(bad))

    def test_a_step_fails_verification(self, stripe):
        # seeds apart along the flow leave a step where one tube's band
        # ends inside another's: the centered differences of the glued grid
        # see it, while the flow-box sum of step'(t) stays positive
        xi = stripe[0].frame[0]
        w = Window(-1, 1, -1, 1, 61, 61)
        seeds = [(-0.188, 0.779), (0.111, 0.149), (-0.551, 0.049), (0.042, -0.781)]
        tubes = build_tubes(xi, seeds, w)
        result = glue(tubes, [1.0] * len(seeds))
        assert not result.ok
        assert result.min_interior < -0.9
        flow_box = sum(np.where(np.isnan(tv.times), 0.0, step_deriv(tv.times))
                       for tv in map(tube_function, tubes))
        assert flow_box[1:-1, 1:-1].min() > 0.2

    def test_monotone_along_flow_direction(self, plane):
        # for the coordinate field the glued function must increase in x
        w = Window(-1, 1, -1, 1, 41, 41)
        xi = parse_field(plane, "1", "0")
        tubes = [build_tube(xi, (s, 0.0), w) for s in (-0.5, 0.5)]
        result = glue(tubes, [1.0, 2.0])
        assert result.ok
        assert np.all(np.diff(result.values, axis=1) >= -1e-12)


class TestVerifyTransversal:
    def test_stripe_minimum(self, stripe):
        dist, f, _ = stripe
        rep = verify_transversal(dist.frame[0], f, Window(-1, 1, -1, 1, 101, 101))
        assert abs(rep.min_value - np.exp(-1)) <= 1e-12
        assert np.array_equal(rep.argmin, [-1.0, 0.0])

    def test_coordinate_field(self, plane):
        xi = parse_field(plane, "1", "0")
        rep = verify_transversal(xi, parse("x"), Window(-1, 1, -1, 1, 11, 11))
        assert rep.min_value == 1.0
        assert np.all(rep.lie_values == 1.0)

    def test_first_integral_flat(self, stripe):
        dist, _, integral = stripe
        rep = verify_transversal(dist.frame[0], integral,
                                 Window(-1, 1, -1, 1, 21, 21))
        assert abs(rep.min_value) <= 1e-14
        assert np.abs(rep.lie_values).max() <= 1e-14

    def test_sign_agreement_with_glue(self, stripe):
        dist, _, _ = stripe
        xi = dist.frame[0]
        w = Window(-1, 1, -1, 1, 61, 61)
        tubes = [build_tube(xi, (0.0, s), w) for s in (-0.9, 0.0, 0.9)]
        result = glue(tubes, [1.0, 1.0, 1.0])
        assert result.ok
        interior = result.lie_values[1:-1, 1:-1]
        assert np.all(interior > 0)


def test_grid_csv_format(tmp_path, stripe):
    dist, f, _ = stripe
    w = Window(-1, 1, -1, 1, 5, 4)
    rep = verify_transversal(dist.frame[0], f, w)
    path = tmp_path / "grid.csv"
    write_grid_csv(path, w, rep.values, rep.lie_values)
    raw = path.read_bytes().decode()
    lines = raw.split("\n")
    assert lines[0] == "x,y,f,lie_f"
    assert len(lines) == 1 + 5 * 4 + 1  # header + rows + trailing newline
    assert "," not in lines[1].replace(",", "", 3)  # exactly four columns
    assert raw.count("\r") == 0
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -1.0


def _reference_grid_csv(window, values, lie_values) -> str:
    """Per-node formatting of the grid CSV, one numpy scalar at a time."""
    xs, ys = window.xs(), window.ys()
    lines = ["x,y,f,lie_f"]
    for iy in range(window.ny):
        for ix in range(window.nx):
            lines.append(f"{float(xs[ix])!r},{float(ys[iy])!r},"
                         f"{float(values[iy, ix])!r},{float(lie_values[iy, ix])!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("window", [
    Window(-1, 1, -1, 1, 5, 4),
    Window(-0.0, 3e-300, -1e300, 1e300, 7, 3),
    Window(0.1, 0.7, -2.5, 1.0 / 3.0, 2, 9),
])
def test_grid_csv_matches_per_node_formatting(tmp_path, window):
    rng = np.random.default_rng(window.nx * window.ny)
    special = np.array([-0.0, 0.0, 5e-324, -2.2250738585072e-310, 1e308,
                        -1.7976931348623157e308, 1e-300, 123456789.0,
                        np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0])
    shape = (window.ny, window.nx)
    values = rng.choice(special, size=shape)
    lie_values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    lie_values.flat[0] = -0.0
    path = tmp_path / "grid.csv"
    write_grid_csv(path, window, values, lie_values)
    assert path.read_bytes() == _reference_grid_csv(window, values, lie_values).encode()


def test_grid_csv_memory_does_not_grow_with_the_grid(tmp_path):
    window = Window(-1, 1, -1, 1, 301, 301)
    rng = np.random.default_rng(301)
    values, lie_values = rng.normal(size=(2, 301, 301))
    path = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        write_grid_csv(path, window, values, lie_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text alone is about 6.8 MB
    assert path.stat().st_size > 6_000_000
    assert peak < 1_000_000


def test_grid_csv_write_is_atomic(tmp_path, monkeypatch):
    w = Window(-1, 1, -1, 1, 3, 2)
    path = tmp_path / "grid.csv"
    path.write_text("old contents\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_grid_csv(path, w, np.zeros((2, 3)), np.ones((2, 3)))
    assert path.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv"]


# ---------------------------------------------------------------------------
# tubes against a tight reference

_TIGHT = 1e-13


def _leaf_march(xi, seed, window, n_steps, sign, box=None):
    """The orthogonal leaf marched one arclength step at a time at the
    tight tolerance, each sample the end state of its own integration;
    the march stops before the first sample outside ``box``."""
    ds = max(window.x1 - window.x0, window.y1 - window.y0) / 150.0
    field = _field_fun(xi)

    def perp(v):
        return _unit_orthogonal(field(v), 0.0)

    y, out = np.asarray(seed, dtype=float), []
    for _ in range(n_steps):
        y = _integrate(perp, y, [sign * ds], _TIGHT, _TIGHT)[-1]
        if box is not None and (np.any(y < box[0]) or np.any(y > box[1])):
            break
        out.append(y)
    return np.array(out).reshape(-1, 2)


def _tabulate(xi, transversal, times, box):
    """``build_tube``'s states, each tabulated time reached from the one
    before it by its own integration at the tight tolerance."""
    zero = len(times) // 2
    states = np.empty((len(transversal), len(times), 2))
    states[:, zero] = transversal
    for idx in list(range(zero + 1, len(times))) + list(range(zero - 1, -1, -1)):
        prev = idx - 1 if idx > zero else idx + 1
        states[:, idx] = _integrate(_field_fun(xi), states[:, prev],
                                    [times[idx] - times[prev]], _TIGHT, _TIGHT,
                                    freeze_box=box)[-1]
    return states


def _reference_tube(xi, seed, window, t_span=3.0):
    """``build_tube``'s sample rule at the tight tolerance: the leaf stops
    before its first sample outside the padded window."""
    lo, hi = window.padded_box(0.75)
    backward, forward = (_leaf_march(xi, seed, window, 4000, sign, (lo, hi))
                         for sign in (-1.0, 1.0))
    transversal = np.concatenate([backward[::-1], np.asarray(seed, float)[None], forward])
    times = np.linspace(-t_span, t_span, 121)
    return Tube(xi, np.asarray(seed, float), window, transversal, times,
                _tabulate(xi, transversal, times, (lo, hi)), 0.75)


@pytest.mark.parametrize("field, seed", [
    (("2*y", "1-y^2"), (0.05, -0.9)), (("2*y", "1-y^2"), (0.05, 0.0)),
    (("2*y", "1-y^2"), (-0.3, 0.4)), (("1", "0"), (0.0, 0.0)), (("1", "0"), (0.3, -0.2)),
    # defined on the padded window (y >= -1.75) but not much beyond: the
    # leaf's growing steps reach y < -2 and must be retried shorter
    (("sqrt(y+2)", "0"), (0.0, 0.0)),
])
def test_tube_within_bound_of_tight_reference(plane, field, seed):
    # measured: states 1.3e-9 and leaf 2.9e-9 at worst over these cases
    xi = parse_field(plane, *field)
    w = Window(-1, 1, -1, 1, 101, 101)
    tube = build_tube(xi, seed, w)
    lo, hi = w.padded_box(tube.pad)
    zero = int(np.nonzero(np.all(tube.transversal == tube.seed, axis=1))[0][0])
    forward = _leaf_march(xi, seed, w, len(tube.transversal) - zero - 1, 1.0)
    backward = _leaf_march(xi, seed, w, zero, -1.0)
    assert np.abs(tube.transversal[zero + 1:] - forward).max(initial=0.0) <= 5e-9
    assert np.abs(tube.transversal[:zero][::-1] - backward).max(initial=0.0) <= 5e-9
    ref = _tabulate(xi, tube.transversal, tube.times, (lo, hi))
    inside = np.all((tube.states >= lo) & (tube.states <= hi), axis=2)
    assert inside.mean() > 0.25  # the bound is not vacuous
    assert np.abs(tube.states - ref)[inside].max() <= 1e-8


def test_glue_agrees_with_tight_reference_on_generated_scenarios(plane):
    # seeds move together along x, as in the benchmark's glue op
    rng = np.random.default_rng(4)
    xi = parse_field(plane, "2*y", "1-y^2")
    w = Window(-1, 1, -1, 1, 61, 61)
    for _ in range(3):
        dx = round(float(rng.uniform(-0.1, 0.1)), 4)
        summary = []
        for make in (build_tube, _reference_tube):
            tubes = [make(xi, (dx, y), w) for y in (-0.9, 0.0, 0.9)]
            fields = [tube_function(tube) for tube in tubes]
            located = [np.mean(~np.isnan(tv.times)) for tv in fields]
            covered = np.zeros((w.ny, w.nx), dtype=bool)
            for tv in fields:
                with np.errstate(invalid="ignore"):
                    covered |= np.abs(tv.times) < 1.0
            result = glue(tubes, [1.0, 1.0, 1.0])
            summary.append((located, covered.mean(), result.min_interior > 0.0))
        assert summary[0] == summary[1], dx


# ---------------------------------------------------------------------------
# grouped integration against each group alone

_PLANE = Chart(("x", "y"))
_RATES = st.sampled_from([(1e-10, 1e-10), (1e-6, 1e-8), (1e-3, 1e-3)])
# named fields: the domain ends at y = -2 (shortened retries), the spiral
# leaves every box (stopped or frozen there), the rotation and the stripe
# stay bounded
_NAMED = st.sampled_from([("sqrt(y+2)", "0"), ("x - y", "x + y"), ("-y", "x"),
                          ("2*y", "1-y^2"), ("1", "0")]).map(lambda f: parse_field(_PLANE, *f))
_FIELDS = st.one_of(_NAMED, st.tuples(_exprs(partial=True), _exprs()).map(
    lambda c: VectorField(_PLANE, c)))
_coord = st.floats(-1.5, 1.5, allow_nan=False).map(lambda v: round(v, 3))


def _box(half):
    return np.array([-half, -half]), np.array([half, half])


@st.composite
def _groups(draw):
    n_rows = draw(st.integers(1, 4))
    rows = np.array(draw(st.lists(st.tuples(_coord, _coord), min_size=n_rows,
                                  max_size=n_rows)), dtype=float)
    y0 = rows[0] if n_rows == 1 and draw(st.booleans()) else rows
    n_times = draw(st.integers(0, 6))
    times = np.cumsum(draw(st.lists(st.sampled_from([0.05, 0.1, 0.3, 0.7]),
                                    min_size=n_times, max_size=n_times)))
    times = draw(st.sampled_from([1.0, -1.0])) * times
    half = draw(st.sampled_from([None, 1.2, 2.0]))
    stop = None if half is None else (lambda ys: np.any(np.abs(ys) > half, axis=(1, 2)))
    freeze = draw(st.sampled_from([None, 1.0, 1.6]))
    return _Group(y0, times, stop, None if freeze is None else _box(freeze))


def _outcome(call):
    try:
        return call()
    except HfreeError as exc:
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(xi=_FIELDS, groups=st.lists(_groups(), min_size=1, max_size=4), rates=_RATES)
@settings(max_examples=150, deadline=None)
def test_grouped_integration_equals_each_group_alone(xi, groups, rates):
    fun = _field_fun(xi)
    grouped = _integrate_groups(lambda y, rows: fun(y), groups, *rates)
    for group, got in zip(groups, grouped):
        kwargs = dict(freeze_box=group.freeze_box, stop=group.stop)
        alone = _outcome(lambda: _integrate(fun, group.y0, group.times, *rates, **kwargs))
        _assert_same_outcome(got, alone)
        # and the one-group case keeps the bits of the sequential loop
        with np.errstate(over="ignore", invalid="ignore"):
            want = _outcome(lambda: sequential_integrate(fun, group.y0, group.times, *rates,
                                                         **kwargs))
        _assert_same_outcome(alone, want)


@pytest.mark.parametrize("field, seeds", [
    (("2*y", "1-y^2"), [(0.05, -0.9), (0.05, 0.0), (0.05, 0.9)]),
    (("sqrt(y+2)", "0"), [(0.0, 0.0), (0.3, -0.5)]),
    (("1+x^2", "sin(3*y)"), [(0.1, 0.2), (-0.4, 0.6)]),
    # the first seed's leaf spirals into the focus: its BlowUp comes first
    (("x - y", "x + y"), [(0.5, 0.0), (0.0, 0.7)]),
    (("y", "-x"), [(0.6, 0.0), (0.28, 0.0)]),
    # the field vanishes at the second seed
    (("x", "y"), [(0.5, 0.5), (0.0, 0.0), (0.3, 0.1)]),
    # a domain error at the last seed
    (("log(x+1)", "1"), [(0.2, 0.0), (-1.5, 0.0)]),
])
def test_tubes_equal_the_seed_by_seed_build(plane, field, seeds):
    xi = parse_field(plane, *field)
    w = Window(-1, 1, -1, 1, 11, 11)
    grouped = _outcome(lambda: build_tubes(xi, seeds, w, max_samples=200))
    alone = _outcome(lambda: [build_tube(xi, s, w, max_samples=200) for s in seeds])
    if isinstance(alone, Exception):
        _assert_same_outcome(grouped, alone)
        return
    assert not isinstance(grouped, Exception), grouped
    for got, want in zip(grouped, alone, strict=True):
        for name in ("seed", "transversal", "times", "states"):
            _assert_same_outcome(getattr(got, name), getattr(want, name))
    # each tube keeps the bits of the sequential loop
    for tube in grouped:
        ref = _sequential_tube(xi, tube.seed, w)
        _assert_same_outcome(tube.transversal, ref.transversal)
        _assert_same_outcome(tube.states, ref.states)


def _sequential_tube(xi, seed, window, max_samples=200):
    """``build_tube`` on the sequential integration loop."""
    ds = max(window.x1 - window.x0, window.y1 - window.y0) / 150.0
    lo, hi = window.padded_box(0.75)
    seed = np.asarray(seed, dtype=float)
    field = _field_fun(xi)
    floor = 1e-6 * float(np.linalg.norm(field(seed)))
    backward, forward = (
        sequential_integrate(lambda y: _unit_orthogonal(field(y), floor), seed,
                             sign * ds * np.arange(1, max_samples + 1), 1e-10, 1e-10,
                             stop=lambda ys: np.any((ys < lo) | (ys > hi), axis=(1, 2)))
        for sign in (-1.0, 1.0))
    transversal = np.concatenate([backward[::-1], seed[None], forward])
    times = np.linspace(-3.0, 3.0, 121)
    before, after = (sequential_integrate(_field_fun(xi), transversal, times[part], 1e-10,
                                          1e-10, freeze_box=(lo, hi))
                     for part in (slice(59, None, -1), slice(61, None)))
    states = np.concatenate([before[::-1], transversal[None], after]).swapaxes(0, 1)
    return Tube(xi, seed, window, transversal, times, states, 0.75)


# ---------------------------------------------------------------------------
# tube location against the bin raster


@st.composite
def _charts(draw):
    """Tubes of generated charts: sheared and folded ones, and lattice
    charts whose vertices are window nodes, so that nodes lie exactly on
    cell edges and corners."""
    nx, ny = draw(st.integers(2, 23)), draw(st.integers(2, 23))
    window = Window(-1.0, 1.0, -0.5, 1.5, nx, ny)
    S, T = draw(st.integers(2, 14)), draw(st.integers(2, 14))
    span = draw(st.sampled_from([0.5, 1.0, 3.0]))
    times = np.linspace(-span, span, T)
    u = np.linspace(-1.2, 1.2, S)[:, None]
    v = (times / span)[None, :]
    kind = draw(st.sampled_from(["sheared", "folded", "lattice"]))
    if kind == "sheared":
        a, b, c, d = draw(st.lists(st.sampled_from([-1.0, -0.3, 0.0, 0.25, 0.5, 1.0]),
                                   min_size=4, max_size=4))
        x, y = u + a * v + b * u * v, 0.5 + c * u + v + d * v * v
    elif kind == "folded":
        # the flow lines bend back over the window: two preimages per node
        x, y = u * np.cos(2.0 * v), 0.5 + 0.9 * np.sin(2.5 * v) + 0.2 * u
    else:
        xs, ys = window.xs(), window.ys()
        i = draw(st.integers(0, max(0, nx - S)))
        j = draw(st.integers(0, max(0, ny - T)))
        x = xs[np.clip(i + np.arange(S), 0, nx - 1)][:, None] + 0.0 * v
        y = ys[np.clip(j + np.arange(T), 0, ny - 1)][None, :] + 0.0 * u
    states = np.stack(np.broadcast_arrays(x, y), axis=-1)
    return Tube(None, states[0, 0], window, states[:, T // 2], times, states, 0.75)


def _one_cell_times(tube, window):
    """Located times of every node in each cell alone, ``(cells, nodes)``:
    the location of the one-cell tubes, in cell order."""
    S, T = tube.states.shape[:2]
    return np.array([
        _locate_times(Tube(None, tube.seed, window, tube.transversal, tube.times[j:j + 2],
                           tube.states[i:i + 2, j:j + 2], tube.pad), window)
        for i in range(S - 1) for j in range(T - 1)]).reshape(-1, window.nx * window.ny)


@given(tube=_charts())
@settings(max_examples=300, deadline=None)
def test_node_raster_location_equals_the_bin_raster(tube):
    window = tube.window
    got = _locate_times(tube, window)
    want = bin_raster_locate_times(tube, window.nodes(), window)
    # the same preimage distance at every node; the sign may differ only
    # where preimages of opposite sign tie, which the bin raster broke by
    # its pair order
    assert np.abs(got).tobytes() == np.abs(want).tobytes()
    tied = np.flatnonzero(np.signbit(got) != np.signbit(want))
    assert np.all(got[tied] == -want[tied])
    # every node takes the smallest |t| of the cells that hold it, and of
    # equal |t| the lowest cell's
    per_cell = _one_cell_times(tube, window)
    has = np.flatnonzero(~np.all(np.isnan(per_cell), axis=0))
    assert np.array_equal(has, np.flatnonzero(~np.isnan(got)))
    dist = np.abs(per_cell[:, has])
    first = np.argmax(dist == np.nanmin(dist, axis=0), axis=0)
    assert per_cell[first, has].tobytes() == got[has].tobytes()


def test_node_raster_location_equals_the_bin_raster_on_glue_tubes(stripe):
    xi = stripe[0].frame[0]
    for window in (Window(-1, 1, -1, 1, 61, 47), Window(-1, 1, -1, 1, 101, 101)):
        for tube in build_tubes(xi, [(0.05, -0.9), (0.05, 0.0), (0.05, 0.9)], window):
            got = _locate_times(tube, window)
            assert np.mean(~np.isnan(got)) > 0.5
            assert got.tobytes() == bin_raster_locate_times(tube, window.nodes(),
                                                            window).tobytes()


# ---------------------------------------------------------------------------
# the cell pre-test against the bilinear solve


def _filtered_location(nodes, p00, p10, p01, p11):
    """``(u, v, ok)`` of every pair, solving only the pairs that the
    pre-test keeps; NaN and False for the others."""
    n = len(nodes)
    kept = np.flatnonzero(~_outside_cells(nodes[:, 0], nodes[:, 1], np.arange(n),
                                           p00, p10, p01, p11))
    got = [np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=bool)]
    for full, part in zip(got, _invert_bilinear(nodes[kept], p00[kept], p10[kept],
                                                p01[kept], p11[kept])):
        full[kept] = part
    return got


def _assert_pretest_keeps_the_solve(nodes, p00, p10, p01, p11):
    want = _invert_bilinear(nodes, p00, p10, p01, p11)
    for got, expected in zip(_filtered_location(nodes, p00, p10, p01, p11), want):
        assert got.tobytes() == expected.tobytes()


_UNIT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # p00, p10, p01, p11
# (u, v) on the corners and edges, just inside them and up to 1e-9 outside
_NEAR_EDGE = [0.0, 1.0, 0.5, 0.3, 1e-12, 1e-10, 1.0 - 1e-10, -1e-12, -1e-10, -5e-10, -1e-9,
              1.0 + 1e-10, 1.0 + 5e-10, 1.0 + 1e-9]


@st.composite
def _cells_with_nodes(draw):
    """One cell, convex, folded, degenerate or nearly degenerate, at some
    scale and place, and nodes at bilinear images of ``(u, v)`` near its
    edges and corners, repeated per node as the pairs of a location."""
    kind = draw(st.sampled_from(["convex", "folded", "degenerate", "thin"]))
    jitter = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8)))
    corners = _UNIT + jitter.reshape(4, 2)
    if kind == "folded":      # p10 and p11 swapped: the edges cross
        corners = corners[[0, 3, 2, 1]]
    elif kind == "degenerate":
        corners = draw(st.sampled_from([
            corners[[0, 1, 0, 1]],                                  # two corners twice
            np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),  # collinear
            corners[[0, 1, 2, 1]]]))                                # p11 on p10
    elif kind == "thin":      # nearly collinear: one side 1e-12 to 1e-6 of the other
        corners = corners * [1.0, draw(st.sampled_from([1e-12, 1e-9, 1e-6]))]
    angle = draw(st.floats(0.0, 2 * np.pi))
    turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    scale = draw(st.sampled_from([1e-3, 0.05, 1.0, 40.0]))
    origin = np.array(draw(st.tuples(st.floats(-3, 3), st.floats(-3, 3))))
    p00, p10, p01, p11 = origin + scale * corners @ turn.T
    uv = np.array(draw(st.lists(st.tuples(st.sampled_from(_NEAR_EDGE) | st.floats(-0.2, 1.2),
                                          st.sampled_from(_NEAR_EDGE) | st.floats(-0.2, 1.2)),
                                min_size=1, max_size=40)))
    u, v = uv[:, :1], uv[:, 1:]
    nodes = p00 + u * (p10 - p00) + v * (p01 - p00) + (u * v) * (p00 - p10 - p01 + p11)
    return (nodes,) + tuple(np.broadcast_to(p, nodes.shape).copy() for p in (p00, p10, p01, p11))


@given(pairs=_cells_with_nodes())
# a node on a subnormal corner: a root divides by a subnormal coefficient,
# which overflows and must not warn
@example(pairs=(np.array([[2.22507386e-314, 0.0]]), np.array([[2.22507386e-314, 0.0]]),
                np.array([[1e-3, 1e-3]]), np.array([[0.0, 1e-3]]), np.array([[1e-3, 0.0]])))
@settings(max_examples=400, deadline=None)
def test_cell_pretest_drops_no_pair_that_the_solve_accepts(pairs):
    _assert_pretest_keeps_the_solve(*pairs)


def test_cell_pretest_keeps_the_solve_on_the_demo_glue(stripe, monkeypatch):
    from hfreemaps import transversal
    calls, pretest = [], transversal._outside_cells

    def spy(qx, qy, cell, *corners):
        calls.append((np.column_stack([qx, qy]),) + tuple(p[cell] for p in corners))
        return pretest(qx, qy, cell, *corners)

    monkeypatch.setattr(transversal, "_outside_cells", spy)
    window = Window(-1, 1, -1, 1, 101, 101)
    for tube in build_tubes(stripe[0].frame[0], [(0, -0.9), (0, 0), (0, 0.9)], window):
        _locate_times(tube, window)
    assert len(calls) == 3
    for pairs in calls:
        _assert_pretest_keeps_the_solve(*pairs)
        # most pairs of these sheared cells are dropped before the solve
        dropped = pretest(pairs[0][:, 0], pairs[0][:, 1], np.arange(len(pairs[0])), *pairs[1:])
        assert dropped.mean() > 0.5


def test_cell_pretest_needs_its_margin(monkeypatch):
    from hfreemaps import transversal
    # a node 1e-10 outside an edge of the unit cell: the solve accepts it
    # within its eps, and a pre-test without the margin would drop it
    p00, p10, p01, p11 = (np.array([p]) for p in _UNIT)
    nodes = np.array([[0.5, -1e-10]])
    assert _invert_bilinear(nodes, p00, p10, p01, p11)[2].all()
    _assert_pretest_keeps_the_solve(nodes, p00, p10, p01, p11)
    monkeypatch.setattr(transversal, "_PRETEST_MARGIN", 0.0)
    with pytest.raises(AssertionError):
        _assert_pretest_keeps_the_solve(nodes, p00, p10, p01, p11)
