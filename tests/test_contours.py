import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfreemaps.expr import parse
from hfreemaps.contours import _endpoint_keys, _merge_segments, marching_squares, render_levels
from hfreemaps.transversal import Window

from oracles import per_node_render_levels


# -- reference implementation: one cell at a time ----------------------------

def _interp(p0, p1, v0, v1, level):
    t = 0.0 if v1 == v0 else (level - v0) / (v1 - v0)
    t = min(1.0, max(0.0, t))
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def _cell_segments(x0, x1, y0, y1, v00, v10, v01, v11, level):
    """Segments of one cell; corner values v[xy] with x fastest."""
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    values = (v00, v10, v11, v01)
    code = sum(1 << i for i, v in enumerate(values) if v > level)
    if code in (0, 15):
        return []
    edges = {
        0: _interp(corners[0], corners[1], values[0], values[1], level),
        1: _interp(corners[1], corners[2], values[1], values[2], level),
        2: _interp(corners[3], corners[2], values[3], values[2], level),
        3: _interp(corners[0], corners[3], values[0], values[3], level),
    }
    table = {
        1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
        6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)],
        11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(3, 0)],
    }
    if code in (5, 10):
        # saddle: disambiguate with the cell-centre average
        centre_above = (values[0] + values[1] + values[2] + values[3]) / 4.0 > level
        if code == 5:
            pairs = [(3, 0), (1, 2)] if centre_above else [(3, 2), (1, 0)]
        else:
            pairs = [(0, 1), (2, 3)] if centre_above else [(0, 3), (2, 1)]
    else:
        pairs = table[code]
    out = []
    for a, b in pairs:
        seg = (edges[a], edges[b])
        if seg[0] != seg[1]:
            out.append(seg)
    return out


def _reference_marching_squares(xs, ys, values, level):
    ny, nx = values.shape
    segments = []
    skipped = []
    finite = np.isfinite(values)
    with np.errstate(all="ignore"):  # the huge corner values overflow
        for iy in range(ny - 1):
            for ix in range(nx - 1):
                if not (finite[iy, ix] and finite[iy, ix + 1]
                        and finite[iy + 1, ix] and finite[iy + 1, ix + 1]):
                    skipped.append((iy, ix))
                    continue
                segments.extend(_cell_segments(
                    xs[ix], xs[ix + 1], ys[iy], ys[iy + 1],
                    values[iy, ix], values[iy, ix + 1],
                    values[iy + 1, ix], values[iy + 1, ix + 1], level))
    keys = _endpoint_keys(np.array(segments, dtype=float).reshape(-1, 2, 2))
    return _merge_segments(segments, keys), skipped


def _assert_matches_reference(xs, ys, values, level):
    lines, skipped = marching_squares(xs, ys, values, level)
    ref_lines, ref_skipped = _reference_marching_squares(xs, ys, values, level)
    assert skipped == ref_skipped
    assert len(lines) == len(ref_lines)
    for line, ref in zip(lines, ref_lines):
        assert np.array_equal(line, ref)
        assert np.array_equal(np.signbit(line), np.signbit(ref))
    return lines, skipped


# corner values on a coarse lattice, so that corners often sit exactly on
# a level and saddle centres land on either side of it; the huge values
# make the order of the centre sum matter (it overflows one way only)
_corner = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, np.nan,
                           -1e308, 1e308])
_steps = st.sampled_from([0.1, 0.25, 0.5, 1.0, 3.0])


@st.composite
def _grids(draw):
    ny = draw(st.integers(2, 6))
    nx = draw(st.integers(2, 6))
    x0 = draw(st.sampled_from([-1.0, -0.0, 0.0, 2.0]))
    y0 = draw(st.sampled_from([-2.0, -0.0, 0.5]))
    xs = np.append(x0, x0 + np.cumsum(draw(st.lists(_steps, min_size=nx - 1,
                                                    max_size=nx - 1))))
    ys = np.append(y0, y0 + np.cumsum(draw(st.lists(_steps, min_size=ny - 1,
                                                    max_size=ny - 1))))
    values = np.array(draw(st.lists(_corner, min_size=nx * ny, max_size=nx * ny)))
    level = draw(st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5, 0.1, -1e308]))
    return xs, ys, values.reshape(ny, nx), level


@given(grid=_grids())
@settings(max_examples=400, deadline=None)
def test_marching_squares_matches_cell_loop(grid):
    _assert_matches_reference(*grid)


def test_marching_squares_matches_cell_loop_on_smooth_grids():
    rng = np.random.default_rng(7)
    for _ in range(20):
        xs = np.cumsum(rng.uniform(0.05, 1.0, 12))
        ys = np.cumsum(rng.uniform(0.05, 1.0, 9))
        X, Y = np.meshgrid(xs, ys)
        values = np.sin(X * rng.uniform(0.5, 2)) * np.cos(Y) + rng.normal(0, 0.1, X.shape)
        for level in np.linspace(values.min(), values.max(), 7)[1:-1]:
            _assert_matches_reference(xs, ys, values, float(level))


XS = np.array([0.0, 1.0])
YS = np.array([0.0, 2.0])


@pytest.mark.parametrize("values, n_lines", [
    ([[1.0, -0.5], [-0.5, 1.0]], 2),    # code 5, centre above
    ([[1.0, -1.5], [-1.5, 1.0]], 2),    # code 5, centre below
    ([[-0.5, 1.0], [1.0, -0.5]], 2),    # code 10, centre above
    ([[-1.5, 1.0], [1.0, -1.5]], 2),    # code 10, centre below
])
def test_saddle_cells_match_cell_loop(values, n_lines):
    lines, _ = _assert_matches_reference(XS, YS, np.array(values), 0.0)
    assert len(lines) == n_lines


def test_corners_on_the_level_match_cell_loop():
    for values in ([[0.0, 1.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]],
                   [[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.0], [0.0, 1.0]]):
        _assert_matches_reference(XS, YS, np.array(values), 0.0)


def test_zero_length_segment_is_dropped():
    # code 7 whose only segment collapses onto the corner (x0, y1)
    values = np.array([[1.0, 1.0], [0.0, 1.0]])
    lines, skipped = _assert_matches_reference(XS, YS, values, 0.0)
    assert lines == [] and skipped == []


def test_nan_cells_are_skipped_like_cell_loop():
    values = np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 2.0], [0.0, 1.0, 2.0]])
    lines, skipped = _assert_matches_reference(
        np.array([0.0, 0.5, 2.0]), np.array([-1.0, 0.0, 1.0]), values, 0.5)
    assert skipped == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert lines == []


def test_linear_function_three_vertical_lines(plane):
    w = Window(0, 1, 0, 1, 11, 11)
    render = render_levels(parse("x"), plane, w, n_levels=3)
    assert np.allclose(render.levels, [0.25, 0.5, 0.75])
    for i, level in enumerate(render.levels):
        lines = render.polylines[i]
        assert len(lines) == 1
        assert np.allclose(lines[0][:, 0], level, atol=1e-12)


def test_circle_contour_is_closed(plane):
    w = Window(-2, 2, -2, 2, 81, 81)
    render = render_levels(parse("x^2+y^2"), plane, w, n_levels=7)
    mid = 2  # radius sqrt(3), comfortably inside the window
    lines = render.polylines[mid]
    assert len(lines) == 1
    loop = lines[0]
    assert np.allclose(loop[0], loop[-1], atol=1e-9)
    radii = np.hypot(loop[:, 0], loop[:, 1])
    assert radii.std() < 0.05 * radii.mean()


def test_separatrix_lines_at_unit_height(plane):
    w = Window(-2, 2, -2, 2, 101, 101)
    render = render_levels(parse("(y^2-1)*exp(x)"), plane, w, n_levels=15)
    zero_idx = int(np.argmin(np.abs(render.levels)))
    assert abs(render.levels[zero_idx]) < 1e-12
    lines = render.polylines[zero_idx]
    assert len(lines) >= 2
    for line in lines:
        assert np.abs(np.abs(line[:, 1]) - 1.0).max() <= 1e-3


def test_constant_function_warns(plane):
    render = render_levels(parse("2"), plane, Window(0, 1, 0, 1, 5, 5))
    assert render.levels.size == 0
    assert render.warnings


def test_domain_error_cells_skipped(plane):
    w = Window(-1, 1, 0.5, 1.5, 21, 21)
    render = render_levels(parse("log(x)"), plane, w, n_levels=3)
    assert len(render.skipped_cells) > 0
    # contours still come out on the valid half
    assert any(len(v) for v in render.polylines.values())


# each leaves its domain inside the windows below: log(0)+x at every node,
# and the last two at two different steps
@pytest.mark.parametrize("text", [
    "log(x)+y", "exp(-1/x^2)+y", "x^y", "sqrt(1-x^2-y^2)", "1/(x*y)", "log(0)+x",
    "x^0.5*log(y+0.5)", "log(x)+sqrt(y)"])
@pytest.mark.parametrize("window", [Window(-1, 1, -1, 1, 41, 41),
                                    Window(-1.3, 0.7, -0.9, 1.1, 30, 23)])
def test_domain_crossing_render_equals_the_per_node_one(plane, text, window):
    got = render_levels(parse(text), plane, window, n_levels=7)
    want = per_node_render_levels(parse(text), plane, window, n_levels=7)
    assert got.levels.tobytes() == want.levels.tobytes()
    assert got.polylines.keys() == want.polylines.keys()
    for level, lines in got.polylines.items():
        assert [line.tobytes() for line in lines] == [
            line.tobytes() for line in want.polylines[level]]
    assert got.skipped_cells == want.skipped_cells
    assert got.warnings == want.warnings
    assert got.svg(window) == want.svg(window)


def test_svg_deterministic(plane):
    w = Window(-2, 2, -2, 2, 41, 41)
    a = render_levels(parse("y*exp(x)"), plane, w).svg(w)
    b = render_levels(parse("y*exp(x)"), plane, w).svg(w)
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert 'viewBox="-2 -2 4 4"' in a
    assert "<polyline" in a


def test_marching_squares_level_crossing():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    vals = np.array([[0.0, 1.0], [0.0, 1.0]])
    lines, skipped = marching_squares(xs, ys, vals, 0.5)
    assert not skipped
    assert len(lines) == 1
    assert np.allclose(lines[0][:, 0], 0.5)


@pytest.mark.parametrize("n_levels", [0, -3])
def test_render_levels_needs_a_level(plane, n_levels):
    with pytest.raises(ValueError, match="at least one level"):
        render_levels(parse("x"), plane, Window(0, 1, 0, 1, 5, 5), n_levels=n_levels)
